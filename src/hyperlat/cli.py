"""Command-line front end: file ingestion, subcommand dispatch, JSON reports.

Output is deterministic for a fixed configuration: exact integers
everywhere, floats only in display fields at the configured precision,
dictionary key order fixed by construction.  Exit codes: 0 when a verdict
was delivered (including Unresolved), 1 on input errors, 2 on budget
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .cones import polytope_hypothesis_check
from .criteria import (convex_cocompact_rank5_family, entropy_report, k3_report,
                       uniform_lattice_family)
from .errors import BudgetError, HyperlatError, InputError
from .forms import (enumerate_norm_vectors, primitive_isotropic_vectors,
                    rational_isotropy, root_existence)
from .groups import (FGGroup, chamber_walk, dirichlet_domain,
                     limit_points_sample, orbit, tiling_check)
from .isometry import entropy, fixed_boundary_points, make_isometry
from .lattice import GramLattice, build_lattice, signature
from .model import ConeOrientation, pick_cone, point_from_ray, to_ball
from .plot import ball_csv, ball_svg, format_float


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as '-1,0' is a vector value, not an unknown option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # input errors exit 1, not argparse's 2
        self.exit(1, f"input error: {message}\n")


def _check_exact_ints(node, where: str) -> None:
    if isinstance(node, bool):
        raise InputError(f"{where}: booleans are not integers")
    if isinstance(node, float):
        raise InputError(f"{where}: floats are not accepted, integers only")
    if isinstance(node, list):
        for i, item in enumerate(node):
            _check_exact_ints(item, f"{where}[{i}]")


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from None


def load_lattice(path: str) -> GramLattice:
    data = load_json(path)
    if "gram" not in data:
        raise InputError(f"{path}: missing 'gram'")
    _check_exact_ints(data["gram"], f"{path}:gram")
    return build_lattice(data["gram"])


def load_matrix(path: str):
    data = load_json(path)
    if "matrix" not in data:
        raise InputError(f"{path}: missing 'matrix'")
    _check_exact_ints(data["matrix"], f"{path}:matrix")
    return data["matrix"]


def load_group(path: str, o: ConeOrientation) -> FGGroup:
    data = load_json(path)
    gens = data.get("generators")
    if not gens:
        raise InputError(f"{path}: missing 'generators'")
    out = []
    for i, g in enumerate(gens):
        if "matrix" not in g:
            raise InputError(f"{path}: generator {i} missing 'matrix'")
        _check_exact_ints(g["matrix"], f"{path}:generators[{i}]")
        out.append(make_isometry(o, g["matrix"]))
    return FGGroup(generators=tuple(out))


def parse_vector(text: str):
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad vector component {p!r}") from None
    return tuple(out)


def parse_int_vector(text: str):
    out = []
    for f in parse_vector(text):
        if f.denominator != 1:
            raise InputError(f"component {f} is not an integer")
        out.append(int(f))
    return tuple(out)


def _orientation(lattice: GramLattice, args) -> ConeOrientation:
    base = None
    if getattr(args, "v0", None):
        base = parse_int_vector(args.v0)
    return pick_cone(lattice, base)


def _round_floats(node, digits: int):
    if isinstance(node, float):
        return float(format_float(node, digits))
    if isinstance(node, list):
        return [_round_floats(x, digits) for x in node]
    if isinstance(node, dict):
        return {k: _round_floats(v, digits) for k, v in node.items()}
    return node


def emit(args, command: str, result: dict, config: dict) -> None:
    report = {
        "tool": "hyperlat",
        "version": __version__,
        "command": command,
        "config": config,
        "result": _round_floats(result, args.precision),
    }
    text = json.dumps(report, indent=2) + "\n"
    _write(args.output, text)


def _write(output: str | None, text: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers ------------------------------------------------------------

def cmd_info(args):
    lat = load_lattice(args.lattice)
    p, q = signature(lat)
    even = all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))
    emit(args, "info", {
        "rank": lat.rank,
        "determinant": lat.determinant,
        "signature": [p, q],
        "even": even,
        "gram": [list(r) for r in lat.gram],
    }, {"lattice": args.lattice})


def cmd_roots(args):
    lat = load_lattice(args.lattice)
    verdict = root_existence(lat, args.norm, args.height)
    emit(args, "roots", verdict.as_json(),
         {"lattice": args.lattice, "norm": args.norm, "height": args.height})


def cmd_isotropy(args):
    lat = load_lattice(args.lattice)
    verdict = rational_isotropy(lat, witness_height=args.height)
    emit(args, "isotropy", verdict.as_json(),
         {"lattice": args.lattice, "height": args.height})


def cmd_enumerate(args):
    lat = load_lattice(args.lattice)
    if args.norm == 0 and args.primitive:
        vecs = primitive_isotropic_vectors(lat, args.height)
    else:
        vecs = enumerate_norm_vectors(lat, args.norm, args.height)
        if args.primitive:
            vecs = [v for v in vecs if v.is_primitive]
    emit(args, "enumerate", {
        "kind": "Enumeration",
        "norm": args.norm,
        "height_bound": args.height,
        "count": len(vecs),
        "vectors": [list(v.coords) for v in vecs],
    }, {"lattice": args.lattice, "norm": args.norm, "height": args.height,
        "primitive": args.primitive})


def _ray_json(ray, digits):
    if ray.rational:
        return {"ray": list(ray.ray), "rational": True}
    field = ray.ray[0].field
    return {
        "rational": False,
        "numeric": [float(format_float(c.approx(), digits)) for c in ray.ray],
        "field_minpoly": list(field.minpoly_int),
        "coordinates": [[str(q) for q in c.coeffs] for c in ray.ray],
    }


def cmd_classify(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    g = make_isometry(o, load_matrix(args.isometry))
    cls = g.classification
    result = cls.as_json()
    result["entropy"] = entropy(g)
    result["charpoly"] = list(g.charpoly)
    if cls.kind in ("parabolic", "loxodromic"):
        result["fixed_rays"] = [_ray_json(r, args.precision)
                                for r in fixed_boundary_points(g)]
    emit(args, "classify", result,
         {"lattice": args.lattice, "isometry": args.isometry})


def cmd_entropy(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    rho = args.rho if args.rho else lat.rank
    rep = entropy_report(grp, args.budget, rho)
    emit(args, "entropy", rep.as_json(),
         {"lattice": args.lattice, "group": args.group,
          "budget": args.budget, "rho": rho})


def cmd_orbit(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    x = point_from_ray(o, parse_vector(args.point))
    pts = orbit(grp, x, args.depth)
    emit(args, "orbit", {
        "count": len(pts),
        "rays": [list(p.ray) for p in pts],
    }, {"lattice": args.lattice, "group": args.group, "point": args.point,
        "depth": args.depth})


def cmd_limits(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    x = point_from_ray(o, parse_vector(args.point))
    dirs = limit_points_sample(grp, x, args.depth)
    emit(args, "limits", {
        "cluster_count": len(dirs),
        "directions": [list(d) for d in dirs],
        "note": "sampled approximation at finite depth, not the full limit set",
    }, {"lattice": args.lattice, "group": args.group, "point": args.point,
        "depth": args.depth})


def cmd_dirichlet(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    h = point_from_ray(o, parse_vector(args.point))
    cone = dirichlet_domain(grp, h, args.budget)
    emit(args, "dirichlet", {
        "halfspaces": [list(w) for w in cone.halfspaces],
        "rays": [list(r) for r in (cone.rays or ())],
        "ray_tags": list(cone.ray_tags or ()),
        "truncated_at": cone.truncated_at,
        "hypothesis_check": polytope_hypothesis_check(cone, o),
    }, {"lattice": args.lattice, "group": args.group, "point": args.point,
        "budget": args.budget})


def cmd_tile_check(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    h = point_from_ray(o, parse_vector(args.point))
    cone = dirichlet_domain(grp, h, args.budget)
    report = tiling_check(cone, grp, args.samples, args.check_budget, seed=args.seed)
    emit(args, "tile-check", report,
         {"lattice": args.lattice, "group": args.group, "point": args.point,
          "budget": args.budget, "check_budget": args.check_budget,
          "samples": args.samples, "seed": args.seed})


def cmd_chamber_walk(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    start = parse_int_vector(args.point)
    result = chamber_walk(o, start, root_norm=args.norm, height=args.height,
                          step_budget=args.steps,
                          require_off_wall=args.strict_walls)
    emit(args, "chamber-walk", {
        "image": list(result.point),
        "word": [list(r) for r in result.word],
        "word_length": len(result.word),
        "completed": result.completed,
    }, {"lattice": args.lattice, "point": args.point, "norm": args.norm,
        "height": args.height, "steps": args.steps})


def cmd_criteria(args):
    if args.kind != "k3":
        raise InputError(f"unknown criteria kind {args.kind!r}")
    lat = load_lattice(args.lattice)
    grp = None
    if args.generators:
        o = _orientation(lat, args)
        grp = load_group(args.generators, o)
    report = k3_report(lat, height=args.height, generators=grp,
                       word_budget=args.budget, rho=args.rho)
    emit(args, "criteria", report.as_json(),
         {"lattice": args.lattice, "generators": args.generators,
          "height": args.height, "budget": args.budget, "rho": args.rho,
          "seed": args.seed})


def cmd_families(args):
    chosen = [name for name, val in
              (("uniform", args.uniform), ("cc-d4", args.cc_d4), ("cc-a2", args.cc_a2))
              if val is not None]
    if len(chosen) != 1:
        raise InputError("pick exactly one of --uniform, --cc-d4, --cc-a2")
    if args.uniform is not None:
        pair = uniform_lattice_family(args.uniform)
        lat = pair[0] if args.member == 3 else pair[1]
    elif args.cc_d4 is not None:
        lat = convex_cocompact_rank5_family("d4", args.cc_d4)
    else:
        lat = convex_cocompact_rank5_family("a2", args.cc_a2)
    text = json.dumps({"gram": [list(r) for r in lat.gram]}, indent=2) + "\n"
    _write(args.output, text)


def cmd_plot(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    x = point_from_ray(o, parse_vector(args.point))
    pts = orbit(grp, x, args.depth)
    tagged = [(to_ball(o, p), "orbit") for p in pts]
    tagged.append((to_ball(o, x), "basepoint"))
    for d in limit_points_sample(grp, x, args.depth):
        tagged.append((d, "limit"))
    csv_text = ball_csv(tagged, digits=args.precision)
    _write(args.out + ".csv", csv_text)
    wrote = [args.out + ".csv"]
    if lat.rank <= 4:  # ball dimension n <= 3
        _write(args.out + ".svg", ball_svg(tagged))
        wrote.append(args.out + ".svg")
    emit(args, "plot", {"points": len(tagged), "files": wrote},
         {"lattice": args.lattice, "group": args.group, "point": args.point,
          "depth": args.depth, "seed": args.seed})


# -- parser ---------------------------------------------------------------------------

def build_parser(subcommand: str | None = None) -> _Parser:
    """The hyperlat parser, with only `subcommand`'s subparser when it names one.

    A run parses one subcommand, so building the others is wasted work;
    any other value (None, an option, an unknown name) gives the full
    parser, whose help and errors list every subcommand.
    """
    parser = _Parser(prog="hyperlat",
                     description="exact computations on hyperbolic lattices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def wanted(name):
        return subcommand is None or subcommand == name

    def common(p, lattice=True):
        if lattice:
            p.add_argument("--lattice", required=True, help="lattice JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--precision", type=int, default=12,
                       help="float display digits (default 12)")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--v0", help="positive-cone base vector, e.g. '1,0,0'")

    if wanted("info"):
        p = sub.add_parser("info", help="rank, determinant, signature")
        common(p)
        p.set_defaults(func=cmd_info)

    if wanted("roots"):
        p = sub.add_parser("roots", help="root existence with certificates")
        common(p)
        p.add_argument("--height", type=int, default=10)
        p.add_argument("--norm", type=int, default=-2)
        p.set_defaults(func=cmd_roots)

    if wanted("isotropy"):
        p = sub.add_parser("isotropy", help="rational isotropy verdict")
        common(p)
        p.add_argument("--height", type=int, default=10)
        p.set_defaults(func=cmd_isotropy)

    if wanted("enumerate"):
        p = sub.add_parser("enumerate", help="norm-m vectors up to a height")
        common(p)
        p.add_argument("--norm", type=int, required=True)
        p.add_argument("--height", type=int, default=10)
        p.add_argument("--primitive", action="store_true")
        p.set_defaults(func=cmd_enumerate)

    if wanted("classify"):
        p = sub.add_parser("classify", help="classify one isometry")
        common(p)
        p.add_argument("--isometry", required=True, help="isometry JSON file")
        p.set_defaults(func=cmd_classify)

    if wanted("entropy"):
        p = sub.add_parser("entropy", help="entropy findings for a generated group")
        common(p)
        p.add_argument("--group", required=True, help="group JSON file")
        p.add_argument("--budget", type=int, default=6)
        p.add_argument("--rho", type=int, default=0)
        p.set_defaults(func=cmd_entropy)

    if wanted("orbit"):
        p = sub.add_parser("orbit", help="orbit of a rational point")
        common(p)
        p.add_argument("--group", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--depth", type=int, default=6)
        p.set_defaults(func=cmd_orbit)

    if wanted("limits"):
        p = sub.add_parser("limits", help="sampled limit directions")
        common(p)
        p.add_argument("--group", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--depth", type=int, default=10)
        p.set_defaults(func=cmd_limits)

    if wanted("dirichlet"):
        p = sub.add_parser("dirichlet", help="budget-truncated Dirichlet domain")
        common(p)
        p.add_argument("--group", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--budget", type=int, default=6)
        p.set_defaults(func=cmd_dirichlet)

    if wanted("tile-check"):
        p = sub.add_parser("tile-check", help="sampled tiling verification")
        common(p)
        p.add_argument("--group", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--budget", type=int, default=6)
        p.add_argument("--check-budget", type=int, default=8)
        p.add_argument("--samples", type=int, default=100)
        p.set_defaults(func=cmd_tile_check)

    if wanted("chamber-walk"):
        p = sub.add_parser("chamber-walk", help="reflect a point into the chamber")
        common(p)
        p.add_argument("--point", required=True)
        p.add_argument("--norm", type=int, default=-2)
        p.add_argument("--height", type=int, default=10)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--strict-walls", action="store_true")
        p.set_defaults(func=cmd_chamber_walk)

    if wanted("criteria"):
        p = sub.add_parser("criteria", help="full criteria report")
        p.add_argument("kind", choices=["k3"])
        common(p)
        p.add_argument("--generators", help="group JSON file (optional)")
        p.add_argument("--height", type=int, default=10)
        p.add_argument("--budget", type=int, default=6)
        p.add_argument("--rho", type=int, default=None)
        p.set_defaults(func=cmd_criteria)

    if wanted("families"):
        p = sub.add_parser("families", help="emit classified family lattices")
        common(p, lattice=False)
        p.add_argument("--uniform", type=int, default=None)
        p.add_argument("--member", type=int, choices=[3, 4], default=3)
        p.add_argument("--cc-d4", type=int, default=None)
        p.add_argument("--cc-a2", type=int, default=None)
        p.set_defaults(func=cmd_families)

    if wanted("plot"):
        p = sub.add_parser("plot", help="CSV/SVG of ball-model orbit coordinates")
        common(p)
        p.add_argument("--group", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--depth", type=int, default=8)
        p.add_argument("--out", required=True, help="output path prefix")
        p.set_defaults(func=cmd_plot)

    if not sub.choices:  # `subcommand` named none of them
        return build_parser()
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # keyed on argv[0] alone: 'hyperlat -h roots' prints the full parser's help
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except HyperlatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
