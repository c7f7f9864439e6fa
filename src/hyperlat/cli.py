"""Command-line front end: file ingestion, subcommand dispatch, JSON reports.

Output is deterministic for a fixed configuration: exact integers
everywhere, floats only in display fields at the configured precision,
dictionary key order fixed by construction.  Exit codes: 0 when a verdict
was delivered (including Unresolved), 1 on input errors, 2 on budget
errors.

JSON is read by the C scanner of `_json` and written by `_json_text`, so
a run imports neither `json` nor `re`: `json` is imported only to name
the fault in a malformed input file.
"""

from __future__ import annotations

import sys
from math import gcd, inf, lcm, nan

from _json import encode_basestring_ascii as _quote, make_scanner

from . import __version__
from .cones import polytope_hypothesis_check
from .criteria import (convex_cocompact_rank5_family, entropy_report, k3_report,
                       uniform_lattice_family)
from .errors import BudgetError, HyperlatError, InputError, InvalidParameter
from .forms import enumerate_norm_vectors, rational_isotropy, root_existence
from .groups import (FGGroup, _limit_directions, chamber_walk, dirichlet_domain,
                     limit_points_sample, orbit, tiling_check)
from .isometry import Isometry, entropy, fixed_boundary_points, make_isometry
from .lattice import GramLattice, build_lattice
from .model import ConeOrientation, pick_cone, point_from_ray, to_ball
from .plot import ball_csv, ball_svg, format_float


class _DecoderSettings:
    """The settings `make_scanner` reads: those of `json.JSONDecoder()`."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"-Infinity": -inf, "Infinity": inf, "NaN": nan}.__getitem__


_scan = make_scanner(_DecoderSettings)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable, or not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None
    body = text.strip(" \t\n\r")  # the whitespace JSON allows around a value
    try:
        data, end = _scan(body, 0)
    except (ValueError, StopIteration):
        end = None
    if end != len(body):  # json.loads(text) raises; it names the fault and where
        import json
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
                f"column {exc.colno}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return data


def load_lattice(path: str) -> GramLattice:
    data = load_json(path)
    if "gram" not in data:
        raise InputError(f"{path}: missing 'gram'")
    try:
        return build_lattice(data["gram"])
    except InvalidParameter as exc:  # not a matrix of integers
        raise InvalidParameter(f"{path}:gram: {exc}") from None


def load_matrix(path: str, o: ConeOrientation) -> Isometry:
    data = load_json(path)
    if "matrix" not in data:
        raise InputError(f"{path}: missing 'matrix'")
    try:
        return make_isometry(o, data["matrix"])
    except InputError as exc:
        raise type(exc)(f"{path}:matrix: {exc}") from None


def load_group(path: str, o: ConeOrientation) -> FGGroup:
    data = load_json(path)
    gens = data.get("generators")
    if not gens:
        raise InputError(f"{path}: missing 'generators'")
    if not isinstance(gens, list):
        raise InputError(f"{path}: 'generators' must be a list")
    out = []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "matrix" not in g:
            raise InputError(f"{path}: generator {i} missing 'matrix'")
        try:
            out.append(make_isometry(o, g["matrix"]))
        except InputError as exc:
            raise type(exc)(f"{path}: generator {i}: {exc}") from None
    return FGGroup(generators=tuple(out))


def _parse_rationals(text: str) -> list[tuple[int, int]]:
    """Comma-separated components 'n' or 'n/d' as (n, d) pairs, d > 0."""
    out = []
    for part in text.split(","):
        num, slash, den = part.strip().partition("/")
        try:
            out.append((int(num), int(den) if slash else 1))
        except ValueError:
            out.append((0, 0))
        if out[-1][1] <= 0:
            raise InputError(f"bad vector component {part.strip()!r}")
    return out


def parse_vector(text: str) -> tuple[int, ...]:
    """A rational vector given as integers and 'p/q' components, times the
    lcm of its denominators: an integer vector on the same ray."""
    pairs = _parse_rationals(text)
    den = lcm(*(d for _, d in pairs))
    return tuple(n * (den // d) for n, d in pairs)


def parse_int_vector(text: str) -> tuple[int, ...]:
    out = []
    for n, d in _parse_rationals(text):
        if n % d:
            raise InputError(f"component {n}/{d} is not an integer")
        out.append(n // d)
    return tuple(out)


def _orientation(lattice: GramLattice, args) -> ConeOrientation:
    return pick_cone(lattice, parse_int_vector(args.v0) if args.v0 else None)


_JSON_WORDS = {None: "null", True: "true", False: "false"}
# the scalars a container writes without a call of its own: exact types,
# so a bool (an int) or a subclass takes the general path
_INLINE = {str: _quote, int: int.__repr__, type(None): _JSON_WORDS.get}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (inf, -inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_text(node, digits: int | None = None, indent: str = "\n") -> str:
    """The text of `json.dumps(node, indent=2)` for a node whose dict keys
    are strings, with every float that is not inside a tuple first rounded
    by `format_float(x, digits)` (when digits is None, no float is rounded).

    Each distinct float is rounded once per call: a report repeats a few
    values many times.  -0.0 and 0.0 share an entry, which is sound
    because both round to 0.0.
    """
    rounded = {}

    def text(node, digits, indent):
        write = _INLINE.get(type(node))
        if write is not None:
            return write(node)
        if isinstance(node, float):
            if digits is None:
                return _float_text(node)
            out = rounded.get(node)
            if out is None:
                out = rounded[node] = _float_text(float(format_float(node, digits)))
            return out
        inner = indent + "  "
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [_quote(k) + ": " + (write(v) if (write := _INLINE.get(type(v)))
                                         else text(v, digits, inner))
                     for k, v in node.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            if set(map(type, node)) == {int}:  # no bool, whose repr is not JSON
                return "[" + inner + ("," + inner).join(map(int.__repr__, node)) + indent + "]"
            digits = digits if isinstance(node, list) else None
            items = [write(x) if (write := _INLINE.get(type(x))) else text(x, digits, inner)
                     for x in node]
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        if isinstance(node, str):
            return _quote(node)
        if node is True or node is False:
            return _JSON_WORDS[node]
        if isinstance(node, int):
            return int.__repr__(node)
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")

    return text(node, digits, indent)


def emit(args, command: str, result: dict, config: dict) -> None:
    report = {
        "tool": "hyperlat",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    # config holds the option values (ints, strings, flags), so rounding
    # the whole report rounds only the floats of the result
    _write(args.output, _json_text(report, args.precision) + "\n")


def _write(output: str | None, text: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers ------------------------------------------------------------

def cmd_info(args):
    lat = load_lattice(args.lattice)
    p, q = lat.signature
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
    vecs = enumerate_norm_vectors(lat, args.norm, args.height)
    if args.primitive:
        vecs = [v for v in vecs if gcd(*v) == 1]
    emit(args, "enumerate", {
        "kind": "Enumeration",
        "norm": args.norm,
        "height_bound": args.height,
        "count": len(vecs),
        "vectors": [list(v) for v in vecs],
    }, {"lattice": args.lattice, "norm": args.norm, "height": args.height,
        "primitive": args.primitive})


def _ray_json(ray, digits):
    if ray.rational:
        return {"ray": list(ray.ray), "rational": True}
    field = ray.ray[0].field
    return {
        "rational": False,
        "numeric": [float(format_float(c.approx(), digits)) for c in ray.ray],
        "field_minpoly": list(field.minpoly),
        "coordinates": [[str(q) for q in c.coeffs] for c in ray.ray],
    }


def cmd_classify(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    g = load_matrix(args.isometry, o)
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
    lat = load_lattice(args.lattice)
    grp = None
    if args.generators:
        o = _orientation(lat, args)
        grp = load_group(args.generators, o)
    report = k3_report(lat, height=args.height, generators=grp,
                       word_budget=args.budget, rho=args.rho)
    emit(args, "criteria", report.as_json(),
         {"lattice": args.lattice, "generators": args.generators,
          "height": args.height, "budget": args.budget, "rho": args.rho})


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
    _write(args.output, _json_text({"gram": [list(r) for r in lat.gram]}) + "\n")


def cmd_plot(args):
    lat = load_lattice(args.lattice)
    o = _orientation(lat, args)
    grp = load_group(args.group, o)
    x = point_from_ray(o, parse_vector(args.point))
    pts = orbit(grp, x, args.depth)
    tagged = [(to_ball(o, p), "orbit") for p in pts]
    tagged.append((to_ball(o, x), "basepoint"))
    if args.depth < 1:  # refused as limit_points_sample refuses it
        raise InvalidParameter("depth must be >= 1")
    for d in _limit_directions(o, x.ray, [p.ray for p in pts]):  # the orbit's one search
        tagged.append((d, "limit"))
    csv_text = ball_csv(tagged, digits=args.precision)
    _write(args.out + ".csv", csv_text)
    wrote = [args.out + ".csv"]
    if lat.rank <= 4:  # ball dimension n <= 3
        _write(args.out + ".svg", ball_svg(tagged))
        wrote.append(args.out + ".svg")
    emit(args, "plot", {"points": len(tagged), "files": wrote},
         {"lattice": args.lattice, "group": args.group, "point": args.point,
          "depth": args.depth})


# -- options --------------------------------------------------------------------------
# One table declares every subcommand and option.  A run's argv is parsed from
# it by `_parse_run`; `build_parser` turns the same rows into the argparse
# parser that prints help, the version and every usage error.

def _row(name, kind=str, default=None, required=False, choices=None, help=None):
    """One option: kind is int, str or bool (a store-true flag); a name
    without the leading '--' is a positional."""
    return name, kind, default, required, choices, help


_LATTICE = _row("--lattice", required=True, help="lattice JSON file")
_COMMON = (
    _row("--output", help="write the report here instead of stdout"),
    _row("--precision", int, 12, help="float display digits (default 12)"),
)
_V0 = _row("--v0", help="positive-cone base vector, e.g. '1,0,0'")
_GROUP_POINT = (_V0, _row("--group", required=True), _row("--point", required=True))

# subcommand -> (help, handler, rows), in the order help lists them
_COMMANDS = {
    "info": ("rank, determinant, signature", cmd_info, (_LATTICE, *_COMMON)),
    "roots": ("root existence with certificates", cmd_roots, (
        _LATTICE, *_COMMON, _row("--height", int, 10), _row("--norm", int, -2))),
    "isotropy": ("rational isotropy verdict", cmd_isotropy, (
        _LATTICE, *_COMMON, _row("--height", int, 10))),
    "enumerate": ("norm-m vectors up to a height", cmd_enumerate, (
        _LATTICE, *_COMMON, _row("--norm", int, required=True),
        _row("--height", int, 10), _row("--primitive", bool, False))),
    "classify": ("classify one isometry", cmd_classify, (
        _LATTICE, *_COMMON, _V0,
        _row("--isometry", required=True, help="isometry JSON file"))),
    "entropy": ("entropy findings for a generated group", cmd_entropy, (
        _LATTICE, *_COMMON, _V0, _row("--group", required=True, help="group JSON file"),
        _row("--budget", int, 6), _row("--rho", int, 0))),
    "orbit": ("orbit of a rational point", cmd_orbit, (
        _LATTICE, *_COMMON, *_GROUP_POINT, _row("--depth", int, 6))),
    "limits": ("sampled limit directions", cmd_limits, (
        _LATTICE, *_COMMON, *_GROUP_POINT, _row("--depth", int, 10))),
    "dirichlet": ("budget-truncated Dirichlet domain", cmd_dirichlet, (
        _LATTICE, *_COMMON, *_GROUP_POINT, _row("--budget", int, 6))),
    "tile-check": ("sampled tiling verification", cmd_tile_check, (
        _LATTICE, *_COMMON, *_GROUP_POINT, _row("--budget", int, 6),
        _row("--check-budget", int, 8), _row("--samples", int, 100),
        _row("--seed", int, 0, help="sampling seed"))),
    "chamber-walk": ("reflect a point into the chamber", cmd_chamber_walk, (
        _LATTICE, *_COMMON, _V0, _row("--point", required=True), _row("--norm", int, -2),
        _row("--height", int, 10), _row("--steps", int, 100),
        _row("--strict-walls", bool, False))),
    "criteria": ("full criteria report", cmd_criteria, (
        _row("kind", required=True, choices=("k3",)), _LATTICE, *_COMMON, _V0,
        _row("--generators", help="group JSON file (optional)"),
        _row("--height", int, 10), _row("--budget", int, 6), _row("--rho", int))),
    "families": ("emit classified family lattices", cmd_families, (
        *_COMMON, _row("--uniform", int), _row("--member", int, 3, choices=(3, 4)),
        _row("--cc-d4", int), _row("--cc-a2", int))),
    "plot": ("CSV/SVG of ball-model orbit coordinates", cmd_plot, (
        _LATTICE, *_COMMON, *_GROUP_POINT, _row("--depth", int, 8),
        _row("--out", required=True, help="output path prefix"))),
}


def _negative_number(token: str) -> bool:
    """Whether a token such as '-1,0', '-2' or '-.5' is a value, not an
    unknown option: '-', an optional '.', then a decimal digit."""
    rest = token[2:] if token[1:2] == "." else token[1:]
    return token[:1] == "-" and rest[:1].isdecimal()


class _Args:
    """The options of a run as attributes, as on argparse's Namespace."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _parse_run(argv):
    """The arguments of a plain run, or None where argparse must answer.

    Takes a subcommand name first, then the table's options by their full
    names as '--name value' or '--name=value' (a value may start with '-'
    only as a negative number), store-true flags and the criteria kind.
    Anything else -- help, --version, '--', an abbreviated or unknown
    option, a missing value, a bad int or choice, a missing required
    option -- returns None, and argparse gives its own answer.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, rows = _COMMANDS[argv[0]]
    options = {row[0]: row for row in rows if row[0].startswith("--")}
    positional = next((row for row in rows if not row[0].startswith("--")), None)
    values = {_dest(row[0]): row[2] for row in rows}
    values.update(subcommand=argv[0], func=func)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, eq, value = token.partition("=")
            row = options.get(name)
            if row is None or (eq and row[1] is bool):
                return None
            if row[1] is bool:
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None or (value.startswith("-")
                                     and not _negative_number(value)):
                    return None
        elif positional is None or positional[0] in given:
            return None
        else:
            row, value = positional, token
        name, kind, _, _, choices, _ = row
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        given.add(name)
        values[_dest(name)] = value
    if any(row[3] and row[0] not in given for row in rows):
        return None
    return _Args(values)


def build_parser():
    """The argparse parser of every subcommand, built from the option table."""
    import argparse
    import re  # argparse imports it too

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # the values `_negative_number` lets through, such as '-1,0'
            self._negative_number_matcher = re.compile(r"^-\.?\d")

        def error(self, message):  # input errors exit 1, not argparse's 2
            self.exit(1, f"input error: {message}\n")

    parser = _Parser(prog="hyperlat",
                     description="exact computations on hyperbolic lattices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, func, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kind, default, required, choices, help_ in rows:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_)
            elif flag.startswith("--"):
                p.add_argument(flag, type=int if kind is int else None, default=default,
                               required=required, choices=choices, help=help_)
            else:
                p.add_argument(flag, choices=choices, help=help_)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_run(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.precision < 0:
            raise InputError(f"--precision must be at least 0, not {args.precision}")
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
