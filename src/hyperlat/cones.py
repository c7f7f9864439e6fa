"""Rational polyhedral cones: H-representation, exact double description,
extreme rays, facet reduction, and the generalized-polytope hypothesis check.

Halfspace normals are lattice vectors w acting through the bilinear form:
the inequality is (w, x) >= 0.  Internally each normal becomes the plain
linear functional gram * w, and all pivoting is fraction-free in
integers; adjacency during double description uses the exhaustive
combinatorial test, no heuristics.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .errors import DimensionBudgetExceeded, DimensionMismatch, InvalidParameter
from .lattice import GramLattice, coords_of
from .model import ConeOrientation
from .record import Record, replace

DIM_BUDGET = 6

TAG_INTERIOR = "interior_positive"
TAG_ISOTROPIC = "rational_isotropic"
TAG_OTHER = "other"


class HalfSpace(Record):
    """One inequality (normal, x) >= 0 in the lattice pairing."""

    def __init__(self, normal: tuple[int, ...]):
        object.__setattr__(self, "normal", normal)


class PolyhedralCone(Record):
    """H-rep (always) plus optional V-rep with per-ray norm tags.

    The V-rep lists extreme rays of the pointed part together with both
    signs of each lineality direction, so every listed ray genuinely
    satisfies all inequalities.
    """

    def __init__(self, lattice: GramLattice, halfspaces: tuple[tuple[int, ...], ...],
                 rays: tuple[tuple[int, ...], ...] | None = None,
                 ray_tags: tuple[str, ...] | None = None,
                 orientation: ConeOrientation | None = None,
                 truncated_at: int | None = None):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "ray_tags", ray_tags)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "truncated_at", truncated_at)

    @property
    def ambient_rank(self) -> int:
        return self.lattice.rank

    @cached_property
    def functionals(self) -> tuple[tuple[int, ...], ...]:
        """Each normal w as the plain linear functional G w, in halfspace order."""
        gram = self.lattice.gram
        return tuple(linalg.mat_vec(gram, w) for w in self.halfspaces)


def cone_from_halfspaces(lattice: GramLattice, normals, *, orientation=None,
                         truncated_at=None) -> PolyhedralCone:
    """Build a cone from lattice-pairing normals; dedups and primitivizes.

    Accepts plain vectors or HalfSpace objects.
    """
    prims = (linalg.primitive_vector(coords_of(w.normal if isinstance(w, HalfSpace) else w))
             for w in normals)
    return PolyhedralCone(lattice=lattice, halfspaces=tuple(dict.fromkeys(prims)),
                          orientation=orientation, truncated_at=truncated_at)


def double_description(functionals, n: int):
    """Exact V-representation of {x in Q^n : f.x >= 0 for all f}.

    Returns (rays, lineality): primitive integer extreme rays of the
    pointed quotient (lifted back) and a primitive basis of the lineality
    space.  Deterministic: input order drives insertion order, output is
    sorted.
    """
    functionals = [tuple(f) for f in functionals]
    if not functionals:
        ident = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        return [], ident
    echelon, pivots = linalg.row_echelon(functionals)
    lineality = linalg.echelon_kernel(echelon, pivots, n)
    r = len(pivots)
    if r == 0:
        return [], lineality
    # complement of the lineality space: e_p at the pivot columns p, the
    # standard basis vectors a greedy pick modulo ker(functionals) would take
    projected = [tuple(f[p] for p in pivots) for f in functionals]
    lifted = []
    for qray in _pointed_double_description(projected, r):
        vec = [0] * n
        for coef, p in zip(qray, pivots):
            vec[p] = coef
        lifted.append(tuple(vec))
    return sorted(set(lifted)), lineality


def _pointed_double_description(rows, r: int):
    """Extreme rays of a pointed cone {y : rows . y >= 0} of ambient dim r."""
    # seed with r linearly independent constraints -> simplicial cone
    seed_idx = []
    seed_rows = []
    for i, row in enumerate(rows):
        if linalg.rank(seed_rows + [list(row)]) > len(seed_rows):
            seed_idx.append(i)
            seed_rows.append(list(row))
        if len(seed_idx) == r:
            break
    if len(seed_idx) != r:
        raise ArithmeticError("quotient cone must have full-rank constraints")
    # the seed rays solve S x = e_k: the columns of adj(S), signed by det(S)
    adj = linalg.adjugate(seed_rows)
    sign = 1 if linalg.bareiss_det(seed_rows) > 0 else -1
    rays = [linalg.primitive_vector([sign * row[k] for row in adj]) for k in range(r)]
    seeds = set(seed_idx)
    # zero set of each ray over the rows processed so far, as a bitmask
    zsets = {ray: sum(1 << i for i in seed_idx if linalg.dot(rows[i], ray) == 0)
             for ray in rays}
    for i, row in enumerate(rows):
        if i in seeds:
            continue
        values = {ray: linalg.dot(row, ray) for ray in rays}
        pos = [ray for ray in rays if values[ray] > 0]
        zero = [ray for ray in rays if values[ray] == 0]
        neg = [ray for ray in rays if values[ray] < 0]
        fresh = {}
        for p in pos:
            for m in neg:
                common = zsets[p] & zsets[m]
                if common.bit_count() < r - 2:
                    continue  # adjacent rays share at least r - 2 active rows
                if any(zsets[o] & common == common
                       for o in rays if o is not p and o is not m):
                    continue
                combo = tuple(values[p] * mx - values[m] * px for px, mx in zip(p, m))
                # a positive combination: its zero set is exactly Z(p) & Z(m), plus row i
                fresh.setdefault(linalg.primitive_vector(combo), common | 1 << i)
        for ray in zero:
            zsets[ray] |= 1 << i
        for ray in neg:
            del zsets[ray]
        rays = pos + zero
        for ray, zset in fresh.items():
            if ray not in zsets:
                zsets[ray] = zset
                rays.append(ray)
    return rays


def extreme_rays(cone: PolyhedralCone, *, max_dim: int = DIM_BUDGET) -> PolyhedralCone:
    """Populate the V-representation of the cone (rays and tags).

    Lineality directions are reported as +-pairs of rays.  Tags need the
    cone's orientation; without one every tag is "other".
    """
    if cone.ambient_rank > max_dim:
        raise DimensionBudgetExceeded(
            f"double description budget is rank <= {max_dim}")
    rays, lineality = double_description(cone.functionals, cone.ambient_rank)
    full = list(rays)
    for line in lineality:
        full.append(line)
        full.append(linalg.vec_neg(line))
    full = sorted(set(full))
    tags = tuple(_tag_ray(cone, ray) for ray in full)
    return replace(cone, rays=tuple(full), ray_tags=tags)


def _tag_ray(cone: PolyhedralCone, ray) -> str:
    if cone.orientation is None:
        return TAG_OTHER
    lat = cone.lattice
    norm = lat.norm(ray)
    toward = lat.pair(ray, cone.orientation.base)
    if norm > 0 and toward > 0:
        return TAG_INTERIOR
    if norm == 0 and toward > 0:
        return TAG_ISOTROPIC
    return TAG_OTHER


def ray_satisfies(cone: PolyhedralCone, ray, strict: bool = False) -> bool:
    """(w, ray) > 0 (strict) or >= 0 for every normal w: one dot per halfspace."""
    ray = coords_of(ray)
    if len(ray) != cone.lattice.rank:
        raise DimensionMismatch(f"vectors must have length {cone.lattice.rank}")
    dot = linalg.dot
    if strict:
        return all(dot(f, ray) > 0 for f in cone.functionals)
    return all(dot(f, ray) >= 0 for f in cone.functionals)


def irredundant_halfspaces(cone: PolyhedralCone) -> PolyhedralCone:
    """Drop halfspaces that do not define facets, using the V-rep.

    Each halfspace cuts out a face, generated by the listed rays it
    contains; its zero set over those rays is a bitmask.  The facets are
    the maximal proper faces, so a halfspace is kept when no other proper
    mask strictly contains its own.  Halfspaces active on the whole cone
    (implicit equalities) are kept too; they cannot be dropped without
    growing the cone.
    """
    vrep = cone if cone.rays is not None else extreme_rays(cone)
    rays = vrep.rays
    if not rays:
        return vrep  # the zero cone: every constraint may matter, keep all
    masks = [sum(1 << k for k, r in enumerate(rays) if linalg.dot(f, r) == 0)
             for f in cone.functionals]
    full = (1 << len(rays)) - 1
    proper = set(masks) - {full}
    keep = tuple(w for w, m in zip(cone.halfspaces, masks)
                 if m == full or not any(o != m and o & m == m for o in proper))
    # dropping redundant inequalities leaves the cone, and so its V-rep, as it is
    return replace(vrep, halfspaces=keep)


def polytope_hypothesis_check(cone: PolyhedralCone,
                              orientation: ConeOrientation | None = None) -> dict:
    """Check the generalized-polytope hypothesis on a truncated domain.

    Reports the facet count, whether every vertex direction is rational
    (true by construction for integer rays; still computed), the cusp
    candidates (rational isotropic rays), and whether any ray escapes the
    closed positive cone, which is what "not a polytope" means here.  A
    cone that already carries its V-rep, tagged under this orientation, is
    reduced from that V-rep instead of a recomputed one.
    """
    o = orientation or cone.orientation
    if o is None:
        raise InvalidParameter("hypothesis check needs a cone orientation")
    if cone.ray_tags is not None and o == cone.orientation:
        work = cone
    else:
        work = extreme_rays(replace(cone, orientation=o, rays=None, ray_tags=None))
    reduced = irredundant_halfspaces(work)
    tags = list(reduced.ray_tags or ())
    rays = list(reduced.rays or ())
    cusps = [list(r) for r, t in zip(rays, tags) if t == TAG_ISOTROPIC]
    escapes = [list(r) for r, t in zip(rays, tags) if t == TAG_OTHER]
    return {
        "side_count": len(reduced.halfspaces),
        "vertex_count": sum(1 for t in tags if t == TAG_INTERIOR),
        "cusp_candidates": cusps,
        "all_positive_vertices_rational": True,   # integer V-rep by construction
        "all_zero_norm_rays_rational": True,
        "escaping_rays": escapes,
        "is_generalized_polytope": bool(rays) and not escapes,
        "truncated_at": cone.truncated_at,
    }
