"""Rational polyhedral cones: H-representation, exact double description,
extreme rays, facet reduction, and the generalized-polytope hypothesis check.

A cone is a PolyhedralCone on its halfspace normals, plain integer
vectors w acting through the bilinear form: the inequality is
(w, x) = w . (G x) >= 0, with G x formed once per ray and no functional
G w per normal.  The double description returns each ray's zero set over
the normals, and `extreme_rays` reads the facets off them.  All pivoting
is fraction-free in integers; adjacency during double description uses
the exhaustive combinatorial test, no heuristics.
"""

from __future__ import annotations

from _operator import mul

from . import linalg
from .errors import DimensionBudgetExceeded, DimensionMismatch, InvalidParameter
from .lattice import GramLattice, coords_of
from .model import ConeOrientation
from .record import Record, cached_property, replace

DIM_BUDGET = 6

TAG_INTERIOR = "interior_positive"
TAG_ISOTROPIC = "rational_isotropic"
TAG_OTHER = "other"


class PolyhedralCone(Record):
    """H-rep (always) plus optional V-rep with per-ray norm tags.

    The V-rep lists extreme rays of the pointed part together with both
    signs of each lineality direction, so every listed ray genuinely
    satisfies all inequalities.  Only `extreme_rays` attaches rays, so a
    cone with a V-rep is reduced to its facets.
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

    @cached_property
    def functionals(self) -> tuple[tuple[int, ...], ...]:
        """Each normal w as the plain linear functional G w, in halfspace order."""
        gram = self.lattice.gram
        return tuple(linalg.mat_vec(gram, w) for w in self.halfspaces)


def double_description(normals, gram):
    """Exact V-representation of {x in Q^n : (w, x) >= 0 for every normal w}.

    (w, x) = w . G x for G = gram, symmetric and invertible; the identity
    gives plain functionals.  Returns (rays, lineality, zero_sets): the
    sorted primitive extreme rays of the pointed quotient, lifted back; a
    primitive basis of the lineality space; for each ray the bitmask of
    the normals i with (w_i, ray) = 0.  Positive multiples of the normals
    give the same result.
    """
    normals = [tuple(w) for w in normals]
    n = len(gram)
    if not normals:
        return [], list(linalg.identity_matrix(n)), []
    # the functionals G w span G times the span of the normals, so a row
    # basis of the normals, mapped by G, has their reduced echelon form
    basis = linalg.row_basis(normals)
    echelon, pivots = linalg.row_echelon([linalg.mat_vec(gram, b) for b in basis])
    lineality = linalg.echelon_kernel(echelon, pivots, n)
    if not pivots:
        return [], lineality, []
    zsets = _pointed_double_description(normals, gram, pivots)
    rays = sorted(zsets)
    return rays, lineality, [zsets[ray] for ray in rays]


def _pointed_double_description(normals, gram, pivots):
    """{ray: zero set over all rows} for the pointed part of {x : (w, x) >= 0},
    its rays in the span of e_p at the pivot columns p; each carries G x."""
    n, r = len(gram), len(pivots)
    # seed with r linearly independent rows (so functionals) -> simplicial cone
    seed_idx = []
    seed_rows = []
    for i, row in enumerate(normals):
        if linalg.rank(seed_rows + [row]) > len(seed_rows):
            seed_idx.append(i)
            seed_rows.append(row)
        if len(seed_idx) == r:
            break
    if len(seed_idx) != r:
        raise ArithmeticError("quotient cone must have full-rank constraints")
    # the seed rays solve S y = e_k, S the seeds' G w at the (increasing)
    # pivot columns: the columns of adj(S), signed by det(S), lifted
    seed_fns = [[f[p] for p in pivots] for f in (linalg.mat_vec(gram, w) for w in seed_rows)]
    adj = linalg.adjugate(seed_fns)
    sign = 1 if linalg.bareiss_det(seed_fns) > 0 else -1
    rays = []
    for k in range(r):
        ys = iter(linalg.primitive_vector([sign * row[k] for row in adj]))
        rays.append(tuple(next(ys) if j in pivots else 0 for j in range(n)))
    # G x of each ray, in the order of `rays`; both lists change together
    images = [linalg.mat_vec(gram, ray) for ray in rays]
    seeds = set(seed_idx)
    # zero set of each ray over the rows processed so far, as a bitmask
    zsets = {ray: sum(1 << i for i in seed_idx if sum(map(mul, normals[i], im)) == 0)
             for ray, im in zip(rays, images)}
    for i, row in enumerate(normals):
        if i in seeds:
            continue
        row_values = [sum(map(mul, row, im)) for im in images]
        if 0 in row_values:
            for ray, value in zip(rays, row_values):
                if not value:
                    zsets[ray] |= 1 << i
        if min(row_values, default=0) >= 0:
            continue  # no ray leaves, so no ray is added
        values = dict(zip(rays, row_values))
        neg = [ray for ray in rays if values[ray] < 0]
        pos = [ray for ray in rays if values[ray] > 0]
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
        for ray in neg:
            del zsets[ray]
        kept = [k for k, value in enumerate(row_values) if value >= 0]
        rays = [rays[k] for k in kept]
        images = [images[k] for k in kept]
        for ray, zset in fresh.items():
            if ray not in zsets:
                zsets[ray] = zset
                rays.append(ray)
                images.append(linalg.mat_vec(gram, ray))
    return zsets


def extreme_rays(cone: PolyhedralCone) -> PolyhedralCone:
    """The cone reduced to its facets, with its V-rep (rays and tags).

    Lineality directions are reported as +-pairs of rays, which lie on every
    hyperplane.  Tags need the cone's orientation; without one every tag is
    "other".  A halfspace's mask is the set of listed rays on its
    hyperplane, read off their zero sets; it is kept when no other proper
    mask strictly contains its own (a facet), or when it holds every ray
    (an implicit equality).  The zero cone keeps every halfspace.
    """
    if cone.lattice.rank > DIM_BUDGET:
        raise DimensionBudgetExceeded(
            f"double description budget is rank <= {DIM_BUDGET}")
    halfspaces = cone.halfspaces
    rays, lineality, zero_sets = double_description(halfspaces, cone.lattice.gram)
    every = (1 << len(halfspaces)) - 1
    zsets = dict(zip(rays, zero_sets)) | {
        v: every for line in lineality for v in (line, linalg.vec_neg(line))}
    full = sorted(zsets)
    if full:
        masks = [0] * len(halfspaces)
        for k, ray in enumerate(full):
            zset = zsets[ray]
            while zset:
                low = zset & -zset
                masks[low.bit_length() - 1] |= 1 << k
                zset ^= low
        whole = (1 << len(full)) - 1
        proper = set(masks) - {whole}
        facets = {whole} | {m for m in proper
                            if not any(o != m and o & m == m for o in proper)}
        halfspaces = tuple(w for w, m in zip(halfspaces, masks) if m in facets)
    tags = tuple(_tag_ray(cone, ray) for ray in full)
    return replace(cone, halfspaces=halfspaces, rays=tuple(full), ray_tags=tags)


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
    """The cone as it is when it carries a V-rep (so is reduced), else
    `extreme_rays(cone)`."""
    return cone if cone.rays is not None else extreme_rays(cone)


def polytope_hypothesis_check(cone: PolyhedralCone,
                              orientation: ConeOrientation | None = None) -> dict:
    """Check the generalized-polytope hypothesis on a truncated domain.

    Reports the facet count, whether every vertex direction is rational
    (true by construction for integer rays; still computed), the cusp
    candidates (rational isotropic rays), and whether any ray escapes the
    closed positive cone, which is what "not a polytope" means here.  A
    cone that already carries its V-rep, tagged under this orientation, is
    read as it is; any other is reduced and tagged afresh.
    """
    o = orientation or cone.orientation
    if o is None:
        raise InvalidParameter("hypothesis check needs a cone orientation")
    reduced = cone
    if cone.ray_tags is None or o != cone.orientation:
        reduced = extreme_rays(replace(cone, orientation=o))
    tags, rays = reduced.ray_tags, reduced.rays
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
