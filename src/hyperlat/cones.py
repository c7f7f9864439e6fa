"""Rational polyhedral cones: H-representation, exact double description,
extreme rays, facet reduction, and the generalized-polytope hypothesis check.

A cone is a PolyhedralCone on its halfspace normals, plain integer
vectors w acting through the bilinear form: the inequality is
(w, x) = w . (G x) >= 0, with G x formed once per ray and no functional
G w per normal.  The double description tests each normal against every
current ray with one big-integer dot product: the rays' G x are packed
into slots of width bits, wide enough that each (w, x) plus an offset of
2^(width-1) fills its slot without a borrow or carry into the next, so
the top bit of each slot is the sign test and a second subtraction finds
the rays on the hyperplane, which a passing normal keeps as its packed
mask; only a normal negative on some ray takes the per-ray step, whose
adjacency test reads per-ray zero sets, so the masks kept so far are
folded into them first.  It returns each normal's mask over the rays, and
`extreme_rays` reads the facets off them directly.  All pivoting is
fraction-free in integers; adjacency during double description uses the
exhaustive combinatorial test, no heuristics.
"""

from __future__ import annotations

from itertools import chain

from _operator import mul

from . import linalg
from .errors import DimensionBudgetExceeded, DimensionMismatch, InvalidParameter
from .lattice import GramLattice
from .model import ConeOrientation
from .record import Record, cached_property, replace

DIM_BUDGET = 6

TAG_INTERIOR = "interior_positive"
TAG_ISOTROPIC = "rational_isotropic"
TAG_OTHER = "other"


class PolyhedralCone(Record):
    """H-rep (always) plus optional V-rep, whose per-ray norm tags are read
    off the rays and the orientation.

    The V-rep lists extreme rays of the pointed part together with both
    signs of each lineality direction, so every listed ray genuinely
    satisfies all inequalities.  Only `extreme_rays` attaches rays, so a
    cone with a V-rep is reduced to its facets.  The rays and facets do
    not depend on the orientation; only the tags do.
    """

    def __init__(self, lattice: GramLattice, halfspaces: tuple[tuple[int, ...], ...],
                 rays: tuple[tuple[int, ...], ...] | None = None,
                 orientation: ConeOrientation | None = None,
                 truncated_at: int | None = None):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "truncated_at", truncated_at)

    @cached_property
    def functionals(self) -> tuple[tuple[int, ...], ...]:
        """Each normal w as the plain linear functional G w, in halfspace order."""
        gram = self.lattice.gram
        return tuple(linalg.mat_vec(gram, w) for w in self.halfspaces)

    @cached_property
    def ray_tags(self) -> tuple[str, ...] | None:
        """Each ray's tag, in ray order; None without a V-rep.  Without an
        orientation every tag is "other"."""
        return None if self.rays is None else tuple(_tag_ray(self, r) for r in self.rays)


def double_description(normals, gram):
    """Exact V-representation of {x in Q^n : (w, x) >= 0 for every normal w}.

    (w, x) = w . G x for G = gram, symmetric and invertible; the identity
    gives plain functionals.  Returns (rays, lineality, masks): the sorted
    primitive extreme rays of the pointed quotient, lifted back; a
    primitive basis of the lineality space; for each normal w_i, in order,
    the bitmask of the returned rays on its hyperplane, bit k for rays[k]
    (the lineality lies on every hyperplane).  Positive multiples of the
    normals give the same result.
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
        return [], lineality, [0] * len(normals)
    rays, masks = _pointed_double_description(normals, gram, pivots)
    return rays, lineality, masks


def _pointed_double_description(normals, gram, pivots):
    """(rays, masks) for the pointed part of {x : (w, x) >= 0}: its sorted
    rays, in the span of e_p at the pivot columns p, and for each row the
    bitmask of the rays on its hyperplane, bit k for rays[k].  Each ray
    carries G x while the rows are read.

    A row w is tested against every current ray x_j at once.  The images
    G x_j are packed into one int per coordinate c, sum_j (G x_j)[c]
    2^(j width), so the dot product t of w with these ints, plus
    2^(width-1) for each j, is sum_j ((w, x_j) + 2^(width-1)) 2^(j width).
    The width is the bit length of n max|w| max|G x| plus 2, max|w| taken
    over all rows, so |(w, x_j)| < 2^(width-2) and each coefficient lies
    in (2^(width-2), 3 2^(width-2)), inside [0, 2^width): the coefficients
    are t's base-2^width digits ("slots") exactly, the offset taking the
    borrow a negative (w, x_j) would make from the next slot, so no borrow
    or carry crosses a slot.  The top bit of slot j is set exactly when
    (w, x_j) >= 0.  A row with every top bit set removes no ray; since
    every digit is >= 1, subtracting 1 from every slot borrows across none
    and clears the top bit of exactly the slots that held 0: the rays on
    the row's hyperplane, kept as the row's packed mask.  Any other row
    takes the exact per-ray step `_cut`, whose adjacency test reads each
    ray's zero set over the rows so far: the packed masks held are folded
    into those zero sets first, and the rays are packed again after it.
    The rows after the last cut are never folded: their packed masks,
    over the final rays, become their masks directly.
    """
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
    # G x of each ray and its zero set over the rows folded so far, as a
    # bitmask, in the order of `rays`; the three lists change together
    images = [linalg.mat_vec(gram, ray) for ray in rays]
    zsets = [sum(1 << i for i in seed_idx if sum(map(mul, normals[i], im)) == 0)
             for im in images]
    seeds = set(seed_idx)
    n_max_w = n * max(map(abs, chain.from_iterable(normals)))
    packed = []  # (row, packed mask) of the passing rows since the last pack
    cols = None
    for i, row in enumerate(normals):
        if i in seeds:
            continue
        if cols is None:  # pack the images of the current rays
            width = (n_max_w * max((abs(x) for im in images for x in im),
                                   default=0)).bit_length() + 2
            shifts = range(0, len(rays) * width, width)
            cols = [sum(x << s for x, s in zip(col, shifts)) for col in zip(*images)]
            low = sum(1 << s for s in shifts)
            high = low << (width - 1)
        t = sum(map(mul, row, cols), high)
        if t & high == high:
            zeros = high ^ ((t - low) & high)
            if zeros:
                packed.append((i, zeros))
            continue
        _fold(packed, zsets, width)
        packed = []
        rays, images, zsets = _cut(row, i, rays, images, zsets, gram, r)
        cols = None
    # ray j of the current order is ray place[j] of the sorted one
    order = sorted(range(len(rays)), key=rays.__getitem__)
    place = [0] * len(rays)
    for k, j in enumerate(order):
        place[j] = k
    masks = [0] * len(normals)
    for j, zset in enumerate(zsets):
        bit = 1 << place[j]
        for i in _slots(zset, 1):
            masks[i] |= bit
    unpacked = {}  # the rows through a ray share a few packed masks
    for i, zeros in packed:
        mask = unpacked.get(zeros)
        if mask is None:
            mask = unpacked[zeros] = sum(1 << place[j] for j in _slots(zeros, width))
        masks[i] = mask
    return [rays[j] for j in order], masks


def _slots(zeros, width):
    """The slot indices j of the set top bits of a packed mask; with width
    1, the indices of the set bits of a bitmask."""
    while zeros:
        bit = zeros & -zeros
        yield bit.bit_length() // width - 1
        zeros ^= bit


def _fold(packed, zsets, width):
    """Add each (row i, packed mask) to the zero sets of the rays it holds."""
    for i, zeros in packed:
        for j in _slots(zeros, width):
            zsets[j] |= 1 << i


def _cut(row, i, rays, images, zsets, gram, r):
    """The rays, images and zero sets after row i, which is negative on some
    ray: the rays where it is negative leave, and each adjacent pair of a
    positive and a negative ray gives the ray on its hyperplane between them."""
    values = [sum(map(mul, row, im)) for im in images]
    zsets = [z if value else z | 1 << i for z, value in zip(zsets, values)]
    neg = [k for k, value in enumerate(values) if value < 0]
    pos = [k for k, value in enumerate(values) if value > 0]
    fresh = {}
    for p in pos:
        for m in neg:
            common = zsets[p] & zsets[m]
            if common.bit_count() < r - 2:
                continue  # adjacent rays share at least r - 2 active rows
            if any(z & common == common for o, z in enumerate(zsets) if o != p and o != m):
                continue
            combo = tuple(values[p] * mx - values[m] * px for px, mx in zip(rays[p], rays[m]))
            # a positive combination: its zero set is exactly Z(p) & Z(m), plus row i
            fresh.setdefault(linalg.primitive_vector(combo), common | 1 << i)
    kept = [k for k, value in enumerate(values) if value >= 0]
    rays = [rays[k] for k in kept]
    images = [images[k] for k in kept]
    zsets = [zsets[k] for k in kept]
    # no fresh ray is a kept one, whose zero set would contain Z(p) & Z(m)
    # and so have failed the pair's adjacency test
    rays += fresh
    images += [linalg.mat_vec(gram, ray) for ray in fresh]
    zsets += fresh.values()
    return rays, images, zsets


def extreme_rays(cone: PolyhedralCone) -> PolyhedralCone:
    """The cone reduced to its facets, with its V-rep.

    Lineality directions are reported as +-pairs of rays, which lie on every
    hyperplane.  A halfspace's mask is the set of pointed rays on its
    hyperplane, as the double description returns it; the lineality rays,
    on every hyperplane, would add the same bits to every mask and change
    no containment.  A halfspace is kept when no other proper mask strictly
    contains its own (a facet), or when its mask holds every ray (an
    implicit equality).  The zero cone keeps every halfspace.
    """
    if cone.lattice.rank > DIM_BUDGET:
        raise DimensionBudgetExceeded(
            f"double description budget is rank <= {DIM_BUDGET}")
    halfspaces = cone.halfspaces
    rays, lineality, masks = double_description(halfspaces, cone.lattice.gram)
    whole = (1 << len(rays)) - 1
    proper = set(masks) - {whole}
    facets = {whole} | {m for m in proper if not any(o != m and o & m == m for o in proper)}
    halfspaces = tuple(w for w, m in zip(halfspaces, masks) if m in facets)
    full = sorted(rays + [v for line in lineality for v in (line, linalg.vec_neg(line))])
    return replace(cone, halfspaces=halfspaces, rays=tuple(full))


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
    closed positive cone, which is what "not a polytope" means here.  Only
    a cone without a V-rep is reduced; under another orientation the same
    rays are tagged afresh.
    """
    o = orientation or cone.orientation
    if o is None:
        raise InvalidParameter("hypothesis check needs a cone orientation")
    reduced = cone if o == cone.orientation else replace(cone, orientation=o)
    if reduced.rays is None:
        reduced = extreme_rays(reduced)
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
