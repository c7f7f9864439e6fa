"""Finitely generated subgroups of O+(L): orbits, limit-point sampling,
Dirichlet domains, tiling checks, chamber walks.

Dirichlet domains are always truncated at a word budget and carry that
label; exactness of a truncated domain is not decidable here and is never
claimed.  Words over the symmetric generator set are searched breadth
first twice: `elements_up_to` deduplicates elements by exact matrix and
caps their count; `_orbit_ball`, behind orbits and Dirichlet domains,
deduplicates the points w.x by exact ray and caps their count.  Both apply
each letter only through the rows where it differs from the identity, and
both take the letters from the group, which forms them once.  The point
search runs in the offsets d = p - o from an origin o: a letter M maps d
to M d + (M o - o), a dot product plus a constant per moved row.  It also
marks on each point, in a list beside the points, the letters known to
lead to a seen point (the inverse of every letter that reached it) and
skips them: they could only find known points, so no point is met in
another order.  Orbits and limit sampling search the points themselves
(o = 0).
Limit sampling keeps the far points of an orbit by one integer pairing
with the cone base: a point p of norm N has ball radius r with
r^2 = (c - 1) / (c + 1), c = (p, b) / sqrt(N (b, b)), so only the points
with c near or above the far threshold are mapped to floats.
Dirichlet bisectors, the differences p - h of the basepoint's orbit
points, are the offsets of the point search from o = h and enter the
double description unscaled.  Tiling checks draw the points inside a
domain as positive integer combinations of its rays and the points of the
whole positive cone as integer rays in a box; both take their integers
from randint's draws, the same generator calls made in bulk.
A sample y is tested against an element E's translate of the domain by the
facet functionals pulled back through E, (G w, E y) = (E^t G w) . y, each
when a sample first reaches it.
"""

from __future__ import annotations

from itertools import chain, islice

from _operator import mul, sub
from _random import Random

from . import linalg
from .cones import PolyhedralCone, irredundant_halfspaces, ray_satisfies
from .errors import (BudgetExceeded, DifferentAmbient, DimensionMismatch, FixedBasepoint,
                     InvalidParameter, OnWall)
from .forms import enumerate_norm_vectors
from .isometry import Isometry
from .lattice import GramLattice
from .model import ConeOrientation, HyperboloidPoint, point_from_ray, to_ball
from .record import Record, cached_property, replace

ORBIT_CAP = 200_000
SAMPLE_BOX = 50
LIMIT_RADIUS_TOL = 1e-6
LIMIT_ANGLE_TOL = 1e-4


class FGGroup(Record):
    """A finitely generated subgroup, given by its generators."""

    def __init__(self, generators: tuple[Isometry, ...]):
        object.__setattr__(self, "generators", generators)
        if not self.generators:
            raise InvalidParameter("a group needs at least one generator")
        o = self.generators[0].orientation
        if any(g.orientation != o for g in self.generators):
            raise InvalidParameter("generators must share one lattice and cone")

    @property
    def orientation(self) -> ConeOrientation:
        return self.generators[0].orientation

    @property
    def lattice(self) -> GramLattice:
        return self.generators[0].lattice

    @cached_property
    def letters(self):
        """`_letters` of this group, made once: the word searches and the
        conjugacy keys of their words share one set of generator inverses."""
        return _letters(self)


def group(*generators: Isometry) -> FGGroup:
    return FGGroup(generators=tuple(generators))


def _letters(g: FGGroup):
    """Symmetric generator set: each generator followed by its inverse.

    Returns (matrices, labels, inverse_index); duplicates and the identity
    collapse, so an involution contributes one letter.
    """
    ident = linalg.identity_matrix(g.lattice.rank)
    mats, labels, inverses = [], [], []
    for i, gen in enumerate(g.generators):
        inv = gen.inverse().matrix
        for mat, mat_inv, label in ((gen.matrix, inv, i + 1), (inv, gen.matrix, -(i + 1))):
            if mat != ident and mat not in mats:
                mats.append(mat)
                labels.append(label)
                inverses.append(mat_inv)
    return mats, labels, [mats.index(mat) for mat in inverses]


def _moved_rows(mats):
    """For each letter, the pairs (i, row i) over the rows where it differs
    from the identity: a letter applied to a point or a matrix changes only
    these rows, each to the row's dot product with the point or a column."""
    return [[(i, row) for i, (row, e) in enumerate(zip(mat, linalg.identity_matrix(len(mat))))
             if row != e] for mat in mats]


def elements_up_to(g: FGGroup, word_budget: int):
    """Distinct group elements of word length <= budget, with shortest words.

    Breadth-first over reduced words; deduplication is by exact matrix, and
    the returned order (word length, then letter sequence) is canonical, so
    the identity with the empty word comes first.  A word's first letter is
    applied last: the element of (a, b) is a b.  A letter times a matrix
    changes only the rows the letter moves, each a row of the letter
    against the columns of the matrix, taken once per matrix.  ORBIT_CAP
    counts distinct elements, the identity included.  A negative budget is
    refused.
    """
    if word_budget < 0:
        raise InvalidParameter("word budget must be >= 0")
    cap = ORBIT_CAP
    mats, labels, inv_idx = g.letters
    moves = _moved_rows(mats)
    ident = linalg.identity_matrix(g.lattice.rank)
    seen = {ident: ()}
    frontier = [(ident, (), None)]
    order = [(ident, ())]
    for _ in range(word_budget):
        nxt = []
        for mat, word, last in frontier:
            cols = tuple(zip(*mat))
            for k, move in enumerate(moves):
                if last is not None and inv_idx[k] == last:
                    continue  # reduced words only
                new = list(mat)
                for i, row in move:
                    new[i] = tuple([sum(map(mul, row, col)) for col in cols])
                new = tuple(new)
                if new in seen:
                    continue
                if len(seen) >= cap:
                    raise BudgetExceeded(f"element cap {cap} hit during word search")
                new_word = (labels[k],) + word
                seen[new] = new_word
                nxt.append((new, new_word, k))
                order.append((new, new_word))
        frontier = nxt
    return [(Isometry(g.orientation, m), w) for m, w in order]


def conjugacy_key(word, inverse) -> tuple[int, ...]:
    """A key shared by the conjugates of a word and of its inverse:
    cyclically reduce the word, then take the least tuple among the
    rotations of it and of its inverse.

    `inverse` maps each letter label to the label of its inverse letter.
    A rotation is a conjugate (b a = a^-1 (a b) a), and so is the word
    stripped of a first letter that inverts its last.  Relations of the
    group are ignored, so conjugate elements may get different keys, but
    two words share a key only if one is conjugate in the free group to
    the other or to its inverse, and so are their elements in the group.
    """
    w = tuple(word)
    while len(w) > 1 and w[0] == inverse[w[-1]]:
        w = w[1:-1]
    inv = tuple(inverse[x] for x in reversed(w))
    return min((v[i:] + v[:i] for v in (w, inv) for i in range(len(v))), default=())


def word_string(word) -> str:
    if not word:
        return "e"
    return ".".join(f"g{abs(k)}" + ("'" if k < 0 else "") for k in word)


# -- orbits and limit points ------------------------------------------------------

def _orbit_ball(g: FGGroup, ray, depth: int, origin=None) -> list:
    """The distinct orbit points p = w.x over words w of length <= depth,
    x's first, as the offsets p - origin (as the points, without one).

    The search runs relative to the origin o: letter k maps the offset
    p - o to M_k (p - o) + (M_k o - o), the offset of M_k p, so a moved row
    i costs one dot product plus the constant (M_k o - o)_i, computed once
    per letter, and an unmoved row keeps its entry.  With x as the origin
    the offsets after the first are exactly `dirichlet_domain`'s bisectors.

    Breadth-first over points: a level's new points p come in the order of
    the least key (inv_idx[k], rank of q) over the letters k and the
    previous level's points q with k.q = p.  That is the order in which
    `elements_up_to` first reaches an element g with g^-1 x = p: the outer
    letter of g^-1 x is the inverse of the first letter the element search
    adds.  Looping over the letters by inverse index, then over q, meets
    each point first at its least key.  Each point keeps a mask of the
    letters known to lead to a seen point, in a list beside the points:
    when letter k maps q to p, new or not, p gets the bit of k's inverse,
    which maps it back to q, and a candidate whose letter's bit is set on
    its point is skipped.  The letter that undoes the one that first
    reached q is one such back-edge.  A skipped candidate lands on a seen
    point, so the order in which new points are met, the points and the
    cap are those of evaluating every candidate.  ORBIT_CAP counts
    distinct points, x included.
    """
    cap = ORBIT_CAP
    mats, _labels, inv_idx = g.letters
    o = (0,) * len(ray) if origin is None else tuple(origin)
    moves = [[(i, row, sum(map(mul, row, o)) - o[i]) for i, row in move]
             for move in _moved_rows(mats)]
    points = [tuple(map(sub, ray, o))]
    masks = [0]  # masks[j]: the letters known to lead from points[j] to a seen point
    seen = {points[0]: 0}  # offset -> its index in points
    start, size = 0, 1  # size: len(points)
    for _ in range(depth):
        end = size
        for a in range(len(mats)):
            k = inv_idx[a]
            move = moves[k]
            bit, back = 1 << k, 1 << a
            for j in range(start, end):
                if masks[j] & bit:
                    continue  # k.q is a seen point
                q = points[j]
                p = list(q)
                for i, row, c in move:
                    p[i] = sum(map(mul, row, q), c)
                p = tuple(p)
                known = seen.setdefault(p, size)  # p's index; size when p is new
                if known < size:
                    masks[known] |= back
                    continue
                if size >= cap:
                    raise BudgetExceeded(f"orbit cap {cap} hit during orbit search")
                size += 1
                points.append(p)
                masks.append(back)
        start = end
    return points


def orbit(g: FGGroup, x: HyperboloidPoint, depth: int) -> list[HyperboloidPoint]:
    """Orbit points g.x over words of length <= depth.

    Deduplicated by exact ray equality, sorted by ray; at most ORBIT_CAP
    distinct points, else BudgetExceeded.
    """
    if depth < 0:
        raise InvalidParameter("depth must be >= 0")
    if x.orientation != g.orientation:
        raise DifferentAmbient("point and group live over different ambients")
    return [HyperboloidPoint(orientation=g.orientation, ray=r)
            for r in sorted(_orbit_ball(g, x.ray, depth))]


def limit_points_sample(g: FGGroup, x: HyperboloidPoint, depth: int) -> list[tuple[float, ...]]:
    """Approximate limit directions from a finite orbit sample.

    Ball-model orbit points with radius above 1 - 1e-6 are projected to the
    sphere and merged single-linkage whenever two directions are closer than
    the angular tolerance widened by each point's positional uncertainty
    sqrt(2 (1 - r)) (the deviation scale of a parabolic approach arm).  The
    result is a sampling estimate, never the full limit set.

    An orbit point p has the basepoint's norm N, so its ball radius is
    r = sqrt((c - 1) / (c + 1)) with c = (p, b) / sqrt(N (b, b)), b the cone
    base, and r > 1 - t exactly when c > C = (1 + (1 - t)^2) / (1 - (1 - t)^2).
    One integer pairing with G b keeps the points with (p, b)^2 >= K N (b, b),
    K = int(0.9 C^2); only these are mapped to the ball, in ray order.  A
    point left out has c < 0.95 C, so 1 - r > 1.05 t, a gap no rounding of
    the float test closes: the far points and every float are those of
    mapping the whole orbit.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    if x.orientation != g.orientation:
        raise DifferentAmbient("point and group live over different ambients")
    return _limit_directions(g.orientation, x.ray, _orbit_ball(g, x.ray, depth))


def _limit_directions(o: ConeOrientation, x_ray, rays) -> list[tuple[float, ...]]:
    """`limit_points_sample` of the orbit points `rays` of x_ray, in any
    order: the pairing filter, the ball map and the clustering."""
    gb = linalg.mat_vec(o.lattice.gram, o.base)
    s = (1.0 - LIMIT_RADIUS_TOL) ** 2
    c_far = (1.0 + s) / (1.0 - s)
    bound = int(0.9 * c_far * c_far) * o.lattice.norm(x_ray) * linalg.dot(o.base, gb)
    dot = linalg.dot
    far = []
    for ray in sorted(p for p in rays if dot(p, gb) ** 2 >= bound):
        b = to_ball(o, HyperboloidPoint(orientation=o, ray=ray))
        r = sum(v * v for v in b) ** 0.5
        if r > 1.0 - LIMIT_RADIUS_TOL:
            uncertainty = 2.0 * (2.0 * max(0.0, 1.0 - r)) ** 0.5
            far.append((tuple(v / r for v in b), uncertainty))
    parent = list(range(len(far)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(far)):
        di, ui = far[i]
        for j in range(i + 1, len(far)):
            dj, uj = far[j]
            gap = sum((a - b) ** 2 for a, b in zip(di, dj)) ** 0.5
            if gap < LIMIT_ANGLE_TOL + ui + uj:
                parent[find(i)] = find(j)
    groups: dict[int, list[tuple[float, ...]]] = {}
    for i, (direction, _) in enumerate(far):
        groups.setdefault(find(i), []).append(direction)
    out = []
    for members in groups.values():
        k = len(members)
        mean = tuple(sum(v[i] for v in members) / k for i in range(len(members[0])))
        norm = sum(v * v for v in mean) ** 0.5
        out.append(tuple(v / norm for v in mean))
    return sorted(out)


# -- Dirichlet domains ---------------------------------------------------------------

def dirichlet_domain(g: FGGroup, h: HyperboloidPoint, word_budget: int) -> PolyhedralCone:
    """Budget-truncated Dirichlet domain around a rational basepoint.

    H-representation from the bisectors p - h of the distinct orbit points
    p != h over words of length <= budget (the ball is closed under
    inversion, so these are the g^-1 h), in the order `elements_up_to`
    first reaches them: `_orbit_ball`'s offsets from h, as they come out
    of it; then reduced to facets via the exact
    V-representation.  ORBIT_CAP counts distinct orbit points.  The result is
    a superset of the true domain and carries the truncation label.  A
    negative budget is refused.

    The bisectors enter the double description as they are, neither made
    primitive nor deduplicated; only the facets kept are made primitive.
    No two bisectors are parallel: if q - h = c (p - h), c not 0 or 1,
    expanding (q, q) = (p, p) = (h, h) = N > 0 gives (p, h) = N, equality
    in the reverse Cauchy-Schwarz inequality (p, h)^2 >= (p, p)(h, h): p is
    a multiple of h with h's norm, in h's cone, so p = h.
    """
    if word_budget < 0:
        raise InvalidParameter("word budget must be >= 0")
    if h.orientation != g.orientation:
        raise DifferentAmbient("basepoint and group live over different ambients")
    ident = linalg.identity_matrix(g.lattice.rank)
    if any(gen.matrix != ident and tuple(gen.apply(h.ray)) == tuple(h.ray)
           for gen in g.generators):
        raise FixedBasepoint("a generator fixes the basepoint")
    bisectors = tuple(islice(_orbit_ball(g, h.ray, word_budget, h.ray), 1, None))
    dom = irredundant_halfspaces(PolyhedralCone(
        g.lattice, bisectors, orientation=g.orientation, truncated_at=word_budget))
    return replace(dom, halfspaces=tuple(map(linalg.primitive_vector, dom.halfspaces)))


# -- tiling verification ----------------------------------------------------------------

def sample_cone_points(orientation: ConeOrientation, count: int, seed: int):
    """Random rational points of H^n: integer rays in a box, cone-filtered.

    The candidates are the rays of randint(-SAMPLE_BOX, SAMPLE_BOX) per
    coordinate on Random(seed), at most 10 000 count of them, kept as
    `_first_points` keeps them.
    """
    if count < 1:
        raise InvalidParameter("sample count must be >= 1")
    draws = chain.from_iterable(_randint_chunks(Random(seed), SAMPLE_BOX))
    rays = islice(zip(*[draws] * orientation.lattice.rank), 10_000 * count)
    return _first_points(orientation, rays, (), count)


def sample_domain_points(cone: PolyhedralCone, count: int, seed: int):
    """Random rational points of H^n strictly inside a cone, in the cone's
    orientation: positive integer combinations of its V-rep rays.

    Each candidate weighs the rays (lineality as +- pairs), in their order,
    by randint(-SAMPLE_BOX, SAMPLE_BOX) + SAMPLE_BOX + 1 on Random(seed), so
    by 1 to 2 SAMPLE_BOX + 1; at most 10 000 count candidates are drawn.
    `_first_points` keeps them with the cone's strict inequalities added: a
    combination may still leave H^n through escaping rays, and a cone with
    no interior (flat, or the zero cone) keeps none.  A cone without a V-rep
    is reduced first.
    """
    if count < 1:
        raise InvalidParameter("sample count must be >= 1")
    if cone.orientation is None:
        raise InvalidParameter("domain sampling needs a cone orientation")
    reduced = irredundant_halfspaces(cone)
    cols = tuple(zip(*reduced.rays))
    draws = map((SAMPLE_BOX + 1).__add__,
                chain.from_iterable(_randint_chunks(Random(seed), SAMPLE_BOX)))
    weights = islice(zip(*[draws] * len(reduced.rays)), 10_000 * count)
    rays = (tuple([sum(map(mul, w, col)) for col in cols]) for w in weights)
    return _first_points(cone.orientation, rays, reduced.functionals, count)


def _first_points(orientation: ConeOrientation, rays, functionals, count: int):
    """The first `count` rays that pair positively with the base, are
    strictly positive on every functional and have positive norm, as points
    of H^n; BudgetExceeded if the rays run out first.  Cheapest rejection
    first: the pairing with the base, the functionals on the raw ray (they
    hold iff they hold on its primitive multiple), the norm.
    """
    gram = orientation.lattice.gram
    forms = (linalg.mat_vec(gram, orientation.base),) + functionals
    out = []
    for ray in rays:
        for f in forms:
            if sum(map(mul, f, ray)) <= 0:
                break
        else:
            if linalg.dot(ray, linalg.mat_vec(gram, ray)) > 0:
                out.append(point_from_ray(orientation, ray))
                if len(out) == count:
                    return out
    raise BudgetExceeded("sampling failed to hit the requested region")


def _randint_chunks(rng: Random, box: int):
    """rng.randint(-box, box) without end, in lists of the values kept from
    1024 draws: randint's rejection loop over getrandbits(b), b the bit
    length of the width 2 box + 1, with its calls made in bulk.

    rng is the C base class of random.Random: for an int seed it holds the
    same state and draws the same bits, and importing it leaves out the
    rest of the random module."""
    width = 2 * box + 1
    bits = [width.bit_length()] * 1024
    while True:
        yield [v - box for v in map(rng.getrandbits, bits) if v < width]


class _PulledBack(list):
    """The rows of F E pulled back so far, for the facet functionals' matrix
    F and one group element E, whose columns are `cols`."""

    def __init__(self, matrix):
        self.cols = linalg.transpose(matrix)

    def meets_rest(self, fns, y, strict) -> bool:
        """Whether y meets each functional after the rows held (> 0 when
        strict, >= 0 otherwise), pulling each back as it is reached."""
        for f in fns[len(self):]:
            row = [sum(map(mul, f, col)) for col in self.cols]
            self.append(row)
            s = sum(map(mul, row, y))
            if s < 0 or strict and s == 0:
                return False
        return True


def tiling_check(cone: PolyhedralCone, g: FGGroup, samples: int, word_budget: int,
                 *, seed: int = 0) -> dict:
    """Sampled fundamental-domain diagnostics for a truncated domain.

    (a) no sampled interior point of the domain lies in another translate's
    interior, and (b) every sampled cone point is carried into the domain
    by some word within the budget; failures are counted, not hidden.  The
    points of (a) are `sample_domain_points` of the cone on `seed`, drawn
    from its V-rep (a Dirichlet domain carries one); those of (b) are
    `sample_cone_points` on seed + 1.  Fewer than one sample, or a negative
    word budget, is refused: either would report a pass that checked
    nothing.

    A translate E y meets a facet functional f = G w as f . E y = (E^t f) . y,
    so each element's functionals are pulled back, as the rows of F E for
    the functionals' matrix F, and each (sample, element) pair costs at
    most one dot product per facet.  A pair tests the facets in order and
    stops at the first one y fails, so each element's rows are pulled back
    in order, each when a sample first reaches it: a check with few samples
    pulls back few rows.  A cone over a lattice of another rank than the
    group's is refused.
    """
    o = g.orientation
    if cone.lattice.rank != o.lattice.rank:
        raise DimensionMismatch(f"vectors must have length {o.lattice.rank}")
    fns = cone.functionals
    pulled = [_PulledBack(e.matrix) for e, _ in elements_up_to(g, word_budget)[1:]]
    # the word ball is closed under inversion: some g^-1 moves y inside iff some g does
    overlaps = sum(any(all(sum(map(mul, f, y)) > 0 for f in fs)
                       and fs.meets_rest(fns, y, True) for fs in pulled)
                   for y in (pt.ray for pt in sample_domain_points(cone, samples, seed)))
    unreachable = sum(not ray_satisfies(cone, y)
                      and not any(all(sum(map(mul, f, y)) >= 0 for f in fs)
                                  and fs.meets_rest(fns, y, False) for fs in pulled)
                      for y in (pt.ray for pt in sample_cone_points(o, samples, seed + 1)))
    return {
        "samples": samples,
        "word_budget": word_budget,
        "seed": seed,
        "overlap_count": overlaps,
        "unreachable_count": unreachable,
        "passed": overlaps == 0 and unreachable == 0,
    }


# -- chamber walk ------------------------------------------------------------------------

class WalkResult(Record):
    def __init__(self, point: tuple[int, ...], word: tuple[tuple[int, ...], ...],
                 completed: bool):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "word", word)  # reflection vectors applied, in order
        object.__setattr__(self, "completed", completed)


def chamber_walk(orientation: ConeOrientation, x, *, root_norm: int = -2,
                 height: int = 10, step_budget: int = 100,
                 require_off_wall: bool = False) -> WalkResult:
    """Reflect x into the chamber where it pairs >= 0 with every listed root.

    Each step picks the height-minimal then lexicographically minimal root
    with (x, root) < 0 and reflects.  Zero pairings do not drive steps;
    with require_off_wall=True a zero pairing on the input raises OnWall
    instead.  At most step_budget reflections are made, and the point they
    reach is tested too: `completed` says that it lies in the chamber.
    Budget exhaustion is flagged in the result, not raised; a negative
    budget is refused, and so is a root norm other than -2, the only norm
    `reflection` reflects in.  Each step pairs x with the roots through one
    product G x, a dot product per root.
    """
    if step_budget < 0:
        raise InvalidParameter("step budget must be >= 0")
    if root_norm != -2:
        raise InvalidParameter(f"chamber walks reflect in roots of norm -2, not {root_norm}")
    lat = orientation.lattice
    ray = tuple(x.ray if isinstance(x, HyperboloidPoint) else x)
    if lat.norm(ray) <= 0 or lat.pair(ray, orientation.base) <= 0:
        raise InvalidParameter("walk start must lie in the positive cone")
    roots = enumerate_norm_vectors(lat, root_norm, height)
    roots.sort(key=lambda r: (max(abs(c) for c in r), r))
    dot = linalg.dot
    gx = linalg.mat_vec(lat.gram, ray)
    if require_off_wall and any(dot(gx, r) == 0 for r in roots):
        raise OnWall("start point lies on a reflection wall")
    word = []
    while True:
        pick = next((r for r in roots if dot(gx, r) < 0), None)
        if pick is None or len(word) == step_budget:
            return WalkResult(point=ray, word=tuple(word), completed=pick is None)
        c = dot(gx, pick)
        ray = tuple([v + c * r for v, r in zip(ray, pick)])  # the reflection v + (v, r) r
        gx = linalg.mat_vec(lat.gram, ray)
        word.append(pick)
