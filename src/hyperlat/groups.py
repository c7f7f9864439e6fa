"""Finitely generated subgroups of O+(L): orbits, limit-point sampling,
elementary-type detection, Dirichlet domains, tiling checks, chamber walks.

Dirichlet domains are always truncated at a word budget and carry that
label; exactness of a truncated domain is not decidable here and is never
claimed.  Word enumeration uses reduced words over the symmetric generator
set with exact-matrix deduplication.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .cones import HalfSpace, PolyhedralCone, cone_from_halfspaces, \
    extreme_rays, irredundant_halfspaces, ray_satisfies
from .errors import (BudgetExceeded, DifferentAmbient, FixedBasepoint,
                     InvalidParameter, OnWall)
from .forms import enumerate_norm_vectors
from .isometry import ELLIPTIC, Isometry, fixed_boundary_points, reflection
from .lattice import GramLattice
from .model import ConeOrientation, HyperboloidPoint, point_from_ray, to_ball
from .record import Record

DEFAULT_ORBIT_CAP = 200_000
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


def elements_up_to(g: FGGroup, word_budget: int, *, include_identity: bool = True,
                   cap: int = DEFAULT_ORBIT_CAP):
    """Distinct group elements of word length <= budget, with shortest words.

    Breadth-first over reduced words; deduplication is by exact matrix, and
    the returned order (word length, then letter sequence) is canonical.
    """
    mats, labels, inv_idx = _letters(g)
    n = g.lattice.rank
    ident = linalg.identity_matrix(n)
    seen = {ident: ()}
    frontier = [(ident, (), None)]
    order = [(ident, ())]
    for _ in range(word_budget):
        nxt = []
        for mat, word, last in frontier:
            for k, letter in enumerate(mats):
                if last is not None and inv_idx[k] == last:
                    continue  # reduced words only
                new = linalg.mat_mul(letter, mat)
                if new in seen:
                    continue
                if len(seen) >= cap:
                    raise BudgetExceeded(f"element cap {cap} hit during word search")
                new_word = (labels[k],) + word
                seen[new] = new_word
                nxt.append((new, new_word, k))
                order.append((new, new_word))
        frontier = nxt
    if not include_identity:
        order = [(m, w) for m, w in order if m != ident]
    return [(Isometry(g.orientation, m), w) for m, w in order]


def word_string(word) -> str:
    if not word:
        return "e"
    return ".".join(f"g{abs(k)}" + ("'" if k < 0 else "") for k in word)


# -- orbits and limit points ------------------------------------------------------

def orbit(g: FGGroup, x: HyperboloidPoint, depth: int, *,
          cap: int = DEFAULT_ORBIT_CAP) -> list[HyperboloidPoint]:
    """Orbit points g.x over reduced words of length <= depth.

    Deduplicated by exact ray equality, canonically ordered.
    """
    if depth < 0:
        raise InvalidParameter("depth must be >= 0")
    if x.orientation != g.orientation:
        raise DifferentAmbient("point and group live over different ambients")
    rays = set()
    for elem, _ in elements_up_to(g, depth, cap=cap):
        ray = tuple(elem.apply(x.ray))
        rays.add(ray)
        if len(rays) > cap:
            raise BudgetExceeded(f"orbit cap {cap} exceeded")
    return [HyperboloidPoint(orientation=g.orientation, ray=r) for r in sorted(rays)]


def limit_points_sample(g: FGGroup, x: HyperboloidPoint, depth: int, *,
                        cap: int = DEFAULT_ORBIT_CAP) -> list[tuple[float, ...]]:
    """Approximate limit directions from a finite orbit sample.

    Ball-model orbit points with radius above 1 - 1e-6 are projected to the
    sphere and merged single-linkage whenever two directions are closer than
    the angular tolerance widened by each point's positional uncertainty
    sqrt(2 (1 - r)) (the deviation scale of a parabolic approach arm).  The
    result is a sampling estimate, never the full limit set.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    o = g.orientation
    far = []
    for pt in orbit(g, x, depth, cap=cap):
        b = to_ball(o, pt)
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


# -- elementary type ---------------------------------------------------------------

ELLIPTIC_TYPE = "EllipticType"
PARABOLIC_TYPE = "ParabolicType"
LOXODROMIC_TYPE = "LoxodromicType"
NOT_DETECTED = "NotDetectedElementary"


def _fixes_ray_projectively(gen: Isometry, ray, target=None) -> bool:
    """Does g map the exact ray to a positive multiple of target (default:
    the ray itself)?

    Works for integer rays and for algebraic-coordinate rays alike.
    """
    image = linalg.mat_vec(gen.matrix, ray)
    tgt = ray if target is None else target
    pivot = next(i for i, c in enumerate(tgt) if c)
    if not image[pivot]:
        return False
    scale = _div_any(image[pivot], tgt[pivot])
    for a, b in zip(image, tgt):
        if a - scale * b:
            return False
    return _sign_any(scale) > 0


def _div_any(x, y):
    return Fraction(x, y) if isinstance(x, int) and isinstance(y, int) else x / y


def _sign_any(x):
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


def elementary_type(g: FGGroup) -> str:
    """Exact common-fixed-data analysis of the generator set.

    EllipticType: all generators elliptic with a common interior fixed
    point.  ParabolicType: a single common boundary ray, rational and
    isotropic.  LoxodromicType: a common unordered pair of boundary rays.
    Anything else is NotDetectedElementary, which deliberately includes
    genuinely non-elementary groups; no discreteness claim is made.
    """
    lat = g.lattice
    kinds = [gen.classification.kind for gen in g.generators]
    if all(k == ELLIPTIC for k in kinds):
        rows = [tuple(x - (i == j) for j, x in enumerate(row))
                for gen in g.generators for i, row in enumerate(gen.matrix)]
        kernel = linalg.kernel_basis(rows)
        if kernel:
            restricted = [[lat.pair(u, v) for v in kernel] for u in kernel]
            pos, _neg = linalg.signature_of_gram(restricted)
            if pos >= 1:
                return ELLIPTIC_TYPE
        return NOT_DETECTED
    anchor = next(gen for gen, k in zip(g.generators, kinds) if k != ELLIPTIC)
    candidates = fixed_boundary_points(anchor)
    fixed = [ray for ray in candidates
             if all(_fixes_ray_projectively(gen, ray.ray) for gen in g.generators)]
    if len(fixed) == 1 and len(candidates) == 1 and fixed[0].rational:
        return PARABOLIC_TYPE
    if len(candidates) == 2:
        pair_ok = all(_preserves_pair(gen, candidates) for gen in g.generators)
        if pair_ok:
            return LOXODROMIC_TYPE
    return NOT_DETECTED


def _preserves_pair(gen: Isometry, pair) -> bool:
    r1, r2 = pair[0].ray, pair[1].ray
    for ray in (r1, r2):
        if not (_fixes_ray_projectively(gen, ray)
                or _fixes_ray_projectively(gen, ray, r2 if ray is r1 else r1)):
            return False
    return True


# -- Dirichlet domains ---------------------------------------------------------------

def _pull_back(g: Isometry, gram_h) -> tuple[int, ...]:
    """g^-1 h = adj(G) g^t (G h) / det G from gram_h = G h: two
    matrix-vector products and an exact division, without forming g^-1."""
    lat = g.lattice
    det = lat.determinant
    w = linalg.mat_vec(lat.adjugate, linalg.mat_vec(linalg.transpose(g.matrix), gram_h))
    if any(x % det for x in w):
        raise ArithmeticError("adj(G) g^t G h is not divisible by det G: g^t G g != G")
    return tuple(x // det for x in w)


def dirichlet_halfspace(h: HyperboloidPoint, g: Isometry) -> HalfSpace:
    """Bisector inequality selecting the h-side: (g^-1 h - h, x) >= 0.

    Exactly equivalent to d(h, x) <= d(h, g x) because g^-1 h and h share
    the same exact norm.  The normal is returned primitive.
    """
    moved = _pull_back(g, linalg.mat_vec(g.lattice.gram, h.ray))
    if tuple(moved) == tuple(h.ray):
        raise FixedBasepoint("basepoint is fixed; choose another basepoint")
    normal = linalg.vec_sub(moved, h.ray)
    return HalfSpace(normal=linalg.primitive_vector(normal))


def dirichlet_domain(g: FGGroup, h: HyperboloidPoint, word_budget: int, *,
                     cap: int = DEFAULT_ORBIT_CAP) -> PolyhedralCone:
    """Budget-truncated Dirichlet domain around a rational basepoint.

    H-representation from every distinct nontrivial element of word length
    <= budget (elements fixing h are skipped), then reduced to facets via
    the exact V-representation.  The result is a superset of the true
    domain and carries the truncation label.
    """
    if h.orientation != g.orientation:
        raise DifferentAmbient("basepoint and group live over different ambients")
    ident = linalg.identity_matrix(g.lattice.rank)
    if any(gen.matrix != ident and tuple(gen.apply(h.ray)) == tuple(h.ray)
           for gen in g.generators):
        raise FixedBasepoint("a generator fixes the basepoint")
    normals = []
    gram_h = linalg.mat_vec(g.lattice.gram, h.ray)
    for elem, _word in elements_up_to(g, word_budget, include_identity=False, cap=cap):
        moved = _pull_back(elem, gram_h)
        if tuple(moved) == tuple(h.ray):
            continue
        normals.append(linalg.vec_sub(moved, h.ray))
    cone = cone_from_halfspaces(g.lattice, normals, orientation=g.orientation,
                                truncated_at=word_budget)
    if not cone.halfspaces:
        return extreme_rays(cone)
    return irredundant_halfspaces(cone)


# -- tiling verification ----------------------------------------------------------------

def sample_cone_points(orientation: ConeOrientation, count: int, seed: int, *,
                       box: int = SAMPLE_BOX, predicate=None):
    """Random rational points of H^n: integer rays in a box, cone-filtered."""
    rng = random.Random(seed)
    gram = orientation.lattice.gram
    base = orientation.base
    n = len(gram)
    width = 2 * box + 1  # randrange(width) - box draws what randint(-box, box) does
    out = []
    attempts = 0
    while len(out) < count and attempts < 10_000 * count:
        attempts += 1
        ray = tuple(rng.randrange(width) - box for _ in range(n))
        g_ray = linalg.mat_vec(gram, ray)
        if linalg.dot(ray, g_ray) <= 0 or linalg.dot(g_ray, base) <= 0:
            continue
        pt = point_from_ray(orientation, ray)
        if predicate is not None and not predicate(pt):
            continue
        out.append(pt)
    if len(out) < count:
        raise BudgetExceeded("sampling failed to hit the requested region")
    return out


def tiling_check(cone: PolyhedralCone, g: FGGroup, samples: int, word_budget: int,
                 *, seed: int = 0) -> dict:
    """Sampled fundamental-domain diagnostics for a truncated domain.

    (a) no sampled interior point of the domain lies in another translate's
    interior, and (b) every sampled cone point is carried into the domain
    by some word within the budget; failures are counted, not hidden.
    """
    o = g.orientation
    elems = [e for e, _ in elements_up_to(g, word_budget, include_identity=False)]
    inside = sample_cone_points(
        o, samples, seed, predicate=lambda p: ray_satisfies(cone, p.ray, strict=True))
    overlaps = 0
    # the word ball is closed under inversion: some g^-1 moves pt inside iff some g does
    for pt in inside:
        for elem in elems:
            if ray_satisfies(cone, elem.apply(pt.ray), strict=True):
                overlaps += 1
                break
    anywhere = sample_cone_points(o, samples, seed + 1)
    unreachable = 0
    for pt in anywhere:
        reached = ray_satisfies(cone, pt.ray)
        if not reached:
            for elem in elems:
                if ray_satisfies(cone, elem.apply(pt.ray)):
                    reached = True
                    break
        if not reached:
            unreachable += 1
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
    instead.  Budget exhaustion is flagged in the result, not raised.
    """
    lat = orientation.lattice
    ray = tuple(x.ray if isinstance(x, HyperboloidPoint) else x)
    if lat.norm(ray) <= 0 or lat.pair(ray, orientation.base) <= 0:
        raise InvalidParameter("walk start must lie in the positive cone")
    roots = [v.coords for v in enumerate_norm_vectors(lat, root_norm, height)]
    roots.sort(key=lambda r: (max(abs(c) for c in r), r))
    if require_off_wall and any(lat.pair(ray, r) == 0 for r in roots):
        raise OnWall("start point lies on a reflection wall")
    word = []
    for _ in range(step_budget):
        pick = next((r for r in roots if lat.pair(ray, r) < 0), None)
        if pick is None:
            return WalkResult(point=ray, word=tuple(word), completed=True)
        refl = reflection(orientation, pick)
        ray = tuple(refl.apply(ray))
        word.append(pick)
    return WalkResult(point=ray, word=tuple(word), completed=False)
