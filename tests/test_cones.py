"""Double description against brute force; facet reduction; hypothesis check."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperlat import (build_lattice, cones, direct_sum, extreme_rays, group, make_isometry,
                      pick_cone, point_from_ray, polytope_hypothesis_check, rank1, reflection)
from hyperlat.cones import (TAG_INTERIOR, TAG_ISOTROPIC, PolyhedralCone,
                            double_description, irredundant_halfspaces)
from hyperlat.errors import DimensionBudgetExceeded
from hyperlat.groups import _orbit_ball
from hyperlat.linalg import (adjugate, bareiss_det, dot, identity_matrix, kernel_basis,
                             mat_vec, primitive_vector, rank, row_basis, row_echelon)

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])


def cone_from_halfspaces(lattice, normals, *, orientation=None):
    """Oracle constructor: a cone on the primitive, deduplicated normals."""
    prims = dict.fromkeys(primitive_vector(tuple(w)) for w in normals)
    return PolyhedralCone(lattice, tuple(prims), orientation=orientation)


def brute_extreme_rays(functionals, n):
    """Oracle for pointed cones: kernels of (n-1)-subsets, extremality by
    active-set rank, membership by all inequalities."""
    rays = set()
    idx = range(len(functionals))
    for subset in itertools.combinations(idx, n - 1):
        rows = [list(functionals[i]) for i in subset]
        if rank(rows) != n - 1:
            continue
        kern = kernel_basis([tuple(r) for r in rows])
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            if all(dot(f, cand) >= 0 for f in functionals):
                active = [list(f) for f in functionals if dot(f, cand) == 0]
                if rank(active) == n - 1:
                    rays.add(primitive_vector(cand))
    return sorted(rays)


def random_pointed_functionals(rng, n, count):
    while True:
        fns = []
        for _ in range(count):
            f = tuple(rng.randint(-4, 4) for _ in range(n))
            if any(f):
                fns.append(f)
        if not fns:
            continue
        if kernel_basis(fns):
            continue  # has lineality; resample
        return fns


def test_double_description_vs_brute_force_50_random_cones():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        count = rng.randint(n, 8)
        fns = random_pointed_functionals(rng, n, count)
        got_rays, lineality, zero_sets = double_description(fns, identity_matrix(n))
        assert lineality == []
        expected = brute_extreme_rays(fns, n)
        assert sorted(got_rays) == expected, (fns, got_rays, expected)
        assert zero_sets == _zero_sets(fns, identity_matrix(n), got_rays)
        done += 1


def _zero_sets(normals, gram, rays):
    """Oracle: for each ray the bitmask of the normals w with (w, ray) = 0."""
    return [sum(1 << i for i, w in enumerate(normals) if dot(mat_vec(gram, w), ray) == 0)
            for ray in rays]


def _old_solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    rref, pivots = row_echelon(aug)  # integer rows: the RREF times each pivot
    for row in rref:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = Fraction(rref[i][-1], rref[i][pc])
    return x


def _old_double_description(functionals, n):
    """double_description as it was: a complement basis out of standard
    basis vectors by rank probes, and seed rays by solving S x = e_k."""
    functionals = [tuple(f) for f in functionals]
    if not functionals:
        return [], [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    lineality = kernel_basis(functionals)
    r = n - len(lineality)
    if r == 0:
        return [], lineality
    comp = []
    span_rows = [list(v) for v in lineality]
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        if rank(span_rows + [e]) > len(span_rows):
            comp.append(tuple(e))
            span_rows.append(e)
        if len(comp) == r:
            break
    projected = [tuple(dot(f, c) for c in comp) for f in functionals]
    lifted = []
    for qray in _old_pointed_double_description(projected, r):
        vec = [0] * n
        for coef, cvec in zip(qray, comp):
            for i in range(n):
                vec[i] += coef * cvec[i]
        lifted.append(primitive_vector(vec))
    return sorted(set(lifted)), lineality


def _old_pointed_double_description(rows, r):
    seed_idx = []
    seed_rows = []
    for i, row in enumerate(rows):
        if rank(seed_rows + [list(row)]) > len(seed_rows):
            seed_idx.append(i)
            seed_rows.append(list(row))
        if len(seed_idx) == r:
            break
    assert len(seed_idx) == r
    rays = []
    for k in range(r):
        rhs = [Fraction(1 if j == k else 0) for j in range(r)]
        rays.append(primitive_vector(_old_solve_linear(seed_rows, rhs)))
    seeds = set(seed_idx)
    zsets = {ray: sum(1 << i for i in seed_idx if dot(rows[i], ray) == 0)
             for ray in rays}
    for i, row in enumerate(rows):
        if i in seeds:
            continue
        values = {ray: dot(row, ray) for ray in rays}
        pos = [ray for ray in rays if values[ray] > 0]
        zero = [ray for ray in rays if values[ray] == 0]
        neg = [ray for ray in rays if values[ray] < 0]
        fresh = {}
        for p in pos:
            for m in neg:
                common = zsets[p] & zsets[m]
                if common.bit_count() < r - 2:
                    continue
                if any(zsets[o] & common == common
                       for o in rays if o is not p and o is not m):
                    continue
                combo = tuple(values[p] * mx - values[m] * px for px, mx in zip(p, m))
                fresh.setdefault(primitive_vector(combo), common | 1 << i)
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


def random_functionals(rng, n, count, lineality_dim):
    """count nonzero functionals on Q^n vanishing on a random subspace of the
    given dimension, so the cone's lineality space has at least that dimension."""
    while True:
        span = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(lineality_dim)]
        if rank(span) == lineality_dim:
            break
    annihilator = kernel_basis(span) if span else [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    fns = []
    while len(fns) < count:
        coefs = [rng.randint(-3, 3) for _ in annihilator]
        f = tuple(sum(c * a[j] for c, a in zip(coefs, annihilator)) for j in range(n))
        if any(f):
            fns.append(f)
    return fns


def test_double_description_matches_old_on_random_cones():
    rng = random.Random(4049)
    seen_lineality = 0
    for k in range(150):
        n = rng.randint(1, 5)
        lineality_dim = rng.randint(0, n - 1) if k % 2 else 0
        fns = random_functionals(rng, n, rng.randint(1, 9), lineality_dim)
        rays, lineality, zero_sets = double_description(fns, identity_matrix(n))
        assert (rays, lineality) == _old_double_description(fns, n), fns
        assert zero_sets == _zero_sets(fns, identity_matrix(n), rays)
        seen_lineality += bool(lineality)
        # the same cone from lattice normals w, G w a positive multiple of f,
        # over a Gram matrix with det < 0 or with |det| > 1
        gram = _random_gram(rng, n, negative=k % 2 == 1)
        sign = 1 if bareiss_det(gram) > 0 else -1
        scales = [sign * rng.randint(1, 5) for _ in fns]
        normals = [tuple(c * x for x in mat_vec(adjugate(gram), f)) for c, f in zip(scales, fns)]
        assert double_description(normals, gram) == (rays, lineality, zero_sets), fns
    assert double_description([], identity_matrix(3)) == \
        _old_double_description([], 3) + ([],)
    assert seen_lineality >= 50


def _random_gram(rng, n, negative):
    """A random symmetric integer matrix with det < 0, or with |det| > 1."""
    while True:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        det = bareiss_det(gram)
        if (det < 0) if negative else abs(det) > 1:
            return gram


def test_rays_satisfy_all_halfspaces():
    rng = random.Random(77)
    lat = build_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    for _ in range(20):
        normals = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
        normals = [w for w in normals if any(w)]
        cone = cone_from_halfspaces(lat, normals)
        vrep = extreme_rays(cone)
        for ray in vrep.rays:
            for w in cone.halfspaces:
                assert lat.pair(w, ray) >= 0


def test_quadrant_cone_in_u():
    o = pick_cone(U, (1, 1))
    # normals (0,1) and (1,0) give the inequalities x >= 0 and y >= 0
    cone = cone_from_halfspaces(U, [(0, 1), (1, 0)], orientation=o)
    vrep = extreme_rays(cone)
    assert set(vrep.rays) == {(1, 0), (0, 1)}
    assert set(vrep.ray_tags) == {TAG_ISOTROPIC}
    report = polytope_hypothesis_check(cone, o)
    assert report["is_generalized_polytope"]
    assert len(report["cusp_candidates"]) == 2


def test_single_halfspace_rank2():
    o = pick_cone(U, (1, 1))
    cone = cone_from_halfspaces(U, [(1, 1)], orientation=o)  # (w,x) = x + y >= 0
    vrep = extreme_rays(cone)
    # one quotient ray plus the boundary line as a +- pair
    assert len(vrep.rays) == 3
    line = [r for r in vrep.rays if U.pair((1, 1), r) == 0]
    assert len(line) == 2 and line[0] == tuple(-x for x in line[1])


def test_whole_cone_flagged():
    o = pick_cone(U, (1, 1))
    cone = cone_from_halfspaces(U, [], orientation=o)
    report = polytope_hypothesis_check(cone, o)
    assert not report["is_generalized_polytope"]
    assert report["side_count"] == 0


def test_pell_slab_rays_and_tags():
    o = pick_cone(D12, (1, 0))
    cone = cone_from_halfspaces(D12, [(1, -1), (1, 1)], orientation=o)
    vrep = extreme_rays(cone)
    assert set(vrep.rays) == {(2, 1), (2, -1)}
    assert set(vrep.ray_tags) == {TAG_INTERIOR}
    # x^2 = 2 y^2 has no rational solution, so no rational isotropic ray
    assert TAG_ISOTROPIC not in vrep.ray_tags
    report = polytope_hypothesis_check(cone, o)
    assert report["side_count"] == 2 and report["cusp_candidates"] == []


def test_redundant_halfspace_removed():
    o = pick_cone(D12, (1, 0))
    # (4,-3) is implied by the slab: it was derived from the Pell cube word
    cone = cone_from_halfspaces(D12, [(1, -1), (1, 1), (4, -3)], orientation=o)
    reduced = irredundant_halfspaces(cone)
    assert set(reduced.halfspaces) == {(1, -1), (1, 1)}
    assert set(reduced.rays) == {(2, 1), (2, -1)}


def test_dimension_budget():
    lat = build_lattice([[1 if i == j else 0 for j in range(7)] for i in range(7)])
    cone = cone_from_halfspaces(lat, [tuple(1 for _ in range(7))])
    with pytest.raises(DimensionBudgetExceeded):
        extreme_rays(cone)


def test_lower_dimensional_cone():
    lat = build_lattice([[1, 0], [0, 1]])
    # x >= 0 and -x >= 0 force the y-axis; both constraints must survive
    cone = cone_from_halfspaces(lat, [(1, 0), (-1, 0), (0, 1)])
    vrep = extreme_rays(cone)
    assert vrep.rays == ((0, 1),)
    reduced = irredundant_halfspaces(vrep)
    got = extreme_rays(reduced)
    assert got.rays == ((0, 1),)


def _per_ray_pointed_double_description(normals, gram, pivots):
    """Reference: the pointed double description with one dot product per
    ray and row, zero sets in a dict keyed by ray."""
    n, r = len(gram), len(pivots)
    seed_idx = []
    seed_rows = []
    for i, row in enumerate(normals):
        if rank(seed_rows + [row]) > len(seed_rows):
            seed_idx.append(i)
            seed_rows.append(row)
        if len(seed_idx) == r:
            break
    assert len(seed_idx) == r
    seed_fns = [[f[p] for p in pivots] for f in (mat_vec(gram, w) for w in seed_rows)]
    adj = adjugate(seed_fns)
    sign = 1 if bareiss_det(seed_fns) > 0 else -1
    rays = []
    for k in range(r):
        ys = iter(primitive_vector([sign * row[k] for row in adj]))
        rays.append(tuple(next(ys) if j in pivots else 0 for j in range(n)))
    images = [mat_vec(gram, ray) for ray in rays]
    seeds = set(seed_idx)
    zsets = {ray: sum(1 << i for i in seed_idx if dot(normals[i], im) == 0)
             for ray, im in zip(rays, images)}
    for i, row in enumerate(normals):
        if i in seeds:
            continue
        row_values = [dot(row, im) for im in images]
        if 0 in row_values:
            for ray, value in zip(rays, row_values):
                if not value:
                    zsets[ray] |= 1 << i
        if min(row_values, default=0) >= 0:
            continue
        values = dict(zip(rays, row_values))
        neg = [ray for ray in rays if values[ray] < 0]
        pos = [ray for ray in rays if values[ray] > 0]
        fresh = {}
        for p in pos:
            for m in neg:
                common = zsets[p] & zsets[m]
                if common.bit_count() < r - 2:
                    continue
                if any(zsets[o] & common == common
                       for o in rays if o is not p and o is not m):
                    continue
                combo = tuple(values[p] * mx - values[m] * px for px, mx in zip(p, m))
                fresh.setdefault(primitive_vector(combo), common | 1 << i)
        for ray in neg:
            del zsets[ray]
        kept = [k for k, value in enumerate(row_values) if value >= 0]
        rays = [rays[k] for k in kept]
        images = [images[k] for k in kept]
        for ray, zset in fresh.items():
            if ray not in zsets:
                zsets[ray] = zset
                rays.append(ray)
                images.append(mat_vec(gram, ray))
    return zsets


def _pointed_zero_sets(normals, gram, monkeypatch):
    """The packed and the reference {ray: zero set} of the pointed part, and
    the rows the packed one sent to the exact per-ray step, each checked to
    remove a ray; None when the normals span no pivot."""
    normals = [tuple(w) for w in normals]
    _, pivots = row_echelon([mat_vec(gram, b) for b in row_basis(normals)])
    if not pivots:
        return None
    cut_rows = []
    real_cut = cones._cut

    def cut(row, i, rays, images, *rest):
        assert min(dot(row, im) for im in images) < 0  # the row removes a ray
        cut_rows.append(i)
        return real_cut(row, i, rays, images, *rest)

    monkeypatch.setattr(cones, "_cut", cut)
    got = cones._pointed_double_description(normals, gram, pivots)
    monkeypatch.undo()
    want = _per_ray_pointed_double_description(normals, gram, pivots)
    return got, want, cut_rows


def _bisectors(grp, point, budget):
    """The normals `dirichlet_domain` feeds the double description: the
    orbit bisectors of the group, in their order."""
    points = _orbit_ball(grp, point_from_ray(grp.orientation, point).ray, budget)
    return [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]


REFLECTION_GROUPS = {
    "U+<-2>": (direct_sum(U, rank1(-2)), ((0, 0, 1), (1, -1, 0), (1, 0, 1), (0, 1, 1)),
               (3, 5, 1)),
    "U+A2": (build_lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]]),
             ((0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0), (1, 0, 1, 0)), (3, 5, 1, 0)),
    "U+A2+<-2>": (build_lattice([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -2, 1, 0],
                                 [0, 0, 1, -2, 0], [0, 0, 0, 0, -2]]),
                  ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, -1, 0, 0, 0),
                   (1, 0, 0, 0, 1)), (5, 7, 1, 0, 1)),
}


@pytest.mark.parametrize("name", REFLECTION_GROUPS)
def test_packed_row_test_matches_per_ray_on_dirichlet_bisectors(name, monkeypatch):
    lattice, roots, point = REFLECTION_GROUPS[name]
    o = pick_cone(lattice, None)
    grp = group(*(reflection(o, d) for d in roots))
    on_a_ray = 0
    for budget in range(3, 11):
        normals = _bisectors(grp, point, budget)
        got, want, cut_rows = _pointed_zero_sets(normals, lattice.gram, monkeypatch)
        assert got == want, (name, budget)
        # a row through a ray sets its zero bits in the packed test
        on_a_ray += sum(1 for i in range(len(normals))
                        if any(zset >> i & 1 for zset in got.values()))
        assert len(cut_rows) < len(normals) // 4, (name, budget)
    assert on_a_ray >= 100


def test_packed_row_test_matches_per_ray_on_wide_random_cones(monkeypatch):
    rng = random.Random(27)
    collapsed = repeated = 0
    for k in range(300):
        n = rng.randint(3, 6)
        bound = (10, 1000, 10 ** 6)[k % 3]
        gram = identity_matrix(n) if k % 2 else _random_gram(rng, n, negative=k % 4 == 0)
        normals = [tuple(rng.randint(-bound, bound) for _ in range(n))
                   for _ in range(rng.randint(1, 12))]
        normals = [w for w in normals if any(w)] or [(1,) + (0,) * (n - 1)]
        for _ in range(rng.randint(0, 3)):  # duplicates and positive multiples
            w = rng.choice(normals)
            normals.insert(rng.randrange(len(normals) + 1),
                           tuple(rng.randint(1, 3) * x for x in w))
            repeated += 1
        result = _pointed_zero_sets(normals, gram, monkeypatch)
        if result is None:
            continue
        got, want, _ = result
        assert got == want, (gram, normals)
        collapsed += not got
    assert collapsed >= 20 and repeated >= 100


def test_packed_row_test_on_the_zero_cone(monkeypatch):
    # every ray of the first rows is cut away; the last rows meet no ray
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (2, 0, 0), (0, -5, 3)]
    got, want, cut_rows = _pointed_zero_sets(normals, identity_matrix(3), monkeypatch)
    assert got == want == {}
    assert cut_rows == [3]


# U+A2+<-2> in another basis, with five reflections: the group of the
# fourth Dirichlet job of the group-geometry benchmark round of seed 1
SEED1_GRAM = [[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, -2, -1, 0], [0, 0, -1, -2, 0],
              [0, 0, 0, 0, -2]]
SEED1_GENERATORS = [
    [[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, -1, -1, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, -1]],
    [[1, -1, 0, 0, 2], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 1, 0, 0, -1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, -1, -1, 0], [0, 0, 0, 0, 1]],
]


def test_packed_row_test_sends_only_the_cutting_rows_to_the_per_ray_step(monkeypatch):
    lattice = build_lattice(SEED1_GRAM)
    o = pick_cone(lattice, None)
    grp = group(*(make_isometry(o, m) for m in SEED1_GENERATORS))
    normals = _bisectors(grp, (5, -7, 1, 0, -1), 10)
    got, want, cut_rows = _pointed_zero_sets(normals, SEED1_GRAM, monkeypatch)
    assert got == want and len(got) == 5
    # 743 rows, 5 of them seeds: 4 of the other 738 remove a ray
    assert len(normals) == 743
    assert len(cut_rows) == 4
