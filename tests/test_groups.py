"""Orbits, limit sampling, Dirichlet domains, tiling, chamber walks."""

import random
from operator import add, sub

import pytest

from hyperlat import (build_lattice, chamber_walk, cones, dirichlet_domain,
                      direct_sum, eichler_transvection, enumerate_norm_vectors,
                      group, groups, limit_points_sample, linalg, make_isometry, orbit,
                      pick_cone, point_from_ray, polytope_hypothesis_check, rank1,
                      reflection, standard_lattice, tiling_check)
from hyperlat.cones import PolyhedralCone, ray_satisfies
from hyperlat.errors import (BudgetExceeded, DimensionMismatch, FixedBasepoint,
                             InvalidParameter, OnWall)
from hyperlat.groups import _orbit_ball, elements_up_to, sample_cone_points
from hyperlat.model import to_ball
from hyperlat.record import replace

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])
U_MINUS2 = direct_sum(U, rank1(-2))

O_D12 = pick_cone(D12, (1, 0))
O_UM2 = pick_cone(U_MINUS2, (1, 1, 0))

PELL = make_isometry(O_D12, [[3, 4], [2, 3]])
PELL_GROUP = group(PELL)
TRANSVECTION = eichler_transvection(O_UM2, (1, 0, 0), (0, 0, 1))
MIRROR = reflection(O_UM2, (0, 0, 1))


def cone_from_halfspaces(lattice, normals, *, orientation=None, truncated_at=None):
    """Oracle constructor: a cone on the primitive, deduplicated normals."""
    prims = dict.fromkeys(linalg.primitive_vector(tuple(w)) for w in normals)
    return PolyhedralCone(lattice, tuple(prims), orientation=orientation,
                          truncated_at=truncated_at)


def dirichlet_halfspace(h, g):
    """Oracle: the primitive bisector normal g^-1 h - h of one element,
    with g^-1 formed as a matrix; FixedBasepoint when g fixes h."""
    moved = tuple(g.inverse().apply(h.ray))
    if moved == tuple(h.ray):
        raise FixedBasepoint("basepoint is fixed")
    return linalg.primitive_vector(tuple(map(sub, moved, h.ray)))


def test_orbit_depth0():
    x = point_from_ray(O_D12, (1, 0))
    assert [p.ray for p in orbit(PELL_GROUP, x, 0)] == [(1, 0)]


def test_orbit_pell_depth2():
    x = point_from_ray(O_D12, (1, 0))
    pts = orbit(PELL_GROUP, x, 2)
    # matrix powers: g(1,0) = (3,2), g^2(1,0) = (17,12), inverses mirror them
    assert sorted(p.ray for p in pts) == \
        sorted([(1, 0), (3, 2), (17, 12), (3, -2), (17, -12)])


def test_orbit_involution():
    x = point_from_ray(O_UM2, (2, 3, 1))
    pts = orbit(group(MIRROR), x, 3)
    assert sorted(p.ray for p in pts) == [(2, 3, -1), (2, 3, 1)]


def test_orbit_count_loxodromic_cyclic():
    x = point_from_ray(O_D12, (3, 1))
    for depth in (1, 2, 3, 5):
        assert len(orbit(PELL_GROUP, x, depth)) == 2 * depth + 1


def test_limits_pell_two_clusters():
    x = point_from_ray(O_D12, (1, 0))
    dirs = limit_points_sample(PELL_GROUP, x, 12)
    assert len(dirs) == 2
    # oracle: the loxodromic fixed rays (sqrt2, +-1) map to the two ends of
    # the 1-dimensional ball
    assert sorted(d[0] for d in dirs) == pytest.approx([-1.0, 1.0])


def test_limits_transvection_single_cluster():
    x = point_from_ray(O_UM2, (1, 1, 0))
    dirs = limit_points_sample(group(TRANSVECTION), x, 1500)
    assert len(dirs) == 1
    expected = to_ball(O_UM2, __import__("hyperlat").boundary_from_ray(O_UM2, (1, 0, 0)))
    got = dirs[0]
    assert sum((a - b) ** 2 for a, b in zip(got, expected)) ** 0.5 < 1e-3


def test_limits_finite_group_empty():
    x = point_from_ray(O_UM2, (2, 3, 1))
    assert limit_points_sample(group(MIRROR), x, 6) == []


def test_dirichlet_halfspace_pell():
    h = point_from_ray(O_D12, (1, 0))
    # g^-1 = [[3,-4],[-2,3]], so g^-1 h - h = (2,-2) ~ (1,-1); g h - h ~ (1,1)
    assert dirichlet_domain(PELL_GROUP, h, 1).halfspaces == ((1, -1), (1, 1))


def test_dirichlet_halfspace_fixed_basepoint():
    h = point_from_ray(O_D12, (1, 0))
    # the identity fixes every basepoint and adds no bisector
    ident = make_isometry(O_D12, [[1, 0], [0, 1]])
    assert dirichlet_domain(group(ident), h, 2).halfspaces == ()
    assert dirichlet_domain(group(PELL, ident), h, 1).halfspaces == ((1, -1), (1, 1))


def test_dirichlet_domain_pell_slab():
    h = point_from_ray(O_D12, (1, 0))
    dom = dirichlet_domain(PELL_GROUP, h, 3)
    assert set(dom.halfspaces) == {(1, -1), (1, 1)}
    assert dom.truncated_at == 3
    assert set(dom.rays) == {(2, 1), (2, -1)}
    report = polytope_hypothesis_check(dom, O_D12)
    assert report["side_count"] == 2
    assert report["is_generalized_polytope"]
    assert report["cusp_candidates"] == []


def test_dirichlet_domain_trivial_group():
    ident = make_isometry(O_D12, [[1, 0], [0, 1]])
    h = point_from_ray(O_D12, (1, 0))
    dom = dirichlet_domain(group(ident), h, 4)
    assert dom.halfspaces == ()


def test_dirichlet_domain_mirror_bisector():
    s = reflection(O_UM2, (1, 0, 1))
    h = point_from_ray(O_UM2, (1, 1, 0))
    assert U_MINUS2.pair(h.ray, (1, 0, 1)) == 1  # h is off the mirror
    dom = dirichlet_domain(group(s), h, 3)
    assert dom.halfspaces == ((1, 0, 1),)


def test_dirichlet_domain_fixed_basepoint_error():
    h = point_from_ray(O_UM2, (1, 1, 0))  # on the mirror of (0,0,1)
    with pytest.raises(FixedBasepoint):
        dirichlet_domain(group(MIRROR), h, 2)


def test_tiling_pell_clean():
    h = point_from_ray(O_D12, (1, 0))
    dom = dirichlet_domain(PELL_GROUP, h, 3)
    report = tiling_check(dom, PELL_GROUP, 100, 8, seed=0)
    assert report["overlap_count"] == 0
    assert report["unreachable_count"] == 0
    assert report["passed"]


def test_tiling_trivial_group_vacuous():
    ident = make_isometry(O_D12, [[1, 0], [0, 1]])
    h = point_from_ray(O_D12, (1, 0))
    dom = dirichlet_domain(group(ident), h, 2)
    report = tiling_check(dom, group(ident), 50, 4, seed=0)
    assert report["passed"]


def test_tiling_negative_controls():
    h = point_from_ray(O_D12, (1, 0))
    # shrunken: extra wall cuts the true domain, leaving unreachable points
    shrunk = cone_from_halfspaces(D12, [(1, -1), (1, 1), (0, -1)],
                                  orientation=O_D12)
    report = tiling_check(shrunk, PELL_GROUP, 100, 8, seed=0)
    assert report["unreachable_count"] > 0
    # enlarged: dropping a wall creates interior overlaps between translates
    enlarged = cone_from_halfspaces(D12, [(1, -1)], orientation=O_D12)
    report2 = tiling_check(enlarged, PELL_GROUP, 100, 8, seed=0)
    assert report2["overlap_count"] > 0


def _old_tiling_check(cone, g, samples, word_budget, *, seed=0):
    """Oracle: the tiling check that applied every element to every sample."""
    elems = [e for e, _ in elements_up_to(g, word_budget)[1:]]
    overlaps = sum(any(ray_satisfies(cone, e.apply(pt.ray), strict=True) for e in elems)
                   for pt in groups.sample_domain_points(cone, samples, seed))
    unreachable = sum(not ray_satisfies(cone, pt.ray)
                      and not any(ray_satisfies(cone, e.apply(pt.ray)) for e in elems)
                      for pt in sample_cone_points(g.orientation, samples, seed + 1))
    return overlaps, unreachable


TILED_DOMAINS = [  # (group, basepoint ray, Dirichlet budget, check budget)
    (lambda: PELL_GROUP, (1, 0), 6, 8),
    (lambda: _reflection_group("u-m2"), (3, 5, 1), 5, 4),
    (lambda: _reflection_group("u-a2"), (3, 5, 1, 0), 5, 3),
    (lambda: _reflection_group("u-a2-m2"), (5, 7, 1, 0, 1), 10, 3),
]


@pytest.mark.parametrize("make_group, ray, budget, check_budget", TILED_DOMAINS)
def test_tiling_by_pulled_back_facets_matches_applying_each_element(
        make_group, ray, budget, check_budget):
    g = make_group()
    dom = dirichlet_domain(g, point_from_ray(g.orientation, ray), budget)
    outcomes = set()
    for samples in (1, 5, 20):
        for seed in (0, 1, 7):
            report = tiling_check(dom, g, samples, check_budget, seed=seed)
            got = report["overlap_count"], report["unreachable_count"]
            assert got == _old_tiling_check(dom, g, samples, check_budget, seed=seed)
            outcomes.add(got != (0, 0))
    # the Pell domain tiles; each reflection group's domain fails some check
    assert outcomes == {False} if g is PELL_GROUP else True in outcomes


def test_tiling_of_shrunk_and_enlarged_domains_matches_applying_each_element():
    shrunk = cone_from_halfspaces(D12, [(1, -1), (1, 1), (0, -1)], orientation=O_D12)
    enlarged = cone_from_halfspaces(D12, [(1, -1)], orientation=O_D12)
    counts = []
    for cone in (shrunk, enlarged):
        for samples, seed in ((1, 0), (5, 3), (20, 1), (100, 0)):
            report = tiling_check(cone, PELL_GROUP, samples, 8, seed=seed)
            got = report["overlap_count"], report["unreachable_count"]
            assert got == _old_tiling_check(cone, PELL_GROUP, samples, 8, seed=seed)
            counts.append(got)
    assert counts[3][1] > 0 and counts[7][0] > 0  # the negative controls' counts


def test_tiling_check_pulls_back_only_the_rows_samples_reach(monkeypatch):
    made = []

    class Recorded(groups._PulledBack):
        def __init__(self, matrix):
            super().__init__(matrix)
            made.append((self, matrix))

    monkeypatch.setattr(groups, "_PulledBack", Recorded)
    g = _reflection_group("u-a2-m2")
    dom = dirichlet_domain(g, point_from_ray(g.orientation, (5, 7, 1, 0, 1)), 10)
    fns = dom.functionals
    for samples, most in ((1, 0.5), (20, 1)):
        made.clear()
        tiling_check(dom, g, samples, 3, seed=0)
        assert len(made) == 42 and len(fns) == 5
        # each element holds a prefix of the rows of F E, and one sample
        # reaches fewer than half of them
        for rows, matrix in made:
            assert rows == [list(row) for row in linalg.mat_mul(fns, matrix)[:len(rows)]]
        assert 0 < sum(len(rows) for rows, _ in made) <= most * 42 * 5


def test_tiling_check_refuses_a_cone_of_another_rank():
    dom = dirichlet_domain(PELL_GROUP, point_from_ray(O_D12, (1, 0)), 3)
    with pytest.raises(DimensionMismatch, match="length 3"):
        tiling_check(dom, group(MIRROR), 5, 2)


def test_chamber_walk_already_inside():
    result = chamber_walk(O_UM2, (3, 4, -1), height=1)
    assert result.completed and result.word == () and result.point == (3, 4, -1)
    assert chamber_walk(O_UM2, (3, 4, -1), height=1, step_budget=0) == result


@pytest.mark.parametrize("steps, want", [(1, (1, False)), (2, (2, True)), (3, (2, True))])
def test_chamber_walk_tests_the_point_of_its_last_step(steps, want):
    # the walk from (37, 13, 5) reaches the chamber with its second reflection
    result = chamber_walk(O_UM2, (37, 13, 5), height=6, step_budget=steps)
    assert (len(result.word), result.completed) == want


def test_chamber_walk_one_step():
    result = chamber_walk(O_UM2, (2, 2, 1), height=1)
    assert result.completed
    assert result.point == (2, 2, -1)
    assert result.word == ((0, 0, 1),)


def test_chamber_walk_rootless_lattice():
    lat = build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12]])
    o = pick_cone(lat, (1, 0, 0))
    result = chamber_walk(o, (3, 1, 1), height=6)
    assert result.completed and result.word == ()


def test_chamber_walk_strict_walls():
    # (2,2,1) pairs to zero with the root (0,1,1)
    assert U_MINUS2.pair((2, 2, 1), (0, 1, 1)) == 0
    with pytest.raises(OnWall):
        chamber_walk(O_UM2, (2, 2, 1), height=1, require_off_wall=True)


def test_chamber_walk_budget_flag():
    result = chamber_walk(O_UM2, (9, 14, 5), height=1, step_budget=1)
    assert not result.completed
    assert len(result.word) == 1


def test_elements_are_deduplicated():
    elems = elements_up_to(group(MIRROR), 5)
    assert len(elems) == 2  # identity and the reflection


def test_walk_image_stays_in_cone():
    result = chamber_walk(O_UM2, (9, 14, 5), height=1)
    assert result.completed
    lat = U_MINUS2
    assert lat.norm(result.point) == lat.norm((9, 14, 5))
    assert lat.pair(result.point, (1, 1, 0)) > 0
    roots = __import__("hyperlat").enumerate_norm_vectors(lat, -2, 1)
    assert all(lat.pair(result.point, r) >= 0 for r in roots)


# -- Dirichlet domains of the geometry workload, for the oracle tests below -------------

U_A2 = direct_sum(U, standard_lattice("A2"))
U_A2_M2 = direct_sum(U_A2, rank1(-2))
O_UA2 = pick_cone(U_A2, (1, 1, 0, 0))
O_UA2M2 = pick_cone(U_A2_M2, (1, 1, 0, 0, 0))
REFLECTION_GROUPS = {
    "u-m2": (O_UM2, ((0, 0, 1), (1, -1, 0), (1, 0, 1), (0, 1, 1))),
    "u-a2": (O_UA2, ((0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0), (1, 0, 1, 0))),
    "u-a2-m2": (O_UA2M2, ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
                          (1, -1, 0, 0, 0), (1, 0, 0, 0, 1))),
}


def _reflection_group(name):
    o, roots = REFLECTION_GROUPS[name]
    return group(*(reflection(o, r) for r in roots))


DOMAINS = [  # (group, basepoint ray, word budget)
    (lambda: PELL_GROUP, (1, 0), 3), (lambda: PELL_GROUP, (3, 1), 6),
    (lambda: _reflection_group("u-m2"), (3, 5, 1), 5),
    (lambda: _reflection_group("u-m2"), (4, 3, 1), 3),
    (lambda: group(TRANSVECTION, MIRROR), (2, 3, 1), 3),
    (lambda: _reflection_group("u-a2"), (3, 5, 1, 0), 5),
    (lambda: _reflection_group("u-a2"), (4, 3, 1, 1), 3),
    (lambda: _reflection_group("u-a2-m2"), (5, 7, 1, 0, 1), 4),
    # one bisector: the normals span a line, the lineality space has dimension 3
    (lambda: group(reflection(O_UA2, (0, 0, 1, 0))), (3, 5, 1, 0), 1),
]


def _old_irredundant_halfspaces(cone):
    """irredundant_halfspaces as it was before it kept an unchanged V-rep."""
    vrep = cone if cone.rays is not None else cones.extreme_rays(cone)
    rays = vrep.rays
    if not rays:
        return vrep
    gram = cone.lattice.gram
    dim = linalg.rank([list(r) for r in rays])
    keep = []
    for w in cone.halfspaces:
        f = linalg.mat_vec(gram, w)
        active = [list(r) for r in rays if linalg.dot(f, r) == 0]
        arank = linalg.rank(active) if active else 0
        if arank >= dim - 1:
            keep.append(w)
    return cones.extreme_rays(replace(cone, halfspaces=tuple(keep)))


def _random_cones(seed, count):
    """Random cones over <1> + <-1>^(n-1), oriented by e_0, some with
    redundant halfspaces and some with a lineality space."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        lat = build_lattice([[(1 if i == 0 else -1) if i == j else 0 for j in range(n)]
                             for i in range(n)])
        normals = [tuple(rng.randint(-4, 4) for _ in range(n))
                   for _ in range(rng.randint(1, 8))]
        out.append(cone_from_halfspaces(lat, [w for w in normals if any(w)],
                                        orientation=pick_cone(lat, (1,) + (0,) * (n - 1))))
    return out


def _random_gram_cones(seed, count):
    """Random cones over random nondegenerate Gram matrices, alternately
    with det < 0 and with |det| > 1, some with a lineality space."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        det = linalg.bareiss_det(gram)
        if not (det < 0 if len(out) % 2 else abs(det) > 1):
            continue
        normals = [tuple(rng.randint(-4, 4) for _ in range(n))
                   for _ in range(rng.randint(1, 8))]
        out.append(cone_from_halfspaces(build_lattice(gram), [w for w in normals if any(w)]))
    return out


def test_irredundant_halfspaces_matches_old_on_random_cones():
    dropped = 0
    zero_cone = cone_from_halfspaces(U, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    empty = cone_from_halfspaces(U_A2, [])
    assert cones.extreme_rays(zero_cone).rays == ()
    assert cones.extreme_rays(empty).rays == tuple(sorted(
        v for e in linalg.identity_matrix(4) for v in (e, linalg.vec_neg(e))))
    for cone in _random_cones(2024, 50) + _random_gram_cones(2025, 50) + [zero_cone, empty]:
        got = cones.irredundant_halfspaces(cone)
        assert got == _old_irredundant_halfspaces(cone)
        vrep = cones.extreme_rays(cone)
        assert cones.irredundant_halfspaces(vrep) == got
        dropped += len(got.halfspaces) < len(cone.halfspaces)
    assert dropped >= 10


def test_extreme_rays_returns_the_reduced_cone():
    for cone in _random_cones(2024, 50) + _random_gram_cones(2025, 50):
        got = cones.extreme_rays(cone)
        assert got == _old_irredundant_halfspaces(cone)
        assert cones.irredundant_halfspaces(got) is got


@pytest.mark.parametrize("make_group, ray, budget", DOMAINS)
def test_dirichlet_domain_runs_one_double_description(make_group, ray, budget,
                                                      monkeypatch):
    g = make_group()
    h = point_from_ray(g.orientation, ray)
    calls = []
    real = cones.double_description
    monkeypatch.setattr(cones, "double_description",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    dom = dirichlet_domain(g, h, budget)
    assert len(calls) == 1
    monkeypatch.undo()
    normals = []
    for elem, _word in elements_up_to(g, budget)[1:]:
        try:
            normals.append(dirichlet_halfspace(h, elem))
        except FixedBasepoint:
            continue
    unreduced = cone_from_halfspaces(g.lattice, normals, orientation=g.orientation,
                                     truncated_at=budget)
    assert dom == _old_irredundant_halfspaces(unreduced)


def _old_polytope_hypothesis_check(cone, orientation=None):
    """The check as it was when it always recomputed the cone's V-rep."""
    o = orientation or cone.orientation
    work = cones.extreme_rays(replace(cone, orientation=o, rays=None))
    reduced = _old_irredundant_halfspaces(work)
    tags = list(reduced.ray_tags or ())
    rays = list(reduced.rays or ())
    cusps = [list(r) for r, t in zip(rays, tags) if t == cones.TAG_ISOTROPIC]
    escapes = [list(r) for r, t in zip(rays, tags) if t == cones.TAG_OTHER]
    return {
        "side_count": len(reduced.halfspaces),
        "vertex_count": sum(1 for t in tags if t == cones.TAG_INTERIOR),
        "cusp_candidates": cusps,
        "all_positive_vertices_rational": True,
        "all_zero_norm_rays_rational": True,
        "escaping_rays": escapes,
        "is_generalized_polytope": bool(rays) and not escapes,
        "truncated_at": cone.truncated_at,
    }


@pytest.mark.parametrize("make_group, ray, budget", DOMAINS)
def test_hypothesis_check_reuses_domain_vrep(make_group, ray, budget, monkeypatch):
    g = make_group()
    dom = dirichlet_domain(g, point_from_ray(g.orientation, ray), budget)
    want = _old_polytope_hypothesis_check(dom, g.orientation)
    calls = []
    real = cones.extreme_rays
    monkeypatch.setattr(cones, "extreme_rays",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert polytope_hypothesis_check(dom, g.orientation) == want
    assert polytope_hypothesis_check(dom) == want
    assert calls == []  # the domain's own V-rep was used, no double description


def test_hypothesis_check_reduces_a_redundant_vrep():
    # (4,-3) is implied by the Pell slab; a V-rep alone does not make it a facet
    cone = cones.extreme_rays(cone_from_halfspaces(
        D12, [(1, -1), (1, 1), (4, -3)], orientation=O_D12))
    report = polytope_hypothesis_check(cone)
    assert report == _old_polytope_hypothesis_check(cone)
    assert report["side_count"] == 2


def test_hypothesis_check_retags_under_another_orientation(monkeypatch):
    dom = dirichlet_domain(PELL_GROUP, point_from_ray(O_D12, (1, 0)), 3)
    flipped = pick_cone(D12, (-1, 0))
    want = _old_polytope_hypothesis_check(dom, flipped)
    calls = []
    real = cones.extreme_rays
    monkeypatch.setattr(cones, "extreme_rays",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    report = polytope_hypothesis_check(dom, flipped)
    assert report == want
    assert report["escaping_rays"] and not report["is_generalized_polytope"]
    assert calls == []  # the same rays, tagged under the other orientation


def _old_sample_cone_points(orientation, count, seed, *, box=50):
    """sample_cone_points as it was with randint and the lattice's norm and pair."""
    rng = random.Random(seed)
    lat = orientation.lattice
    n = lat.rank
    out = []
    attempts = 0
    while len(out) < count and attempts < 10_000 * count:
        attempts += 1
        ray = tuple(rng.randint(-box, box) for _ in range(n))
        if lat.norm(ray) <= 0 or lat.pair(ray, orientation.base) <= 0:
            continue
        out.append(point_from_ray(orientation, ray))
    return out


@pytest.mark.parametrize("name", ["u-m2", "u-a2-m2"])
def test_sample_cone_points_match_randint_sampler(name, monkeypatch):
    o = _reflection_group(name).orientation
    # the width 2 box + 1 needs 7, 3, 8, 9, 16, 32, 32 and 33 bits
    boxes = (50, 3, 100, 200, 20_000, 2**30, 2**31 - 1, 2**31)
    for seed in (0, 1, 7, 123):
        for box in boxes:
            monkeypatch.setattr(groups, "SAMPLE_BOX", box)
            assert sample_cone_points(o, 25, seed) == _old_sample_cone_points(
                o, 25, seed, box=box)


def _old_sample_domain_points(cone, count, seed, *, box=50):
    """Oracle for sample_domain_points: a plain loop that weighs the cone's
    V-rep rays by randint(1, 2 box + 1) and keeps the combinations strictly
    inside the cone and in H^n."""
    rng = random.Random(seed)
    o = cone.orientation
    lat = o.lattice
    rays = cones.irredundant_halfspaces(cone).rays
    out = []
    for _ in range(10_000 * count):
        weights = [rng.randint(1, 2 * box + 1) for _ in rays]
        x = tuple(sum(w * r[j] for w, r in zip(weights, rays)) for j in range(lat.rank))
        if (lat.pair(x, o.base) > 0 and cones.ray_satisfies(cone, x, strict=True)
                and lat.norm(x) > 0):
            out.append(point_from_ray(o, x))
            if len(out) == count:
                break
    return out


def _sampled_domain(name):
    """The U+<-2> and U+A2+<-2> chambers, or the Pell slab without one wall:
    a cone with a lineality pair and no V-rep of its own."""
    if name == "pell-half":
        return cone_from_halfspaces(D12, [(1, -1)], orientation=O_D12)
    g = _reflection_group(name)
    ray = (3, 5, 1) if name == "u-m2" else (5, 7, 1, 0, 1)
    return dirichlet_domain(g, point_from_ray(g.orientation, ray), 3)


@pytest.mark.parametrize("name", ["u-m2", "u-a2-m2", "pell-half"])
def test_sample_domain_points_match_randint_oracle(name, monkeypatch):
    cone = _sampled_domain(name)
    o = cone.orientation
    lat = o.lattice
    for seed in (0, 1, 7, 123):
        for box in (50, 3, 2**31):
            monkeypatch.setattr(groups, "SAMPLE_BOX", box)
            got = groups.sample_domain_points(cone, 25, seed)
            assert got == _old_sample_domain_points(cone, 25, seed, box=box)
            for pt in got:  # strictly inside the domain, and in H^n
                assert cones.ray_satisfies(cone, pt.ray, strict=True)
                assert lat.norm(pt.ray) > 0 and lat.pair(pt.ray, o.base) > 0


def _count_draws(monkeypatch):
    """Make `_randint_chunks` hand out one value per chunk and record each,
    so the values a sampler draws are exactly the values it takes."""
    real = groups._randint_chunks
    drawn = []

    def one_value_per_chunk(rng, box):
        for chunk in real(rng, box):
            for value in chunk:
                drawn.append(value)
                yield [value]

    monkeypatch.setattr(groups, "_randint_chunks", one_value_per_chunk)
    return drawn


def test_sample_cone_points_give_up_after_10000_count_candidates(monkeypatch):
    # no ray lies strictly inside the halfspaces (0,0,1) and (0,0,-1), and the
    # box of width 1 (1 bit) holds only the zero ray
    flat = cone_from_halfspaces(U_MINUS2, [(0, 0, 1), (0, 0, -1)], orientation=O_UM2)
    assert _old_sample_domain_points(flat, 2, 5) == []
    assert _old_sample_cone_points(O_UM2, 2, 5, box=0) == []
    drawn = _count_draws(monkeypatch)
    with pytest.raises(BudgetExceeded, match="sampling failed"):
        groups.sample_domain_points(flat, 2, 5)
    # 10 000 count candidates, each weighing the plane's 4 rays (two +- pairs)
    assert len(cones.extreme_rays(flat).rays) == 4
    assert len(drawn) == 10_000 * 2 * 4
    drawn.clear()
    monkeypatch.setattr(groups, "SAMPLE_BOX", 0)
    with pytest.raises(BudgetExceeded, match="sampling failed"):
        sample_cone_points(O_UM2, 2, 5)
    assert len(drawn) == 10_000 * 2 * 3  # 10 000 count candidate rays of rank 3


def test_sample_domain_points_refuse_the_zero_cone_and_no_orientation(monkeypatch):
    zero = cone_from_halfspaces(D12, [(1, 0), (-1, 0), (0, 1), (0, -1)], orientation=O_D12)
    assert cones.extreme_rays(zero).rays == ()
    drawn = _count_draws(monkeypatch)
    with pytest.raises(BudgetExceeded, match="sampling failed"):
        groups.sample_domain_points(zero, 3, 0)
    assert drawn == []  # no ray to weigh, so nothing is drawn
    dom = dirichlet_domain(PELL_GROUP, point_from_ray(O_D12, (1, 0)), 3)
    for count in (0, -3):
        with pytest.raises(InvalidParameter, match="sample count"):
            groups.sample_domain_points(dom, count, 0)
    with pytest.raises(InvalidParameter, match="orientation"):
        groups.sample_domain_points(replace(dom, orientation=None), 5, 0)


@pytest.mark.parametrize("seed", range(11))
def test_overlap_samples_of_the_u_a2_chamber_take_few_candidates(seed, monkeypatch):
    # the tile-check job of the benchmark: a thin simplex in the box of side
    # 101, where the box sampler drew about 4000 candidates per point
    g = _reflection_group("u-a2")
    dom = dirichlet_domain(g, point_from_ray(g.orientation, (3, 5, 1, 0)), 5)
    drawn = _count_draws(monkeypatch)
    assert len(groups.sample_domain_points(dom, 5, seed)) == 5
    assert len(drawn) <= 20 * len(dom.rays)


@pytest.mark.parametrize("seed", [0, 1, 123, 823, -5, 2**70 + 3, 10**30])
def test_randint_chunks_draw_what_random_draws(seed):
    for box in (0, 3, 50, 2**31):
        chunks = groups._randint_chunks(groups.Random(seed), box)
        got = [v for _ in range(3) for v in next(chunks)]
        rng = random.Random(seed)
        assert got == [rng.randint(-box, box) for _ in got]


def test_tiling_check_refuses_to_check_nothing():
    # no samples, or no words at all, would report a pass that checked nothing
    dom = dirichlet_domain(PELL_GROUP, point_from_ray(O_D12, (1, 0)), 3)
    for count in (0, -3):
        with pytest.raises(InvalidParameter, match="sample count"):
            sample_cone_points(O_D12, count, 0)
        with pytest.raises(InvalidParameter, match="sample count"):
            tiling_check(dom, PELL_GROUP, count, 8)
    with pytest.raises(InvalidParameter, match="word budget"):
        tiling_check(dom, PELL_GROUP, 10, -1)
    assert tiling_check(dom, PELL_GROUP, 10, 0)["samples"] == 10


# -- the orbit ball: one breadth-first search over points --------------------------------

def _element_ball_points(g, ray, budget):
    """Oracle: the points g^-1 x in the order elements_up_to first reaches
    them, with each inverse formed as a matrix."""
    return list(dict.fromkeys(tuple(elem.inverse().apply(ray))
                              for elem, _ in elements_up_to(g, budget)))


def _record_row_evaluations(monkeypatch):
    """The list in which `_orbit_ball` then records, as plain tuples, the
    letter rows it evaluates: each row of `_moved_rows` is wrapped in a
    tuple type that logs every iteration over it."""
    rows = []

    class Row(tuple):
        def __iter__(self):
            rows.append(self[:])
            return tuple.__iter__(self)

    real = groups._moved_rows
    monkeypatch.setattr(groups, "_moved_rows", lambda mats: [
        [(i, Row(row)) for i, row in move] for move in real(mats)])
    return rows


def _random_orbit_cases(seed, count):
    """(group, basepoint ray) for random reflection groups on U+<-2>, U+A2
    and U+A2+<-2>; some groups get a product of two reflections as an extra
    letter, and some basepoints lie on the mirror of r1 r2 r1, so a word
    of length 3 fixes them."""
    rng = random.Random(seed)
    lattices = [O_UM2, O_UA2, O_UA2M2]
    out = []
    while len(out) < count:
        o = rng.choice(lattices)
        lat = o.lattice
        roots = enumerate_norm_vectors(lat, -2, 1)
        picked = rng.sample(roots, rng.randint(2, 4 if lat.rank < 5 else 3))
        gens = [reflection(o, r) for r in picked]
        if rng.random() < 0.4:
            gens.append(gens[0].compose(gens[1]))
        v = tuple(rng.randint(-4, 6) for _ in range(lat.rank))
        if rng.random() < 0.5:
            mirror = gens[0].apply(picked[1])  # the root of r1 r2 r1
            v = tuple(map(sub, tuple(-2 * c for c in v),
                          tuple(lat.pair(v, mirror) * c for c in mirror)))
        if not any(v) or lat.norm(v) <= 0:
            continue
        ray = linalg.primitive_vector(v)
        if lat.pair(ray, o.base) < 0:
            ray = linalg.vec_neg(ray)
        if any(tuple(gen.apply(ray)) == ray for gen in gens):
            continue  # a generator fixes it: dirichlet_domain refuses such a basepoint
        out.append((group(*gens), ray))
    return out


ORBIT_CASES = _random_orbit_cases(15, 36)


@pytest.mark.parametrize("case", range(len(ORBIT_CASES)))
def test_orbit_ball_matches_element_ball(case):
    g, ray = ORBIT_CASES[case]
    budget = 1 + case % 4
    h = point_from_ray(g.orientation, ray)
    points = _element_ball_points(g, ray, budget)
    assert _orbit_ball(g, ray, budget) == points
    assert [p.ray for p in orbit(g, h, budget)] == sorted(points)
    assert {p.ray for p in orbit(g, h, budget)} == \
        {tuple(e.apply(ray)) for e, _ in elements_up_to(g, budget)}
    normals = []
    for elem, _word in elements_up_to(g, budget)[1:]:
        try:
            normals.append(dirichlet_halfspace(h, elem))
        except FixedBasepoint:
            continue
    want = cones.irredundant_halfspaces(cone_from_halfspaces(
        g.lattice, normals, orientation=g.orientation, truncated_at=budget))
    assert dirichlet_domain(g, h, budget).halfspaces == want.halfspaces


def test_no_bisector_is_a_multiple_of_another():
    # the Dirichlet domain feeds the bisectors p - h to the double description
    # without making them primitive or deduplicating them
    for case, (g, ray) in enumerate(ORBIT_CASES):
        points = _orbit_ball(g, ray, 1 + case % 4)
        prims = {linalg.primitive_vector(tuple(map(sub, p, ray))) for p in points[1:]}
        assert len(prims) == len(points) - 1
        assert not prims & {linalg.vec_neg(v) for v in prims}


DENSE_LETTER_CASES = [  # (group, basepoint ray, depth): letters moving several rows
    (PELL_GROUP, (3, 1), 6),
    (group(TRANSVECTION, eichler_transvection(O_UM2, (0, 1, 0), (0, 0, 1))), (2, 3, 1), 3),
    (group(TRANSVECTION, MIRROR), (2, 3, 1), 4),
    (group(reflection(O_UA2M2, (1, -1, 0, 0, 0)).compose(
        reflection(O_UA2M2, (0, 0, 1, 1, 0)))), (5, 7, 1, 0, 1), 5),
]


@pytest.mark.parametrize("g, ray, depth", DENSE_LETTER_CASES)
def test_orbit_ball_matches_element_ball_with_dense_letters(g, ray, depth):
    ident = linalg.identity_matrix(len(ray))
    assert any(sum(row != e for row, e in zip(gen.matrix, ident)) >= 2
               for gen in g.generators)
    assert _orbit_ball(g, ray, depth) == _element_ball_points(g, ray, depth)


def _mat_mul_ball(g, budget):
    """Oracle: elements_up_to's (matrix, word) list with every product a
    full matrix product."""
    mats, labels, inv_idx = groups._letters(g)
    ident = linalg.identity_matrix(g.lattice.rank)
    seen = {ident}
    frontier, order = [(ident, (), None)], [(ident, ())]
    for _ in range(budget):
        nxt = []
        for mat, word, last in frontier:
            for k, letter in enumerate(mats):
                new = linalg.mat_mul(letter, mat)
                if (last is None or inv_idx[k] != last) and new not in seen:
                    seen.add(new)
                    nxt.append((new, (labels[k],) + word, k))
                    order.append((new, (labels[k],) + word))
        frontier = nxt
    return order


BALL_CASES = ([(g, 1 + case % 4) for case, (g, _) in enumerate(ORBIT_CASES)]
              + [(g, depth) for g, _, depth in DENSE_LETTER_CASES])


@pytest.mark.parametrize("g, budget", BALL_CASES)
def test_element_ball_by_moved_rows_matches_matrix_products(g, budget):
    got = [(e.matrix, w) for e, w in elements_up_to(g, budget)]
    assert got == _mat_mul_ball(g, budget)


def test_orbit_ball_evaluates_a_letter_at_its_non_identity_rows(monkeypatch):
    # the mirror of (0,0,1) negates the last coordinate (one row); the
    # mirror of (1,-1,0) swaps the first two (two rows)
    g = group(MIRROR, reflection(O_UM2, (1, -1, 0)))
    letters = groups._letters(g)
    monkeypatch.setattr(groups, "_letters", lambda _g: letters)
    rows = _record_row_evaluations(monkeypatch)
    real_dot = linalg.dot
    monkeypatch.setattr(linalg, "dot", lambda u, v: rows.append(tuple(u)) or real_dot(u, v))
    monkeypatch.setattr(linalg, "mat_vec", lambda *a: rows.append("mat_vec"))
    points = _orbit_ball(g, (2, 3, 1), 3)
    assert points == [(2, 3, 1), (2, 3, -1), (3, 2, 1), (3, 2, -1)]
    # each moved row once against the origin, for its letter's constant;
    # candidates: the mirror and the swap twice each, on x and on the point
    # the other letter reached; the swap of (2, 3, -1) finds the known
    # (3, 2, -1) and marks its swap back, so at depth 3 both letters of
    # (3, 2, -1) are known back-edges; no identity row is evaluated and no
    # matrix applied
    assert sorted(rows) == [(0, 0, -1)] * 3 + [(0, 1, 0)] * 3 + [(1, 0, 0)] * 3


def test_orbit_ball_skips_known_back_edges_on_the_benchmark_group(monkeypatch):
    # the rank-5 reflection group of the benchmark's Dirichlet jobs: with
    # only the undo of each point's first letter skipped, the search
    # evaluated 3186 letter rows; the back-edge masks leave 2205, after
    # one evaluation per moved row for the letters' constants
    g = _reflection_group("u-a2-m2")
    g.letters
    x = (5, 7, 1, 0, 1)
    want = _orbit_ball(g, x, 10, x)
    constants = sum(map(len, groups._moved_rows(g.letters[0])))
    rows = _record_row_evaluations(monkeypatch)
    assert _orbit_ball(g, x, 10, x) == want
    assert (len(want), len(rows) - constants) == (744, 2205)


def test_domain_with_lineality_pins_its_vrep():
    # U+A2 and one reflection: a single bisector, so the lineality space of the
    # domain has dimension 3 and appears as three +- pairs among the rays
    g = group(reflection(O_UA2, (0, 0, 1, 0)))
    dom = dirichlet_domain(g, point_from_ray(O_UA2, (3, 5, 1, 0)), 1)
    assert dom.halfspaces == ((0, 0, -1, 0),)
    assert dom.rays == ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, -2), (0, 0, 1, 0),
                        (0, 0, 1, 2), (0, 1, 0, 0), (1, 0, 0, 0))
    rays, lineality, zero_sets = cones.double_description(dom.halfspaces, U_A2.gram)
    assert (rays, lineality, zero_sets) == ([(0, 0, 1, 0)], [(1, 0, 0, 0), (0, 1, 0, 0),
                                                             (0, 0, 1, 2)], [0])


def _old_orbit_ball(g, ray, depth):
    """Oracle: `_orbit_ball` as it was when it searched the points w.x
    themselves, with each point's back-edge mask in the dict of seen points."""
    cap = groups.ORBIT_CAP
    mats, _labels, inv_idx = g.letters
    x = tuple(ray)
    moves = groups._moved_rows(mats)
    dot = linalg.dot
    seen = {x: 0}
    level = [x]
    for _ in range(depth):
        fresh = []
        for a in range(len(mats)):
            k = inv_idx[a]
            move = moves[k]
            bit, back = 1 << k, 1 << a
            for q in level:
                if seen[q] & bit:
                    continue
                p = list(q)
                for i, row in move:
                    p[i] = dot(row, q)
                p = tuple(p)
                mask = seen.get(p)
                if mask is not None:
                    seen[p] = mask | back
                    continue
                if len(seen) >= cap:
                    raise BudgetExceeded(f"orbit cap {cap} hit during orbit search")
                seen[p] = back
                fresh.append(p)
        level = fresh
    return list(seen)


OLD_BALL_CASES = [  # (group, basepoint ray): the three reflection groups of the
    # cones tests at their basepoints, Pell, and groups with a transvection letter
    (_reflection_group("u-m2"), (3, 5, 1)),
    (_reflection_group("u-a2"), (3, 5, 1, 0)),
    (_reflection_group("u-a2-m2"), (5, 7, 1, 0, 1)),
    (PELL_GROUP, (1, 0)),
    (PELL_GROUP, (3, 1)),
    (group(TRANSVECTION), (2, 3, 1)),
    (group(TRANSVECTION, MIRROR), (2, 3, 1)),
]


@pytest.mark.parametrize("g, ray", OLD_BALL_CASES)
def test_relative_orbit_ball_matches_the_old_point_search(g, ray, monkeypatch):
    sizes = []
    for depth in range(11):
        want = _old_orbit_ball(g, ray, depth)
        assert _orbit_ball(g, ray, depth) == want, depth
        offsets = _orbit_ball(g, ray, depth, ray)  # as `dirichlet_domain` searches
        assert offsets[0] == (0,) * len(ray)
        assert [tuple(map(add, ray, d)) for d in offsets] == want, depth
        sizes.append(len(want))
    # a cap inside each level that adds at least two points trips in its middle
    tripped = 0
    for depth in range(1, 11):
        if sizes[depth] - sizes[depth - 1] < 2:
            continue
        cap = (sizes[depth - 1] + sizes[depth]) // 2
        assert sizes[depth - 1] < cap < sizes[depth]
        monkeypatch.setattr(groups, "ORBIT_CAP", cap)
        with pytest.raises(BudgetExceeded) as old:
            _old_orbit_ball(g, ray, depth)
        for origin in (None, ray):
            with pytest.raises(BudgetExceeded) as new:
                _orbit_ball(g, ray, depth, origin)
            assert str(new.value) == str(old.value) == f"orbit cap {cap} hit during orbit search"
        assert len(_orbit_ball(g, ray, depth - 1)) == sizes[depth - 1]
        monkeypatch.undo()
        tripped += 1
    assert tripped >= 1


def test_orbit_cases_cover_stabilisers_and_extra_letters():
    stabilised = extra = 0
    for case, (g, ray) in enumerate(ORBIT_CASES):
        budget = 1 + case % 4
        stabilised += len(_orbit_ball(g, ray, budget)) < len(elements_up_to(g, budget))
        extra += any(gen.inverse() != gen for gen in g.generators)
    assert stabilised >= 5 and extra >= 5


def test_orbit_cap_counts_points(monkeypatch):
    # two elements of length <= 2 carry (1, 3, 1) to one point, so its ball
    # of depth 2 has 11 points while the word ball has 12 elements
    g = _reflection_group("u-m2")
    ray = (1, 3, 1)
    points = _orbit_ball(g, ray, 2)
    assert (len(points), len(elements_up_to(g, 2))) == (11, 12)
    h = point_from_ray(g.orientation, ray)
    unpatched = dirichlet_domain(g, h, 2)
    monkeypatch.setattr(groups, "ORBIT_CAP", 11)
    with pytest.raises(BudgetExceeded, match="element cap 11 "):
        elements_up_to(g, 2)
    assert len(orbit(g, h, 2)) == 11
    assert dirichlet_domain(g, h, 2) == unpatched
    monkeypatch.setattr(groups, "ORBIT_CAP", 10)
    for run in (lambda: _orbit_ball(g, ray, 2),
                lambda: orbit(g, h, 2),
                lambda: dirichlet_domain(g, h, 2),
                lambda: limit_points_sample(g, h, 2)):
        with pytest.raises(BudgetExceeded, match="orbit cap 10 "):
            run()


@pytest.mark.parametrize("make_group, ray, budget", DOMAINS)
def test_orbit_and_domain_multiply_no_matrices(make_group, ray, budget, monkeypatch):
    g = make_group()
    h = point_from_ray(g.orientation, ray)
    want = dirichlet_domain(g, h, budget), orbit(g, h, budget)
    # the letters' inverses (two products per generator, whatever the budget)
    # are made once, before the search; the search itself multiplies no matrices
    letters = groups._letters(g)
    monkeypatch.setattr(groups, "_letters", lambda _g: letters)
    calls = []
    real_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda *a: calls.append("mat_mul") or real_mul(*a))
    monkeypatch.setattr(groups, "elements_up_to",
                        lambda *a, **k: calls.append("elements_up_to"))
    assert (dirichlet_domain(g, h, budget), orbit(g, h, budget)) == want
    limit_points_sample(g, h, budget)
    assert calls == []


def test_ray_satisfies_matches_the_pairing_definition():
    rng = random.Random(7)
    outcomes = set()
    for cone in _random_cones(2024, 50):
        lat = cone.lattice
        rays = [tuple(rng.randint(-5, 5) for _ in range(lat.rank)) for _ in range(20)]
        rays += list(cones.extreme_rays(cone).rays)  # on the boundary
        for ray in rays:
            for strict in (False, True):
                want = all((lat.pair(w, ray) > 0) if strict else (lat.pair(w, ray) >= 0)
                           for w in cone.halfspaces)
                assert cones.ray_satisfies(cone, ray, strict=strict) == want
                outcomes.add((strict, want))
    assert len(outcomes) == 4


# -- limit sampling and chamber walks by one integer pairing per candidate -------------

def _old_limit_points_sample(g, x, depth):
    """Oracle: the sampler that mapped every orbit point to the ball model."""
    o = g.orientation
    far = []
    for pt in orbit(g, x, depth):
        b = to_ball(o, pt)
        r = sum(v * v for v in b) ** 0.5
        if r > 1.0 - groups.LIMIT_RADIUS_TOL:
            far.append((tuple(v / r for v in b), 2.0 * (2.0 * max(0.0, 1.0 - r)) ** 0.5))
    parent = list(range(len(far)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(far)):
        for j in range(i + 1, len(far)):
            gap = sum((a - b) ** 2 for a, b in zip(far[i][0], far[j][0])) ** 0.5
            if gap < groups.LIMIT_ANGLE_TOL + far[i][1] + far[j][1]:
                parent[find(i)] = find(j)
    clusters = {}
    for i, (direction, _) in enumerate(far):
        clusters.setdefault(find(i), []).append(direction)
    out = []
    for members in clusters.values():
        mean = tuple(sum(v[i] for v in members) / len(members)
                     for i in range(len(members[0])))
        norm = sum(v * v for v in mean) ** 0.5
        out.append(tuple(v / norm for v in mean))
    return sorted(out)


def _far_ratio(o, ray, p):
    """c / C: c = (p, b) / sqrt(N (b, b)), whose ball radius is above
    1 - LIMIT_RADIUS_TOL exactly when c exceeds C."""
    s = (1.0 - groups.LIMIT_RADIUS_TOL) ** 2
    lat = o.lattice
    c = lat.pair(p, o.base) / (lat.norm(ray) * lat.norm(o.base)) ** 0.5
    return c / ((1.0 + s) / (1.0 - s))


# Pell basepoints with an orbit point of c within 10% of the far threshold C:
# at 1.0001 C, 0.9901 C and 0.9502 C (mapped to the ball and tested in floats)
# and at 0.9481 C and 0.9001 C (left out by the pairing)
PELL_NEAR_FAR = [((11, 3), 8), ((15, 4), 8), ((29, 7), 8), ((25, 6), 8), ((29, 6), 8),
                 ((16, 11), 7), ((4, 1), 8)]
BENCH_LIMIT_CASES = [  # the groups, basepoints and depths of the benchmark's limits jobs
    (PELL_GROUP, (1, 0), 12),
    (_reflection_group("u-m2"), (3, 5, 1), 9),
    (_reflection_group("u-a2"), (3, 5, 1, 0), 6),
    (_reflection_group("u-a2-m2"), (5, 7, 1, 0, 1), 6),
]
LIMIT_CASES = (BENCH_LIMIT_CASES
               + [(PELL_GROUP, ray, depth) for ray, depth in PELL_NEAR_FAR]
               + [(PELL_GROUP, (3, 1), 10), (group(TRANSVECTION), (1, 1, 0), 1500),
                  (group(MIRROR), (2, 3, 1), 6), (group(TRANSVECTION, MIRROR), (2, 3, 1), 30)]
               + [(g, ray, 1 + case % 5) for case, (g, ray) in enumerate(ORBIT_CASES)])


@pytest.mark.parametrize("g, ray, depth", LIMIT_CASES)
def test_limit_sampling_matches_mapping_every_orbit_point(g, ray, depth):
    x = point_from_ray(g.orientation, ray)
    assert limit_points_sample(g, x, depth) == _old_limit_points_sample(g, x, depth)


def test_near_far_pell_cases_straddle_the_threshold():
    ratios = [max(_far_ratio(O_D12, ray, p) for p in _orbit_ball(PELL_GROUP, ray, depth))
              for ray, depth in PELL_NEAR_FAR]
    assert all(0.9 <= r <= 1.1 for r in ratios)
    assert any(r < 0.948 for r in ratios)  # left out by the pairing
    assert any(0.95 < r < 1 for r in ratios)  # mapped to the ball, not far
    assert any(r > 1 for r in ratios)  # far


@pytest.mark.parametrize("g, ray, depth", BENCH_LIMIT_CASES + [(PELL_GROUP, (11, 3), 8)])
def test_limit_sampling_maps_only_the_points_that_pass_the_pairing(g, ray, depth,
                                                                   monkeypatch):
    mapped = []
    monkeypatch.setattr(groups, "to_ball",
                        lambda o, pt: mapped.append(pt.ray) or to_ball(o, pt))
    o = g.orientation
    limit_points_sample(g, point_from_ray(o, ray), depth)
    s = (1.0 - groups.LIMIT_RADIUS_TOL) ** 2
    bound = int(0.9 * ((1.0 + s) / (1.0 - s)) ** 2) * o.lattice.norm(ray) \
        * o.lattice.norm(o.base)
    passing = sorted(p for p in _orbit_ball(g, ray, depth)
                     if o.lattice.pair(p, o.base) ** 2 >= bound)
    assert mapped == passing
    assert all(_far_ratio(o, ray, p) > 0.948 for p in mapped)
    if g is not PELL_GROUP:
        assert mapped == []  # no reflection-group point of the benchmark is far


def _old_chamber_walk(orientation, ray, height, step_budget, require_off_wall):
    """Oracle: the walk that paired the point with each root by `lat.pair`."""
    lat = orientation.lattice
    roots = enumerate_norm_vectors(lat, -2, height)
    roots.sort(key=lambda r: (max(abs(c) for c in r), r))
    if require_off_wall and any(lat.pair(ray, r) == 0 for r in roots):
        raise OnWall("start point lies on a reflection wall")
    word = []
    while True:
        pick = next((r for r in roots if lat.pair(ray, r) < 0), None)
        if pick is None or len(word) == step_budget:
            return ray, tuple(word), pick is None
        ray = tuple(reflection(orientation, pick).apply(ray))
        word.append(pick)


def _walk_tuple(result):
    return result.point, result.word, result.completed


def _walk_outcome(walk):
    try:
        return walk()
    except OnWall:
        return "on wall"


def test_chamber_walk_matches_pairing_each_root_on_random_starts():
    rng = random.Random(31)
    seen = set()
    for _ in range(120):
        o = rng.choice([O_UM2, O_UA2, O_UA2M2])
        lat = o.lattice
        ray = tuple(rng.randint(-9, 30) for _ in range(lat.rank))
        if lat.norm(ray) <= 0 or lat.pair(ray, o.base) <= 0:
            continue
        height = rng.randint(1, 3 if lat.rank == 5 else 5)
        steps = rng.choice([0, 1, 3, 100])
        for strict in (False, True):
            got = _walk_outcome(lambda: _walk_tuple(chamber_walk(
                o, ray, height=height, step_budget=steps, require_off_wall=strict)))
            want = _walk_outcome(lambda: _old_chamber_walk(o, ray, height, steps, strict))
            assert got == want
            seen.add("on wall" if got == "on wall" else (len(got[1]) > 1, got[2]))
    assert seen == {"on wall", (False, True), (True, True), (True, False), (False, False)}


@pytest.mark.parametrize("norm", [0, 2, -1, -4])
def test_chamber_walk_refuses_norms_it_cannot_reflect_in(norm, monkeypatch):
    def no_search(*_args):
        raise AssertionError("searched for roots")
    monkeypatch.setattr(groups, "enumerate_norm_vectors", no_search)
    with pytest.raises(InvalidParameter, match=f"norm -2, not {norm}$"):
        chamber_walk(O_UM2, (37, 13, 5), root_norm=norm, height=6)
