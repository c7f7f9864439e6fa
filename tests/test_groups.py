"""Orbits, limit sampling, elementary types, Dirichlet domains, tiling,
chamber walks."""

import random

import pytest

from hyperlat import (build_lattice, chamber_walk, cones, dirichlet_domain,
                      dirichlet_halfspace, direct_sum, eichler_transvection,
                      elementary_type, group,
                      limit_points_sample, linalg, make_isometry, orbit, pick_cone,
                      point_from_ray, polytope_hypothesis_check, rank1,
                      reflection, standard_lattice, tiling_check)
from hyperlat.cones import cone_from_halfspaces
from hyperlat.errors import FixedBasepoint, OnWall
from hyperlat.groups import elements_up_to, sample_cone_points
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


def test_elementary_types():
    assert elementary_type(group(TRANSVECTION)) == "ParabolicType"
    assert elementary_type(PELL_GROUP) == "LoxodromicType"
    assert elementary_type(group(MIRROR)) == "EllipticType"
    # two transvections along the same axis: still parabolic type
    t2 = eichler_transvection(O_UM2, (1, 0, 0), (2, 0, 1))
    assert elementary_type(group(TRANSVECTION, t2)) == "ParabolicType"
    # a reflection whose mirror passes through the cusp still fixes it
    s_fixing = reflection(O_UM2, (1, 0, 1))
    assert U_MINUS2.pair((1, 0, 0), (1, 0, 1)) == 0
    assert elementary_type(group(TRANSVECTION, s_fixing)) == "ParabolicType"
    # a reflection moving the cusp: nothing detected
    s_moving = reflection(O_UM2, (0, 1, 1))
    assert elementary_type(group(TRANSVECTION, s_moving)) == "NotDetectedElementary"


def test_dirichlet_halfspace_pell():
    h = point_from_ray(O_D12, (1, 0))
    # oracle: g^-1 = [[3,-4],[-2,3]], so g^-1 h - h = (2,-2) ~ (1,-1)
    assert dirichlet_halfspace(h, PELL).normal == (1, -1)
    assert dirichlet_halfspace(h, PELL.inverse()).normal == (1, 1)


def test_dirichlet_halfspace_fixed_basepoint():
    h = point_from_ray(O_D12, (1, 0))
    with pytest.raises(FixedBasepoint):
        dirichlet_halfspace(h, make_isometry(O_D12, [[1, 0], [0, 1]]))


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


def test_chamber_walk_already_inside():
    result = chamber_walk(O_UM2, (3, 4, -1), height=1)
    assert result.completed and result.word == () and result.point == (3, 4, -1)


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
    roots = [v.coords for v in
             __import__("hyperlat").enumerate_norm_vectors(lat, -2, 1)]
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


def test_irredundant_halfspaces_matches_old_on_random_cones():
    dropped = 0
    for cone in _random_cones(2024, 50):
        if not cone.halfspaces:
            continue
        got = cones.irredundant_halfspaces(cone)
        assert got == _old_irredundant_halfspaces(cone)
        vrep = cones.extreme_rays(cone)
        assert cones.irredundant_halfspaces(vrep) == got
        dropped += len(got.halfspaces) < len(cone.halfspaces)
    assert dropped >= 10


@pytest.mark.parametrize("make_group, ray, budget", DOMAINS)
def test_dirichlet_domain_runs_one_double_description(make_group, ray, budget,
                                                      monkeypatch):
    g = make_group()
    h = point_from_ray(g.orientation, ray)
    calls = []
    real = cones.extreme_rays
    monkeypatch.setattr(cones, "extreme_rays",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    dom = dirichlet_domain(g, h, budget)
    assert len(calls) == 1
    monkeypatch.undo()
    normals = []
    for elem, _word in elements_up_to(g, budget, include_identity=False):
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
    work = cones.extreme_rays(replace(cone, orientation=o, rays=None, ray_tags=None))
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
    cone = cones.extreme_rays(cones.cone_from_halfspaces(
        D12, [(1, -1), (1, 1), (4, -3)], orientation=O_D12))
    report = polytope_hypothesis_check(cone)
    assert report == _old_polytope_hypothesis_check(cone)
    assert report["side_count"] == 2


def test_hypothesis_check_retags_under_another_orientation():
    dom = dirichlet_domain(PELL_GROUP, point_from_ray(O_D12, (1, 0)), 3)
    flipped = pick_cone(D12, (-1, 0))
    report = polytope_hypothesis_check(dom, flipped)
    assert report == _old_polytope_hypothesis_check(dom, flipped)
    assert report["escaping_rays"] and not report["is_generalized_polytope"]


def _old_sample_cone_points(orientation, count, seed, *, box=50, predicate=None):
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
        pt = point_from_ray(orientation, ray)
        if predicate is not None and not predicate(pt):
            continue
        out.append(pt)
    return out


@pytest.mark.parametrize("name", ["u-m2", "u-a2-m2"])
def test_sample_cone_points_match_randint_sampler(name):
    g = _reflection_group(name)
    o = g.orientation
    dom = dirichlet_domain(g, point_from_ray(o, (3, 5, 1) if name == "u-m2"
                                             else (5, 7, 1, 0, 1)), 3)
    inside = lambda p: cones.ray_satisfies(dom, p.ray, strict=True)  # noqa: E731
    for seed in (0, 1, 7, 123):
        for box, predicate in ((50, None), (50, inside), (3, None)):
            got = sample_cone_points(o, 25, seed, box=box, predicate=predicate)
            assert got == _old_sample_cone_points(o, 25, seed, box=box,
                                                  predicate=predicate)
