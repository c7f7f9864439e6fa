"""Double description against brute force; facet reduction; hypothesis check."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperlat import build_lattice, cone_from_halfspaces, extreme_rays, \
    pick_cone, polytope_hypothesis_check
from hyperlat.cones import (TAG_INTERIOR, TAG_ISOTROPIC, double_description,
                            irredundant_halfspaces)
from hyperlat.errors import DimensionBudgetExceeded
from hyperlat.linalg import dot, kernel_basis, primitive_vector, rank, row_echelon

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])


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
        got_rays, lineality = double_description(fns, n)
        assert lineality == []
        expected = brute_extreme_rays(fns, n)
        assert sorted(got_rays) == expected, (fns, got_rays, expected)
        done += 1


def _old_solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    rref, pivots = row_echelon(aug)
    for row in rref:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rref[i][-1]
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
        got = double_description(fns, n)
        assert got == _old_double_description(fns, n), fns
        seen_lineality += bool(got[1])
    assert double_description([], 3) == _old_double_description([], 3)
    assert seen_lineality >= 50


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
