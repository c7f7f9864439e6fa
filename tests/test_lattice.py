"""Lattice construction, signatures, direct sums, standard blocks."""

import random

import pytest

from hyperlat import build_lattice, direct_sum, rank1, standard_lattice
from hyperlat.errors import Degenerate, InvalidParameter, NotSymmetric
from hyperlat.linalg import mat_mul, transpose


def cofactor_det(m):
    """Independent determinant oracle: cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


U = build_lattice([[0, 1], [1, 0]])


def test_build_u():
    assert U.rank == 2
    assert U.gram == ((0, 1), (1, 0))


def test_build_transcendental_matrix():
    t = build_lattice([[2, 1], [1, 2]])
    assert t.determinant == 3
    assert cofactor_det([[2, 1], [1, 2]]) == 3


def test_build_degenerate():
    with pytest.raises(Degenerate):
        build_lattice([[1, 2], [2, 4]])


def test_build_not_symmetric():
    with pytest.raises(NotSymmetric):
        build_lattice([[0, 1], [2, 0]])


def test_build_rejects_non_integers():
    for gram in ([[1.0, 0], [0, 1]], 5, [1, 2], [["x", 0], [0, 1]], [[[1]]]):
        with pytest.raises(InvalidParameter):
            build_lattice(gram)


def test_signature_examples():
    assert U.signature == (1, 1)
    assert build_lattice([[2, 1], [1, 2]]).signature == (2, 0)
    assert build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12]]).signature == (1, 2)


def test_direct_sum_u_minus2():
    s = direct_sum(U, rank1(-2))
    assert s.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -2))


def test_direct_sum_family_signatures():
    d4 = standard_lattice("D4")
    s = direct_sum(rank1(32), d4)
    assert s.rank == 5 and s.signature == (1, 4)
    a2 = standard_lattice("A2")
    s2 = direct_sum(direct_sum(rank1(54), a2), a2)
    assert s2.rank == 5 and s2.signature == (1, 4)


def test_standard_rank1():
    assert rank1(4).gram == ((4,),)
    with pytest.raises(InvalidParameter):
        rank1(0)


def test_standard_a2_is_negated_cartan():
    # oracle: the A2 Cartan matrix is [[2,-1],[-1,2]]
    a2 = standard_lattice("A2")
    assert a2.gram == ((-2, 1), (1, -2))
    assert a2.signature == (0, 2)


def test_standard_d4():
    d4 = standard_lattice("D4")
    assert all(d4.gram[i][i] == -2 for i in range(4))
    # oracle: det(-C) = det(C) in even rank; det of the D4 Cartan matrix is 4
    assert cofactor_det([list(r) for r in d4.gram]) == 4
    assert d4.determinant == 4
    assert d4.signature == (0, 4)


def test_standard_e8():
    e8 = standard_lattice("E8")
    assert e8.rank == 8
    assert e8.determinant == 1
    assert e8.signature == (0, 8)


def test_inner_product_examples():
    assert U.pair((1, 0), (0, 1)) == 1
    d = build_lattice([[1, 0], [0, -2]])
    # direct expansion: 1*1*3 + (-2)*0*2 = 3
    assert d.pair((1, 0), (3, 2)) == 3
    s = direct_sum(U, rank1(-2))
    assert s.pair((0, 0, 1), (0, 0, 1)) == -2


def test_signature_additive_under_direct_sum():
    lats = [U, rank1(4), standard_lattice("A2"), standard_lattice("D4"),
            build_lattice([[1, 0], [0, -2]])]
    for l1 in lats:
        for l2 in lats:
            p1, q1 = l1.signature
            p2, q2 = l2.signature
            assert direct_sum(l1, l2).signature == (p1 + p2, q1 + q2)


def random_unimodular(n, rng, steps=6):
    """Product of elementary integer row operations: determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-5, 5)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def test_signature_invariant_under_unimodular_change_of_basis():
    rng = random.Random(7)
    lats = [U, direct_sum(U, rank1(-2)),
            build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12]]),
            direct_sum(rank1(32), standard_lattice("D4"))]
    for lat in lats:
        for _ in range(10):
            t = random_unimodular(lat.rank, rng)
            changed = mat_mul(transpose(t), mat_mul(lat.gram, t))
            assert build_lattice([list(r) for r in changed]).signature == lat.signature


def test_inner_product_symmetric_bilinear():
    rng = random.Random(11)
    lat = direct_sum(U, rank1(-2))
    for _ in range(50):
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        w = tuple(rng.randint(-9, 9) for _ in range(3))
        a = rng.randint(-4, 4)
        assert lat.pair(u, v) == lat.pair(v, u)
        av_plus_w = tuple(a * x + y for x, y in zip(v, w))
        assert lat.pair(u, av_plus_w) == a * lat.pair(u, v) + lat.pair(u, w)
