"""Isometry inverses from the form: the adjugate, g.g^-1 = I on random
words, and the closure of the word ball under inversion."""

import random

import pytest
import sympy

from hyperlat import (direct_sum, group, make_isometry, pick_cone, rank1,
                      reflection, standard_lattice)
from hyperlat.groups import elements_up_to
from hyperlat.isometry import Isometry
from hyperlat.linalg import adjugate, bareiss_det, identity_matrix, mat_mul, mat_vec

U = standard_lattice("U")
D12 = direct_sum(rank1(1), rank1(-2))
O_D12 = pick_cone(D12, (1, 0))
PELL = make_isometry(O_D12, [[3, 4], [2, 3]])


def _random_symmetric(rng, n):
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        mat = tuple(tuple(r) for r in rows)
        if bareiss_det(mat) != 0:
            return mat


@pytest.mark.parametrize("n", range(1, 11))
def test_adjugate_against_sympy(n):
    rng = random.Random(1000 + n)
    for _ in range(3):
        gram = _random_symmetric(rng, n)
        adj = adjugate(gram)
        det = bareiss_det(gram)
        assert mat_mul(adj, gram) == tuple(tuple(det * x for x in row)
                                           for row in identity_matrix(n))
        assert [list(row) for row in adj] == sympy.Matrix(gram).adjugate().tolist()


def _cofactor_adjugate(mat):
    """Oracle: adj(M)[i][j] = (-1)^(i+j) times the Bareiss determinant of
    M without row j and column i."""
    n = len(mat)
    if n == 1:
        return ((1,),)
    return tuple(tuple((-1) ** (i + j) * bareiss_det(
        [r[:i] + r[i + 1:] for r in mat[:j] + mat[j + 1:]]) for j in range(n))
        for i in range(n))


def _random_nonsingular(rng, n):
    while True:
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if bareiss_det(mat) != 0:
            return mat


@pytest.mark.parametrize("n", range(1, 21))
def test_adjugate_by_elimination_matches_the_cofactors(n):
    # general and symmetric matrices, and a weighted reversal, whose
    # elimination swaps rows at every step but the middle one
    rng = random.Random(2000 + n)
    reversal = tuple(tuple(i + 1 if i + j == n - 1 else 0 for j in range(n))
                     for i in range(n))
    mats = [_random_nonsingular(rng, n), _random_symmetric(rng, n), reversal]
    for mat in mats:
        adj = adjugate(mat)
        assert adj == _cofactor_adjugate(mat)
        det = bareiss_det(mat)
        scalar = tuple(tuple(det * x for x in row) for row in identity_matrix(n))
        assert mat_mul(adj, mat) == scalar == mat_mul(mat, adj)


@pytest.mark.parametrize("mat", [((0,),), ((1, 2), (2, 4)), ((0, 0), (0, 0)),
                                 ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
                                 ((0, 1, 0), (0, 0, 1), (0, 0, 0))])
def test_adjugate_refuses_a_singular_matrix(mat):
    with pytest.raises(ArithmeticError, match="singular"):
        adjugate(mat)


def _root_reflections(lat):
    """Reflections in the roots (1,-1,0..), (0,0,e_i), (1,0,e_1), (0,1,e_k)."""
    n = lat.rank
    orientation = pick_cone(lat, (1, 1) + (0,) * (n - 2))
    roots = [(1, -1) + (0,) * (n - 2)]
    for i in range(2, n):
        roots.append(tuple(1 if j == i else 0 for j in range(n)))
    roots.append((1, 0, 1) + (0,) * (n - 3))
    roots.append((0, 1) + (0,) * (n - 3) + (1,))
    return [reflection(orientation, r) for r in roots]


WORD_LETTERS = {
    "<1>+<-2>": [PELL, reflection(O_D12, (0, 1)), reflection(O_D12, (4, 3))],
    "U+<-2>": _root_reflections(direct_sum(U, rank1(-2))),
    "U+A2+<-2>": _root_reflections(
        direct_sum(direct_sum(U, standard_lattice("A2")), rank1(-2))),
    "U+E8": _root_reflections(direct_sum(U, standard_lattice("E8"))),
}


@pytest.mark.parametrize("name", sorted(WORD_LETTERS))
def test_inverse_of_random_words(name):
    letters = WORD_LETTERS[name]
    rng = random.Random(31)
    ident = identity_matrix(letters[0].lattice.rank)
    for _ in range(40):
        g = letters[rng.randrange(len(letters))]
        for _ in range(rng.randint(0, 9)):
            g = g.compose(letters[rng.randrange(len(letters))])
        inv = g.inverse()
        assert mat_mul(g.matrix, inv.matrix) == ident
        assert mat_mul(inv.matrix, g.matrix) == ident


def test_inverse_refuses_a_matrix_that_breaks_the_form():
    with pytest.raises(ArithmeticError):
        Isometry(O_D12, ((1, 1), (0, 1))).inverse()


def _pull_back(g, gram_h):
    """Oracle: g^-1 h = adj(G) g^t (G h) / det G from gram_h = G h, by two
    matrix-vector products and an exact division."""
    lat = g.lattice
    w = mat_vec(adjugate(lat.gram), mat_vec(tuple(zip(*g.matrix)), gram_h))
    det = bareiss_det(lat.gram)
    assert all(x % det == 0 for x in w)
    return tuple(x // det for x in w)


@pytest.mark.parametrize("name", sorted(WORD_LETTERS))
def test_pull_back_matches_the_inverse(name):
    # g^-1 moves h as the form's adjugate formula does, without a matrix inverse
    letters = WORD_LETTERS[name]
    lat = letters[0].lattice
    h = letters[0].orientation.base
    rng = random.Random(37)
    for _ in range(40):
        g = letters[rng.randrange(len(letters))]
        for _ in range(rng.randint(0, 9)):
            g = g.compose(letters[rng.randrange(len(letters))])
        assert _pull_back(g, mat_vec(lat.gram, h)) == g.inverse().apply(h)


BALL_GROUPS = {
    "pell": group(PELL),
    "U+<-2> reflections": group(*_root_reflections(direct_sum(U, rank1(-2)))),
}


@pytest.mark.parametrize("name", sorted(BALL_GROUPS))
def test_word_ball_closed_under_inversion(name):
    # the premise that lets tiling_check apply g where it used to apply g^-1
    for budget in range(5):
        mats = {e.matrix for e, _ in elements_up_to(BALL_GROUPS[name], budget)}
        inverses = {tuple(tuple(int(x) for x in row)
                          for row in sympy.Matrix(m).inv().tolist()) for m in mats}
        assert inverses == mats

