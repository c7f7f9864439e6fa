"""Fraction-free elimination, Gauss-Jordan and primitive vectors against sympy.

`rank`, `row_echelon` and `kernel_basis` reduce through the integer
`row_basis`; each is compared with the sympy routine on random matrices:
square, wide and tall (500 x 6), rank-deficient, with zero rows, and with
`Fraction` entries.  `gauss_jordan` and `rref_kernel` are also run on
`Fraction` rows directly and over a real quadratic field.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from hyperlat.linalg import (gauss_jordan, kernel_basis, mat_vec, primitive_vector,
                             rank, row_basis, row_echelon, rref_kernel)
from hyperlat.polynomials import RealAlgebraicField


def _low_rank(rng, nrows, ncols, r, spread=5):
    """Integer rows spanned by r random rows, with some zero rows."""
    base = [[rng.randint(-spread, spread) for _ in range(ncols)] for _ in range(r)]
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.1:
            rows.append([0] * ncols)
            continue
        coefs = [rng.randint(-3, 3) for _ in range(r)]
        rows.append([sum(c * b[j] for c, b in zip(coefs, base)) for j in range(ncols)])
    return rows


def _as_fractions(rng, rows, rational):
    """Fraction entries: integer-valued, or each row divided by a random integer."""
    if not rational:
        return [tuple(Fraction(x) for x in row) for row in rows]
    return [tuple(Fraction(x, rng.randint(1, 9)) for x in row) for row in rows]


def _cases(seed):
    """(name, rows) over the shapes the double description and the group layer use."""
    rng = random.Random(seed)
    out = []
    for k in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        rows = _low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        if k % 4 == 1:
            rows = _as_fractions(rng, rows, rational=False)
        elif k % 4 == 2:
            rows = _as_fractions(rng, rows, rational=True)
        out.append((f"small-{k}", rows))
    for k in range(3):
        out.append((f"tall-full-{k}", [[rng.randint(-20, 20) for _ in range(6)]
                                       for _ in range(500)]))
        out.append((f"tall-deficient-{k}", _low_rank(rng, 500, 6, 3 + k)))
    out.append(("zero-rows", [[0] * 5 for _ in range(4)]))
    out.append(("tall-rational", _as_fractions(rng, _low_rank(rng, 500, 6, 4), rational=True)))
    return out


CASES = _cases(20261)


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("name,rows", CASES, ids=[c[0] for c in CASES])
def test_rank_and_row_basis_match_sympy(name, rows):
    m = sympy.Matrix(rows)
    expected = m.rank()
    assert rank(rows) == expected
    basis = row_basis(rows)
    assert len(basis) == expected
    for row in basis:
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
    # the basis spans the row space of the input
    if basis:
        assert sympy.Matrix(list(rows) + basis).rank() == expected


@pytest.mark.parametrize("name,rows", CASES, ids=[c[0] for c in CASES])
def test_row_echelon_matches_sympy_rref(name, rows):
    rref, pivots = sympy.Matrix(rows).rref()
    ours, our_pivots = row_echelon(rows)
    assert tuple(our_pivots) == tuple(pivots)
    assert [list(r) for r in ours] == [[_frac(x) for x in rref.row(i)]
                                       for i in range(len(pivots))]


@pytest.mark.parametrize("name,rows", CASES, ids=[c[0] for c in CASES])
def test_kernel_basis_matches_sympy_nullspace(name, rows):
    expected = [primitive_vector([_frac(x) for x in v]) for v in sympy.Matrix(rows).nullspace()]
    assert kernel_basis(rows) == expected


@pytest.mark.parametrize("name,rows", CASES, ids=[c[0] for c in CASES])
def test_gauss_jordan_on_raw_rows_matches_sympy(name, rows):
    """Without the integer row basis first: same RREF, and its kernel is one."""
    ncols = len(rows[0])
    rref, pivots = sympy.Matrix(rows).rref()
    ours, our_pivots = gauss_jordan([[Fraction(x) for x in row] for row in rows])
    assert tuple(our_pivots) == tuple(pivots)
    assert ours == [[_frac(x) for x in rref.row(i)] for i in range(len(pivots))]
    kernel = rref_kernel(ours, our_pivots, ncols)
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        assert not any(mat_vec(rows, v))


def _old_field_kernel(rows, fld):
    """The Gauss elimination over Q(lambda) that `isometry` used to carry."""
    m = [row[:] for row in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [fld.rational(0)] * ncols
        vec[fc] = fld.rational(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def test_gauss_jordan_over_a_quadratic_field_matches_old_kernel():
    fld = RealAlgebraicField([-2, 0, 1], Fraction(1), Fraction(2))  # Q(sqrt 2)
    rng = random.Random(5)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(nrows, ncols))
        base = [[fld.element([rng.randint(-3, 3), rng.randint(-3, 3)])
                 for _ in range(ncols)] for _ in range(r)]
        rows = []
        for _ in range(nrows):
            coefs = [fld.element([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(r)]
            row = [fld.rational(0)] * ncols
            for c, b in zip(coefs, base):
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(row)
        kernel = rref_kernel(*gauss_jordan(rows), ncols, fld.rational(0), fld.rational(1))
        assert kernel == _old_field_kernel(rows, fld)
        for v in kernel:
            assert not any(sum((a * x for a, x in zip(row, v)), fld.rational(0))
                           for row in rows)


def _primitive_by_fractions(v):
    """The Fraction path: clear denominators through Fraction, divide the gcd."""
    fracs = [Fraction(x) for x in v]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in ints)


def test_primitive_vector_int_path_matches_fraction_path():
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(1, 8)
        scale = rng.choice((1, 2, 6, -3, 10**12))
        v = [scale * rng.randint(-30, 30) for _ in range(n)]
        if not any(v):
            continue
        ints = primitive_vector(v)
        assert all(type(x) is int for x in ints)
        assert ints == _primitive_by_fractions(v)
        assert ints == primitive_vector([Fraction(x) for x in v])
        # the sign is kept: a negative multiple gives the negated vector
        assert primitive_vector([-x for x in v]) == tuple(-x for x in ints)
        rational = [Fraction(x, rng.randint(1, 12)) for x in v]
        assert primitive_vector(rational) == _primitive_by_fractions(rational)


@pytest.mark.parametrize("zero", [(0, 0, 0), [0], (Fraction(0), Fraction(0, 5))])
def test_primitive_vector_refuses_the_zero_vector(zero):
    with pytest.raises(ValueError, match="zero vector"):
        primitive_vector(zero)
