"""Fraction-free elimination, Gauss-Jordan and primitive vectors against sympy.

`rank`, `row_echelon` and `kernel_basis` reduce through the integer
`row_basis`; each is compared with the sympy routine on random matrices:
square, wide and tall (500 x 6), rank-deficient, with zero rows, and with
`Fraction` entries.  `gauss_jordan` and `rref_kernel` are also run on
`Fraction` rows directly.  The integer `factorize` and everything derived
from it are compared with the trial-division loops they replaced.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy

from hyperlat.forms import _square_divisors, squarefree_int
from hyperlat.linalg import (divisors, factorize, gauss_jordan, kernel_basis, mat_vec,
                             primitive_vector, rank, row_basis, row_echelon, rref_kernel)
from hyperlat.polynomials import euler_phi


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


# -- one integer factorization against the loops it replaced ---------------------------

def _old_prime_factors(n):
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _old_squarefree(n):
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1 if p == 2 else 2
    return sign * out * n


def _old_euler_phi(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def test_factorization_and_what_derives_from_it_match_the_old_loops():
    rng = random.Random(97)
    values = list(range(-400, 401)) + [rng.randint(-10**7, 10**7) for _ in range(200)]
    values += [2**20, 3**7 * 5**4, 2 * 999983**2, -(7**5) * 11]
    for n in values:
        pairs = factorize(n)
        assert [p for p, _ in pairs] == _old_prime_factors(n), n
        product = 1
        for p, e in pairs:
            product *= p ** e
        assert product == max(abs(n), 1) or n == 0
        if n == 0:
            continue
        assert squarefree_int(n) == _old_squarefree(n), n
        assert _square_divisors(n) == [d for d in range(1, isqrt(abs(n)) + 1)
                                       if n % (d * d) == 0], n
        if n > 0:
            assert euler_phi(n) == _old_euler_phi(n)
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            assert divisors(n) == sorted(set(small + [n // d for d in small]))
