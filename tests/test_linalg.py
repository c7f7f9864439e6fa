"""Fraction-free elimination, the congruence diagonal and primitive vectors
against oracles.

`rank`, `row_echelon` and `kernel_basis` reduce through the integer
`row_basis`; each is compared with the sympy routine on random matrices:
square, wide and tall (500 x 6), rank-deficient, with zero rows, and with
`Fraction` entries.  `row_echelon`'s rows, divided by their pivot entries,
are sympy's RREF rows.  The `Fraction` Gauss-Jordan elimination that
`row_echelon` replaced is kept here, checked against sympy, and so is the
`Fraction` congruence diagonalization that the Bareiss `congruence_diagonal`
replaced.  The integer `factorize` and everything derived from it are
compared with the trial-division loops they replaced, and the totient
sieve behind the cyclotomic candidates with the loop it replaced.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy

from hyperlat import linalg
from hyperlat.forms import _square_divisors, squarefree_int
from hyperlat.linalg import (congruence_diagonal, divisors, factorize, identity_matrix,
                             kernel_basis, mat_mul, mat_vec, matrix_power,
                             primitive_vector, rank, row_basis, row_echelon)
from hyperlat.polynomials import _cyclotomic_candidates, _totients, cyclotomic


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
    for row, p in zip(ours, our_pivots):
        assert all(type(x) is int for x in row) and gcd(*row) == 1 and row[p] > 0
    assert [[Fraction(x, r[p]) for x in r] for r, p in zip(ours, our_pivots)] == \
        [[_frac(x) for x in rref.row(i)] for i in range(len(pivots))]


@pytest.mark.parametrize("name,rows", CASES, ids=[c[0] for c in CASES])
def test_kernel_basis_matches_sympy_nullspace(name, rows):
    expected = [primitive_vector([_frac(x) for x in v]) for v in sympy.Matrix(rows).nullspace()]
    assert kernel_basis(rows) == expected


def gauss_jordan(rows):
    """Reduced row echelon form of `Fraction` rows; returns (rref rows,
    pivot columns).  The Gauss-Jordan elimination over Q that `row_echelon`
    replaced, kept as a reference."""
    a = [list(row) for row in rows]
    if not a:
        return [], []
    pivots = []
    r = 0
    for c in range(len(a[0])):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        a[r] = [x / pivot for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rref_kernel(rref, pivots, ncols: int) -> list[list]:
    """Kernel basis read off a reduced row echelon form, one vector per free
    column in increasing order."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


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
    # the integer echelon basis is the reference RREF, row by row, times
    # the pivot entries, and its kernel is the reference kernel made primitive
    echelon, _ = row_echelon(rows)
    assert [[x * row[p] for x in r] for r, row, p in zip(ours, echelon, pivots)] == echelon
    assert kernel_basis(rows) == [primitive_vector(v) for v in kernel]


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
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            assert divisors(n) == sorted(set(small + [n // d for d in small]))


def test_totient_sieve_matches_the_old_loop():
    phi = _totients(5000)
    assert phi[0] == 0
    assert phi[1:] == [_old_euler_phi(n) for n in range(1, 5001)]
    assert _totients(0) == [0] and _totients(1) == [0, 1]


def test_cyclotomic_candidates_match_the_per_order_construction():
    # the table as it was built with one totient per order
    for n in range(21):
        want = tuple((d, _old_euler_phi(d), cyclotomic(d))
                     for d in range(1, 2 * n * n + 3) if _old_euler_phi(d) <= n)
        assert _cyclotomic_candidates(n) == want


# -- the Bareiss congruence diagonal against the Fraction elimination it replaced ----

def _fraction_congruence_diagonal(gram, branches):
    """Diagonal of T^t G T by symmetric pivoting over `Fraction`, the
    elimination `congruence_diagonal` replaced; counts the repair branches
    it takes in `branches`."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    diag = []
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                branches["swap"] += 1
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    branches["zero"] += 1
                    diag.append(Fraction(0))
                    continue
                branches["completion"] += 1
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        pivot = a[k][k]
        diag.append(pivot)
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pivot
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in range(n):
                    a[row][i] -= f * a[row][k]
    return diag


def _random_symmetric(rng):
    """B^t D B of rank <= n, sometimes with its diagonal zeroed or replaced
    by a random zero-diagonal form."""
    n = rng.randint(1, 7)
    r = rng.randint(0, n)
    base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    d = [rng.choice((-6, -2, -1, 1, 2, 3, 5, 12)) for _ in range(r)]
    gram = [[sum(b[i] * dk * b[j] for b, dk in zip(base, d)) for j in range(n)]
            for i in range(n)]
    roll = rng.random()
    if roll < 0.25:
        gram = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(gram)]
    elif roll < 0.4:
        upper = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
        gram = [[0 if i == j else upper[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    return gram


def test_congruence_diagonal_matches_the_fraction_diagonal():
    rng = random.Random(20000)
    branches = {"swap": 0, "completion": 0, "zero": 0}
    degenerate = 0
    for _ in range(3000):
        gram = _random_symmetric(rng)
        want = _fraction_congruence_diagonal(gram, branches)
        got = congruence_diagonal(gram)
        assert all(type(d) is int for d in got)
        # num * den of each entry in lowest terms, so the same sign and the
        # same squarefree class
        assert got == [d.numerator * d.denominator for d in want], gram
        degenerate += 0 in got
    assert min(branches.values()) >= 100, branches
    assert degenerate >= 300


def test_congruence_diagonal_of_u_e8_plus_2():
    from hyperlat import direct_sum, rank1, standard_lattice
    lat = direct_sum(direct_sum(standard_lattice("U"), standard_lattice("E8")), rank1(2))
    got = congruence_diagonal(lat.gram)
    want = _fraction_congruence_diagonal(lat.gram, {"swap": 0, "completion": 0, "zero": 0})
    assert got == [d.numerator * d.denominator for d in want]
    assert sum(d > 0 for d in got) == 2 and sum(d < 0 for d in got) == 9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_power_matches_the_naive_product(n, monkeypatch):
    rng = random.Random(71 + n)
    products = []

    def counting(a, b):
        products.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    for _ in range(3):
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        naive = identity_matrix(n)
        for k in range(41):
            products.clear()
            assert matrix_power(m, k) == naive, (m, k)
            # one squaring per bit after the first, one product per further set bit
            assert len(products) == max(0, k.bit_length() + bin(k).count("1") - 2)
            naive = mat_mul(naive, m)
