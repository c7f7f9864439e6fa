"""The integer classification pipeline against oracles: the minimal
polynomial of the scale against sympy's factorization, the charpoly and
the Sturm counts against sympy, and the (lo, hi, den) brackets against
the Fraction bisection they replaced, compared as exact rationals."""

import random
from fractions import Fraction

import pytest
import sympy

from hyperlat import (direct_sum, make_isometry, pick_cone, polynomials, rank1,
                      reflection, standard_lattice)
from hyperlat.isometry import LOXODROMIC
from hyperlat.linalg import mat_mul
from hyperlat.polynomials import (bracket_largest_root_above, charpoly,
                                  count_roots_gt, count_roots_in,
                                  cyclotomic_factorization, degree, derivative,
                                  minimal_polynomial_of_root, poly_neg, refine_bracket, squarefree_part,
                                  trim)

U = standard_lattice("U")
LATTICES = {
    "U+<-2>": direct_sum(U, rank1(-2)),
    "U+A2+<-2>": direct_sum(direct_sum(U, standard_lattice("A2")), rank1(-2)),
    "U+E8": direct_sum(U, standard_lattice("E8")),
}


def _reflections(lat):
    """Reflections in the roots (1,-1,0..), (0,0,e_i), (1,0,e_1), (0,1,e_k)."""
    n = lat.rank
    orientation = pick_cone(lat, (1, 1) + (0,) * (n - 2))
    roots = [(1, -1) + (0,) * (n - 2)]
    for i in range(2, n):
        roots.append(tuple(1 if j == i else 0 for j in range(n)))
    roots.append((1, 0, 1) + (0,) * (n - 3))
    roots.append((0, 1) + (0,) * (n - 3) + (1,))
    assert all(lat.norm(r) == -2 for r in roots)
    return [reflection(orientation, r) for r in roots]


def _loxodromic_words(letters, rng, count):
    """Loxodromic words: every letter once in random order, then up to three more."""
    out = []
    while len(out) < count:
        order = rng.sample(range(len(letters)), len(letters))
        order += [rng.randrange(len(letters)) for _ in range(rng.randint(0, 3))]
        word = letters[order[0]]
        for k in order[1:]:
            word = word.compose(letters[k])
        if word.classification.kind == LOXODROMIC:
            out.append(word)
    return out


def _values(bracket):
    """The bracket (lo, hi, den) as its two endpoints lo/den and hi/den."""
    lo, hi, den = bracket
    return Fraction(lo, den), Fraction(hi, den)


def _sympy_pick(q, bracket):
    """The irreducible factor of q over Z with a root in [lo/den, hi/den], by sympy."""
    lo, hi, den = bracket
    x = sympy.Symbol("x")
    hits = []
    for factor, _mult in sympy.Poly(list(reversed(q)), x).factor_list()[1]:
        if factor.count_roots(sympy.Rational(lo, den), sympy.Rational(hi, den)) == 1:
            coeffs = [int(c) for c in reversed(factor.all_coeffs())]
            hits.append(coeffs if coeffs[-1] > 0 else [-c for c in coeffs])
    assert len(hits) == 1, (q, hits)
    return hits[0]


def test_minimal_polynomial_matches_sympy_factor_list():
    rng = random.Random(2718)
    degrees = {}
    words = 0
    for name, lat in LATTICES.items():
        for g in _loxodromic_words(_reflections(lat), rng, 80):
            q = squarefree_part(g.charpoly)
            bracket = g.classification.scale_field.bracket()
            minpoly = minimal_polynomial_of_root(q, bracket)
            assert minpoly == _sympy_pick(q, bracket), (name, g.matrix)
            assert g.classification.scale_minpoly == tuple(minpoly)
            degrees.setdefault(name, set()).add(len(minpoly) - 1)
            words += 1
    assert words >= 200
    # Salem numbers of degree > 2 occur, not just quadratic units
    assert max(degrees["U+E8"]) > 2
    assert max(degrees["U+A2+<-2>"]) > 2


def test_minimal_polynomial_requires_a_root_in_the_bracket():
    q = [1, -6, 1]  # x^2 - 6x + 1, roots 3 -+ 2 sqrt 2
    assert minimal_polynomial_of_root(q, (5, 6, 1)) == [1, -6, 1]
    assert minimal_polynomial_of_root(q, (15, 18, 3)) == [1, -6, 1]
    with pytest.raises(ArithmeticError):
        minimal_polynomial_of_root(q, (1, 5, 1))
    # the non-cyclotomic part of (x - 1)(x^2 - 6x + 1)
    cubic = [-1, 7, -7, 1]
    assert minimal_polynomial_of_root(cubic, (5, 6, 1)) == [1, -6, 1]


def test_bracket_largest_root_above_counts_its_precondition():
    q = [1, -6, 1]  # roots 3 -+ 2 sqrt 2, about 0.17 and 5.83
    lo, hi, den = bracket_largest_root_above(q, 1, 1)
    assert lo < (3 + 2 * sympy.sqrt(2)) * den <= hi and 0 < den and hi - lo < den
    assert _values(bracket_largest_root_above(q, 2, 2)) == _values((lo, hi, den))
    with pytest.raises(ArithmeticError):
        bracket_largest_root_above(q, 0, 1)  # two roots above 0
    with pytest.raises(ArithmeticError):
        bracket_largest_root_above(q, 6, 1)  # none above 6


def test_cyclotomic_factorization():
    x = sympy.Symbol("x")
    expr = (x - 1) ** 2 * (x + 1) * (x**2 + x + 1)
    p = [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    assert cyclotomic_factorization(p) == [(1, 2), (2, 1), (3, 1)]
    assert cyclotomic_factorization([-c for c in p]) == [(1, 2), (2, 1), (3, 1)]
    assert cyclotomic_factorization([1, -6, 1]) is None


def test_bracket_largest_root_above_raises_when_its_steps_run_out(monkeypatch):
    q = [1, -6, 1]  # from (1, 7] the bracket is isolated after 3 bisections
    expected = bracket_largest_root_above(q, 1, 1)
    monkeypatch.setattr(polynomials, "_BRACKET_STEPS", 3)
    assert bracket_largest_root_above(q, 1, 1) == expected
    monkeypatch.setattr(polynomials, "_BRACKET_STEPS", 2)
    with pytest.raises(ArithmeticError, match="bisections"):
        bracket_largest_root_above(q, 1, 1)


# -- charpoly against sympy -------------------------------------------------------

def _sympy_charpoly(mat):
    return [int(c) for c in reversed(sympy.Matrix(mat).charpoly().all_coeffs())]


D12 = direct_sum(rank1(1), rank1(-2))
O_D12 = pick_cone(D12, (1, 0))
CHARPOLY_LETTERS = {
    "<1>+<-2>": [make_isometry(O_D12, [[3, 4], [2, 3]]),
                 reflection(O_D12, (0, 1)), reflection(O_D12, (4, 3))],
    **{name: _reflections(lat) for name, lat in LATTICES.items()},
}


@pytest.mark.parametrize("name", sorted(CHARPOLY_LETTERS))
def test_charpoly_of_random_words_matches_sympy(name):
    letters = CHARPOLY_LETTERS[name]
    rng = random.Random(97)
    for _ in range(25):
        g = letters[rng.randrange(len(letters))]
        for _ in range(rng.randint(0, 9)):
            g = g.compose(letters[rng.randrange(len(letters))])
        assert g.charpoly == _sympy_charpoly(g.matrix), g.matrix


@pytest.mark.parametrize("n", range(1, 11))
def test_charpoly_of_random_integer_matrices_matches_sympy(n):
    rng = random.Random(53 + n)
    for _ in range(4):
        mat = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert charpoly(mat) == _sympy_charpoly(mat)


def test_charpoly_checks_its_divisions():
    # a non-integer trace leaves a remainder in the first division
    with pytest.raises(ArithmeticError):
        charpoly(((Fraction(1, 2),),))


@pytest.mark.parametrize("n", range(1, 11))
def test_charpoly_takes_half_the_products(n, monkeypatch):
    # A, ..., A^ceil(n/2): every trace of a higher power is read off a
    # product of two of them without forming it
    products = []

    def counting(a, b):
        products.append(len(a))
        return mat_mul(a, b)

    monkeypatch.setattr(polynomials, "mat_mul", counting)
    mat = tuple(tuple(random.Random(n).randint(-9, 9) for _ in range(n)) for _ in range(n))
    assert charpoly(mat) == _sympy_charpoly(mat)
    assert products == [n] * ((n + 1) // 2 - 1)


def _faddeev_leverrier(mat):
    """Oracle: M_1 = I, c_(n-k) = -tr(A M_k) / k, M_(k+1) = A M_k + c_(n-k) I,
    each division checked exact and M_(n+1) = 0 (Cayley-Hamilton)."""
    n = len(mat)
    out = [0] * n + [1]
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        am = mat_mul(mat, m)
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        assert r == 0
        out[n - k] = c
        m = tuple(tuple(x + c * (i == j) for j, x in enumerate(row)) for i, row in enumerate(am))
    assert not any(any(row) for row in m)
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_charpoly_matches_faddeev_leverrier_on_integer_matrices(n):
    rng = random.Random(1009 + n)
    for trial in range(20):
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:  # singular: a row repeated, or a zero row
            mat[-1] = list(mat[0]) if trial % 8 else [0] * n
        mat = tuple(map(tuple, mat))
        assert charpoly(mat) == _faddeev_leverrier(mat)


@pytest.mark.parametrize("name", sorted(CHARPOLY_LETTERS))
def test_charpoly_of_random_words_matches_faddeev_leverrier(name):
    letters = CHARPOLY_LETTERS[name]
    rng = random.Random(211)
    for _ in range(40):
        g = letters[rng.randrange(len(letters))]
        for _ in range(rng.randint(0, 12)):
            g = g.compose(letters[rng.randrange(len(letters))])
        assert charpoly(g.matrix) == _faddeev_leverrier(g.matrix)


def test_charpoly_checks_its_constant_term_against_the_determinant(monkeypatch):
    mat = ((3, 4), (2, 3))
    assert charpoly(mat) == [1, -6, 1]
    monkeypatch.setattr(polynomials, "bareiss_det", lambda m: 2)
    with pytest.raises(ArithmeticError, match="det"):
        charpoly(mat)


def test_sturm_chain_passed_in_gives_the_same_counts_and_brackets():
    # the chain of -q is the negated chain of q, with the same variations
    for q in ([-1, -6, 1], [-1, 0, 0, 1], [1, -3, 0, 1], [-2, 0, 1]):
        for p in (q, poly_neg(q)):
            for chain in (polynomials.sturm_chain(q), polynomials.sturm_chain(poly_neg(q))):
                assert count_roots_gt(p, 1, 1, chain) == count_roots_gt(p, 1, 1)
                if count_roots_gt(p, 1, 1) == 1:
                    assert (bracket_largest_root_above(p, 1, 1, chain)
                            == bracket_largest_root_above(p, 1, 1))


# -- Sturm counts and squarefree parts against sympy ------------------------------

X = sympy.Symbol("x")


def _sympy_poly(p):
    return sympy.Poly(list(reversed(p)), X)


def _random_squarefree(rng):
    """A squarefree integer polynomial of degree 1 to 10 and its rational roots."""
    while True:
        roots = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                        for _ in range(rng.randint(0, 4))})
        p = [rng.randint(-6, 6) for _ in range(rng.randint(1, 11 - len(roots)))]
        for r in roots:
            p = polynomials.poly_mul(p, [-r.numerator, r.denominator])
        p = trim(p)
        if degree(p) >= 1 and _sympy_poly(p).is_sqf:
            return p, roots


def test_sturm_counts_match_sympy():
    rng = random.Random(4242)
    root_ends = 0
    for _ in range(60):
        p, roots = _random_squarefree(rng)
        sp = _sympy_poly(p)
        ends = sorted(set(roots) | {Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                                    for _ in range(2)} | {Fraction(0), Fraction(1)})
        for i, a in enumerate(ends):
            ra = sympy.Rational(a.numerator, a.denominator)
            at_a = int(sp.eval(ra) == 0)
            root_ends += at_a
            # sympy counts the closed [a, +inf) and [a, b]; ours are (a, ...]
            assert count_roots_gt(p, a.numerator, a.denominator) == \
                sp.count_roots(ra) - at_a, (p, a)
            for b in ends[i:]:
                rb = sympy.Rational(b.numerator, b.denominator)
                # over the common denominator, not reduced
                bracket = (a.numerator * b.denominator, b.numerator * a.denominator,
                           a.denominator * b.denominator)
                assert count_roots_in(p, bracket) == sp.count_roots(ra, rb) - at_a, (p, a, b)
    assert root_ends > 50


def test_squarefree_part_matches_sympy():
    rng = random.Random(777)
    for _ in range(150):
        p = [rng.choice([-3, -1, 1, 2])]
        while degree(p) < 2:
            for _ in range(rng.randint(1, 3)):
                f = trim([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
                if degree(f) >= 1 and degree(p) + 2 * degree(f) <= 10:
                    for _ in range(rng.randint(1, 3)):
                        if degree(p) + degree(f) <= 10:
                            p = polynomials.poly_mul(p, f)
        want = [int(c) for c in reversed(sympy.sqf_part(_sympy_poly(p)).all_coeffs())]
        if (want[-1] > 0) != (p[-1] > 0):
            want = poly_neg(want)
        assert squarefree_part(p) == want, p


# -- brackets against the Fraction bisection they replaced ------------------------

def _fraction_sign(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _fraction_divmod(p, q):
    """Quotient and remainder over the rationals: the `Fraction` long
    division the integer code replaced, kept here as the oracles' reference."""
    p = [Fraction(c) for c in trim(p)]
    q = [Fraction(c) for c in trim(q)]
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        shift = len(rem) - len(q)
        c = rem[-1] / q[-1]
        quot[shift] = c
        for i, qc in enumerate(q):
            rem[shift + i] -= c * qc
        rem = trim(rem)
    return trim(quot), trim(rem)


def _fraction_sturm_chain(p):
    chain = [[Fraction(c) for c in trim(p)]]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while degree(chain[-1]) > 0:
            _, r = _fraction_divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append(poly_neg(r))
    return chain


def _fraction_variations(chain, x):
    seq = [s for s in (_fraction_sign(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _fraction_positive_leading(p):
    q = trim([Fraction(c) for c in p])
    return poly_neg(q) if q[-1] < 0 else q


def _fraction_bracket_largest_root_above(p, a):
    q = _fraction_positive_leading(p)
    chain = _fraction_sturm_chain(q)
    lo, hi = a, 1 + max(abs(c) for c in q[:-1]) / q[-1]
    for _ in range(20000):
        mid = (lo + hi) / 2
        s = _fraction_sign(q, mid)
        if s == 0:
            return mid, mid
        if s > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1 and _fraction_variations(chain, lo) - _fraction_variations(chain, hi) == 1:
            break
    return lo, hi


def _fraction_refine_bracket(p, lo, hi, eps):
    q = _fraction_positive_leading(p)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = _fraction_sign(q, mid)
        if s == 0:
            return mid, mid
        if s > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_brackets_match_the_fraction_bisection():
    rng = random.Random(2718)  # the 240 words of the minimal-polynomial test
    eps, fine = Fraction(1, 10**16), Fraction(1, 10**18)
    words = 0
    for lat in LATTICES.values():
        for g in _loxodromic_words(_reflections(lat), rng, 80):
            q = squarefree_part(g.charpoly)
            first = bracket_largest_root_above(q, 1, 1)
            want = _fraction_bracket_largest_root_above(q, Fraction(1))
            assert _values(first) == want
            bracket = refine_bracket(q, first, 10**16)
            want = _fraction_refine_bracket(q, *want, eps)
            assert _values(bracket) == want
            minpoly = minimal_polynomial_of_root(q, bracket)
            bracket = refine_bracket(minpoly, bracket, 10**16)
            want = _fraction_refine_bracket(minpoly, *want, eps)
            assert _values(bracket) == want
            field = g.classification.scale_field
            assert field.bracket() == bracket
            assert _values(field.bracket(10**18)) == _fraction_refine_bracket(
                minpoly, *want, fine)
            assert all(type(x) is int for x in field.bracket()) and field.bracket()[2] > 0
            words += 1
    assert words == 240


@pytest.mark.parametrize("minpoly, lo, hi", [([-2, 0, 1], 1, 2),            # sqrt 2
                                             ([1, -1, -3, -1, 1], 2, 3)])  # a quartic scale
def test_rational_scalar_product_matches_field_product(minpoly, lo, hi):
    """Z[alpha] reduces by integer long division by the monic minimal
    polynomial: every product and every element built from a longer
    polynomial must be its `Fraction` remainder, and an integer factor,
    which skips the reduction, must give the field product."""
    fld = polynomials.RealAlgebraicField(minpoly, (lo, hi, 1))
    rng = random.Random(len(minpoly))

    def fraction_reduced(p):
        rem = _fraction_divmod(p, minpoly)[1]
        return tuple(rem + [0] * (fld.degree - len(rem)))

    for _ in range(100):
        x, y = (fld.element([rng.randint(-99, 99) for _ in range(fld.degree)])
                for _ in range(2))
        assert (x * y).coeffs == fraction_reduced(polynomials.poly_mul(x.coeffs, y.coeffs))
        assert all(type(c) is int for c in (x * y).coeffs)
        q = rng.randint(-7, 7)
        assert (x * q).coeffs == (q * x).coeffs == (x * fld.element([q])).coeffs
        poly = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3 * fld.degree))]
        assert fld.element(poly).coeffs == fraction_reduced(poly)
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    with pytest.raises(ValueError, match="monic"):
        polynomials.RealAlgebraicField([-2, 0, 2], (lo, hi, 1))


def test_identity_power_order_tests_the_one_power_given():
    quarter_turn = ((0, -1), (1, 0))
    hits = [k for k in range(1, 13) if polynomials.identity_power_order(quarter_turn, k)]
    assert hits == [4, 8, 12]
