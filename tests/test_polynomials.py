"""The integer classification pipeline against oracles: the minimal
polynomial of the scale against sympy's factorization, the charpoly and
the Sturm counts against sympy, and the brackets against the Fraction
bisection they replaced."""

import random
from fractions import Fraction

import pytest
import sympy

from hyperlat import (direct_sum, make_isometry, pick_cone, polynomials, rank1,
                      reflection, standard_lattice)
from hyperlat.isometry import LOXODROMIC
from hyperlat.polynomials import (bracket_largest_root_above, charpoly,
                                  count_roots_gt, count_roots_in,
                                  cyclotomic_factorization, degree, derivative,
                                  minimal_polynomial_of_root, poly_divmod,
                                  poly_neg, refine_bracket, squarefree_part,
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


def _sympy_pick(q, lo, hi):
    """The irreducible factor of q over Z with a root in [lo, hi], by sympy."""
    x = sympy.Symbol("x")
    hits = []
    for factor, _mult in sympy.Poly(list(reversed(q)), x).factor_list()[1]:
        if factor.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1:
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
            lo, hi = g.classification.scale_field.bracket()
            minpoly = minimal_polynomial_of_root(q, lo, hi)
            assert minpoly == _sympy_pick(q, lo, hi), (name, g.matrix)
            assert g.classification.scale_minpoly == tuple(minpoly)
            degrees.setdefault(name, set()).add(len(minpoly) - 1)
            words += 1
    assert words >= 200
    # Salem numbers of degree > 2 occur, not just quadratic units
    assert max(degrees["U+E8"]) > 2
    assert max(degrees["U+A2+<-2>"]) > 2


def test_minimal_polynomial_requires_a_root_in_the_bracket():
    q = [1, -6, 1]  # x^2 - 6x + 1, roots 3 -+ 2 sqrt 2
    assert minimal_polynomial_of_root(q, Fraction(5), Fraction(6)) == [1, -6, 1]
    with pytest.raises(ArithmeticError):
        minimal_polynomial_of_root(q, Fraction(1), Fraction(5))
    # the non-cyclotomic part of (x - 1)(x^2 - 6x + 1)
    cubic = [-1, 7, -7, 1]
    assert minimal_polynomial_of_root(cubic, Fraction(5), Fraction(6)) == [1, -6, 1]


def test_bracket_largest_root_above_counts_its_precondition():
    q = [1, -6, 1]  # roots 3 -+ 2 sqrt 2, about 0.17 and 5.83
    lo, hi = bracket_largest_root_above(q, Fraction(1))
    assert lo < 3 + 2 * sympy.sqrt(2) <= hi and hi - lo < 1
    with pytest.raises(ArithmeticError):
        bracket_largest_root_above(q, Fraction(0))  # two roots above 0
    with pytest.raises(ArithmeticError):
        bracket_largest_root_above(q, Fraction(6))  # none above 6


def test_cyclotomic_factorization():
    x = sympy.Symbol("x")
    expr = (x - 1) ** 2 * (x + 1) * (x**2 + x + 1)
    p = [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    assert cyclotomic_factorization(p) == [(1, 2), (2, 1), (3, 1)]
    assert cyclotomic_factorization([-c for c in p]) == [(1, 2), (2, 1), (3, 1)]
    assert cyclotomic_factorization([1, -6, 1]) is None


def test_bracket_largest_root_above_raises_when_its_steps_run_out(monkeypatch):
    q = [1, -6, 1]  # from (1, 7] the bracket is isolated after 3 bisections
    expected = bracket_largest_root_above(q, Fraction(1))
    monkeypatch.setattr(polynomials, "_BRACKET_STEPS", 3)
    assert bracket_largest_root_above(q, Fraction(1)) == expected
    monkeypatch.setattr(polynomials, "_BRACKET_STEPS", 2)
    with pytest.raises(ArithmeticError, match="bisections"):
        bracket_largest_root_above(q, Fraction(1))


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
            assert count_roots_gt(p, a) == sp.count_roots(ra) - at_a, (p, a)
            for b in ends[i:]:
                rb = sympy.Rational(b.numerator, b.denominator)
                assert count_roots_in(p, a, b) == sp.count_roots(ra, rb) - at_a, (p, a, b)
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


def _fraction_sturm_chain(p):
    chain = [[Fraction(c) for c in trim(p)]]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while degree(chain[-1]) > 0:
            _, r = poly_divmod(chain[-2], chain[-1])
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
            bracket = bracket_largest_root_above(q, Fraction(1))
            assert bracket == _fraction_bracket_largest_root_above(q, Fraction(1))
            lo, hi = refine_bracket(q, *bracket, eps)
            assert (lo, hi) == _fraction_refine_bracket(q, *bracket, eps)
            minpoly = minimal_polynomial_of_root(q, lo, hi)
            lo, hi = refine_bracket(minpoly, lo, hi, eps)
            assert (lo, hi) == _fraction_refine_bracket(minpoly, *_fraction_refine_bracket(
                q, *bracket, eps), eps)
            field = g.classification.scale_field
            assert field.bracket() == (lo, hi)
            assert field.bracket(fine) == _fraction_refine_bracket(minpoly, lo, hi, fine)
            words += 1
    assert words == 240


@pytest.mark.parametrize("minpoly, lo, hi", [([-2, 0, 1], 1, 2),            # sqrt 2
                                             ([1, -1, -3, -1, 1], 2, 3)])  # a quartic scale
def test_rational_scalar_product_matches_field_product(minpoly, lo, hi):
    """A rational factor skips the reduction by the minimal polynomial; the
    coefficients must be exactly those of the reduced field product."""
    fld = polynomials.RealAlgebraicField(minpoly, Fraction(lo), Fraction(hi))
    rng = random.Random(len(minpoly))
    for _ in range(100):
        x = fld.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(fld.degree)])
        q = rng.choice((rng.randint(-7, 7), Fraction(rng.randint(-7, 7), rng.randint(1, 6))))
        assert (x * q).coeffs == (q * x).coeffs == (x * fld.rational(q)).coeffs
        if x:
            assert (1 / x).coeffs == (fld.rational(1) * x.inverse()).coeffs
            assert (q / x).coeffs == (fld.rational(q) * x.inverse()).coeffs
            assert (x * (1 / x)).coeffs == fld.rational(1).coeffs
