"""The minimal polynomial of the scale against sympy's factorization."""

import random
from fractions import Fraction

import pytest
import sympy

from hyperlat import direct_sum, pick_cone, rank1, reflection, standard_lattice
from hyperlat.isometry import LOXODROMIC
from hyperlat.polynomials import (bracket_largest_root_above,
                                  cyclotomic_factorization,
                                  minimal_polynomial_of_root, squarefree_part)

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
