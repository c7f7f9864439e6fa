"""Exact univariate polynomial arithmetic and real-root isolation.

Polynomials are coefficient lists ordered low degree to high.  The
classification path works on integer polynomials in Python ints: the
characteristic polynomial (Faddeev-LeVerrier with checked divisions),
Sturm chains and squarefree parts (primitive pseudo-remainders), exact
division, and signs at a rational point num/den.  Bisection keeps its
bracket as two integers over one denominator, so the bracket endpoints it
returns are the only Fractions.  Fraction coefficients remain in
arithmetic in Q(alpha) (RealAlgebraicField, AlgebraicNumber).
Real-root counting uses Sturm chains, never float eigensolvers:
loxodromic-vs-parabolic near scaling factor 1 is hostile to floats (Salem
numbers accumulate at 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .linalg import identity_matrix, mat_mul, matrix_power

# bisection steps bracket_largest_root_above may take before it gives up
_BRACKET_STEPS = 20000


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p) -> int:
    p = trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p, x):
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def poly_neg(p):
    return [-c for c in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_divmod(p, q):
    """Quotient and remainder over the rationals."""
    p = [Fraction(c) for c in trim(p)]
    q = [Fraction(c) for c in trim(q)]
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    lead = q[-1]
    while len(rem) >= len(q) and any(c != 0 for c in rem):
        shift = len(rem) - len(q)
        c = rem[-1] / lead
        quot[shift] = c
        for i, qc in enumerate(q):
            rem[shift + i] -= c * qc
        rem = trim(rem)
        if not rem:
            break
    return trim(quot), trim(rem)


def poly_int_div_exact(p, q):
    """Exact division of integer polynomials by long division in integers;
    None when a step or the remainder does not divide, that is, when q does
    not divide p in Z[x]."""
    rem, q = trim(p), trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, dq = q[-1], len(q) - 1
    quot = [0] * max(0, len(rem) - dq)
    for shift in range(len(rem) - 1 - dq, -1, -1):
        c, r = divmod(rem[shift + dq], lead)
        if r:
            return None
        quot[shift] = c
        for i in range(dq):
            rem[shift + i] -= c * q[i]
    return None if any(rem[:dq]) else quot


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def primitive(p):
    """p divided by the gcd of its integer coefficients; keeps the sign."""
    p = trim(p)
    g = gcd(*p) or 1
    return [c // g for c in p]


def _primitive_remainder(a, b):
    """The remainder of a by b, times a positive constant, made primitive.

    Pseudo-division with multiplier |lc(b)| per step: each step replaces r
    by |lc(b)| r - sgn(lc(b)) lc(r) x^s b, which cancels the leading term.
    """
    r = list(a)
    db = len(b) - 1
    m, sgn = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) > db:
        c, shift = sgn * r[-1], len(r) - 1 - db
        r = [m * x for x in r]
        for i in range(db):
            r[shift + i] -= c * b[i]
        r = trim(r[:-1])
    return primitive(r)


def squarefree_part(p):
    """Primitive integer squarefree part p / gcd(p, p'), with the sign of p's
    leading coefficient.  gcd(p, p') is the last member of p's Sturm chain."""
    p = trim(p)
    g = sturm_chain(p)[-1]
    if degree(g) <= 0:
        return primitive(p)
    quot = poly_int_div_exact(p, g if g[-1] > 0 else poly_neg(g))
    if quot is None:
        raise ArithmeticError("gcd(p, p') does not divide p")
    return primitive(quot)


def charpoly(mat) -> list[int]:
    """Monic characteristic polynomial det(xI - A) of a square integer matrix.

    Faddeev-LeVerrier over the integers: M_1 = I, c_{n-k} = -tr(A M_k) / k
    and M_{k+1} = A M_k + c_{n-k} I.  Each division is checked exact, and
    M_{n+1} must vanish (Cayley-Hamilton).
    """
    n = len(mat)
    out = [0] * n + [1]
    m = identity_matrix(n)
    for k in range(1, n + 1):
        am = mat_mul(mat, m)
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError(f"trace of A M_{k} is not divisible by {k}")
        out[n - k] = c
        m = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                  for i, row in enumerate(am))
    if any(any(row) for row in m):
        raise ArithmeticError("characteristic polynomial does not annihilate the matrix")
    return out


# -- Sturm machinery ----------------------------------------------------------

def sturm_chain(p):
    """Sturm chain of the integer polynomial p as primitive integer members.

    Each member is a positive multiple of the classical one (p, p', -rem,
    ...), which leaves every sign-variation count unchanged.  The last
    member is gcd(p, p') up to a constant factor.
    """
    chain = [trim(p)]
    d = primitive(derivative(chain[0]))
    if d:
        chain.append(d)
        while degree(chain[-1]) > 0:
            r = _primitive_remainder(chain[-2], chain[-1])
            if not r:
                break
            chain.append(poly_neg(r))
    return chain


def _variations(signs) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def sign_at(p, num: int, den: int) -> int:
    """Sign of the integer polynomial p at num/den, den > 0: the sign of
    sum c_i num^i den^(d-i), by homogeneous Horner."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def variations_at(chain, num: int, den: int) -> int:
    return _variations([sign_at(p, num, den) for p in chain])


def variations_at_pos_inf(chain) -> int:
    return _variations([(p[-1] > 0) - (p[-1] < 0) for p in chain if p])


def count_roots_in(p, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of squarefree p in the half-open interval (a, b]."""
    chain = sturm_chain(p)
    a, b = Fraction(a), Fraction(b)
    return (variations_at(chain, a.numerator, a.denominator)
            - variations_at(chain, b.numerator, b.denominator))


def count_roots_gt(p, a: Fraction) -> int:
    """Distinct real roots of squarefree p in (a, +inf)."""
    chain = sturm_chain(p)
    a = Fraction(a)
    return variations_at(chain, a.numerator, a.denominator) - variations_at_pos_inf(chain)


def _halve(q, lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """One bisection step on (lo/den, hi/den] for q with positive leading
    coefficient: the half where q changes sign, over the denominator 2 den.
    lo == hi when the midpoint is a root."""
    mid, den = lo + hi, 2 * den
    s = sign_at(q, mid, den)
    if s == 0:
        return mid, mid, den
    return (2 * lo, mid, den) if s > 0 else (mid, 2 * hi, den)


def _positive_leading(p):
    q = trim(p)
    return poly_neg(q) if q[-1] < 0 else q


def bracket_largest_root_above(p, a: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] of width < 1 for the unique root of
    squarefree p in (a, inf).

    Raises ArithmeticError unless exactly one such root exists (it is then
    the largest real root), or if _BRACKET_STEPS bisections do not isolate it.
    """
    q = _positive_leading(p)
    chain = sturm_chain(q)
    a = Fraction(a)
    if variations_at(chain, a.numerator, a.denominator) - variations_at_pos_inf(chain) != 1:
        raise ArithmeticError("expected exactly one root above the bracket start")
    # from a to the Cauchy bound 1 + max|c_i| / lc, over the denominator den;
    # beyond the largest root the (positive-leading) polynomial is positive
    den = a.denominator * q[-1]
    lo = a.numerator * q[-1]
    hi = (q[-1] + max(abs(c) for c in q[:-1])) * a.denominator
    for _ in range(_BRACKET_STEPS):
        lo, hi, den = _halve(q, lo, hi, den)
        if lo == hi or (hi - lo < den
                        and variations_at(chain, lo, den) - variations_at(chain, hi, den) == 1):
            return Fraction(lo, den), Fraction(hi, den)
    raise ArithmeticError(f"no isolating bracket after {_BRACKET_STEPS} bisections")


def refine_bracket(p, lo: Fraction, hi: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect a bracket of a simple root down to width <= eps."""
    q = _positive_leading(p)
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    while (b - a) * eps.denominator > eps.numerator * den:
        a, b, den = _halve(q, a, b, den)
    return Fraction(a, den), Fraction(b, den)


# -- cyclotomic factors ---------------------------------------------------------

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial."""
    p = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = poly_int_div_exact(p, list(cyclotomic(d)))
            if q is None:
                raise ArithmeticError(f"cyclotomic({d}) does not divide x^{n} - 1")
            p = q
    return tuple(p)


def _strip_cyclotomic(p) -> tuple[list[tuple[int, int]], list[int]]:
    """Divide every cyclotomic factor out of the integer polynomial p.

    Returns ([(order, multiplicity), ...], remainder), the remainder with
    positive leading coefficient; the candidates are all orders d with
    phi(d) <= deg p, which forces d <= 2 deg^2 since phi(d) >= sqrt(d/2).
    """
    rem = list(p)
    if rem[-1] < 0:
        rem = poly_neg(rem)
    factors = []
    for d in range(1, 2 * degree(p) ** 2 + 3):
        if euler_phi(d) > degree(rem):
            continue
        mult = 0
        while (q := poly_int_div_exact(rem, list(cyclotomic(d)))) is not None:
            rem = q
            mult += 1
        if mult:
            factors.append((d, mult))
    return factors, rem


def cyclotomic_factorization(p) -> list[tuple[int, int]] | None:
    """Write p as a product of cyclotomic polynomials, or None.

    Returns [(order, multiplicity), ...] when p is exactly (up to sign)
    such a product.
    """
    p = trim(p)
    if not p:
        return None
    factors, rem = _strip_cyclotomic(p)
    return factors if rem == [1] else None


def minimal_polynomial_of_root(p, lo: Fraction, hi: Fraction) -> list[int]:
    """Minimal polynomial of the scale lambda > 1, the root of p in (lo, hi].

    Premise: p is the squarefree characteristic polynomial of an isometry
    of a (1, n) form with exactly one root > 1, which isometry._classify
    establishes.  The other roots are then 1/lambda and roots on the unit
    circle.  By Kronecker's theorem an irreducible integer factor whose
    roots all lie on the unit circle is cyclotomic.  A factor holding
    1/lambda but not lambda would have an integer constant term of
    absolute value 1/lambda < 1, which is impossible.  So the minimal
    polynomial of lambda is what remains of p once its cyclotomic factors
    are divided out.  Root membership is still decided by an exact Sturm
    count, so the result is certificate-grade.
    """
    _factors, out = _strip_cyclotomic(primitive(p))
    if count_roots_in(out, lo, hi) != 1:
        raise ArithmeticError("bracket does not isolate a root of the non-cyclotomic part")
    return out


# -- arithmetic in Q(alpha) -----------------------------------------------------

class RealAlgebraicField:
    """Q(alpha) for alpha the unique root of an irreducible monic-up-to-sign
    integer polynomial inside a rational bracket."""

    def __init__(self, minpoly, lo: Fraction, hi: Fraction):
        self.minpoly = [Fraction(c) for c in trim(minpoly)]
        lead = self.minpoly[-1]
        self.minpoly = [c / lead for c in self.minpoly]
        self.minpoly_int = primitive(minpoly)
        self.degree = degree(self.minpoly)
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)

    def element(self, coeffs) -> "AlgebraicNumber":
        c = [Fraction(v) for v in coeffs][: self.degree]
        c += [Fraction(0)] * (self.degree - len(c))
        return AlgebraicNumber(self, tuple(c))

    def generator(self) -> "AlgebraicNumber":
        if self.degree == 1:
            return self.element([-self.minpoly[0]])
        return self.element([0, 1])

    def rational(self, q) -> "AlgebraicNumber":
        return self.element([Fraction(q)])

    def bracket(self, eps: Fraction | None = None) -> tuple[Fraction, Fraction]:
        if eps is not None and self._hi - self._lo > eps:
            self._lo, self._hi = refine_bracket(self.minpoly_int, self._lo, self._hi, eps)
        return self._lo, self._hi

    def approx_root(self) -> float:
        lo, hi = self.bracket(Fraction(1, 10**18))
        return float((lo + hi) / 2)


class AlgebraicNumber:
    """Element of a RealAlgebraicField; exact field arithmetic, exact signs."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RealAlgebraicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed algebraic fields")
            return other
        return self.field.rational(other)

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return AlgebraicNumber(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, AlgebraicNumber):
            # a rational scalar keeps the degree: nothing to reduce
            q = Fraction(other)
            return AlgebraicNumber(self.field, tuple(c * q for c in self.coeffs))
        other = self._coerce(other)
        prod = poly_mul(list(self.coeffs), list(other.coeffs))
        _, rem = poly_divmod(prod, self.field.minpoly)
        rem = list(rem) + [Fraction(0)] * (self.field.degree - len(rem))
        return AlgebraicNumber(self.field, tuple(rem[: self.field.degree]))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        # extended Euclid in Q[x]: u*self + v*minpoly = 1
        if not self:
            raise ZeroDivisionError("inverse of zero algebraic number")
        r0, r1 = self.field.minpoly, list(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while degree(r1) > 0:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1)))
            if not r1:
                raise ArithmeticError("modulus not irreducible")
        c = Fraction(r1[0])
        inv = [x / c for x in s1]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return AlgebraicNumber(self.field, tuple(inv[: self.field.degree]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def sign(self) -> int:
        """Exact sign via interval Horner on a shrinking root bracket."""
        if not self:
            return 0
        lo, hi = self.field.bracket()
        for _ in range(256):
            vlo, vhi = _interval_eval(list(self.coeffs), lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = refine_bracket(self.field.minpoly_int, lo, hi, (hi - lo) / 4)
            self.field._lo, self.field._hi = lo, hi
        raise ArithmeticError("sign refinement did not converge")

    def approx(self) -> float:
        x = self.field.approx_root()
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self):
        return f"AlgebraicNumber({list(self.coeffs)})"


def _interval_eval(p, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation of p on [lo, hi]."""
    vlo = vhi = Fraction(0)
    for c in reversed(p):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def identity_power_order(mat, candidate_orders) -> int | None:
    """Smallest k among sorted candidates with mat^k = I, else None."""
    ident = identity_matrix(len(mat))
    power, done = ident, 0
    for k in sorted(candidate_orders):
        power = mat_mul(power, matrix_power(mat, k - done))  # mat^k from mat^done
        done = k
        if power == ident:
            return k
    return None


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
