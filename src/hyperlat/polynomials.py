"""Exact univariate polynomial arithmetic and real-root isolation.

Polynomials are coefficient lists ordered low degree to high.  Integer
polynomials stay in Python ints; division-based routines promote to
Fraction.  Real-root counting uses Sturm chains, never float eigensolvers:
loxodromic-vs-parabolic near scaling factor 1 is hostile to floats (Salem
numbers accumulate at 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .linalg import bareiss_det, identity_matrix


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p) -> int:
    p = trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
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
    """Exact division of integer polynomials; None when not divisible over Q
    or when the quotient is not integral."""
    quot, rem = poly_divmod(p, q)
    if rem:
        return None
    out = []
    for c in quot:
        if c.denominator != 1:
            return None
        out.append(int(c))
    return out


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_gcd(p, q):
    """Monic gcd over the rationals."""
    a = [Fraction(c) for c in trim(p)]
    b = [Fraction(c) for c in trim(q)]
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def content(p) -> int:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g if g else 1


def to_primitive_int(p):
    """Clear denominators and divide out integer content; keeps the sign."""
    p = trim(p)
    denom = 1
    for c in p:
        f = Fraction(c)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(Fraction(c) * denom) for c in p]
    g = content(ints)
    return [c // g for c in ints]


def squarefree_part(p):
    """Primitive integer squarefree part p / gcd(p, p')."""
    g = poly_gcd(p, derivative(p))
    if degree(g) <= 0:
        return to_primitive_int(p)
    quot, rem = poly_divmod(p, g)
    if rem:
        raise ArithmeticError("gcd(p, p') does not divide p")
    return to_primitive_int(quot)


def charpoly(mat) -> list[int]:
    """Monic characteristic polynomial det(xI - M) of an integer matrix.

    Evaluated at x = 0..n by fraction-free determinants, then interpolated
    exactly; coefficients are certified integers.
    """
    n = len(mat)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = tuple(tuple((x if i == j else 0) - mat[i][j] for j in range(n))
                        for i in range(n))
        ys.append(bareiss_det(shifted))
    # Lagrange interpolation over Q
    poly = [Fraction(0)]
    for i, xi in enumerate(xs):
        term = [Fraction(ys[i])]
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = poly_mul(term, [Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        poly = poly_add(poly, term)
    if any(Fraction(c).denominator != 1 for c in poly):
        raise ArithmeticError("interpolated characteristic polynomial is not integral")
    out = [int(c) for c in poly]
    if out[-1] != 1:
        raise ArithmeticError("characteristic polynomial must be monic")
    return out


# -- Sturm machinery ----------------------------------------------------------

def sturm_chain(p):
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


def _variations(signs) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def sign_at(p, x: Fraction) -> int:
    v = poly_eval(p, x)
    return (v > 0) - (v < 0)


def variations_at(chain, x: Fraction) -> int:
    return _variations([sign_at(p, x) for p in chain])


def variations_at_pos_inf(chain) -> int:
    return _variations([(p[-1] > 0) - (p[-1] < 0) for p in chain if p])


def count_roots_in(p, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of squarefree p in the half-open interval (a, b]."""
    chain = sturm_chain(p)
    return variations_at(chain, a) - variations_at(chain, b)


def count_roots_gt(p, a: Fraction) -> int:
    """Distinct real roots of squarefree p in (a, +inf)."""
    chain = sturm_chain(p)
    return variations_at(chain, a) - variations_at_pos_inf(chain)


def cauchy_bound(p) -> Fraction:
    """All real roots lie in [-B, B]."""
    p = trim(p)
    lead = abs(Fraction(p[-1]))
    return 1 + max((abs(Fraction(c)) for c in p[:-1]), default=Fraction(0)) / lead


def bracket_largest_root_above(p, a: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] for the unique root of squarefree p in (a, inf).

    Raises ArithmeticError unless exactly one such root exists; it is then
    the largest real root.
    """
    q = trim([Fraction(c) for c in p])
    if q[-1] < 0:
        q = poly_neg(q)
    chain = sturm_chain(q)
    if variations_at(chain, a) - variations_at_pos_inf(chain) != 1:
        raise ArithmeticError("expected exactly one root above the bracket start")
    lo, hi = a, cauchy_bound(q)
    # beyond the largest root the (positive-leading) polynomial is positive
    for _ in range(20000):
        if hi - lo <= 0:
            break
        mid = (lo + hi) / 2
        s = sign_at(q, mid)
        if s == 0:
            return mid, mid
        if s > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1 and variations_at(chain, lo) - variations_at(chain, hi) == 1:
            break
    return lo, hi


def refine_bracket(p, lo: Fraction, hi: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect a bracket of a simple root down to width <= eps."""
    q = trim([Fraction(c) for c in p])
    if q[-1] < 0:
        q = poly_neg(q)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = sign_at(q, mid)
        if s == 0:
            return mid, mid
        if s > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


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


def lcm_of(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


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
    _factors, out = _strip_cyclotomic(to_primitive_int(p))
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
        self.minpoly_int = to_primitive_int(minpoly)
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
        return self._coerce(other) * self.inverse()

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
    from .linalg import matrix_power

    ident = identity_matrix(len(mat))
    for k in sorted(candidate_orders):
        if matrix_power(mat, k) == ident:
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
