"""Exact univariate polynomial arithmetic and real-root isolation.

Polynomials are coefficient lists ordered low degree to high.  The
classification path works on integer polynomials in Python ints: the
characteristic polynomial (Le Verrier's power sums from half the matrix
powers, Newton's identities with checked divisions, the determinant as
an independent check), Sturm chains and squarefree parts (primitive
pseudo-remainders), exact division, and signs at a rational point num/den.  A rational point is a
pair (num, den) and a bracket (lo/den, hi/den] a triple (lo, hi, den),
always with den > 0; bisection doubles the denominator and never reduces
it.  The scale's field (RealAlgebraicField,
AlgebraicNumber) holds elements of Z[alpha] for a monic minimal polynomial:
integer coefficients, products reduced by integer long division, and no
division at all.
Real-root counting uses Sturm chains, never float eigensolvers:
loxodromic-vs-parabolic near scaling factor 1 is hostile to floats (Salem
numbers accumulate at 1).
"""

from __future__ import annotations

from math import gcd

from _operator import mul

from .linalg import bareiss_det, dot, identity_matrix, mat_mul, matrix_power
from .record import memo

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

    Le Verrier's power sums: with h = ceil(n/2), form A, ..., A^h (h - 1
    products) and read each s_k = tr(A^k), k <= n, as tr(A^a A^b) =
    sum_ij (A^a)_ij (A^b)_ji with a + b = k.  Newton's identities give the
    coefficients, c_{n-k} = -(s_k + c_{n-1} s_{k-1} + ... + c_{n-k+1} s_1) / k,
    each division checked exact.  The constant term must equal
    (-1)^n det(A) by Bareiss elimination, a check independent of the traces.
    """
    n = len(mat)
    half = (n + 1) // 2
    powers = [mat]
    for _ in range(half - 1):
        powers.append(mat_mul(mat, powers[-1]))
    sums = [sum(p[i][i] for i in range(n)) for p in powers]
    # s_(half + b) = tr(A^half A^b): row i of A^half against column i of A^b
    top = powers[-1]
    sums += [sum(map(dot, top, zip(*p))) for p in powers[:n - half]]
    coeffs = [1]  # c_n, c_(n-1), ...: coeffs[k] = c_(n-k)
    for k in range(1, n + 1):
        c, r = divmod(-sum(map(mul, coeffs, reversed(sums[:k]))), k)
        if r:
            raise ArithmeticError(f"Newton's identity for s_{k} is not divisible by {k}")
        coeffs.append(c)
    if n and coeffs[n] != (-1) ** n * bareiss_det(mat):
        raise ArithmeticError("charpoly's constant term is not (-1)^n det A")
    return coeffs[::-1]


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


def count_roots_in(p, bracket, chain=None) -> int:
    """Distinct real roots of squarefree p in the half-open interval
    (lo/den, hi/den] of the bracket (lo, hi, den).  `chain`, if given, is
    sturm_chain(p)."""
    lo, hi, den = bracket
    chain = sturm_chain(p) if chain is None else chain
    return variations_at(chain, lo, den) - variations_at(chain, hi, den)


def count_roots_gt(p, num: int, den: int, chain=None) -> int:
    """Distinct real roots of squarefree p in (num/den, +inf), den > 0.
    `chain`, if given, is sturm_chain(p), made once by a caller that
    needs it again."""
    chain = sturm_chain(p) if chain is None else chain
    return variations_at(chain, num, den) - variations_at_pos_inf(chain)


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


def bracket_largest_root_above(p, num: int, den: int, chain=None,
                               cauchy=None) -> tuple[int, int, int]:
    """Isolating bracket (lo, hi, den), of width < 1, for the unique root of
    squarefree p in (num/den, inf), den > 0.  `chain`, if given, is
    sturm_chain(p); the chain of -p is its negation, which has the same
    sign variations, so either serves.  Bisection starts from num/den and
    the Cauchy bound of `cauchy`, p by default; a squarefree multiple of p
    by a factor positive above num/den has the same signs and roots there,
    so bisecting p from its bound gives the bracket bisecting it would.

    Raises ArithmeticError unless exactly one such root exists (it is then
    the largest real root), or if _BRACKET_STEPS bisections do not isolate it.
    """
    q = _positive_leading(p)
    chain = sturm_chain(q) if chain is None else chain
    if variations_at(chain, num, den) - variations_at_pos_inf(chain) != 1:
        raise ArithmeticError("expected exactly one root above the bracket start")
    # from num/den to b's Cauchy bound 1 + max|c_i| / lc, over the
    # denominator den lc; beyond the largest root the (positive-leading)
    # polynomial is positive
    b = q if cauchy is None else _positive_leading(cauchy)
    lo = num * b[-1]
    hi = (b[-1] + max(abs(c) for c in b[:-1])) * den
    den *= b[-1]
    for _ in range(_BRACKET_STEPS):
        lo, hi, den = _halve(q, lo, hi, den)
        if lo == hi or (hi - lo < den
                        and variations_at(chain, lo, den) - variations_at(chain, hi, den) == 1):
            return lo, hi, den
    raise ArithmeticError(f"no isolating bracket after {_BRACKET_STEPS} bisections")


def refine_bracket(p, bracket, eps_den: int) -> tuple[int, int, int]:
    """Bisect a bracket (lo, hi, den) of a simple root down to width
    <= 1/eps_den."""
    q = _positive_leading(p)
    lo, hi, den = bracket
    while (hi - lo) * eps_den > den:
        lo, hi, den = _halve(q, lo, hi, den)
    return lo, hi, den


# -- cyclotomic factors ---------------------------------------------------------

def _totients(top: int) -> list[int]:
    """phi(d) for d = 0..top by one sieve: a prime p, met while phi(p) is
    still p, takes a factor 1 - 1/p off phi of each of its multiples."""
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


@memo
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


@memo
def _cyclotomic_candidates(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(d, phi(d), Phi_d) for every order d with phi(d) <= n, increasing in
    d; phi(d) >= sqrt(d/2) forces d <= 2 n^2."""
    phi = _totients(2 * n * n + 2)
    return tuple((d, phi[d], cyclotomic(d)) for d in range(1, len(phi)) if phi[d] <= n)


def _strip_cyclotomic(p) -> tuple[list[tuple[int, int]], list[int]]:
    """Divide every cyclotomic factor out of the integer polynomial p.

    Returns ([(order, multiplicity), ...], remainder), the remainder with
    positive leading coefficient; the candidates are all orders d with
    phi(d) <= deg p.
    """
    rem = trim(p)
    if rem[-1] < 0:
        rem = poly_neg(rem)
    factors = []
    for d, phi, cyc in _cyclotomic_candidates(len(rem) - 1):
        if phi >= len(rem):  # deg Phi_d > deg rem
            continue
        mult = 0
        while (q := poly_int_div_exact(rem, cyc)) is not None:
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


def minimal_polynomial_of_root(p, bracket) -> list[int]:
    """Minimal polynomial of the scale lambda > 1, the root of p in the
    bracket (lo, hi, den).

    Premise: p is the squarefree characteristic polynomial of an isometry
    of a (1, n) form with exactly one root > 1, which the caller
    establishes by a Sturm count.  The other roots are then 1/lambda and
    roots on the unit circle.  By Kronecker's theorem an irreducible
    integer factor whose roots all lie on the unit circle is cyclotomic.
    A factor holding 1/lambda but not lambda would have an integer
    constant term of absolute value 1/lambda < 1, which is impossible.
    So the minimal polynomial of lambda is what remains of p once its
    cyclotomic factors are divided out.  Root membership is still decided
    by an exact Sturm count, so the result is certificate-grade.
    isometry._classify_charpoly applies the same argument to the
    charpoly itself and does not call this function.
    """
    _factors, out = _strip_cyclotomic(primitive(p))
    if count_roots_in(out, bracket) != 1:
        raise ArithmeticError("bracket does not isolate a root of the non-cyclotomic part")
    return out


# -- arithmetic in Z[alpha] -----------------------------------------------------

def _reduce(p, f) -> tuple[int, ...]:
    """The integer polynomial p modulo the monic integer polynomial f, by
    long division in integers, as deg f coefficients."""
    d = len(f) - 1
    r = list(p) + [0] * (d - len(p))
    for k in range(len(r) - 1, d - 1, -1):
        c = r.pop()
        if c:
            for i in range(d):
                r[k - d + i] -= c * f[i]
    return tuple(r)


class RealAlgebraicField:
    """Q(alpha) for alpha the unique root of a monic irreducible integer
    polynomial inside a bracket (lo, hi, den).  Its elements are those of
    the ring Z[alpha], which is all that the eigenrays of an integer matrix
    for the algebraic integer alpha need."""

    def __init__(self, minpoly, bracket):
        self.minpoly = trim(minpoly)
        if self.minpoly[-1] != 1:
            raise ValueError("Z[alpha] arithmetic needs a monic minimal polynomial")
        self.degree = len(self.minpoly) - 1
        self._bracket = tuple(bracket)

    def element(self, coeffs) -> "AlgebraicNumber":
        """The integer polynomial coeffs (low degree first) at alpha."""
        return AlgebraicNumber(self, _reduce(coeffs, self.minpoly))

    def bracket(self, eps_den: int | None = None) -> tuple[int, int, int]:
        """(lo, hi, den), refined first to width <= 1/eps_den if given."""
        if eps_den is not None:
            self._bracket = refine_bracket(self.minpoly, self._bracket, eps_den)
        return self._bracket

    def approx_root(self) -> float:
        lo, hi, den = self.bracket(10**18)
        return (lo + hi) / (2 * den)


class AlgebraicNumber:
    """Element of Z[alpha] for a RealAlgebraicField: integer coefficients,
    exact addition, negation and multiplication, and exact signs."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: RealAlgebraicField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed algebraic fields")
            return other
        if isinstance(other, int):
            return self.field.element([other])
        raise TypeError(f"{other!r} is not an element of Z[alpha]")

    def __bool__(self):
        return any(self.coeffs)

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

    def __mul__(self, other):
        if isinstance(other, int):
            # an integer scalar keeps the degree: nothing to reduce
            return AlgebraicNumber(self.field, tuple(c * other for c in self.coeffs))
        other = self._coerce(other)
        return self.field.element(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign via interval Horner on a shrinking root bracket.

        The bracket is held in integers, a/den < alpha <= b/den, and the
        interval Horner runs on values scaled by den^k after k steps, which
        keeps every comparison since den > 0.  Each round that cannot decide
        halves the bracket twice, down to a quarter of its width.
        """
        if not self:
            return 0
        fld = self.field
        a, b, den = fld.bracket()
        for rounds in range(256):
            vlo = vhi = 0
            scale = 1
            for c in reversed(self.coeffs):
                scale *= den
                cands = (vlo * a, vlo * b, vhi * a, vhi * b)
                vlo, vhi = min(cands) + c * scale, max(cands) + c * scale
            if vlo > 0 or vhi < 0:
                if rounds:
                    fld._bracket = (a, b, den)
                return 1 if vlo > 0 else -1
            for _ in range(2):
                if a != b:
                    a, b, den = _halve(fld.minpoly, a, b, den)
        raise ArithmeticError("sign refinement did not converge")

    def approx(self) -> float:
        x = self.field.approx_root()
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self):
        return f"AlgebraicNumber({list(self.coeffs)})"


def identity_power_order(mat, k: int) -> bool:
    """Whether mat^k = I."""
    return matrix_power(mat, k) == identity_matrix(len(mat))
