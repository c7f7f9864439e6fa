"""Elements of O+(L): validation, exact classification, entropy, fixed rays.

Classification never touches a float eigensolver.  The cyclotomic
factors of the integer characteristic polynomial are divided out first.
What remains is 1 for an elliptic or parabolic element, which one matrix
power A^L, L the lcm of the cyclotomic orders, tells apart.  Otherwise
it is the minimal polynomial of the scale lambda > 1, and one Sturm chain
on it counts the roots above 1 and drives the rational bisection that
brackets lambda.  All of this runs in Python ints; the scale's bracket is
a triple (lo, hi, den) of ints.  The stage that reads only the
characteristic polynomial (the cyclotomic factors, the Sturm chain, the
minimal polynomial and bracket, or the order L) is shared per process,
keyed by the exact charpoly; the matrix power and each loxodromic
element's scale field and fixed rays belong to the element.  An entropy
report computes none of this per element: it classifies the first
element of each conjugacy class of words and gives the class's other
elements that result.

Fixed boundary rays: the parabolic one is an integer kernel vector of the
form on the integer kernel of M - I.  The loxodromic eigenrays are columns
of adj(lambda I - M) for the scale lambda, an algebraic integer, so their
coordinates lie in Z[lambda]; the ray for 1/lambda is the one of M^-1 for
lambda.  No division in Q(lambda) is needed.
"""

from __future__ import annotations

import math

from . import linalg, polynomials as pol
from .errors import (DimensionMismatch, EllipticHasNoBoundaryFixedPoint,
                     InvalidParameter, NonIntegralResult, NotOrthogonal,
                     OrderCapExceeded, WrongComponent, WrongNorm)
from .lattice import GramLattice
from .model import BoundaryRay, ConeOrientation
from .record import Record, cached_property, memo

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
LOXODROMIC = "loxodromic"

ORDER_CAP = 10**6
# brackets of the scale are refined to width <= 1 / _BRACKET_EPS
_BRACKET_EPS = 10**16


class Classification(Record):
    def __init__(self, kind: str, order: int | None = None,
                 scale_field: object | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)  # elliptic only
        # the RealAlgebraicField of the scale; loxodromic only
        object.__setattr__(self, "scale_field", scale_field)

    @property
    def scale_minpoly(self) -> tuple[int, ...] | None:
        """The scale's minimal polynomial, read off its field; loxodromic only."""
        return None if self.scale_field is None else tuple(self.scale_field.minpoly)

    def as_json(self) -> dict:
        out = {"class": self.kind}
        if self.order is not None:
            out["order"] = self.order
        if self.scale_minpoly is not None:
            out["lambda_minpoly"] = list(self.scale_minpoly)
        return out


class Isometry(Record):
    """Integer matrix preserving the form and the chosen cone component.

    Classification is computed lazily, exactly once per element; its
    charpoly-only stage is shared per process with every element of the
    same exact charpoly, while the order test and fixed rays are its own.
    """

    def __init__(self, orientation: ConeOrientation, matrix):
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "matrix", matrix)

    @property
    def lattice(self) -> GramLattice:
        return self.orientation.lattice

    def apply(self, v):
        if len(v) != len(self.matrix):
            raise DimensionMismatch(f"vectors must have length {len(self.matrix)}")
        return linalg.mat_vec(self.matrix, v)

    def compose(self, other: "Isometry") -> "Isometry":
        if self.orientation != other.orientation:
            raise DimensionMismatch("isometries live over different ambients")
        return Isometry(self.orientation, linalg.mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        """g^-1 = adj(G) g^t G / det G, divided exactly in integers.
        Precondition: g^t G g = G; make_isometry establishes it, and compose,
        power and inverse keep it."""
        lat, det = self.lattice, self.lattice.determinant
        prod = linalg.mat_mul(lat.adjugate,
                              linalg.mat_mul(linalg.transpose(self.matrix), lat.gram))
        if any(x % det for row in prod for x in row):
            raise ArithmeticError("adj(G) g^t G is not divisible by det G: g^t G g != G")
        return Isometry(self.orientation, tuple(tuple(x // det for x in row) for row in prod))

    def power(self, k: int) -> "Isometry":
        if k < 0:
            return self.inverse().power(-k)
        return Isometry(self.orientation, linalg.matrix_power(self.matrix, k))

    @cached_property
    def charpoly(self) -> list[int]:
        return pol.charpoly(self.matrix)

    @cached_property
    def classification(self) -> Classification:
        return _classify(self)

    def __repr__(self):
        return f"Isometry({[list(r) for r in self.matrix]})"


def make_isometry(orientation: ConeOrientation, matrix) -> Isometry:
    """Validate M^t G M = G exactly and that M preserves the cone component."""
    lat = orientation.lattice
    mat = linalg.to_int_matrix(matrix)
    if len(mat) != lat.rank:
        raise DimensionMismatch(f"matrix rank {len(mat)} != lattice rank {lat.rank}")
    mt = linalg.transpose(mat)
    if linalg.mat_mul(mt, linalg.mat_mul(lat.gram, mat)) != lat.gram:
        raise NotOrthogonal("matrix does not preserve the bilinear form")
    v0 = orientation.base
    if linalg.pairing(lat.gram, linalg.mat_vec(mat, v0), v0) <= 0:
        raise WrongComponent("matrix swaps the two cone components")
    return Isometry(orientation, mat)


@memo
def _classify_charpoly(p: tuple[int, ...]):
    """The stage of classification that reads only the charpoly p.

    Loxodromic: (minpoly, bracket) of the scale, the bracket refined to
    width <= 1/_BRACKET_EPS.  Otherwise: the lcm of the cyclotomic orders,
    the order of an element of finite order (see _classify).  Shared by every element with
    this charpoly for the life of the process; a raise is not cached.

    The cyclotomic factors are divided out first.  An isometry of a (1, n)
    form has at most one eigenvalue lambda > 1, then simple, with 1/lambda
    the only other one off the unit circle.  By Kronecker's theorem a monic
    irreducible integer factor whose roots all lie on the unit circle is
    cyclotomic, and a factor holding 1/lambda but not lambda would have an
    integer constant term of absolute value 1/lambda < 1.  So either
    nothing remains (elliptic or parabolic, and no Sturm chain is built)
    or the remainder is the minimal polynomial of lambda, and one Sturm
    chain on it counts the roots above 1, isolates lambda and checks the
    bracket.  Every cyclotomic factor is positive above 1, so bisection on
    the remainder takes the steps it takes on the squarefree charpoly q;
    it starts at q's Cauchy bound, which fixes the bracket.  A remainder
    with a repeated factor, which no isometry's charpoly has, is replaced
    by its squarefree part.
    """
    factors, rem = pol._strip_cyclotomic(p)
    if rem == [1]:
        order = math.lcm(*(d for d, _ in factors))
        if order > ORDER_CAP:
            raise OrderCapExceeded(f"elliptic order bound {order} exceeds cap")
        return order
    chain = pol.sturm_chain(rem)
    if pol.degree(chain[-1]) > 0:
        rem = pol.squarefree_part(rem)
        chain = pol.sturm_chain(rem)
    above = pol.count_roots_gt(rem, 1, 1, chain)
    if above > 1:
        raise ArithmeticError(
            "characteristic polynomial has more than one root > 1; input is "
            "not an isometry of a (1,n) form")
    if above == 0:
        raise ArithmeticError(
            "characteristic polynomial is neither expanding nor of finite "
            "multiplicative type; input is not an isometry of a (1,n) form")
    q = rem
    for d, _ in factors:
        q = pol.poly_mul(q, pol.cyclotomic(d))
    bracket = pol.bracket_largest_root_above(rem, 1, 1, chain, cauchy=q)
    bracket = pol.refine_bracket(rem, bracket, _BRACKET_EPS)
    if pol.count_roots_in(rem, bracket, chain) != 1:
        raise ArithmeticError("bracket does not isolate a root of the non-cyclotomic part")
    return tuple(rem), bracket


def _classify(g: Isometry) -> Classification:
    """Classify g from the shared charpoly stage and, unless loxodromic,
    one matrix power.

    With a cyclotomic charpoly, g is elliptic exactly when g^L = I for L
    the lcm of the cyclotomic orders, and its order is then L.  Each
    primitive d-th root of unity, for a factor Phi_d, is an eigenvalue, so
    g^k = I forces d | k for every such d, that is, L | k.  A finite-order
    matrix is semisimple and its eigenvalues' orders divide L, so then
    g^L = I.  If g^L != I, g has infinite order and is parabolic.
    """
    shared = _classify_charpoly(tuple(g.charpoly))
    if isinstance(shared, tuple):
        minpoly, bracket = shared
        # a field of its own: sign() narrows the bracket it holds
        return Classification(kind=LOXODROMIC,
                              scale_field=pol.RealAlgebraicField(minpoly, bracket))
    if pol.identity_power_order(g.matrix, shared):
        return Classification(kind=ELLIPTIC, order=shared)
    return Classification(kind=PARABOLIC)


def entropy(g: Isometry) -> float:
    """log of the spectral radius: 0 exactly unless loxodromic."""
    cls = g.classification
    if cls.kind != LOXODROMIC:
        return 0.0
    lo, hi, den = cls.scale_field.bracket(_BRACKET_EPS)
    return math.log((lo + hi) / (2 * den))


def fixed_boundary_points(g: Isometry) -> list[BoundaryRay]:
    """Boundary rays fixed by a parabolic or loxodromic isometry.

    Parabolic: the unique rational ray, extracted as the radical of the
    form restricted to the fixed space ker(M - I).  Loxodromic: the two
    eigenrays for the scale and its inverse, with exact coordinates in
    Z[lambda] for the scale lambda; their coordinates are irrational.
    """
    cls = g.classification
    if cls.kind == ELLIPTIC:
        raise EllipticHasNoBoundaryFixedPoint("elliptic isometries fix interior points only")
    lat, o = g.lattice, g.orientation
    if cls.kind == PARABOLIC:
        rows = [tuple(x - (i == j) for j, x in enumerate(row))
                for i, row in enumerate(g.matrix)]
        kernel = linalg.kernel_basis(rows)
        if not kernel:
            raise ArithmeticError("parabolic isometry must fix a nonzero vector")
        # radical of gram restricted to the fixed space
        rad = linalg.kernel_basis([[lat.pair(u, v) for v in kernel] for u in kernel])
        if len(rad) != 1:
            raise ArithmeticError("parabolic fixed space has a one-dimensional radical")
        ray = linalg.mat_vec(linalg.transpose(kernel), rad[0])
        prim = linalg.primitive_vector(ray)
        if lat.pair(prim, o.base) < 0:
            prim = linalg.vec_neg(prim)
        if lat.norm(prim) != 0:
            raise ArithmeticError("parabolic fixed ray is not isotropic")
        return [BoundaryRay(orientation=o, ray=prim, rational=True)]
    # loxodromic: the eigenray of M for the scale, and that of M^-1 for it
    return [_scale_eigenray(h, cls.scale_field) for h in (g, g.inverse())]


def _scale_eigenray(h: Isometry, fld) -> BoundaryRay:
    """The eigenray of h for the scale lambda, a simple eigenvalue, with
    coordinates in Z[lambda].

    Every nonzero column of adj(lambda I - M) spans the eigenline.  Column j
    of adj(x I - M) is sum_k u_k x^(n-k) with u_1 = e_j and u_(k+1) =
    M u_k + c_(n-k) e_j (Faddeev-LeVerrier; c the charpoly coefficients).
    The first column nonzero modulo the minimal polynomial is divided by
    the content of its coefficients and oriented towards the cone.
    """
    n, c = h.lattice.rank, h.charpoly
    for j in range(n):
        us = [[int(i == j) for i in range(n)]]
        for k in range(1, n):
            u = list(linalg.mat_vec(h.matrix, us[-1]))
            u[j] += c[n - k]
            us.append(u)
        # coordinate i is the polynomial sum_k u_k[i] x^(n-k), low degree first
        vec = [fld.element([u[i] for u in reversed(us)]) for i in range(n)]
        if any(vec):
            break
    else:
        raise ArithmeticError("adj(lambda I - M) vanishes: the scale is not a simple eigenvalue")
    content = math.gcd(*(x for v in vec for x in v.coeffs))
    vec = [fld.element([x // content for x in v.coeffs]) for v in vec]
    # the pairing with the base is nonzero for a nonzero ray of the cone's boundary
    if linalg.dot(linalg.mat_vec(h.lattice.gram, h.orientation.base), vec).sign() < 0:
        vec = [-v for v in vec]
    return BoundaryRay(orientation=h.orientation, ray=tuple(vec), rational=False)


# -- element factories ------------------------------------------------------------

def reflection(orientation: ConeOrientation, delta) -> Isometry:
    """Reflection in a norm -2 vector: v -> v + (v, delta) delta, whose
    matrix is I + delta (G delta)^T."""
    lat = orientation.lattice
    norm = lat.norm(delta)
    if norm != -2:
        raise WrongNorm(f"reflection vectors must have norm -2, got {norm}")
    gd = linalg.mat_vec(lat.gram, delta)
    mat = tuple(tuple(int(i == j) + di * gj for j, gj in enumerate(gd))
                for i, di in enumerate(delta))
    return make_isometry(orientation, mat)


def eichler_transvection(orientation: ConeOrientation, e, a) -> Isometry:
    """Unipotent isometry fixing the isotropic vector e.

    v -> v + (v,e) a - (v,a) e - (a,a)/2 (v,e) e, whose matrix is
    I + a (Ge)^T - e (Ga)^T - (a,a)/2 e (Ge)^T; integral when (a,a) is
    even, which is automatic in an even lattice.
    """
    lat = orientation.lattice
    if lat.norm(e) != 0:
        raise InvalidParameter("transvection axis must be isotropic")
    if lat.pair(e, a) != 0:
        raise InvalidParameter("transvection translation must be orthogonal to the axis")
    aa = lat.norm(a)
    if aa % 2 != 0:
        raise NonIntegralResult("translation vector has odd norm; matrix not integral")
    half = aa // 2
    ge = linalg.mat_vec(lat.gram, e)
    ga = linalg.mat_vec(lat.gram, a)
    mat = tuple(tuple(int(i == j) + (ai - half * ei) * gej - ei * gaj
                      for j, (gej, gaj) in enumerate(zip(ge, ga)))
                for i, (ei, ai) in enumerate(zip(e, a)))
    return make_isometry(orientation, mat)
