"""Elements of O+(L): validation, exact classification, entropy, fixed rays.

Classification never touches a float eigensolver.  A real eigenvalue
above 1 is detected by Sturm sign counting on the integer characteristic
polynomial and bracketed by rational bisection; the remaining elements
split into finite order (elliptic) and unipotent-type (parabolic) through
exact cyclotomic factorization and matrix powering.  All of this runs in
Python ints; Fractions appear only as the endpoints of the scale's bracket
and as the coefficients of the scale's field Q(lambda).

Fixed boundary rays: the parabolic one is an integer kernel vector of the
form on the integer kernel of M - I; the loxodromic eigenrays are read off
`linalg.gauss_jordan` over Q(lambda), the one Gauss-Jordan elimination of
the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg, polynomials as pol
from .errors import (DimensionMismatch, EllipticHasNoBoundaryFixedPoint,
                     InvalidParameter, NonIntegralResult, NotOrthogonal,
                     OrderCapExceeded, WrongComponent, WrongNorm)
from .lattice import GramLattice, coords_of
from .model import BoundaryRay, ConeOrientation
from .record import Record

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
LOXODROMIC = "loxodromic"

ORDER_CAP = 10**6
_BRACKET_EPS = Fraction(1, 10**16)


class Classification(Record):
    def __init__(self, kind: str, order: int | None = None,
                 scale_minpoly: tuple[int, ...] | None = None,
                 scale_field: object | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)                  # elliptic only
        object.__setattr__(self, "scale_minpoly", scale_minpoly)  # loxodromic only
        # the RealAlgebraicField of the scale
        object.__setattr__(self, "scale_field", scale_field)

    def as_json(self) -> dict:
        out = {"class": self.kind}
        if self.order is not None:
            out["order"] = self.order
        if self.scale_minpoly is not None:
            out["lambda_minpoly"] = list(self.scale_minpoly)
        return out


class Isometry:
    """Integer matrix preserving the form and the chosen cone component.

    Classification is computed lazily, exactly once.
    """

    __slots__ = ("orientation", "matrix", "_charpoly", "_classification")

    def __init__(self, orientation: ConeOrientation, matrix):
        self.orientation = orientation
        self.matrix = matrix
        self._charpoly = None
        self._classification = None

    @property
    def lattice(self) -> GramLattice:
        return self.orientation.lattice

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.matrix == other.matrix
                and self.orientation == other.orientation)

    def __hash__(self):
        return hash((self.orientation, self.matrix))

    def apply(self, v):
        return linalg.mat_vec(self.matrix, coords_of(v))

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

    @property
    def charpoly(self) -> list[int]:
        if self._charpoly is None:
            self._charpoly = pol.charpoly(self.matrix)
        return self._charpoly

    @property
    def classification(self) -> Classification:
        if self._classification is None:
            self._classification = _classify(self)
        return self._classification

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


def _classify(g: Isometry) -> Classification:
    p = g.charpoly
    q = pol.squarefree_part(p)
    above = pol.count_roots_gt(q, Fraction(1))
    if above > 1:
        raise ArithmeticError(
            "characteristic polynomial has more than one root > 1; input is "
            "not an isometry of a (1,n) form")
    if above == 1:
        lo, hi = pol.bracket_largest_root_above(q, Fraction(1))
        lo, hi = pol.refine_bracket(q, lo, hi, _BRACKET_EPS)
        minpoly = pol.minimal_polynomial_of_root(q, lo, hi)
        lo, hi = pol.refine_bracket(minpoly, lo, hi, _BRACKET_EPS)
        fld = pol.RealAlgebraicField(minpoly, lo, hi)
        return Classification(kind=LOXODROMIC, scale_minpoly=tuple(minpoly),
                              scale_field=fld)
    factors = pol.cyclotomic_factorization(p)
    if factors is None:
        raise ArithmeticError(
            "characteristic polynomial is neither expanding nor of finite "
            "multiplicative type; input is not an isometry of a (1,n) form")
    order_bound = math.lcm(*(d for d, _ in factors))
    if order_bound > ORDER_CAP:
        raise OrderCapExceeded(f"elliptic order bound {order_bound} exceeds cap")
    order = pol.identity_power_order(g.matrix, pol.divisors(order_bound))
    if order is not None:
        return Classification(kind=ELLIPTIC, order=order)
    return Classification(kind=PARABOLIC)


def classify(g: Isometry) -> Classification:
    return g.classification


def spectral_radius_interval(g: Isometry, eps: Fraction = Fraction(1, 10**15)):
    """Rational bracket of the spectral radius (width <= eps)."""
    cls = g.classification
    if cls.kind != LOXODROMIC:
        return Fraction(1), Fraction(1)
    return cls.scale_field.bracket(eps)


def entropy(g: Isometry) -> float:
    """log of the spectral radius: 0 exactly unless loxodromic."""
    cls = g.classification
    if cls.kind != LOXODROMIC:
        return 0.0
    lo, hi = cls.scale_field.bracket(Fraction(1, 10**16))
    return math.log(float((lo + hi) / 2))


def fixed_boundary_points(g: Isometry) -> list[BoundaryRay]:
    """Boundary rays fixed by a parabolic or loxodromic isometry.

    Parabolic: the unique rational ray, extracted as the radical of the
    form restricted to the fixed space ker(M - I).  Loxodromic: the two
    eigenrays for the scale and its inverse, with exact coordinates in the
    real algebraic field of the scale; their coordinates are irrational.
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
    # loxodromic: solve (M - s I) v = 0 over Q(s) for s the scale and 1/s
    fld = cls.scale_field
    lam = fld.generator()
    rays = []
    for eigval in (lam, lam.inverse()):
        ray = _algebraic_eigenray(g, fld, eigval)
        rays.append(ray)
    return rays


def _algebraic_eigenray(g: Isometry, fld, eigval) -> BoundaryRay:
    n = g.lattice.rank
    rows = [[fld.rational(g.matrix[i][j]) - (eigval if i == j else fld.rational(0))
             for j in range(n)] for i in range(n)]
    kernel = linalg.rref_kernel(*linalg.gauss_jordan(rows), n,
                                fld.rational(0), fld.rational(1))
    if len(kernel) != 1:
        raise ArithmeticError("expanding eigenvalue of a (1,n) isometry is simple")
    vec = kernel[0]
    # orient towards the cone: the pairing with the base is nonzero exactly
    pairing = fld.rational(0)
    base = g.orientation.base
    gram = g.lattice.gram
    for i in range(n):
        coef = sum(gram[i][j] * base[j] for j in range(n))
        pairing = pairing + vec[i] * fld.rational(coef)
    if pairing.sign() < 0:
        vec = [-c for c in vec]
    rational = all(c.is_rational() for c in vec)
    return BoundaryRay(orientation=g.orientation, ray=tuple(vec), rational=rational)


# -- element factories ------------------------------------------------------------

def reflection(orientation: ConeOrientation, delta) -> Isometry:
    """Reflection in a norm -2 vector: v -> v + (v, delta) delta."""
    lat = orientation.lattice
    d = coords_of(delta)
    if lat.norm(d) != -2:
        raise WrongNorm(f"reflection vectors must have norm -2, got {lat.norm(d)}")
    n = lat.rank
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        pe = lat.pair(e, d)
        cols.append(tuple(e[i] + pe * d[i] for i in range(n)))
    mat = tuple(zip(*cols))
    return make_isometry(orientation, mat)


def eichler_transvection(orientation: ConeOrientation, e, a) -> Isometry:
    """Unipotent isometry fixing the isotropic vector e.

    v -> v + (v,e) a - (v,a) e - (a,a)/2 (v,e) e; integral when (a,a) is
    even, which is automatic in an even lattice.
    """
    lat = orientation.lattice
    ev, av = coords_of(e), coords_of(a)
    if lat.norm(ev) != 0:
        raise InvalidParameter("transvection axis must be isotropic")
    if lat.pair(ev, av) != 0:
        raise InvalidParameter("transvection translation must be orthogonal to the axis")
    aa = lat.norm(av)
    if aa % 2 != 0:
        raise NonIntegralResult("translation vector has odd norm; matrix not integral")
    half = aa // 2
    n = lat.rank
    cols = []
    for j in range(n):
        basis = tuple(1 if i == j else 0 for i in range(n))
        pe = lat.pair(basis, ev)
        pa = lat.pair(basis, av)
        col = tuple(basis[i] + pe * av[i] - pa * ev[i] - half * pe * ev[i]
                    for i in range(n))
        cols.append(col)
    mat = tuple(zip(*cols))
    return make_isometry(orientation, mat)
