"""Hyperboloid and ball models over a signature-(1,n) lattice.

Points are primitive integer rays inside the chosen positive cone;
numeric coordinates appear only at the final normalization step.
Distances and horoball membership compare squared quantities in
integers, so every verdict here is certificate-grade.
"""

from __future__ import annotations

import math
from . import linalg
from .errors import (BudgetExceeded, DifferentAmbient, InvalidParameter, NotInCone,
                     NotIsotropic, NotPrimitive, WrongSignature)
from .forms import first_norm_vector
from .lattice import GramLattice
from .record import Record, cached_property


class ConeOrientation(Record):
    """The component of {v.v > 0} containing the base vector.

    The base plays the role the ample class does for a Neron-Severi
    lattice: it orients everything downstream (points, boundary rays,
    isometry validation).
    """

    def __init__(self, lattice: GramLattice, base: tuple[int, ...]):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "base", base)
        p, q = self.lattice.signature
        if p != 1:
            raise WrongSignature(f"positive cone needs signature (1, n), got ({p}, {q})")
        if self.lattice.norm(self.base) <= 0:
            raise InvalidParameter("cone base vector must have positive norm")

    @cached_property
    def frame(self):
        """Rational orthogonal frame (base first) plus float normalizers:
        the pairs (u_k, d_k) of `gram_schmidt_frame` for f_k = u_k / d_k,
        the integers (u_k, u_k), and the floats sqrt(|(f_k, f_k)|)."""
        gram = self.lattice.gram
        frame = linalg.gram_schmidt_frame(gram, self.base)
        norms = [linalg.pairing(gram, u, u) for u, _ in frame]
        if norms[0] <= 0 or any(n >= 0 for n in norms[1:]):
            raise WrongSignature("frame norms are not (+, -, ..., -)")
        scales = [math.sqrt(abs(n / (d * d))) for n, (_, d) in zip(norms, frame)]
        return frame, norms, scales

    @cached_property
    def projection(self):
        """Integer rows w_k and denominators e_k > 0, in lowest terms, with
        (ray, f_k) / (f_k, f_k) = ray . w_k / e_k, which for f_k = u_k / d_k
        is ray . (G u_k) d_k / (u_k, u_k)."""
        frame, norms, _ = self.frame
        out = []
        for (u, d), n in zip(frame, norms):
            row = [x * d for x in linalg.mat_vec(self.lattice.gram, u)]
            g = math.gcd(n, *row) if n > 0 else -math.gcd(n, *row)
            out.append((tuple(x // g for x in row), n // g))
        return tuple(out)


def pick_cone(lattice: GramLattice, base=None) -> ConeOrientation:
    """Designate a positive cone, finding a small base vector when not given."""
    if base is not None:
        return ConeOrientation(lattice=lattice, base=tuple(base))
    tested = 0  # one candidate budget for the whole norm x height search
    for height in (1, 2, 3, 5, 8):
        for m in range(1, 4 * height * height + 1):
            best, tested = first_norm_vector(lattice, m, height, tested=tested)
            if best is not None:
                return ConeOrientation(lattice=lattice, base=best)
    raise InvalidParameter("no small positive-norm vector found; pass a base explicitly")


class HyperboloidPoint(Record):
    """Exact rational ray inside the positive cone (a point of H^n)."""

    def __init__(self, orientation: ConeOrientation, ray: tuple[int, ...]):
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "ray", ray)  # primitive integer representative

    @property
    def lattice(self) -> GramLattice:
        return self.orientation.lattice

    @property
    def norm(self) -> int:
        return self.lattice.norm(self.ray)

    def __repr__(self):
        return f"HyperboloidPoint{self.ray}"


class BoundaryRay(Record):
    """Exact isotropic ray in the closure of the positive cone."""

    def __init__(self, orientation: ConeOrientation, ray: tuple, rational: bool = True):
        object.__setattr__(self, "orientation", orientation)
        # integer (rational case) or algebraic-number coordinates
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "rational", rational)

    def __repr__(self):
        return f"BoundaryRay{tuple(self.ray)}(rational={self.rational})"


def point_from_ray(orientation: ConeOrientation, ray) -> HyperboloidPoint:
    """Normalize an exact ray (ints, or rationals with `numerator` and
    `denominator`) to a point of H^n."""
    ray = tuple(ray)
    if not any(ray):
        raise NotInCone("the zero ray has norm 0")
    prim = linalg.primitive_vector(ray)
    lat = orientation.lattice
    if lat.norm(prim) <= 0:
        raise NotInCone(f"ray {prim} has nonpositive norm")
    if lat.pair(prim, orientation.base) < 0:
        prim = linalg.vec_neg(prim)
    return HyperboloidPoint(orientation=orientation, ray=prim)


def boundary_from_ray(orientation: ConeOrientation, ray) -> BoundaryRay:
    prim = linalg.primitive_vector(tuple(ray))
    lat = orientation.lattice
    if lat.norm(prim) != 0:
        raise NotIsotropic(f"ray {prim} has nonzero norm {lat.norm(prim)}")
    if lat.pair(prim, orientation.base) < 0:
        prim = linalg.vec_neg(prim)
    return BoundaryRay(orientation=orientation, ray=prim, rational=True)


def distance(x: HyperboloidPoint, y: HyperboloidPoint) -> float:
    """Hyperbolic distance: arccosh of the normalized pairing.

    The square of the pairing ratio, p^2 / (N_x N_y), is compared with 1 in
    integers and rounded once; a single sqrt and arccosh at the end keep
    the result accurate to ~1e-15 relative.
    """
    if x.orientation != y.orientation:
        raise DifferentAmbient("points live over different lattices or cones")
    lat = x.lattice
    p = lat.pair(x.ray, y.ray)
    norms = lat.norm(x.ray) * lat.norm(y.ray)
    if p * p <= norms:
        return 0.0
    return math.acosh(math.sqrt(p * p / norms))


# -- horoballs -----------------------------------------------------------------

class Horoball(Record):
    """Open horoball {x : (x, center) < num/den} at a primitive integral
    cusp; bound is the pair (num, den) of positive ints."""

    def __init__(self, center: BoundaryRay, bound: tuple[int, int] = (1, 2)):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "bound", bound)
        if not (bound[0] > 0 and bound[1] > 0):
            raise InvalidParameter("horoball bound must be a positive num/den pair")
        if not self.center.rational:
            raise NotIsotropic("horoball centers must be rational boundary rays")
        if math.gcd(*self.center.ray) != 1:
            raise NotPrimitive("horoball center must be primitive integral")


def horoball_contains(ball: Horoball, x: HyperboloidPoint) -> bool:
    """Exact membership test: (x, e) < num/den in integers.

    For the normalized point, (x, e) = p / sqrt(N) with p = (ray, e) and
    N = ray.ray; squaring preserves the order since both sides are positive,
    so p^2 den^2 < num^2 N decides it.
    """
    if ball.center.orientation != x.orientation:
        raise DifferentAmbient("horoball and point have different ambients")
    lat = x.lattice
    p = lat.pair(x.ray, ball.center.ray)
    if p <= 0:
        return False  # opposite cone; cannot be inside an open horoball
    num, den = ball.bound
    return p * p * den * den < num * num * lat.norm(x.ray)


# -- model conversions -----------------------------------------------------------

def minkowski_coords(orientation: ConeOrientation, ray) -> tuple[float, ...]:
    """Float coordinates of the ray in the orthonormalized frame.

    Index 0 is the timelike coordinate; (a0, a1, ..., an) satisfies
    ray.ray = a0^2 - sum ai^2 up to rounding.  Each coordinate is one
    dot product and one true division; for an integer ray these are exact
    until the division, which rounds correctly, as float() of the exact
    rational does.  A float ray (an irrational boundary ray's approximation)
    goes through the same integer rows.
    """
    _, _, scales = orientation.frame
    return tuple(linalg.dot(ray, u) / d * s
                 for (u, d), s in zip(orientation.projection, scales))


def to_ball(orientation: ConeOrientation, obj) -> tuple[float, ...]:
    """Conformal ball coordinates of a point or boundary ray.

    The normalized cone base maps to the origin; boundary rays land on the
    unit sphere.  A ray whose frame coordinates do not fit in a float, such
    as a deep point of a loxodromic orbit, raises BudgetExceeded.
    """
    try:
        if isinstance(obj, HyperboloidPoint):
            a = minkowski_coords(orientation, obj.ray)
            s = math.sqrt(obj.norm)  # exact integer norm, one rounding
            x0 = a[0] / s
            return tuple(x / s / (1.0 + x0) for x in a[1:])
        if isinstance(obj, BoundaryRay):
            ray = obj.ray if obj.rational else [c.approx() for c in obj.ray]
            a = minkowski_coords(orientation, ray)
            return tuple(x / a[0] for x in a[1:])
    except OverflowError:
        raise BudgetExceeded("the ray's coordinates exceed the float range "
                             "of the ball model") from None
    raise InvalidParameter(f"cannot map {type(obj).__name__} to the ball model")
