"""Hyperboloid, ball, and upper half-space models over a signature-(1,n) lattice.

Points are exact rational rays inside the chosen positive cone; numeric
coordinates appear only at the final normalization step.  Membership and
disjointness tests for horoballs are decided on squared exact rationals,
so every verdict here is certificate-grade.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (DifferentAmbient, InvalidParameter, NotInCone,
                     NotIsotropic, NotPrimitive, SameRay, WrongSignature)
from .lattice import GramLattice, coords_of, signature
from .record import Record


class ConeOrientation(Record):
    """The component of {v.v > 0} containing the base vector.

    The base plays the role the ample class does for a Neron-Severi
    lattice: it orients everything downstream (points, boundary rays,
    isometry validation).
    """

    def __init__(self, lattice: GramLattice, base: tuple[int, ...]):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "base", base)
        p, q = signature(self.lattice)
        if p != 1:
            raise WrongSignature(f"positive cone needs signature (1, n), got ({p}, {q})")
        if self.lattice.norm(self.base) <= 0:
            raise InvalidParameter("cone base vector must have positive norm")

    @cached_property
    def frame(self):
        """Rational orthogonal frame (base first) plus float normalizers."""
        frame = linalg.gram_schmidt_frame(self.lattice.gram, self.base)
        norms = [linalg.frac_pairing(self.lattice.gram, f, f) for f in frame]
        if norms[0] <= 0 or any(n >= 0 for n in norms[1:]):
            raise WrongSignature("frame norms are not (+, -, ..., -)")
        scales = [math.sqrt(abs(float(n))) for n in norms]
        return frame, norms, scales

    @cached_property
    def projection(self):
        """Integer rows u_k and denominators d_k > 0 with
        (ray, f_k) / (f_k, f_k) = ray . u_k / d_k for the frame vectors f_k."""
        frame, norms, _ = self.frame
        out = []
        for f, n in zip(frame, norms):
            ints, den = linalg.clear_denominators(
                [x / n for x in linalg.mat_vec(self.lattice.gram, f)])
            out.append((tuple(ints), den))
        return tuple(out)


def pick_cone(lattice: GramLattice, base=None) -> ConeOrientation:
    """Designate a positive cone, finding a small base vector when not given."""
    if base is not None:
        return ConeOrientation(lattice=lattice, base=coords_of(base))
    from .forms import first_norm_vector  # local import avoids a cycle
    tested = 0  # one candidate budget for the whole norm x height search
    for height in (1, 2, 3, 5, 8):
        for m in range(1, 4 * height * height + 1):
            best, tested = first_norm_vector(lattice, m, height, tested=tested)
            if best is not None:
                return ConeOrientation(lattice=lattice, base=best.coords)
    raise InvalidParameter("no small positive-norm vector found; pass a base explicitly")


def contains_in_cone(orientation: ConeOrientation, v) -> bool:
    """True iff v.v > 0 and v pairs positively with the cone base."""
    c = coords_of(v)
    lat = orientation.lattice
    return lat.norm(c) > 0 and lat.pair(c, orientation.base) > 0


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

    def numeric(self) -> tuple[float, ...]:
        """Coordinates of ray / sqrt(ray.ray) in the lattice basis."""
        s = math.sqrt(self.norm)
        return tuple(x / s for x in self.ray)

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
    """Normalize an exact ray (integers or rationals) to a point of H^n."""
    prim = linalg.primitive_vector(tuple(ray))
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

    The square of the pairing ratio is computed exactly; a single sqrt and
    arccosh at the end keep the result accurate to ~1e-15 relative.
    """
    if x.orientation != y.orientation:
        raise DifferentAmbient("points live over different lattices or cones")
    lat = x.lattice
    p = lat.pair(x.ray, y.ray)
    ratio = Fraction(p * p, lat.norm(x.ray) * lat.norm(y.ray))
    if ratio <= 1:
        return 0.0
    return math.acosh(math.sqrt(float(ratio)))


# -- horoballs -----------------------------------------------------------------

class Horoball(Record):
    """Open horoball {x : (x, center) < bound} at a primitive integral cusp."""

    def __init__(self, center: BoundaryRay, bound: Fraction = Fraction(1, 2)):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "bound", bound)
        if not self.center.rational:
            raise NotIsotropic("horoball centers must be rational boundary rays")
        if linalg.vec_content(self.center.ray) != 1:
            raise NotPrimitive("horoball center must be primitive integral")


def horoball_contains(ball: Horoball, x: HyperboloidPoint) -> bool:
    """Exact membership test: (x, e) < bound without leaving the rationals.

    For the normalized point, (x, e) = p / sqrt(N) with p = (ray, e) and
    N = ray.ray; squaring preserves the order since both sides are positive,
    so p^2 < bound^2 * N decides it.
    """
    if ball.center.orientation != x.orientation:
        raise DifferentAmbient("horoball and point have different ambients")
    lat = x.lattice
    p = lat.pair(x.ray, ball.center.ray)
    if p <= 0:
        return False  # opposite cone; cannot be inside an open horoball
    return Fraction(p * p, lat.norm(x.ray)) < ball.bound * ball.bound


class DisjointnessWitness(Record):
    def __init__(self, disjoint: bool, pairing: int):
        object.__setattr__(self, "disjoint", disjoint)
        # (e, e') on the primitive integral representatives
        object.__setattr__(self, "pairing", pairing)


def horoballs_disjoint(b1: Horoball, b2: Horoball) -> DisjointnessWitness:
    """Disjointness of two standard horoballs at distinct integral cusps.

    For distinct primitive isotropic e, e' in the cone closure, the pairing
    (e, e') is a positive integer, and (e,e') <= 2 (x,e)(x,e') for every
    point x; with bounds 1/2 this forces the horoballs apart.  The integer
    pairing is returned as proof data.
    """
    if b1.center.orientation != b2.center.orientation:
        raise DifferentAmbient("horoballs have different ambients")
    lat = b1.center.orientation.lattice
    e1, e2 = b1.center.ray, b2.center.ray
    if e1 == e2:
        raise SameRay("horoballs share their center ray")
    p = lat.pair(e1, e2)
    threshold = 2 * b1.bound * b2.bound
    return DisjointnessWitness(disjoint=Fraction(p) >= threshold, pairing=p)


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
    unit sphere.
    """
    if isinstance(obj, HyperboloidPoint):
        a = minkowski_coords(orientation, obj.ray)
        s = math.sqrt(obj.norm)  # exact integer norm, one rounding
        x0 = a[0] / s
        return tuple(x / s / (1.0 + x0) for x in a[1:])
    if isinstance(obj, BoundaryRay):
        ray = obj.ray if obj.rational else [c.approx() for c in obj.ray]
        a = minkowski_coords(orientation, ray)
        return tuple(x / a[0] for x in a[1:])
    raise InvalidParameter(f"cannot map {type(obj).__name__} to the ball model")


def from_ball(orientation: ConeOrientation, ball_coords) -> tuple[float, ...]:
    """Numeric hyperboloid coordinates (lattice basis) of a ball-model point."""
    b = list(ball_coords)
    nb2 = sum(x * x for x in b)
    if nb2 >= 1.0:
        raise InvalidParameter("ball-model points have Euclidean norm < 1")
    a0 = (1.0 + nb2) / (1.0 - nb2)
    rest = [2.0 * x / (1.0 - nb2) for x in b]
    frame, norms, scales = orientation.frame
    coords = [0.0] * orientation.lattice.rank
    for a, f, s in zip([a0] + rest, frame, scales):
        c = a / s
        for i, fx in enumerate(f):
            coords[i] += c * float(fx)
    return tuple(coords)


def to_upper_half(orientation: ConeOrientation, obj) -> tuple[float, ...]:
    """Upper half-space coordinates via inversion of the ball model.

    The last coordinate is the height; the base point maps to height 1.
    """
    b = list(to_ball(orientation, obj))
    denom = sum(x * x for x in b[:-1]) + (b[-1] - 1.0) ** 2
    if denom == 0.0:
        raise InvalidParameter("the pole of the inversion has no finite image")
    out = [2.0 * x / denom for x in b[:-1]]
    out.append((1.0 - sum(x * x for x in b)) / denom)
    return tuple(out)


def ball_distance(u, v) -> float:
    """Hyperbolic distance computed purely in ball-model coordinates."""
    du = 1.0 - sum(x * x for x in u)
    dv = 1.0 - sum(x * x for x in v)
    diff = sum((x - y) ** 2 for x, y in zip(u, v))
    return math.acosh(1.0 + 2.0 * diff / (du * dv))
