"""Cone bookkeeping, distances, ball coordinates, horoball membership."""

import functools
import math
import random
from fractions import Fraction

import pytest

from hyperlat import (Horoball, boundary_from_ray, build_lattice,
                      direct_sum, distance,
                      eichler_transvection, horoball_contains, pick_cone,
                      point_from_ray, rank1, reflection, standard_lattice, to_ball)
from hyperlat.errors import DifferentAmbient, InvalidParameter, NotInCone, NotIsotropic
from hyperlat.forms import primitive_isotropic_vectors
from hyperlat.linalg import gram_schmidt_frame
from hyperlat.model import HyperboloidPoint, minkowski_coords

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])
U_MINUS2 = direct_sum(U, rank1(-2))
U_A2 = direct_sum(U, standard_lattice("A2"))


def test_contains_in_cone_examples():
    o = pick_cone(U, (1, 1))
    assert point_from_ray(o, (1, 1)).ray == (1, 1)
    # (-1,-1) lies in the opposite cone: the same point, reoriented
    assert point_from_ray(o, (-1, -1)).ray == (1, 1)
    # (v,v) = 4 > 0 and (v,v0) = 3 > 0
    assert U.norm((2, 1)) == 4 and U.pair((2, 1), (1, 1)) == 3
    assert point_from_ray(o, (4, 2)).ray == (2, 1)
    for outside in ((1, 0), (1, -1)):  # norms 0 and -2
        with pytest.raises(NotInCone):
            point_from_ray(o, outside)


def _numeric(x):
    """Coordinates of ray / sqrt(ray.ray) in the lattice basis."""
    s = math.sqrt(x.norm)
    return tuple(c / s for c in x.ray)


def test_distance_examples():
    o = pick_cone(D12, (1, 0))
    x = point_from_ray(o, (1, 0))
    assert distance(x, x) == 0.0
    y = point_from_ray(o, (3, 2))
    assert abs(distance(x, y) - math.acosh(3)) < 1e-12

    oU = pick_cone(U, (1, 1))
    a = point_from_ray(oU, (1, 1))
    b = point_from_ray(oU, (2, 1))
    # pairing 3, norms 2 and 4: cosh d = 3 / (sqrt 2 * 2)
    assert abs(distance(a, b) - math.acosh(3 / (2 * math.sqrt(2)))) < 1e-12


def test_distance_different_ambient():
    o1 = pick_cone(U, (1, 1))
    o2 = pick_cone(D12, (1, 0))
    with pytest.raises(DifferentAmbient):
        distance(point_from_ray(o1, (1, 1)), point_from_ray(o2, (1, 0)))


def test_ball_conversions():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    base = point_from_ray(o, (1, 1, 0))
    assert max(abs(c) for c in to_ball(o, base)) < 1e-15

    ray = boundary_from_ray(o, (1, 0, 0))
    b = to_ball(o, ray)
    assert abs(sum(c * c for c in b) - 1.0) < 1e-10

    rng = random.Random(5)
    for _ in range(25):
        v = tuple(rng.randint(-20, 20) for _ in range(3))
        if U_MINUS2.norm(v) <= 0 or U_MINUS2.pair(v, (1, 1, 0)) <= 0:
            continue
        x = point_from_ray(o, v)
        # the ball radius of a point at distance d from the origin is tanh(d / 2)
        radius = math.sqrt(sum(c * c for c in to_ball(o, x)))
        assert abs(radius - math.tanh(distance(base, x) / 2)) < 1e-12


def ball_distance(u, v) -> float:
    """Oracle: hyperbolic distance computed purely in ball-model coordinates."""
    du = 1.0 - sum(x * x for x in u)
    dv = 1.0 - sum(x * x for x in v)
    diff = sum((x - y) ** 2 for x, y in zip(u, v))
    return math.acosh(1.0 + 2.0 * diff / (du * dv))


def test_ball_distance_agrees_with_hyperboloid():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    rng = random.Random(9)
    pts = []
    while len(pts) < 12:
        v = tuple(rng.randint(-15, 15) for _ in range(3))
        if U_MINUS2.norm(v) > 0 and U_MINUS2.pair(v, (1, 1, 0)) > 0:
            pts.append(point_from_ray(o, v))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d1 = distance(pts[i], pts[j])
            d2 = ball_distance(to_ball(o, pts[i]), to_ball(o, pts[j]))
            assert abs(d1 - d2) < 1e-9


def test_distance_symmetry_and_triangle():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    rng = random.Random(13)
    pts = []
    while len(pts) < 9:
        v = tuple(rng.randint(-25, 25) for _ in range(3))
        if U_MINUS2.norm(v) > 0 and U_MINUS2.pair(v, (1, 1, 0)) > 0:
            pts.append(point_from_ray(o, v))
    for a in pts:
        for b in pts:
            assert abs(distance(a, b) - distance(b, a)) < 1e-12
            for c in pts:
                assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-10


def test_horoball_membership_examples():
    o = pick_cone(U, (1, 1))
    ball = Horoball(center=boundary_from_ray(o, (1, 0)))
    assert horoball_contains(ball, point_from_ray(o, (4, 1)))     # 4*1 < 8
    assert not horoball_contains(ball, point_from_ray(o, (1, 1)))  # 4*1 > 2
    # exact boundary (x,e) = 1/2 is excluded: x = (2,1) has pairing 1, norm 4
    assert not horoball_contains(ball, point_from_ray(o, (2, 1)))

    o3 = pick_cone(U_MINUS2, (1, 1, 0))
    assert U_MINUS2.norm((1, 2, 1)) == 2
    with pytest.raises(NotIsotropic):
        Horoball(center=boundary_from_ray(o3, (1, 2, 1)))


def _cone_samples(lat, base, rng, count, box=30):
    o = pick_cone(lat, base)
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-box, box) for _ in range(lat.rank))
        if lat.norm(v) > 0 and lat.pair(v, base) > 0:
            out.append(point_from_ray(o, v))
    return o, out


def _isometry_pool(lat, o):
    gens = []
    if lat is U_MINUS2:
        gens.append(reflection(o, (0, 0, 1)))
        gens.append(eichler_transvection(o, (1, 0, 0), (0, 0, 1)))
        gens.append(eichler_transvection(o, (0, 1, 0), (0, 0, 1)))
    else:  # U + A2
        gens.append(reflection(o, (0, 0, 1, 0)))
        gens.append(eichler_transvection(o, (1, 0, 0, 0), (0, 0, 1, 0)))
        gens.append(eichler_transvection(o, (1, 0, 0, 0), (0, 0, 1, 2)))
    return gens


@pytest.mark.parametrize("lat,base", [(U_MINUS2, (1, 1, 0)), (U_A2, (1, 1, 0, 0))])
def test_horoball_lemma_properties(lat, base):
    """Sampled exact verification of the packing inequality and equivariance."""
    rng = random.Random(42)
    o, points = _cone_samples(lat, base, rng, 100)
    cusps = primitive_isotropic_vectors(lat, 2, orientation=o)
    assert len(cusps) >= 2
    balls = [Horoball(center=boundary_from_ray(o, e)) for e in cusps]
    gens = _isometry_pool(lat, o)
    checked = 0
    for i, b1 in enumerate(balls):
        for b2 in balls[i + 1:]:
            e1, e2 = b1.center.ray, b2.center.ray
            pairing = lat.pair(e1, e2)
            assert pairing >= 1
            for x in points:
                n = lat.norm(x.ray)
                p1 = lat.pair(x.ray, e1)
                p2 = lat.pair(x.ray, e2)
                # (e,e') <= 2 (x,e)(x,e'), cleared of the normalization
                assert pairing * n <= 2 * p1 * p2
                assert not (horoball_contains(b1, x) and horoball_contains(b2, x))
                checked += 1
    assert checked >= 500
    # equivariance g B_e = B_{g e} on every sample
    for g in gens:
        for b in balls:
            moved_center = boundary_from_ray(o, g.apply(b.center.ray))
            moved = Horoball(center=moved_center)
            for x in points:
                gx = point_from_ray(o, g.apply(x.ray))
                assert horoball_contains(moved, gx) == horoball_contains(b, x)


def test_numeric_points_normalized():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    rng = random.Random(21)
    gram = [[float(x) for x in row] for row in U_MINUS2.gram]
    for _ in range(20):
        v = tuple(rng.randint(-40, 40) for _ in range(3))
        if U_MINUS2.norm(v) <= 0 or U_MINUS2.pair(v, (1, 1, 0)) <= 0:
            continue
        x = point_from_ray(o, v)
        num = _numeric(x)
        q = sum(num[i] * sum(gram[i][j] * num[j] for j in range(3)) for i in range(3))
        assert abs(q - 1.0) <= 1e-9


def test_horoball_bound_is_data():
    o = pick_cone(U, (1, 1))
    ball = Horoball(center=boundary_from_ray(o, (1, 0)), bound=(2, 1))
    # with a bigger bound the point (1,1) at pairing 1/sqrt(2) is inside
    assert horoball_contains(ball, point_from_ray(o, (1, 1)))
    # (1,1) sits at pairing exactly 1/sqrt(2), the bound 3/4 is just above it
    assert horoball_contains(Horoball(boundary_from_ray(o, (1, 0)), (3, 4)),
                             point_from_ray(o, (1, 1)))
    assert not horoball_contains(Horoball(boundary_from_ray(o, (1, 0)), (7, 10)),
                                 point_from_ray(o, (1, 1)))
    with pytest.raises(InvalidParameter):
        Horoball(boundary_from_ray(o, (1, 0)), (1, 0))


def frac_pairing(gram, u, v) -> Fraction:
    """u^t G v over `Fraction`."""
    return sum(Fraction(u[i]) * sum(Fraction(gram[i][j]) * Fraction(v[j])
               for j in range(len(v))) for i in range(len(u)))


def fraction_gram_schmidt_frame(gram, v0):
    """The `Fraction` Gram-Schmidt frame `gram_schmidt_frame` replaced."""
    n = len(gram)
    frame = [tuple(Fraction(x) for x in v0)]
    norms = [frac_pairing(gram, frame[0], frame[0])]
    for i in range(n):
        e = [Fraction(1 if j == i else 0) for j in range(n)]
        v = list(e)
        for f, nf in zip(frame, norms):
            c = frac_pairing(gram, e, f) / nf
            v = [x - c * y for x, y in zip(v, f)]
        if any(x != 0 for x in v):
            frame.append(tuple(v))
            norms.append(frac_pairing(gram, v, v))
        if len(frame) == n:
            break
    return frame


@functools.lru_cache(maxsize=None)
def _fraction_frame(orientation):
    """ConeOrientation.frame as it was: `Fraction` vectors and norms."""
    frame = fraction_gram_schmidt_frame(orientation.lattice.gram, orientation.base)
    norms = [frac_pairing(orientation.lattice.gram, f, f) for f in frame]
    return frame, norms, [math.sqrt(abs(float(n))) for n in norms]


def _fraction_minkowski_coords(orientation, ray):
    """The `Fraction` projection `minkowski_coords` replaced, kept as the oracle."""
    frame, norms, scales = _fraction_frame(orientation)
    lat = orientation.lattice
    out = []
    for f, n, s in zip(frame, norms, scales):
        c = frac_pairing(lat.gram, tuple(Fraction(x) for x in ray), f) / n
        out.append(float(c) * s)
    return tuple(out)


def _fraction_to_ball(orientation, obj):
    a = _fraction_minkowski_coords(orientation, obj.ray)
    if isinstance(obj, HyperboloidPoint):
        s = math.sqrt(obj.norm)
        x0 = a[0] / s
        return tuple(x / s / (1.0 + x0) for x in a[1:])
    return tuple(x / a[0] for x in a[1:])


@pytest.mark.parametrize("lat", [D12, U_MINUS2, U_A2, direct_sum(U_A2, rank1(-2))],
                         ids=["<1>+<-2>", "U+<-2>", "U+A2", "U+A2+<-2>"])
def test_integer_projection_is_bit_identical(lat):
    rng = random.Random(9)
    n = lat.rank
    bases = [pick_cone(lat).base]
    while len(bases) < 4:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if lat.norm(v) > 0:
            bases.append(v)
    for base in bases:
        o = pick_cone(lat, base)
        for box in (3, 1000, 10**9):
            for _ in range(100):
                ray = tuple(rng.randint(-box, box) for _ in range(n))
                assert minkowski_coords(o, ray) == _fraction_minkowski_coords(o, ray)
                if lat.norm(ray) > 0:
                    pt = point_from_ray(o, ray)
                    assert to_ball(o, pt) == _fraction_to_ball(o, pt)
        if n > 2:  # <1>+<-2> has no rational isotropic vectors
            cusps = primitive_isotropic_vectors(lat, 2, orientation=o)
            assert cusps
            for e in cusps:
                ray = boundary_from_ray(o, e)
                assert to_ball(o, ray) == _fraction_to_ball(o, ray)


@pytest.mark.parametrize("lat", [D12, U_MINUS2, U_A2, direct_sum(U_A2, rank1(-2)),
                                 direct_sum(U, standard_lattice("E8"))],
                         ids=["<1>+<-2>", "U+<-2>", "U+A2", "U+A2+<-2>", "U+E8"])
def test_integer_frame_equals_the_fraction_frame(lat):
    rng = random.Random(31)
    n = lat.rank
    bases = [pick_cone(lat).base]
    while len(bases) < 12:
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        if lat.norm(v) > 0:
            bases.append(v)
    for base in bases:
        o = pick_cone(lat, base)
        frame, norms, scales = o.frame
        want, want_norms, want_scales = _fraction_frame(o)
        # each vector u / d in lowest terms: the same rationals
        assert [tuple(Fraction(x, d) for x in u) for u, d in frame] == want
        assert all(d > 0 and math.gcd(d, *u) == 1 for u, d in frame)
        assert [Fraction(m, d * d) for m, (_, d) in zip(norms, frame)] == want_norms
        assert scales == want_scales
        assert frame == gram_schmidt_frame(lat.gram, base)
