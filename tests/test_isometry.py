"""Isometry validation, exact classification, entropy, fixed rays, factories."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlat import (build_lattice, classify, direct_sum,
                      eichler_transvection, entropy, fixed_boundary_points,
                      make_isometry, pick_cone, rank1, reflection, to_ball)
from hyperlat.errors import (EllipticHasNoBoundaryFixedPoint,
                             NonIntegralResult, NotOrthogonal, WrongComponent,
                             WrongNorm)
from hyperlat.isometry import ELLIPTIC, LOXODROMIC, PARABOLIC
from hyperlat.linalg import (frac_pairing, identity_matrix, kernel_basis, mat_mul,
                             primitive_vector, transpose)

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])
U_MINUS2 = direct_sum(U, rank1(-2))

O_D12 = pick_cone(D12, (1, 0))
O_U = pick_cone(U, (1, 1))
O_UM2 = pick_cone(U_MINUS2, (1, 1, 0))

PELL = make_isometry(O_D12, [[3, 4], [2, 3]])
TRANSVECTION = make_isometry(O_UM2, [[1, 1, 2], [0, 1, 0], [0, 1, 1]])


def test_make_isometry_examples():
    ident = make_isometry(O_U, [[1, 0], [0, 1]])
    assert ident.matrix == identity_matrix(2)
    # oracle: direct multiplication M^t S M = S
    m = ((3, 4), (2, 3))
    s = D12.gram
    assert mat_mul(transpose(m), mat_mul(s, m)) == s
    assert PELL.matrix == m
    swap = make_isometry(O_U, [[0, 1], [1, 0]])
    assert swap.apply((1, 1)) == (1, 1)


def test_make_isometry_errors():
    with pytest.raises(NotOrthogonal):
        make_isometry(O_U, [[1, 1], [0, 1]])
    with pytest.raises(WrongComponent):
        make_isometry(O_U, [[-1, 0], [0, -1]])


def test_classify_identity():
    cls = classify(make_isometry(O_U, [[1, 0], [0, 1]]))
    assert cls.kind == ELLIPTIC and cls.order == 1


def test_classify_pell_loxodromic():
    cls = classify(PELL)
    assert cls.kind == LOXODROMIC
    assert cls.scale_minpoly == (1, -6, 1)  # x^2 - 6x + 1, roots 3 +- 2 sqrt2
    lo, hi = cls.scale_field.bracket(Fraction(1, 10**15))
    target = 3 + 2 * math.sqrt(2)
    assert lo <= Fraction(target).limit_denominator(10**12) <= hi or \
        abs(float((lo + hi) / 2) - target) < 1e-12


def test_spectral_radius_interval_on_demand():
    from hyperlat.isometry import spectral_radius_interval
    from hyperlat.polynomials import poly_eval
    lo, hi = spectral_radius_interval(PELL, Fraction(1, 10**14))
    assert hi - lo <= Fraction(1, 10**14)
    # the bracket pins the root of x^2 - 6x + 1 exactly: sign change
    assert poly_eval([1, -6, 1], lo) < 0 < poly_eval([1, -6, 1], hi)
    ident = make_isometry(O_D12, [[1, 0], [0, 1]])
    assert spectral_radius_interval(ident) == (Fraction(1), Fraction(1))


def test_classify_transvection_parabolic():
    # oracle: charpoly is (t-1)^3 and (M-I)^2 != 0, so not semisimple
    assert TRANSVECTION.charpoly == [-1, 3, -3, 1]
    m_minus_i = [[TRANSVECTION.matrix[i][j] - (1 if i == j else 0) for j in range(3)]
                 for i in range(3)]
    sq = mat_mul(tuple(map(tuple, m_minus_i)), tuple(map(tuple, m_minus_i)))
    assert any(any(row) for row in sq)
    assert classify(TRANSVECTION).kind == PARABOLIC


def test_entropy_examples():
    assert entropy(TRANSVECTION) == 0.0
    assert entropy(make_isometry(O_U, [[1, 0], [0, 1]])) == 0.0
    assert abs(entropy(PELL) - math.log(3 + 2 * math.sqrt(2))) < 1e-12


def test_fixed_rays_transvection():
    rays = fixed_boundary_points(TRANSVECTION)
    assert len(rays) == 1
    assert rays[0].rational and rays[0].ray == (1, 0, 0)


def test_fixed_rays_pell():
    rays = fixed_boundary_points(PELL)
    assert len(rays) == 2
    for ray in rays:
        assert not ray.rational
        # exact check: M v = s v in the algebraic field of the scale
        fld = ray.ray[0].field
        scale = None
        for eig in (fld.generator(), fld.generator().inverse()):
            ok = True
            for i in range(2):
                image = sum(ray.ray[j] * PELL.matrix[i][j] for j in range(2))
                if image != eig * ray.ray[i]:
                    ok = False
                    break
            if ok:
                scale = eig
        assert scale is not None
    numerics = sorted(tuple(c.approx() for c in r.ray) for r in rays)
    root2 = math.sqrt(2)
    assert abs(numerics[0][0] / numerics[0][1] + root2) < 1e-9 or \
        abs(numerics[0][0] / numerics[0][1] - root2) < 1e-9


def test_fixed_rays_elliptic_error():
    with pytest.raises(EllipticHasNoBoundaryFixedPoint):
        fixed_boundary_points(make_isometry(O_U, [[1, 0], [0, 1]]))


def test_reflection_examples():
    s = reflection(O_UM2, (0, 0, 1))
    assert s.apply((5, 7, 3)) == (5, 7, -3)
    assert s.apply((0, 0, 1)) == (0, 0, -1)
    # fixes the orthogonal complement of delta
    assert s.apply((2, 9, 0)) == (2, 9, 0)
    assert mat_mul(s.matrix, s.matrix) == identity_matrix(3)


def test_reflection_wrong_norm():
    with pytest.raises(WrongNorm):
        reflection(O_UM2, (1, 0, 0))


def test_transvection_matrix_example():
    e = eichler_transvection(O_UM2, (1, 0, 0), (0, 0, 1))
    assert e.matrix == ((1, 1, 2), (0, 1, 0), (0, 1, 1))


def test_transvection_zero_translation_is_identity():
    e = eichler_transvection(O_UM2, (1, 0, 0), (0, 0, 0))
    assert e.matrix == identity_matrix(3)


def test_transvection_composition_law():
    rng = random.Random(23)
    axis = (1, 0, 0)
    for _ in range(20):
        a = (rng.randint(-3, 3), 0, rng.randint(-3, 3))
        b = (rng.randint(-3, 3), 0, rng.randint(-3, 3))
        ea = eichler_transvection(O_UM2, axis, a)
        eb = eichler_transvection(O_UM2, axis, b)
        eab = eichler_transvection(O_UM2, axis, tuple(x + y for x, y in zip(a, b)))
        assert ea.compose(eb).matrix == eab.matrix


def test_transvection_odd_norm_rejected():
    odd = direct_sum(U, rank1(-1))
    o = pick_cone(odd, (1, 1, 0))
    with pytest.raises(NonIntegralResult):
        eichler_transvection(o, (1, 0, 0), (0, 0, 1))


# -- invariants ---------------------------------------------------------------------

def _word_pool(rng, letters, count, max_len=6):
    """Random nonempty reduced words as composed isometries."""
    out = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        word = None
        last = None
        for _ in range(length):
            k = rng.randrange(len(letters))
            while last is not None and letters[k][1] == last:
                k = rng.randrange(len(letters))
            g, name = letters[k]
            word = g if word is None else word.compose(g)
            last = name
        out.append(word)
    return out


def _letter_set(which):
    if which == "um2":
        s1 = reflection(O_UM2, (0, 0, 1))
        s2 = reflection(O_UM2, (1, 0, 1))
        s3 = reflection(O_UM2, (0, 1, 1))
        t1 = eichler_transvection(O_UM2, (1, 0, 0), (0, 0, 1))
        t2 = eichler_transvection(O_UM2, (0, 1, 0), (0, 0, 1))
        return [(s1, "s1"), (s2, "s2"), (s3, "s3"),
                (t1, "t1"), (t1.inverse(), "t1i"),
                (t2, "t2"), (t2.inverse(), "t2i")]
    pell = PELL
    refl = make_isometry(O_D12, [[1, 0], [0, -1]])
    return [(pell, "g"), (pell.inverse(), "gi"), (refl, "r")]


def float_radical_radius(g):
    """Numeric spectral radius: float roots of the charpoly's radical.

    Deflating multiplicities exactly first keeps every root simple, so the
    float rootfinder is accurate to ~1e-12 even for unipotent-type matrices
    (raw eigensolvers lose ~eps^(1/3) on defective eigenvalues).
    """
    from hyperlat.polynomials import squarefree_part
    q = squarefree_part(g.charpoly)
    return max(abs(r) for r in np.roots(list(reversed(q))))


@pytest.mark.parametrize("which", ["um2", "d12"])
def test_classification_matches_float_spectral_radius(which):
    rng = random.Random(31)
    words = _word_pool(rng, _letter_set(which), 120)
    for g in words:
        cls = g.classification
        lam = cls.scale_field.approx_root() if cls.kind == LOXODROMIC else 1.0
        assert abs(float_radical_radius(g) - lam) < 1e-8
        # raw matrix eigensolve, fully independent, defective-eigenvalue envelope
        rho = max(abs(ev) for ev in np.linalg.eigvals(np.array(g.matrix, dtype=float)))
        assert abs(rho - lam) < 1e-4


def test_classify_and_entropy_of_inverse_and_powers():
    rng = random.Random(37)
    words = _word_pool(rng, _letter_set("um2"), 40, max_len=4)
    words += _word_pool(rng, _letter_set("d12"), 20, max_len=4)
    for g in words:
        inv = g.inverse()
        assert g.classification.kind == inv.classification.kind
        assert abs(entropy(g) - entropy(inv)) < 1e-12
        for n in (2, 3, 5):
            gn = g.power(n)
            assert abs(entropy(gn) - n * entropy(g)) < 1e-10


def test_parabolic_rays_rational_loxodromic_rays_irrational():
    rng = random.Random(41)
    words = _word_pool(rng, _letter_set("um2"), 60, max_len=5)
    for g in words:
        kind = g.classification.kind
        if kind == ELLIPTIC:
            continue
        rays = fixed_boundary_points(g)
        if kind == PARABOLIC:
            assert len(rays) == 1 and rays[0].rational
        else:
            assert len(rays) == 2
            for ray in rays:
                assert not ray.rational
                assert len(ray.ray[0].field.minpoly_int) >= 3  # degree >= 2


def test_reflections_preserve_form_exactly():
    for delta in ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, -1, 0)):
        assert U_MINUS2.norm(delta) == -2
        s = reflection(O_UM2, delta)
        assert mat_mul(s.matrix, s.matrix) == identity_matrix(3)
        assert mat_mul(transpose(s.matrix),
                       mat_mul(U_MINUS2.gram, s.matrix)) == U_MINUS2.gram


def test_lazy_classification_single_value():
    g = make_isometry(O_D12, [[3, 4], [2, 3]])
    first = g.classification
    assert g.classification is first


U_A2 = direct_sum(U, build_lattice([[-2, 1], [1, -2]]))
O_UA2 = pick_cone(U_A2, (1, 1, 0, 0))


def test_degree4_loxodromic_exact_fixed_rays():
    # a word of reflections and transvections in U + A2 whose scale has the
    # reciprocal quartic minimal polynomial x^4 - x^3 - 3x^2 - x + 1
    m = [[7, 93, -9, -39], [1, 13, -2, -5], [2, 23, -3, -10], [3, 40, -5, -16]]
    g = make_isometry(O_UA2, m)
    cls = g.classification
    assert cls.kind == LOXODROMIC
    assert cls.scale_minpoly == (1, -1, -3, -1, 1)
    rays = fixed_boundary_points(g)
    assert len(rays) == 2
    fld = rays[0].ray[0].field
    eigs = (fld.generator(), fld.generator().inverse())
    gram = U_A2.gram
    for ray, eig in zip(rays, eigs):
        assert not ray.rational
        # exact eigenray identity M v = s v in Q(s)
        for i in range(4):
            image = sum(ray.ray[j] * m[i][j] for j in range(4))
            assert image == eig * ray.ray[i]
        # exact isotropy of the fixed ray: (v, v) = 0 in Q(s)
        norm = fld.rational(0)
        for i in range(4):
            for j in range(4):
                norm = norm + ray.ray[i] * ray.ray[j] * fld.rational(gram[i][j])
        assert not norm


def test_elliptic_order_three():
    # the rotation of the A2 block extended by the identity: order 3
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]]
    g = make_isometry(O_UA2, m)
    cls = classify(g)
    assert cls.kind == ELLIPTIC and cls.order == 3
    assert entropy(g) == 0.0
    with pytest.raises(EllipticHasNoBoundaryFixedPoint):
        fixed_boundary_points(g)


def test_parabolic_with_bigger_fixed_space():
    # ker(M - I) is two-dimensional here; the fixed ray is the radical of
    # the restricted form
    t = eichler_transvection(O_UA2, (1, 0, 0, 0), (0, 0, 1, 2))
    assert classify(t).kind == PARABOLIC
    rays = fixed_boundary_points(t)
    assert rays[0].ray == (1, 0, 0, 0) and rays[0].rational


# -- fixed rays against the Fraction code they replaced -----------------------------

def _old_parabolic_ray(g):
    """The parabolic fixed ray as it was computed: `Fraction` rows for M - I
    and `frac_pairing` on the kernel."""
    lat, n = g.lattice, g.lattice.rank
    rows = [tuple(Fraction(g.matrix[i][j] - (1 if i == j else 0)) for j in range(n))
            for i in range(n)]
    kernel = kernel_basis(rows)
    restricted = [[frac_pairing(lat.gram, u, v) for v in kernel] for u in kernel]
    rad = kernel_basis([tuple(row) for row in restricted])
    ray = [Fraction(0)] * n
    for c, basis_vec in zip(rad[0], kernel):
        for i in range(n):
            ray[i] += Fraction(c) * Fraction(basis_vec[i])
    prim = primitive_vector(ray)
    return prim if lat.pair(prim, g.orientation.base) >= 0 else tuple(-x for x in prim)


def _old_minkowski_coords_numeric(orientation, ray_floats):
    """The float projection `to_ball` used for irrational boundary rays."""
    frame, norms, scales = orientation.frame
    gram = [[float(x) for x in row] for row in orientation.lattice.gram]
    out = []
    for f, n, s in zip(frame, norms, scales):
        ff = [float(x) for x in f]
        c = sum(ray_floats[i] * sum(gram[i][j] * ff[j] for j in range(len(ff)))
                for i in range(len(ff))) / float(n)
        out.append(c * s)
    return tuple(out)


def _ua2_letters():
    s1 = reflection(O_UA2, (0, 0, 1, 0))
    s2 = reflection(O_UA2, (1, -1, 0, 0))
    s3 = reflection(O_UA2, (1, 0, 0, 1))
    t1 = eichler_transvection(O_UA2, (1, 0, 0, 0), (0, 0, 1, 0))
    return [(s1, "s1"), (s2, "s2"), (s3, "s3"), (t1, "t1"), (t1.inverse(), "t1i")]


@pytest.mark.parametrize("which", ["um2", "d12", "ua2"])
def test_fixed_rays_match_fraction_code(which):
    letters = _ua2_letters() if which == "ua2" else _letter_set(which)
    seen = set()
    for g in _word_pool(random.Random(43), letters, 50, max_len=5):
        kind = g.classification.kind
        seen.add(kind)
        if kind == ELLIPTIC:
            continue
        rays = fixed_boundary_points(g)
        if kind == PARABOLIC:
            assert [r.ray for r in rays] == [_old_parabolic_ray(g)]
            continue
        for ray in rays:
            # the float route of a rational ray and the removed float projection agree
            ball = to_ball(g.orientation, ray)
            approx = [c.approx() for c in ray.ray]
            a = _old_minkowski_coords_numeric(g.orientation, approx)
            assert ball == pytest.approx([x / a[0] for x in a[1:]], rel=1e-9, abs=1e-12)
            assert sum(x * x for x in ball) == pytest.approx(1.0, abs=1e-9)
    assert LOXODROMIC in seen
