"""Isometry validation, exact classification, entropy, fixed rays, factories."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlat import (build_lattice, direct_sum, enumerate_norm_vectors,
                      eichler_transvection, entropy, fixed_boundary_points,
                      make_isometry, pick_cone, rank1, reflection, to_ball)
from hyperlat.errors import (DimensionMismatch, EllipticHasNoBoundaryFixedPoint,
                             NonIntegralResult, NotOrthogonal, WrongComponent,
                             WrongNorm)
from hyperlat import groups, isometry
from hyperlat.criteria import entropy_report
from hyperlat.groups import FGGroup, conjugacy_key, elements_up_to, word_string
from hyperlat.isometry import (ELLIPTIC, LOXODROMIC, PARABOLIC, Isometry, _classify,
                               _classify_charpoly)
from hyperlat.linalg import (identity_matrix, kernel_basis, mat_mul, primitive_vector,
                             transpose)
from hyperlat.polynomials import trim

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
    cls = make_isometry(O_U, [[1, 0], [0, 1]]).classification
    assert cls.kind == ELLIPTIC and cls.order == 1


def test_classify_pell_loxodromic():
    cls = PELL.classification
    assert cls.kind == LOXODROMIC
    assert cls.scale_minpoly == (1, -6, 1)  # x^2 - 6x + 1, roots 3 +- 2 sqrt2
    lo, hi = _values(cls.scale_field.bracket(10**15))
    target = 3 + 2 * math.sqrt(2)
    assert lo <= Fraction(target).limit_denominator(10**12) <= hi or \
        abs(float((lo + hi) / 2) - target) < 1e-12


def _values(bracket):
    """The bracket (lo, hi, den) as its two endpoints lo/den and hi/den."""
    lo, hi, den = bracket
    return Fraction(lo, den), Fraction(hi, den)


def spectral_radius_interval(g, eps_den=10**15):
    """Oracle: rational bracket of the spectral radius (width <= 1/eps_den)."""
    cls = g.classification
    if cls.kind != LOXODROMIC:
        return Fraction(1), Fraction(1)
    return _values(cls.scale_field.bracket(eps_den))


def poly_eval(p, x):
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def test_spectral_radius_interval_on_demand():
    lo, hi = spectral_radius_interval(PELL, 10**14)
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
    assert TRANSVECTION.classification.kind == PARABOLIC


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
    inverse = PELL.inverse().matrix
    for ray, mat in zip(rays, (PELL.matrix, inverse)):
        assert not ray.rational
        # exact check in Z[s]: M v = s v for the first ray, M^-1 v = s v for the second
        scale = ray.ray[0].field.element([0, 1])
        for i in range(2):
            assert sum(ray.ray[j] * mat[i][j] for j in range(2)) == scale * ray.ray[i]
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


def test_apply_refuses_a_vector_of_another_length():
    # the matrix product alone would pad (1, 2) to (1, 2, 0) and cut
    # (1, 2, 3, 4) to (1, 2, -3)
    s = reflection(O_UM2, (0, 0, 1))
    for v in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(DimensionMismatch, match="vectors must have length 3"):
            s.apply(v)


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
                assert len(ray.ray[0].field.minpoly) >= 3  # degree >= 2


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
    scale = rays[0].ray[0].field.element([0, 1])
    gram = U_A2.gram
    for ray, mat in zip(rays, (m, g.inverse().matrix)):
        assert not ray.rational
        # exact eigenray identities in Z[s]: M v = s v, and M^-1 v' = s v'
        for i in range(4):
            image = sum(ray.ray[j] * mat[i][j] for j in range(4))
            assert image == scale * ray.ray[i]
        # exact isotropy of the fixed ray: (v, v) = 0 in Z[s]
        norm = 0
        for i in range(4):
            for j in range(4):
                norm = norm + ray.ray[i] * ray.ray[j] * gram[i][j]
        assert not norm


def test_elliptic_order_three():
    # the rotation of the A2 block extended by the identity: order 3
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]]
    g = make_isometry(O_UA2, m)
    cls = g.classification
    assert cls.kind == ELLIPTIC and cls.order == 3
    assert entropy(g) == 0.0
    with pytest.raises(EllipticHasNoBoundaryFixedPoint):
        fixed_boundary_points(g)


def test_parabolic_with_bigger_fixed_space():
    # ker(M - I) is two-dimensional here; the fixed ray is the radical of
    # the restricted form
    t = eichler_transvection(O_UA2, (1, 0, 0, 0), (0, 0, 1, 2))
    assert t.classification.kind == PARABOLIC
    rays = fixed_boundary_points(t)
    assert rays[0].ray == (1, 0, 0, 0) and rays[0].rational


# -- fixed rays against the Fraction code they replaced -----------------------------

def frac_pairing(gram, u, v) -> Fraction:
    """u^t G v over `Fraction`, as the parent computed it."""
    return sum(Fraction(u[i]) * sum(Fraction(gram[i][j]) * Fraction(v[j])
               for j in range(len(v))) for i in range(len(u)))


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
    for (u, d), n, s in zip(frame, norms, scales):
        ff = [x / d for x in u]  # the frame vector f = u / d, and (f, f) = n / d^2
        c = sum(ray_floats[i] * sum(gram[i][j] * ff[j] for j in range(len(ff)))
                for i in range(len(ff))) / (n / (d * d))
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


# -- loxodromic eigenrays against the Q(lambda) elimination they replaced -----------

def _q_divmod(p, q):
    """Quotient and remainder of polynomials over Q, by `Fraction` long division."""
    rem, q = [Fraction(c) for c in trim(p)], trim(q)
    quot = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        c, shift = rem[-1] / q[-1], len(rem) - len(q)
        quot[shift] = c
        for i, qc in enumerate(q):
            rem[shift + i] -= c * qc
        rem = trim(rem)
    return quot, rem


def _q_sub(p, q):
    n = max(len(p), len(q))
    return trim((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n))


def _q_polymul(a, b):
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return trim(prod)


def _q_mul(a, b, f):
    return _q_divmod(_q_polymul(a, b), f)[1]


def _q_inverse(a, f):
    """Extended Euclid in Q[x]: u a + v f = 1, as the parent's field had it."""
    r0, r1 = list(f), trim(a)
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _q_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _q_sub(s0, _q_polymul(q, s1))
    return [x / r1[0] for x in s1]


def _q_sign(a, fld):
    """Exact sign of a Q(lambda) element: clear its denominators into Z[lambda]."""
    a = [Fraction(x) for x in a] or [Fraction(0)]
    den = math.lcm(*(x.denominator for x in a))
    return fld.element([int(x * den) for x in a]).sign()


def _old_eigenray(g, fld, eig):
    """The kernel of M - eig I by Gauss-Jordan over Q(lambda) with `Fraction`
    coefficients, oriented towards the cone: the parent's eigenray."""
    f, n = fld.minpoly, g.lattice.rank
    rows = [[_q_sub([g.matrix[i][j]], eig if i == j else []) for j in range(n)]
            for i in range(n)]
    pivots, r = [], 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _q_inverse(rows[r][c], f)
        rows[r] = [_q_mul(x, inv, f) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [_q_sub(x, _q_mul(fac, y, f)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    vec = [[] for _ in range(n)]
    vec[free[0]] = [Fraction(1)]
    for i, pc in enumerate(pivots):
        vec[pc] = _q_sub([], rows[i][free[0]])
    gb = g.lattice.gram
    base = [sum(gb[i][j] * g.orientation.base[j] for j in range(n)) for i in range(n)]
    pairing = []
    for x, b in zip(vec, base):
        pairing = _q_sub(pairing, [-b * c for c in x])
    return vec if _q_sign(pairing, fld) > 0 else [_q_sub([], x) for x in vec]


U_A2_M2 = direct_sum(U_A2, rank1(-2))
O_UA2M2 = pick_cone(U_A2_M2, (1, 1, 0, 0, 0))


def _ua2m2_letters():
    roots = [(1, -1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
             (1, 0, 1, 0, 0), (0, 1, 0, 0, 1)]
    return [(reflection(O_UA2M2, r), f"s{k}") for k, r in enumerate(roots)]


def _loxodromic_pool(letters, count, seed):
    out = {}
    rng = random.Random(seed)
    while len(out) < count:
        for g in _word_pool(rng, letters, 20, max_len=7):
            if g.classification.kind == LOXODROMIC and len(out) < count:
                out.setdefault(g.matrix, g)
    return list(out.values())


def test_adjugate_eigenrays_are_positive_multiples_of_the_old_rays():
    words = _loxodromic_pool(_letter_set("d12"), 6, 1)  # the Pell powers g^+-1..3
    words += _loxodromic_pool(_letter_set("um2"), 32, 2)
    words += _loxodromic_pool(_ua2_letters(), 32, 3)
    words += _loxodromic_pool(_ua2m2_letters(), 32, 4)
    assert len(words) >= 100
    for g in words:
        fld = g.classification.scale_field
        scale = fld.element([0, 1])
        inv_scale = _q_inverse([0, 1], fld.minpoly)
        n, gram = g.lattice.rank, g.lattice.gram
        rays = fixed_boundary_points(g)
        assert len(rays) == 2
        for ray, mat, eig in zip(rays, (g.matrix, g.inverse().matrix),
                                 ([0, 1], inv_scale)):
            v = ray.ray
            assert all(type(c) is int for x in v for c in x.coeffs)
            # exact M v = s v (first ray) and M^-1 v' = s v' (second ray) in Z[s]
            for i in range(n):
                assert sum(mat[i][j] * v[j] for j in range(n)) == scale * v[i]
            # exact isotropy (v, v) = 0 in Z[s]
            assert not sum(gram[i][j] * (v[i] * v[j]) for i in range(n) for j in range(n))
            # a positive Q(s)-multiple of the parent's eigenray of M for s or 1/s
            w = _old_eigenray(g, fld, eig)
            p = next(i for i, x in enumerate(w) if x)
            for i in range(n):
                assert not _q_sub(_q_mul(v[i].coeffs, w[p], fld.minpoly),
                                  _q_mul(v[p].coeffs, w[i], fld.minpoly))
            assert _q_sign(_q_mul(v[p].coeffs, w[p], fld.minpoly), fld) > 0


# -- the integer sign against the Fraction interval Horner it replaced ----------------

def _fraction_refine(minpoly, lo, hi, eps):
    """Bisect the `Fraction` bracket (lo, hi] of a root of the monic minpoly
    down to width <= eps, or to a rational root."""
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = poly_eval(minpoly, mid)
        if s == 0:
            return mid, mid
        lo, hi = (lo, mid) if s > 0 else (mid, hi)
    return lo, hi


def _fraction_sign(coeffs, minpoly, lo, hi):
    """Reference sign: interval Horner over `Fraction`s, refining the bracket
    to a quarter of its width per round.  Returns the sign and the bracket
    it ended on."""
    if not any(coeffs):
        return 0, lo, hi
    for _ in range(256):
        vlo = vhi = Fraction(0)
        for c in reversed(coeffs):
            cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(cands) + c, max(cands) + c
        if vlo > 0:
            return 1, lo, hi
        if vhi < 0:
            return -1, lo, hi
        lo, hi = _fraction_refine(minpoly, lo, hi, (hi - lo) / 4)
    raise ArithmeticError("sign refinement did not converge")


def _sign_probes(g, rng):
    """Z[lambda] elements of the word's scale field: its fixed rays'
    coordinates and pairings with the base, random small elements, and
    elements a + b lambda within about 1/b of zero, which need refinement."""
    fld = g.classification.scale_field
    gram, base = g.lattice.gram, g.orientation.base
    out = []
    for ray in fixed_boundary_points(g):
        out += [x.coeffs for x in ray.ray]
        out.append(sum((gram[i][j] * base[j] * ray.ray[i]
                        for i in range(len(base)) for j in range(len(base))),
                       fld.element([0])).coeffs)
    out += [tuple(rng.randint(-5, 5) for _ in range(fld.degree)) for _ in range(4)]
    x = fld.approx_root()
    for b in (1, 7, 1000, 10**6, 10**9):
        a = -round(b * x)
        out += [fld.element([a + d, b]).coeffs for d in (-1, 0, 1)]
    return out


def test_integer_sign_matches_the_fraction_sign():
    from hyperlat.polynomials import RealAlgebraicField, bracket_largest_root_above
    words = _loxodromic_pool(_letter_set("d12"), 6, 1)
    words += _loxodromic_pool(_letter_set("um2"), 32, 2)
    words += _loxodromic_pool(_ua2_letters(), 32, 3)
    words += _loxodromic_pool(_ua2m2_letters(), 32, 4)
    rng = random.Random(5)
    refined = 0
    for g in words:
        fld = g.classification.scale_field
        # the first isolating bracket, of width < 1, before any refinement
        first = bracket_largest_root_above(fld.minpoly, 1, 1)
        for coeffs in _sign_probes(g, rng):
            want, want_lo, want_hi = _fraction_sign(coeffs, fld.minpoly, *_values(first))
            fresh = RealAlgebraicField(fld.minpoly, first)
            assert fresh.element(coeffs).sign() == want
            # the same bracket, refined as far as the Fraction code refined it
            assert _values(fresh.bracket()) == (want_lo, want_hi)
            refined += (want_lo, want_hi) != _values(first)
    assert refined >= 1000


# -- the charpoly stage, shared per process --------------------------------------

def _memo_group(which):
    """(group, budget) of the three entropy-report groups."""
    if which == "um2":
        gens = [reflection(O_UM2, d) for d in ((0, 0, 1), (1, 0, 1), (0, 1, 1))]
        gens += [eichler_transvection(O_UM2, e, (0, 0, 1)) for e in ((1, 0, 0), (0, 1, 0))]
        return FGGroup(tuple(gens)), 3
    if which == "pell":
        return FGGroup((PELL, make_isometry(O_D12, [[1, 0], [0, -1]]))), 6
    roots = ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1),
             (1, -1, 0, 0, 0))
    gens = [reflection(O_UA2M2, d) for d in roots]
    gens.append(eichler_transvection(O_UA2M2, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)))
    return FGGroup(tuple(gens)), 2


def _fresh_elements(which):
    """The group's non-identity elements up to its budget, none classified yet."""
    group, budget = _memo_group(which)
    return [Isometry(e.orientation, e.matrix)
            for e, _ in elements_up_to(group, budget)[1:]]


def _outcome(g):
    cls = g.classification
    bracket = cls.scale_field.bracket() if cls.scale_field is not None else None
    return cls.as_json(), bracket, entropy(g)


@pytest.mark.parametrize("which", ["um2", "pell", "ua2m2"])
def test_warm_charpoly_stage_gives_the_cold_result(which):
    cold = []
    for g in _fresh_elements(which):
        _classify_charpoly.cache_clear()
        cold.append(_outcome(g))
    _classify_charpoly.cache_clear()
    warm = [_outcome(g) for g in _fresh_elements(which)]
    assert _classify_charpoly.cache_info().hits > 0
    hot = [_outcome(g) for g in _fresh_elements(which)]
    assert warm == cold and hot == cold
    assert any(c[0]["class"] == LOXODROMIC for c in cold)


def test_elements_with_one_charpoly_get_fields_of_their_own():
    g = make_isometry(O_D12, [[3, 4], [2, 3]])
    h = g.inverse()
    assert g.charpoly == h.charpoly
    fg, fh = g.classification.scale_field, h.classification.scale_field
    assert fg is not fh
    before = fh.bracket()
    lo, hi, den = fg.bracket()
    # den alpha - lo > 0 straddles 0 on the bracket, so sign() must narrow it
    assert fg.element([-lo, den]).sign() == 1
    assert fg.bracket() != before
    assert fh.bracket() == before
    assert entropy(h) == entropy(make_isometry(O_D12, [[3, -4], [-2, 3]]))


def test_charpoly_stage_runs_once_per_distinct_charpoly():
    elems = _fresh_elements("um2")
    _classify_charpoly.cache_clear()
    for g in elems:
        g.classification
    distinct = {tuple(g.charpoly) for g in elems}
    assert len(elems) == 75 and len(distinct) == 8
    assert _classify_charpoly.cache_info().misses == 8


def test_a_rejected_charpoly_is_not_cached():
    # (x - 2)(x - 3): two roots above 1, so no isometry of a (1, n) form
    _classify_charpoly.cache_clear()
    for calls in (1, 2, 3):
        with pytest.raises(ArithmeticError, match="more than one root > 1"):
            _classify(Isometry(O_U, ((2, 0), (0, 3))))
        info = _classify_charpoly.cache_info()
        assert (info.misses, info.currsize) == (calls, 0)


@pytest.mark.parametrize("which", ["um2", "d12", "ua2"])
def test_loxodromic_bracket_is_the_one_refined_on_the_charpoly(which):
    # the bracket refined on the squarefree charpoly q is already narrow
    # enough, and it isolates the scale of the minimal polynomial too
    from hyperlat import polynomials as pol
    letters = _ua2_letters() if which == "ua2" else _letter_set(which)
    checked = 0
    for g in _word_pool(random.Random(47), letters, 120):
        q = pol.squarefree_part(g.charpoly)
        chain = pol.sturm_chain(q)
        if pol.count_roots_gt(q, 1, 1, chain) != 1:
            continue
        refined = pol.refine_bracket(q, pol.bracket_largest_root_above(q, 1, 1, chain),
                                     isometry._BRACKET_EPS)
        lo, hi, den = _classify_charpoly(tuple(g.charpoly))[1]
        assert (lo, hi, den) == refined
        assert (hi - lo) * isometry._BRACKET_EPS <= den
        checked += 1
    assert checked >= 10


def _parent_classify_charpoly(p):
    """The charpoly stage as it was before the cyclotomic factors were
    divided out first: a Sturm chain for the squarefree part, one for the
    count and the bracket, and one more in minimal_polynomial_of_root."""
    from hyperlat import polynomials as pol
    q = pol.squarefree_part(p)
    chain = pol.sturm_chain(q)
    above = pol.count_roots_gt(q, 1, 1, chain)
    if above > 1:
        raise ArithmeticError(
            "characteristic polynomial has more than one root > 1; input is "
            "not an isometry of a (1,n) form")
    if above == 1:
        bracket = pol.bracket_largest_root_above(q, 1, 1, chain)
        bracket = pol.refine_bracket(q, bracket, isometry._BRACKET_EPS)
        minpoly = pol.minimal_polynomial_of_root(q, bracket)
        return tuple(minpoly), bracket
    factors = pol.cyclotomic_factorization(p)
    if factors is None:
        raise ArithmeticError(
            "characteristic polynomial is neither expanding nor of finite "
            "multiplicative type; input is not an isometry of a (1,n) form")
    order_bound = math.lcm(*(d for d, _ in factors))
    if order_bound > isometry.ORDER_CAP:
        raise isometry.OrderCapExceeded(f"elliptic order bound {order_bound} exceeds cap")
    return order_bound


def _entropy_letters():
    """Pell, U+<-2>, U+A2 and U+A2+<-2> letters: reflections and transvections."""
    ua2m2 = [(g, f"g{k}") for k, g in enumerate(_memo_group("ua2m2")[0].generators)]
    return {"pell": _letter_set("d12"), "um2": _letter_set("um2"),
            "ua2": _ua2_letters(), "ua2m2": ua2m2 + [(ua2m2[-1][0].inverse(), "ti")]}


def _word_charpolys(seed, count):
    rng = random.Random(seed)
    return [tuple(g.charpoly) for letters in _entropy_letters().values()
            for g in _word_pool(rng, letters, count, max_len=7)]


def _poly_product(*factors):
    from hyperlat import polynomials as pol
    out = [1]
    for f in factors:
        out = pol.poly_mul(out, list(f))
    return tuple(out)


# Salem factors: Lehmer's degree-10 polynomial and two of degrees 4 and 6
SALEM = ((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), (1, -1, -1, -1, 1),
         (1, 0, -1, -1, -1, 0, 1))
QUADRATIC = tuple((1, -k, 1) for k in range(3, 9))


def _synthetic_charpolys(seed, count):
    """prod Phi_d^m times a quadratic unit's or a Salem number's factor."""
    from hyperlat import polynomials as pol
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        orders = rng.sample((1, 2, 3, 4, 5, 6, 8, 10, 12), rng.randint(0, 3))
        cyclo = [pol.cyclotomic(d) for d in orders for _ in range(rng.randint(1, 3))]
        out.append(_poly_product(rng.choice(QUADRATIC + SALEM), *cyclo))
    return out


def _faulty_charpolys():
    from hyperlat import polynomials as pol
    phi = pol.cyclotomic
    return [
        _poly_product((-2, 1), (-3, 1)),                        # two roots > 1
        _poly_product((1, -3, 1), (1, -4, 1), phi(1)),
        _poly_product((2, 1), phi(1)),                          # no root > 1
        (1, 3, 1), _poly_product((3, 1), phi(1), phi(1), phi(4)),
        _poly_product((1, -3, 1), (1, -3, 1), phi(1), phi(2)),  # squared Salem
        _poly_product(SALEM[1], SALEM[1], phi(3)),
        _poly_product((1, -3, 1), (1, -3, 1), (1, -3, 1)),
        (-2, 1), _poly_product((-2, 1), phi(2)),                # bisection hits the root
        _poly_product((-2, 1), phi(1), phi(6)),                 # a rational root > 1
        _poly_product(*(phi(d) for d in (32, 9, 5, 7, 11, 13))),  # order 1441440
        (1,),
    ]


def _stage_outcome(stage, p):
    _classify_charpoly.cache_clear()
    try:
        return "value", stage(p)
    except Exception as exc:  # the parent's fault, type and message, is the oracle
        return type(exc), str(exc)


@pytest.mark.parametrize("order_cap", [isometry.ORDER_CAP, 12])
def test_stage_matches_the_three_chain_stage(order_cap, monkeypatch):
    monkeypatch.setattr(isometry, "ORDER_CAP", order_cap)
    polys = (_word_charpolys(53, 60) + _synthetic_charpolys(59, 300)
             + _faulty_charpolys())
    kinds = set()
    for p in polys:
        want = _stage_outcome(_parent_classify_charpoly, p)
        assert _stage_outcome(_classify_charpoly, p) == want, p
        kinds.add(want[0] if want[0] != "value" else type(want[1]))
        if want[0] is ArithmeticError:
            kinds.add(want[1].split(";")[0])
    _classify_charpoly.cache_clear()
    assert {tuple, int, isometry.OrderCapExceeded} <= kinds
    assert {"characteristic polynomial has more than one root > 1",
            "characteristic polynomial is neither expanding nor of finite "
            "multiplicative type",
            "bracket does not isolate a root of the non-cyclotomic part"} <= kinds


def test_one_sturm_chain_per_loxodromic_charpoly_and_none_per_cyclotomic(monkeypatch):
    from hyperlat import polynomials as pol
    calls = []
    for name in ("sturm_chain", "_strip_cyclotomic"):
        real = getattr(pol, name)
        monkeypatch.setattr(pol, name,
                            lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    seen = set()
    for p in _word_charpolys(61, 40) + _synthetic_charpolys(67, 100):
        _classify_charpoly.cache_clear()
        calls.clear()
        loxodromic = isinstance(_classify_charpoly(p), tuple)
        assert calls.count("_strip_cyclotomic") == 1
        assert calls.count("sturm_chain") == (1 if loxodromic else 0), p
        seen.add(loxodromic)
    _classify_charpoly.cache_clear()
    assert seen == {True, False}


def test_classify_takes_one_matrix_power_unless_loxodromic(monkeypatch):
    from hyperlat import polynomials as pol
    powers = []
    real_power, real_mul = pol.matrix_power, pol.mat_mul
    monkeypatch.setattr(pol, "matrix_power",
                        lambda m, k: powers.append(k) or real_power(m, k))
    monkeypatch.setattr(pol, "mat_mul", lambda *a: powers.append("mat_mul") or real_mul(*a))
    kinds = set()
    rng = random.Random(71)
    for letters in _entropy_letters().values():
        for g in _word_pool(rng, letters, 40, max_len=7):
            g = Isometry(g.orientation, g.matrix)
            g.charpoly
            powers.clear()
            kind = _classify(g).kind
            assert len(powers) == (0 if kind == LOXODROMIC else 1)
            assert "mat_mul" not in powers
            kinds.add(kind)
    assert kinds == {ELLIPTIC, PARABOLIC, LOXODROMIC}


def test_elliptic_order_is_the_least_identity_power():
    orders = []
    rng = random.Random(73)
    for letters in _entropy_letters().values():
        for g in _word_pool(rng, letters, 150, max_len=7):
            cls = g.classification
            if cls.kind != ELLIPTIC:
                continue
            ident, power, k = identity_matrix(len(g.matrix)), g.matrix, 1
            while power != ident:
                power, k = mat_mul(power, g.matrix), k + 1
                assert k <= cls.order, (g.matrix, cls.order)
            assert k == cls.order
            orders.append(k)
    assert len(orders) >= 50 and {2, 3, 4, 6} <= set(orders)


def _word_keys(group, budget):
    mats, labels, inv_idx = groups._letters(group)
    inverse = {label: labels[k] for label, k in zip(labels, inv_idx)}
    return [conjugacy_key(w, inverse)
            for _, w in elements_up_to(group, budget)[1:]]


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
@pytest.mark.parametrize("which", ["um2", "pell", "ua2m2"])
def test_entropy_report_matches_per_element_classification(which, budget):
    group, _ = _memo_group(which)
    want = []
    for elem, word in elements_up_to(group, budget)[1:]:
        _classify_charpoly.cache_clear()
        want.append((word_string(word), elem.classification.kind, entropy(elem)))
    _classify_charpoly.cache_clear()
    report = entropy_report(_memo_group(which)[0], budget, 5)
    assert [(f.word, f.kind, f.entropy) for f in report.findings] == want


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
@pytest.mark.parametrize("which", ["um2", "pell", "ua2m2"])
def test_entropy_report_classifies_once_per_word_class(which, budget, monkeypatch):
    group, _ = _memo_group(which)
    keys = _word_keys(group, budget)
    calls = []
    monkeypatch.setattr(isometry, "_classify", lambda g: calls.append(g) or _classify(g))
    report = entropy_report(group, budget, 5)
    assert len(report.findings) == len(keys)
    assert len(calls) == len(set(keys))
    # the first element of each class is the one classified
    first = {}
    for (elem, _), key in zip(elements_up_to(group, budget)[1:], keys):
        first.setdefault(key, elem.matrix)
    assert [g.matrix for g in calls] == list(first.values())


def test_entropy_report_word_classes_of_the_u_m2_ball():
    group, _ = _memo_group("um2")
    keys = _word_keys(group, 3)
    assert (len(keys), len(set(keys))) == (75, 38)


def test_conjugate_words_share_a_key():
    inverse = {1: -1, -1: 1, 2: -2, -2: 2, 3: 3}  # 3 is an involution
    key = conjugacy_key((1, 2, 3), inverse)
    for word in ((2, 3, 1), (3, 1, 2), (3, -2, -1), (-1, 3, -2),  # rotations, inverse
                 (-2, 1, 2, 3, 2), (2, 2, 1, 2, 3, -2, -2), (3, 2, 3, 1, 3)):
        assert conjugacy_key(word, inverse) == key, word
    assert conjugacy_key((1, 2, 3), inverse) == min((1, 2, 3), (2, 3, 1), (3, 1, 2),
                                                    (3, -2, -1), (-2, -1, 3), (-1, 3, -2))
    # a word and its inverse share a key; words conjugate to neither do not
    assert conjugacy_key((1,), inverse) == conjugacy_key((-1,), inverse) == (-1,)
    assert len({conjugacy_key(w, inverse) for w in ((1,), (3,), (1, 2), (2, 1, 1), (1, -2))}) == 5


# -- closed-form factories against the per-basis-vector loops ----------------------

def _loop_reflection(lat, d):
    """Oracle: column j of the reflection is e_j + (e_j, d) d."""
    n = lat.rank
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        pe = lat.pair(e, d)
        cols.append(tuple(e[i] + pe * d[i] for i in range(n)))
    return tuple(zip(*cols))


def _loop_transvection(lat, ev, av):
    """Oracle: column j is b + (b,e) a - (b,a) e - (a,a)/2 (b,e) e for b = e_j."""
    half = lat.norm(av) // 2
    n = lat.rank
    cols = []
    for j in range(n):
        basis = tuple(1 if i == j else 0 for i in range(n))
        pe = lat.pair(basis, ev)
        pa = lat.pair(basis, av)
        cols.append(tuple(basis[i] + pe * av[i] - pa * ev[i] - half * pe * ev[i]
                          for i in range(n)))
    return tuple(zip(*cols))


def test_closed_form_factories_match_the_column_loops():
    checked = 0
    for o in (O_UM2, O_UA2, O_UA2M2):
        lat = o.lattice
        for root in enumerate_norm_vectors(lat, -2, 2):
            for d in (root, tuple(-c for c in root)):
                assert reflection(o, d).matrix == _loop_reflection(lat, d), d
                checked += 1
    assert checked > 100
    for o, e, a in ((O_UM2, (1, 0, 0), (0, 0, 1)), (O_UM2, (0, 1, 0), (0, 0, 1)),
                    (O_UA2M2, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0))):
        assert eichler_transvection(o, e, a).matrix == _loop_transvection(o.lattice, e, a)
