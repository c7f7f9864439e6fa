"""Quadratic-form engines: enumeration, congruence certificates, Hilbert
symbols, rational isotropy, and the stacked root-existence pipeline."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperlat import (build_lattice, direct_sum,
                      enumerate_norm_vectors, forms, hilbert_symbol, k3_report, linalg,
                      primitive_isotropic_vectors, rank1, rational_isotropy,
                      root_existence, standard_lattice)
from hyperlat.errors import BudgetExceeded, DimensionMismatch, InputError, InvalidParameter
from hyperlat.forms import (INFINITE_PLACE, first_norm_vector, replay_congruence,
                            replay_rational_certificate, replay_verdict,
                            squarefree_int)
from hyperlat.lattice import GramLattice
from hyperlat.model import pick_cone

U = build_lattice([[0, 1], [1, 0]])
U_MINUS2 = direct_sum(U, rank1(-2))
FAMILY3 = build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12]])
CC_D4 = direct_sum(rank1(32), standard_lattice("D4"))
CC_A2 = direct_sum(direct_sum(rank1(54), standard_lattice("A2")),
                   standard_lattice("A2"))
U_E8 = direct_sum(U, standard_lattice("E8"))


# -- enumeration ----------------------------------------------------------------

def brute_box(lat, m, h):
    """Oracle: raw product scan, canonicalized to first-nonzero-positive."""
    out = set()
    for v in itertools.product(range(-h, h + 1), repeat=lat.rank):
        if any(v) and lat.norm(v) == m:
            first = next(x for x in v if x)
            out.add(v if first > 0 else tuple(-x for x in v))
    return sorted(out)


def test_enumerate_examples():
    hits = enumerate_norm_vectors(U_MINUS2, -2, 1)
    assert (0, 0, 1) in hits
    assert enumerate_norm_vectors(FAMILY3, -2, 10) == []
    cc_hits = enumerate_norm_vectors(CC_D4, -2, 1)
    assert any(v[0] == 0 for v in cc_hits)  # a D4 basis root


def test_enumerate_matches_brute_force_and_order():
    rng = random.Random(3)
    lats = [U, U_MINUS2, build_lattice([[1, 0], [0, -2]]),
            build_lattice([[2, 1, 0], [1, -2, 1], [0, 1, -4]])]
    for lat in lats:
        for m in (-4, -2, 0, 1, 2):
            h = rng.choice((2, 3))
            got = enumerate_norm_vectors(lat, m, h)
            assert got == brute_box(lat, m, h)
            assert got == sorted(got)  # lexicographic contract


def test_enumerate_budget(monkeypatch):
    monkeypatch.setattr(forms, "ENUM_CAP", 1000)
    with pytest.raises(BudgetExceeded):
        enumerate_norm_vectors(CC_D4, -2, 100)


def test_primitive_isotropic_examples():
    hits = primitive_isotropic_vectors(U, 1)
    assert set(hits) == {(1, 0), (0, 1)}
    assert primitive_isotropic_vectors(FAMILY3, 20) == []
    hits3 = primitive_isotropic_vectors(U_MINUS2, 1)
    assert (1, 0, 0) in hits3


def test_primitive_isotropic_cone_filter():
    o = pick_cone(U, (1, 1))
    hits = primitive_isotropic_vectors(U, 2, orientation=o)
    assert all(U.pair(v, (1, 1)) > 0 for v in hits)


def _is_int_tuple(v):
    return type(v) is tuple and all(type(c) is int for c in v)


def test_lattice_vectors_are_plain_int_tuples():
    vectors = enumerate_norm_vectors(U_MINUS2, -2, 2)
    vectors += primitive_isotropic_vectors(U_MINUS2, 2)
    vectors.append(root_existence(U_MINUS2, -2, 2).witness)
    vectors.append(rational_isotropy(U).witness)
    vectors.append(first_norm_vector(CC_D4, -2, 1)[0])
    vectors.append(pick_cone(U_MINUS2).base)
    vectors.append(pick_cone(U_MINUS2, [1, 1, 0]).base)
    assert len(vectors) > 7 and all(_is_int_tuple(v) for v in vectors), vectors
    # the form takes any int sequence of the lattice's rank
    assert U_MINUS2.pair([1, 2, 3], [0, 1, 1]) == U_MINUS2.pair((1, 2, 3), (0, 1, 1)) == -5
    for u, v in (((1, 2), (0, 1, 1)), ([1, 2, 3], [0, 1]), ([1, 2, 3, 4], (0, 1, 1))):
        with pytest.raises(DimensionMismatch):
            U_MINUS2.pair(u, v)


# -- congruence obstructions -------------------------------------------------------

def _congruence_parts(lat, m):
    """The parts of root_existence's congruence certificate, or None."""
    v = root_existence(lat, m, 1)
    if v.kind != "certified_none" or v.certificate["kind"] != "congruence":
        return None
    assert v.certificate["norm"] == m
    return v.certificate["parts"]


def test_congruence_family_mod4():
    for k in (1, 2, 5):
        lat = build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12 * k]])
        assert _congruence_parts(lat, -2) == [{"modulus": 4, "norm": -2}]
        assert replay_congruence(lat, root_existence(lat, -2, 1).certificate)


def test_congruence_none_cases():
    assert forms._scan_residues(U.gram, 0, 4) and forms._scan_residues(U.gram, 0, 8)
    assert forms._scan_residues(((2, 0), (0, -2)), -2, 8)
    assert _congruence_parts(build_lattice([[2, 0], [0, -2]]), -2) is None
    assert _congruence_parts(U_MINUS2, -2) is None


def test_congruence_primitivity_matters():
    # diag(1,-4): x^2 - 4y^2 = -2 has no solution mod 4 (x^2 is 0 or 1 mod
    # 4); mod 3 it has (1, 0), so the ladder certifies at its second modulus
    lat = build_lattice([[1, 0], [0, -4]])
    assert _congruence_parts(lat, -2) == [{"modulus": 4, "norm": -2}]
    # x^2 + y^2 = 0 mod 4 only for x, y both even: the zero residue vector
    # solves it, but no primitive one does; mod 2, (1, 1) does
    assert not forms._scan_residues(((1, 0), (0, 1)), 0, 4)
    assert forms._scan_residues(((1, 0), (0, 1)), 0, 2)


def _brute_residues(gram, m, modulus):
    """Oracle: every residue vector, primitive at each prime of the modulus."""
    primes = [p for p in range(2, modulus + 1)
              if modulus % p == 0 and all(p % q for q in range(2, p))]
    n = len(gram)
    return any(all(any(x % p for x in v) for p in primes)
               and sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
               % modulus == m % modulus
               for v in itertools.product(range(modulus), repeat=n))


U_A2_X11 = build_lattice([[0, 11, 0, 0], [11, 0, 0, 0], [0, 0, -22, 11], [0, 0, 11, -22]])
UNIFORM4 = build_lattice([[4, 0, 0, 0], [0, -8, 0, 0], [0, 0, -12, 0], [0, 0, 0, -12]])


def test_scan_residues_matches_brute_force():
    # ranks 1-4 and moduli with one to three primes, up to 60,000 residue
    # vectors, so the inline last coordinate meets several missing units
    rng = random.Random(404)
    moduli = (2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27)
    cases = {n: 0 for n in range(1, 5)}
    while sum(cases.values()) < 200:
        n, modulus = rng.randint(1, 4), rng.choice(moduli)
        if modulus ** n > 60_000:
            continue
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        m = rng.randint(-8, 8)
        assert forms._scan_residues(gram, m, modulus) == _brute_residues(gram, m, modulus), \
            (gram, m, modulus)
        cases[n] += 1
    assert min(cases.values()) >= 30
    # 11(U+A2) has a primitive residue root mod 9; the uniform4 certificate
    # modulus has none
    assert forms._scan_residues(U_A2_X11.gram, -2, 9)
    assert _brute_residues(U_A2_X11.gram, -2, 9)
    assert root_existence(UNIFORM4, -2, 10).certificate["parts"] == [{"modulus": 4, "norm": -2}]
    assert not forms._scan_residues(UNIFORM4.gram, -2, 4)
    assert not _brute_residues(UNIFORM4.gram, -2, 4)


def test_congruence_certificate_replays_only_on_its_lattice():
    cert = root_existence(FAMILY3, -2, 1).certificate
    assert replay_congruence(FAMILY3, cert)
    # U+<-2> has the root (0, 0, 1), so no residue scan can obstruct it
    assert U_MINUS2.norm((0, 0, 1)) == -2
    assert not replay_congruence(U_MINUS2, cert)


@pytest.mark.parametrize("parts", [
    [{"modulus": 4, "norm": 1}],  # a norm that is no square class of -2
    [],  # no part at all
    [{"modulus": 4, "norm": -2}, {"modulus": 4, "norm": -8}],  # an extra class
])
def test_congruence_replay_refuses_parts_off_the_square_classes(parts):
    # U+<-2> has the root (0, 0, 1): each forgery would "prove" it rootless
    assert not replay_congruence(U_MINUS2, {"kind": "congruence", "norm": -2,
                                            "parts": parts})
    # a norm -8 certificate needs a part for -8 and for -2
    assert not replay_congruence(FAMILY3, {"kind": "congruence", "norm": -8,
                                           "parts": [{"modulus": 4, "norm": -8}]})


@pytest.mark.parametrize("modulus, norm", [
    (0, -2), (1, -2), (-3, -2), (4.0, -2), ("4", -2), (True, -2), (None, -2),
    (4, "-2"), (4, -2.0),
])
def test_congruence_replay_refuses_a_malformed_modulus_or_norm(modulus, norm):
    cert = {"kind": "congruence", "norm": norm, "parts": [{"modulus": modulus, "norm": -2}]}
    with pytest.raises(InputError, match="certificate (moduli|norm) must be"):
        replay_congruence(U_MINUS2, cert)


def test_congruence_replay_refuses_a_modulus_over_the_residue_cap():
    # 1024^4 residue vectors: a scan that would not end in any useful time
    forged = {"kind": "congruence", "norm": -2, "parts": [{"modulus": 1024, "norm": -2}]}
    with pytest.raises(InputError, match=r"modulus 1024 needs 1024\^4 residue vectors "
                                         r"at rank 4, over the cap of 200000"):
        replay_congruence(UNIFORM4, forged)
    # at rank 2 the cap lies between 447^2 and 448^2; <2>+<-2> has the root
    # (0, 1), so the scan the cap allows finds a residue root at once
    lat = build_lattice([[2, 0], [0, -2]])
    assert 447 ** 2 <= forms.LADDER_RESIDUE_CAP < 448 ** 2
    cert = {"kind": "congruence", "norm": -2, "parts": [{"modulus": 447, "norm": -2}]}
    assert not replay_congruence(lat, cert)
    cert["parts"][0]["modulus"] = 448
    with pytest.raises(InputError, match="over the cap"):
        replay_congruence(lat, cert)


def test_every_emitted_congruence_certificate_replays():
    lattices = (_random_forms(41, 30) + _random_forms(43, 30) + _random_block_lattices(2026, 60)
                + WITNESS_LATTICES + [FAMILY3, U_MINUS2, UNIFORM4, U_A2_X11,
                                      build_lattice([[1, 0], [0, -4]])])
    lattices += [build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12 * k]]) for k in (1, 2, 5)]
    replayed = 0
    for lat in lattices:
        for norm in (-2, -8, -18, -5, 3):
            v = root_existence(lat, norm, 1)
            if v.kind == "certified_none" and v.certificate["kind"] == "congruence":
                assert replay_congruence(lat, v.certificate), (lat.gram, norm)
                replayed += 1
    assert replayed >= 30


def test_rational_certificate_replays_only_on_its_lattice():
    lat = direct_sum(direct_sum(rank1(2), rank1(-6)), rank1(-6))
    v = root_existence(lat, -2, 10)
    assert v.certificate == {"kind": "rational_nonrepresentability",
                             "diagonal": [2, -6, -6, 2], "failing_places": [2, 3],
                             "norm": -2}
    assert replay_verdict(lat, v)
    assert not replay_verdict(U_MINUS2, v)  # U+<-2> has the root (0, 0, 1)
    fibration = rational_isotropy(FAMILY3).certificate
    assert replay_rational_certificate(FAMILY3, fibration)
    assert not replay_rational_certificate(U_MINUS2, fibration)
    assert not replay_rational_certificate(FAMILY3, dict(fibration, failing_places=[]))


# -- Hilbert symbols ------------------------------------------------------------------

def test_hilbert_trivial():
    for place in (2, 3, 5, 7, INFINITE_PLACE):
        assert hilbert_symbol(1, 1, place) == 1


def test_hilbert_minus1_minus1_at_2():
    # oracle: -x^2 - y^2 = z^2 has no primitive solution mod 8
    solvable = False
    for x, y, z in itertools.product(range(8), repeat=3):
        if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
            continue
        if (-x * x - y * y - z * z) % 8 == 0:
            solvable = True
    assert not solvable
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_2_3_at_3():
    # oracle: reduces to the Legendre symbol (2|3) = -1
    assert pow(2, (3 - 1) // 2, 3) == 3 - 1
    assert hilbert_symbol(2, 3, 3) == -1


def _places_for(a, b):
    places = {2, INFINITE_PLACE}
    for value in (squarefree_int(a), squarefree_int(b)):
        v = abs(value)
        p = 2
        while p * p <= v:
            if v % p == 0:
                places.add(p)
                while v % p == 0:
                    v //= p
            p += 1
        if v > 1:
            places.add(v)
    return places


def test_hilbert_symmetry_bimultiplicativity_product_formula():
    rng = random.Random(17)
    pairs = []
    while len(pairs) < 200:
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a and b:
            pairs.append((a, b))
    for a, b in pairs:
        places = _places_for(a, b)
        for p in places:
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        prod = 1
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1
    for _ in range(60):
        a, a2, b = (rng.choice([x for x in range(-20, 21) if x]) for _ in range(3))
        for p in (2, 3, 5, 7, INFINITE_PLACE):
            assert hilbert_symbol(a * a2, b, p) == \
                hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)


# -- rational isotropy ------------------------------------------------------------------

def test_isotropy_examples():
    v = rational_isotropy(U)
    assert v.isotropic and U.norm(v.witness) == 0

    l2 = build_lattice([[2, 0], [0, -6]])
    v2 = rational_isotropy(l2)
    assert not v2.isotropic
    assert 3 in v2.certificate["failing_places"]
    assert replay_rational_certificate(l2, v2.certificate)

    v3 = rational_isotropy(CC_A2)
    assert v3.isotropic and v3.method == "indefinite_rank_ge_5"
    assert CC_A2.norm(v3.witness) == 0


def _diagonal_lattice(diag):
    return build_lattice([[d if i == j else 0 for j in range(len(diag))]
                          for i, d in enumerate(diag)])


def test_rational_certificate_replay_at_every_rank():
    # rank 1 is anisotropic at every place; rank >= 5 is isotropic at every
    # finite place (Serre, A Course in Arithmetic, IV 2.2, Thm 6)
    def replay(diag, places):
        return replay_rational_certificate(
            _diagonal_lattice(diag), {"diagonal": diag, "failing_places": places})

    assert replay([3], [2])
    assert not replay([1, -1, 1, -1, 1], [2])
    assert not replay([1, 1, 1, 1, 1, 1], [3])
    assert replay([1, 1, 1, 1, 1], [INFINITE_PLACE])
    # an empty diagonal is no lattice's: a mismatch, not an error
    assert not replay_rational_certificate(_diagonal_lattice([3]),
                                           {"diagonal": [], "failing_places": [2]})


@pytest.mark.parametrize("cert, key", [
    ({"kind": "congruence"}, "parts"),
    ({"kind": "congruence", "parts": [{"modulus": 8}]}, "norm"),
    ({"kind": "congruence", "parts": [{"norm": -2}]}, "modulus"),
    ({"kind": "rational_anisotropy", "failing_places": [2]}, "diagonal"),
    ({"kind": "rational_anisotropy", "diagonal": [3]}, "failing_places"),
])
def test_replay_of_a_certificate_missing_a_key_is_an_input_error(cert, key):
    replay = replay_congruence if cert["kind"] == "congruence" else \
        replay_rational_certificate
    with pytest.raises(InputError, match=f"'{key}'"):
        replay(U_MINUS2, cert)


def ternary_brute_witness(a, b, c, bound=30):
    """Oracle for diagonal ternaries: solve ax^2+by^2+cz^2 = 0 up to a bound."""
    for x in range(bound + 1):
        for y in range(bound + 1):
            t = a * x * x + b * y * y
            if (-t) % c == 0:
                z2 = -t // c
                if 0 <= z2 <= bound * bound:
                    z = math.isqrt(z2)
                    if z * z == z2 and (x or y or z):
                        return (x, y, z)
    return None


def test_isotropy_against_bruteforce_ternaries():
    entries = (1, 2, 3, 6, -1, -2, -3, -6)
    for a, b, c in itertools.product(entries, repeat=3):
        lat = build_lattice([[a, 0, 0], [0, b, 0], [0, 0, c]])
        verdict = rational_isotropy(lat, witness_height=1)
        witness = ternary_brute_witness(a, b, c)
        if witness is not None:
            assert verdict.isotropic, (a, b, c, witness)
        if not verdict.isotropic:
            assert witness is None, (a, b, c)


def test_isotropy_witnesses_reverify():
    for lat in (U, U_MINUS2, CC_A2):
        v = rational_isotropy(lat)
        assert v.isotropic
        assert lat.norm(v.witness) == 0
        g = math.gcd(*[abs(c) for c in v.witness])
        assert g == 1


# -- root existence ---------------------------------------------------------------------

def test_root_existence_examples():
    v = root_existence(FAMILY3, -2, 10)
    assert v.kind == "certified_none"
    assert v.certificate["parts"][0]["modulus"] == 4
    assert replay_verdict(FAMILY3, v)

    v2 = root_existence(U_MINUS2, -2, 3)
    assert v2.kind == "witness" and v2.witness == (0, 0, 1)
    assert replay_verdict(U_MINUS2, v2)

    v3 = root_existence(CC_D4, -2, 1)
    assert v3.kind == "witness"
    assert CC_D4.norm(v3.witness) == -2


def test_root_existence_rational_stage():
    # diag(1,-3) cannot represent -2 over Q: x^2 - 3y^2 = -2 has no
    # 3-adic solution (x^2 = -2 = 1 mod 3 gives x = +-1, descent fails at
    # the next step); the pipeline certifies via the augmented lattice.
    lat = build_lattice([[1, 0], [0, -3]])
    v = root_existence(lat, -5, 5)
    assert v.kind in ("certified_none", "none_up_to_height")
    if v.kind == "certified_none":
        assert replay_verdict(lat, v)


def test_root_existence_never_claims_without_certificate():
    # diag(1,-7) and norm 3: 3 = x^2 - 7y^2 solvable? (it is not, up to 10)
    lat = build_lattice([[1, 0], [0, -7]])
    v = root_existence(lat, 3, 10)
    assert v.kind in ("certified_none", "none_up_to_height")
    if v.kind == "none_up_to_height":
        assert v.height_bound == 10


def test_root_existence_imprimitive_divisor_classes():
    # norm -8 vectors in U + <-2>: (0,0,2) is imprimitive (d=2, target -2);
    # the congruence stage must not certify absence.
    v = root_existence(U_MINUS2, -8, 2)
    assert v.kind == "witness"
    assert U_MINUS2.norm(v.witness) == -8


def _old_rational_isotropy(lattice, witness_height):
    """rational_isotropy as it was when it diagonalised on every call."""
    diag = [squarefree_int(d) for d in linalg.congruence_diagonal(lattice.gram)[0]]
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return forms.IsotropyVerdict(
            isotropic=False, method="definite",
            certificate={"kind": "rational_anisotropy", "diagonal": diag,
                         "failing_places": [INFINITE_PLACE]})
    if lattice.rank >= 5:
        return forms.IsotropyVerdict(
            isotropic=True, method="indefinite_rank_ge_5",
            witness=forms._search_isotropic_witness(lattice, witness_height))
    failing = [p for p in forms._relevant_places(diag)
               if not forms._locally_isotropic(diag, p)]
    if failing:
        return forms.IsotropyVerdict(
            isotropic=False, method="local_obstruction",
            certificate={"kind": "rational_anisotropy", "diagonal": diag,
                         "failing_places": failing})
    return forms.IsotropyVerdict(
        isotropic=True, method="local_global",
        witness=forms._search_isotropic_witness(lattice, witness_height))


def _random_block_lattices(seed, count):
    """Direct sums of rank 1 to 6 of U, <k> and random rank-2 blocks, half of
    them in a basis mixed by one unimodular shear; U blocks force zero pivots."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        blocks = []
        while sum(b.rank for b in blocks) < rng.randint(1, 6):
            kind = rng.randrange(3)
            if kind == 0:
                blocks.append(U)
            elif kind == 1:
                blocks.append(rank1(rng.choice([-1, 1]) * rng.randint(1, 12)))
            else:
                a, b, c = (rng.randint(-4, 4) for _ in range(3))
                if a * c - b * b:
                    blocks.append(build_lattice([[a, b], [b, c]]))
        lat = blocks[0]
        for block in blocks[1:]:
            lat = direct_sum(lat, block)
        if lat.rank > 6:
            continue
        if len(out) % 2 and lat.rank > 1:
            i, j = rng.sample(range(lat.rank), 2)
            shear = [[int(r == c) + (r == i and c == j) * rng.randint(1, 3)
                      for c in range(lat.rank)] for r in range(lat.rank)]
            gram = linalg.mat_mul(linalg.transpose(shear), linalg.mat_mul(lat.gram, shear))
            lat = build_lattice(gram)
        out.append(lat)
    return out


def test_rational_stages_match_the_diagonalising_path(monkeypatch):
    lattices = _random_block_lattices(2026, 120)
    assert {lat.rank for lat in lattices} == set(range(1, 7))
    zero_pivot = sum(lat.gram[0][0] == 0 for lat in lattices)
    assert zero_pivot >= 10
    # no residue obstruction, so every verdict past stage 1 is a box search
    monkeypatch.setattr(forms, "_scan_residues", lambda *a: True)
    certified = 0
    for lat in lattices:
        assert rational_isotropy(lat, witness_height=1) == _old_rational_isotropy(lat, 1)
        for m in (-2, -4, -6, 2):
            old = _old_rational_isotropy(direct_sum(lat, rank1(-m)), 1)
            new = root_existence(lat, m, 1)
            if old.isotropic:
                assert new.kind != "certified_none", (lat, m)
            else:
                assert new.certificate == dict(
                    old.certificate, kind="rational_nonrepresentability", norm=m)
                assert replay_verdict(lat, new)
                certified += 1
    assert certified >= 50


def test_k3_report_diagonalises_once(monkeypatch):
    calls = []
    real = linalg.congruence_diagonal
    monkeypatch.setattr(linalg, "congruence_diagonal",
                        lambda gram: calls.append(gram) or real(gram))
    for gram in (FAMILY3.gram, U_MINUS2.gram):
        calls.clear()
        k3_report(build_lattice(gram))
        assert len(calls) == 1


def test_root_existence_searches_no_isotropic_witness(monkeypatch):
    def refuse(*_a):
        raise AssertionError("root_existence searched for an isotropic witness")

    monkeypatch.setattr(forms, "_search_isotropic_witness", refuse)
    for lat in (FAMILY3, U_MINUS2, CC_D4, build_lattice([[1, 0], [0, -3]])):
        for m in (-2, -5, 3):
            root_existence(lat, m, 2)


# -- first-hit witnesses against full listings ---------------------------------------

def _random_forms(seed, count, hyperbolic=False):
    """Nondegenerate symmetric forms of rank 2 to 4 with entries in [-3, 3]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        try:
            lat = build_lattice(rows)
        except Exception:
            continue  # degenerate
        if not hyperbolic or lat.signature == (1, n - 1):
            out.append(lat)
    return out


WITNESS_LATTICES = [CC_D4, CC_A2, U_E8]


def _listing(lat, m, h):
    """Oracle: the brute-force box up to rank 5, the full DFS listing beyond."""
    if lat.rank <= 5:
        return brute_box(lat, m, h)
    return enumerate_norm_vectors(lat, m, h)


def _first_primitive(vectors):
    return next((v for v in vectors if math.gcd(*v) == 1), None)


@pytest.mark.parametrize("norm", (-2, -8))
def test_root_witness_is_first_of_full_listing(norm):
    for lat in _random_forms(41, 30) + WITNESS_LATTICES:
        for h in (1, 2):
            verdict = root_existence(lat, norm, h)
            listing = _listing(lat, norm, h)
            if verdict.kind == "witness":
                assert verdict.witness == listing[0]
            else:  # a certificate or an empty box: nothing to list either way
                assert listing == []


def test_isotropic_witness_is_first_primitive_of_full_listing():
    for lat in _random_forms(43, 30) + WITNESS_LATTICES:
        verdict = rational_isotropy(lat, witness_height=2)
        # the witness search doubles the height: 1, then 2
        expected = (_first_primitive(_listing(lat, 0, 1))
                    or _first_primitive(_listing(lat, 0, 2)))
        got = verdict.witness
        assert got == expected
        if expected is not None:
            assert verdict.isotropic


def test_pick_cone_base_is_first_of_full_listing():
    checked = 0
    for lat in _random_forms(47, 30, hyperbolic=True) + WITNESS_LATTICES:
        # pick_cone tries norms 1..4h^2 at each height in turn
        expected = next((listing[0] for h in (1, 2) for m in range(1, 4 * h * h + 1)
                         if (listing := _listing(lat, m, h))), None)
        if expected is None:
            continue  # the base lies beyond height 2, out of the oracle's reach
        assert pick_cone(lat).base == expected
        checked += 1
    assert checked >= 25


def test_pinned_witnesses_survive_large_heights():
    # the old box-volume cap refused height 100 at rank 5 (201^5 > 10^8);
    # the first hit is the same lex-first root at every height
    v = root_existence(CC_D4, -2, 100)
    assert v.kind == "witness"
    assert v.witness == brute_box(CC_D4, -2, 1)[0] == (0, 0, 0, 0, 1)
    assert root_existence(U_MINUS2, -2, 100).witness == (0, 0, 1)


def test_budget_counts_candidates_tested(monkeypatch):
    monkeypatch.setattr(forms, "ENUM_CAP", 1000)
    with pytest.raises(BudgetExceeded,
                       match=r"box enumeration .*: (\d+) candidates tested.* budget of 1000$"
                       ) as info:
        enumerate_norm_vectors(CC_D4, -2, 100)
    monkeypatch.undo()
    tested = int(info.value.args[0].split(": ")[1].split()[0])
    assert 0 < tested <= 1000
    # a chained search carries its count: the budget covers the whole call
    witness, tested = first_norm_vector(U_MINUS2, -2, 3)
    assert witness == (0, 0, 1) and tested > 0
    assert first_norm_vector(U_MINUS2, -2, 3, tested=500)[1] == 500 + tested
    monkeypatch.setattr(forms, "ENUM_CAP", 500)
    with pytest.raises(BudgetExceeded, match="500 candidates tested"):
        first_norm_vector(U_MINUS2, -2, 3, tested=500)


def _random_form(rng, n, last):
    """A random symmetric integer form of rank n with gram[n-1][n-1] = last."""
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(-4, 4)
    gram[-1][-1] = last
    return tuple(tuple(row) for row in gram)


# the last diagonal entry: zero (a linear last level), negative, positive
@pytest.mark.parametrize("last_sign", [0, -1, 1])
def test_solved_last_level_matches_brute_force(last_sign, monkeypatch):
    monkeypatch.setattr(forms, "ENUM_CAP", 10**9)
    rng = random.Random(17 + last_sign)
    solved = 0
    for case in range(120):
        n = 1 + case % 5
        h = rng.randint(1, 4)
        while (2 * h + 1) ** n > 6561:  # keep the oracle's box small
            h -= 1
        gram = _random_form(rng, n, last_sign * rng.randint(1, 4))
        m = rng.randint(-8, 4)
        accept = (lambda v: sum(v) % 2 == 0) if case % 3 == 1 else None
        want = [v for v in brute_box(GramLattice(gram, n), m, h)
                if accept is None or accept(v)]
        hits, tested = forms._scan_box(gram, m, h, accept=accept)
        assert hits == want, (gram, m, h)
        first, _ = forms._scan_box(gram, m, h, first=True, accept=accept)
        assert first == want[:1], (gram, m, h)
        solved += bool(want)
        if n == 1:
            assert tested == 1  # one solved level, counted once
    assert solved >= 40


def test_solved_last_level_with_a_vanishing_quadratic(monkeypatch):
    # gram[1][1] = gram[0][1] = 0: once v_0 = 1 every v_1 solves norm 1,
    # and no v_1 solves norm 2
    monkeypatch.setattr(forms, "ENUM_CAP", 100)
    gram = ((1, 0), (0, 0))
    assert forms._scan_box(gram, 1, 3)[0] == [(1, t) for t in range(-3, 4)]
    assert forms._scan_box(gram, 2, 3)[0] == []
    # the zero vector is never listed, though its last level vanishes too
    assert forms._scan_box(((0,),), 0, 2) == ([(1,), (2,)], 1)
    zero = ((0, 0), (0, 0))
    assert forms._scan_box(zero, 0, 1)[0] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert forms._scan_box(zero, 0, 1, first=True,
                           accept=lambda v: v[0] == 1)[0] == [(1, -1)]


def test_solved_last_level_counts_one_candidate(monkeypatch):
    # x^2 + y^2 = 5 at height 3: the first level counts its 4 values, and
    # v_0 = 0, 1, 2 reach the solved level once each (v_0 = 3 is pruned);
    # stopping at the hit (1, -2) refunds the 2 values after v_0 = 1
    monkeypatch.setattr(forms, "ENUM_CAP", 100)
    assert forms._scan_box(((1, 0), (0, 1)), 5, 3) == (
        [(1, -2), (1, 2), (2, -1), (2, 1)], 4 + 3)
    assert forms._scan_box(((1, 0), (0, 1)), 5, 3, first=True) == (
        [(1, -2)], 4 + 2 - 2)
    monkeypatch.setattr(forms, "ENUM_CAP", 0)
    with pytest.raises(BudgetExceeded, match="0 candidates tested, the next 1 "):
        forms._scan_box(((2,),), 2, 5)


def _definite_tail_form(rng, sign):
    """A hyperbolic head (U, <2k> or a random indefinite row) and a definite
    trailing 2x2 block of the given sign, coupled by random cross terms."""
    head = rng.choice(([[0, 1], [1, 0]], [[2 * rng.randint(1, 3)]], None))
    if head is None:
        head = [[rng.randint(-3, 3), rng.randint(1, 3)], [0, -rng.randint(1, 3)]]
        head[1][0] = head[0][1]
    a, c = rng.randint(1, 5), rng.randint(1, 5)
    b = rng.randint(-2, 2)
    while b * b >= a * c:
        b = rng.randint(-2, 2)
    k = len(head)
    n = k + 2
    gram = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            gram[i][j] = head[i][j]
        for j in range(k, n):
            gram[i][j] = gram[j][i] = rng.randint(-2, 2)
    gram[k][k], gram[k][k + 1], gram[k + 1][k + 1] = sign * a, sign * b, sign * c
    gram[k + 1][k] = sign * b
    return tuple(tuple(row) for row in gram)


@pytest.mark.parametrize("sign", [1, -1])
def test_narrowed_penultimate_level_matches_brute_force(sign, monkeypatch):
    monkeypatch.setattr(forms, "ENUM_CAP", 10**9)
    rng = random.Random(61 + sign)
    solved = 0
    for case in range(90):
        gram = _definite_tail_form(rng, sign)
        n = len(gram)
        h = rng.randint(1, 4)
        while (2 * h + 1) ** n > 6561:  # keep the oracle's box small
            h -= 1
        m = rng.randint(-10, 10)
        accept = (lambda v: v[-1] % 2 == 0) if case % 3 == 1 else None
        want = [v for v in brute_box(GramLattice(gram, n), m, h)
                if accept is None or accept(v)]
        assert forms._scan_box(gram, m, h, accept=accept)[0] == want, (gram, m, h)
        assert forms._scan_box(gram, m, h, first=True, accept=accept)[0] == want[:1]
        solved += bool(want)
    assert solved >= 20


def test_narrowed_level_without_a_real_last_coordinate(monkeypatch):
    # 2x^2 + 2xy + 2y^2 is positive definite: at the root node D(s) < 0 for
    # every s, so the level returns at once, still counting its 4 values
    monkeypatch.setattr(forms, "ENUM_CAP", 100)
    assert forms._scan_box(((2, 1), (1, 2)), -2, 3) == ([], 4)
    # norm 2: D(s) >= 0 exactly for s in [-1, 1], so of v_0 = 0..3 only 0
    # and 1 reach the solved level (v_0 = 2, 3 pass the box-bound test)
    assert forms._scan_box(((2, 1), (1, 2)), 2, 3) == ([(0, 1), (1, -1), (1, 0)], 4 + 2)
    # x^2 + Q(y, z) = 3 at height 2: the root counts 3; x = 0 counts 3 and
    # solves y = 0, 1; x = 1 counts 5 and solves y = -1, 0, 1 (y = -2 passes
    # the box-bound test); x = 2 counts 5 and has no real z at any y
    hits = [(1, -1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 1), (1, 1, -1), (1, 1, 0)]
    assert forms._scan_box(((1, 0, 0), (0, 2, 1), (0, 1, 2)), 3, 2) == (
        hits, 3 + (3 + 2) + (5 + 3) + 5)
    # behind U the head (0, 0) has no real last coordinate for norm -2 either;
    # the hits have a head (x, y) with xy < 0
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    assert forms._scan_box(gram, -2, 2)[0] == brute_box(GramLattice(gram, 4), -2, 2)


def _old_norm_bounds_by_depth(gram, height):
    """Oracle: the per-depth bounds summed afresh at every depth, O(n^3)."""
    n = len(gram)
    h2 = height * height
    bounds = []
    for k in range(n + 1):
        lo = hi = 0
        for i in range(k, n):
            gii = gram[i][i]
            if gii >= 0:
                hi += gii * h2
            else:
                lo += gii * h2
            for j in range(i + 1, n):
                spread = 2 * abs(gram[i][j]) * h2
                lo -= spread
                hi += spread
        bounds.append((lo, hi))
    return bounds


def _old_scan_box(gram, m, height, *, tested=0, first=False, accept=None):
    """Oracle: the box DFS with a frame of its own for every last-level solve."""
    cap = forms.ENUM_CAP
    n = len(gram)
    last = n - 1
    pen = last - 1
    glast = gram[last][last]
    gpl = gram[pen][last]
    det2 = gram[pen][pen] * glast - gpl * gpl
    bounds = _old_norm_bounds_by_depth(gram, height)
    steps = [[2 * x for x in row] for row in gram]
    lin = [0] * n
    prefix = []
    out = []

    def rec(depth, partial, zero_prefix):
        nonlocal tested
        lo = 0 if zero_prefix else -height
        count = 1 if depth == last else height - lo + 1
        if tested + count > cap:
            raise BudgetExceeded(
                f"box enumeration (norm {m}, height {height}): {tested} candidates "
                f"tested, the next {count} would exceed the budget of {cap}")
        tested += count
        if depth == last:
            for t in forms._level_roots(glast, lin[last], partial - m, lo, height):
                if zero_prefix and t == 0:
                    continue
                v = (*prefix, t)
                if accept is None or accept(v):
                    out.append(v)
                    if first:
                        return True
            return False
        ld = lin[depth]
        hi = height
        if depth == pen and det2 > 0:
            lt = lin[last]
            half = gpl * lt - glast * ld
            disc = half * half + det2 * (lt * lt - 4 * glast * (partial - m))
            if disc < 0:
                return False
            r = math.isqrt(disc)
            den = 2 * det2
            lo = max(lo, -((r - half) // den))
            hi = min(hi, (half + r) // den)
            if lo > hi:
                return False
        qlo, qhi = bounds[depth + 1]
        gdd = gram[depth][depth]
        step = steps[depth]
        tail = range(depth + 1, n)
        for j in tail:
            lin[j] += step[j] * (lo - 1)
        for t in range(lo, hi + 1):
            slack = 0
            for j in tail:
                x = lin[j] + step[j]
                lin[j] = x
                slack += x if x >= 0 else -x
            slack *= height
            p = partial + (gdd * t + ld) * t
            if p + qlo - slack <= m <= p + qhi + slack:
                prefix.append(t)
                if rec(depth + 1, p, zero_prefix and t == 0):
                    tested -= height - t
                    return True
                prefix.pop()
        for j in tail:
            lin[j] -= step[j] * hi
        return False

    rec(0, 0, True)
    return out, tested


def _scan_outcome(scan, gram, m, h, **options):
    try:
        return scan(gram, m, h, **options)
    except BudgetExceeded as exc:
        return str(exc)


def test_norm_bounds_by_depth_match_the_cubic_loop():
    rng = random.Random(29)
    for case in range(400):
        n = 1 + case % 10
        gram = _random_form(rng, n, rng.randint(-4, 4))
        h = rng.randint(1, 12)
        assert forms._norm_bounds_by_depth(gram, h) == _old_norm_bounds_by_depth(gram, h)


def test_inlined_last_level_matches_the_framed_dfs(monkeypatch):
    # ranks 1 and 2 reach the special cases: no penultimate level at rank
    # 1, the penultimate level at the root at rank 2
    monkeypatch.setattr(forms, "ENUM_CAP", 10**9)
    rng = random.Random(83)
    hits = firsts = 0
    for case in range(360):
        if case % 4 == 3:  # rank 3 or 4 with a definite trailing block
            gram = _definite_tail_form(rng, rng.choice((1, -1)))
        else:
            gram = _random_form(rng, 1 + case % 6, rng.randint(-4, 4))
        n = len(gram)
        h = rng.randint(1, 4 if n <= 4 else 2)
        m = rng.randint(-8, 4)  # m = 0 lists vectors whose zero prefix is long
        accept = ((lambda v: sum(v) % 2 == 0), (lambda v: v[-1] > 0), None)[case % 3]
        tested = rng.choice((0, 0, 37))
        for first in (False, True):
            want = _old_scan_box(gram, m, h, tested=tested, first=first, accept=accept)
            got = forms._scan_box(gram, m, h, tested=tested, first=first, accept=accept)
            assert got == want, (gram, m, h, first)
            hits += bool(got[0])
            firsts += first and bool(got[0])
    assert hits >= 350 and firsts >= 180


def test_inlined_last_level_refuses_as_the_framed_dfs(monkeypatch):
    rng = random.Random(89)
    refused = 0
    for case in range(300):
        n = 1 + case % 6
        gram = _random_form(rng, n, rng.randint(-4, 4))
        h = rng.randint(1, 3)
        m = rng.randint(-6, 4)
        monkeypatch.setattr(forms, "ENUM_CAP", rng.randint(0, 120))
        first = case % 2 == 1
        want = _scan_outcome(_old_scan_box, gram, m, h, first=first)
        assert _scan_outcome(forms._scan_box, gram, m, h, first=first) == want
        refused += isinstance(want, str)
    assert 50 <= refused <= 250


def test_enumerate_identical_on_repeat():
    lat = build_lattice([[2, 1, 0], [1, -2, 1], [0, 1, -4]])
    first = enumerate_norm_vectors(lat, -2, 3)
    second = enumerate_norm_vectors(lat, -2, 3)
    assert first == second


def test_squarefree_int():
    assert squarefree_int(12) == 3
    assert squarefree_int(-8) == -2
    from fractions import Fraction
    assert squarefree_int(Fraction(4, 9)) == 1
    assert squarefree_int(Fraction(-3, 2)) == -6


def test_hilbert_symbol_rational_inputs():
    from fractions import Fraction
    # symbols only depend on square classes: (a, 1/2) = (a, 2)
    for a in (-1, 2, 3, 5):
        for p in (2, 3, 5, INFINITE_PLACE):
            assert hilbert_symbol(a, Fraction(1, 2), p) == hilbert_symbol(a, 2, p)


def test_non_prime_place_rejected():
    with pytest.raises(InvalidParameter):
        hilbert_symbol(2, 3, 10)


# -- the squarefree Hilbert-symbol core -------------------------------------------------

def _squarefree(n):
    return n != 0 and squarefree_int(n) == n


def test_hilbert_core_matches_hilbert_symbol_on_squarefree_grid():
    values = [n for n in range(-30, 31) if _squarefree(n)]
    for a, b in itertools.product(values, repeat=2):
        for p, spelling in ((INFINITE_PLACE, "inf"), (2, 2), (3, "3"), (5, 5.0),
                            (7, 7), (11, 11), (13, 13), (29, 29)):
            want = forms._hilbert(a, b, p)
            assert want == hilbert_symbol(a, b, p)
            # the public symbol normalises square factors and the place's spelling
            assert want == hilbert_symbol(a * 4, Fraction(b, 9), spelling)


def _old_hasse_invariant(diag, p):
    eps = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    return eps


def _old_locally_isotropic(diag, p):
    """_locally_isotropic as it was with the normalising public symbol."""
    n = len(diag)
    d = squarefree_int(math.prod(diag))
    if n == 2:
        return forms._square_in_qp(squarefree_int(-d), p)
    eps = _old_hasse_invariant(diag, p)
    if n == 3:
        return hilbert_symbol(-1, -d, p) == eps
    return (not forms._square_in_qp(d, p)) or eps == hilbert_symbol(-1, -1, p)


def test_isotropy_verdicts_unchanged_by_the_hilbert_core(monkeypatch):
    lattices = _random_forms(4242, 150)
    lattices += [build_lattice([[a, 0, 0], [0, b, 0], [0, 0, c]])
                 for a, b, c in itertools.product((1, 2, 3, 6, -1, -2, -3, -6), repeat=3)]
    new = [rational_isotropy(lat, witness_height=1).as_json() for lat in lattices]
    monkeypatch.setattr(forms, "_locally_isotropic", _old_locally_isotropic)
    old = [rational_isotropy(lat, witness_height=1).as_json() for lat in lattices]
    assert new == old
    kinds = {v["method"] for v in new}
    assert {"local_obstruction", "local_global", "definite"} <= kinds
