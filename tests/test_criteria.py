"""Lattice / fibration dichotomies, classified families, entropy reports."""

import pytest

from hyperlat import (build_lattice, convex_cocompact_rank5_family, direct_sum,
                      eichler_transvection, entropy_report,
                      genus_one_fibration_test, group, k3_report,
                      lattice_criterion, make_isometry, pick_cone, rank1,
                      standard_lattice, uniform_lattice_family)
from hyperlat import linalg
from hyperlat.criteria import GENERATOR_FLAG, ISOTROPIC_FIBRATION_FLAG, _family_screen
from hyperlat.errors import InvalidParameter, WrongSignature
from hyperlat.forms import replay_congruence, replay_rational_certificate

U = build_lattice([[0, 1], [1, 0]])
U_MINUS2 = direct_sum(U, rank1(-2))
FAMILY3 = build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12]])


def test_lattice_criterion_examples():
    assert lattice_criterion(FAMILY3).kind == "IsLattice"
    v = lattice_criterion(U_MINUS2)
    assert v.kind == "NotLattice" and v.search.witness == (0, 0, 1)
    cc = convex_cocompact_rank5_family("d4", 5)
    assert lattice_criterion(cc, height=1).kind == "NotLattice"


def test_lattice_criterion_wrong_signature():
    with pytest.raises(WrongSignature):
        lattice_criterion(build_lattice([[2, 1], [1, 2]]))


def test_fibration_examples():
    assert genus_one_fibration_test(FAMILY3).kind == "NoGenusOneFibration"
    v = genus_one_fibration_test(U_MINUS2)
    assert v.kind == "FibrationExists"
    assert U_MINUS2.norm(v.witness) == 0
    a2 = genus_one_fibration_test(convex_cocompact_rank5_family("a2", 2))
    assert a2.kind == "FibrationExists"


def test_fibration_reports_carry_assumption_flag():
    v = genus_one_fibration_test(U_MINUS2)
    assert "isotropic" in v.assumption


def test_uniform_family_examples():
    r3, r4 = uniform_lattice_family(1)
    assert r3.gram == ((4, 0, 0), (0, -8, 0), (0, 0, -12))
    assert r4.gram == ((4, 0, 0, 0), (0, -8, 0, 0), (0, 0, -12, 0), (0, 0, 0, -12))
    r3, r4 = uniform_lattice_family(4)
    assert r3.gram[2][2] == -48 and r4.gram[3][3] == -48
    with pytest.raises(InvalidParameter):
        uniform_lattice_family(2)
    with pytest.raises(InvalidParameter):
        uniform_lattice_family(-2)


def test_cc_family_examples():
    d4 = convex_cocompact_rank5_family("d4", 5)
    assert d4.gram[0][0] == 32 and d4.signature == (1, 4)
    a2 = convex_cocompact_rank5_family("a2", 2)
    assert a2.gram[0][0] == 54 and a2.signature == (1, 4)
    with pytest.raises(InvalidParameter):
        convex_cocompact_rank5_family("d4", 4)
    with pytest.raises(InvalidParameter):
        convex_cocompact_rank5_family("a2", 1)


def test_family_verification_k_up_to_31():
    """Every family member is certified root-free and fibration-free, and the
    certificates replay."""
    for k in range(1, 32):
        if k % 3 != 1:
            continue
        for member in uniform_lattice_family(k):
            lv = lattice_criterion(member, height=4)
            assert lv.kind == "IsLattice", (k, member)
            cert = lv.search.certificate
            assert cert["kind"] == "congruence"
            assert all(p["modulus"] == 4 for p in cert["parts"])
            assert replay_congruence(member, cert)
            fv = genus_one_fibration_test(member, height=4)
            assert fv.kind == "NoGenusOneFibration"
            assert replay_rational_certificate(member, fv.isotropy.certificate)


def test_cc_d4_family_has_roots_and_fibrations():
    for k in range(5, 11):
        lat = convex_cocompact_rank5_family("d4", k)
        assert lattice_criterion(lat, height=1).kind == "NotLattice"
        assert genus_one_fibration_test(lat, height=2).kind == "FibrationExists"


def test_entropy_report_loxodromic_rank5():
    # Pell block extended by a negative-definite complement: rank 5
    lat = direct_sum(build_lattice([[1, 0], [0, -2]]),
                     direct_sum(rank1(-2), standard_lattice("A2")))
    o = pick_cone(lat, (1, 0, 0, 0, 0))
    m = [[3, 4, 0, 0, 0],
         [2, 3, 0, 0, 0],
         [0, 0, 1, 0, 0],
         [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]
    g = group(make_isometry(o, m))
    report = entropy_report(g, 3, 5)
    assert any(f.kind == "loxodromic" and f.entropy > 0 for f in report.findings)
    assert "relatively hyperbolic" in report.verdict
    assert "conditional" in report.verdict
    assert report.conditional_flags


def test_entropy_report_transvection_bounded_search():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    t = eichler_transvection(o, (1, 0, 0), (0, 0, 1))
    report = entropy_report(group(t), 4, 3)
    assert all(f.kind in ("parabolic", "elliptic") for f in report.findings)
    assert all(f.entropy == 0.0 for f in report.findings)
    assert "no positive-entropy word" in report.verdict
    assert report.context  # informational rank-3 case text


def test_entropy_report_identity_group():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    ident = make_isometry(o, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    report = entropy_report(group(ident), 4, 5)
    assert report.findings == ()


def test_k3_report_shape_and_determinism():
    rep1 = k3_report(FAMILY3, height=6)
    rep2 = k3_report(FAMILY3, height=6)
    assert rep1.as_json() == rep2.as_json()
    j = rep1.as_json()
    assert j["lattice_verdict"]["kind"] == "IsLattice"
    assert j["fibration_verdict"]["kind"] == "NoGenusOneFibration"
    assert j["conditional_flags"]


def test_derived_fields_read_off_the_stored_ones():
    o = pick_cone(U_MINUS2, (1, 1, 0))
    trans = group(eichler_transvection(o, (1, 0, 0), (0, 0, 1)))
    anisotropic = uniform_lattice_family(1)[0]
    fibration, generator = (ISOTROPIC_FIBRATION_FLAG,), (GENERATOR_FLAG,)
    for ns, generators, flags in ((U_MINUS2, None, fibration),
                                  (U_MINUS2, trans, fibration + generator),
                                  (anisotropic, None, fibration)):
        rep = k3_report(ns, height=4, generators=generators, word_budget=2)
        fv = rep.fibration_verdict
        assert fv.witness is fv.isotropy.witness
        assert (fv.witness is None) == (ns is anisotropic)
        assert rep.conditional_flags == flags
        assert rep.as_json()["conditional_flags"] == list(rep.conditional_flags)
        assert rep.as_json()["fibration_verdict"]["isotropy"] == fv.isotropy.as_json()


def test_k3_report_rank5_family_note():
    cc = convex_cocompact_rank5_family("d4", 5)
    rep = k3_report(cc, height=1)
    assert "classified families" in rep.convex_cocompact
    assert "screen" in rep.convex_cocompact


def test_k3_report_rank6_never_cc():
    lat = direct_sum(U, direct_sum(standard_lattice("D4"), rank1(-2)))
    assert lat.rank == 7
    rep = k3_report(lat, height=1)
    assert "never convex-cocompact" in rep.convex_cocompact


# -- the rank-5 family screen ------------------------------------------------------

def _screen_note(family):
    return (f"determinant/signature match the {family} family "
            "(screen only, not an isomorphism test)")


def test_family_screen_closed_forms_are_the_family_determinants():
    for k in range(5, 40):
        assert convex_cocompact_rank5_family("d4", k).determinant == 2 ** (k + 2)
    for m in range(2, 20):
        assert convex_cocompact_rank5_family("a2", m).determinant == 2 * 3 ** (2 * m + 1)


# <2^5> + A3 + A1 has the determinant of <2^6> + D4 but is not that lattice:
# the screen matches it, which is why its notes say "screen only"
A3_A1 = build_lattice([[32, 0, 0, 0, 0], [0, -2, 1, 0, 0], [0, 1, -2, 1, 0],
                       [0, 0, 1, -2, 0], [0, 0, 0, 0, -2]])


@pytest.mark.parametrize("lat, family", [
    (convex_cocompact_rank5_family("d4", 5), "<2^5> + D4"),
    (convex_cocompact_rank5_family("d4", 6), "<2^6> + D4"),
    (convex_cocompact_rank5_family("d4", 39), "<2^39> + D4"),
    (convex_cocompact_rank5_family("a2", 2), "<2*3^3> + A2+A2"),
    (convex_cocompact_rank5_family("a2", 3), "<2*3^5> + A2+A2"),
    (convex_cocompact_rank5_family("a2", 19), "<2*3^37> + A2+A2"),
    (A3_A1, "<2^6> + D4"),
])
def test_family_screen_notes_unchanged(lat, family):
    assert _family_screen(lat) == [_screen_note(family)]


@pytest.mark.parametrize("selector, value, family", [
    ("d4", 5, "<2^5> + D4"), ("d4", 39, "<2^39> + D4"),
    ("d4", 40, "<2^40> + D4"), ("d4", 100, "<2^100> + D4"),
    ("a2", 2, "<2*3^3> + A2+A2"), ("a2", 19, "<2*3^37> + A2+A2"),
    ("a2", 20, "<2*3^39> + A2+A2"), ("a2", 50, "<2*3^99> + A2+A2"),
])
def test_family_screen_matches_every_member_and_no_neighbour(selector, value, family):
    member = convex_cocompact_rank5_family(selector, value)
    assert _family_screen(member) == [_screen_note(family)]
    for det in (member.determinant - 1, member.determinant + 1):
        # <det> + <-1>^4 has signature (1, 4) and determinant det
        neighbour = build_lattice([[det if i == j == 0 else -(i == j) for j in range(5)]
                                   for i in range(5)])
        assert neighbour.determinant == det
        assert _family_screen(neighbour) == []


def test_family_screen_misses():
    # k = 4 lies below the D4 family
    assert _family_screen(direct_sum(rank1(2 ** 4), standard_lattice("D4"))) == []
    assert _family_screen(direct_sum(rank1(6), direct_sum(standard_lattice("A2"),
                                                          standard_lattice("A2")))) == []
    assert _family_screen(FAMILY3) == []


def test_k3_report_diagonalises_a_few_times(monkeypatch):
    # the screen compares closed forms; it builds no family lattice, whose
    # signature check would diagonalise once per family member
    lat = convex_cocompact_rank5_family("a2", 2)
    calls = []
    real = linalg.congruence_diagonal
    monkeypatch.setattr(linalg, "congruence_diagonal",
                        lambda gram: calls.append(gram) or real(gram))
    rep = k3_report(lat)
    assert rep.convex_cocompact.endswith(_screen_note("<2*3^3> + A2+A2"))
    assert len(calls) <= 3
