"""Executable criteria on Neron-Severi lattice data.

Two dichotomies drive everything: the isometry group acts with full limit
set exactly when the lattice has no root (norm -2 vector), and genus-one
fibration classes correspond to nonzero isotropic classes.  The second
translation is a standard K3 fact used implicitly upstream; every report
that relies on it carries an explicit assumption flag.

Verdicts that depend on user-supplied generators are conditional on those
generators generating the full isometry image; that flag is never dropped.
"""

from __future__ import annotations

from .errors import InvalidParameter, WrongSignature
from .forms import IsotropyVerdict, SearchVerdict, rational_isotropy, root_existence
from .groups import FGGroup, conjugacy_key, elements_up_to, word_string
from .isometry import LOXODROMIC, entropy
from .lattice import GramLattice, build_lattice, direct_sum, rank1, standard_lattice
from .record import Record

ISOTROPIC_FIBRATION_FLAG = (
    "genus-one fibration detection identifies fibration classes with "
    "nonzero isotropic lattice vectors")
GENERATOR_FLAG = (
    "verdict is conditional on the supplied generators generating the "
    "full isometry image of the automorphism group")

IS_LATTICE = "IsLattice"
NOT_LATTICE = "NotLattice"
NO_FIBRATION = "NoGenusOneFibration"
FIBRATION_EXISTS = "FibrationExists"
UNRESOLVED = "Unresolved"


def _require_hyperbolic(ns: GramLattice) -> None:
    p, q = ns.signature
    if p != 1:
        raise WrongSignature(f"expected signature (1, n), got ({p}, {q})")


def _require_rho(rho: int) -> None:
    if rho < 1:
        raise InvalidParameter(f"rho must be >= 1, not {rho}")


class LatticeVerdict(Record):
    def __init__(self, kind: str, search: SearchVerdict):
        object.__setattr__(self, "kind", kind)  # IsLattice | NotLattice | Unresolved
        object.__setattr__(self, "search", search)

    def as_json(self) -> dict:
        out = {"kind": self.kind}
        out["evidence"] = self.search.as_json()
        return out


def lattice_criterion(ns: GramLattice, height: int = 10) -> LatticeVerdict:
    """Full-limit-set (lattice) dichotomy: decided by root existence.

    A certified absence of norm -2 vectors gives IsLattice; a root witness
    gives NotLattice; a bounded search that merely found nothing stays
    Unresolved.
    """
    _require_hyperbolic(ns)
    verdict = root_existence(ns, -2, height)
    kind = {"certified_none": IS_LATTICE,
            "witness": NOT_LATTICE,
            "none_up_to_height": UNRESOLVED}[verdict.kind]
    return LatticeVerdict(kind=kind, search=verdict)


class FibrationVerdict(Record):
    assumption = ISOTROPIC_FIBRATION_FLAG

    def __init__(self, kind: str, isotropy: IsotropyVerdict):
        # kind is NoGenusOneFibration | FibrationExists | Unresolved
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "isotropy", isotropy)

    @property
    def witness(self) -> tuple[int, ...] | None:
        return self.isotropy.witness

    def as_json(self) -> dict:
        out = {"kind": self.kind, "isotropy": self.isotropy.as_json(),
               "assumption": self.assumption}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def genus_one_fibration_test(ns: GramLattice, height: int = 10) -> FibrationVerdict:
    """Fibration dichotomy via isotropic classes.

    Rational anisotropy certifies NoGenusOneFibration.  A rationally
    isotropic lattice always has an integral isotropic class (scale a
    rational witness); in rank >= 5 the verdict is therefore
    FibrationExists even when the bounded witness search comes back empty,
    while in smaller rank a missing witness stays Unresolved.
    """
    _require_hyperbolic(ns)
    verdict = rational_isotropy(ns, witness_height=max(height, 8))
    if not verdict.isotropic:
        kind = NO_FIBRATION
    elif verdict.witness is not None or ns.rank >= 5:
        kind = FIBRATION_EXISTS
    else:
        kind = UNRESOLVED
    return FibrationVerdict(kind=kind, isotropy=verdict)


# -- classified families ---------------------------------------------------------

def uniform_lattice_family(k: int) -> tuple[GramLattice, GramLattice]:
    """Rank 3 and rank 4 diagonal lattices with no roots and no isotropic
    vectors: diag(4, -8, -12k) and diag(4, -8, -12, -12k), for k > 0 with
    k = 1 (mod 3)."""
    if k <= 0 or k % 3 != 1:
        raise InvalidParameter("family parameter must be positive and 1 mod 3")
    rank3 = build_lattice([[4, 0, 0], [0, -8, 0], [0, 0, -12 * k]])
    rank4 = build_lattice([[4, 0, 0, 0], [0, -8, 0, 0],
                           [0, 0, -12, 0], [0, 0, 0, -12 * k]])
    if rank3.signature != (1, 2) or rank4.signature != (1, 3):
        raise ArithmeticError("uniform family lattices must have signature (1, 2) and (1, 3)")
    return rank3, rank4


def convex_cocompact_rank5_family(selector: str, value: int) -> GramLattice:
    """The two classified rank-5 families: <2^k> + D4 for k >= 5 and
    <2*3^(2m-1)> + A2 + A2 for m >= 2."""
    if selector == "d4":
        if value < 5:
            raise InvalidParameter("D4 family needs k >= 5")
        out = direct_sum(rank1(2 ** value), standard_lattice("D4"))
    elif selector == "a2":
        if value < 2:
            raise InvalidParameter("A2^2 family needs m >= 2")
        a2 = standard_lattice("A2")
        out = direct_sum(direct_sum(rank1(2 * 3 ** (2 * value - 1)), a2), a2)
    else:
        raise InvalidParameter(f"unknown family selector {selector!r}")
    if out.signature != (1, 4):
        raise ArithmeticError("rank-5 family lattice must have signature (1, 4)")
    return out


def _family_screen(ns: GramLattice) -> list[str]:
    """Determinant/signature screen against the classified rank-5 families.

    A match is necessary, not sufficient (no isomorphism testing); the
    wording of the notes keeps that explicit.  The family determinants are
    closed forms: det D4 = 4 and det A2 = 3 (negative definite, even rank),
    so <2^k> + D4 has 2^(k+2) and <2*3^(2m-1)> + A2+A2 has 2*3^(2m+1).
    """
    notes = []
    if ns.rank != 5:
        return notes
    det = ns.determinant
    if det >= 2 ** 7 and det & (det - 1) == 0:  # 2^(k+2) with k >= 5
        k = det.bit_length() - 3
        notes.append(
            f"determinant/signature match the <2^{k}> + D4 family "
            "(screen only, not an isomorphism test)")
    threes, e = det // 2, 0
    while threes > 1 and threes % 3 == 0:
        threes //= 3
        e += 1
    if det == 2 * 3 ** e and e >= 5 and e % 2:  # 2*3^(2m+1) with m >= 2
        m = (e - 1) // 2
        notes.append(
            f"determinant/signature match the <2*3^{2*m-1}> + A2+A2 family "
            "(screen only, not an isomorphism test)")
    return notes


def convex_cocompact_note(ns: GramLattice, fibration: FibrationVerdict) -> str:
    """Prose verdict on convex-cocompactness expressible from lattice data."""
    if fibration.kind == NO_FIBRATION:
        return ("no genus-one fibration class: the isometry image is "
                "convex-cocompact whenever it is geometrically finite")
    if ns.rank >= 6:
        return ("rank >= 6 with a fibration class: never convex-cocompact")
    if ns.rank == 5:
        screen = _family_screen(ns)
        if screen:
            return ("rank 5: convex-cocompact exactly when the lattice is one "
                    "of the two classified families; " + "; ".join(screen))
        return ("rank 5: convex-cocompact exactly when the lattice is one of "
                "the two classified families; no determinant/signature match "
                "found at screen level")
    return ("rank <= 4 with a fibration class: decidable only through "
            "finiteness of the section group of every fibration, which is "
            "outside lattice-level input")


# -- entropy reports ----------------------------------------------------------------

class EntropyFinding(Record):
    def __init__(self, word: str, kind: str, entropy: float):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entropy", entropy)

    def as_json(self) -> dict:
        return {"word": self.word, "class": self.kind, "entropy": self.entropy}


_RANK_CONTEXT = {
    2: "Picard rank 2: an infinite automorphism group is virtually cyclic "
       "with positive entropy",
    3: "Picard rank 3: virtually abelian and virtually cyclic coincide for "
       "infinite automorphism groups",
    4: "Picard rank 4: virtually abelian means either virtually cyclic with "
       "positive entropy, or zero entropy throughout",
}


class EntropyReport(Record):
    conditional_flags = (GENERATOR_FLAG,)

    def __init__(self, findings: tuple[EntropyFinding, ...], verdict: str,
                 context: str | None = None):
        object.__setattr__(self, "findings", findings)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "context", context)

    def as_json(self) -> dict:
        out = {"findings": [f.as_json() for f in self.findings],
               "verdict": self.verdict,
               "conditional_flags": list(self.conditional_flags)}
        if self.context:
            out["context"] = self.context
        return out


def entropy_report(g: FGGroup, word_budget: int, rho: int) -> EntropyReport:
    """Classify all reduced words up to the budget and report entropy.

    Type and entropy are conjugacy invariants, so each class of words under
    `conjugacy_key` is classified once, at its first element, and its
    later elements take that (class, entropy) pair: a word's inverse has
    the same charpoly, since g^-1 = G^-1 g^t G for an isometry g.
    A loxodromic word at rho >= 5 yields the positive-entropy verdict
    (conditional on generator completeness); finding none is reported as a
    bounded-search outcome, never as a zero-entropy theorem.
    """
    _require_rho(rho)
    findings = []
    positive = False
    ball = elements_up_to(g, word_budget)[1:]
    _, labels, inv_idx = g.letters
    inverse = {label: labels[k] for label, k in zip(labels, inv_idx)}
    classes = {}
    for elem, word in ball:
        key = conjugacy_key(word, inverse)
        if key not in classes:
            classes[key] = elem.classification.kind, entropy(elem)
        kind, ent = classes[key]
        findings.append(EntropyFinding(word=word_string(word), kind=kind, entropy=ent))
        if kind == LOXODROMIC:
            positive = True
    if positive:
        if rho >= 5:
            verdict = ("positive entropy: the group is non-elementary "
                       "relatively hyperbolic (conditional on generator "
                       "completeness)")
        else:
            verdict = "positive entropy word found"
    else:
        verdict = f"no positive-entropy word found up to length {word_budget}"
    return EntropyReport(findings=tuple(findings), verdict=verdict,
                         context=_RANK_CONTEXT.get(rho))


# -- the combined report ---------------------------------------------------------------

class CriterionReport(Record):
    def __init__(self, lattice_verdict: LatticeVerdict, fibration_verdict: FibrationVerdict,
                 convex_cocompact: str, entropy: EntropyReport | None):
        object.__setattr__(self, "lattice_verdict", lattice_verdict)
        object.__setattr__(self, "fibration_verdict", fibration_verdict)
        object.__setattr__(self, "convex_cocompact", convex_cocompact)
        object.__setattr__(self, "entropy", entropy)

    @property
    def conditional_flags(self) -> tuple[str, ...]:
        """The fibration assumption, then the entropy report's flags if any."""
        extra = () if self.entropy is None else self.entropy.conditional_flags
        return (self.fibration_verdict.assumption,) + extra

    def as_json(self) -> dict:
        out = {
            "lattice_verdict": self.lattice_verdict.as_json(),
            "fibration_verdict": self.fibration_verdict.as_json(),
            "convex_cocompact_note": self.convex_cocompact,
            "conditional_flags": list(self.conditional_flags),
        }
        if self.entropy is not None:
            out["entropy_report"] = self.entropy.as_json()
        return out


def k3_report(ns: GramLattice, *, height: int = 10, generators: FGGroup | None = None,
              word_budget: int = 6, rho: int | None = None) -> CriterionReport:
    """Assemble the full criteria report for one Neron-Severi lattice.

    A negative word budget or a rho below 1 is refused whether or not
    generators are given."""
    if word_budget < 0:
        raise InvalidParameter("word budget must be >= 0")
    rho = rho if rho is not None else ns.rank
    _require_rho(rho)
    _require_hyperbolic(ns)
    lat_verdict = lattice_criterion(ns, height)
    fib_verdict = genus_one_fibration_test(ns, height)
    ent = None if generators is None else entropy_report(generators, word_budget, rho)
    return CriterionReport(
        lattice_verdict=lat_verdict,
        fibration_verdict=fib_verdict,
        convex_cocompact=convex_cocompact_note(ns, fib_verdict),
        entropy=ent,
    )
