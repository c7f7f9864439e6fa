"""Decision procedures on integral quadratic forms.

Three engines, stacked by root_existence:

* bounded box enumeration with per-coordinate interval pruning,
* exhaustive residue scans producing replayable congruence certificates,
* rational (an)isotropy via Hilbert symbols and the local-global principle.

A "not found up to height H" outcome is never reported as nonexistence;
only congruence or local obstructions certify absence.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import BudgetExceeded, InvalidParameter, NoPositiveConeSet
from .lattice import GramLattice, LatticeVector, direct_sum, rank1
from .record import Record

INFINITE_PLACE = "infinity"

DEFAULT_MODULUS_LADDER = (3, 4, 5, 7, 8, 9, 16, 25, 27)
DEFAULT_ENUM_CAP = 2_000_000  # candidate coordinate values tested per call
DEFAULT_RESIDUE_CAP = 5_000_000
LADDER_RESIDUE_CAP = 200_000
DEFAULT_WITNESS_HEIGHT = 8


# -- box enumeration -----------------------------------------------------------

def _norm_bounds_by_depth(gram, height):
    """(lo, hi) bounds of sum_{i,j>=k} g_ij v_i v_j over the box, per depth k."""
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


def _scan_box(gram, m, height, *, cap, tested=0, first=False, accept=None):
    """DFS over canonical representatives (first nonzero coordinate > 0).

    Visits the box in lexicographic order and returns (hits, tested): the
    hits as tuples in that order, and `tested` advanced by the candidate
    coordinate values tried.  `accept` filters hits; with first=True the
    scan stops at the first accepted hit, which is then the lex-first one.
    Raises BudgetExceeded before more than `cap` candidates are tried.
    """
    if height < 1:
        raise InvalidParameter("height must be >= 1")
    n = len(gram)
    bounds = _norm_bounds_by_depth(gram, height)
    steps = [[2 * x for x in row] for row in gram]
    lin = [0] * n  # lin[j] = 2 * sum_{i < depth} g_ij v_i, updated in place
    prefix = []
    out = []

    def rec(depth, partial, zero_prefix):
        nonlocal tested
        if depth == n:
            if partial == m and not zero_prefix:
                v = tuple(prefix)
                if accept is None or accept(v):
                    out.append(v)
                    return first
            return False
        lo = 0 if zero_prefix else -height
        if tested + height - lo + 1 > cap:
            raise BudgetExceeded(
                f"box enumeration (norm {m}, height {height}): {tested} candidates "
                f"tested, the next {height - lo + 1} would exceed the budget of {cap}")
        tested += height - lo + 1
        qlo, qhi = bounds[depth + 1]
        gdd = gram[depth][depth]
        ld = lin[depth]
        step = steps[depth]
        tail = range(depth + 1, n)
        for j in tail:
            lin[j] += step[j] * (lo - 1)
        for t in range(lo, height + 1):
            # move lin to this t and sum the remaining linear freedom in one pass:
            # each later coordinate ranges over [-H, H]
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
                    tested -= height - t  # the values after t were not tried
                    return True
                prefix.pop()
        for j in tail:
            lin[j] -= step[j] * height
        return False

    rec(0, 0, True)
    return out, tested


def enumerate_norm_vectors(lattice: GramLattice, m: int, height: int, *,
                           cap: int = DEFAULT_ENUM_CAP) -> list[LatticeVector]:
    """All vectors v != 0 with sup-norm <= height and v.v = m.

    One representative per +-pair (first nonzero coordinate positive), in
    lexicographic order.  Raises BudgetExceeded once the search would test
    more than `cap` candidate coordinate values.
    """
    hits, _ = _scan_box(lattice.gram, m, height, cap=cap)
    return [LatticeVector(v) for v in hits]


def first_norm_vector(lattice: GramLattice, m: int, height: int, *,
                      cap: int = DEFAULT_ENUM_CAP, tested: int = 0,
                      accept=None) -> tuple[LatticeVector | None, int]:
    """The first vector enumerate_norm_vectors would list (and `accept`
    takes), or None, with the candidate count advanced from `tested`.

    The search stops at that vector.  `cap` bounds the running count, so a
    caller that chains several searches passes the count on to keep one
    budget for all of them.
    """
    hits, tested = _scan_box(lattice.gram, m, height, cap=cap, tested=tested,
                             first=True, accept=accept)
    if not hits:
        return None, tested
    if lattice.norm(hits[0]) != m:
        raise ArithmeticError("enumerated witness does not have the requested norm")
    return LatticeVector(hits[0]), tested


def primitive_isotropic_vectors(lattice: GramLattice, height: int, *,
                                orientation=None, in_cone: bool = False,
                                cap: int = DEFAULT_ENUM_CAP) -> list[LatticeVector]:
    """Primitive norm-zero vectors up to the height bound.

    With in_cone=True each vector is reoriented to the closure of the
    designated positive cone; that requires an orientation.
    """
    if in_cone and orientation is None:
        raise NoPositiveConeSet("cone filtering requested without a designated cone")
    hits = []
    for v in enumerate_norm_vectors(lattice, 0, height, cap=cap):
        c = v.coords
        if linalg.vec_content(c) != 1:
            continue
        if in_cone:
            s = lattice.pair(c, orientation.base)
            if s == 0:
                continue  # cannot happen for nonzero isotropic vectors
            if s < 0:
                c = linalg.vec_neg(c)
        hits.append(LatticeVector(c))
    return sorted(hits, key=lambda v: v.coords)


# -- congruence certificates -----------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _scan_residues(gram, m, modulus) -> bool:
    """True when some primitive residue vector v has Q(v) = m (mod modulus).

    Primitive here means: for every prime p | modulus, some coordinate is a
    unit mod p; imprimitive residue solutions can mask obstructions.
    """
    n = len(gram)
    primes = _prime_factors(modulus)
    target = m % modulus

    def rec(depth, partial, lin, unit_masks):
        if depth == n:
            return partial == target and all(unit_masks)
        row = gram[depth]
        for t in range(modulus):
            new_partial = (partial + row[depth] * t * t + lin[depth] * t) % modulus
            new_lin = lin
            if t:
                new_lin = list(lin)
                for j in range(depth + 1, n):
                    new_lin[j] = (new_lin[j] + 2 * row[j] * t) % modulus
            new_masks = [u or (t % p != 0) for u, p in zip(unit_masks, primes)]
            if rec(depth + 1, new_partial, new_lin, new_masks):
                return True
        return False

    return rec(0, 0, [0] * n, [False] * len(primes))


def congruence_obstruction(lattice: GramLattice, m: int, moduli, *,
                           cap: int = DEFAULT_RESIDUE_CAP) -> dict | None:
    """Smallest modulus in `moduli` obstructing Q(v) = m for primitive v.

    Returns a replayable certificate dict, or None when every modulus
    admits a primitive residue solution.
    """
    for modulus in sorted(set(int(x) for x in moduli)):
        if modulus < 2:
            raise InvalidParameter("moduli must be >= 2")
        if modulus ** lattice.rank > cap:
            raise BudgetExceeded(
                f"residue scan {modulus}^{lattice.rank} exceeds cap {cap}")
        if not _scan_residues(lattice.gram, m, modulus):
            return {"kind": "congruence", "modulus": modulus, "norm": m}
    return None


def replay_congruence(lattice: GramLattice, certificate: dict) -> bool:
    """Re-run the residue scan recorded in a congruence certificate."""
    parts = certificate.get("parts") or [certificate]
    for part in parts:
        if _scan_residues(lattice.gram, part["norm"], part["modulus"]):
            return False
    return True


# -- Hilbert symbols and rational isotropy ----------------------------------------

def _normalize_place(place):
    if place in (INFINITE_PLACE, "inf", None) or place == float("inf"):
        return INFINITE_PLACE
    p = int(place)
    if p < 2 or _prime_factors(p) != [p]:
        raise InvalidParameter(f"place must be a prime or infinity, got {place!r}")
    return p


def squarefree_int(q) -> int:
    """Squarefree integer representing q modulo nonzero rational squares."""
    f = Fraction(q)
    if f == 0:
        raise InvalidParameter("zero has no squarefree class")
    n = f.numerator * f.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1 if p == 2 else 2
    return sign * out * n


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise InvalidParameter("legendre symbol of a multiple of p")
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a, b) in {+1, -1}.

    Standard closed formulas: sign condition at the real place, Legendre
    symbols at odd primes, the (epsilon, omega) exponent formula at 2.
    """
    place = _normalize_place(place)
    a = squarefree_int(a)
    b = squarefree_int(b)
    if place == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if p == 2:
        alpha = 1 if a % 2 == 0 else 0
        beta = 1 if b % 2 == 0 else 0
        u = a >> alpha
        v = b >> beta
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_v = ((v * v - 1) // 8) % 2
        exp = (eps_u * eps_v + alpha * omega_v + beta * omega_u) % 2
        return -1 if exp else 1
    alpha = 1 if a % p == 0 else 0
    beta = 1 if b % p == 0 else 0
    u = a // (p if alpha else 1)
    v = b // (p if beta else 1)
    exp = (alpha * beta * ((p - 1) // 2)) % 2
    sym = -1 if exp else 1
    if beta:
        sym *= _legendre(u, p)
    if alpha:
        sym *= _legendre(v, p)
    return sym


class IsotropyVerdict(Record):
    """Outcome of the rational isotropy decision, with proof data."""

    def __init__(self, isotropic: bool, method: str, witness: LatticeVector | None = None,
                 certificate: dict | None = None):
        object.__setattr__(self, "isotropic", isotropic)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)

    def as_json(self) -> dict:
        out = {"kind": "Isotropic" if self.isotropic else "Anisotropic",
               "method": self.method}
        if self.witness is not None:
            out["witness"] = list(self.witness.coords)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _hasse_invariant(diag, p) -> int:
    eps = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    return eps


def _square_in_qp(a: int, p) -> bool:
    """Is the squarefree integer a a square in Q_p (or R)?"""
    if p == INFINITE_PLACE:
        return a > 0
    if p == 2:
        return a % 2 == 1 and a % 8 == 1
    return a % p != 0 and _legendre(a, p) == 1


def _relevant_places(diag) -> list:
    places = [2]
    seen = {2}
    for d in diag:
        for p in _prime_factors(d):
            if p not in seen:
                seen.add(p)
                places.append(p)
    return places


def _locally_isotropic(diag, p) -> bool:
    """Local isotropy of a diagonal form of rank 2..4 at a finite place."""
    n = len(diag)
    d = squarefree_int(_prod(diag))
    if n == 2:
        return _square_in_qp(squarefree_int(-d), p)
    eps = _hasse_invariant(diag, p)
    if n == 3:
        return hilbert_symbol(-1, -d, p) == eps
    if n == 4:
        if not _square_in_qp(d, p):
            return True
        return eps == hilbert_symbol(-1, -1, p)
    raise AssertionError("rank outside 2..4")


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _search_isotropic_witness(lattice: GramLattice, max_height: int) -> LatticeVector | None:
    """First primitive isotropic vector at the first doubling height that has one."""
    h, tested = 1, 0
    while h <= max_height:
        witness, tested = first_norm_vector(lattice, 0, h, tested=tested,
                                            accept=lambda v: linalg.vec_content(v) == 1)
        if witness is not None:
            return witness
        h *= 2
    return None


def rational_isotropy(lattice: GramLattice, *,
                      witness_height: int = DEFAULT_WITNESS_HEIGHT) -> IsotropyVerdict:
    """Decide whether the form has a nonzero rational isotropic vector.

    Rank >= 5 indefinite forms are isotropic outright; ranks 2-4 are decided
    place by place at the real place, 2, and the odd primes dividing the
    diagonalized coefficients.  Integral witnesses (which exist by scaling
    whenever the verdict is isotropic) come from a bounded box search and
    may be omitted at desk scale.
    """
    diag_fracs = linalg.congruence_diagonal(lattice.gram)
    diag = [squarefree_int(d) for d in diag_fracs]
    pos = sum(1 for d in diag if d > 0)
    neg = len(diag) - pos
    if pos == 0 or neg == 0:
        return IsotropyVerdict(
            isotropic=False, method="definite",
            certificate={"kind": "rational_anisotropy", "diagonal": diag,
                         "failing_places": [INFINITE_PLACE]})
    if lattice.rank >= 5:
        witness = _search_isotropic_witness(lattice, witness_height)
        return IsotropyVerdict(isotropic=True, method="indefinite_rank_ge_5",
                               witness=witness)
    failing = [p for p in _relevant_places(diag) if not _locally_isotropic(diag, p)]
    if failing:
        return IsotropyVerdict(
            isotropic=False, method="local_obstruction",
            certificate={"kind": "rational_anisotropy", "diagonal": diag,
                         "failing_places": failing})
    witness = _search_isotropic_witness(lattice, witness_height)
    return IsotropyVerdict(isotropic=True, method="local_global", witness=witness)


def replay_rational_certificate(certificate: dict) -> bool:
    """Recompute the local obstructions recorded in an anisotropy certificate."""
    diag = certificate["diagonal"]
    for p in certificate["failing_places"]:
        p = _normalize_place(p)
        if p == INFINITE_PLACE:
            if any(d > 0 for d in diag) and any(d < 0 for d in diag):
                return False
        elif _locally_isotropic(diag, p):
            return False
    return True


# -- the root-existence pipeline ----------------------------------------------------

class SearchVerdict(Record):
    """Witness / CertifiedNone / NoneUpToHeight for a norm-m vector search."""

    def __init__(self, kind: str, norm: int, height_bound: int | None = None,
                 witness: LatticeVector | None = None, certificate: dict | None = None,
                 notes: tuple[str, ...] = ()):
        # kind is "witness" | "certified_none" | "none_up_to_height"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "height_bound", height_bound)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "notes", notes)

    def as_json(self) -> dict:
        out = {"kind": {"witness": "Witness",
                        "certified_none": "CertifiedNone",
                        "none_up_to_height": "NoneUpToHeight"}[self.kind],
               "norm": self.norm,
               "height_bound": self.height_bound}
        if self.witness is not None:
            out["witness"] = list(self.witness.coords)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _square_divisors(m: int) -> list[int]:
    """All d >= 1 with d*d dividing m."""
    out = [d for d in range(1, int(abs(m)) + 1) if d * d <= abs(m) and m % (d * d) == 0]
    return out


def root_existence(lattice: GramLattice, root_norm: int = -2,
                   height: int = 10) -> SearchVerdict:
    """Three-stage search for a vector of the given norm.

    1. rational necessary test: the form represents root_norm over Q iff
       the orthogonal extension by <-root_norm> is isotropic;
    2. congruence scan over the modulus ladder, run once per square divisor
       class of root_norm so imprimitive vectors cannot slip through;
    3. bounded search up to the height, stopped at the lex-first witness.

    Oversized ladder moduli are skipped (recorded in notes), never treated
    as obstructions.
    """
    if root_norm == 0:
        raise InvalidParameter("use primitive_isotropic_vectors for norm 0")
    augmented = direct_sum(lattice, rank1(-root_norm))
    rational = rational_isotropy(augmented, witness_height=1)
    if not rational.isotropic:
        cert = dict(rational.certificate)
        cert["kind"] = "rational_nonrepresentability"
        cert["norm"] = root_norm
        return SearchVerdict(kind="certified_none", norm=root_norm,
                             certificate=cert)

    notes = []
    parts = []
    certified = True
    for d in _square_divisors(root_norm):
        target = root_norm // (d * d)
        part = None
        for modulus in DEFAULT_MODULUS_LADDER:
            if modulus ** lattice.rank > LADDER_RESIDUE_CAP:
                notes.append(f"modulus {modulus} skipped (residue cap)")
                continue
            if not _scan_residues(lattice.gram, target, modulus):
                part = {"modulus": modulus, "norm": target}
                break
        if part is None:
            certified = False
            break
        parts.append(part)
    if certified and parts:
        cert = {"kind": "congruence", "norm": root_norm, "parts": parts}
        return SearchVerdict(kind="certified_none", norm=root_norm,
                             certificate=cert, notes=tuple(sorted(set(notes))))

    witness, _ = first_norm_vector(lattice, root_norm, height)
    if witness is not None:
        return SearchVerdict(kind="witness", norm=root_norm, height_bound=height,
                             witness=witness, notes=tuple(sorted(set(notes))))
    return SearchVerdict(kind="none_up_to_height", norm=root_norm,
                         height_bound=height, notes=tuple(sorted(set(notes))))


def replay_verdict(lattice: GramLattice, verdict: SearchVerdict) -> bool:
    """Re-check the evidence carried by a search verdict."""
    if verdict.kind == "witness":
        return lattice.norm(verdict.witness.coords) == verdict.norm
    if verdict.kind == "certified_none":
        cert = verdict.certificate
        if cert["kind"] == "congruence":
            return replay_congruence(lattice, cert)
        return replay_rational_certificate(cert)
    return True
