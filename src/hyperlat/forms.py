"""Decision procedures on integral quadratic forms.

Three engines, stacked by root_existence:

* bounded box enumeration with per-coordinate interval pruning, a
  penultimate coordinate confined to where a real last one exists (when
  the trailing 2x2 block is definite) and a last coordinate solved inside
  the penultimate level's loop,
* exhaustive residue scans over one modulus ladder, run only inside
  root_existence, with the last residue coordinate tested inline; a
  congruence certificate has one (modulus, norm) part per square class of
  the norm, and replay_congruence checks those classes and re-runs each part,
* rational (an)isotropy via Hilbert symbols and the local-global principle,
  on the lattice's cached rational diagonal, which a certificate records.

Vectors, the searches' results and the verdicts' witnesses among them,
are plain tuples of ints.  A "not found up to height H" outcome is never
reported as nonexistence; only congruence or local obstructions certify
absence.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from . import linalg
from .errors import BudgetExceeded, InputError, InvalidParameter
from .lattice import GramLattice
from .record import Record

INFINITE_PLACE = "infinity"

DEFAULT_MODULUS_LADDER = (3, 4, 5, 7, 8, 9, 16, 25, 27)
# candidate coordinate values tested per call: a level counts its whole
# canonical range on entry, the solved last coordinate once per visit
ENUM_CAP = 2_000_000
LADDER_RESIDUE_CAP = 200_000
DEFAULT_WITNESS_HEIGHT = 8


# -- box enumeration -----------------------------------------------------------

def _norm_bounds_by_depth(gram, height):
    """(lo, hi) bounds of sum_{i,j>=k} g_ij v_i v_j over the box, per depth k.

    One suffix pass: depth k adds row k's diagonal and off-diagonal terms to
    the bounds of depth k + 1.
    """
    n = len(gram)
    h2 = height * height
    lo = hi = 0
    bounds = [(0, 0)]
    for k in range(n - 1, -1, -1):
        row = gram[k]
        gkk = row[k]
        if gkk >= 0:
            hi += gkk * h2
        else:
            lo += gkk * h2
        spread = 2 * h2 * sum(abs(x) for x in row[k + 1:])
        lo -= spread
        hi += spread
        bounds.append((lo, hi))
    bounds.reverse()
    return bounds


def _level_roots(g, l, c, lo, hi):
    """The integers t in [lo, hi] with g t^2 + l t + c = 0, increasing."""
    if g == 0:
        if l == 0:
            return range(lo, hi + 1) if c == 0 else ()
        t, r = divmod(-c, l)
        return (t,) if r == 0 and lo <= t <= hi else ()
    disc = l * l - 4 * g * c
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    return sorted({t for t, r in (divmod(-l - s, 2 * g), divmod(-l + s, 2 * g))
                   if r == 0 and lo <= t <= hi})


def _over_budget(m, height, tested, count):
    return BudgetExceeded(
        f"box enumeration (norm {m}, height {height}): {tested} candidates "
        f"tested, the next {count} would exceed the budget of {ENUM_CAP}")


def _scan_box(gram, m, height, *, tested=0, first=False, accept=None):
    """DFS over canonical representatives (first nonzero coordinate > 0).

    Visits the box in lexicographic order and returns (hits, tested): the
    hits as tuples in that order, and `tested` advanced by the candidate
    coordinate values tried.  The last coordinate is solved, not scanned:
    once the others are fixed the norm is a quadratic in it, so its at most
    two integer roots (every value, when the quadratic vanishes) come out
    in increasing order and the solve counts as one candidate.  The solve
    runs inside the penultimate level's loop, one per surviving value of
    the penultimate coordinate s, with no DFS frame of its own.  When the
    trailing 2x2 block is definite, s runs only over the integer interval
    where that quadratic has a real root (its discriminant, a concave
    quadratic in s, is >= 0; Fincke-Pohst's bound on the last two
    coordinates), and a node whose interval is empty returns at once.
    Every level but the last counts its whole canonical range on entry,
    however much of it is then pruned or narrowed away.  `accept` filters
    hits; with first=True the scan stops at the first accepted hit, which
    is then the lex-first one.  Raises BudgetExceeded before more than
    ENUM_CAP candidates are tried.
    """
    if height < 1:
        raise InvalidParameter("height must be >= 1")
    cap = ENUM_CAP
    n = len(gram)
    last = n - 1
    glast = gram[last][last]
    out = []
    if n == 1:
        if tested >= cap:
            raise _over_budget(m, height, tested, 1)
        for t in _level_roots(glast, 0, -m, 1, height):
            if accept is None or accept((t,)):
                out.append((t,))
                if first:
                    break
        return out, tested + 1
    pen = last - 1
    gpl = gram[pen][last]
    # a definite trailing 2x2 block (det2 > 0) narrows the penultimate level
    det2 = gram[pen][pen] * glast - gpl * gpl
    bounds = _norm_bounds_by_depth(gram, height)
    steps = [[2 * x for x in row] for row in gram]
    lin = [0] * n  # lin[j] = 2 * sum_{i < depth} g_ij v_i, updated in place
    prefix = []

    def rec(depth, partial, zero_prefix):
        nonlocal tested
        lo = 0 if zero_prefix else -height
        count = height - lo + 1
        if tested + count > cap:
            raise _over_budget(m, height, tested, count)
        tested += count
        ld = lin[depth]
        hi = height
        qlo, qhi = bounds[depth + 1]
        gdd = gram[depth][depth]
        if depth == pen:
            lt = lin[last]
            if det2 > 0:
                # a real last coordinate exists iff its quadratic's discriminant
                # D(s) = (disc - (2 det2 s - half)^2) / det2 is >= 0, which for
                # an integer s means |2 det2 s - half| <= isqrt(disc): an interval
                half = gpl * lt - glast * ld
                disc = half * half + det2 * (lt * lt - 4 * glast * (partial - m))
                if disc < 0:
                    return False
                r = isqrt(disc)
                den = 2 * det2
                lo = max(lo, -((r - half) // den))
                hi = min(hi, (half + r) // den)
            step = steps[depth][last]
            for t in range(lo, hi + 1):
                x = lt + step * t  # lin[last] at this t
                slack = (x if x >= 0 else -x) * height
                p = partial + (gdd * t + ld) * t
                if p + qlo - slack <= m <= p + qhi + slack:
                    # solve the last coordinate: one candidate
                    if tested >= cap:
                        raise _over_budget(m, height, tested, 1)
                    tested += 1
                    # after an all-zero prefix the canonical last coordinate is > 0
                    lo_last = 1 if zero_prefix and t == 0 else -height
                    for u in _level_roots(glast, x, p - m, lo_last, height):
                        v = (*prefix, t, u)
                        if accept is None or accept(v):
                            out.append(v)
                            if first:
                                tested -= height - t  # the values after t were not tried
                                return True
            return False
        step = steps[depth]
        tail = range(depth + 1, n)
        for j in tail:
            lin[j] += step[j] * (lo - 1)
        for t in range(lo, hi + 1):
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
            lin[j] -= step[j] * hi
        return False

    rec(0, 0, True)
    return out, tested


def enumerate_norm_vectors(lattice: GramLattice, m: int, height: int) -> list[tuple[int, ...]]:
    """All vectors v != 0 with sup-norm <= height and v.v = m.

    One representative per +-pair (first nonzero coordinate positive), in
    lexicographic order.  Raises BudgetExceeded once the search would test
    more than ENUM_CAP candidate coordinate values; the last coordinate is
    solved from the others, and each solve counts as one candidate.
    """
    return _scan_box(lattice.gram, m, height)[0]


def first_norm_vector(lattice: GramLattice, m: int, height: int, *, tested: int = 0,
                      accept=None) -> tuple[tuple[int, ...] | None, int]:
    """The first vector enumerate_norm_vectors would list (and `accept`
    takes), or None, with the candidate count advanced from `tested`.

    The search stops at that vector.  ENUM_CAP bounds the running count, so
    a caller that chains several searches passes the count on to keep one
    budget for all of them.
    """
    hits, tested = _scan_box(lattice.gram, m, height, tested=tested, first=True,
                             accept=accept)
    if not hits:
        return None, tested
    if lattice.norm(hits[0]) != m:
        raise ArithmeticError("enumerated witness does not have the requested norm")
    return hits[0], tested


def primitive_isotropic_vectors(lattice: GramLattice, height: int, *,
                                orientation=None) -> list[tuple[int, ...]]:
    """Primitive norm-zero vectors up to the height bound.

    With an orientation each vector is reoriented to the closure of its
    positive cone.
    """
    hits = []
    for v in enumerate_norm_vectors(lattice, 0, height):
        if gcd(*v) != 1:
            continue
        if orientation is not None:
            # never 0: the base has positive norm, so its orthogonal
            # complement is negative definite in signature (1, n)
            if lattice.pair(v, orientation.base) < 0:
                v = linalg.vec_neg(v)
        hits.append(v)
    return sorted(hits)


# -- congruence certificates -----------------------------------------------------

def _scan_residues(gram, m, modulus) -> bool:
    """True when some primitive residue vector v has Q(v) = m (mod modulus).

    Primitive here means: for every prime p | modulus, some coordinate is a
    unit mod p; imprimitive residue solutions can mask obstructions.  A DFS
    over the coordinates; the last one is tested inline, t = 0..modulus-1
    against g t^2 + l t = target - partial and the primes still missing a
    unit, without a call per value.
    """
    n = len(gram)
    last = n - 1
    primes = [p for p, _ in linalg.factorize(modulus)]
    target = m % modulus

    def rec(depth, partial, lin, unit_masks):
        row = gram[depth]
        if depth == last:
            g, l, need = row[depth], lin[depth], (target - partial) % modulus
            missing = [p for u, p in zip(unit_masks, primes) if not u]
            for t in range(modulus):
                if (g * t + l) * t % modulus == need and all(t % p for p in missing):
                    return True
            return False
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


def _entry(certificate: dict, key: str):
    """certificate[key]; a certificate without it is malformed input."""
    try:
        return certificate[key]
    except KeyError:
        raise InputError(f"certificate has no {key!r} entry") from None


def replay_congruence(lattice: GramLattice, certificate: dict) -> bool:
    """Re-run the residue scans recorded in a congruence certificate's parts.

    The parts' norms must be exactly the square classes norm // d^2 of the
    certificate's norm, or the certificate proves nothing (False); a modulus
    that is not an int >= 2 is malformed input, and so is one whose scan
    would exceed the cap the ladder obeys, modulus^rank > LADDER_RESIDUE_CAP.
    """
    parts = _entry(certificate, "parts")
    norms = [_entry(part, "norm") for part in parts]
    moduli = [_entry(part, "modulus") for part in parts]
    if any(type(q) is not int or q < 2 for q in moduli):
        raise InputError(f"certificate moduli must be integers >= 2, got {moduli}")
    rank = lattice.rank
    for q in moduli:
        if q ** rank > LADDER_RESIDUE_CAP:
            raise InputError(f"certificate modulus {q} needs {q}^{rank} residue vectors "
                             f"at rank {rank}, over the cap of {LADDER_RESIDUE_CAP}")
    norm = _entry(certificate, "norm")
    if type(norm) is not int:
        raise InputError(f"certificate norm must be an integer, got {norm!r}")
    if set(norms) != {norm // (d * d) for d in _square_divisors(norm)}:
        return False
    return not any(_scan_residues(lattice.gram, m, q) for m, q in zip(norms, moduli))


# -- Hilbert symbols and rational isotropy ----------------------------------------

def _normalize_place(place):
    if place in (INFINITE_PLACE, "inf", None) or place == float("inf"):
        return INFINITE_PLACE
    p = int(place)
    if p < 2 or linalg.factorize(p) != [(p, 1)]:
        raise InvalidParameter(f"place must be a prime or infinity, got {place!r}")
    return p


def squarefree_int(q) -> int:
    """Squarefree integer representing q (an int, or a rational with
    `numerator` and `denominator`) modulo nonzero rational squares."""
    n = q.numerator * q.denominator
    if n == 0:
        raise InvalidParameter("zero has no squarefree class")
    out = -1 if n < 0 else 1
    for p, e in linalg.factorize(n):
        if e % 2:
            out *= p
    return out


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
    Accepts nonzero ints, or rationals with `numerator` and `denominator`,
    and any spelling of a place.
    """
    return _hilbert(squarefree_int(a), squarefree_int(b), _normalize_place(place))


def _hilbert(a: int, b: int, p) -> int:
    """hilbert_symbol on squarefree integers a, b at a checked place p."""
    if p == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
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

    def __init__(self, isotropic: bool, method: str, witness: tuple[int, ...] | None = None,
                 certificate: dict | None = None):
        object.__setattr__(self, "isotropic", isotropic)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)

    def as_json(self) -> dict:
        out = {"kind": "Isotropic" if self.isotropic else "Anisotropic",
               "method": self.method}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _hasse_invariant(diag, p) -> int:
    """Product of (d_i, d_j)_p over i < j, for squarefree d_i and a checked p."""
    eps = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            eps *= _hilbert(diag[i], diag[j], p)
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
        for p, _ in linalg.factorize(d):
            if p not in seen:
                seen.add(p)
                places.append(p)
    return places


def _locally_isotropic(diag, p) -> bool:
    """Local isotropy of a nonempty diagonal form at a finite place.

    The entries of diag are squarefree integers and p is a checked prime.
    Rank 1 is anisotropic; rank >= 5 is isotropic at every finite place
    (Serre, A Course in Arithmetic, IV 2.2, Thm 6).
    """
    n = len(diag)
    if n == 1:
        return False
    if n >= 5:
        return True
    d = squarefree_int(prod(diag))
    if n == 2:
        return _square_in_qp(-d, p)
    eps = _hasse_invariant(diag, p)
    if n == 3:
        return _hilbert(-1, -d, p) == eps
    if not _square_in_qp(d, p):
        return True
    return eps == _hilbert(-1, -1, p)


def _squarefree_diagonal(lattice: GramLattice) -> list[int]:
    """The squarefree classes of the lattice's cached rational diagonal."""
    return [squarefree_int(d) for d in lattice.congruence_diagonal]


def _failing_places(diag) -> list:
    """Where a diagonal form of squarefree entries is anisotropic, as a
    certificate lists it: infinity for a definite form, nowhere for an
    indefinite one of rank >= 5, else the failing places among 2 and the
    odd primes of the entries."""
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return [INFINITE_PLACE]
    if len(diag) >= 5:
        return []
    return [p for p in _relevant_places(diag) if not _locally_isotropic(diag, p)]


def _search_isotropic_witness(lattice: GramLattice, max_height: int) -> tuple[int, ...] | None:
    """First primitive isotropic vector at the first doubling height that has one."""
    h, tested = 1, 0
    while h <= max_height:
        witness, tested = first_norm_vector(lattice, 0, h, tested=tested,
                                            accept=lambda v: gcd(*v) == 1)
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
    diag = _squarefree_diagonal(lattice)
    failing = _failing_places(diag)
    if failing:
        method = "definite" if failing == [INFINITE_PLACE] else "local_obstruction"
        return IsotropyVerdict(
            isotropic=False, method=method,
            certificate={"kind": "rational_anisotropy", "diagonal": diag,
                         "failing_places": failing})
    witness = _search_isotropic_witness(lattice, witness_height)
    method = "indefinite_rank_ge_5" if lattice.rank >= 5 else "local_global"
    return IsotropyVerdict(isotropic=True, method=method, witness=witness)


def replay_rational_certificate(lattice: GramLattice, certificate: dict) -> bool:
    """True when the certificate records the lattice's squarefree diagonal
    (with the class of -norm appended for rational_nonrepresentability)
    and some places, and that form is anisotropic at each of them."""
    recorded = _entry(certificate, "diagonal")
    places = [_normalize_place(p) for p in _entry(certificate, "failing_places")]
    diag = _squarefree_diagonal(lattice)
    if certificate.get("kind") == "rational_nonrepresentability":
        diag.append(squarefree_int(-_entry(certificate, "norm")))
    if recorded != diag or not places:
        return False
    definite = all(d > 0 for d in diag) or all(d < 0 for d in diag)
    return all(definite if p == INFINITE_PLACE else not _locally_isotropic(diag, p)
               for p in places)


# -- the root-existence pipeline ----------------------------------------------------

class SearchVerdict(Record):
    """Witness / CertifiedNone / NoneUpToHeight for a norm-m vector search."""

    def __init__(self, kind: str, norm: int, height_bound: int | None = None,
                 witness: tuple[int, ...] | None = None, certificate: dict | None = None,
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
            out["witness"] = list(self.witness)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _square_divisors(m: int) -> list[int]:
    """All d >= 1 with d*d dividing m != 0: the divisors of the largest such d."""
    return linalg.divisors(prod(p ** (e // 2) for p, e in linalg.factorize(m)))


def root_existence(lattice: GramLattice, root_norm: int = -2,
                   height: int = 10) -> SearchVerdict:
    """Three-stage search for a vector of the given norm.

    1. rational necessary test: the form represents root_norm over Q iff
       the orthogonal extension by <-root_norm> is isotropic, read off the
       lattice's diagonal with the class of -root_norm appended;
    2. congruence scan over the modulus ladder, run once per square divisor
       class of root_norm so imprimitive vectors cannot slip through;
    3. bounded search up to the height, stopped at the lex-first witness.

    Oversized ladder moduli are skipped (recorded in notes), never treated
    as obstructions.
    """
    if root_norm == 0:
        raise InvalidParameter("use primitive_isotropic_vectors for norm 0")
    diag = _squarefree_diagonal(lattice) + [squarefree_int(-root_norm)]
    failing = _failing_places(diag)
    if failing:
        cert = {"kind": "rational_nonrepresentability", "diagonal": diag,
                "failing_places": failing, "norm": root_norm}
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
        return lattice.norm(verdict.witness) == verdict.norm
    if verdict.kind == "certified_none":
        cert = verdict.certificate
        if cert["kind"] == "congruence":
            return replay_congruence(lattice, cert)
        return replay_rational_certificate(lattice, cert)
    return True
