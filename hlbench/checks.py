"""Correctness checks of hyperlat reports, computed apart from hyperlat.

Nothing here imports hyperlat or compares against a stored report.  Every
check recomputes what it needs from the job's own inputs with integer
arithmetic, exhaustive scans or numpy:

* witnesses have the claimed norm and lie within the height;
* congruence certificates replay by an exhaustive residue scan, and
  anisotropy is confirmed by a residue obstruction the check finds itself;
* isotropic witnesses are primitive and of norm 0;
* a NoneUpToHeight verdict is confirmed by scanning the whole box;
* the paper's family verdicts hold;
* isometry classes and entropies agree with numpy eigenvalues and with
  exact matrix powers, and Pell's entropy is log(3 + 2 sqrt 2);
* Dirichlet facets are bisectors of the check's own word BFS and the rays
  equal a brute-force extreme-ray enumeration;
* orbits equal the check's own BFS images, `enumerate` equals a brute-force
  box filter, and a chamber-walk image is the check's own application of
  the reported reflections.

`check(job, report)` raises CheckError on the first violation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


# -- integer arithmetic ---------------------------------------------------------

def pair(gram, u, v):
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_pow(m, k):
    out, base = identity(len(m)), m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def gcd_all(v):
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g


def primitive(v):
    g = gcd_all(v)
    return tuple(x // g for x in v) if g else tuple(v)


def inverse(gram, m):
    """Isometry inverse G^-1 M^t G, computed with fractions and checked."""
    n = len(m)
    mt = [[m[j][i] for j in range(n)] for i in range(n)]
    rhs = mat_mul(mt, gram)
    ginv = frac_inverse(gram)
    out = [[sum(ginv[i][k] * rhs[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    require(all(x.denominator == 1 for row in out for x in row), "non-integral inverse")
    out = [[int(x) for x in row] for row in out]
    require(mat_mul(out, m) == identity(n), "inverse does not invert")
    return out


def frac_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def kernel_vector(rows, n):
    """A primitive integer vector spanning the kernel, or None unless 1-dim."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(n):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -a[i][free[0]]
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return primitive([int(x * den) for x in vec])


def charpoly(m):
    """det(xI - M), ascending integer coefficients (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[Fraction(0)] * n for _ in range(n)]
    ident = identity(n)
    for k in range(1, n + 1):
        mk = [[sum(Fraction(m[i][l]) * (mk[l][j] + coeffs[n - k + 1] * ident[l][j])
                   for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(mk[i][i] for i in range(n)) / k
    require(all(c.denominator == 1 for c in coeffs), "non-integral charpoly")
    return [int(c) for c in coeffs]


def prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


# -- exhaustive scans --------------------------------------------------------------

def primitive_residue_hit(gram, m, modulus):
    """Is there a residue vector, a unit mod every prime of the modulus,
    with Q(v) = m (mod modulus)?  Scans all modulus^n residues."""
    n = len(gram)
    vecs = np.indices((modulus,) * n).reshape(n, -1).T.astype(np.int64)
    g = np.array(gram, dtype=np.int64) % modulus
    q = np.einsum("ij,jk,ik->i", vecs, g, vecs)
    ok = (q - m) % modulus == 0
    for p in prime_factors(modulus):
        ok &= (vecs % p != 0).any(axis=1)
    return bool(ok.any())


def box_vectors(n, height):
    return (np.indices((2 * height + 1,) * n).reshape(n, -1).T - height).astype(np.int64)


def box_filter(gram, m, height):
    """Canonical (first nonzero coordinate positive) v in the box with Q(v) = m."""
    vecs = box_vectors(len(gram), height)
    q = np.einsum("ij,jk,ik->i", vecs, np.array(gram, dtype=np.int64), vecs)
    hits = vecs[q == m]
    out = []
    for v in hits.tolist():
        lead = next((x for x in v if x), 0)
        if lead > 0:
            out.append(tuple(v))
    return sorted(out)


ANISOTROPY_MODULI = (4, 8, 9, 16, 25, 27, 49)


def residue_anisotropy(gram):
    """A modulus with no primitive isotropic residue, found by scanning."""
    for modulus in ANISOTROPY_MODULI:
        if modulus ** len(gram) <= 2_000_000 and not primitive_residue_hit(gram, 0, modulus):
            return modulus
    return None


# -- verdict checks ------------------------------------------------------------------

def check_search(job, ev, norm=-2):
    """A roots verdict: witness, certificate, or an exhausted box."""
    gram, kind = job["gram"], ev["kind"]
    require(ev["norm"] == norm, f"norm {ev['norm']} != {norm}")
    if kind == "Witness":
        w = ev["witness"]
        require(pair(gram, w, w) == norm, f"witness {w} has norm {pair(gram, w, w)}")
        require(max(abs(x) for x in w) <= job["height"], f"witness {w} exceeds the height")
        require(ev["height_bound"] == job["height"], "height bound not echoed")
    elif kind == "CertifiedNone":
        cert = ev["certificate"]
        require(cert["kind"] == "congruence", f"unexpected certificate {cert['kind']}")
        targets = {norm // (d * d) for d in range(1, abs(norm) + 1) if norm % (d * d) == 0}
        require({p["norm"] for p in cert["parts"]} == targets,
                "certificate parts do not cover every square class of the norm")
        for part in cert["parts"]:
            require(not primitive_residue_hit(gram, part["norm"], part["modulus"]),
                    f"residue scan mod {part['modulus']} finds a primitive solution")
    elif kind == "NoneUpToHeight":
        require(ev["height_bound"] == job["height"], "height bound not echoed")
        require(not box_filter(gram, norm, job["height"]),
                "a vector of the norm exists inside the box")
    else:
        raise CheckError(f"unknown search verdict {kind}")
    return {"Witness": "NotLattice", "CertifiedNone": "IsLattice",
            "NoneUpToHeight": "Unresolved"}[kind]


def check_isotropy_verdict(job, iso):
    gram = job["gram"]
    if iso["kind"] == "Isotropic":
        w = iso.get("witness")
        if w is not None:
            require(any(w), "zero isotropy witness")
            require(gcd_all(w) == 1, f"isotropy witness {w} is not primitive")
            require(pair(gram, w, w) == 0, f"isotropy witness {w} has nonzero norm")
        return True
    require(iso["kind"] == "Anisotropic", f"unknown isotropy verdict {iso['kind']}")
    require(residue_anisotropy(gram) is not None,
            "no residue obstruction confirms anisotropy")
    return False


def check_criteria(job, res):
    lv = res["lattice_verdict"]
    kind = check_search(job, lv["evidence"])
    require(lv["kind"] == kind, f"lattice verdict {lv['kind']} but evidence says {kind}")
    fv = res["fibration_verdict"]
    isotropic = check_isotropy_verdict(job, fv["isotropy"])
    if isotropic:
        require(fv["kind"] in ("FibrationExists", "Unresolved"), f"fibration {fv['kind']}")
        if "witness" in fv:
            w = fv["witness"]
            require(gcd_all(w) == 1 and pair(job["gram"], w, w) == 0,
                    f"fibration witness {w} is not a primitive isotropic vector")
    else:
        require(fv["kind"] == "NoGenusOneFibration", f"fibration {fv['kind']}")
    require(fv.get("assumption"), "fibration assumption flag missing")
    expect = job["expect"]
    require(lv["kind"] == expect["lattice"],
            f"lattice verdict {lv['kind']}, the paper gives {expect['lattice']}")
    if "fibration" in expect:
        require(fv["kind"] == expect["fibration"],
                f"fibration verdict {fv['kind']}, the paper gives {expect['fibration']}")
    if "rootless_scale" in expect:
        s = expect["rootless_scale"]
        require(all(x % s == 0 for row in job["gram"] for x in row) and 2 % s,
                "the lattice is not a rootless scaling")


def check_roots(job, res):
    check_search(job, res)
    require(res["kind"] == job["expect"]["kind"],
            f"roots verdict {res['kind']}, expected {job['expect']['kind']}")


def check_isotropy(job, res):
    check_isotropy_verdict(job, res)
    require(res["kind"] == job["expect"]["kind"],
            f"isotropy verdict {res['kind']}, expected {job['expect']['kind']}")
    if res["kind"] == "Isotropic":
        require("witness" in res, "isotropic verdict without a witness")


# -- isometries ----------------------------------------------------------------------

LOXODROMIC_MIN = 1.001


def isometry_class(m):
    """(class, spectral radius) from numpy eigenvalues and exact powers."""
    rho = float(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))
    # A unipotent Jordan block of size k moves float eigenvalues off the unit
    # circle by about eps^(1/k), while the scale of a loxodromic integral
    # isometry of rank <= 10 is an algebraic integer well above 1.1.
    if rho > LOXODROMIC_MIN:
        return "loxodromic", rho
    # eigenvalues of degree <= 5 roots of unity have orders dividing 120
    if mat_pow(m, 120) == identity(len(m)):
        return "elliptic", 1.0
    return "parabolic", 1.0


def check_element(m, kind, ent, pell=False):
    want, rho = isometry_class(m)
    require(kind == want, f"class {kind}, eigenvalues give {want}")
    if want == "loxodromic":
        require(abs(ent - math.log(rho)) < 1e-8 * max(1.0, math.log(rho)),
                f"entropy {ent} != log spectral radius {math.log(rho)}")
    else:
        require(ent == 0.0, f"entropy {ent} of a non-loxodromic element")
    if pell:
        require(abs(ent - math.log(3 + 2 * math.sqrt(2))) < 1e-9,
                f"Pell entropy {ent} != log(3 + 2 sqrt 2)")
    return want, rho


def check_classify(job, res):
    m, gram = job["matrix"], job["gram"]
    kind, rho = check_element(m, res["class"], res["entropy"], job["expect"].get("pell"))
    require(kind == job["expect"]["class"], f"class {kind}, expected {job['expect']['class']}")
    require(res["charpoly"] == charpoly(m), "charpoly differs from Faddeev-LeVerrier")
    if kind == "loxodromic":
        poly = res["lambda_minpoly"]
        scale = sum(abs(c) * rho ** i for i, c in enumerate(poly))
        require(abs(sum(c * rho ** i for i, c in enumerate(poly))) < 1e-9 * scale,
                "spectral radius is not a root of lambda_minpoly")
        require(all(isinstance(c, int) for c in poly) and poly[-1] > 0, "bad minpoly")
        rays = res["fixed_rays"]
        require(len(rays) == 2, "a loxodromic element fixes two boundary rays")
        a = np.array(m, dtype=float)
        g = np.array(gram, dtype=float)
        for ray, lam in zip(rays, (rho, 1 / rho)):
            r = np.array(ray["numeric"])
            scale = np.abs(r).max()
            require(np.abs(a @ r - lam * r).max() < 1e-6 * scale * max(lam, 1),
                    "fixed ray is not an eigenvector of the scale")
            require(abs(r @ g @ r) < 1e-6 * scale * scale * np.abs(g).max(),
                    "fixed ray is not isotropic")
    elif kind == "parabolic":
        rays = res["fixed_rays"]
        require(len(rays) == 1 and rays[0]["rational"], "a parabolic fixes one rational ray")
        r = rays[0]["ray"]
        require(mat_vec(m, r) == r and pair(gram, r, r) == 0 and gcd_all(r) == 1,
                f"ray {r} is not a fixed primitive isotropic vector")
    else:
        k = res["order"]
        require(mat_pow(m, k) == identity(len(m)), f"M^{k} != I")
        require(all(mat_pow(m, k // p) != identity(len(m)) for p in prime_factors(k)),
                f"order {k} is not minimal")


def ball(gram, gens, radius):
    """Distinct elements of word length <= radius, by the check's own BFS."""
    n = len(gram)
    letters = []
    for g in gens:
        for m in (g, inverse(gram, g)):
            if m not in letters:
                letters.append(m)
    ident = tuple(map(tuple, identity(n)))
    seen = {ident}
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for letter in letters:
                new = tuple(map(tuple, mat_mul(letter, m)))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return seen


def word_matrix(gram, gens, word):
    """The element a word string such as g1.g2' names (leftmost applied last)."""
    n = len(gram)
    out = identity(n)
    if word == "e":
        return out
    for letter in word.split("."):
        inv = letter.endswith("'")
        m = gens[int(letter.strip("g'")) - 1]
        out = mat_mul(out, inverse(gram, m) if inv else m)
    return out


def check_entropy(job, res):
    gram, gens = job["gram"], job["generators"]
    seen = set()
    lox = False
    for f in res["findings"]:
        m = word_matrix(gram, gens, f["word"])
        key = tuple(map(tuple, m))
        require(key not in seen, f"word {f['word']} repeats an element")
        seen.add(key)
        kind, _ = check_element(m, f["class"], f["entropy"])
        lox = lox or kind == "loxodromic"
    elements = ball(gram, gens, job["budget"])
    require(len(seen) == len(elements) - 1,
            f"{len(seen)} findings, the BFS finds {len(elements) - 1} elements")
    require(seen <= elements, "a finding lies outside the word ball")
    require(("positive entropy" in res["verdict"]) == lox, "verdict disagrees with findings")


# -- group geometry ------------------------------------------------------------------

def both_signs(point):
    """The primitive basepoint and its negative: hyperlat orients it to its
    own choice of positive cone, which the check does not recompute."""
    p = list(primitive(point))
    return [p, [-x for x in p]]


def check_dirichlet(job, res):
    gram, gens, n = job["gram"], job["generators"], len(job["gram"])
    require(res["truncated_at"] == job["budget"], "truncation label missing")
    halfspaces = {tuple(w) for w in res["halfspaces"]}
    rays = sorted(tuple(r) for r in res["rays"])
    elements = ball(gram, gens, job["budget"])
    matched = False
    for h in both_signs(job["point"]):
        bisectors = set()
        for m in elements:
            moved = mat_vec(m, h)
            if moved != h:
                bisectors.add(primitive([a - b for a, b in zip(moved, h)]))
        if halfspaces <= bisectors:
            matched = True
            break
    require(matched, "a facet is not a bisector of the word ball")
    for r in rays:
        require(all(pair(gram, w, r) >= 0 for w in bisectors),
                f"ray {r} violates a bisector of the word ball")
    funcs = [mat_vec(gram, list(w)) for w in halfspaces]
    brute = set()
    for subset in itertools.combinations(funcs, n - 1):
        v = kernel_vector(subset, n)
        if v is None:
            continue
        for cand in (v, tuple(-x for x in v)):
            if all(sum(a * b for a, b in zip(f, cand)) >= 0 for f in funcs):
                brute.add(cand)
    require(sorted(brute) == rays, "rays differ from brute-force extreme-ray enumeration")
    hyp = res["hypothesis_check"]
    require(hyp["side_count"] == len(halfspaces), "side count differs from facet list")


def check_tile(job, res):
    require(res["samples"] == job["samples"], "sample count not echoed")
    require(res["passed"] == (res["overlap_count"] == 0 and res["unreachable_count"] == 0),
            "passed flag disagrees with the counts")
    require(0 <= res["overlap_count"] <= job["samples"]
            and 0 <= res["unreachable_count"] <= job["samples"], "counts out of range")
    if job["expect"].get("passed"):
        require(res["passed"], "tiling check failed on a group whose domain tiles")


def check_orbit(job, res):
    gram = job["gram"]
    elements = ball(gram, job["generators"], job["depth"])
    got = sorted(tuple(r) for r in res["rays"])
    require(res["count"] == len(got), "count differs from the ray list")
    for x in both_signs(job["point"]):
        mine = sorted({tuple(mat_vec(m, x)) for m in elements})
        if mine == got:
            return
    raise CheckError("orbit differs from the check's own BFS images")


def check_limits(job, res):
    dirs = res["directions"]
    require(res["cluster_count"] == len(dirs), "cluster count differs from the list")
    for d in dirs:
        require(abs(math.sqrt(sum(x * x for x in d)) - 1) < 1e-9, f"{d} is not a unit vector")
    if job.get("clusters") is not None:
        require(len(dirs) == job["clusters"],
                f"{len(dirs)} limit clusters, a cyclic loxodromic group has {job['clusters']}")


def check_walk(job, res):
    gram, height = job["gram"], job["height"]
    x = list(job["point"])
    for delta in res["word"]:
        require(pair(gram, delta, delta) == -2, f"{delta} is not a root")
        require(max(abs(c) for c in delta) <= height, f"{delta} exceeds the height")
        x = [a + pair(gram, x, delta) * d for a, d in zip(x, delta)]
    require(x == res["image"], f"image {res['image']}, reflections give {x}")
    require(res["word_length"] == len(res["word"]), "word length differs from the word")
    require(pair(gram, x, x) == pair(gram, job["point"], job["point"]), "norm not preserved")
    if res["completed"]:
        for r in box_filter(gram, -2, height):
            require(pair(gram, x, r) >= 0, f"image pairs negatively with root {r}")


def check_enumerate(job, res):
    want = box_filter(job["gram"], job["norm"], job["height"])
    if job["primitive"]:
        want = [v for v in want if gcd_all(v) == 1]
    got = [tuple(v) for v in res["vectors"]]
    require(res["count"] == len(got), "count differs from the vector list")
    require(got == want, f"{len(got)} vectors listed, the box filter finds {len(want)}")


CHECKS = {
    "criteria": check_criteria,
    "roots": check_roots,
    "isotropy": check_isotropy,
    "classify": check_classify,
    "entropy": check_entropy,
    "dirichlet": check_dirichlet,
    "tile-check": check_tile,
    "orbit": check_orbit,
    "limits": check_limits,
    "chamber-walk": check_walk,
    "enumerate": check_enumerate,
}


def check(job, report: dict) -> None:
    """Raise CheckError unless the report is a correct answer to the job."""
    require(report.get("tool") == "hyperlat", "not a hyperlat report")
    require(report.get("command") == job["argv"][0], "report is for another command")
    CHECKS[job["kind"]](job, report["result"])
