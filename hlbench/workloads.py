"""The three workloads: one round of jobs per workload, built from a seed.

A job is one hyperlat subcommand.  Every round of a run repeats the same
jobs in a fresh order.  The seed changes only what leaves the amount of
work unchanged: sign changes of basis vectors (applied to the Gram matrix
and to every matrix and point that lives on it), generator order, the
parameter k of the uniform family, the random words that are classified,
the tiling sample seed and the job order.

Everything here is built from plain integer matrices; hyperlat is not
imported.  Each job carries what the checks need: its kind, its inputs and
the verdicts the paper predicts.
"""

from __future__ import annotations

import json
import os
import random

from checks import inverse, isometry_class, mat_mul, pair

# -- lattice blocks (root lattices negative definite, as in hyperlat) --------

U = [[0, 1], [1, 0]]
A2 = [[-2, 1], [1, -2]]
D4 = [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]]
E8 = [[-2, 1, 0, 0, 0, 0, 0, 0],
      [1, -2, 1, 0, 0, 0, 0, 0],
      [0, 1, -2, 1, 0, 0, 0, 1],
      [0, 0, 1, -2, 1, 0, 0, 0],
      [0, 0, 0, 1, -2, 1, 0, 0],
      [0, 0, 0, 0, 1, -2, 1, 0],
      [0, 0, 0, 0, 0, 1, -2, 0],
      [0, 0, 1, 0, 0, 0, 0, -2]]


def dsum(*blocks):
    """Block-diagonal (orthogonal) sum of Gram matrices."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out


def diag(*entries):
    return dsum(*[[[e]] for e in entries])


def scaled(gram, s):
    return [[s * x for x in row] for row in gram]


def reflection(gram, delta):
    """v -> v + (v, delta) delta for a norm -2 vector delta."""
    n = len(gram)
    return [[int(i == j) + pair(gram, [int(k == j) for k in range(n)], delta) * delta[i]
             for j in range(n)] for i in range(n)]


def transvection(gram, e, a):
    """Eichler transvection fixing the isotropic vector e, (e, a) = 0."""
    n = len(gram)
    half = pair(gram, a, a) // 2
    cols = []
    for j in range(n):
        b = [int(k == j) for k in range(n)]
        pe, pa = pair(gram, b, e), pair(gram, b, a)
        cols.append([b[i] + pe * a[i] - pa * e[i] - half * pe * e[i] for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class Flip:
    """A change of basis by signs: e_i -> s_i e_i."""

    def __init__(self, signs):
        self.s = list(signs)

    def gram(self, g):
        s = self.s
        return [[s[i] * s[j] * g[i][j] for j in range(len(g))] for i in range(len(g))]

    mat = gram  # S M S, the same formula

    def vec(self, v):
        return [a * b for a, b in zip(self.s, v)]


# -- the job list -------------------------------------------------------------

class Builder:
    """Collects jobs and writes their input files under one directory."""

    def __init__(self, root, indir, seed):
        self.root = root
        self.indir = indir
        self.rng = random.Random(seed)
        self.jobs = []
        os.makedirs(os.path.join(root, indir), exist_ok=True)

    def write(self, name, obj):
        rel = os.path.join(self.indir, name)
        with open(os.path.join(self.root, rel), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return rel

    def lattice(self, name, gram, flip=True):
        """Write a sign-flipped copy of the Gram matrix; return (flip, gram, path)."""
        f = Flip([self.rng.choice((1, -1)) if flip else 1 for _ in gram])
        g = f.gram(gram)
        return f, g, self.write(name + ".json", {"gram": g})

    def job(self, name, kind, argv, expect=None, **data):
        self.jobs.append({"name": name, "kind": kind, "argv": argv,
                          "expect": expect or {}, **data})


def _ns_criteria(b: Builder):
    """Sorted by time a round is 7 small jobs, 5 middle ones and 7 witness
    searches on the rank-5 families (the 5 on <2^5>+D4 are the slowest), so
    the median falls in the middle group and the tail among the slowest."""
    rng = b.rng
    uniform = {"criteria": {"lattice": "IsLattice", "fibration": "NoGenusOneFibration"},
               "roots": {"kind": "CertifiedNone"}, "isotropy": {"kind": "Anisotropic"}}
    for member in (3, 4):
        for cmd in ("criteria", "roots", "isotropy"):
            k = 1 + 3 * rng.randrange(0, 12)  # k = 1 (mod 3): the same work for every k
            gram = diag(4, -8, -12 * k) if member == 3 else diag(4, -8, -12, -12 * k)
            _, g, path = b.lattice(f"uniform{member}-{cmd}", gram)
            argv = ["criteria", "k3"] if cmd == "criteria" else [cmd]
            b.job(f"{cmd}-uniform{member}", cmd, argv + ["--lattice", path],
                  gram=g, height=10, expect=uniform[cmd])
    not_lattice = {"lattice": "NotLattice"}
    # (name, Gram matrix, height, criteria jobs, roots jobs, isotropy jobs)
    cases = (
        ("cc-d4", dsum([[32]], D4), 10, 1, 4, 0),
        ("cc-a2", dsum([[54]], A2, A2), 10, 1, 1, 1),
        ("u-d4", dsum(U, D4), 4, 1, 1, 0),
        ("u-a2a2", dsum(U, A2, A2), 4, 1, 0, 0),
        ("u-e8", dsum(U, E8), 1, 1, 0, 0),
    )
    for name, gram, height, n_criteria, n_roots, n_isotropy in cases:
        for i in range(n_criteria):
            _, g, path = b.lattice(f"{name}-criteria-{i}", gram)
            b.job(f"criteria-{name}-{i}", "criteria",
                  ["criteria", "k3", "--lattice", path, "--height", str(height)],
                  gram=g, height=height, expect=not_lattice)
        for i in range(n_roots):
            _, g, path = b.lattice(f"{name}-roots-{i}", gram)
            b.job(f"roots-{name}-{i}", "roots",
                  ["roots", "--lattice", path, "--height", str(height)],
                  gram=g, height=height, expect={"kind": "Witness"})
        for i in range(n_isotropy):
            _, g, path = b.lattice(f"{name}-isotropy-{i}", gram)
            b.job(f"isotropy-{name}-{i}", "isotropy", ["isotropy", "--lattice", path],
                  gram=g, height=10, expect={"kind": "Isotropic"})
    # a rootless scaling: every norm is a multiple of 11, no ladder modulus
    # sees it, so the whole height-10 box is searched and the verdict stays
    # Unresolved
    _, g, path = b.lattice("u-a2-x11", scaled(dsum(U, A2), 11))
    b.job("criteria-u-a2-x11", "criteria", ["criteria", "k3", "--lattice", path],
          gram=g, height=10, expect={"lattice": "Unresolved", "rootless_scale": 11})
    # U+E8 at the default height is refused by the box-volume cap of
    # forms.enumerate_norm_vectors before any search runs: a job that fails
    # in every round, on an input that does not depend on the seed
    _, g, path = b.lattice("u-e8-default", dsum(U, E8), flip=False)
    b.job("criteria-u-e8-default", "criteria", ["criteria", "k3", "--lattice", path],
          gram=g, height=10, expect=not_lattice, known_failure=True)


def _random_word(rng, letters, length):
    word, last = [], None
    for _ in range(length):
        k = rng.randrange(len(letters))
        while k == last:
            k = rng.randrange(len(letters))
        word.append(k)
        last = k
    return word


def _product(n, mats):
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for m in mats:
        out = mat_mul(out, m)
    return out


def _words_of_class(rng, gram, letters, core, kind, count, length):
    """`count` distinct random words of the given class.

    Loxodromic words are random reduced words over the letters; parabolic
    and elliptic ones are conjugates w core w^-1 of a transvection or a
    reflection by a random word w.
    """
    n = len(gram)
    out = []
    while len(out) < count:
        m = _product(n, [letters[k] for k in _random_word(rng, letters, length)])
        if core is not None:
            m = _product(n, [m, core, inverse(gram, m)])
        if isometry_class(m)[0] == kind and m not in out:
            out.append(m)
    return out


def _word_entropy(b: Builder):
    rng = b.rng
    # the Pell element of <1>+<-2>
    f, g, lat = b.lattice("d12", diag(1, -2))
    pell = f.mat([[3, 4], [2, 3]])
    path = b.write("pell.json", {"matrix": pell})
    b.job("classify-pell", "classify", ["classify", "--lattice", lat, "--isometry", path],
          gram=g, matrix=pell, expect={"class": "loxodromic", "pell": True})
    f, g, lat = b.lattice("d12-group", diag(1, -2))
    gens = [f.mat([[3, 4], [2, 3]]), f.mat([[1, 0], [0, -1]])]
    rng.shuffle(gens)
    path = b.write("pell-group.json", {"generators": [{"matrix": m} for m in gens]})
    b.job("entropy-pell", "entropy",
          ["entropy", "--lattice", lat, "--group", path, "--budget", "6"],
          gram=g, generators=gens, budget=6)
    # (name, Gram matrix, reflection roots, transvection (e, a) pairs,
    #  entropy budget, entropy jobs); the six entropy jobs on U+<-2> are
    # the slowest jobs of a round
    cases = (
        ("u-m2", dsum(U, [[-2]]), ((0, 0, 1), (1, 0, 1), (0, 1, 1)),
         (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1))), 3, 6),
        ("u-a2-m2", dsum(U, A2, [[-2]]),
         ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1),
          (1, -1, 0, 0, 0)),
         (((1, 0, 0, 0, 0), (0, 0, 1, 0, 0)),), 1, 1),
    )
    for name, gram, roots, axes, budget, n_entropy in cases:
        f, g, lat = b.lattice(name, gram)
        refl = [reflection(g, f.vec(d)) for d in roots]
        trans = [transvection(g, f.vec(e), f.vec(a)) for e, a in axes]
        letters = refl + trans
        # a fixed mix per round: two loxodromic words, one parabolic, one elliptic
        for kind, count, length, core in (("loxodromic", 2, 4, None),
                                          ("parabolic", 1, 2, trans[0]),
                                          ("elliptic", 1, 2, refl[0])):
            words = _words_of_class(rng, g, letters, core, kind, count, length)
            for i, m in enumerate(words):
                path = b.write(f"{name}-{kind}-{i}.json", {"matrix": m})
                b.job(f"classify-{name}-{kind}-{i}", "classify",
                      ["classify", "--lattice", lat, "--isometry", path],
                      gram=g, matrix=m, expect={"class": kind})
        for i in range(n_entropy):
            f, g, lat = b.lattice(f"{name}-entropy-{i}", gram)
            gens = ([reflection(g, f.vec(d)) for d in roots]
                    + [transvection(g, f.vec(e), f.vec(a)) for e, a in axes])
            rng.shuffle(gens)
            path = b.write(f"{name}-group-{i}.json",
                           {"generators": [{"matrix": m} for m in gens]})
            b.job(f"entropy-{name}-{i}", "entropy",
                  ["entropy", "--lattice", lat, "--group", path, "--budget", str(budget)],
                  gram=g, generators=gens, budget=budget)


def _group_geometry(b: Builder):
    rng = b.rng
    # (name, Gram matrix, generators as reflection roots or matrices,
    #  basepoint, Dirichlet budget, tile-check check budget and samples,
    #  orbit depth, limits depth, Dirichlet jobs)
    pell = (("matrix", ((3, 4), (2, 3))),)
    cases = (
        ("pell", diag(1, -2), pell, (1, 0), 6, 8, 50, 8, 12, 1),
        ("u-m2", dsum(U, [[-2]]), ((0, 0, 1), (1, -1, 0), (1, 0, 1), (0, 1, 1)),
         (3, 5, 1), 5, 4, 10, 5, 9, 1),
        ("u-a2", dsum(U, A2), ((0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 0, 0), (1, 0, 1, 0)),
         (3, 5, 1, 0), 5, 3, 5, 5, 6, 1),
        # the rank-5 reflection group: its four Dirichlet jobs are the
        # slowest jobs of a round
        ("u-a2-m2", dsum(U, A2, [[-2]]),
         ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, -1, 0, 0, 0),
          (1, 0, 0, 0, 1)), (5, 7, 1, 0, 1), 10, 3, 1, 5, 6, 4),
    )
    for (name, gram, gens, point, budget, check_budget, samples, depth, limit_depth,
         n_dirichlet) in cases:
        jobs = [("dirichlet", i) for i in range(n_dirichlet)] + [
            ("tile-check", 0), ("orbit", 0), ("limits", 0)]
        if name == "pell":
            jobs.remove(("orbit", 0))  # an odd number of jobs per round
        for kind, i in jobs:
            f, g, lat = b.lattice(f"{name}-{kind}-{i}", gram)
            mats = [f.mat([list(r) for r in x[1]]) if x[0] == "matrix"
                    else reflection(g, f.vec(x)) for x in gens]
            rng.shuffle(mats)
            gpath = b.write(f"{name}-{kind}-{i}-group.json",
                            {"generators": [{"matrix": m} for m in mats]})
            p = f.vec(point)
            base = ["--lattice", lat, "--group", gpath, "--point=" + ",".join(map(str, p))]
            common = dict(gram=g, generators=mats, point=p)
            if kind == "dirichlet":
                b.job(f"dirichlet-{name}-{i}", kind, [kind, *base, "--budget", str(budget)],
                      budget=budget, **common)
            elif kind == "tile-check":
                b.job(f"tile-check-{name}", kind,
                      [kind, *base, "--budget", str(budget), "--check-budget",
                       str(check_budget), "--samples", str(samples),
                       "--seed", str(rng.randrange(1000))],
                      budget=budget, samples=samples, expect={"passed": name == "pell"},
                      **common)
            elif kind == "orbit":
                b.job(f"orbit-{name}", kind, [kind, *base, "--depth", str(depth)],
                      depth=depth, **common)
            else:
                b.job(f"limits-{name}", kind, [kind, *base, "--depth", str(limit_depth)],
                      depth=limit_depth, clusters=2 if name == "pell" else None, **common)
    for name, gram, start, height in (("u-m2", dsum(U, [[-2]]), (37, 13, 5), 6),
                                      ("u-a2-m2", dsum(U, A2, [[-2]]), (15, 13, 1, 0, 1), 3)):
        # no sign changes here: the walk's set of roots is one canonical
        # representative per +-pair, which depends on the basis signs, so a
        # sign change can turn a two-step walk into one that runs out of steps
        f, g, lat = b.lattice(f"walk-{name}", gram, flip=False)
        p = f.vec(start)
        v0 = f.vec([1, 1] + [0] * (len(gram) - 2))
        b.job(f"chamber-walk-{name}", "chamber-walk",
              ["chamber-walk", "--lattice", lat, "--point=" + ",".join(map(str, p)),
               "--v0=" + ",".join(map(str, v0)), "--height", str(height)],
              gram=g, point=p, height=height)
    # full box listings: the opposite use of forms from a witness search
    for name, gram, norm, height, prim in (("u-d4", dsum(U, D4), -2, 3, False),
                                           ("u-m2", dsum(U, [[-2]]), -2, 12, False),
                                           ("u-a2", dsum(U, A2), 0, 6, True)):
        f, g, lat = b.lattice(f"enum-{name}", gram)
        argv = ["enumerate", "--lattice", lat, "--norm", str(norm), "--height", str(height)]
        if prim:
            argv.append("--primitive")
        b.job(f"enumerate-{name}", "enumerate", argv, gram=g, norm=norm, height=height,
              primitive=prim)


WORKLOADS = {
    "ns-criteria": _ns_criteria,
    "word-entropy": _word_entropy,
    "group-geometry": _group_geometry,
}


def build(root: str, workload: str, seed: int, indir: str) -> list[dict]:
    """Write the inputs of one round and return its jobs."""
    b = Builder(root, indir, seed)
    WORKLOADS[workload](b)
    return b.jobs
