"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; the conftest hook prints one
[ACCEPTANCE] PASS/FAIL line per criterion.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from hyperlat import (Horoball, boundary_from_ray, build_lattice,
                      convex_cocompact_rank5_family, dirichlet_domain,
                      direct_sum, distance, eichler_transvection, entropy,
                      group, hilbert_symbol, horoball_contains, make_isometry,
                      pick_cone, point_from_ray, polytope_hypothesis_check,
                      rank1, rational_isotropy, reflection, root_existence,
                      standard_lattice, tiling_check,
                      uniform_lattice_family)
from hyperlat.cones import double_description
from hyperlat.forms import INFINITE_PLACE, primitive_isotropic_vectors, squarefree_int
from hyperlat.isometry import LOXODROMIC, PARABOLIC
from hyperlat.linalg import dot, identity_matrix, kernel_basis, primitive_vector, rank
from hyperlat.polynomials import squarefree_part

U = build_lattice([[0, 1], [1, 0]])
D12 = build_lattice([[1, 0], [0, -2]])
U_MINUS2 = direct_sum(U, rank1(-2))
U_A2 = direct_sum(U, standard_lattice("A2"))

O_D12 = pick_cone(D12, (1, 0))
O_UM2 = pick_cone(U_MINUS2, (1, 1, 0))
O_UA2 = pick_cone(U_A2, (1, 1, 0, 0))

PELL = make_isometry(O_D12, [[3, 4], [2, 3]])


def test_family_verification():
    """diag(4,-8,-12k) and diag(4,-8,-12,-12k), k in {1,4,7,10,13}: certified
    no roots and no nonzero isotropic vectors, in under 5 seconds."""
    start = time.perf_counter()
    for k in (1, 4, 7, 10, 13):
        for member in uniform_lattice_family(k):
            roots = root_existence(member, -2, 10)
            assert roots.kind == "certified_none", (k, member)
            iso = rational_isotropy(member, witness_height=1)
            assert not iso.isotropic, (k, member)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"family verification took {elapsed:.2f}s"


def test_cc_families():
    """<32>+D4 and <54>+A2+A2: signature (1,4); root witness at height 1 in
    under a second; the A2 family is isotropic."""
    d4 = convex_cocompact_rank5_family("d4", 5)
    a2 = convex_cocompact_rank5_family("a2", 2)
    assert d4.signature == (1, 4)
    assert a2.signature == (1, 4)
    for lat in (d4, a2):
        start = time.perf_counter()
        verdict = root_existence(lat, -2, 1)
        elapsed = time.perf_counter() - start
        assert verdict.kind == "witness"
        assert lat.norm(verdict.witness) == -2
        assert elapsed < 1.0, f"root witness took {elapsed:.2f}s"
    assert rational_isotropy(a2).isotropic


def _cone_points(lat, orientation, rng, count, box=30):
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-box, box) for _ in range(lat.rank))
        if lat.norm(v) > 0 and lat.pair(v, orientation.base) > 0:
            out.append(point_from_ray(orientation, v))
    return out


def test_horoball_lemma():
    """>= 1000 sampled (e, e', x) triples in U+<-2> and U+A2 satisfy
    1 <= (e,e') and (e,e') <= 2(x,e)(x,e') exactly, with no joint
    membership; equivariance holds on all samples.  Under 10 seconds."""
    start = time.perf_counter()
    rng = random.Random(2025)
    triples = 0
    for lat, o in ((U_MINUS2, O_UM2), (U_A2, O_UA2)):
        cusps = primitive_isotropic_vectors(lat, 2, orientation=o)
        balls = [Horoball(center=boundary_from_ray(o, e)) for e in cusps]
        points = _cone_points(lat, o, rng, 90)
        for b1, b2 in itertools.combinations(balls, 2):
            e1, e2 = b1.center.ray, b2.center.ray
            p12 = lat.pair(e1, e2)
            assert p12 >= 1
            for x in points:
                n = lat.norm(x.ray)
                pe1 = lat.pair(x.ray, e1)
                pe2 = lat.pair(x.ray, e2)
                assert p12 * n <= 2 * pe1 * pe2  # exact, cleared of sqrt
                assert not (horoball_contains(b1, x) and horoball_contains(b2, x))
                triples += 1
        # equivariance g B_e = B_{g e} for factory isometries
        if lat is U_MINUS2:
            gens = [reflection(o, (0, 0, 1)),
                    eichler_transvection(o, (1, 0, 0), (0, 0, 1))]
        else:
            gens = [reflection(o, (0, 0, 1, 0)),
                    eichler_transvection(o, (1, 0, 0, 0), (0, 0, 1, 2))]
        for g in gens:
            for b in balls:
                moved = Horoball(center=boundary_from_ray(o, g.apply(b.center.ray)))
                for x in points:
                    gx = point_from_ray(o, g.apply(x.ray))
                    assert horoball_contains(moved, gx) == horoball_contains(b, x)
    assert triples >= 1000, triples
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"horoball suite took {elapsed:.2f}s"


def _word_pool(rng, letters, count, max_len=6):
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


def _letters_um2():
    s1 = reflection(O_UM2, (0, 0, 1))
    s2 = reflection(O_UM2, (1, 0, 1))
    s3 = reflection(O_UM2, (0, 1, 1))
    t1 = eichler_transvection(O_UM2, (1, 0, 0), (0, 0, 1))
    t2 = eichler_transvection(O_UM2, (0, 1, 0), (0, 0, 1))
    return [(s1, "s1"), (s2, "s2"), (s3, "s3"), (t1, "t1"),
            (t1.inverse(), "t1i"), (t2, "t2"), (t2.inverse(), "t2i")]


def _letters_d12():
    refl = make_isometry(O_D12, [[1, 0], [0, -1]])
    return [(PELL, "g"), (PELL.inverse(), "gi"), (refl, "r")]


def test_classification_oracle():
    """>= 500 random reduced words (length <= 6) over reflections,
    transvections, and Pell-type generators: exact classification agrees
    with the float spectral radius within 1e-8 in 100% of cases; parabolic
    entropy is exactly 0; entropy doubles on squares within 1e-10."""
    rng = random.Random(424242)
    words = _word_pool(rng, _letters_um2(), 250) + _word_pool(rng, _letters_d12(), 250)
    assert len(words) >= 500
    parabolic_seen = 0
    for g in words:
        cls = g.classification
        lam = cls.scale_field.approx_root() if cls.kind == LOXODROMIC else 1.0
        # float spectral radius: numeric roots of the charpoly radical
        radical = squarefree_part(g.charpoly)
        rho = max(abs(r) for r in np.roots(list(reversed(radical))))
        assert abs(rho - lam) < 1e-8, (g.matrix, cls.kind, rho, lam)
        if cls.kind == PARABOLIC:
            parabolic_seen += 1
            assert entropy(g) == 0.0
        assert abs(entropy(g.power(2)) - 2 * entropy(g)) < 1e-10
    assert parabolic_seen > 0


def test_pell_cross_check():
    """entropy([[3,4],[2,3]]) = log(3 + 2 sqrt 2) within 1e-12, and the
    displacement distance of (1,0) equals it within 1e-12."""
    ent = entropy(PELL)
    assert abs(ent - math.log(3 + 2 * math.sqrt(2))) < 1e-12
    x = point_from_ray(O_D12, (1, 0))
    gx = point_from_ray(O_D12, PELL.apply((1, 0)))
    d = distance(x, gx)
    assert abs(d - math.acosh(3)) < 1e-12
    assert abs(d - ent) < 1e-12


def test_dirichlet_tiling():
    """Pell domain at word budget 3 has exactly 2 facets; 100-sample tiling
    check at budget 8 is clean; every vertex is rational or boundary-tagged."""
    h = point_from_ray(O_D12, (1, 0))
    dom = dirichlet_domain(group(PELL), h, 3)
    assert len(dom.halfspaces) == 2
    tiling = tiling_check(dom, group(PELL), 100, 8, seed=0)
    assert tiling["overlap_count"] == 0
    assert tiling["unreachable_count"] == 0
    report = polytope_hypothesis_check(dom, O_D12)
    assert report["is_generalized_polytope"]
    assert report["all_positive_vertices_rational"]
    assert report["all_zero_norm_rays_rational"]
    assert report["escaping_rays"] == []


def _brute_extreme_rays(functionals, n):
    rays = set()
    for subset in itertools.combinations(range(len(functionals)), n - 1):
        rows = [list(functionals[i]) for i in subset]
        if rank(rows) != n - 1:
            continue
        kern = kernel_basis([tuple(r) for r in rows])
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            if all(dot(f, cand) >= 0 for f in functionals):
                active = [list(f) for f in functionals if dot(f, cand) == 0]
                if rank(active) == n - 1:
                    rays.add(primitive_vector(cand))
    return sorted(rays)


def test_double_description_vs_brute_force():
    """Exact extreme-ray equality on 50 random rational cones of rank <= 4
    with <= 8 halfspaces, in under 30 seconds."""
    start = time.perf_counter()
    rng = random.Random(99)
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        fns = [tuple(rng.randint(-4, 4) for _ in range(n))
               for _ in range(rng.randint(n, 8))]
        fns = [f for f in fns if any(f)]
        if not fns or kernel_basis(fns):
            continue  # keep the oracle's pointed-cone assumption
        got, lineality, _zero_sets = double_description(fns, identity_matrix(n))
        assert lineality == []
        assert sorted(got) == _brute_extreme_rays(fns, n)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"double description suite took {elapsed:.2f}s"


def test_hilbert_symbol_suite():
    """Symmetry, bimultiplicativity, and the product formula on 200 random
    pairs; the positive-definite rank-2 example has signature (2,0)."""
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 200:
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if a and b:
            pairs.append((a, b))

    def places(a, b):
        out = {2, INFINITE_PLACE}
        for val in (abs(squarefree_int(a)), abs(squarefree_int(b))):
            p = 2
            while p * p <= val:
                if val % p == 0:
                    out.add(p)
                    while val % p == 0:
                        val //= p
                p += 1
            if val > 1:
                out.add(val)
        return out

    for a, b in pairs:
        prod = 1
        for p in places(a, b):
            s = hilbert_symbol(a, b, p)
            assert s == hilbert_symbol(b, a, p)
            prod *= s
        assert prod == 1
        c = rng.choice([x for x in range(-9, 10) if x])
        for p in (2, 3, 5, INFINITE_PLACE):
            assert hilbert_symbol(a * c, b, p) == \
                hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p)
    assert build_lattice([[2, 1], [1, 2]]).signature == (2, 0)


CORPUS = [
    ["info", "--lattice", "um2.json"],
    ["roots", "--lattice", "um2.json", "--height", "3"],
    ["roots", "--lattice", "fam3.json", "--height", "6"],
    ["isotropy", "--lattice", "fam3.json"],
    ["enumerate", "--lattice", "um2.json", "--norm", "-2", "--height", "2"],
    ["classify", "--lattice", "d12.json", "--isometry", "pell.json"],
    ["entropy", "--lattice", "d12.json", "--group", "pell_group.json",
     "--budget", "3"],
    ["orbit", "--lattice", "d12.json", "--group", "pell_group.json",
     "--point", "1,0", "--depth", "3"],
    ["limits", "--lattice", "d12.json", "--group", "pell_group.json",
     "--point", "1,0", "--depth", "10"],
    ["dirichlet", "--lattice", "d12.json", "--group", "pell_group.json",
     "--point", "1,0", "--budget", "3"],
    ["tile-check", "--lattice", "d12.json", "--group", "pell_group.json",
     "--point", "1,0", "--budget", "3", "--check-budget", "8",
     "--samples", "60"],
    ["chamber-walk", "--lattice", "um2.json", "--point", "2,2,1",
     "--height", "1"],
    ["criteria", "k3", "--lattice", "fam3.json", "--height", "6"],
    ["families", "--uniform", "4"],
    ["plot", "--lattice", "d12.json", "--group", "pell_group.json",
     "--point", "1,0", "--depth", "6", "--out", "plotout"],
]


def _run_corpus(workdir):
    transcript = []
    for args in CORPUS:
        proc = subprocess.run([sys.executable, "-m", "hyperlat.cli"] + args,
                              capture_output=True, text=True, cwd=workdir)
        assert proc.returncode == 0, (args, proc.stderr)
        transcript.append(proc.stdout)
    for artifact in ("plotout.csv", "plotout.svg"):
        transcript.append((workdir / artifact).read_text())
    return "".join(transcript)


def test_cli_determinism(tmp_path):
    """Two runs of the full CLI corpus are byte-identical."""
    (tmp_path / "um2.json").write_text(
        json.dumps({"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]]}))
    (tmp_path / "d12.json").write_text(json.dumps({"gram": [[1, 0], [0, -2]]}))
    (tmp_path / "fam3.json").write_text(
        json.dumps({"gram": [[4, 0, 0], [0, -8, 0], [0, 0, -12]]}))
    (tmp_path / "pell.json").write_text(json.dumps({"matrix": [[3, 4], [2, 3]]}))
    (tmp_path / "pell_group.json").write_text(
        json.dumps({"generators": [{"matrix": [[3, 4], [2, 3]]}]}))
    first = _run_corpus(tmp_path)
    second = _run_corpus(tmp_path)
    assert first == second
    assert first  # nonempty transcripts
