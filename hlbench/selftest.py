"""Self-test of the checks: every check must reject a corrupted real report.

For each kind of check, one job of a workload (seed 0) is run once, its
report must pass, and then one field of the report is corrupted the way a
wrong program would get it wrong; the check must reject the result.
"""

from __future__ import annotations

import copy
import json
import os

import checks
import workloads
from run import OUT, judge, run_child


def _set(path, value):
    def corrupt(res):
        node = res
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return corrupt


def _drop_first(path):
    def corrupt(res):
        node = res
        for key in path:
            node = node[key]
        del node[0]
    return corrupt


# (workload, job name, what the check must catch, corruption of report["result"])
CASES = (
    ("ns-criteria", "roots-cc-d4-0", "witness of the wrong norm",
     _set(("witness",), lambda w: [2 * x for x in w])),
    ("ns-criteria", "roots-cc-d4-0", "NoneUpToHeight with a root in the box",
     lambda res: res.update(kind="NoneUpToHeight", witness=None)),
    ("ns-criteria", "roots-uniform3", "congruence certificate that does not replay",
     _set(("certificate", "parts", 0, "modulus"), 3)),
    ("ns-criteria", "isotropy-cc-a2-0", "imprimitive isotropy witness",
     _set(("witness",), lambda w: [2 * x for x in w])),
    ("ns-criteria", "isotropy-cc-a2-0", "anisotropy claimed for an isotropic lattice",
     lambda res: res.update(kind="Anisotropic", witness=None)),
    ("ns-criteria", "criteria-uniform3", "family verdict contradicting the paper",
     _set(("fibration_verdict", "kind"), "FibrationExists")),
    ("ns-criteria", "criteria-cc-d4-0", "lattice verdict contradicting its evidence",
     _set(("lattice_verdict", "kind"), "IsLattice")),
    ("ns-criteria", "criteria-u-a2-x11", "a rootless lattice given a root",
     lambda res: res["lattice_verdict"].update(
         kind="NotLattice", evidence=dict(res["lattice_verdict"]["evidence"],
                                          kind="Witness", witness=[1, 0, 0, 0]))),
    ("word-entropy", "classify-u-m2-loxodromic-0", "wrong isometry class",
     _set(("class",), "parabolic")),
    ("word-entropy", "classify-u-m2-loxodromic-0", "wrong entropy",
     _set(("entropy",), lambda e: e * 1.001)),
    ("word-entropy", "classify-u-m2-loxodromic-0", "wrong characteristic polynomial",
     _set(("charpoly", 0), lambda c: c + 1)),
    ("word-entropy", "classify-u-m2-loxodromic-0", "fixed ray that is not an eigenvector",
     _set(("fixed_rays", 0, "numeric", 0), lambda x: x + 0.5)),
    ("word-entropy", "classify-pell", "Pell entropy off log(3 + 2 sqrt 2)",
     _set(("entropy",), lambda e: e + 1e-7)),
    ("word-entropy", "classify-u-m2-parabolic-0", "parabolic fixed ray not fixed",
     _set(("fixed_rays", 0, "ray"), lambda r: [x + 1 for x in r])),
    ("word-entropy", "classify-u-m2-elliptic-0", "elliptic order not minimal",
     _set(("order",), lambda k: 2 * k)),
    ("word-entropy", "entropy-u-m2-0", "entropy finding of the wrong class",
     _set(("findings", -1, "class"), lambda c: "elliptic" if c != "elliptic" else "parabolic")),
    ("word-entropy", "entropy-u-m2-0", "entropy report missing an element",
     _drop_first(("findings",))),
    ("group-geometry", "dirichlet-u-a2-m2-0", "facet that is not a bisector",
     lambda res: res["halfspaces"].append([1] + [0] * (len(res["halfspaces"][0]) - 1))),
    ("group-geometry", "dirichlet-u-a2-m2-0", "missing extreme ray",
     _drop_first(("rays",))),
    ("group-geometry", "dirichlet-pell-0", "missing truncation label",
     _set(("truncated_at",), None)),
    ("group-geometry", "tile-check-pell", "tiling flag contradicting its counts",
     _set(("overlap_count",), 1)),
    ("group-geometry", "orbit-u-a2", "orbit missing a point",
     _drop_first(("rays",))),
    ("group-geometry", "limits-pell", "wrong number of limit clusters",
     lambda res: res.update(cluster_count=1, directions=res["directions"][:1])),
    ("group-geometry", "chamber-walk-u-a2-m2", "chamber-walk image off the reflections",
     _set(("image", 0), lambda x: x + 1)),
    ("group-geometry", "enumerate-u-d4", "enumeration missing a vector",
     _drop_first(("vectors",))),
)


def run(root, log) -> bool:
    jobs = {}
    for workload in workloads.WORKLOADS:
        indir = os.path.join(OUT, "inputs", f"selftest-{workload}")
        for job in workloads.build(root, workload, 0, indir):
            jobs[(workload, job["name"])] = job
    reports = {}
    ok = True
    for workload, name, what, corrupt in CASES:
        job = jobs[(workload, name)]
        if name not in reports:
            rec = run_child(root, job["argv"])
            failed, problem = judge(job, [rec])
            if failed or problem:
                log(f"FAIL {name}: the real report does not pass: {problem}")
                ok = False
                continue
            reports[name] = json.loads(rec["report"])
        bad = copy.deepcopy(reports[name])
        corrupt(bad["result"])
        try:
            checks.check(job, bad)
        except checks.CheckError as exc:
            log(f"ok   {name}: {what} -> rejected ({exc})")
        else:
            log(f"FAIL {name}: {what} -> accepted")
            ok = False
    log(f"self-test {'passed' if ok else 'FAILED'}: {len(CASES)} corruptions")
    return ok
