"""Benchmark of hyperlat: one workload, one seed, whole rounds of CLI jobs.

    python3 hlbench/run.py --workload ns-criteria --seed 1 --seconds 40 --trace 0
    python3 hlbench/run.py --smoke        # every workload once, checks only
    python3 hlbench/run.py --self-test    # every check must reject a corrupted report

Run from the root of a hyperlat checkout.  Every job is one hyperlat
subcommand in a fresh child interpreter (see child.py), one child at a
time, with HYPERLAT_THREADS=1 and PYTHONHASHSEED=0.  Times are calibrated
against the reference kernel (see kernel.py and README.md).  With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` every job also runs in a traced child and the
metrics are per-layer totals per round.  Every report is checked by
checks.py; a run whose reports are wrong prints `"correct": false`.

Inputs, per-job raw and calibrated times and the traced spans are written
under .hlbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import site
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import kernel  # noqa: E402
import workloads  # noqa: E402

OUT = ".hlbench_out"
CHILD_TIMEOUT_S = 60
WRONG_TREE = 3

# span name -> the counters reported for it, besides self_s
LAYER_METRICS = {
    "forms.enumerate_norm_vectors": ("calls", "vectors", "refused"),
    "forms.root_existence": ("calls", "moduli_skipped"),
    "forms.rational_isotropy": ("calls",),
    "forms.primitive_isotropic_vectors": (),
    "polynomials.charpoly": ("calls",),
    "polynomials.count_roots_gt": (),
    "polynomials.bracket_largest_root_above": (),
    "polynomials.refine_bracket": ("calls",),
    "polynomials.minimal_polynomial_of_root": ("calls",),
    "polynomials.cyclotomic_factorization": (),
    "polynomials.identity_power_order": (),
    "isometry.classification": ("calls", "loxodromic", "parabolic", "elliptic"),
    "isometry.entropy": (),
    "isometry.fixed_boundary_points": (),
    "isometry.inverse": ("calls",),
    "isometry.make_isometry": ("calls",),
    "groups.elements_up_to": ("calls", "elements"),
    "groups.dirichlet_domain": (),
    "groups.tiling_check": ("samples",),
    "groups.orbit": (),
    "groups.limit_points_sample": (),
    "groups.chamber_walk": ("steps",),
    "cones.extreme_rays": ("calls", "rays"),
    "cones.irredundant_halfspaces": (),
    "cones.polytope_hypothesis_check": (),
    "model.pick_cone": ("calls",),
    "model.to_ball": (),
    "lattice.build_lattice": ("calls",),
    "criteria.k3_report": (),
    "criteria.genus_one_fibration_test": (),
    "criteria.entropy_report": (),
    "cli.load": (),
    "cli.emit": (),
}


class WrongTree(Exception):
    pass


class ChildFailed(Exception):
    """A job child died instead of printing its record."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HYPERLAT_THREADS"}
    env["HYPERLAT_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["HLBENCH_SITE_DIRS"] = os.pathsep.join(site.getsitepackages())
    return env


def run_child(root: str, argv: list[str], mode: str = "plain") -> dict:
    """Run one job in a fresh interpreter and return its calibrated record."""
    cmd = [sys.executable, "-S", os.path.join(HERE, "child.py"), root, mode, "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode == WRONG_TREE:
        raise WrongTree(proc.stderr.strip())
    if proc.returncode != 0:
        raise ChildFailed(f"job child exited {proc.returncode}: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = rec["kernel_before"] + rec["kernel_during"] + rec["kernel_after"]
    rec["kernel_s"] = statistics.median(runs)
    rec["scale"] = kernel.K0 / rec["kernel_s"]
    rec["job_cal_s"] = rec["job_s"] * rec["scale"]
    rec["import_cal_s"] = rec["import_s"] * rec["scale"]
    rec["wall_s"] = wall
    return rec


def check_tree(root: str) -> None:
    """Refuse to run anywhere but the root of a tree with src/hyperlat."""
    if not os.path.isfile(os.path.join(root, "src", "hyperlat", "cli.py")):
        raise WrongTree(f"{root} has no src/hyperlat/cli.py; run from a hyperlat checkout")


def judge(job: dict, recs: list[dict]) -> tuple[bool, str | None]:
    """(failed, problem) for all runs of one job; problem is None when correct."""
    first = recs[0]
    if any(r["rc"] != first["rc"] or r["report"] != first["report"] for r in recs):
        return first["rc"] != 0, "report bytes or exit code differ between rounds"
    if first["rc"] != 0:
        if job.get("known_failure") and first["rc"] == 2 and "budget error" in first["stderr"]:
            return True, None
        return True, f"exit {first['rc']}: {first['stderr'].strip()}"
    try:
        checks.check(job, json.loads(first["report"]))
    except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return False, None


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def run_rounds(root, jobs, seed, seconds, trace, log):
    """Whole rounds of the job list, each in a fresh order.

    Another round starts while it is expected to end no more than half a
    round past `seconds`, so a run measures `seconds` on average.
    """
    records = {job["name"]: [] for job in jobs}
    traced = {job["name"]: [] for job in jobs}
    start = time.monotonic()
    rounds = 0
    while True:
        order = list(jobs)
        random.Random(seed * 7919 + rounds).shuffle(order)
        for job in order:
            rec = run_child(root, job["argv"])
            rec["round"] = rounds
            records[job["name"]].append(rec)
            if trace:
                trec = run_child(root, job["argv"], "trace")
                trec["round"] = rounds
                traced[job["name"]].append(trec)
        rounds += 1
        elapsed = time.monotonic() - start
        log(f"round {rounds} done at {elapsed:.1f}s")
        if elapsed + elapsed / rounds / 2 > seconds:
            return records, traced, rounds


def end_to_end(jobs, records):
    ok_times, all_time, imports, rss = [], 0.0, [], []
    for job in jobs:
        for rec in records[job["name"]]:
            all_time += rec["job_cal_s"]
            imports.append(rec["import_cal_s"])
            rss.append(rec["maxrss_kb"])
            if rec["rc"] == 0:
                ok_times.append(rec["job_cal_s"])
    return {
        "jobs_per_s": (len(ok_times) / all_time, "1/s"),
        "job_p50_s": (statistics.median(ok_times), "s"),
        "job_tail_s": (tail(ok_times), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "setup_s": (statistics.median(imports), "s"),
    }


def per_layer(jobs, records, traced, rounds):
    totals = {}
    for job in jobs:
        for rec in traced[job["name"]]:
            for name, entry in rec["spans"].items():
                acc = totals.setdefault(name, {})
                for key, value in entry.items():
                    if key.endswith("_s"):
                        value *= rec["scale"]
                    acc[key] = acc.get(key, 0) + value
    out = {}
    for name, counters in LAYER_METRICS.items():
        entry = totals.get(name, {})
        out[f"{name}.self_s"] = (entry.get("self_s", 0.0) / rounds, "s")
        for key in counters:
            out[f"{name}.{key}"] = (entry.get(key, 0) / rounds, "count")
    out["cli.main.s"] = (totals.get("cli.main", {}).get("total_s", 0.0) / rounds, "s")
    plain = sum(r["job_cal_s"] for j in jobs for r in records[j["name"]])
    traced_s = sum(r["job_cal_s"] for j in jobs for r in traced[j["name"]])
    out["trace.overhead_s"] = ((traced_s - plain) / rounds, "s")
    return out


def measure(root, workload, seed, seconds, trace, log):
    indir = os.path.join(OUT, "inputs", f"{workload}-{seed}")
    jobs = workloads.build(root, workload, seed, indir)
    setup_t = time.monotonic()
    run_child(root, jobs[0]["argv"])  # warm the file cache and bytecode; not counted
    log(f"{workload}: {len(jobs)} jobs per round, warm-up {time.monotonic() - setup_t:.1f}s")
    records, traced, rounds = run_rounds(root, jobs, seed, seconds, trace, log)

    correct, failed, attempted = True, 0, 0
    for job in jobs:
        recs = records[job["name"]]
        attempted += len(recs)
        job_failed, problem = judge(job, recs)
        if trace:
            if any(t["report"] != p["report"] or t["rc"] != p["rc"]
                   for t, p in zip(traced[job["name"]], recs)):
                problem = "traced report differs from the plain report"
        if job_failed:
            failed += len(recs)
        if problem:
            correct = False
            log(f"INCORRECT {job['name']}: {problem}")
    metrics = per_layer(jobs, records, traced, rounds) if trace else end_to_end(jobs, records)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    save(root, workload, seed, trace, jobs, records, traced, rounds, result)
    return result


def save(root, workload, seed, trace, jobs, records, traced, rounds, result):
    """Per-job raw and calibrated times beside the metrics, for later study."""
    outdir = os.path.join(root, OUT, "results")
    os.makedirs(outdir, exist_ok=True)
    keep = ("round", "rc", "job_s", "job_cal_s", "import_s", "import_cal_s", "kernel_s",
            "kernel_before", "kernel_during", "kernel_after", "wall_s", "maxrss_kb")

    def slim(recs):
        return [dict({k: r[k] for k in keep},
                     report_sha1=hashlib.sha1(r["report"].encode()).hexdigest(),
                     **({"spans": r["spans"]} if "spans" in r else {}))
                for r in recs]

    doc = {"workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
           "kernel_K0": kernel.K0, "python": sys.version.split()[0],
           "result": result,
           "jobs": {j["name"]: {"argv": j["argv"], "plain": slim(records[j["name"]]),
                                "traced": slim(traced[j["name"]])} for j in jobs}}
    path = os.path.join(outdir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def smoke(root, log):
    """Every workload once, checks only."""
    ok = True
    for workload in workloads.WORKLOADS:
        res = measure(root, workload, 0, 0, 0, log)
        log(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
            f"failed={res['failed']}")
        ok = ok and res["correct"]
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="each workload once, checks only")
    ap.add_argument("--self-test", action="store_true",
                    help="each check must reject a corrupted real report")
    args = ap.parse_args()
    root = os.getcwd()

    def log(msg):
        sys.stderr.write(msg + "\n")
        sys.stderr.flush()

    try:
        check_tree(root)
        if args.self_test:
            import selftest
            return 0 if selftest.run(root, log) else 1
        if args.smoke:
            return 0 if smoke(root, log) else 1
        if not args.workload:
            ap.error("--workload is required")
        result = measure(root, args.workload, args.seed, args.seconds, args.trace, log)
    except WrongTree as exc:
        log(f"refusing to measure: {exc}")
        return 1
    except ChildFailed as exc:
        log(str(exc))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
