"""One benchmark job: a fresh interpreter running one hyperlat subcommand.

    python3 -S hlbench/child.py ROOT MODE -- SUBCOMMAND ARGS...

MODE is `plain` or `trace`.  The child imports `hyperlat.cli` from
ROOT/src (timed: the set-up a CLI user pays), runs the reference kernel,
calls `hyperlat.cli.main` with stdout and stderr captured, runs the kernel
again, and prints one JSON object with the report bytes, the exit code, the
wall times of the import, of the job and of every kernel run, and the
process's peak RSS.  In plain mode the kernel also runs every 50 ms inside
the job, from a SIGALRM handler; those runs are taken out of the job's
time.  Only `sys`, `os` and `time` are imported before hyperlat, so the
import time counts every module hyperlat pulls in.

The child starts with -S, which skips `site` (about 45 ms of .pth
processing on the reference machine, none of it hyperlat's); the site
directories the caller passes in HLBENCH_SITE_DIRS go at the end of
sys.path so the lazy sympy import still works.

Exit code 3 means hyperlat was imported from somewhere other than
ROOT/src; nothing is measured then.
"""

import os
import sys
import time

KERNEL_RUNS = 3
INTERLEAVE_S = 0.05  # wall seconds of job between interleaved kernel runs
WRONG_TREE = 3


def peak_rss_kb(resource) -> int:
    """High-water RSS of this process image.

    VmHWM belongs to the address space made by exec, so unlike ru_maxrss it
    does not include the parent's RSS inherited at fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    root, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace"):
        sys.stderr.write("usage: child.py ROOT plain|trace -- ARGS...\n")
        return 2
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.extend(p for p in os.environ.get("HLBENCH_SITE_DIRS", "").split(os.pathsep) if p)
    t0 = time.perf_counter()
    import hyperlat.cli
    import_s = time.perf_counter() - t0

    expected = os.path.realpath(os.path.join(src, "hyperlat", "__init__.py"))
    origin = getattr(hyperlat, "__file__", None) or "a namespace package"
    if os.path.realpath(origin) != expected:
        sys.stderr.write(f"hyperlat imported from {origin}, not from {expected}\n")
        return WRONG_TREE

    import contextlib
    import io
    import json
    import resource
    import signal
    import traceback

    import kernel

    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    before = kernel.time_kernel(KERNEL_RUNS)
    during = []
    if tracer is None:
        def interleave(signum, frame):
            during.extend(kernel.time_kernel(1))
        signal.signal(signal.SIGALRM, interleave)
        signal.setitimer(signal.ITIMER_REAL, INTERLEAVE_S, INTERLEAVE_S)
    out, err = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = hyperlat.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a failed job, as for the CLI
            traceback.print_exc()
            rc = 1
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    job_s = time.perf_counter() - t1 - sum(during)
    after = kernel.time_kernel(KERNEL_RUNS)

    result = {
        "rc": rc,
        "report": out.getvalue(),
        "stderr": err.getvalue(),
        "import_s": import_s,
        "job_s": job_s,
        "kernel_before": before,
        "kernel_after": after,
        "kernel_during": during,
        "maxrss_kb": peak_rss_kb(resource),
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
