"""One benchmark run in a fresh interpreter (started by run.py).

Imports crnkit from the checkout's src/, generates the workload's inputs,
prints READY, then (unless --setup-only) runs jobs in a closed loop, one
at a time, until the jobs have taken --seconds in total.  The last line of
its output is one JSON object with the run's figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Seconds of job time between two timings of the reference loop.
REF_EVERY_S = 1.0
#: Failures kept in the run record.
KEEP_FAILURES = 20


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop: the next job starts when the previous one and its
    checks have finished.  Only ``job.run`` is timed."""
    from crnbench.tracing import reference_loop

    latencies, refs, failures = [], [], []
    counts, kinds, kind_seconds = Counter(), Counter(), Counter()
    busy, next_ref = 0.0, 0.0
    jobs = iter(workload)
    failed = 0
    start = time.perf_counter()
    for job_id in itertools.count():
        if job_id and busy >= seconds:  # at least one job, however short the run
            break
        if busy >= next_ref:
            refs.append(reference_loop())
            next_ref = busy + REF_EVERY_S
        job = next(jobs)
        tracer.job = job_id
        error = None
        t0 = time.perf_counter()
        try:
            job.run(tracer)
        except Exception as e:  # a failing job is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        tracer.job_span(job.kind, t0, t1)
        latencies.append(t1 - t0)
        busy += t1 - t0
        kinds[job.kind] += 1
        kind_seconds[job.kind] += t1 - t0
        if error is None:
            try:
                problems = job.check()
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
        else:
            problems = [error]
        if problems:
            failed += 1
            if len(failures) < KEEP_FAILURES:
                failures.append({"job": job_id, "kind": job.kind, "problems": problems})
        else:
            job.count(counts)
    return {
        "latencies": latencies,
        "busy_s": busy,
        "wall_s": time.perf_counter() - start,
        "failed": failed,
        "failures": failures,
        "kinds": dict(kinds),
        "kind_seconds": dict(kind_seconds),
        "counts": dict(counts),
        "ref_s": statistics.median(refs),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("certify", "replicas", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        from crnbench import metrics, tracing, workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        print("READY", flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        setup_ref_s = statistics.median(tracing.reference_loop() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_ref_s": setup_ref_s}), flush=True)
            return 0

        import crnkit
        import numpy
        import scipy

        tracer = tracing.Tracer(bool(args.trace))
        run = measure(workload, args.seconds, tracer)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {
            "attempted": len(run["latencies"]),
            "failed": run["failed"],
            "failures": run["failures"],
            "kinds": run["kinds"],
            "kind_seconds": run["kind_seconds"],
            "counts": run["counts"],
            "busy_s": run["busy_s"],
            "wall_s": run["wall_s"],
            "peak_rss_mib": rss_mib,
            "ref_s": run["ref_s"],
            "setup_ref_s": setup_ref_s,
            "conditions": {
                "crnkit": crnkit.__version__,
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas_threads": blas_threads(),
                "CRN_THREADS": os.environ.get("CRN_THREADS"),
            },
            "latencies": run["latencies"],
        }
        if args.trace:
            overhead = tracing.span_cost() * len(tracer.spans) / run["busy_s"]
            out["per_layer"] = metrics.per_layer(
                tracer.seconds_by_name(),
                run["counts"],
                run["ref_s"],
                overhead,
            )
            out["spans"] = len(tracer.spans)
            outdir = HERE / "_out"
            outdir.mkdir(exist_ok=True)
            tracer.write(outdir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
