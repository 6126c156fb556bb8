"""crnkit benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every run starts worker.py in a fresh
interpreter, so crnkit's caches start cold as they do for a command-line
user.  With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer ones; see README.md.  Untraced runs first start the
worker several times in set-up-only mode and report the median set-up time.
The run's conditions and full figures go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from crnbench import metrics  # noqa: E402

#: Set-up-only starts per untraced run; with the measured run's own set-up
#: they give the samples whose median is setup_s.
SETUP_PROBES = 6
#: A worker that has not finished after this many seconds more than the
#: measured time is killed.
WORKER_SLACK_S = 120.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, env, setup_only: bool, limit_s: float):
    """Start worker.py and return (seconds to READY, rest of its output).
    The worker is killed if it outlives ``limit_s``; it has ended when this
    returns."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} before finishing")
    return ready_s, rest


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("certify", "replicas", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "crnkit" / "__init__.py").is_file():
        print(f"error: no crnkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    inherited_threads = env.pop("CRN_THREADS", None)  # the library default
    limit_s = args.seconds + WORKER_SLACK_S
    try:
        setups = []  # (set-up seconds, reference loop seconds right after it)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready_s, output = start_worker(args, env, True, limit_s)
                setups.append((ready_s, json.loads(output)["setup_ref_s"]))
        ready_s, output = start_worker(args, env, False, limit_s)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    run = json.loads(output.strip().splitlines()[-1])
    setups.append((ready_s, run["setup_ref_s"]))

    unscaled = None
    if args.trace:
        values, units = run["per_layer"], metrics.per_layer_units()
    else:
        ref = metrics.REFERENCE_LOOP_S
        values = metrics.end_to_end(run["latencies"], run["ref_s"], setups, run["peak_rss_mib"])
        unscaled = metrics.end_to_end(
            run["latencies"], ref, [(t, ref) for t, _ in setups], run["peak_rss_mib"]
        )
        units = metrics.END_TO_END_UNITS
    conditions = dict(
        run["conditions"],
        CRN_THREADS_inherited=inherited_threads,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        git_sha=git_sha(),
        source_sha256=source_digest(),
        machine_ref_s=run["ref_s"],
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "conditions": conditions,
        "setup_samples_s": setups,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "jobs_by_kind": run["kinds"],
        "job_seconds_by_kind": run["kind_seconds"],
        "job_seconds": run["busy_s"],
        "loop_seconds": run["wall_s"],
        "metrics": values,
        "unscaled_metrics": unscaled,
    }
    outdir = HERE / "_out"
    outdir.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"conditions": conditions, "failures": run["failures"]}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics.with_units(values, units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
