"""Every check passes on the program's real output and rejects a corrupted
copy of it."""

import dataclasses
import json
import math
from collections import Counter

import pytest
from crnkit import tiers

from crnbench import checks, inputs, workloads
from crnbench.tracing import Tracer

from conftest import ROOT


def _run(job):
    job.run(Tracer(False))
    return job


def _first(items, **match):
    return next(it for it in items if all(it[k] == v for k, v in match.items()))


# ---------------------------------------------------------------- certify


@pytest.fixture(scope="module")
def network_job():
    item = _first(inputs.head("certify", 1, 10), kind="network", species=2)
    return _run(workloads.NetworkJob(item))


def test_network_check(network_job):
    job = network_job
    assert job.check() == []
    assert checks.check_network(
        job.item, job.system, dataclasses.replace(job.verdict, verdict="Inconclusive"), job.scan, job.family
    )
    for corrupt in ({"violation_found": True}, {"exhaustive": False}, {"patterns_enumerated": 1}):
        scan = dataclasses.replace(job.scan, **corrupt)
        assert checks.check_network(job.item, job.system, job.verdict, scan, job.family)
    short = dataclasses.replace(job.family, sequences=job.family.sequences[1:])
    assert checks.check_network(job.item, job.system, job.verdict, job.scan, short)
    assert checks.check_network(dict(job.item, reactions=99), job.system, job.verdict, job.scan, job.family)


def test_trap_and_ring_checks(network_job):
    trap = _run(workloads.ScanJob({"kind": "trap", "species": 2, "text": inputs.TRAP_TEXT}))
    assert trap.check() == []
    assert checks.check_trap(trap.system.network, network_job.scan)
    trap_scan = dataclasses.replace(trap.scan, violating_complex=1 - trap.scan.violating_complex)
    assert checks.check_trap(trap.system.network, trap_scan)
    assert checks.check_clean_scan(2, trap.scan)
    ring = _run(workloads.ScanJob({"kind": "ring", "species": 3, "text": inputs.ring_text(3)}))
    assert ring.check() == []
    assert checks.check_clean_scan(4, ring.scan)


def test_witness_check(network_job):
    job = next(
        j
        for j in (
            _run(workloads.WitnessJob(network_job.system, spec))
            for spec in network_job.item["patterns"]
        )
        if j.path is not None
    )
    assert job.check() == []
    for corrupt in ({"in_drop": False}, {"in_top_intensity": False}):
        assert checks.check_witness(dataclasses.replace(job.report, **corrupt), job.limit, job.generator)
    for limit in (0.0, 1.5, math.nan):
        assert checks.check_witness(job.report, limit, job.generator)
    assert checks.check_witness(job.report, job.limit, [math.inf])
    assert checks.check_witness_free([math.nan])


# ---------------------------------------------------------------- replicas


def test_drift_mc_check():
    item = _first(inputs.head("replicas", 1, 10), kind="drift_mc")
    job = _run(workloads.DriftMcJob(item))
    assert job.check() == []
    exact = tiers.exact_kstep_drift(job.system, tuple(item["x"]), item["k"])
    assert checks.check_drift_mc(exact + 6 * job.stderr, job.stderr, exact)
    assert checks.check_drift_mc(math.nan, job.stderr, exact)
    assert checks.check_drift_mc(exact, 0.0, exact) == []


def test_return_times_check():
    item = _first(inputs.head("replicas", 1, 10), kind="return_times")
    job = _run(workloads.ReturnTimesJob(item))
    assert job.check() == []
    stats = job.stats
    lost = dataclasses.replace(stats, times=stats.times[1:], non_returning=1)
    assert checks.check_return_times(lost, item["replicas"])
    negative = dataclasses.replace(stats, times=-stats.times)
    assert checks.check_return_times(negative, item["replicas"])


# ---------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def cli_jobs(tmp_path_factory):
    cli = workloads.Cli(2, ROOT, tmp_path_factory.mktemp("cli"))
    jobs = {}
    for job in cli:
        if job.kind in jobs or job.item["args"][-1] == inputs.LARGE_BOX:
            continue
        _run(job)
        if job.kind != "simulate" or job.text.count("\n") > 10:  # not absorbed at once
            jobs[job.kind] = job
        if len(jobs) == len(inputs.CLI_KINDS):
            break
    # the Poisson check needs a birth-death region solve
    box = {"kind": "stationary_region", "expect": 0, "file": "demo:birthdeath", "args": ["--region", "0..40"]}
    jobs["birthdeath"] = _run(workloads.CliJob(box, cli.paths["demo:birthdeath"], cli.checker))
    return jobs


def _recheck(job, text=None, code=None):
    """Check ``job`` again with its output or exit code replaced."""
    copy = workloads.CliJob(job.item, job.path, job.checker)
    copy.text = job.text if text is None else text
    copy.code = job.code if code is None else code
    return copy.check()


def test_cli_outputs_pass(cli_jobs):
    for kind, job in cli_jobs.items():
        assert job.check() == [], kind
        job.count(Counter())


def test_cli_exit_code_and_schema_checks(cli_jobs):
    job = cli_jobs["analyze"]
    assert _recheck(job, code=1)
    report = json.loads(job.text)
    del report["verdict"]
    assert _recheck(job, text=json.dumps(report))
    report = json.loads(cli_jobs["stationary_time"].text)
    report["stationary"]["distribution"][0]["probability"] = 1.5
    assert _recheck(cli_jobs["stationary_time"], text=json.dumps(report))


def test_cli_exact_drift_checks(cli_jobs):
    job = cli_jobs["drift_exact"]
    report = json.loads(job.text)
    report["drift"]["value"] += 1e-9 * max(1.0, abs(report["drift"]["value"]))
    assert _recheck(job, text=json.dumps(report))
    job = cli_jobs["drift_along"]
    lines = job.text.splitlines()
    n, value = lines[-1].split(",")
    lines[-1] = f"{n},{float(value) + 1e-6!r}"
    assert _recheck(job, text="\n".join(lines) + "\n")


def test_cli_poisson_check(cli_jobs):
    job = cli_jobs["birthdeath"]
    report = json.loads(job.text)
    dist = report["stationary"]["distribution"]
    dist[0]["probability"] -= 1e-7
    dist[1]["probability"] += 1e-7
    assert _recheck(job, text=json.dumps(report))


def test_cli_simulate_step_check(cli_jobs):
    job = cli_jobs["simulate"]
    lines = job.text.splitlines()
    assert _recheck(job, text="\n".join(lines[:3]) + "\n")  # stops early, not absorbed
    t, *state = lines[2].split(",")
    state[0] = str(int(state[0]) + 5)
    lines[2] = ",".join([t, *state])
    assert _recheck(job, text="\n".join(lines) + "\n")
