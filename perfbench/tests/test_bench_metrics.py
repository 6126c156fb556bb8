"""The printed metrics are exactly the ones BENCHMARK.json declares, with
the declared units, and the result line follows the run contract."""

import json
import shutil
import subprocess
import sys

import pytest

from crnbench import metrics

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_metric_tables_match_benchmark_json():
    assert metrics.END_TO_END_UNITS == _declared("end_to_end")
    assert metrics.per_layer_units() == _declared("per_layer")


def test_builders_cover_every_declared_metric():
    e2e = metrics.end_to_end([0.1, 0.2, 0.3], 0.02, [(1.0, 0.02)], 50.0)
    assert set(e2e) == set(_declared("end_to_end"))
    layer = metrics.per_layer({}, {}, 0.01, 0.0)
    assert set(layer) == set(_declared("per_layer"))


def test_times_are_scaled_to_the_reference_speed():
    ref = metrics.REFERENCE_LOOP_S
    at_ref = metrics.end_to_end([0.1, 0.2, 0.3], ref, [(1.0, ref)], 50.0)
    slow = metrics.end_to_end([0.2, 0.4, 0.6], 2 * ref, [(2.0, 2 * ref)], 50.0)
    assert slow == pytest.approx(at_ref)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, key):
    done = _run("replicas", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared(key)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    done = _run("cli", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
