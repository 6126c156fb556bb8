"""Equal seeds give byte-identical inputs, in this process and in another
one with a different hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

from crnbench import inputs

BENCH = Path(__file__).resolve().parent.parent

DIGEST = """
import hashlib, json, sys
sys.path.insert(0, {bench!r})
from crnbench import inputs
h = hashlib.sha256()
for w in inputs.WORKLOADS:
    h.update(json.dumps(inputs.head(w, 7, 300), sort_keys=True).encode())
h.update(json.dumps(inputs.cli_files(7), sort_keys=True).encode())
print(h.hexdigest())
"""


def _bytes(workload, seed, n=300) -> bytes:
    return json.dumps(inputs.head(workload, seed, n), sort_keys=True).encode()


def test_same_seed_same_bytes():
    for w in inputs.WORKLOADS:
        assert _bytes(w, 11) == _bytes(w, 11)
        assert _bytes(w, 11) != _bytes(w, 12)
    assert inputs.cli_files(11) == inputs.cli_files(11)


def test_inputs_do_not_depend_on_hash_seed():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", DIGEST.format(bench=str(BENCH))],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_certify_blocks_mix_every_species_count():
    items = inputs.head("certify", 3, 60)
    nets = [it for it in items if it["kind"] == "network"]
    for block in range(0, 48, 4):
        assert sorted(it["species"] for it in nets[block : block + 4]) == [1, 2, 3, 4]
    assert {len(it["patterns"]) for it in nets if it["species"] == 2} == {21}
    assert {len(it["patterns"]) for it in nets if it["species"] > 2} == {inputs.WITNESS_PATTERNS}
    scans = [it["kind"] for it in items if it["kind"] != "network"]
    assert scans[:2] == ["trap", "ring"]
    assert items[0]["kind"] == "trap"


def test_first_region_solve_is_the_large_box():
    regions = [j for j in inputs.head("cli", 5, 80) if j["kind"] == "stationary_region"]
    assert regions[0]["args"] == ["--region", inputs.LARGE_BOX]
    assert all(j["args"][1] != inputs.LARGE_BOX for j in regions[1:])
