"""Jobs of the three workloads.

A job's ``run`` holds only the timed calls into crnkit, each through the
tracer.  ``check`` and ``count`` run after the timer stops: ``check``
returns the job's problems, ``count`` adds its work to the run's counters.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from collections import Counter
from pathlib import Path
from typing import Iterator, List

from crnkit import cli, errors, generator_applied, parse, simulate, structure, tiers

from . import checks, inputs

#: Items generated during set-up; later items are generated on demand, so a
#: faster program never runs out of input.
PREFILL = {"certify": 256, "replicas": 2048, "cli": 2048}


def _prefilled(stream: Iterator[dict], n: int) -> Iterator[dict]:
    first = list(itertools.islice(stream, n))
    return itertools.chain(first, stream)


# ---------------------------------------------------------------- certify


class NetworkJob:
    kind = "network"

    def __init__(self, item: dict):
        self.item = item
        self.system = None

    def run(self, t):
        self.system = t.call("parser.parse", parse, self.item["text"])
        net = self.system.network
        self.verdict = t.call("structure.theorem_verdict", structure.theorem_verdict, net)
        self.scan = t.call("tiers.hypothesis_check", tiers.hypothesis_check, net)
        self.family = t.call("tiers.scan_patterns", tiers.scan_patterns, net)

    def check(self) -> List[str]:
        return checks.check_network(self.item, self.system, self.verdict, self.scan, self.family)

    def count(self, n: Counter):
        n["parser.calls"] += 1
        n["structure.verdict_calls"] += 1
        n["tiers.scan_labelings"] += self.scan.patterns_enumerated
        n["tiers.scan_checked"] += self.scan.patterns_checked
        n["tiers.family_sequences"] += len(self.family.sequences)


class ScanJob:
    """Scan-only job on a ring (must be clean) or the trap (must be caught)."""

    def __init__(self, item: dict):
        self.item = item
        self.kind = item["kind"]

    def run(self, t):
        self.system = t.call("parser.parse", parse, self.item["text"])
        self.scan = t.call("tiers.hypothesis_check", tiers.hypothesis_check, self.system.network)

    def check(self) -> List[str]:
        if self.kind == "trap":
            return checks.check_trap(self.system.network, self.scan)
        return checks.check_clean_scan(self.item["species"], self.scan)

    def count(self, n: Counter):
        n["parser.calls"] += 1
        n["tiers.scan_labelings"] += self.scan.patterns_enumerated
        n["tiers.scan_checked"] += self.scan.patterns_checked


class WitnessJob:
    """Witness path along one scan pattern of a parsed corpus network, its
    tier verification and path probability limit, and the generator at
    three in-range points."""

    kind = "witness"

    def __init__(self, system, spec: str):
        self.system, self.spec = system, spec

    def run(self, t):
        net = self.system.network
        self.seq = t.call("tiers.parse_sequence_spec", tiers.parse_sequence_spec, self.spec, net.species)
        try:
            self.path = t.call("tiers.witness_path", tiers.witness_path, net, self.seq)
        except errors.NoDropComplexError:
            self.path = None  # one growth tier: nothing can drop, no witness claimed
        if self.path is not None:
            self.report = t.call(
                "tiers.path_tier_membership", tiers.path_tier_membership, net, self.seq, self.path
            )
            self.limit = t.call(
                "tiers.path_probability_limit",
                tiers.path_probability_limit,
                self.system,
                self.seq,
                self.path,
            )
        tail = t.call("tiers.normalized_for", self.seq.normalized_for, net)
        self.generator = [
            t.call("kinetics.generator_applied", generator_applied, self.system, tail.evaluate(n))
            for n in (tail.start, tail.start + 1, 4 * tail.start)
        ]

    def check(self) -> List[str]:
        if self.path is None:
            return checks.check_witness_free(self.generator)
        return checks.check_witness(self.report, self.limit, self.generator)

    def count(self, n: Counter):
        n["tiers.witness_calls"] += 1
        if self.path is None:
            n["tiers.witness_no_drop"] += 1
        else:
            n["tiers.witness_found"] += 1
            n["tiers.witness_steps"] += len(self.path)
        n["kinetics.generator_calls"] += len(self.generator)


class Certify:
    def __init__(self, seed: int, root: Path, workdir: Path):
        self._stream = _prefilled(inputs.certify_stream(seed), PREFILL["certify"])

    def __iter__(self):
        for item in self._stream:
            if item["kind"] != "network":
                yield ScanJob(item)
                continue
            job = NetworkJob(item)
            yield job
            if job.system is not None:
                for spec in item["patterns"]:
                    yield WitnessJob(job.system, spec)


# ---------------------------------------------------------------- replicas


class DriftMcJob:
    kind = "drift_mc"

    def __init__(self, item: dict):
        self.item = item

    def run(self, t):
        it = self.item
        self.system = t.call("parser.parse", parse, it["text"])
        self.mean, self.stderr = t.call(
            "simulate.drift_estimate_mc",
            simulate.drift_estimate_mc,
            self.system,
            it["x"],
            it["k"],
            replicas=it["replicas"],
            seed=it["seed"],
        )

    def check(self) -> List[str]:
        it = self.item
        exact = tiers.exact_kstep_drift(self.system, tuple(it["x"]), it["k"])
        return checks.check_drift_mc(self.mean, self.stderr, exact)

    def count(self, n: Counter):
        n["parser.calls"] += 1
        n["simulate.drift_mc_replicas"] += self.item["replicas"]
        n["simulate.drift_mc_steps"] += self.item["replicas"] * self.item["k"]


class ReturnTimesJob:
    kind = "return_times"

    def __init__(self, item: dict):
        self.item = item

    def run(self, t):
        it = self.item
        self.system = t.call("parser.parse", parse, it["text"])
        target = simulate.lyapunov_sublevel(it["cutoff"])
        self.stats = t.call(
            "simulate.return_times",
            simulate.return_times,
            self.system,
            it["x0"],
            target,
            horizon=it["horizon"],
            replicas=it["replicas"],
            seed=it["seed"],
        )

    def check(self) -> List[str]:
        return checks.check_return_times(self.stats, self.item["replicas"])

    def count(self, n: Counter):
        n["parser.calls"] += 1
        n["simulate.return_times_replicas"] += self.item["replicas"]
        n["simulate.return_times_returned"] += len(self.stats.times)


class Replicas:
    def __init__(self, seed: int, root: Path, workdir: Path):
        self._stream = _prefilled(inputs.replicas_stream(seed), PREFILL["replicas"])

    def __iter__(self):
        kinds = {"drift_mc": DriftMcJob, "return_times": ReturnTimesJob}
        for item in self._stream:
            yield kinds[item["kind"]](item)


# ---------------------------------------------------------------- cli

_SUBCOMMAND = {
    "analyze": "analyze",
    "tiers": "tiers",
    "drift_exact": "drift",
    "drift_along": "drift",
    "drift_mc": "drift",
    "simulate": "simulate",
    "stationary_region": "stationary",
    "stationary_time": "stationary",
}


class CliJob:
    def __init__(self, item: dict, path: str, checker: checks.CliChecker):
        self.item, self.path = item, path
        self.kind = item["kind"]
        self.checker = checker

    def run(self, t):
        argv = [_SUBCOMMAND[self.kind], self.path, *self.item["args"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.code = t.call(f"cli.{self.kind}", cli.main, argv)
        self.text = out.getvalue()

    def check(self) -> List[str]:
        if self.code != self.item["expect"]:
            return [f"exit code {self.code}, expected {self.item['expect']}"]
        try:
            self.report = checks.parse_output(self.kind, self.text)
        except ValueError as e:
            return [f"unreadable output: {e}"]
        return self.checker.check(self.item, self.report)

    def count(self, n: Counter):
        n["cli.calls"] += 1
        n["cli.output_bytes"] += len(self.text.encode("utf-8"))
        for key, value in checks.cli_counters(self.kind, self.report).items():
            n[f"cli.{key}"] += value


def cli_paths(root: Path, workdir: Path, seed: int) -> dict:
    """Write the generated networks and map every file name to its path."""
    paths = {f"demo:{name}": str(root / "demos" / "networks" / f"{name}.crn") for name in inputs.DEMOS}
    workdir.mkdir(parents=True, exist_ok=True)
    for name, spec in inputs.cli_files(seed).items():
        target = workdir / f"{name}.crn"
        target.write_text(spec["text"], encoding="utf-8")
        paths[name] = str(target)
    return paths


class Cli:
    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root = root
        self.paths = cli_paths(root, workdir, seed)
        self._stream = _prefilled(inputs.cli_stream(seed), PREFILL["cli"])
        self.checker = None

    def __iter__(self):
        # loading the schemas is checking work, not set-up: it waits for the first job
        self.checker = checks.CliChecker(self.root / "schemas", self.paths)
        for item in self._stream:
            yield CliJob(item, self.paths[item["file"]], self.checker)


WORKLOADS = {"certify": Certify, "replicas": Replicas, "cli": Cli}
