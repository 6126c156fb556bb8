"""Output checks.  They run after a job's timer stops; each returns a list of
problems, empty when the output is right.  A job with any problem counts as
failed."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from crnkit import parse, tiers

from .inputs import BIRTHDEATH_MEAN

POSITIVE_RECURRENT = "PositiveRecurrent"


def scan_labelings(d: int) -> int:
    """Labelings the pattern scan enumerates over ``d`` species: five labels
    per coordinate, minus the 2**d with no growing coordinate."""
    return 5**d - 2**d


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------- certify


def check_network(item: dict, system, verdict, scan, family) -> List[str]:
    """A corpus network: parsed as generated, PositiveRecurrent, and a clean
    exhaustive scan whose checked count matches the deduplicated family."""
    out = []
    net = system.network
    if net.dim != item["species"] or len(net.reactions) != item["reactions"]:
        out.append(
            f"parsed {net.dim} species / {len(net.reactions)} reactions, "
            f"generated {item['species']} / {item['reactions']}"
        )
    if verdict.verdict != POSITIVE_RECURRENT:
        out.append(f"verdict {verdict.verdict} on a theorem network")
    out += check_clean_scan(net.dim, scan)
    if not family.exhaustive or family.enumerated != scan.patterns_enumerated:
        out.append("scan_patterns family is not the exhaustive one the scan used")
    if scan.patterns_checked != len(family.sequences):
        out.append(
            f"scan checked {scan.patterns_checked} patterns, family has "
            f"{len(family.sequences)}"
        )
    return out


def check_clean_scan(d: int, scan) -> List[str]:
    out = []
    if scan.violation_found:
        out.append("pattern scan reports a violation on a theorem network")
    if not scan.exhaustive:
        out.append("pattern scan is not exhaustive")
    if scan.patterns_enumerated != scan_labelings(d):
        out.append(
            f"scan enumerated {scan.patterns_enumerated} labelings, "
            f"expected {scan_labelings(d)}"
        )
    return out


def check_trap(network, scan) -> List[str]:
    """A + B <-> 0: the scan must catch the violation at the empty complex."""
    if not scan.violation_found or scan.violating_complex is None:
        return ["pattern scan missed the A + B <-> 0 trap"]
    if network.complexes[scan.violating_complex].order != 0:
        return ["trap violation reported at a complex other than 0"]
    return []


def check_witness(report, limit: float, generator_values: Sequence[float]) -> List[str]:
    out = []
    if not (report.in_top_intensity and report.in_drop):
        out.append(
            "witness fails tier verification "
            f"(in_top_intensity={report.in_top_intensity}, in_drop={report.in_drop})"
        )
    if not (math.isfinite(limit) and 0.0 < limit <= 1.0):
        out.append(f"path probability limit {limit} outside (0, 1]")
    return out + check_witness_free(generator_values)


def check_witness_free(generator_values: Sequence[float]) -> List[str]:
    """A pattern with one growth tier gets no witness; its generator values
    must still be finite."""
    if not all(math.isfinite(v) for v in generator_values):
        return ["generator value is not finite"]
    return []


# ---------------------------------------------------------------- replicas


def check_drift_mc(mean: float, stderr: float, exact: float) -> List[str]:
    """Within 5 standard errors of the exact drift (plus rounding slack for
    walks where every replica ends at the same V)."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0):
        return [f"MC drift {mean} +- {stderr} is not a finite estimate"]
    if abs(mean - exact) > 5 * stderr + 1e-12 * max(1.0, abs(exact)):
        return [f"MC drift {mean} +- {stderr} is more than 5 SE from exact {exact}"]
    return []


def check_return_times(stats, replicas: int) -> List[str]:
    out = []
    if stats.non_returning:
        out.append(f"{stats.non_returning} replicas did not return")
    times = list(stats.times)
    if len(times) != replicas - stats.non_returning or stats.replicas != replicas:
        out.append(f"{len(times)} return times for {replicas} replicas")
    if not all(math.isfinite(t) and t > 0 for t in times):
        out.append("return time not positive and finite")
    return out


# ---------------------------------------------------------------- cli


class Schemas:
    """Validators for the report schemas in the repository's schemas/."""

    def __init__(self, directory: Path):
        import jsonschema
        import referencing
        from referencing.jsonschema import DRAFT7

        registry = referencing.Registry()
        docs = {}
        for path in sorted(directory.glob("*.schema.json")):
            contents = json.loads(path.read_text(encoding="utf-8"))
            docs[path.name[: -len(".schema.json")]] = contents
            registry = registry.with_resource(
                contents["$id"],
                referencing.Resource.from_contents(contents, default_specification=DRAFT7),
            )
        self._validators = {
            name: jsonschema.Draft7Validator(doc, registry=registry)
            for name, doc in docs.items()
        }

    def errors(self, name: str, payload) -> List[str]:
        return [
            f"{name} schema: {e.message}" for e in self._validators[name].iter_errors(payload)
        ]


def poisson_truncated(mean: float, n_max: int) -> List[float]:
    weights = [math.exp(-mean + i * math.log(mean) - math.lgamma(i + 1)) for i in range(n_max + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _box_states(box: str) -> int:
    out = 1
    for part in box.split(","):
        lo, hi = part.split("..")
        out *= int(hi) - int(lo) + 1
    return out


def parse_output(kind: str, text: str):
    """The report as data: a dict for JSON reports, rows for CSV output."""
    if kind in ("simulate", "drift_along"):
        return list(csv.reader(io.StringIO(text)))
    return json.loads(text)


class CliChecker:
    """Checks the report of one CLI call that exited as expected.  Exact
    values are recomputed with the library on the same file."""

    def __init__(self, schema_dir: Path, paths: Dict[str, str]):
        self.schemas = Schemas(schema_dir)
        self.paths = paths
        self._systems: Dict[str, object] = {}

    def check(self, job: dict, report) -> List[str]:
        return getattr(self, "_" + job["kind"])(job, report)

    def _system(self, name: str):
        if name not in self._systems:
            text = Path(self.paths[name]).read_text(encoding="utf-8")
            self._systems[name] = parse(text)
        return self._systems[name]

    def _opt(self, job: dict, flag: str) -> Optional[str]:
        args = job["args"]
        return args[args.index(flag) + 1] if flag in args else None

    def _analyze(self, job, report):
        out = self.schemas.errors("analyze", report)
        if out:
            return out
        positive = report["verdict"]["verdict"] == POSITIVE_RECURRENT
        if positive != (job["expect"] == 0):
            out.append("exit code and verdict disagree")
        scan = report.get("hypothesis_scan")
        if scan is None or not scan["exhaustive"]:
            out.append("hypothesis scan missing or not exhaustive")
        elif positive and scan["violation_found"]:
            out.append("violation found on a PositiveRecurrent network")
        if report.get("reachability", {}).get("n_states", 0) < 1:
            out.append("reachability report missing")
        return out

    def _tiers(self, job, report):
        out = self.schemas.errors("tiers", report)
        if out:
            return out
        path = report["path"]
        if path["origin"] != "witness" or not (path["in_top_intensity"] and path["in_drop"]):
            out.append("witness path fails tier verification")
        limit = path["probability_limit"]
        if not (0.0 < limit <= 1.0):
            out.append(f"probability limit {limit} outside (0, 1]")
        return out

    def _drift_exact(self, job, report):
        out = self.schemas.errors("drift", report)
        if out:
            return out
        drift = report["drift"]
        x = tuple(int(v) for v in self._opt(job, "--x").split(","))
        k = int(self._opt(job, "--k"))
        want = tiers.exact_kstep_drift(self._system(job["file"]), x, k)
        if drift["method"] != "exact" or not _close(drift["value"], want, 1e-12):
            out.append(f"exact drift {drift['value']} != library {want}")
        return out

    def _drift_along(self, job, rows):
        k = int(self._opt(job, "--k"))
        spec, _, tail = self._opt(job, "--along").partition(":")
        ns = [int(v) for v in tail.split(",")]
        if not rows or rows[0] != ["n", "drift"] or [int(r[0]) for r in rows[1:]] != ns:
            return ["drift --along CSV does not list the requested n"]
        system = self._system(job["file"])
        net = system.network
        seq = tiers.parse_sequence_spec(spec, net.species).normalized_for(net)
        out = []
        for n, (_, value) in zip(ns, rows[1:]):
            want = tiers.exact_kstep_drift(system, seq.evaluate(max(n, seq.start)), k)
            if not _close(float(value), want, 1e-12):
                out.append(f"drift along n={n}: {value} != library {want}")
        return out

    def _drift_mc(self, job, report):
        out = self.schemas.errors("drift", report)
        if out:
            return out
        drift = report["drift"]
        if (
            drift["method"] != "mc"
            or drift["replicas"] != int(self._opt(job, "--mc"))
            or drift["seed"] != int(self._opt(job, "--seed"))
            or not math.isfinite(drift["value"])
        ):
            out.append("MC drift report does not match the request")
        return out

    def _simulate(self, job, rows):
        import numpy as np

        system = self._system(job["file"])
        net = system.network
        if not rows or rows[0] != ["t", *net.species]:
            return ["simulate CSV header is wrong"]
        x0 = [int(v) for v in self._opt(job, "--x0").split(",")]
        jumps = int(self._opt(job, "--jumps"))
        table = np.array(rows[1:], dtype=np.float64).reshape(len(rows) - 1, net.dim + 1)
        times, states = table[:, 0], table[:, 1:].astype(np.int64)
        if not len(times) or times[0] != 0.0 or states[0].tolist() != x0:
            return ["trajectory does not start at x0 at t = 0"]
        if not np.all(np.diff(times) > 0):
            return ["jump times do not increase"]
        live = [k > 0 for k in system.rate_constants]
        sources = np.array([r.source.coeffs for r in net.reactions]).reshape(-1, net.dim)[live]
        changes = np.array([r.change for r in net.reactions]).reshape(-1, net.dim)[live]
        prev, step = states[:-1, None, :], np.diff(states, axis=0)[:, None, :]
        fired = np.all(step == changes, axis=2) & np.all(prev >= sources, axis=2)
        bad = np.flatnonzero(~fired.any(axis=1))
        if len(bad):
            i = int(bad[0])
            return [f"step {states[i].tolist()} -> {states[i + 1].tolist()} is not a positive-rate reaction"]
        absorbed = not np.all(states[-1] >= sources, axis=1).any()
        if len(times) != jumps + 1 and not absorbed:
            return [f"{len(times) - 1} jumps of {jumps} before a non-absorbing state"]
        return []

    def _stationary_region(self, job, report):
        out = self.schemas.errors("stationary", report)
        if out:
            return out
        box = self._opt(job, "--region")
        dist = report["stationary"]["distribution"]
        if report["stationary"]["method"] != "truncated_solve" or len(dist) != _box_states(box):
            return ["region solve does not cover the box"]
        if not _close(sum(e["probability"] for e in dist), 1.0, 1e-9):
            out.append("region solve probabilities do not sum to 1")
        if job["file"] == "demo:birthdeath":
            ref = poisson_truncated(BIRTHDEATH_MEAN, len(dist) - 1)
            got = {e["state"][0]: e["probability"] for e in dist}
            err = max(abs(got.get(i, -1.0) - p) for i, p in enumerate(ref))
            if err >= 1e-8:
                out.append(f"birth-death solve is {err} from Poisson")
        return out

    def _stationary_time(self, job, report):
        out = self.schemas.errors("stationary", report)
        if out:
            return out
        st = report["stationary"]
        if st["method"] != "time_average" or not _close(
            sum(e["probability"] for e in st["distribution"]), 1.0, 1e-9
        ):
            out.append("time average is not a probability vector")
        return out


def cli_counters(kind: str, report) -> Dict[str, int]:
    """Work counts read from one checked CLI report."""
    if kind == "simulate":
        return {"simulate_jumps": len(report) - 2}
    if kind == "stationary_region":
        return {"stationary_region_states": len(report["stationary"]["distribution"])}
    if kind == "analyze":
        return {
            "analyze_reach_states": report["reachability"]["n_states"],
            "analyze_labelings": report["hypothesis_scan"]["patterns_enumerated"],
        }
    return {}
