"""Metric names, units and how each is computed from one run.

End-to-end metrics come from untraced runs; per-layer metrics from traced
runs, out of the spans (seconds inside each public call) and the work
counters the jobs add up.  Every workload reports every per-layer metric; a
layer the workload does not call reads 0.

End-to-end times are given at a reference machine speed: a measured time t
is reported as t * REFERENCE_LOOP_S / ref_s, where ref_s is the median time
of the fixed loop in ``tracing.reference_loop`` timed in the same process.
The host speed can change by a factor of two within minutes; scaled this
way, runs of the same code agree to about a tenth.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Tuple

from .inputs import CLI_KINDS

END_TO_END: List[Tuple[str, str, str]] = [
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

#: Per-layer time (unit s) -> the span name whose durations it sums.
_SPAN_SECONDS = {
    "tiers.witness_s": "tiers.witness_path",
    "tiers.membership_s": "tiers.path_tier_membership",
    "tiers.limit_s": "tiers.path_probability_limit",
    "tiers.scan_s": "tiers.hypothesis_check",
    "tiers.family_s": "tiers.scan_patterns",
    "kinetics.generator_s": "kinetics.generator_applied",
    "parser.parse_s": "parser.parse",
    "structure.verdict_s": "structure.theorem_verdict",
    "simulate.return_times_s": "simulate.return_times",
    "simulate.drift_mc_s": "simulate.drift_estimate_mc",
    **{f"cli.{k}_s": f"cli.{k}" for k in CLI_KINDS},
}

_COUNTS = (
    "tiers.witness_calls",
    "tiers.witness_found",
    "tiers.witness_no_drop",
    "tiers.witness_steps",
    "tiers.scan_labelings",
    "tiers.scan_checked",
    "tiers.family_sequences",
    "kinetics.generator_calls",
    "parser.calls",
    "structure.verdict_calls",
    "simulate.return_times_replicas",
    "simulate.drift_mc_replicas",
    "simulate.drift_mc_steps",
    "cli.calls",
    "cli.output_bytes",
    "cli.simulate_jumps",
    "cli.stationary_region_states",
    "cli.analyze_reach_states",
    "cli.analyze_labelings",
)

#: Derived metric -> (unit, numerator, denominator); 0 when the denominator is.
_RATIOS = {
    "tiers.witness_found_ratio": ("ratio", "tiers.witness_found", "tiers.witness_calls"),
    "tiers.witness_per_s": ("1/s", "tiers.witness_calls", "tiers.witness_s"),
    "tiers.scan_useful_ratio": ("ratio", "tiers.scan_checked", "tiers.scan_labelings"),
    "tiers.scan_labelings_per_s": ("1/s", "tiers.scan_labelings", "tiers.scan_s"),
    "kinetics.generator_calls_per_s": ("1/s", "kinetics.generator_calls", "kinetics.generator_s"),
    "simulate.return_times_returned_ratio": (
        "ratio",
        "simulate.return_times_returned",
        "simulate.return_times_replicas",
    ),
    "simulate.return_times_replicas_per_s": (
        "1/s",
        "simulate.return_times_replicas",
        "simulate.return_times_s",
    ),
    "simulate.drift_mc_steps_per_s": ("1/s", "simulate.drift_mc_steps", "simulate.drift_mc_s"),
    "cli.simulate_jumps_per_s": ("1/s", "cli.simulate_jumps", "cli.simulate_s"),
    "cli.stationary_region_states_per_s": (
        "1/s",
        "cli.stationary_region_states",
        "cli.stationary_region_s",
    ),
}

_DIAGNOSTICS = (("machine.ref_s", "s"), ("trace.overhead_frac", "ratio"))


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in _SPAN_SECONDS}
    units.update({name: "count" for name in _COUNTS})
    units.update({name: spec[0] for name, spec in _RATIOS.items()})
    units.update(dict(_DIAGNOSTICS))
    return units


#: Seconds the reference loop takes on the reference machine.
REFERENCE_LOOP_S = 0.02


def end_to_end(
    latencies: List[float],
    ref_s: float,
    setups: List[Tuple[float, float]],
    peak_rss_mib: float,
) -> Dict[str, float]:
    """Job figures from the job latencies and the run's loop time ``ref_s``;
    ``setups`` pairs each set-up time with the loop time measured right
    after it.  Pass REFERENCE_LOOP_S as every loop time for the raw figures."""
    scale = REFERENCE_LOOP_S / ref_s
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10)[8]
    else:
        p90 = latencies[0]
    return {
        "jobs_per_s": len(latencies) / (sum(latencies) * scale),
        "job_p50_s": statistics.median(latencies) * scale,
        "job_p90_s": p90 * scale,
        "setup_s": statistics.median(t * REFERENCE_LOOP_S / ref for t, ref in setups),
        "peak_rss_mib": peak_rss_mib,
    }


def per_layer(
    span_seconds: Mapping[str, float],
    counts: Mapping[str, int],
    ref_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    values: Dict[str, float] = {
        name: span_seconds.get(span, 0.0) for name, span in _SPAN_SECONDS.items()
    }
    values.update({name: counts.get(name, 0) for name in _COUNTS})
    base = dict(counts)
    base.update(values)
    for name, (_, num, den) in _RATIOS.items():
        values[name] = base.get(num, 0) / base[den] if base.get(den) else 0.0
    values["machine.ref_s"] = ref_s
    values["trace.overhead_frac"] = overhead_frac
    return values


def with_units(values: Mapping[str, float], units: Mapping[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}
