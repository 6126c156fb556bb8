"""End-to-end command-line tests: exit codes, schema-valid JSON, CSV shape,
and determinism of every command for a fixed seed."""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import referencing
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing.jsonschema import DRAFT7

import crnkit
from crnkit import cli, parse, simulate
from crnkit.cli import main
from crnkit.kinetics import lyapunov_difference, total_rate
from crnkit.network import STATE_COORD_MAX
from crnkit.simulate import StationaryEstimate, ssa_simulate
from crnkit.tiers import exact_kstep_drift, parse_sequence_spec
from oracles import csv_by_writer, stationary_by_dicts

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"
NETWORKS = REPO / "demos" / "networks"

CYCLE = str(NETWORKS / "cycle.crn")
LOOP = str(NETWORKS / "loop.crn")
THREECLASS = str(NETWORKS / "threeclass.crn")
BIRTHDEATH = str(NETWORKS / "birthdeath.crn")
ISOMERS = str(NETWORKS / "isomers.crn")


def _registry():
    registry = referencing.Registry()
    for path in SCHEMAS.glob("*.schema.json"):
        contents = json.loads(path.read_text())
        resource = referencing.Resource.from_contents(
            contents, default_specification=DRAFT7
        )
        registry = registry.with_resource(contents["$id"], resource)
    return registry


REGISTRY = _registry()


def validate(payload: dict, schema_name: str):
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.Draft7Validator(schema, registry=REGISTRY).validate(payload)


def run_json(capsys, argv, schema, expect=0):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect
    payload = json.loads(out)
    validate(payload, schema)
    return payload


# ---------------------------------------------------------------------------
# analyze


def test_analyze_positive_recurrent_network_exits_zero(capsys):
    payload = run_json(capsys, ["analyze", CYCLE], "analyze", expect=0)
    assert payload["verdict"]["verdict"] == "PositiveRecurrent"
    assert payload["verdict"]["witnesses"] == {"A": "A", "B": "2B", "C": "C"}
    assert payload["linkage_classes"]["strongly_connected"] == [True]


def test_analyze_inconclusive_network_exits_two(capsys):
    payload = run_json(capsys, ["analyze", THREECLASS], "analyze", expect=2)
    verdict = payload["verdict"]
    assert verdict["verdict"] == "Inconclusive"
    assert len(payload["linkage_classes"]["classes"]) == 3
    assert payload["linkage_classes"]["strongly_connected"].count(True) == 1
    assert verdict["reasons"]


def test_analyze_reports_parse_errors_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.crn"
    bad.write_text("species: A\nA -> ; k=1\n")
    code = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 2" in captured.err


def test_analyze_missing_file_exits_one(capsys):
    assert main(["analyze", "no-such-file.crn"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_hypothesis_scan_clean_network(capsys):
    payload = run_json(
        capsys, ["analyze", CYCLE, "--hypothesis-scan"], "analyze", expect=0
    )
    scan = payload["hypothesis_scan"]
    assert scan["violation_found"] is False
    assert scan["exhaustive"] is True
    assert scan["patterns_checked"] > 0


def test_analyze_hypothesis_scan_finding_a_violation(capsys, tmp_path):
    f = tmp_path / "ann.crn"
    f.write_text("species: A, B\nA + B <-> 0 ; k=1.0, 1.0\n")
    payload = run_json(capsys, ["analyze", str(f), "--hypothesis-scan"], "analyze", expect=2)
    scan = payload["hypothesis_scan"]
    assert scan["violation_found"] is True
    assert scan["violating_complex"] == "0"
    assert scan["violating_sequence"] is not None


def test_analyze_reachability_report(capsys):
    payload = run_json(
        capsys,
        ["analyze", ISOMERS, "--reach-from", "2,0", "--reach-cap", "100"],
        "analyze",
        expect=0,
    )
    reach = payload["reachability"]
    assert reach["start"] == [2, 0]
    assert reach["n_states"] == 3
    assert reach["truncated"] is False


def test_analyze_output_is_deterministic(capsys):
    main(["analyze", CYCLE])
    first = capsys.readouterr().out
    main(["analyze", CYCLE])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# tiers


def test_tiers_report_partitions_and_witness(capsys):
    payload = run_json(
        capsys, ["tiers", CYCLE, "--seq", "A=n, B=1, C=0"], "tiers", expect=0
    )
    d_top = payload["d_partition"]["tiers"][0]
    s_top = payload["s_partition"]["tiers"][0]
    assert d_top["complexes"] == ["A", "A + B", "A + C"]
    assert d_top["degree"] == "1"
    assert s_top["complexes"] == ["A", "A + B"]
    assert payload["s_partition"]["infinite"] == ["2B", "A + C", "C"]
    path = payload["path"]
    assert path["origin"] == "witness"
    assert len(path["reactions"]) == 5
    assert path["in_top_intensity"] and path["in_drop"]
    assert path["probability_limit"] == pytest.approx(1 / 54)


def test_tiers_explicit_path_membership(capsys):
    payload = run_json(
        capsys,
        ["tiers", CYCLE, "--seq", "A=n,B=1,C=0", "--path", "A->A+B"],
        "tiers",
        expect=0,
    )
    path = payload["path"]
    assert path["origin"] == "flag"
    assert path["in_top_intensity"] is True
    assert path["in_drop"] is False
    assert path["first_drop_index"] is None


def test_tiers_limit_controls_witness_length(capsys):
    payload = run_json(
        capsys,
        ["tiers", CYCLE, "--seq", "A=n,B=1,C=0", "--limit", "7"],
        "tiers",
        expect=0,
    )
    assert len(payload["path"]["reactions"]) == 7


def test_tiers_rejects_sequence_without_growth(capsys):
    code = main(["tiers", CYCLE, "--seq", "A=1, B=1, C=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "grow" in captured.err.lower()


def test_tiers_rejects_non_finite_growth_coefficient(capsys):
    code = main(["tiers", CYCLE, "--seq", "A=1e999*n, B=1, C=0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "finite" in captured.err


def test_tiers_rejects_a_zero_denominator_power(capsys):
    code = main(["tiers", CYCLE, "--seq", "A=n^1/0, B=1, C=0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: sequence expression 'n^1/0' divides its power by zero\n"


def test_tiers_overflowing_leading_coefficient_exits_one(capsys):
    # the witness path's probability limit squares 1e300 in float arithmetic
    code = main(["tiers", LOOP, "--seq", "A=1, B=1, C=1e300*n"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "leading coefficient of the witness limit overflows a float" in captured.err
    assert "growth coefficient 1e+300 to the power 2" in captured.err


def test_tiers_renders_a_fractional_power(capsys):
    payload = run_json(capsys, ["tiers", CYCLE, "--seq", "A=2*n^3/2, B=1, C=0"], "tiers")
    assert payload["sequence"]["spec"] == "A=2*n^3/2, B=1, C=0"


def test_tiers_rejects_unknown_path_reaction(capsys):
    code = main(["tiers", CYCLE, "--seq", "A=n,B=1,C=0", "--path", "C->A"])
    captured = capsys.readouterr()
    assert code == 1
    assert "does not name a reaction" in captured.err


# ---------------------------------------------------------------------------
# drift


def test_drift_exact_single_state(capsys):
    payload = run_json(capsys, ["drift", CYCLE, "--x", "3,1,0", "--k", "1"], "drift")
    assert payload["drift"]["method"] == "exact"
    assert payload["drift"]["value"] == pytest.approx(0.19314718055994531)


def test_drift_zero_steps_is_zero(capsys):
    payload = run_json(capsys, ["drift", CYCLE, "--x", "3,1,0", "--k", "0"], "drift")
    assert payload["drift"]["value"] == 0.0


def test_drift_mc_reports_error_bar(capsys):
    payload = run_json(
        capsys,
        ["drift", BIRTHDEATH, "--x", "5", "--k", "1", "--mc", "4000", "--seed", "3"],
        "drift",
    )
    drift = payload["drift"]
    assert drift["method"] == "mc"
    assert drift["replicas"] == 4000
    assert drift["stderr"] > 0
    assert abs(drift["value"] - (-0.5861893768753227)) < 4 * drift["stderr"]


def test_drift_mc_negative_seed_exits_1(capsys):
    code = main(["drift", BIRTHDEATH, "--x", "5", "--k", "2", "--mc", "10", "--seed", "-1"])
    assert code == 1
    assert "non-negative" in capsys.readouterr().err


def test_drift_mc_zero_steps_negative_seed_exits_1(capsys):
    code = main(["drift", BIRTHDEATH, "--x", "5", "--k", "0", "--mc", "10", "--seed", "-1"])
    assert code == 1
    assert "non-negative" in capsys.readouterr().err


def test_negative_seed_names_its_flag(capsys):
    for argv in (
        ["simulate", BIRTHDEATH, "--x0", "1", "--jumps", "3"],
        ["drift", BIRTHDEATH, "--x", "5", "--k", "2", "--mc", "10"],
        ["stationary", BIRTHDEATH, "--x0", "1", "--t-max", "5"],
    ):
        assert main([*argv, "--seed", "-1"]) == 1, argv[0]
        err = capsys.readouterr().err
        assert "argument --seed: expected non-negative integer, got -1" in err, argv[0]
        assert main([*argv, "--seed", "abc"]) == 1, argv[0]
        err = capsys.readouterr().err
        assert "argument --seed: invalid int value: 'abc'" in err, argv[0]


def test_drift_along_emits_decreasing_csv(capsys):
    code = main(
        ["drift", CYCLE, "--k", "5", "--along", "A=n,B=1,C=0:10,100,1000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,drift"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    assert values[0] > values[1] > values[2]
    assert values[-1] < 0


def test_drift_budget_violation_reports_bound(capsys):
    # the cycle from (3,1,0) collects 1001 (state, level) pairs in 12 steps
    code = main(
        ["drift", CYCLE, "--x", "3,1,0", "--k", "12", "--budget", "1000"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err.lower()
    assert "1001 (state, level) pairs" in captured.err
    assert "budget of 1000" in captured.err
    assert "1000.0" not in captured.err


def test_drift_long_horizon_on_one_reaction(capsys, tmp_path):
    crn = tmp_path / "autocatalysis.crn"
    crn.write_text("S -> 2S ; k=1\n")
    payload = run_json(capsys, ["drift", str(crn), "--x", "1", "--k", "5000"], "drift")
    assert payload["drift"]["value"] == pytest.approx(lyapunov_difference((1,), (5000,)))


def test_drift_huge_k_is_refused_by_the_budget(capsys):
    code = main(["drift", CYCLE, "--x", "3,1,0", "--k", "1000000000"])
    captured = capsys.readouterr()
    assert code == 1
    assert "budget" in captured.err.lower()


def test_drift_huge_k_on_one_reaction_is_refused_promptly(capsys, tmp_path):
    # one reaction has one path of any length; the step count meets the budget
    crn = tmp_path / "birth.crn"
    crn.write_text("0 -> S ; k=1\n")
    start = time.perf_counter()
    code = main(["drift", str(crn), "--x", "0", "--k", "1000000000"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "1000000000 steps" in captured.err


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_drift_rejects_non_finite_budget(capsys, budget):
    start = time.perf_counter()
    code = main(
        ["drift", CYCLE, "--x", "1,1,0", "--k", "1000000000", "--budget", budget]
    )
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "--budget must be finite" in captured.err


def test_drift_along_huge_fractional_power_is_refused_promptly(capsys):
    start = time.perf_counter()
    code = main(
        ["drift", CYCLE, "--k", "1", "--along", "A=n^7/2, B=1, C=0:1000000000"]
    )
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "exceeds supported maximum" in captured.err


def test_drift_along_coordinate_past_the_digit_limit_names_its_index(capsys):
    # 10**100000 has more digits than Python formats, so the message names
    # the coordinate instead of printing it
    code = main(["drift", CYCLE, "--k", "1", "--along", "A=n^100000, B=1, C=0:10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "state coordinate 0 exceeds supported maximum" in captured.err


@pytest.mark.parametrize("power", ["1000000", "10000000", "1000000/3"])
def test_drift_along_refuses_a_huge_coordinate_before_computing_it(capsys, power):
    # the coordinates have 30 million bits and more; computing the first
    # took 11 s, the other two over 40 s
    start = time.perf_counter()
    code = main(["drift", CYCLE, "--k", "1", "--along", f"A=n^{power}, B=1, C=0:1000000000"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert captured.out == "n,drift\n"
    assert captured.err == "error: state coordinate 0 exceeds supported maximum 100000000\n"


def test_along_state_stands_in_only_for_coordinates_past_64_bits():
    # laws and indices on both sides of 2**64, where the bound must be sound
    stood = computed = 0
    for law in ("n^64", "n^63", "n^3", "2*n^3", "0.75*n^64", "1e-300*n^100", "1e19*n", "n^9/4"):
        seq = parse_sequence_spec(f"A={law}, B=n, C=7", ["A", "B", "C"])
        for n in (1, 2, 3, 2**21 - 1, 2**21, 2**21 + 1, 2**32, 2**64 - 1, 2**64, 10**30):
            got, want = cli._along_state(seq, n), seq.evaluate(n)
            for g, w in zip(got, want):
                if g != w:
                    assert g == 2**64 <= w
                    stood += 1
                else:
                    computed += w >= 2**64
    assert stood > 20 and computed > 0


def test_drift_along_csv_equals_csv_writer_oracle(capsys):
    # each row is the drift at the x_n it names, the parsed sequence's own
    system = parse(Path(CYCLE).read_text())
    seq = parse_sequence_spec("A=n,B=1,C=0", system.network.species)
    ns = [1, 2, 5, 10, 100]
    values = [repr(exact_kstep_drift(system, seq.evaluate(n), 3)) for n in ns]
    want = csv_by_writer(["n", "drift"], ([n, v] for n, v in zip(ns, values)))
    along = "A=n,B=1,C=0:1,2,5,10,100"
    assert main(["drift", CYCLE, "--k", "3", "--along", along]) == 0
    assert capsys.readouterr().out == want
    for n, v in zip(ns, values):
        x = ",".join(map(str, seq.evaluate(n)))
        payload = run_json(capsys, ["drift", CYCLE, "--k", "3", "--x", x], "drift")
        assert repr(payload["drift"]["value"]) == v


def test_drift_along_below_the_start_exits_one_after_the_rows_before(capsys):
    first = repr(exact_kstep_drift(parse(Path(CYCLE).read_text()), (1, 1, 0), 3))
    along = "A=n,B=1,C=0:1,0,3"
    assert main(["drift", CYCLE, "--k", "3", "--along", along]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"n,drift\n1,{first}\n"
    assert captured.err == "error: n=0 is below the sequence start 1\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_equals_csv_writer_oracle(tmp_path, capsys):
    # rows are written in blocks of cli._CSV_BLOCK: 9000 jumps span three
    ends = set()
    for path in sorted(NETWORKS.glob("*.crn")):
        system = parse(path.read_text())
        dim = system.network.dim
        species = system.network.species
        ones = (1,) * dim
        cases = [
            (ones, {"max_jumps": 9000}, ["--jumps", "9000"]),
            (ones, {"max_time": 2.5}, ["--t-max", "2.5"]),
        ]
        absorbing = [
            x
            for x in itertools.product(range(3), repeat=dim)
            if total_rate(system, x) == 0.0
        ]
        if absorbing:
            cases.append((absorbing[0], {"max_jumps": 10}, ["--jumps", "10"]))
        for x0, bounds, flags in cases:
            sample = ssa_simulate(system, x0, seed=7, **bounds)
            ends.add(sample.terminated_by)
            want = csv_by_writer(
                ["t", *species],
                (
                    [repr(float(t)), *(int(v) for v in row)]
                    for t, row in zip(sample.times, sample.states)
                ),
            )
            start = ",".join(map(str, x0))
            argv = ["simulate", str(path), "--x0", start, *flags, "--seed", "7"]
            assert main(argv) == 0
            assert capsys.readouterr().out == want, (path.stem, x0, bounds)
            out = tmp_path / f"{path.stem}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == want.encode("utf-8"), (path.stem, x0, bounds)
            if x0 in absorbing:
                assert want.count("\n") == 2  # the header and the start state
    assert ends == {"max_jumps", "max_time", "absorbed"}


@pytest.mark.parametrize("cap", [1, 2, 8])
def test_simulate_csv_equals_csv_writer_oracle_at_memo_caps(tmp_path, capsys, monkeypatch, cap):
    # the memo empties every few states: the rows before each emptying are
    # packed and formatted one by one, the rows after keep their state's text
    monkeypatch.setattr(simulate, "_MEMO_MAX", cap)
    test_simulate_csv_equals_csv_writer_oracle(tmp_path, capsys)


@pytest.mark.parametrize("refusal", ["budget", "coordinate"])
def test_refused_simulate_prints_no_row_and_writes_no_file(tmp_path, capsys, monkeypatch, refusal):
    # the walk is refused after thousands of rows, or after a few; either
    # way no row reaches stdout or --out, and an existing file is untouched
    if refusal == "budget":
        monkeypatch.setattr(simulate, "_TRAJECTORY_BUDGET", 20_000)
        argv = ["simulate", BIRTHDEATH, "--x0", "1", "--t-max", "1e12"]
        err = (
            "error: stopped after 20480 jumps: the horizon needs more than the "
            "budget of 20000 jumps\n"
        )
    else:
        growth = tmp_path / "growth.crn"
        growth.write_text("species: S\nS -> 2S ; k=2.0\nS -> 0 ; k=1.0\n")
        argv = ["simulate", str(growth), "--x0", str(STATE_COORD_MAX - 2), "--jumps", "1000000"]
        err = (
            f"error: state coordinate exceeded supported maximum {STATE_COORD_MAX} "
            "during simulation\n"
        )
    out = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out)]):
        assert main([*argv, *extra]) == 1
        assert capsys.readouterr() == ("", err)
        assert not out.exists()
    out.write_text("t,S\n0.0,1\n")
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", err)
    assert out.read_text() == "t,S\n0.0,1\n"


def test_simulate_million_rows_peak_below_the_trajectory_arrays():
    # the bound is what the trajectory's time and state arrays alone take,
    # 8 + 8 * dim bytes a row; the command line keeps each row's time and
    # the index of its state's text, 12 bytes a row
    rows = 10**6
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            assert main(["simulate", BIRTHDEATH, "--x0", "4", "--jumps", str(rows - 1)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 + 8 * 1) * rows


def test_simulate_rows_of_new_states_grow_the_peak_less_than_the_trajectory_arrays(tmp_path):
    # on 0 -> S every row reaches a new state, so the walk's memo empties
    # every 4,096 rows; between 10**4 and 2 * 10**5 rows the peak grows by
    # less than the 8 + 8 * dim bytes a row of a trajectory's time and state
    # arrays (the memo's own 2-3 MB is in the peak at both lengths)
    birth = tmp_path / "birth.crn"
    birth.write_text("species: S\n0 -> S ; k=1.0\n")

    def peak(rows):
        tracemalloc.start()
        try:
            with redirect_stdout(_Discard()):
                assert main(["simulate", str(birth), "--x0", "0", "--jumps", str(rows - 1)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 10**4, 2 * 10**5
    assert peak(large) - peak(small) <= (8 + 8 * 1) * (large - small)


def test_simulate_csv_shape_and_header(capsys):
    code = main(["simulate", BIRTHDEATH, "--x0", "0", "--jumps", "5", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,S"
    assert lines[1] == "0.0,0"
    assert len(lines) == 7


def test_simulate_zero_jumps_gives_initial_state_only(capsys):
    main(["simulate", BIRTHDEATH, "--x0", "3", "--jumps", "0"])
    out = capsys.readouterr().out
    assert out.strip().splitlines() == ["t,S", "0.0,3"]


def test_simulate_same_seed_gives_identical_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code = main(
            [
                "simulate",
                BIRTHDEATH,
                "--x0",
                "0",
                "--t-max",
                "50",
                "--seed",
                "11",
                "--out",
                str(target),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("t,S\n0.0,0\n")


def test_simulate_requires_a_bound(capsys):
    code = main(["simulate", BIRTHDEATH, "--x0", "0"])
    assert code == 1
    assert "--t-max" in capsys.readouterr().err


def test_simulate_multispecies_header_lists_species(capsys):
    main(["simulate", CYCLE, "--x0", "5,0,0", "--jumps", "3", "--seed", "0"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t,A,B,C"


def test_simulate_infinite_horizon_needs_a_jump_bound(capsys):
    # without --jumps an infinite --t-max would never stop
    assert main(["simulate", ISOMERS, "--x0", "3,2", "--t-max", "inf"]) == 1
    assert "finite" in capsys.readouterr().err
    assert main(["simulate", ISOMERS, "--x0", "3,2", "--t-max", "inf", "--jumps", "4"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


# ---------------------------------------------------------------------------
# stationary


def test_stationary_ambiguous_region_is_an_error(capsys):
    # a box over both isomer counts mixes conservation classes, so the
    # censored chain has several closed classes and no canonical answer
    code = main(["stationary", ISOMERS, "--region", "0..1,0..1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "closed communicating classes" in captured.err


def test_stationary_region_solve(capsys):
    payload = run_json(
        capsys, ["stationary", BIRTHDEATH, "--region", "0..40"], "stationary"
    )
    assert payload["stationary"]["method"] == "truncated_solve"
    dist = {
        tuple(e["state"]): e["probability"]
        for e in payload["stationary"]["distribution"]
    }
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert dist[(2,)] > dist[(10,)]


def test_stationary_time_average_close_to_solve(capsys):
    solve = run_json(
        capsys, ["stationary", BIRTHDEATH, "--region", "0..40"], "stationary"
    )
    avg = run_json(
        capsys,
        ["stationary", BIRTHDEATH, "--x0", "0", "--t-max", "20000", "--seed", "8"],
        "stationary",
    )
    ref = {tuple(e["state"]): e["probability"] for e in solve["stationary"]["distribution"]}
    est = {tuple(e["state"]): e["probability"] for e in avg["stationary"]["distribution"]}
    keys = set(ref) | set(est)
    tv = 0.5 * sum(abs(ref.get(k, 0.0) - est.get(k, 0.0)) for k in keys)
    assert tv < 0.02


def test_stationary_absorbing_start_warns_and_gives_point_mass(capsys, tmp_path):
    f = tmp_path / "decay.crn"
    f.write_text("species: A, B\nA -> B ; k=1.0\n")
    code = main(["stationary", str(f), "--x0", "0,4", "--t-max", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "absorbing" in captured.err
    payload = json.loads(captured.out)
    validate(payload, "stationary")
    assert payload["stationary"]["distribution"] == [
        {"state": [0, 4], "probability": 1.0}
    ]


#: A box per demo file whose censored chain has one closed class; a box of
#: more than one state splits the conserved totals of annihilation, isomers
#: and threeclass into several.
DEMO_BOXES = {
    "annihilation.crn": "1..1,2..2",
    "birthdeath.crn": "0..40",
    "cycle.crn": "1..6,1..6,1..6",
    "isomers.crn": "2..2,1..1",
    "loop.crn": "0..6,0..6,0..6",
    "threeclass.crn": "1..1,2..2,3..3,1..1",
}


def _stdout(argv) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_stationary_reports_equal_the_dict_rows_through_emit(monkeypatch):
    # both methods on every demo file; threeclass's time average from
    # (1, 2, 3, 1) over [0, 50] visits 5,331 states, past one block of rows
    argvs = []
    for path in sorted(NETWORKS.glob("*.crn")):
        x0 = ",".join(str(1 + i % 3) for i in range(parse(path.read_text()).network.dim))
        argvs.append(["stationary", str(path), "--region", DEMO_BOXES[path.name]])
        argvs.append(["stationary", str(path), "--x0", x0, "--t-max", "50", "--seed", "3"])
    got = [_stdout(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_emit_stationary", stationary_by_dicts)
    want = [_stdout(argv) for argv in argvs]
    assert [code for code, _ in got] == [0] * len(argvs)
    assert max(out.count('"probability"') for _, out in got) > cli._CSV_BLOCK
    for argv, a, b in zip(argvs, got, want):
        assert a == b, argv


def _writes(emit, report: dict, estimate) -> str:
    out = io.StringIO()
    emit(dict(report), estimate, out)
    return out.getvalue()


ENVELOPE = {
    "schema_version": "1",
    "tool": {"name": "crnkit", "version": crnkit.__version__},
    "input": {"path": 'a "distribution": [] b', "sha256": "0" * 64},
}
#: Probabilities whose text is easy to get wrong: signed zeros, the least
#: subnormal, the switches to exponent form, the largest float and json's
#: own NaN, Infinity and -Infinity.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308)
EDGE_FLOATS += (math.nan, math.inf, -math.inf)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.lists(
            st.tuples(
                st.tuples(*[st.integers(min_value=0, max_value=10**8)] * dim),
                st.sampled_from(EDGE_FLOATS) | st.floats(),
            ),
            max_size=12,
        )
    ),
    st.text(max_size=8),
)
def test_stationary_writer_equals_emit_on_drawn_distributions(rows, detail):
    estimate = StationaryEstimate(
        support=tuple(s for s, _ in rows),
        probabilities=np.asarray([p for _, p in rows], dtype=np.float64),
        method="time_average",
        detail=detail,
    )
    want = _writes(stationary_by_dicts, ENVELOPE, estimate)
    assert _writes(cli._emit_stationary, ENVELOPE, estimate) == want


def _estimate(n: int, dim: int = 3) -> StationaryEstimate:
    support = tuple(itertools.islice(itertools.product(range(10**3), repeat=dim), n))
    probs = np.random.default_rng(n).random(n)
    return StationaryEstimate(support, probs / probs.sum(), "truncated_solve", "box")


@pytest.mark.parametrize("n", [cli._CSV_BLOCK, cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 3])
def test_stationary_writer_equals_emit_past_one_block(n):
    estimate = _estimate(n)
    out = io.StringIO()
    writes = []
    out.write = lambda text: writes.append(text) or io.StringIO.write(out, text)
    cli._emit_stationary(dict(ENVELOPE), estimate, out)
    assert out.getvalue() == _writes(stationary_by_dicts, ENVELOPE, estimate)
    assert len(writes) == 2 + -(-n // cli._CSV_BLOCK)  # head, the blocks, tail


class _Discard:
    def write(self, text):
        return len(text)


def _peak(emit, estimate) -> int:
    tracemalloc.start()
    try:
        emit(dict(ENVELOPE), estimate, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stationary_writer_peaks_no_higher_than_emit():
    estimate = _estimate(12_000)
    assert _peak(cli._emit_stationary, estimate) <= _peak(stationary_by_dicts, estimate)


def test_simulate_huge_horizon_exits_one_at_the_trajectory_budget(capsys, monkeypatch):
    monkeypatch.setattr(simulate, "_TRAJECTORY_BUDGET", 20_000)
    assert main(["simulate", BIRTHDEATH, "--x0", "1", "--t-max", "1e12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 20000 jumps" in captured.err


def test_stationary_huge_horizon_exits_one_at_the_jump_budget(capsys, monkeypatch):
    monkeypatch.setattr(simulate, "_JUMP_BUDGET", 20_000)
    assert main(["stationary", BIRTHDEATH, "--x0", "1", "--t-max", "1e12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 20000 jumps" in captured.err


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_stationary_time_average_rejects_a_non_finite_horizon(capsys, tmp_path, t_max):
    # an infinite horizon never ends a recurrent walk, and on an absorbing
    # start it left inf / inf = NaN as the probability
    decay = tmp_path / "decay.crn"
    decay.write_text("species: S\nS -> 0 ; k=1.0\n")
    for path, x0 in ((BIRTHDEATH, "1"), (str(decay), "0")):
        code = main(["stationary", path, "--x0", x0, "--t-max", t_max])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "t_max must be positive and finite" in captured.err


def test_stationary_needs_exactly_one_mode(capsys):
    assert main(["stationary", BIRTHDEATH]) == 1
    capsys.readouterr()
    assert (
        main(["stationary", BIRTHDEATH, "--x0", "0", "--t-max", "1", "--region", "0..2"])
        == 1
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["drift", CYCLE, "--k", "1", "--along", "A=n,B=1,C=0"], "--along expects"),
        (["drift", CYCLE, "--k", "1", "--along", "A=n,B=1,C=0:1,x"], "must be integers"),
        (
            ["drift", CYCLE, "--k", "1", "--along", "A=n,B=1,C=0:1", "--mc", "5"],
            "--along computes exact drifts; drop --mc",
        ),
        (["drift", CYCLE, "--k", "1"], "--x is required unless --along is given"),
        (["stationary", BIRTHDEATH, "--region", "0-3"], '--region expects "lo..hi"'),
        (["stationary", BIRTHDEATH, "--region", "a..3"], "--region bounds must be integers"),
        (["stationary", BIRTHDEATH, "--region", "3..1"], "'3..1' is empty or negative"),
        (["stationary", BIRTHDEATH, "--region=-1..2"], "'-1..2' is empty or negative"),
        (["stationary", CYCLE, "--region", "0..2"], "--region needs 3 ranges, got 1"),
        (["stationary", BIRTHDEATH, "--x0", "1"], "--x0 needs --t-max"),
        (
            ["tiers", CYCLE, "--seq", "A=n,B=1,C=0", "--path", " , "],
            "--path expects at least one reaction",
        ),
        (
            ["tiers", CYCLE, "--seq", "A=n,B=1,C=0", "--path", "A"],
            "--path entry 'A' is not of the form src->prd",
        ),
        (
            ["drift", CYCLE, "--k", "2", "--x", "5,1,0", "--along", "A=n, B=1, C=0:5,10"],
            "--along takes its states from the sequence; drop --x",
        ),
        # a value that starts with a minus, in both spellings
        *[
            (argv, message)
            for flag, argv, message in (
                ("--x", ["drift", CYCLE, "--k", "1"], "--x needs 3 nonnegative"),
                ("--x0", ["simulate", CYCLE, "--jumps", "3"], "--x0 needs 3 nonnegative"),
                ("--x0", ["stationary", CYCLE, "--t-max", "3"], "--x0 needs 3 nonnegative"),
                ("--reach-from", ["analyze", CYCLE], "--reach-from needs 3 nonnegative"),
            )
            for argv in ([*argv, flag, "-1,0,0"], [*argv, f"{flag}=-1,0,0"])
        ],
        *[
            (argv, "range '-1..3' is empty or negative")
            for argv in (
                ["stationary", CYCLE, "--region", "-1..3,0..1,0..1"],
                ["stationary", CYCLE, "--region=-1..3,0..1,0..1"],
            )
        ],
    ],
)
def test_usage_errors_exit_one_with_their_message(capsys, argv, message):
    args = cli._parser().parse_args(argv)
    with pytest.raises(cli._UsageError, match=re.escape(message)):
        args.fn(args)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_report_hashes_the_bytes_it_parsed(capsys, tmp_path, monkeypatch):
    # a file rewritten after it is read: the report names what was analysed
    crn = tmp_path / "cycle.crn"
    text = Path(CYCLE).read_bytes()
    crn.write_bytes(text)

    def parse_then_rewrite(source):
        crn.write_bytes(text + b"# rewritten\n")
        return parse(source)

    monkeypatch.setattr(cli, "parse", parse_then_rewrite)
    payload = run_json(capsys, ["analyze", str(crn)], "analyze")
    assert payload["input"]["sha256"] == hashlib.sha256(text).hexdigest()


# ---------------------------------------------------------------------------
# process-level behavior


def _child_env() -> dict:
    # the child imports the same crnkit as this process, however pytest found it
    src = str(Path(crnkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "crnkit", "analyze", CYCLE],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"]["verdict"] == "PositiveRecurrent"


@pytest.mark.parametrize(
    "demo", [p.name for p in sorted((REPO / "demos").glob("0*.py"))]
)
def test_demo_runs_as_subprocess(demo):
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_one_parser_answers_each_call_as_a_fresh_process(capsys):
    # a usage error, a report and --version in this process, each against a
    # fresh interpreter; the parser is built once and reused
    for argv in (["analyze"], ["analyze", CYCLE], ["--version"], ["drift", CYCLE]):
        fresh = subprocess.run(
            [sys.executable, "-m", "crnkit", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse exits after printing the version
            code = stop.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert cli._parser() is cli._parser()


def test_bad_flags_exit_one_not_two(capsys):
    assert main(["drift", CYCLE, "--k", "1", "--x", "not-a-state"]) == 1
    capsys.readouterr()
    assert main(["analyze", CYCLE, "--reach-from", "1,2"]) == 1
