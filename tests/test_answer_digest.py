"""Answer digest of the samplers: one SHA-256 per public sampler and per
sampler-driven CLI command, over the catalog systems and the demo networks
with a few seeds each, error messages included.

The digests in ``answer_digest.json`` were computed once, from the code as
it was when they were added; a change that keeps every sampler answer equal
byte for byte leaves them equal.  The test names each group that differs.
Rewriting the file is a change of test data, to be recorded with its
reason.  To rewrite it::

    PYTHONPATH=src python tests/test_answer_digest.py --write
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from crnkit import catalog, parse, simulate
from crnkit.cli import main
from crnkit.errors import CRNError
from crnkit.kinetics import lyapunov
from crnkit.network import STATE_COORD_MAX
from crnkit.simulate import (
    drift_estimate_mc,
    embedded_chain_simulate,
    lyapunov_sublevel,
    occupancy_estimate,
    return_times,
    ssa_simulate,
)

HERE = Path(__file__).resolve().parent
DIGEST = HERE / "answer_digest.json"
NETWORKS = HERE.parent / "demos" / "networks"
SEEDS = (0, 1, 7)


def _start(dim):
    return tuple(i % 3 + 1 for i in range(dim))


def _systems():
    """(name, system, start state) for the catalog and the demo files."""
    out = []
    for name in (
        "five_complex_cycle",
        "creation_annihilation_loop",
        "three_class_network",
        "birth_death",
        "pure_birth",
        "reversible_isomers",
        "pair_annihilation",
    ):
        system = getattr(catalog, name)()
        out.append((name, system, _start(system.network.dim)))
    for path in sorted(NETWORKS.glob("*.crn")):
        system = parse(path.read_text())
        out.append((path.name, system, _start(system.network.dim)))
    return out


def _answer(fn, *args, **kwargs) -> str:
    """``repr`` of the call's answer, or its error's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, CRNError) as e:
        return f"{type(e).__name__}: {e}"


def _trajectory(system, x0, **kwargs) -> str:
    """The trajectory's bytes, or its error."""
    try:
        sample = ssa_simulate(system, x0, **kwargs)
    except (ValueError, CRNError) as e:
        return f"{type(e).__name__}: {e}"
    return repr((sample.times.tobytes(), sample.states.tobytes(), sample.terminated_by))


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    # the report names the file by the path it was given
    return repr((code, out.getvalue(), err.getvalue())).replace(str(NETWORKS), "")


def _with_budget(name, budget, fn, *args, **kwargs) -> str:
    saved = getattr(simulate, name)
    setattr(simulate, name, budget)
    try:
        return _answer(fn, *args, **kwargs)
    finally:
        setattr(simulate, name, saved)


def answers():
    """Group name -> the list of answer strings the group's digest covers."""
    systems = _systems()
    growth = parse("species: S\nS -> 2S ; k=2.0\nS -> 0 ; k=1.0\n")
    bd = catalog.birth_death(2.0, 1.0)
    groups = {}

    rows = groups["ssa_simulate"] = []
    for name, system, x0 in systems:
        for seed in SEEDS:
            rows.append(name)
            rows.append(_trajectory(system, x0, max_jumps=300, seed=seed))
            rows.append(_trajectory(system, x0, max_time=5.0, seed=seed))
    for seed in SEEDS:  # past two block refills
        rows.append(_trajectory(bd, (4,), max_jumps=9000, seed=seed))
        rows.append(_answer(ssa_simulate, growth, (STATE_COORD_MAX - 2,), max_jumps=10**6, seed=seed))
    rows.append(_answer(ssa_simulate, bd, (STATE_COORD_MAX + 1,), max_jumps=5))
    rows.append(_answer(ssa_simulate, bd, (3,), max_time=-1.0))
    rows.append(
        _with_budget("_TRAJECTORY_BUDGET", 5000, ssa_simulate, bd, (3,), max_time=1e9, seed=2)
    )

    rows = groups["embedded_chain_simulate"] = []
    for name, system, x0 in systems:
        for seed in SEEDS:
            rows.append(name)
            rows.append(repr(embedded_chain_simulate(system, x0, 200, seed).tobytes()))

    rows = groups["occupancy_estimate"] = []
    for name, system, x0 in systems:
        for seed in SEEDS:
            est = occupancy_estimate(system, x0, 10.0, seed=seed)
            rows.append(repr((name, est.support, est.probabilities.tobytes(), est.detail)))
    rows.append(_answer(occupancy_estimate, bd, (3,), 0.0))
    rows.append(_answer(occupancy_estimate, bd, (3,), -2.0))
    rows.append(_with_budget("_JUMP_BUDGET", 5000, occupancy_estimate, bd, (3,), 1e9, seed=2))

    rows = groups["return_times"] = []
    for name, system, x0 in systems:
        cutoff = sum(x0)
        for seed in SEEDS:
            for target in (
                lyapunov_sublevel(lyapunov(x0)),
                lambda x: sum(x) <= cutoff,
            ):
                got = return_times(system, x0, target, horizon=10.0, replicas=12, seed=seed)
                rows.append(
                    repr((name, got.target_description, got.times.tobytes(), got.non_returning))
                )
    sublevel = lyapunov_sublevel(lyapunov((3,)))
    rows.append(_answer(return_times, bd, (9,), sublevel, horizon=10.0, replicas=3))
    rows.append(_answer(return_times, bd, (3,), sublevel, horizon=0.0, replicas=3))
    rows.append(_answer(return_times, bd, (3,), sublevel, horizon=-1.0, replicas=3))
    rows.append(
        _with_budget(
            "_JUMP_BUDGET", 5000, return_times, bd, (1,), sublevel, horizon=1e9, replicas=300, seed=1
        )
    )

    rows = groups["drift_estimate_mc"] = []
    for name, system, x0 in systems:
        for seed in SEEDS:
            for k in (1, 7, 40):
                got = drift_estimate_mc(system, x0, k, replicas=30, seed=seed)
                rows.append(repr((name, k, got)))
    rows.append(repr(drift_estimate_mc(bd, (4,), 5000, replicas=2, seed=3)))  # a block refill
    rows.append(_answer(drift_estimate_mc, bd, (4,), 3, replicas=1))
    rows.append(_answer(drift_estimate_mc, bd, (4,), -1, replicas=5))

    files = [
        (str(path), ",".join(map(str, x0)))
        for path, (_, _, x0) in zip(sorted(NETWORKS.glob("*.crn")), systems[-6:])
    ]
    rows = groups["cli simulate"] = []
    for path, x0 in files:
        for seed in map(str, SEEDS):
            rows.append(_cli(["simulate", path, "--x0", x0, "--jumps", "150", "--seed", seed]))
            rows.append(_cli(["simulate", path, "--x0", x0, "--t-max", "3", "--seed", seed]))
    rows = groups["cli stationary --x0"] = []
    for path, x0 in files:
        for seed in map(str, SEEDS):
            rows.append(_cli(["stationary", path, "--x0", x0, "--t-max", "8", "--seed", seed]))
        rows.append(_cli(["stationary", path, "--x0", x0, "--t-max", "0"]))
    rows = groups["cli drift --mc"] = []
    for path, x0 in files:
        for seed in map(str, SEEDS):
            rows.append(_cli(["drift", path, "--x", x0, "--k", "6", "--mc", "25", "--seed", seed]))
        rows.append(_cli(["drift", path, "--x", x0, "--k", "6", "--mc", "1"]))
    return groups


def digests():
    return {
        group: hashlib.sha256("\n".join(rows).encode()).hexdigest()
        for group, rows in answers().items()
    }


def test_sampler_answers_equal_the_recorded_digests():
    want = json.loads(DIGEST.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    differing = [group for group in want if got[group] != want[group]]
    assert not differing, f"sampler answers differ in: {', '.join(differing)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_answer_digest.py --write")
    DIGEST.write_text(json.dumps(digests(), indent=2) + "\n")
