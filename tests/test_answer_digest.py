"""Answer digest of the samplers, the tier layer, the stationary layer and
the pattern scans: one SHA-256 per public sampler, tier, stationary and scan
function and per CLI command that drives them, over the catalog systems and
the demo networks, error messages included.  The samplers run with a few
seeds each; the tier functions run along a spread of each network's scan
family, as given and shifted; the censored solve runs on boxes around each
network's origin; the scans run at three budgets on fresh networks, in both
call orders.

The digests in ``answer_digest.json`` were computed once per group, from the
code as it was when the group was added; a change that keeps every answer
equal byte for byte, or by ``repr``, leaves them equal.  The test names each group that differs.
``answer_digest_paths.json`` holds the groups of a second test, on the
inputs that take ``crnkit simulate`` and the censored solve down their less
common paths: a trajectory past the sampler memo and past several row
blocks, written to a file, refused mid-walk; products past int64, regions
whose bounding box passes 2**63 cells, transient and trapped states.
``answer_digest_reach.json`` holds the groups of a third test, on
reachability: ``reachable_states`` at caps that truncate and caps that do
not, and ``crnkit analyze`` without the scan and with ``--reach-from``.
``answer_digest_parse.json`` holds the groups of a fourth test, on the
text format: what ``parse`` and ``parse_document`` make of the demo files,
of texts that take the parser down its less common paths and of a fixed
list of bad texts (each ``ParseError``'s message, line and column), and
``serialize``'s canonical text with its round trips.
``answer_drift.json`` holds exact k-step drifts in value form, compared
to 1e-12 rather than by digest, so a change that sums the same terms in
another order still passes; refusals are held as their type and message.
Rewriting any of these files is a change of test data, to be recorded with
its reason.  To rewrite the four digest files, or the drift values::

    PYTHONPATH=src python tests/test_answer_digest.py --write
    PYTHONPATH=src python tests/test_answer_digest.py --write-drift
"""

import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from crnkit import Complex, Reaction, ReactionNetwork, catalog, parse, simulate, tiers
from crnkit.cli import main
from crnkit.errors import CRNError, ParseError
from crnkit.kinetics import lyapunov
from crnkit.network import STATE_COORD_MAX
from crnkit.parser import parse_document, serialize
from crnkit.simulate import (
    drift_estimate_mc,
    embedded_chain_simulate,
    lyapunov_sublevel,
    occupancy_estimate,
    return_times,
    ssa_simulate,
    truncated_stationary,
)
from crnkit.structure import reachable_states
from crnkit.tiers import (
    Const,
    Grow,
    ParametricSequence,
    d_partition,
    exact_kstep_drift,
    hypothesis_check,
    hypothesis_violation,
    path_probability_limit,
    path_tier_membership,
    s_partition,
    scan_patterns,
    witness_path,
)
from test_acceptance import binary_ring
from test_tiers import TRAP

HERE = Path(__file__).resolve().parent
DIGEST = HERE / "answer_digest.json"
PATH_DIGEST = HERE / "answer_digest_paths.json"
REACH_DIGEST = HERE / "answer_digest_reach.json"
PARSE_DIGEST = HERE / "answer_digest_parse.json"
DRIFT = HERE / "answer_drift.json"
NETWORKS = HERE.parent / "demos" / "networks"
SEEDS = (0, 1, 7)
#: A generated three-species network whose time average from (3, 3, 1) over
#: [0, 170] visits 6,894 states, more than ``simulate._MEMO_MAX``, so the
#: call's memo empties mid-run.
SPREADING = """species: A, B, C
B -> 2C ; k=2.0
2C -> A + C ; k=1.0
A + C -> A ; k=0.5
A -> B ; k=2.0
A -> 2C ; k=1.0
2C -> B ; k=2.0
"""
#: The catalog systems the groups cover, by function name.
CATALOG = (
    "five_complex_cycle",
    "creation_annihilation_loop",
    "three_class_network",
    "birth_death",
    "pure_birth",
    "reversible_isomers",
    "pair_annihilation",
)


def _start(dim):
    return tuple(i % 3 + 1 for i in range(dim))


def _systems():
    """(name, system, start state) for the catalog and the demo files."""
    out = []
    for name in CATALOG:
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
    except (ValueError, OverflowError, CRNError) as e:
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

    _tier_answers(groups, systems)
    _stationary_answers(groups, systems)
    _scan_answers(groups)
    return groups


def _spread(net, most: int) -> list:
    """Up to ``most`` sequences spread over the network's scan family, each
    followed by a copy shifted by 0, 1 or 2 per coordinate."""
    seqs = scan_patterns(net).sequences
    out = []
    for k, seq in enumerate(seqs[:: -(-len(seqs) // most)]):
        out += [seq, seq.shifted([(i + k) % 3 for i in range(net.dim)])]
    return out


def _spec(seq, species) -> str:
    """``seq`` as a ``--seq`` argument."""
    return ", ".join(
        f"{name}={law.value if isinstance(law, Const) else f'n^{law.power}'}"
        for name, law in zip(species, seq.laws)
    )


def _tier_answers(groups, systems):
    """The tier layer's groups: each public tier function along the spread
    of each network's scan family, and ``crnkit tiers`` on the demo files."""
    witness = groups["witness_path"] = []
    membership = groups["path_tier_membership"] = []
    limit = groups["path_probability_limit"] = []
    violation = groups["hypothesis_violation"] = []
    d_part = groups["d_partition"] = []
    s_part = groups["s_partition"] = []
    for name, system, _ in systems:
        net = system.network
        first = net.reactions[0]
        witness.append(name)
        for bad in (-1, 2.5, "3"):
            witness.append(_answer(witness_path, net, _spread(net, 1)[0], target_len=bad))
        wrong = ParametricSequence((Grow(),) * (net.dim + 1))
        for fn in (witness_path, hypothesis_violation, d_partition, s_partition):
            witness.append(_answer(fn, net, wrong))
        for seq in _spread(net, 24):
            paths = [net.reactions, net.reactions[::-1], (first,) * 3]
            for length in (None, 1, len(net.reactions) + 7):
                try:
                    path = witness_path(net, seq, target_len=length)
                except (ValueError, OverflowError, CRNError) as e:
                    witness.append(f"{type(e).__name__}: {e}")
                else:
                    witness.append(repr(path))
                    paths.append(path)
            for path in paths:
                membership.append(_answer(path_tier_membership, net, seq, path))
                limit.append(_answer(path_probability_limit, system, seq, path))
            violation.append(_answer(hypothesis_violation, net, seq))
            d_part.append(_answer(d_partition, net, seq))
            s_part.append(_answer(s_partition, net, seq))
            s_part.append(_answer(s_partition, net, seq.normalized_for(net)))
    cycle = catalog.five_complex_cycle()
    seq = _spread(cycle.network, 1)[0]
    foreign = [catalog.birth_death().network.reactions[0]]
    membership.append(_answer(path_tier_membership, cycle.network, seq, foreign))
    limit.append(_answer(path_probability_limit, cycle, seq, foreign))
    dead = parse("A + B -> 2A + 2B ; k=1\n").network  # every complex needs an A
    witness.append(_answer(witness_path, dead, ParametricSequence((Const(0), Grow()))))
    # leading coefficients past the float range: 2B's is 1e200 ** 2
    huge = ParametricSequence((Grow(), Grow(1e200), Const(0)))
    witness.append(_answer(witness_path, cycle.network, huge, target_len=9))
    limit.append(_answer(path_probability_limit, cycle, huge, cycle.network.reactions[1:2]))

    rows = groups["cli tiers"] = []
    for path in sorted(NETWORKS.glob("*.crn")):
        system = parse(path.read_text())
        net, species = system.network, system.network.species
        listed = ", ".join(r.format(species) for r in net.reactions)
        for seq in _spread(net, 4)[::2]:
            spec = _spec(seq, species)
            for extra in ([], ["--limit", "0"], ["--limit", str(len(net.reactions) + 5)]):
                rows.append(_cli(["tiers", str(path), "--seq", spec, "--path", "auto", *extra]))
            rows.append(_cli(["tiers", str(path), "--seq", spec, "--path", listed]))
        a = species[0]
        for spec in (
            f"{a}=n",
            ", ".join(f"{s}=1" for s in species),
            ", ".join(f"{s}=n^1/0" for s in species),
            ", ".join(f"{s}=x" for s in species),
            ", ".join(f"{s}=n" for s in species) + ", Q=n",
        ):
            rows.append(_cli(["tiers", str(path), "--seq", spec]))
        spec = _spec(_spread(net, 1)[0], species)
        rows.append(_cli(["tiers", str(path), "--seq", spec, "--limit", "-1"]))
        for listed in (",", f"{a} {a}", "0 -> Q", f"{a} -> 5{a}"):
            rows.append(_cli(["tiers", str(path), "--seq", spec, "--path", listed]))
    cycle = str(NETWORKS / "cycle.crn")
    for extra in ([], ["--path", "2B -> A"]):
        rows.append(_cli(["tiers", cycle, "--seq", "A=n, B=1e200*n, C=0", *extra]))


def _estimate(fn, *args, **kwargs) -> str:
    """A ``StationaryEstimate``'s support, probability bytes, method and
    detail, or its error, with the closed classes an ambiguous region has."""
    try:
        est = fn(*args, **kwargs)
    except (ValueError, CRNError) as e:
        return f"{type(e).__name__}: {e} {getattr(e, 'classes', '')}"
    return repr((est.support, est.probabilities.tobytes(), est.method, est.detail))


#: Largest coordinate of the boxes per dimension: boxes of 6 to 343 states.
BOX_TOP = {1: 30, 2: 6, 3: 4, 4: 2}


def _boxes(dim: int) -> list:
    """Three boxes of dimension ``dim``, each as "lo..hi" per coordinate."""
    top = BOX_TOP[dim]
    return [[f"0..{top}"] * dim, [f"1..{top + 2}"] * dim, ["0..1"] * (dim - 1) + [f"0..{top}"]]


def _stationary_answers(groups, systems):
    """The stationary layer's groups: the censored solve on boxes of each
    network, ``crnkit stationary --region`` on the demo files, and a time
    average, in process and by the CLI, whose memo empties mid-run."""
    rows = groups["truncated_stationary"] = []
    for name, system, _ in systems:
        rows.append(name)
        for box in _boxes(system.network.dim):
            spans = [range(int(lo), int(hi) + 1) for lo, hi in (b.split("..") for b in box)]
            rows.append(_estimate(truncated_stationary, system, itertools.product(*spans)))
        rows.append(_estimate(truncated_stationary, system, []))
        rows.append(_estimate(truncated_stationary, system, [(1,) * (system.network.dim + 1)]))

    rows = groups["cli stationary --region"] = []
    for path, (_, system, x0) in zip(sorted(NETWORKS.glob("*.crn")), systems[-6:]):
        dim = system.network.dim
        for box in _boxes(dim):
            rows.append(_cli(["stationary", str(path), "--region", ",".join(box)]))
        for box in (["0-3"] * dim, ["a..3"] * dim, ["3..1"] * dim, ["0..2"] * (dim + 1)):
            rows.append(_cli(["stationary", str(path), "--region", ",".join(box)]))
        rows.append(_cli(["stationary", str(path), "--region=" + ",".join(["-1..2"] * dim)]))
        x0 = ",".join(map(str, x0))
        rows.append(_cli(["stationary", str(path), "--region", "0..1", "--x0", x0]))
        rows.append(_cli(["stationary", str(path)]))
        rows.append(_cli(["stationary", str(path), "--x0", x0]))

    spreading = parse(SPREADING)
    groups["occupancy_estimate past the memo"] = [
        _estimate(occupancy_estimate, spreading, (3, 3, 1), 170.0, seed=141598622)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spreading.crn"
        path.write_text(SPREADING)
        argv = ["stationary", str(path), "--x0", "3,3,1", "--t-max", "170", "--seed", "141598622"]
        groups["cli stationary --x0 past the memo"] = [_cli(argv).replace(tmp, "")]


def _scan_networks() -> list:
    """(name, maker) for the catalog and demo networks and the hand-built
    networks of the scan oracle test; each call of a maker builds a new
    network, which remembers no scan."""
    makers = [(name, lambda name=name: getattr(catalog, name)().network) for name in CATALOG]
    for path in sorted(NETWORKS.glob("*.crn")):
        makers.append((path.name, lambda path=path: parse(path.read_text()).network))
    # degrees past int64, keyed in 63-bit limbs
    wide = [((2**62, 0), (0, 1)), ((0, 1), (2**62, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0))]
    return makers + [
        ("TRAP", lambda: parse(TRAP).network),
        ("3A <-> B", lambda: parse("species: A, B\n3A <-> B ; k=1, 1\n0 <-> B ; k=1, 1").network),
        ("binary_ring(5)", lambda: binary_ring(5)),
        (
            "2**62",
            lambda: ReactionNetwork.from_reactions(
                ("A", "B"), [Reaction(Complex(a), Complex(b)) for a, b in wide]
            ),
        ),
    ]


def _scan_answers(groups):
    """The scan groups: ``scan_patterns`` and ``hypothesis_check`` at
    budgets 0, 7 and the default, the family after a check on the same
    fresh network and alone on another, each in one chunk of labelings and
    in chunks of 7, the refusal past 12 species, and ``crnkit analyze
    --hypothesis-scan`` on the demo files."""
    family = groups["scan_patterns"] = []
    check = groups["hypothesis_check"] = []
    saved = tiers._SCAN_CHUNK
    try:
        for chunk in (saved, 7):
            tiers._SCAN_CHUNK = chunk
            for name, make in _scan_networks():
                for budget in ({"pattern_budget": 0}, {"pattern_budget": 7}, {}):
                    label = repr((name, chunk, budget))
                    net = make()
                    check += [label, _answer(hypothesis_check, net, **budget)]
                    family += [
                        label,
                        _answer(scan_patterns, net, **budget),
                        _answer(scan_patterns, make(), **budget),
                    ]
    finally:
        tiers._SCAN_CHUNK = saved
    check.append(_answer(hypothesis_check, binary_ring(13)))
    family.append(_answer(scan_patterns, binary_ring(13)))

    rows = groups["cli analyze --hypothesis-scan"] = []
    for path in sorted(NETWORKS.glob("*.crn")):
        rows.append(_cli(["analyze", str(path), "--hypothesis-scan"]))


GROWTH = "species: S\nS -> 2S ; k=2.0\nS -> 0 ; k=1.0\n"
#: Rates past int64 near the coordinate limit: a cubic source at 10**8.
CUBIC = "species: A\n0 -> A ; k=1.5\n3A -> 2A ; k=0.25\n"
#: An order-3 source over two species, whose box near 10**8 is one class.
PAIRED = "species: A, B\nA + 2B -> 3B ; k=1\nB -> A ; k=2\n0 -> A ; k=1\nA -> 0 ; k=1\n"
#: A drains into B, so every state with A > 0 is transient.
DRAIN = "species: A, B\nA -> B ; k=1\nB -> 0 ; k=2\n0 -> B ; k=1\n"


def _cli_out(argv, out: Path) -> str:
    """``_cli`` with ``--out``, and the file's text, or None when the run
    left no file."""
    got = _cli([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return repr((got, text))


def _box(*spans) -> list:
    """The states of the product of inclusive (lo, hi) spans."""
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in spans)))


def path_answers():
    """The second test's groups: ``crnkit simulate`` past the memo, past
    several row blocks, to a file and refused mid-walk, and the censored
    solve on regions past int64 products and past a 2**63-cell box, with
    transient and trapped states."""
    groups = {}
    top = 10**8
    rows = groups["cli simulate paths"] = []
    with tempfile.TemporaryDirectory() as tmp:
        spreading, growth = Path(tmp) / "spreading.crn", Path(tmp) / "growth.crn"
        spreading.write_text(SPREADING)
        growth.write_text(GROWTH)
        out = Path(tmp) / "rows.csv"
        bd = str(NETWORKS / "birthdeath.crn")
        # 39,921 rows over 6,894 states: past the memo and nine row blocks
        argv = ["simulate", str(spreading), "--x0", "3,3,1", "--t-max", "170"]
        rows.append(_cli([*argv, "--seed", "141598622"]))
        rows.append(_cli_out([*argv, "--seed", "141598622"], out))
        bounds = (["--jumps", "20000"], ["--t-max", "2500"], ["--jumps", "9000", "--t-max", "4000"])
        three = str(NETWORKS / "threeclass.crn")
        for seed in map(str, SEEDS):
            for flags in bounds:
                rows.append(_cli(["simulate", bd, "--x0", "4", *flags, "--seed", seed]))
            argv = ["simulate", bd, "--x0", "4", "--jumps", "12000", "--seed", seed]
            rows.append(_cli_out(argv, out))
            argv = ["simulate", three, "--x0", "1,1,1,1", "--t-max", "40", "--seed", seed]
            rows.append(_cli_out(argv, out))
            # refused: past the trajectory budget, and past STATE_COORD_MAX mid-walk
            refused = ["simulate", bd, "--x0", "1", "--t-max", "1e12", "--seed", seed]
            rows.append(_with_budget("_TRAJECTORY_BUDGET", 5000, _cli, refused))
            rows.append(_with_budget("_TRAJECTORY_BUDGET", 5000, _cli_out, refused, out))
            start = str(STATE_COORD_MAX - 2)
            for flags in (["--jumps", "1000000"], ["--t-max", "1e9"]):
                refused = ["simulate", str(growth), "--x0", start, *flags, "--seed", seed]
                rows.append(_cli(refused))
                rows.append(_cli_out(refused, out))
        rows[:] = [row.replace(tmp, "") for row in rows]

    rows = groups["truncated_stationary regions"] = []
    cubic, paired, drain = parse(CUBIC), parse(PAIRED), parse(DRAIN)
    cycle, loop = catalog.five_complex_cycle(), catalog.creation_annihilation_loop()
    bd, birth = catalog.birth_death(2.0, 1.0), catalog.pure_birth(1.0)
    far = [(top, 0, top), (top - 1, 1, top), (top, 1, top - 1), (0, top, 3)]
    cases = [
        # products past int64: the object path
        (cubic, _box((top - 5, top))),
        (cubic, _box((top - 30, top))),
        (cubic, [(top - 40,), (top - 39,), (top - 1,), (top,)]),
        (paired, _box((top - 2, top), (top - 2, top))),
        (paired, _box((top - 3, top), (0, 2))),
        # scattered regions whose bounding box passes 2**63 cells
        (cycle, _box((0, 2), (0, 2), (0, 2)) + far),
        (loop, _box((0, 2), (0, 2), (0, 2)) + far),
        (cycle, far),
        (loop, _box((top - 2, top), (0, 2), (top - 2, top)) + [(0, 0, 0), (1, 0, 0)]),
        # transient states
        (birth, _box((0, 5))),
        (drain, _box((0, 2), (0, 3))),
        (bd, _box((0, 6)) + [(40,)]),
        # states whose every move leaves the region
        (birth, [(4,)]),
        (birth, [(0,), (1,), (2,), (7,)]),
        (bd, _box((0, 5)) + [(20,)]),
        (drain, [(1, 9), (0, 0), (0, 1)]),
    ]
    for system, region in cases:
        rows.append(_estimate(truncated_stationary, system, region))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cubic.crn"
        path.write_text(CUBIC)
        argv = ["stationary", str(path), "--region", f"{top - 5}..{top}"]
        rows.append(_cli(argv).replace(tmp, ""))
    return groups


def _reach(system, x0, cap) -> str:
    """A ``ReachabilityReport`` with its sets sorted, or its error."""
    try:
        got = reachable_states(system, x0, cap=cap)
    except (ValueError, CRNError) as e:
        return f"{type(e).__name__}: {e}"
    return repr(
        (got.start, sorted(got.states), got.truncated, sorted(got.absorbing), got.min_total_rate)
    )


#: Exploration caps: the smaller ones truncate every infinite state space.
CAPS = (1, 3, 4, 60, 3000)
#: A closed network (A + B conserved): every start reaches finitely many states.
CLOSED = "species: A, B\nA + B -> 2B ; k=1.5\nB -> A ; k=0.5\n"


def reach_answers():
    """The third test's groups: ``reachable_states`` on the catalog and
    demo systems from two states at caps that truncate and, on the
    conserving ones, caps that do not, with its refusals; and ``crnkit
    analyze`` on the demo files without the scan and with ``--reach-from``."""
    groups = {}
    rows = groups["reachable_states"] = []
    closed = parse(CLOSED)
    systems = _systems()
    cases = systems + [("CLOSED", closed, (3, 2)), ("CLOSED", closed, (0, 5))]
    for name, system, x0 in cases:
        far = tuple(40 + 7 * i for i in range(system.network.dim))
        for x in (x0, far):
            for cap in CAPS:
                rows += [repr((name, x, cap)), _reach(system, x, cap)]
    isomers, birth = catalog.reversible_isomers(), catalog.pure_birth()
    rows.append(_reach(isomers, (0, 0), 1))  # absorbing from the start
    for cap in (40, 41, 42):  # about the 41 states of A + B = 40
        rows.append(_reach(isomers, (20, 20), cap))
    for cap in (1, 2):  # past STATE_COORD_MAX once the next state is expanded
        rows.append(_reach(birth, (STATE_COORD_MAX,), cap))
    for cap in (0, -1, 2.5, "3"):
        rows.append(_reach(isomers, (1, 1), cap))
    for x0 in ((1,), (1, -1), (1, STATE_COORD_MAX + 1)):
        rows.append(_reach(isomers, x0, 10))

    rows = groups["cli analyze"] = []
    for path, (_, system, x0) in zip(sorted(NETWORKS.glob("*.crn")), systems[-6:]):
        dim = system.network.dim
        x0 = ",".join(map(str, x0))
        rows.append(_cli(["analyze", str(path)]))
        for cap in ("1", "4", "60", "10000"):
            rows.append(_cli(["analyze", str(path), "--reach-from", x0, "--reach-cap", cap]))
        rows.append(_cli(["analyze", str(path), "--reach-from", ",".join(["0"] * dim)]))
        for bad in ("1", ",".join(["-1"] * dim), "a" * dim, ",".join(["1"] * (dim + 1))):
            rows.append(_cli(["analyze", str(path), "--reach-from", bad]))
        for cap in ("0", "-3", "x"):
            rows.append(_cli(["analyze", str(path), "--reach-from", x0, "--reach-cap", cap]))
    return groups


#: Texts that parse, each down a less common path of the parser.
GOOD_TEXTS = (
    "A -> B ; k=1\n",
    "  A+B->2C;k=1.5  \n\n\t2 C <->  A ; k = 2 , 0.5 # trailing comment\n",
    "# leading comment\nspecies: C, B, A\nA -> 0 ; k=3e-2\n0 -> A ; k=.5\n",
    "A + A + B -> B ; k=1\nB -> 2A ; k=1E3\n",
    "999A -> 0 ; k=1\n0 -> A ; k=2.\n",
    "species -> A ; k=1\nspeciesX + A -> species ; k=2\n",
    "0 <-> S ; k=+1, 1e-300\n",
    "X1 + _y -> 2X1 ; k=1\n2X1 -> _y ; k=0.1\n_y -> 0 ; k=7\n",
    "species: A, B, Unused\nA <-> B ; k=1, 2\n",
    "A -> B ; k=1\r\nB -> A ; k=2\r\n",
)
#: Texts that do not parse: one or more per ``ParseError`` the parser raises,
#: on first and later lines and at several columns.
BAD_TEXTS = (
    "",
    "# only a comment\n",
    "species: A\n",
    "A -> ; k=1\n",
    "A => B ; k=1\n",
    "A -> B k=1\n",
    "A -> B ; j=1\n",
    "A -> B ; k 1\n",
    "A -> B ; k=\n",
    "A -> B ;\n",
    "A -> B ; k=0\n",
    "A -> B ; k=-2\n",
    "A -> B ; k=1e999\n",
    "A <-> B ; k=1\n",
    "A -> B ; k=1, 2\n",
    "A <-> B ; k=1, 0\n",
    "A <-> B ; k=1,\n",
    "A -> A ; k=1\n",
    "A + B -> B + A ; k=1\n",
    "A -> B ; k=1\nA -> B ; k=2\n",
    "A <-> B ; k=1, 1\nB -> A ; k=2\n",
    "A -> B ; k=1 extra\n",
    "species: A, A\nA -> 0 ; k=1\n",
    "species: A\nspecies: B\nA -> 0 ; k=1\n",
    "species: A\nA -> B ; k=1\n",
    "species: A,\nA -> 0 ; k=1\n",
    "species: A B\nA -> 0 ; k=1\n",
    "1000A -> B ; k=1\n",
    "0A -> B ; k=1\n",
    "500A + 500A -> 0 ; k=1\n",
    "A -> B ; k=1\n\n# comment\n   B ->  ; k=1\n",
    "A -> B ; k=1\nB -> 2 ; k=1\n",
    "A -> B ; k=1\n  A + -> B ; k=1\n",
    "A -> B ; k=nan\n",
    "A -> B ; k=1 # fine\nC -> D ; k=2 ;\n",
)


def _parsed(text) -> str:
    """The statements and the system that ``text`` parses to, or its
    ``ParseError``'s message, line and column."""
    try:
        doc = parse_document(text)
        system = parse(text)
    except ParseError as e:
        return repr((str(e), e.message, e.line, e.column))
    net = system.network
    reactions = [r.format(net.species) for r in net.reactions]
    return repr((doc.statements, net.species, reactions, system.rate_constants))


def parse_answers():
    """The fourth test's groups: ``parse`` on the demo files, the good and
    the bad texts and the catalog's canonical texts; ``serialize`` on the
    catalog and demo systems and on the good texts, with both round trips
    (text to system to text, system to text to system)."""
    demos = [path.read_text() for path in sorted(NETWORKS.glob("*.crn"))]
    systems = [getattr(catalog, name)() for name in CATALOG]
    systems += [parse(text) for text in demos + list(GOOD_TEXTS)]
    groups = {}
    rows = groups["parse"] = []
    for text in demos + list(GOOD_TEXTS) + list(BAD_TEXTS):
        rows += [repr(text), _parsed(text)]
    rows = groups["serialize"] = []
    for system in systems:
        text = serialize(system)
        again = parse(text)
        rows += [text, repr(again == system), repr(serialize(again) == text), _parsed(text)]
    return groups


def digests(answers=answers):
    return {
        group: hashlib.sha256("\n".join(rows).encode()).hexdigest()
        for group, rows in answers().items()
    }


def test_sampler_answers_equal_the_recorded_digests():
    want = json.loads(DIGEST.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    differing = [group for group in want if got[group] != want[group]]
    assert not differing, f"answers differ in: {', '.join(differing)}"


def test_path_answers_equal_the_recorded_digests():
    want = json.loads(PATH_DIGEST.read_text())
    got = digests(path_answers)
    assert sorted(got) == sorted(want)
    differing = [group for group in want if got[group] != want[group]]
    assert not differing, f"answers differ in: {', '.join(differing)}"


def test_reachability_answers_equal_the_recorded_digests():
    want = json.loads(REACH_DIGEST.read_text())
    got = digests(reach_answers)
    assert sorted(got) == sorted(want)
    differing = [group for group in want if got[group] != want[group]]
    assert not differing, f"answers differ in: {', '.join(differing)}"


def test_parse_answers_equal_the_recorded_digests():
    want = json.loads(PARSE_DIGEST.read_text())
    got = digests(parse_answers)
    assert sorted(got) == sorted(want)
    differing = [group for group in want if got[group] != want[group]]
    assert not differing, f"answers differ in: {', '.join(differing)}"


def _drift(*args, **kwargs):
    """The exact drift as a float, or its refusal's type and message."""
    try:
        return exact_kstep_drift(*args, **kwargs)
    except (ValueError, CRNError) as e:
        return f"{type(e).__name__}: {e}"


def drift_answers() -> dict:
    """Case name -> ``exact_kstep_drift``'s answer: each catalog and demo
    system from three states at several k, then one case per refusal."""
    cases = {}
    for name, system, start in _systems():
        dim = system.network.dim
        near = tuple(c + 2 for c in start)
        far = tuple(40 + 7 * i for i in range(dim))
        for x in (start, near, far):
            for k in (1, 2, 4, 7):
                cases[f"{name} {x} k={k}"] = _drift(system, x, k)
    cases["absorbing start"] = _drift(catalog.reversible_isomers(), (0, 0), 3)
    cases["k above the budget"] = _drift(catalog.birth_death(), (5,), 40, budget=39)
    cases["pairs past the budget"] = _drift(catalog.birth_death(), (5,), 30, budget=200)
    cases["coordinate past STATE_COORD_MAX"] = _drift(catalog.pure_birth(), (STATE_COORD_MAX,), 2)
    cases["NaN budget"] = _drift(catalog.birth_death(), (5,), 3, budget=math.nan)
    cases["negative k"] = _drift(catalog.birth_death(), (5,), -1)
    return cases


def test_exact_drift_values_equal_the_recorded_values():
    want = json.loads(DRIFT.read_text())
    got = drift_answers()
    assert sorted(got) == sorted(want)
    for case, value in want.items():
        if isinstance(value, str):  # a refusal: its type and message
            assert got[case] == value, case
        else:
            assert isinstance(got[case], float), (case, got[case])
            assert math.isclose(got[case], value, rel_tol=1e-12, abs_tol=1e-12), case


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        DIGEST.write_text(json.dumps(digests(), indent=2) + "\n")
        PATH_DIGEST.write_text(json.dumps(digests(path_answers), indent=2) + "\n")
        REACH_DIGEST.write_text(json.dumps(digests(reach_answers), indent=2) + "\n")
        PARSE_DIGEST.write_text(json.dumps(digests(parse_answers), indent=2) + "\n")
    elif sys.argv[1:] == ["--write-drift"]:
        DRIFT.write_text(json.dumps(drift_answers(), indent=2) + "\n")
    else:
        sys.exit("usage: test_answer_digest.py --write | --write-drift")
