"""Replica sweeps split with the helper process.

A long sweep may hand the first half of its remaining replicas to one helper
process (``crnkit._helper``).  These tests force every sweep of three or
more replicas to split, by patching the probe and the cut-off to zero once
the helper is ready, and check each answer against the same sweep run
in-process: values, refusals and their messages.  The last tests check
that no helper outlives the process that started it, and that a one-shot
command, a forked child and a second thread never use one.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from crnkit import _helper, catalog, parse, simulate
from crnkit.errors import BudgetExceededError
from crnkit.kinetics import lyapunov
from crnkit.network import STATE_COORD_MAX
from crnkit.simulate import _replica_keys, drift_estimate_mc, lyapunov_sublevel, return_times
from oracles import return_times_by_rates

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
NETWORKS = REPO / "demos" / "networks"
SEEDS = (0, 1, 2**32, 2**64 + 3)
BD = catalog.birth_death(2.0, 1.0)
#: Catalog and demo systems, each with a start state away from the origin.
SYSTEMS = [
    (name, getattr(catalog, name)())
    for name in (
        "five_complex_cycle",
        "creation_annihilation_loop",
        "three_class_network",
        "birth_death",
        "pure_birth",
        "reversible_isomers",
        "pair_annihilation",
    )
] + [(path.name, parse(path.read_text())) for path in sorted(NETWORKS.glob("*.crn"))]


def _start(dim):
    return tuple(i % 3 + 1 for i in range(dim))


def _ready_helper(monkeypatch):
    """This process's helper, started if need be and waited for."""
    if _helper._usable_cpus() < 2:
        pytest.skip("a sweep splits only with two usable CPUs")
    helper = _helper.HELPER
    if helper.pid is None:
        monkeypatch.setattr(_helper, "_START_S", 0.0)
        helper.claim()  # starts it; it is not ready yet
    deadline = time.monotonic() + 60
    while not helper.claim():
        assert helper.pid == os.getpid() and helper.proc is not None, "the helper was dropped"
        assert time.monotonic() < deadline, "the helper did not become ready"
        time.sleep(0.01)
    helper.lock.release()
    return helper


@pytest.fixture
def split(monkeypatch):
    """Every sweep of three or more replicas splits after its first
    replica; yields the list of requests sent to the helper."""
    helper = _ready_helper(monkeypatch)
    sent = []
    send = helper.send

    def counted(fn, *args):
        sent.append(args)
        return send(fn, *args)

    monkeypatch.setattr(helper, "send", counted)
    monkeypatch.setattr(simulate, "_PROBE_S", 0.0)
    monkeypatch.setattr(simulate, "_SPLIT_S", 0.0)
    yield sent
    assert helper.proc is not None, "a sweep dropped the helper"


def in_process(monkeypatch, call):
    """``call()`` with no sweep split, or its error's type and message."""
    with monkeypatch.context() as m:
        m.setattr(simulate, "_SPLIT_S", float("inf"))
        return outcome(call)


def outcome(call):
    try:
        got = call()
    except (ValueError, BudgetExceededError) as e:
        return f"{type(e).__name__}: {e}"
    if isinstance(got, simulate.ReturnTimeStats):
        return repr((got.target_description, got.times.tobytes(), got.non_returning, got.replicas))
    return repr(got)


def drift(system, x, k, replicas, seed):
    return lambda: drift_estimate_mc(system, x, k, replicas=replicas, seed=seed)


def returns(system, x0, replicas, seed, horizon=10.0, level=None):
    target = lyapunov_sublevel(lyapunov(level or x0))
    return lambda: return_times(system, x0, target, horizon=horizon, replicas=replicas, seed=seed)


# ---------------------------------------------------------------------------
# keys of a replica range


def test_replica_keys_of_a_range_equal_the_slice_of_the_whole():
    # the helper derives the keys of its range alone; they are the keys the
    # whole sweep derives for those replicas, across a key chunk and past
    # one 32-bit spawn word
    for seed in SEEDS:
        whole = list(_replica_keys(seed, range(8200)))
        for lo, hi in ((1, 5), (4090, 4100), (4095, 4097), (4096, 4097), (1, 4097), (3000, 8200)):
            assert list(_replica_keys(seed, range(lo, hi))) == whole[lo:hi]
        base = 2**32 - 4100
        whole = list(_replica_keys(seed, range(base, 2**32 + 6)))
        for lo in (2**32 - 4, 2**32 - 1, 2**32, 2**32 + 3):
            assert list(_replica_keys(seed, range(lo, 2**32 + 6))) == whole[lo - base :]


# ---------------------------------------------------------------------------
# split sweeps against the same sweeps in-process


@pytest.mark.parametrize("name, system", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_split_sweeps_equal_in_process_on_catalog_and_demo_systems(
    monkeypatch, split, name, system
):
    x0 = _start(system.network.dim)
    calls = []
    for seed in SEEDS:
        calls.append(drift(system, x0, 3, 40, seed))
        calls.append(returns(system, x0, 12, seed))
    want = [in_process(monkeypatch, call) for call in calls]
    assert [outcome(call) for call in calls] == want
    assert len(split) == len(calls)


def test_split_sweeps_equal_in_process_around_the_split_point_and_the_key_chunk(
    monkeypatch, split
):
    # with the helper's part at half, after the first replica it takes
    # replicas [1, 1 + round((n - 1) / 2)): none for n = 2, and for
    # n = 8191..8193 a range that ends at 4096 or 4097, a key chunk's length
    # from its start
    calls = [drift(BD, (5,), 2, n, 1) for n in (2, 3, 4, 5, 8191, 8192, 8193)]
    calls += [returns(BD, (3,), n, 2) for n in (1, 2, 3, 4, 5, 4097)]
    want = [in_process(monkeypatch, call) for call in calls]
    got = []
    for call in calls:
        monkeypatch.setattr(_helper.HELPER, "share", 0.5)
        got.append(outcome(call))
    assert got == want
    assert sorted(hi - lo for lo, hi in (args[5:7] for args in split)) == [
        1, 1, 2, 2, 2, 2, 2048, 4095, 4096, 4096
    ]


def test_split_sweeps_past_the_jump_budget_raise_as_in_process(monkeypatch, split):
    # the refusal of the answer digest: the halves' jumps together reach the
    # budget, so the sweep reruns in-process and raises its message
    monkeypatch.setattr(simulate, "_JUMP_BUDGET", 5000)
    call = returns(BD, (1,), 300, 1, horizon=1e9, level=(3,))
    want = in_process(monkeypatch, call)
    assert want.startswith("BudgetExceededError: stopped after")
    assert outcome(call) == want
    assert len(split) == 1


def test_split_sweeps_past_the_coordinate_bound_raise_as_in_process(monkeypatch, split):
    # S -> 2S and S -> 0 at equal rates from STATE_COORD_MAX - 2: a replica
    # leaves the supported range when its three jumps are all births.  Take a
    # seed whose first crossing replica c >= 2, and sweeps in which c falls
    # in the helper's half and in the caller's
    growth = parse("species: S\nS -> 2S ; k=1.0\nS -> 0 ; k=1.0\n")
    x = (STATE_COORD_MAX - 2,)

    def first_crossing(seed):
        for n in range(2, 200):
            if in_process(monkeypatch, drift(growth, x, 3, n, seed)).startswith("ValueError"):
                return n - 1
        return None

    seed, c = next((s, c) for s in range(100) if (c := first_crossing(s)) and c >= 2)
    for n in (2 * c + 2, 2 * c - 1):  # c in [1, c + 1), then in [c, n)
        call = drift(growth, x, 3, n, seed)
        want = in_process(monkeypatch, call)
        assert "exceeded supported maximum" in want
        assert outcome(call) == want
    assert len(split) == 2


def test_user_predicate_sweeps_stay_in_process(monkeypatch, split):
    calls = []

    def low(x):
        calls.append(x)
        return x[0] <= 1

    stats = return_times(BD, (1,), low, horizon=30.0, replicas=40, seed=5)
    times, non_returning, landings = return_times_by_rates(
        BD, (1,), lambda x: x[0] <= 1, 30.0, 40, 5
    )
    assert len(calls) == landings + 1
    assert (stats.times.tobytes(), stats.non_returning) == (times.tobytes(), non_returning)
    assert split == []


def test_sampler_digests_hold_with_every_sweep_split(split):
    # the recorded return_times and drift_estimate_mc groups, answered with
    # every sweep of three or more replicas split
    from test_answer_digest import DIGEST, digests

    want = json.loads(DIGEST.read_text())
    got = digests()
    assert [got[g] for g in ("return_times", "drift_estimate_mc")] == [
        want[g] for g in ("return_times", "drift_estimate_mc")
    ]
    assert split


# ---------------------------------------------------------------------------
# who uses the helper, and how it ends


def test_second_thread_runs_in_process_while_the_helper_is_busy(monkeypatch, split):
    call = drift(BD, (5,), 3, 200, 4)
    want = in_process(monkeypatch, call)
    got = []
    with _helper.HELPER.lock:  # as while another thread's sweep is split
        thread = threading.Thread(target=lambda: got.append(outcome(call)))
        thread.start()
        thread.join(60)
    assert not thread.is_alive()
    assert got == [want]
    assert split == []
    assert outcome(call) == want
    assert len(split) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_in_process(monkeypatch, split):
    call = drift(BD, (5,), 3, 200, 6)
    want = in_process(monkeypatch, call)
    pid = os.fork()
    if pid == 0:  # the child: never the parent's helper
        try:
            os._exit(0 if outcome(call) == want and split == [] else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert outcome(call) == want
    assert len(split) == 1


#: Runs long sweeps with the default settings until one splits, prints the
#: helper's process id, then does what the argument says.
LONG_SWEEPS = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
from crnkit import _helper, catalog, simulate
helper, sent = _helper.HELPER, []
send = helper.send
helper.send = lambda *args: sent.append(1) or send(*args)
system, deadline = catalog.birth_death(), time.monotonic() + 60
while not sent and time.monotonic() < deadline:
    simulate.drift_estimate_mc(system, (20,), 5, 1400, seed=1)
print(helper.proc.pid if sent else -1, flush=True)
if sys.argv[1] == "stay":
    time.sleep(60)
"""


def _ended(pid) -> bool:
    """Whether process ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def _long_sweeps(then):
    if _helper._usable_cpus() < 2:
        pytest.skip("a sweep splits only with two usable CPUs")
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    child = subprocess.Popen(
        [sys.executable, "-c", LONG_SWEEPS, then], stdout=subprocess.PIPE, text=True
    )
    pid = int(child.stdout.readline())
    assert pid > 0, "no sweep split"
    return child, pid


def test_no_helper_outlives_the_process_that_started_it():
    child, pid = _long_sweeps("exit")
    try:
        assert child.wait(60) == 0
    finally:
        child.kill()
        child.stdout.close()
    assert _ended(pid)


def test_helper_of_a_killed_process_exits_within_a_second():
    child, pid = _long_sweeps("stay")
    assert not _ended(pid)
    child.send_signal(signal.SIGKILL)
    child.wait(60)
    child.stdout.close()
    deadline = time.monotonic() + 1.0
    while not _ended(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _ended(pid)


def test_one_drift_command_starts_no_helper():
    script = f"""
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {str(SRC)!r})
from crnkit import _helper
from crnkit.cli import main
with redirect_stdout(io.StringIO()):
    code = main(["drift", {str(NETWORKS / "loop.crn")!r}, "--k", "4", "--x", "30,30,30",
                 "--mc", "300"])
print(code, _helper.HELPER.pid, "subprocess" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split() == ["0", "None", "False"]
