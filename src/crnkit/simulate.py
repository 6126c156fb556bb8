"""Trajectory simulation and stationary diagnostics for mass-action chains.

All randomness comes from numpy's counter-based Philox generator (Salmon
et al., SC 2011).  A run with seed s uses the stream of
``SeedSequence(s)``; replica r of a multi-replica estimate uses
``SeedSequence(s, spawn_key=(r,))``.  Equal seeds therefore give identical
trajectories, and replicas are independent and reproducible; replica sweeps
run them one after another.

Each stream comes from its key, ``SeedSequence(...).generate_state(2,
np.uint64)`` as two Python ints, which ``_DrawBlock.start`` sets with a zero
counter on the one ``Philox`` a sampler call owns; that is the key
``Philox`` takes from the sequence itself, so the draws are the same.
A replica sweep derives its keys without building a ``SeedSequence`` per
replica.  The seed is mixed once (``SeedSequence(s).pool``, which also
validates it); the spawn word r is then mixed in and the two 64-bit output
words hashed as numpy integer arithmetic over chunks of replica indices,
step for step as ``SeedSequence(s, spawn_key=(r,)).generate_state(2,
np.uint64)`` does.

Every sampler iterates the same direct-method walk (Gillespie 1977), which
yields one jump at a time and stops after an optional number of jumps.
Each jump consumes exactly two variates, one exponential for the holding
time and one uniform for the reaction choice.  numpy draws them in blocks of
4096, in place, into two ``array("d")`` buffers a sampler call allocates
once, and the walk indexes those buffers as Python floats; the
embedded-chain sampler shares this discipline, so it visits exactly the
states of the full simulation with the same seed.

A sampler call works out each state's jump law once, as a record: the state,
the running sums of the rates, the last being their total, a slot per
reaction for the record of the successor it leads to, filled when first
taken, and one value the sampler may cache per state (the time average keeps
the state's holding-time sum there).  The walk follows these links from
record to record, so it looks a state up in the call's memo only when a slot
is first filled.  The memo is emptied whenever it holds ``_MEMO_MAX``
states, and once more when the call ends; emptying it cuts every record's
links, so no reference cycle outlives the call.  Bisection over the sums
picks the reaction a linear scan of the rates would, so trajectories are
unchanged byte for byte.

``ssa_simulate`` and ``crnkit simulate`` share one trajectory walk,
``_Trajectory``, which checks the bounds, starts the draws, applies the
horizon and names the reason the trajectory ended.  ``ssa_simulate`` caches
each state's int64 bytes on its record and copies them once a row; the
command line caches each state's row text instead.
"""

from __future__ import annotations

import math
import numbers
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .errors import AmbiguousRegionError, BudgetExceededError
from .kinetics import _lyapunov_sum, _rates, _region_moves, lyapunov, lyapunov_difference
from .network import STATE_COORD_MAX, MassActionSystem, State, _count, as_state

__all__ = [
    "TrajectorySample",
    "ReturnTimeStats",
    "StationaryEstimate",
    "ssa_simulate",
    "embedded_chain_simulate",
    "return_times",
    "occupancy_estimate",
    "truncated_stationary",
    "drift_estimate_mc",
    "lyapunov_sublevel",
]

_BLOCK = 4096
_KEY_CHUNK = 4096  # replica keys derived per vectorised pass
_MEMO_MAX = 2**12  # states a sampler call remembers before it forgets them all
_JUMP_BUDGET = 10**7  # jumps a sampler call without a jump bound may take
_TRAJECTORY_BUDGET = 10**6  # the same for a trajectory, which stores every jump

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_M32, _SHIFT, _HIGH = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)


def _replica_keys(seed, replicas: range) -> Iterator[list]:
    """Philox key of each replica index in ``replicas``, in order: the ints
    of ``SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)``.

    The spawned sequence's entropy is the seed's words, zero-padded to the
    pool size, followed by the spawn word r.  Its pool is the seed's pool
    with r mixed into each of the four words, at the hash constant the
    seed's words left behind.  Spawn words of r >= 2**32, and seeds that
    are not integers, take the per-replica ``SeedSequence``.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)  # validates
    integral = isinstance(seed, numbers.Integral)
    if integral:
        # hashmix steps before the spawn word: 4 fill the pool, 12 mix it
        # pairwise, and each seed word past the pool takes 4 more
        words = max(1, -(-int(seed).bit_length() // 32))
        hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) % 2**32
    for lo in range(0, len(replicas), _KEY_CHUNK):
        chunk = replicas[lo : lo + _KEY_CHUNK]
        if not (integral and chunk[-1] < 2**32):
            for r in chunk:
                spawned = np.random.SeedSequence(seed, spawn_key=(r,))
                yield spawned.generate_state(2, np.uint64).tolist()
            continue
        r = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.uint64)
        out = []
        h_a, h_b = hash_a, _INIT_B
        for word in pool:
            # hashmix(r), then mix it into this pool word
            h = r ^ np.uint64(h_a)
            h_a = h_a * _MULT_A % 2**32
            h = h * np.uint64(h_a) & _M32
            h ^= h >> _SHIFT
            m = (_MIX_L * word - _MIX_R * h) & _M32
            m ^= m >> _SHIFT
            # generate_state's hash of this output word
            m ^= np.uint64(h_b)
            h_b = h_b * _MULT_B % 2**32
            m = m * np.uint64(h_b) & _M32
            m ^= m >> _SHIFT
            out.append(m)
        # little-endian pairs of 32-bit words make the two 64-bit words
        yield from np.stack([out[0] | out[1] << _HIGH, out[2] | out[3] << _HIGH], 1).tolist()


class _DrawBlock:
    """Blocked draws from one ``Philox``: ``start(key)`` begins the stream
    of a Philox key (two Python ints) with a zero counter and an empty
    buffer.  Each jump takes one exponential and one uniform, drawn
    ``block`` at a time into two ``array("d")`` buffers allocated once, so
    ``exps[pos]`` and ``unis[pos]`` are Python floats serving jump ``pos``
    of the block; ``_walk`` calls ``refill`` once ``pos`` reaches ``block``.
    ``spent`` counts the jumps drawn before the last refill or start, so
    ``spent + pos`` is the call's jump count; once ``spent`` reaches
    ``budget``, the refill raises: the walk checks nothing, and a call takes
    under budget + block jumps."""

    def __init__(self, block: int = _BLOCK, budget: float = math.inf):
        self.bits = np.random.Philox(0)
        self.rng = np.random.Generator(self.bits)
        self.state = self.bits.state  # a fresh Philox: empty buffer
        # zero counter and buffer: the setter reads Python ints twice as fast as arrays
        self.state["state"]["counter"] = self.state["buffer"] = [0, 0, 0, 0]
        self.block = block
        self.budget = budget
        self.exps, self.unis = array("d", [0.0]) * block, array("d", [0.0]) * block
        self.views = np.frombuffer(self.exps), np.frombuffer(self.unis)  # filled in place
        self.spent = self.pos = 0

    def start(self, key: list) -> "_DrawBlock":
        self.state["state"]["key"] = key
        self.bits.state = self.state
        self.refill()
        return self

    def refill(self) -> None:
        self.spent += self.pos
        if self.spent >= self.budget:
            raise BudgetExceededError(
                f"stopped after {self.spent} jumps: the horizon needs more "
                f"than the budget of {self.budget} jumps"
            )
        exps, unis = self.views
        self.rng.standard_exponential(out=exps)
        self.rng.random(out=unis)
        self.pos = 0


class _StateMemo(dict):
    """Jump-law records by state tuple, each built from the rate ``table``
    on first use, with ``value(state)`` cached on it when ``value`` is given.

    A sampler call keeps one for its own length, as a context manager that
    clears it on exit.  It is emptied once it holds ``_MEMO_MAX`` states,
    so a trajectory that never revisits a state keeps memory bounded.
    Records link to each other, so ``clear`` cuts every record's successor
    slots first.
    """

    def __init__(self, table: tuple, value: Optional[Callable] = None):
        self.table, self.value = table, value

    def __missing__(self, x: State) -> _JumpLaw:
        if len(self) >= _MEMO_MAX:
            self.clear()
        law = _JumpLaw()
        rates, law.total = _rates(self.table, x)
        law.state, law.sums = x, list(accumulate(rates))
        law.succ = [None] * len(rates)
        law.value = None if self.value is None else self.value(x)
        self[x] = law
        return law

    def clear(self) -> None:
        for law in self.values():
            law.succ = None
        super().clear()

    def __enter__(self) -> "_StateMemo":
        return self

    def __exit__(self, *exc) -> None:
        self.clear()


class _JumpLaw:
    """A state's jump law, built by ``_StateMemo``: the state, the running
    sums of its rates, their ``total`` (the last sum; 0.0 when the state is
    absorbing), one successor slot per reaction, None until ``_walk`` fills
    it, and one ``value`` a sampler may cache."""

    __slots__ = ("state", "sums", "total", "succ", "value")


def _walk(
    laws: _StateMemo, x: State, draws: _DrawBlock, jumps: int = -1
) -> Iterator[Tuple[float, _JumpLaw]]:
    """Direct-method jumps from the state tuple ``x``: yields (holding time,
    record of the next state) per jump, and returns after ``jumps`` jumps
    (never, when negative) or at an absorbing state, where it consumes no
    draws.

    ``laws`` is the call's memo of jump-law records.
    The reaction is the first whose running sum exceeds the uniform times
    the total, else the last.  A filled successor slot holds the next
    state's record, so the memo is consulted only the first time a slot is
    filled; that is also where the successor is built and checked against
    ``STATE_COORD_MAX``."""
    table = laws.table
    top = len(table) - 1
    law = laws[x]
    while jumps and law.total:
        jumps -= 1
        total = law.total
        if draws.pos == draws.block:
            draws.refill()
        pos = draws.pos
        draws.pos = pos + 1
        j = bisect_right(law.sums, draws.unis[pos] * total, 0, top)
        succ = law.succ
        nxt = succ[j]
        if nxt is None:
            y = list(law.state)
            for i, c in table[j][2]:
                y[i] += c
                if y[i] > STATE_COORD_MAX:
                    raise ValueError(
                        f"state coordinate exceeded supported maximum {STATE_COORD_MAX} "
                        "during simulation"
                    )
            nxt = succ[j] = laws[tuple(y)]  # may clear the memo, cutting law
        yield draws.exps[pos] / total, nxt
        law = nxt


TERMINATED_MAX_TIME = "max_time"
TERMINATED_MAX_JUMPS = "max_jumps"
TERMINATED_ABSORBED = "absorbed"


@dataclass(frozen=True)
class TrajectorySample:
    """A simulated trajectory: jump times (starting at 0.0) and the state
    after each jump, row-aligned."""

    times: np.ndarray
    states: np.ndarray
    seed: int
    terminated_by: str

    @property
    def final_state(self) -> State:
        return tuple(int(v) for v in self.states[-1])

    def __len__(self) -> int:
        return len(self.times)


class _Trajectory:
    """One seeded direct-method trajectory, for ``ssa_simulate`` and the
    command line alike.

    Construction checks the bounds and the start state and starts the
    draws.  Iterating yields the jump-law record of each row's state, the
    start state's first, each carrying ``value(state)`` when ``value`` is
    given, and appends the row's time to ``times`` (0.0 first).  It stops
    before the jump that would cross ``max_time``, after ``max_jumps`` jumps
    or at an absorbing state, and then sets ``terminated_by``.
    """

    def __init__(self, system, x0, max_time, max_jumps, seed, value=None):
        if max_time is None and max_jumps is None:
            raise ValueError("give max_time and/or max_jumps")
        if max_time is not None and not max_time >= 0:
            raise ValueError(f"max_time must be nonnegative, got {max_time}")
        if max_jumps is None and not math.isfinite(max_time):
            raise ValueError(f"max_time must be finite without max_jumps, got {max_time}")
        if max_jumps is not None:
            max_jumps = _count(max_jumps, "max_jumps")
        self.x = as_state(x0, system.network.dim)
        budget = _TRAJECTORY_BUDGET if max_jumps is None else math.inf
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
        self.draws = _DrawBlock(budget=budget).start(key)
        self.table, self.value = system._rate_table, value
        self.max_time, self.max_jumps = max_time, max_jumps
        self.times = array("d")
        self.terminated_by = None

    def __iter__(self) -> Iterator[_JumpLaw]:
        horizon = math.inf if self.max_time is None else self.max_time
        jumps = -1 if self.max_jumps is None else self.max_jumps
        draws, append = self.draws, self.times.append
        t = 0.0
        with _StateMemo(self.table, self.value) as laws:
            append(t)
            yield laws[self.x]
            for dt, law in _walk(laws, self.x, draws, jumps):
                t += dt
                if t > horizon:
                    self.terminated_by = TERMINATED_MAX_TIME  # the jump is not recorded
                    return
                append(t)
                yield law
        # spent + pos counts the jumps taken
        full = draws.spent + draws.pos == self.max_jumps
        self.terminated_by = TERMINATED_MAX_JUMPS if full else TERMINATED_ABSORBED


def ssa_simulate(
    system: MassActionSystem,
    x0: Iterable[int],
    *,
    max_time: Optional[float] = None,
    max_jumps: Optional[int] = None,
    seed: int = 0,
) -> TrajectorySample:
    """Simulate the chain by the stochastic simulation (direct) algorithm.

    Runs until the time horizon ``max_time`` would be crossed, ``max_jumps``
    jumps have fired, or an absorbing state is reached; at least one finite
    bound must be given.  Without ``max_jumps``, a run past 10**6 jumps
    (``_TRAJECTORY_BUDGET``) raises ``BudgetExceededError``, so such a run
    stores at most 10**6 + 4096 rows.  Trajectories are identical byte for
    byte across runs with equal seeds.
    """
    # each record carries its state's int64 bytes, copied once a row
    pack = struct.Struct(f"{system.network.dim}q").pack
    walk = _Trajectory(system, x0, max_time, max_jumps, seed, lambda x: pack(*x))
    states = array("q")
    extend = states.frombytes
    for law in walk:
        extend(law.value)
    return TrajectorySample(
        times=np.asarray(walk.times, dtype=np.float64),
        states=np.asarray(states, dtype=np.int64).reshape(-1, system.network.dim),
        seed=seed,
        terminated_by=walk.terminated_by,
    )


def embedded_chain_simulate(
    system: MassActionSystem,
    x0: Iterable[int],
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    """States of the embedded (jump) chain, initial state included.

    Shares the draw discipline of ``ssa_simulate``: with equal seeds the
    rows equal the states of the full simulation.  Stops early at an
    absorbing state, so the result has up to ``steps`` + 1 rows.
    """
    sample = ssa_simulate(system, x0, max_jumps=steps, seed=seed)
    return sample.states


@dataclass(frozen=True)
class ReturnTimeStats:
    """First-return times to a target set, one replica each.

    A return is the first entry into the target after having left it at
    least once; times are continuous (chain) time from the replica's start.
    Replicas that do not return within the horizon are only counted in
    ``non_returning``.
    """

    target_description: str
    times: np.ndarray
    non_returning: int
    replicas: int
    horizon: float

    @property
    def mean(self) -> Optional[float]:
        return float(np.mean(self.times)) if len(self.times) else None

    @property
    def median(self) -> Optional[float]:
        return float(np.median(self.times)) if len(self.times) else None

    @property
    def max(self) -> Optional[float]:
        return float(np.max(self.times)) if len(self.times) else None


class _Sublevel:
    """The predicate V(x) <= cutoff; ``return_times`` tests the states its
    walk builds with ``unchecked``."""

    def __init__(self, cutoff: float):
        self.cutoff = cutoff
        self.description = f"V <= {cutoff}"

    def __call__(self, x) -> bool:
        return lyapunov(x) <= self.cutoff

    def unchecked(self, x: State) -> bool:
        return _lyapunov_sum(x) <= self.cutoff


def lyapunov_sublevel(cutoff: float) -> Callable[[State], bool]:
    """Predicate for the sublevel set {x : V(x) <= cutoff}."""
    return _Sublevel(cutoff)


def return_times(
    system: MassActionSystem,
    x0: Iterable[int],
    target: Callable[[State], bool],
    *,
    horizon: float,
    replicas: int,
    seed: int = 0,
    target_description: Optional[str] = None,
) -> ReturnTimeStats:
    """Sample first-return times to ``target`` from ``x0`` over independent
    replicas.

    ``x0`` must itself satisfy the target predicate.  Each replica runs
    until it has left the target set and come back (recording the return
    time), reached an absorbing state outside the target, or exhausted the
    time horizon.  A ``lyapunov_sublevel`` target is tested once per
    distinct state; any other target is called once per jump and once for
    ``x0``.  Past 10**7 jumps (``_JUMP_BUDGET``) over all replicas the call
    raises ``BudgetExceededError``.
    """
    x_start = as_state(x0, system.network.dim)
    if not target(x_start):
        raise ValueError(f"start state {x_start} is not in the target set")
    replicas = _count(replicas, "replicas", 1)
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    desc = (
        target_description
        if target_description is not None
        else getattr(target, "description", "user predicate")
    )

    sublevel = type(target) is _Sublevel
    laws = _StateMemo(system._rate_table, target.unchecked if sublevel else None)

    def run(draws: _DrawBlock) -> Optional[float]:
        t = 0.0
        left = False
        for dt, law in _walk(laws, x_start, draws):
            t += dt
            if t > horizon:
                return None
            if law.value if sublevel else target(law.state):
                if left:
                    return t
            else:
                left = True
        return None  # stuck outside the target (or inside, pre-exit)

    draws = _DrawBlock(budget=_JUMP_BUDGET)
    with laws:
        results = [run(draws.start(key)) for key in _replica_keys(seed, range(replicas))]
    returned = [t for t in results if t is not None]
    return ReturnTimeStats(
        target_description=desc,
        times=np.asarray(returned, dtype=np.float64),
        non_returning=sum(1 for t in results if t is None),
        replicas=replicas,
        horizon=float(horizon),
    )


@dataclass(frozen=True)
class StationaryEstimate:
    """A probability vector over an explicit support of states."""

    support: tuple
    probabilities: np.ndarray
    method: str
    detail: str

    def as_dict(self) -> Dict[State, float]:
        return {s: float(p) for s, p in zip(self.support, self.probabilities)}

    def probability_of(self, state) -> float:
        state = tuple(state)
        for s, p in zip(self.support, self.probabilities):
            if s == state:
                return float(p)
        return 0.0


def occupancy_estimate(
    system: MassActionSystem,
    x0: Iterable[int],
    t_max: float,
    seed: int = 0,
) -> StationaryEstimate:
    """Empirical occupancy over [0, t_max]: holding time per state divided by
    the total.  The interval from the last jump to the horizon counts, and a
    trajectory absorbed at time t leaves all remaining weight on the
    absorbing state (a point mass when ``x0`` itself is absorbing).  Past
    10**7 jumps (``_JUMP_BUDGET``) the call raises ``BudgetExceededError``.
    A state's holding times are summed in jump order, in a one-element list
    that every record of the state holds as its value.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    x = as_state(x0, system.network.dim)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
    draws = _DrawBlock(budget=_JUMP_BUDGET).start(key)
    cells: Dict[State, list] = {}
    t = 0.0
    with _StateMemo(system._rate_table, cells.get) as laws:
        law = laws[x]
        for dt, nxt in _walk(laws, x, draws):
            if t + dt >= t_max:
                break
            if law.value is None:  # the state's first holding time
                law.value = cells[law.state] = [dt]
            else:
                law.value[0] += dt
            t += dt
            law = nxt
    cells.setdefault(law.state, [0.0])[0] += t_max - t  # to the horizon or absorbed
    support = tuple(sorted(cells))
    probs = np.asarray([cells[s][0] for s in support], dtype=np.float64)
    probs /= probs.sum()
    return StationaryEstimate(
        support=support,
        probabilities=probs,
        method="time_average",
        detail=f"time average over [0, {t_max:g}], seed {seed}",
    )


def truncated_stationary(
    system: MassActionSystem,
    region: Iterable[Iterable[int]],
) -> StationaryEstimate:
    """Stationary distribution of the chain censored to a finite region.

    Each state's transitions are its ``kinetics._moves``; those leaving the
    region are discarded (their rate is dropped, not redirected).  The
    censored chain must have exactly one closed communicating class inside
    the region, else ``AmbiguousRegionError``.
    Its law comes from sparse direct solves: one with the normalization in
    place of a balance equation locates the most probable state; with pi
    fixed to 1 there, the other balance equations form a nonsingular
    M-matrix system whose solution is nonnegative.  Transient states get
    zero mass, and ``detail`` ends with the residual |pi Q|_1.

    The moves of all the region's states come from one array pass,
    ``kinetics._region_moves``, and every matrix is built in canonical
    compressed form straight from the sorted (row, column, rate) triplets.
    """
    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    def compressed(kind, major, minor, data, size):
        # triplets sorted by (major, minor), none repeated
        indptr = np.searchsorted(major, np.arange(size + 1))
        return kind((data, minor, indptr), shape=(size, size))

    dim = system.network.dim
    states = sorted({as_state(s, dim) for s in region})
    if not states:
        raise ValueError("region is empty")
    n = len(states)
    rows, cols, vals = _region_moves(system, np.array(states, dtype=np.int64).reshape(n, dim))
    rates = compressed(csr_matrix, rows, cols, vals, n)

    n_comp, labels = connected_components(rates, directed=True, connection="strong")
    src, dst = labels[rows], labels[cols]
    leaks = np.zeros(n_comp, dtype=bool)
    leaks[src[src != dst]] = True
    closed = [np.flatnonzero(labels == c).tolist() for c in np.flatnonzero(~leaks)]
    if len(closed) != 1:
        raise AmbiguousRegionError(
            f"censored region splits into {len(closed)} closed communicating "
            "classes; truncate to one of them",
            tuple(sorted(tuple(states[i] for i in members) for members in closed)),
        )
    members = closed[0]
    m = len(members)
    # the class's moves, renumbered; none leaves a closed class
    inside = labels == labels[members[0]]
    keep = inside[rows]
    renumber = np.cumsum(inside) - 1
    rows, cols, vals = renumber[rows[keep]], renumber[cols[keep]], vals[keep]
    sub = compressed(csr_matrix, rows, cols, vals, m)
    # Q = sub - diag(row sums), with the entries that come out 0 dropped,
    # as sparse subtraction drops them; its CSR arrays read as CSC are Q^T,
    # and balance reads q_t @ pi = 0
    diag = 0.0 - np.asarray(sub.sum(axis=1)).ravel()
    at = np.flatnonzero(diag != 0)
    rows, cols = np.concatenate([rows, at]), np.concatenate([cols, at])
    vals = np.concatenate([vals, diag[at]])
    order = np.argsort(rows * m + cols)
    rows, cols, vals = rows[order], cols[order], vals[order]
    q_t = compressed(csc_matrix, rows, cols, vals, m)
    pi = np.ones(m)
    if m > 1:
        # balance with sum(pi) = 1 in place of one equation locates the mode;
        # this ordering keeps the fill from the dense row low.  Column j of
        # the system is row j of Q without its last column, then a 1.0
        unit = np.zeros(m)
        unit[-1] = 1.0
        kept = cols < m - 1
        index = np.arange(m)
        major = np.concatenate([rows[kept], index])
        minor = np.concatenate([cols[kept], np.full(m, m - 1)])
        order = np.argsort(major * m + minor)
        data = np.concatenate([vals[kept], np.ones(m)])[order]
        normalized = compressed(csc_matrix, major[order], minor[order], data, m)
        rough = spsolve(normalized, unit, permc_spec="MMD_AT_PLUS_A")
        # fix pi to 1 there: the rest is a nonsingular M-matrix system, well
        # conditioned because that state carries the most mass (a light
        # reference state can leave it singular in floating point)
        ref = np.argmax(rough)
        rest = index != ref
        # column ref of q_t, less its own row, moves to the right-hand side,
        # and the other rows and columns close up over ref
        moved = (rows == ref) & (cols != ref)
        inner = (rows != ref) & (cols != ref)
        column = np.zeros(m - 1)
        column[cols[moved] - (cols[moved] > ref)] = vals[moved]
        major, minor = rows[inner], cols[inner]
        reduced = compressed(
            csc_matrix, major - (major > ref), minor - (minor > ref), vals[inner], m - 1
        )
        pi[rest] = spsolve(reduced, -column)
    pi /= pi.sum()
    residual = float(np.abs(q_t @ pi).sum())
    probs = np.zeros(n)
    probs[members] = pi
    return StationaryEstimate(
        support=tuple(states),
        probabilities=probs,
        method="truncated_solve",
        detail=(
            f"censored solve on {n} states "
            f"({n - m} transient), residual {residual:.1e}"
        ),
    )


def drift_estimate_mc(
    system: MassActionSystem,
    x: Iterable[int],
    k: int,
    replicas: int,
    seed: int = 0,
) -> Tuple[float, float]:
    """Monte Carlo estimate of the k-step embedded drift E[V(Z_k) - V(Z_0)].

    Each replica walks the jump chain k steps (an absorbing state freezes V)
    and evaluates the Lyapunov difference coordinate-wise.  Returns (mean,
    standard error); k = 0 gives exactly (0.0, 0.0).
    """
    k = _count(k, "k")
    replicas = _count(replicas, "replicas", 2)  # two for a standard error
    x_start = as_state(x, system.network.dim)
    np.random.SeedSequence(seed)  # rejects a bad seed as the replica keys do
    if k == 0:
        return 0.0, 0.0

    laws = _StateMemo(system._rate_table)
    start = laws[x_start]

    def run(draws: _DrawBlock) -> float:
        end = start
        for _, end in _walk(laws, x_start, draws, k):
            pass
        if end.value is None:  # the end state's difference, cached on its record
            end.value = lyapunov_difference(
                x_start, tuple(a - b for a, b in zip(end.state, x_start))
            )
        return end.value

    draws = _DrawBlock(min(k, _BLOCK))  # a k-step replica consumes at most k draw pairs
    with laws:
        values = np.array([run(draws.start(key)) for key in _replica_keys(seed, range(replicas))])
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(replicas))
    return mean, stderr
