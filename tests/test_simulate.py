"""Simulation tests: determinism, exact invariants, and seeded statistical
checks (chi-square, Kolmogorov-Smirnov, total variation) at significance
levels far below anything a correct sampler would trip."""

import gc
import math
from contextlib import contextmanager
from functools import partial
from itertools import islice, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from crnkit import MassActionSystem, ReactionNetwork, parse
from crnkit import simulate
from crnkit.catalog import (
    birth_death,
    creation_annihilation_loop,
    five_complex_cycle,
    pair_annihilation,
    pure_birth,
    reversible_isomers,
    three_class_network,
)
from crnkit.errors import AmbiguousRegionError, BudgetExceededError, CRNError
from crnkit.kinetics import (
    _moves,
    _region_moves,
    _region_pooled,
    embedded_step_distribution,
    lyapunov,
    total_rate,
)
from crnkit.network import STATE_COORD_MAX
from crnkit.simulate import (
    _DrawBlock,
    _replica_keys,
    _StateMemo,
    _walk,
    drift_estimate_mc,
    embedded_chain_simulate,
    lyapunov_sublevel,
    occupancy_estimate,
    return_times,
    ssa_simulate,
    truncated_stationary,
)
from crnkit.tiers import exact_kstep_drift
import oracles
from oracles import (
    EagerDrawBlock,
    drift_mc_by_rates,
    occupancy_by_rates,
    poisson_truncated,
    pooled_rates_by_reactions,
    replica_generator,
    return_times_by_rates,
    ssa_by_rates,
    stationary_by_moves,
    step_by_rates,
)

BD = birth_death(2.0, 1.0)
ISO = reversible_isomers(1.0, 1.0)


def tv_distance(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def seed_key(seed):
    """The Philox key of a single run's stream, as two Python ints."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()


def seed_generator(seed):
    """A single run's stream built from the seed's ``SeedSequence``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# trajectory mechanics


def test_trajectory_starts_at_time_zero_in_initial_state():
    s = ssa_simulate(BD, (3,), max_jumps=10, seed=0)
    assert s.times[0] == 0.0
    assert tuple(s.states[0]) == (3,)


def test_times_and_states_are_row_aligned_and_increasing():
    s = ssa_simulate(BD, (0,), max_time=30.0, seed=1)
    assert len(s.times) == len(s.states)
    assert np.all(np.diff(s.times) > 0)
    assert np.all(s.states >= 0)


def test_max_jumps_is_exact():
    s = ssa_simulate(BD, (0,), max_jumps=57, seed=2)
    assert len(s) == 58
    assert s.terminated_by == "max_jumps"


def test_max_time_stops_before_the_crossing_jump():
    s = ssa_simulate(BD, (0,), max_time=25.0, seed=3)
    assert s.terminated_by == "max_time"
    assert s.times[-1] <= 25.0


def test_equal_seeds_give_identical_trajectories():
    a = ssa_simulate(BD, (0,), max_time=100.0, seed=9)
    b = ssa_simulate(BD, (0,), max_time=100.0, seed=9)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


def test_different_seeds_give_different_trajectories():
    a = ssa_simulate(BD, (0,), max_jumps=50, seed=0)
    b = ssa_simulate(BD, (0,), max_jumps=50, seed=1)
    assert not np.array_equal(a.times, b.times)


def test_embedded_chain_equals_full_simulation_states():
    emb = embedded_chain_simulate(BD, (0,), steps=200, seed=4)
    full = ssa_simulate(BD, (0,), max_jumps=200, seed=4)
    assert np.array_equal(emb, full.states)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_samplers_reject_non_finite_horizons(bad):
    with pytest.raises(ValueError, match="max_time"):
        ssa_simulate(BD, (1,), max_time=bad)
    with pytest.raises(ValueError, match="t_max"):
        occupancy_estimate(BD, (1,), bad)
    with pytest.raises(ValueError, match="horizon"):
        return_times(BD, (1,), lyapunov_sublevel(5.0), horizon=bad, replicas=2)


def test_infinite_max_time_is_no_bound_beside_max_jumps():
    sample = ssa_simulate(BD, (1,), max_time=math.inf, max_jumps=7, seed=2)
    assert len(sample) == 8
    assert sample.terminated_by == "max_jumps"


def test_horizon_bound_samplers_stop_at_the_jump_budget(monkeypatch):
    block = simulate._BLOCK
    # a trajectory stores every jump, so it has a budget of its own
    monkeypatch.setattr(simulate, "_TRAJECTORY_BUDGET", 2 * block)
    with pytest.raises(BudgetExceededError, match=f"after {2 * block} jumps"):
        ssa_simulate(BD, (1,), max_time=1e12)
    monkeypatch.setattr(simulate, "_JUMP_BUDGET", 2 * block)
    with pytest.raises(BudgetExceededError, match="budget of"):
        occupancy_estimate(BD, (1,), 1e12)
    with pytest.raises(BudgetExceededError, match="budget of"):
        return_times(
            pure_birth(), (1,), lyapunov_sublevel(1.0), horizon=1e12, replicas=2
        )
    # a jump bound replaces the budget
    sample = ssa_simulate(BD, (1,), max_time=1e12, max_jumps=3 * block)
    assert sample.terminated_by == "max_jumps"
    # the replicas of one call share the budget: a few hundred short
    # excursions pass, a few thousand run past it
    monkeypatch.setattr(simulate, "_JUMP_BUDGET", block)
    return_times(BD, (1,), lyapunov_sublevel(1.0), horizon=1e3, replicas=100)
    with pytest.raises(BudgetExceededError):
        return_times(BD, (1,), lyapunov_sublevel(1.0), horizon=1e3, replicas=3000)
    # the budget is checked only as a draw block refills
    monkeypatch.setattr(simulate, "_TRAJECTORY_BUDGET", 10)
    assert 10 < len(ssa_simulate(BD, (1,), max_time=100.0)) < block


def test_absorbed_trajectory_terminates_early():
    decay = parse("species: A, B\nA -> B ; k=1.0")
    s = ssa_simulate(decay, (3, 0), max_time=1e6, seed=5)
    assert s.terminated_by == "absorbed"
    assert s.final_state == (0, 3)
    assert len(s) == 4  # three decays, then nothing can fire


def test_simulate_requires_a_stopping_bound():
    with pytest.raises(ValueError, match="max_time"):
        ssa_simulate(BD, (0,), seed=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_conserved_total_is_exact_along_any_trajectory(seed):
    s = ssa_simulate(ISO, (4, 1), max_jumps=300, seed=seed)
    assert np.all(s.states.sum(axis=1) == 5)


# ---------------------------------------------------------------------------
# distributional checks on the sampler


def _visits_from(system, state, steps, seed):
    """Successor-state counts and holding times observed from one state."""
    sample = ssa_simulate(system, state, max_jumps=steps, seed=seed)
    successors = {}
    holds = []
    for row in range(len(sample) - 1):
        here = tuple(int(v) for v in sample.states[row])
        if here != state:
            continue
        nxt = tuple(int(v) for v in sample.states[row + 1])
        successors[nxt] = successors.get(nxt, 0) + 1
        holds.append(sample.times[row + 1] - sample.times[row])
    return successors, np.asarray(holds)


def test_jump_choice_matches_embedded_step_distribution():
    successors, _ = _visits_from(BD, (1,), steps=120_000, seed=6)
    dist = embedded_step_distribution(BD, (1,))
    total = sum(successors.values())
    assert total >= 10_000
    observed = [successors.get(nxt, 0) for nxt in sorted(dist)]
    expected = [dist[nxt] * total for nxt in sorted(dist)]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 1e-3


def test_holding_times_are_exponential_at_the_total_rate():
    _, holds = _visits_from(BD, (1,), steps=120_000, seed=7)
    lam = total_rate(BD, (1,))
    assert lam == 3.0
    assert len(holds) >= 10_000
    result = stats.kstest(holds, "expon", args=(0.0, 1.0 / lam))
    assert result.pvalue > 1e-3


def test_occupancy_close_to_censored_stationary_solution():
    occ = occupancy_estimate(BD, (0,), t_max=20_000.0, seed=8)
    sol = truncated_stationary(BD, [(i,) for i in range(41)])
    assert tv_distance(occ.as_dict(), sol.as_dict()) < 0.02


def test_occupancy_weights_include_the_final_partial_interval():
    occ = occupancy_estimate(BD, (0,), t_max=5.0, seed=9)
    assert math.isclose(float(occ.probabilities.sum()), 1.0, rel_tol=1e-12)


def test_occupancy_of_absorbed_trajectory_concentrates_on_the_trap():
    decay = parse("species: A, B\nA -> B ; k=1.0")
    occ = occupancy_estimate(decay, (3, 0), t_max=1000.0, seed=10)
    assert occ.method == "time_average"
    assert occ.probability_of((0, 3)) > 0.95


# ---------------------------------------------------------------------------
# censored stationary solve


def test_censored_birth_death_matches_truncated_poisson():
    # birth 2, death n: detailed balance gives a Poisson(2) profile, and the
    # mass beyond the box is ~1e-34, far below the comparison tolerance
    sol = truncated_stationary(BD, [(i,) for i in range(41)])
    weights = np.array([2.0**k / math.factorial(k) for k in range(41)])
    poisson = weights / weights.sum()
    assert np.max(np.abs(sol.probabilities - poisson)) < 1e-8
    prefix, residual = sol.detail.split(", residual ")
    assert prefix == "censored solve on 41 states (0 transient)"
    assert float(residual) < 1e-12


def test_censored_detailed_balance_pair_is_a_poisson_product():
    # 0 <-> A at 2/1, 0 <-> B at 3/1 and A <-> B at 3/2 are in detailed
    # balance with Poisson(2) x Poisson(3), which the box censoring keeps
    system = parse(
        "species: A, B\n0 <-> A ; k=2, 1\n0 <-> B ; k=3, 1\nA <-> B ; k=3, 2"
    )
    sol = truncated_stationary(system, [(a, b) for a in range(16) for b in range(16)])
    pa, pb = poisson_truncated(2.0, 15), poisson_truncated(3.0, 15)
    expected = np.array([pa[a] * pb[b] for a, b in sol.support])
    assert np.max(np.abs(sol.probabilities - expected)) < 1e-13


def test_censored_wide_birth_death_is_nonnegative_and_accurate():
    sol = truncated_stationary(birth_death(50.0, 1.0), [(i,) for i in range(301)])
    assert np.all(sol.probabilities >= 0.0)
    expected = np.array(poisson_truncated(50.0, 300))
    assert np.max(np.abs(sol.probabilities - expected)) < 1e-13


def test_censored_solve_is_exact_where_the_first_state_is_negligible():
    # Poisson(1000) on 0..1300: pi(0) is about e^-1000, so balance solved
    # with pi fixed at state 0 is singular in floating point
    sol = truncated_stationary(birth_death(1000.0, 1.0), [(i,) for i in range(1301)])
    assert np.all(sol.probabilities >= 0.0)
    expected = np.array(poisson_truncated(1000.0, 1300))
    assert np.max(np.abs(sol.probabilities - expected)) < 1e-13


def test_censored_solve_keeps_relative_accuracy_across_rate_scales():
    # pi(1)/pi(2) = 2/b and pi(0)/pi(1) = 1/b: rates twenty orders apart
    b = 1e20
    sol = truncated_stationary(birth_death(b, 1.0), [(0,), (1,), (2,)])
    expected = np.array([2 / b**2, 2 / b, 1.0])
    assert np.allclose(sol.probabilities, expected / expected.sum(), rtol=1e-12, atol=0)


def test_censored_isomer_pair_is_binomial_one_half():
    sol = truncated_stationary(ISO, [(2, 0), (1, 1), (0, 2)])
    assert sol.method == "truncated_solve"
    expected = {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
    for state, p in expected.items():
        assert math.isclose(sol.probability_of(state), p, abs_tol=1e-10)


def test_censored_solve_reports_transient_states_with_zero_mass():
    sol = truncated_stationary(pure_birth(1.0), [(0,), (1,), (2,)])
    assert sol.probability_of((0,)) == 0.0
    assert sol.probability_of((1,)) == 0.0
    assert sol.probability_of((2,)) == 1.0


def test_region_spanning_two_conservation_classes_is_ambiguous():
    region = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    with pytest.raises(AmbiguousRegionError) as info:
        truncated_stationary(ISO, region)
    assert len(info.value.classes) == 2
    sizes = sorted(len(c) for c in info.value.classes)
    assert sizes == [3, 4]


def test_single_state_region_is_a_point_mass():
    sol = truncated_stationary(BD, [(5,)])
    assert sol.support == ((5,),)
    assert sol.probabilities[0] == 1.0


def test_empty_region_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        truncated_stationary(BD, [])


DEMOS = Path(__file__).resolve().parents[1] / "demos" / "networks"
#: The catalog and demo networks, with two whose sources reach order 3 and
#: 4, so that rates near the coordinate limit pass int64.
REGION_SYSTEMS = [
    ("cycle", five_complex_cycle()),
    ("loop", creation_annihilation_loop()),
    ("three_class", three_class_network()),
    ("birth_death", BD),
    ("pure_birth", pure_birth(1.0)),
    ("isomers", reversible_isomers(0.3, 7.0)),
    ("annihilation", pair_annihilation(2.0, 0.5)),
    ("cubic", parse("species: A\n0 -> A ; k=1.5\n3A -> 2A ; k=0.25\n")),
    (
        "quartic",
        parse(
            "species: A, B, C\nA + B + 2C -> 3B ; k=0.5\nB -> A ; k=2\n"
            "0 <-> C ; k=3, 1\n2A <-> B ; k=0.75, 1.25\n"
        ),
    ),
] + [(path.stem, parse(path.read_text())) for path in sorted(DEMOS.glob("*.crn"))]

#: A coordinate near the origin or near ``STATE_COORD_MAX``.
COORD = st.one_of(st.integers(0, 5), st.integers(STATE_COORD_MAX - 5, STATE_COORD_MAX))


@st.composite
def censored_regions(draw):
    """(name, system, region): a box of up to 4 values a coordinate, each
    span near the origin or near the coordinate limit, or up to 40
    scattered states, whose bounding box can pass 2**63 cells."""
    name, system = draw(st.sampled_from(REGION_SYSTEMS))
    dim = system.network.dim
    if draw(st.booleans()):
        spans = []
        for _ in range(dim):
            lo, width = draw(COORD), draw(st.integers(0, 3))
            lo = min(lo, STATE_COORD_MAX - width)
            spans.append(range(lo, lo + width + 1))
        return name, system, list(product(*spans))
    states = st.tuples(*[COORD] * dim)
    return name, system, draw(st.lists(states, min_size=1, max_size=40))


def _censored(fn, system, region):
    """The estimate's support, probability bytes, method and detail, or the
    error's type, message and closed classes."""
    try:
        est = fn(system, region)
    except (ValueError, ArithmeticError, CRNError) as e:
        return type(e), str(e), getattr(e, "classes", None)
    return est.support, est.probabilities.tobytes(), est.method, est.detail


@contextmanager
def solver_inputs():
    """Record every matrix the censored solve and its oracle hand to
    ``connected_components`` and ``spsolve``: format, the compressed
    arrays and their index type, and the right-hand side's bytes."""
    import scipy.sparse.csgraph as csgraph
    import scipy.sparse.linalg as linalg

    calls = []
    graph, solve = csgraph.connected_components, linalg.spsolve

    def record(a, b=None):
        rhs = None if b is None else b.tobytes()
        calls.append((a.format, a.data.tobytes(), a.indices.tobytes(), a.indptr.tobytes(), rhs))

    def recording_graph(a, **kwargs):
        record(a)
        return graph(a, **kwargs)

    def recording_solve(a, b, **kwargs):
        record(a, b)
        return solve(a, b, **kwargs)

    csgraph.connected_components = oracles.connected_components = recording_graph
    linalg.spsolve = recording_solve
    try:
        yield calls
    finally:
        csgraph.connected_components = oracles.connected_components = graph
        linalg.spsolve = solve


@settings(max_examples=300, deadline=None)
@given(censored_regions())
def test_region_moves_equal_moves_state_by_state(case):
    name, system, region = case
    states = sorted(set(region))
    src, dst, rates = _region_moves(system, np.array(states, dtype=np.int64))
    assert np.all(np.diff(src * len(states) + dst) > 0), name  # sorted, none repeated
    got = [{} for _ in states]
    for i, j, lam in zip(src.tolist(), dst.tolist(), rates.tolist()):
        got[i][states[j]] = repr(lam)
    inside = set(states)
    for x, moves in zip(states, got):
        want = {y: repr(lam) for y, lam in _moves(system, x).items() if y in inside}
        assert moves == want, (name, x)


@settings(max_examples=300, deadline=None)
@given(censored_regions())
def test_truncated_stationary_equals_the_per_state_oracle(case):
    name, system, region = case
    with solver_inputs() as got_inputs:
        got = _censored(truncated_stationary, system, region)
    with solver_inputs() as want_inputs:
        want = _censored(stationary_by_moves, system, region)
    assert got == want, name
    # each matrix's (data, indices, indptr) and each right-hand side as before
    assert got_inputs == want_inputs, name


#: Reactions that share a net change (twins), with rates that round when
#: pooled, and a twin whose product passes int64 near the coordinate limit.
TWINS = parse(
    "species: A, B\nA -> B ; k=0.7\nA + B -> 2B ; k=1.3\n3A -> 2A + B ; k=0.001\n"
    "0 -> A ; k=2\nB -> A + B ; k=0.3\nB -> 0 ; k=1\n"
)


@st.composite
def twin_regions(draw):
    """("twins", TWINS, region): a box of up to 4 values a coordinate near
    the origin or near the coordinate limit."""
    spans = []
    for _ in range(2):
        lo = min(draw(COORD), STATE_COORD_MAX - 3)
        spans.append(range(lo, lo + draw(st.integers(0, 3)) + 1))
    return "twins", TWINS, list(product(*spans))


def _pooled_by_repr(changes, row, dim) -> dict:
    """A row of ``_region_pooled`` as net change -> ``repr`` of its nonzero
    pooled rate, the changes made dense as the oracle keys them."""
    out = {}
    for change, lam in zip(changes, row):
        if lam != 0.0:
            dense = [0] * dim
            for i, c in change:
                dense[i] = c
            out[tuple(dense)] = repr(lam)
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(censored_regions(), twin_regions()))
def test_region_pooled_equals_the_pooled_oracle_state_by_state(case):
    name, system, region = case
    states = sorted(set(region))
    dim = system.network.dim
    changes, pooled = _region_pooled(system, np.array(states, dtype=np.int64))
    assert pooled.shape == (len(states), len(changes)), name
    assert not (pooled < 0.0).any() and not np.isnan(pooled).any(), name
    assert len(set(changes)) == len(changes), name  # one column per net change
    for x, row in zip(states, pooled.tolist()):
        want = {h: repr(lam) for h, lam in pooled_rates_by_reactions(system, x).items()}
        # the zeros are exactly the changes that the oracle omits
        assert _pooled_by_repr(changes, row, dim) == want, (name, x)


def test_region_pooled_edge_networks():
    # a rate past the float range as a float, though its product converts
    huge = parse("species: A\n2A -> A ; k=1e300\n0 -> A ; k=1\n")
    states = [(0,), (1,), (2,), (10**8,)]
    changes, pooled = _region_pooled(huge, np.array(states, dtype=np.int64))
    assert changes == [((0, -1),), ((0, 1),)]
    assert pooled[3, 0] == pooled_rates_by_reactions(huge, (10**8,))[(-1,)] == math.inf
    for x, row in zip(states, pooled.tolist()):
        want = {h: repr(lam) for h, lam in pooled_rates_by_reactions(huge, x).items()}
        assert _pooled_by_repr(changes, row, 1) == want, x
    # a product past the float range raises as _rates does
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        _region_pooled(parse("40A <-> 41A ; k=1, 1\n"), np.array([(10**8 - 1,)]))
    # no reactions: one row per state, no column
    empty = MassActionSystem(ReactionNetwork.from_reactions(("A",), []), [])
    changes, pooled = _region_pooled(empty, np.array([(0,), (3,)], dtype=np.int64))
    assert changes == [] and pooled.shape == (2, 0)
    # the only source is the empty complex: every state has the rates kappa
    birth = parse("species: A, B\n0 -> A ; k=2\n0 -> 2B ; k=0.5\n")
    changes, pooled = _region_pooled(birth, np.array([(0, 0), (4, 9)], dtype=np.int64))
    assert changes == [((0, 1),), ((1, 2),)]
    assert pooled.tolist() == [[2.0, 0.5], [2.0, 0.5]]


def test_censored_solve_takes_products_past_int64_exactly():
    # rates of order 1e24 at 10**8: the int64 product would have wrapped
    cubic = dict(REGION_SYSTEMS)["cubic"]
    region = [(STATE_COORD_MAX - k,) for k in range(8)]
    assert _censored(truncated_stationary, cubic, region) == _censored(
        stationary_by_moves, cubic, region
    )
    x = (STATE_COORD_MAX,)
    src, dst, rates = _region_moves(cubic, np.array([(STATE_COORD_MAX - 1,), x]))
    assert (src.tolist(), dst.tolist()) == ([0, 1], [1, 0])  # the birth from x leaves
    assert repr(rates.tolist()[1]) == repr(_moves(cubic, x)[(STATE_COORD_MAX - 1,)])


# ---------------------------------------------------------------------------
# return times


def test_return_times_from_a_sublevel_set():
    target = lyapunov_sublevel(10.0)
    stats_ = return_times(
        BD, (1,), target, horizon=1e4, replicas=50, seed=11
    )
    assert stats_.replicas == 50
    assert stats_.non_returning == 0
    assert len(stats_.times) == 50
    assert stats_.target_description == "V <= 10.0"
    assert 0 < stats_.mean
    assert stats_.median <= stats_.max
    assert np.all(stats_.times > 0)


def test_transient_chain_never_returns():
    stats_ = return_times(
        pure_birth(1.0),
        (0,),
        lyapunov_sublevel(3.0),
        horizon=200.0,
        replicas=20,
        seed=12,
    )
    assert stats_.non_returning == 20
    assert len(stats_.times) == 0
    assert stats_.mean is None


def test_return_times_requires_start_inside_target():
    with pytest.raises(ValueError, match="not in the target"):
        return_times(
            BD, (50,), lyapunov_sublevel(1.0), horizon=10.0, replicas=2, seed=0
        )


def test_return_times_reproducible_across_calls():
    a = return_times(BD, (1,), lyapunov_sublevel(5.0), horizon=1e3, replicas=10, seed=13)
    b = return_times(BD, (1,), lyapunov_sublevel(5.0), horizon=1e3, replicas=10, seed=13)
    assert np.array_equal(a.times, b.times)


def test_replica_streams_do_not_depend_on_sweep_size():
    # replica r always draws from SeedSequence(seed, spawn_key=(r,)), so the
    # first m replicas of a larger sweep are exactly an m-replica sweep
    target = lyapunov_sublevel(5.0)
    full = return_times(BD, (1,), target, horizon=1e3, replicas=16, seed=14)
    head = return_times(BD, (1,), target, horizon=1e3, replicas=5, seed=14)
    assert full.non_returning == head.non_returning == 0
    assert np.array_equal(full.times[:5], head.times)


def test_sublevel_fast_path_equals_the_plain_predicate():
    # return_times tests lyapunov_sublevel through a memo of V's terms; any
    # other callable is called per state.  Both must agree byte for byte.
    cases = [
        (five_complex_cycle(), (1, 1, 1), 5.0),
        (creation_annihilation_loop(), (1, 1, 1), 5.0),
        (BD, (1,), 0.9),  # V(0) = 1 > 0.9: the zero state lies outside
    ]
    for system, x0, cutoff in cases:
        for seed in (0, 1, 2):
            fast = return_times(
                system, x0, lyapunov_sublevel(cutoff), horizon=50.0, replicas=10, seed=seed
            )
            plain = return_times(
                system,
                x0,
                lambda x: lyapunov(x) <= cutoff,
                horizon=50.0,
                replicas=10,
                seed=seed,
            )
            assert len(fast.times) > 0
            assert fast.times.tobytes() == plain.times.tobytes()
            assert fast.non_returning == plain.non_returning


# ---------------------------------------------------------------------------
# the per-call jump-law memo against the per-jump rates


KAPPA_TEXT = "species: A, B\n0 -> A ; k=0.7\n2A -> B ; k=0.013\nB -> A ; k=3.9\n"


def memo_cases():
    """(name, system, start) over the catalog, the demo files, a pure-birth
    network and networks with rate constants other than one."""
    cases = [
        ("cycle", five_complex_cycle(), (3, 1, 2)),
        ("cycle_kappa", five_complex_cycle((0.5, 2.0, 3.25, 1.5, 0.75)), (2, 2, 1)),
        ("loop", creation_annihilation_loop(), (2, 1, 1)),
        ("three_class", three_class_network(), (2, 1, 1, 2)),
        ("birth_death", BD, (4,)),
        ("pure_birth", pure_birth(1.5), (0,)),
        ("isomers", reversible_isomers(0.3, 7.0), (5, 2)),
        ("annihilation", pair_annihilation(2.0, 0.5), (3, 1)),
        ("kappa", parse(KAPPA_TEXT), (1, 0)),
        ("decay", parse("species: S\n2S -> 0 ; k=1.5\n"), (7,)),  # absorbed at S = 1
    ]
    demos = Path(__file__).resolve().parents[1] / "demos" / "networks"
    for path in sorted(demos.glob("*.crn")):
        system = parse(path.read_text())
        x0 = tuple(1 + i % 3 for i in range(system.network.dim))
        cases.append((path.stem, system, x0))
    return cases


@pytest.mark.parametrize("cap", [None, 1, 2, 8])
def test_memo_samplers_equal_the_per_jump_oracle(monkeypatch, cap):
    # caps of 2 and 8 states empty the memo every few jumps, successor
    # slots and all; at cap 1 every new state empties it
    if cap is not None:
        monkeypatch.setattr(simulate, "_MEMO_MAX", cap)
    for name, system, x0 in memo_cases():
        cutoff = lyapunov(x0)
        for seed in range(5):
            all_bounds = [{"max_jumps": 300}, {"max_time": 3.0}]
            if name == "birth_death":  # the second draw block refills mid-walk
                all_bounds.append({"max_jumps": 2 * simulate._BLOCK + 7})
            for bounds in all_bounds:
                got = ssa_simulate(system, x0, seed=seed, **bounds)
                times, states, terminated = ssa_by_rates(system, x0, seed, **bounds)
                assert got.times.tobytes() == times.tobytes(), (name, seed, bounds)
                assert got.states.tobytes() == states.tobytes(), (name, seed, bounds)
                assert got.terminated_by == terminated, (name, seed, bounds)
            est = occupancy_estimate(system, x0, 20.0, seed=seed)
            support, probs = occupancy_by_rates(system, x0, 20.0, seed)
            assert est.support == support, (name, seed)
            assert est.probabilities.tobytes() == probs.tobytes(), (name, seed)
            got = return_times(
                system, x0, lyapunov_sublevel(cutoff), horizon=10.0, replicas=6, seed=seed
            )
            times, non_returning, _ = return_times_by_rates(
                system, x0, lambda s: lyapunov(s) <= cutoff, 10.0, 6, seed
            )
            assert got.times.tobytes() == times.tobytes(), (name, seed)
            assert got.non_returning == non_returning, (name, seed)
            for k in (1, 25):
                got = drift_estimate_mc(system, x0, k, replicas=6, seed=seed)
                want = drift_mc_by_rates(system, x0, k, 6, seed)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (name, seed, k)


def test_memo_step_picks_the_oracle_reaction_at_ties_and_at_the_top():
    # rates 1, 0, 2, 0 at (1, 0): a uniform of 1/3 lands exactly on the first
    # running sum, and a uniform of 1 falls through to the last reaction
    system = parse(
        "species: A, B\nA -> 0 ; k=1.0\nB -> A ; k=1.0\nA -> 2A ; k=2.0\nB -> 0 ; k=1.0\n"
    )
    table = system._rate_table
    laws = _StateMemo(table)

    def draws(u):
        return SimpleNamespace(pos=0, block=1, unis=[u], exps=[1.0])

    for u in (0.0, 1 / 3, 0.5, 0.999, 1.0):
        x = [1, 0]
        dt, _ = step_by_rates(table, x, draws(u))
        # the first step from (1, 0) fills the reaction's successor slot,
        # the second reads it back
        for _ in range(2):
            got_dt, law = next(_walk(laws, (1, 0), draws(u)))
            assert (got_dt, law.state) == (dt, tuple(x)), u
    assert tuple(x) == (1, -1)  # (1, 0) moved by the last reaction, B -> 0


def test_memo_step_crosses_the_coordinate_limit_on_the_oracle_jump():
    # a walk that grows on average, started just below the limit: both
    # steps raise at the same jump, from the same state, after the same draws
    growth = parse("species: S\nS -> 2S ; k=2.0\nS -> 0 ; k=1.0\n")
    table = growth._rate_table
    crossings = []
    for seed in range(5):
        laws = _StateMemo(table)
        x, draws = (STATE_COORD_MAX - 2,), _DrawBlock().start(seed_key(seed))
        jumps = 0
        with pytest.raises(ValueError, match="exceeded supported maximum"):
            for jumps, (_, law) in enumerate(islice(_walk(laws, x, draws), 1000), 1):
                x = law.state
        y, oracle_draws = [STATE_COORD_MAX - 2], EagerDrawBlock(seed_generator(seed))
        with pytest.raises(ValueError, match="exceeded supported maximum"):
            for oracle_jumps in range(1000):
                step_by_rates(table, y, oracle_draws)
        assert (jumps, x, draws.pos) == (oracle_jumps, tuple(y), oracle_draws.pos)
        crossings.append(jumps)
        with pytest.raises(ValueError, match="exceeded supported maximum"):
            ssa_simulate(growth, (STATE_COORD_MAX - 2,), max_jumps=10**6, seed=seed)
    assert len(set(crossings)) > 1  # the limit falls at different jumps


def test_walk_stops_at_its_jump_limit_before_drawing_past_it():
    table = BD._rate_table
    for limit in (0, 1, 5, 300):
        laws = _StateMemo(table)
        draws = _DrawBlock().start(seed_key(4))
        got = [(dt, law.state) for dt, law in _walk(laws, (3,), draws, limit)]
        x, oracle = [3], EagerDrawBlock(seed_generator(4))
        assert got == [(step_by_rates(table, x, oracle)[0], tuple(x)) for _ in range(limit)]
        assert draws.pos == limit
    sample = ssa_simulate(BD, (3,), max_jumps=0, seed=4)
    assert (len(sample), sample.final_state, sample.terminated_by) == (1, (3,), "max_jumps")


def test_plain_return_target_is_called_once_per_jump_and_for_the_start():
    # only lyapunov_sublevel targets are memoised: a user predicate may be
    # impure, so it sees every state the walk lands on within the horizon
    calls = []

    def low(x):
        calls.append(x)
        return x[0] <= 1

    stats = return_times(BD, (1,), low, horizon=30.0, replicas=8, seed=5)
    times, non_returning, landings = return_times_by_rates(
        BD, (1,), lambda x: x[0] <= 1, 30.0, 8, 5
    )
    assert len(calls) == landings + 1
    assert stats.times.tobytes() == times.tobytes()
    assert stats.non_returning == non_returning


def records_in_cycles(call, raises=()):
    """Jump-law records that ``gc.collect()`` finds unreachable after
    ``call``, run with the collector off: records kept alive only by
    reference cycles between their successor slots."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable objects go to gc.garbage
    try:
        try:
            call()
        except raises:
            pass
        else:
            assert not raises, "the call should have raised"
        gc.collect()
        return sum(type(o) is simulate._JumpLaw for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("cap", [None, 2])
def test_samplers_leave_no_jump_law_records_in_cycles(monkeypatch, cap):
    # a cap of 2 states empties the memo every few jumps, records and all
    if cap is not None:
        monkeypatch.setattr(simulate, "_MEMO_MAX", cap)

    def walk_without_clearing():
        laws = _StateMemo(BD._rate_table)
        draws = _DrawBlock().start(seed_key(1))
        for _ in _walk(laws, (3,), draws, 500):
            pass

    # the check sees the cycles of a memo nobody clears
    assert records_in_cycles(walk_without_clearing) > 0
    growth = parse("species: S\nS -> 2S ; k=2.0\nS -> 0 ; k=1.0\n")
    sublevel = lyapunov_sublevel(lyapunov((3,)))
    calls = [
        lambda: ssa_simulate(BD, (3,), max_jumps=2000, seed=1),
        lambda: ssa_simulate(BD, (3,), max_time=50.0, seed=1),  # stops mid-walk
        lambda: occupancy_estimate(BD, (3,), 200.0, seed=1),
        lambda: return_times(BD, (3,), sublevel, horizon=100.0, replicas=20, seed=1),
        lambda: return_times(BD, (3,), lambda x: x[0] <= 3, horizon=100.0, replicas=20),
        lambda: drift_estimate_mc(BD, (3,), 25, replicas=50, seed=1),
    ]
    for call in calls:
        assert records_in_cycles(call) == 0
    for seed in range(3):
        crossing = partial(ssa_simulate, growth, (STATE_COORD_MAX - 2,), max_jumps=10**6, seed=seed)
        assert records_in_cycles(crossing, ValueError) == 0
    monkeypatch.setattr(simulate, "_JUMP_BUDGET", 5000)
    refused = partial(return_times, BD, (1,), sublevel, horizon=1e9, replicas=300, seed=1)
    assert records_in_cycles(refused, BudgetExceededError) == 0


# ---------------------------------------------------------------------------
# replica streams


KEY_SEEDS = (0, 1, 2**31 - 1, 2**32, 2**64 + 3, 2**200 + 99)
KEY_REPLICAS = (*range(10), *range(4090, 4101))  # straddles a key chunk boundary


def test_replica_keys_equal_spawned_seed_sequences():
    for seed in KEY_SEEDS:
        keys = list(_replica_keys(seed, range(4101)))
        assert len(keys) == 4101
        for r in KEY_REPLICAS:
            want = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)
            assert keys[r] == want.tolist()


def test_replica_keys_past_one_spawn_word_and_for_sequence_seeds():
    # spawn indices of two 32-bit words, and seeds given as word sequences
    for seed, replicas in ((7, range(2**32 - 3, 2**32 + 3)), ([1, 2**40], range(3))):
        for r, key in zip(replicas, _replica_keys(seed, replicas)):
            want = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)
            assert key == want.tolist()


def walk_pairs(draws, n):
    """(jump counter, exponential, uniform) of the next ``n`` jumps, taken
    from a ``_DrawBlock`` as ``_walk`` takes them."""
    out = []
    for _ in range(n):
        if draws.pos == draws.block:
            draws.refill()
        pos = draws.pos
        draws.pos = pos + 1
        out.append((draws.spent + pos, draws.exps[pos], draws.unis[pos]))
    return out


def eager_pairs(oracle, n):
    """The same from an ``EagerDrawBlock``, as ``step_by_rates`` takes them."""
    out = []
    for _ in range(n):
        if oracle.pos == oracle.block:
            oracle.refill()
        pos = oracle.pos
        oracle.pos = pos + 1
        out.append((oracle.spent + pos, oracle.exps[pos], oracle.unis[pos]))
    return out


def assert_equal_blocks(draws, oracle):
    # the block drawn on rekeying, then one drawn by a refill; the sweep's
    # jump counter runs on from the replicas before
    n, start = 2 * oracle.block, draws.spent
    got = [(j - start, e, u) for j, e, u in walk_pairs(draws, n)]
    assert got == eager_pairs(oracle, n)


def test_replica_draws_equal_per_replica_generators():
    for seed in KEY_SEEDS:
        # a block that is not a power of two, and drift_estimate_mc's block
        # of k jumps; replicas between the checked ones use part of theirs
        for block in (3000, 3):
            draws = _DrawBlock(block)
            for r, key in enumerate(_replica_keys(seed, range(4101))):
                draws.start(key)
                if r in KEY_REPLICAS:
                    oracle = EagerDrawBlock(replica_generator(seed, r), block)
                    assert_equal_blocks(draws, oracle)
                else:
                    walk_pairs(draws, r % 7)
            # a single run's stream, keyed by the seed itself
            draws = _DrawBlock(block).start(seed_key(seed))
            assert_equal_blocks(draws, EagerDrawBlock(seed_generator(seed), block))


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 255, 256, 257, 3000, simulate._BLOCK])
def test_chunked_draws_equal_eager_blocks_at_every_jump(block):
    # three blocks of each size: the jumps on both sides of the two refills
    # between them, and every jump of a block read in place
    for seed in (0, 7):
        draws = _DrawBlock(block).start(seed_key(seed))
        oracle = EagerDrawBlock(seed_generator(seed), block)
        got, want = walk_pairs(draws, 3 * block), eager_pairs(oracle, 3 * block)
        assert got == want
        assert [j for j, _, _ in got] == list(range(3 * block))


@pytest.mark.parametrize("budget", [1, 255, 256, 257, 4096, 5000, 9000])
def test_chunked_draws_exceed_the_budget_at_the_eager_jump(budget):
    # the budget is checked only when a block is drawn, so the refusal comes
    # at the first block boundary at or past it
    errors = []
    for draws, take in (
        (_DrawBlock(budget=budget).start(seed_key(3)), walk_pairs),
        (EagerDrawBlock(seed_generator(3), budget=budget), eager_pairs),
    ):
        jumps = 0
        with pytest.raises(BudgetExceededError) as raised:
            while True:
                take(draws, 1)
                jumps += 1
        errors.append((jumps, str(raised.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == -(-budget // simulate._BLOCK) * simulate._BLOCK


def test_replica_sweep_budget_counts_each_replica_at_its_next_key():
    # replicas of 300 jumps against a shared budget of 2000: replica 7 is
    # refused when its stream starts, after 2100 jumps
    draws = _DrawBlock(budget=2000)
    with pytest.raises(BudgetExceededError, match="after 2100 jumps") as raised:
        for r, key in enumerate(_replica_keys(5, range(100))):
            walk_pairs(draws.start(key), 300)
    assert r == 7


def test_walk_within_one_block_equals_the_oracle_step():
    # a walk of 700 jumps reads them all in place from its first block
    table = BD._rate_table
    for seed in (1, 2):
        laws = _StateMemo(table)
        draws = _DrawBlock().start(seed_key(seed))
        got = [(dt, law.state) for dt, law in islice(_walk(laws, (3,), draws), 700)]
        x, oracle = [3], EagerDrawBlock(seed_generator(seed))
        want = [(step_by_rates(table, x, oracle)[0], tuple(x)) for _ in range(700)]
        assert got == want
        assert draws.pos == 700


def test_replica_sweeps_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        drift_estimate_mc(BD, (5,), 1, replicas=10, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        return_times(BD, (1,), lyapunov_sublevel(5.0), horizon=10.0, replicas=2, seed=-1)


def test_drift_mc_rejects_a_negative_seed_at_zero_steps():
    # k = 0 needs no draws, but the seed is checked all the same
    with pytest.raises(ValueError, match="non-negative"):
        drift_estimate_mc(BD, (5,), 0, replicas=10, seed=-1)
    assert drift_estimate_mc(BD, (5,), 0, replicas=10, seed=3) == (0.0, 0.0)


def test_replica_sweeps_match_golden_values():
    # values of the per-replica SeedSequence implementation, pinned bit for bit
    systems = {
        "cycle": (five_complex_cycle(), (3, 1, 2)),
        "loop": (creation_annihilation_loop(), (2, 1, 1)),
        "birth_death": (BD, (5,)),
    }
    golden = {
        ("cycle", 1): (0.25055908853245257, 0.0660763535929516),
        ("cycle", 5): (0.5215000746282861, 0.06841536280530908),
        ("loop", 1): (1.0048095461927067, 0.04052762719454305),
        ("loop", 5): (1.6201919571356707, 0.08232015881020405),
        ("birth_death", 1): (-0.5617675022302342, 0.08439794171363886),
        ("birth_death", 5): (-1.8949296495184975, 0.11792759474475077),
    }
    for (name, k), want in golden.items():
        system, x = systems[name]
        assert drift_estimate_mc(system, x, k, replicas=300, seed=31) == want

    cycle = return_times(
        five_complex_cycle(), (1, 1, 1), lyapunov_sublevel(5.0),
        horizon=50.0, replicas=12, seed=32,
    )
    assert cycle.non_returning == 2
    assert cycle.times.tobytes() == bytes.fromhex(
        "5c290a4401cd2140016c4fccd2673a401c722f20e07c3840fb0b1f2745b63240"
        "0898d346ccb81c40dec6e7c410891b4096de4a25327a2b401064a6820a9d4540"
        "882349e3ac2214403c7000ca5ffc3a40"
    )
    bd = return_times(BD, (1,), lyapunov_sublevel(2.5), horizon=50.0, replicas=12, seed=32)
    assert bd.non_returning == 0
    assert bd.times.tobytes() == bytes.fromhex(
        "a65b64907449cc3fb82098188207ff3f9e4936587d01144028aa73e36f82ec3f"
        "92cc60e1dd283040bc785c354b3a0140c488e683c92127401f00818364160240"
        "74829f5e98522240edd08be2225a23406cc74e9326c807401a5ec94847d10a40"
    )


# ---------------------------------------------------------------------------
# Monte Carlo drift


def test_mc_drift_agrees_with_exact_recursion():
    exact = exact_kstep_drift(BD, (5,), 1)
    mean, stderr = drift_estimate_mc(BD, (5,), 1, replicas=20_000, seed=15)
    assert abs(mean - exact) < 4 * stderr


def test_mc_drift_agrees_for_multistep_walks():
    exact = exact_kstep_drift(BD, (3,), 3)
    mean, stderr = drift_estimate_mc(BD, (3,), 3, replicas=20_000, seed=16)
    assert abs(mean - exact) < 4 * stderr


def test_mc_drift_on_the_cycle_matches_exact():
    system = five_complex_cycle()
    exact = exact_kstep_drift(system, (10, 1, 0), 2)
    mean, stderr = drift_estimate_mc(system, (10, 1, 0), 2, replicas=20_000, seed=17)
    assert abs(mean - exact) < 4 * stderr


def test_mc_drift_zero_steps_is_exactly_zero():
    assert drift_estimate_mc(BD, (5,), 0, replicas=10, seed=0) == (0.0, 0.0)


def test_mc_drift_freezes_at_absorbing_states():
    decay = parse("species: A, B\nA -> B ; k=1.0")
    # from (1, 0) every path is absorbed after one step, at V-difference 0
    mean, stderr = drift_estimate_mc(decay, (1, 0), 25, replicas=100, seed=18)
    assert mean == 0.0
    assert stderr == 0.0


def test_mc_drift_needs_enough_replicas_for_an_error_bar():
    with pytest.raises(ValueError, match="replicas"):
        drift_estimate_mc(BD, (5,), 1, replicas=1, seed=0)


@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda: drift_estimate_mc(BD, (3,), 2.5, 10)),
        ("replicas", lambda: drift_estimate_mc(BD, (3,), 2, 10.5)),
        ("max_jumps", lambda: ssa_simulate(BD, (3,), max_jumps=2.5)),
        ("replicas", lambda: return_times(
            BD, (1,), lyapunov_sublevel(5.0), horizon=10.0, replicas=2.5
        )),
    ],
    ids=["drift_mc_k", "drift_mc_replicas", "ssa_max_jumps", "return_times_replicas"],
)
def test_non_integral_counts_are_rejected(name, call):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


def test_integral_float_counts_act_as_ints():
    a = ssa_simulate(BD, (3,), max_jumps=7.0, seed=1)
    b = ssa_simulate(BD, (3,), max_jumps=np.int64(7), seed=1)
    assert len(a) == 8 and np.array_equal(a.states, b.states)
    assert drift_estimate_mc(BD, (3,), 4.0, 10.0, seed=2) == drift_estimate_mc(
        BD, (3,), 4, 10, seed=2
    )
    sweep = return_times(BD, (1,), lyapunov_sublevel(5.0), horizon=10.0, replicas=3.0)
    assert sweep.replicas == 3 and type(sweep.replicas) is int
