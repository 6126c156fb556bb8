"""Kinetics: intensities, rates, Lyapunov function, generator, jump chain.

Expected numbers were frozen from the independent reference computations in
``oracles.py`` (explicit falling products and full path walks).
"""

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crnkit import (
    Complex,
    parse,
    embedded_step_distribution,
    generator_applied,
    intensity,
    lyapunov,
    lyapunov_difference,
    path_probability,
    reaction_rate,
    total_rate,
    transition_rates,
)
from crnkit.errors import AbsorbingStateError
from crnkit.catalog import (
    birth_death,
    creation_annihilation_loop,
    five_complex_cycle,
    pair_annihilation,
    reversible_isomers,
)
from crnkit.kinetics import _rates
from crnkit.network import STATE_COORD_MAX
from crnkit.tiers import exact_kstep_drift
from oracles import hand_intensity, hand_rates, v_value

CYCLE = five_complex_cycle()
LOG2 = math.log(2.0)


# ---------------------------------------------------------------- intensity

def test_intensity_falling_factorial_cases():
    assert intensity(Complex((2, 0, 0)), (3, 1, 0)) == 6.0
    assert intensity(Complex((1, 1, 0)), (3, 1, 0)) == 3.0
    assert intensity(Complex((0, 0, 0)), (3, 1, 0)) == 1.0  # empty complex
    assert intensity(Complex((0, 2, 0)), (3, 1, 0)) == 0.0  # short one B


def test_intensity_zero_iff_insufficient_counts():
    y = Complex((1, 2))
    assert intensity(y, (0, 5)) == 0.0
    assert intensity(y, (1, 1)) == 0.0
    assert intensity(y, (1, 2)) == 2.0


def test_intensity_dimension_mismatch():
    with pytest.raises(ValueError):
        intensity(Complex((1, 0)), (1, 0, 0))


def test_intensity_rejects_oversized_coordinates():
    with pytest.raises(ValueError):
        intensity(Complex((1,)), (10**8 + 1,))


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.data(),
)
def test_intensity_positive_iff_componentwise_at_least(coeffs, data):
    y = Complex(tuple(coeffs))
    x = tuple(
        data.draw(st.integers(min_value=0, max_value=6)) for _ in coeffs
    )
    lam = intensity(y, x)
    assert lam >= 0.0
    if all(xi >= yi for xi, yi in zip(x, y.coeffs)):
        assert lam > 0.0
    else:
        assert lam == 0.0
    assert lam == hand_intensity(coeffs, x)


# --------------------------------------------------------------- rate sums

def test_reaction_rate_birth():
    bd = birth_death(2.0, 1.0)
    birth = bd.network.reactions[0]
    assert reaction_rate(bd, birth, (7,)) == 2.0


def test_reaction_rate_unknown_reaction():
    bd = birth_death()
    foreign = reversible_isomers().network.reactions[0]
    with pytest.raises(KeyError):
        reaction_rate(bd, foreign, (1,))


def test_total_rate_cycle_at_310():
    assert total_rate(CYCLE, (3, 1, 0)) == 6.0


def test_total_rate_zero_iff_absorbing():
    # the isomerization has an absorbing state at the origin
    iso = reversible_isomers()
    assert total_rate(iso, (0, 0)) == 0.0
    assert total_rate(iso, (1, 0)) > 0.0
    # a network with an empty-complex source is never absorbing
    loop = creation_annihilation_loop()
    for x in [(0, 0, 0), (5, 0, 2), (1, 1, 1)]:
        assert total_rate(loop, x) > 0.0


def test_transition_rates_aggregates_by_jump():
    rates = transition_rates(CYCLE, (3, 1, 0))
    assert rates == {(0, 1, 0): 3.0, (0, -1, 1): 3.0}


def test_transition_rates_absorbing_state_empty():
    assert transition_rates(reversible_isomers(), (0, 0)) == {}


def test_transition_rates_pools_parallel_reactions():
    # two reactions with the same net change from distinct sources
    from crnkit import MassActionSystem, Reaction, ReactionNetwork

    r1 = Reaction(Complex((1, 0)), Complex((0, 0)))  # A -> 0
    r2 = Reaction(Complex((1, 1)), Complex((0, 1)))  # A+B -> B, same change
    net = ReactionNetwork.from_reactions(("A", "B"), [r1, r2])
    sys_ = MassActionSystem(net, (1.0, 1.0))
    rates = transition_rates(sys_, (2, 3))
    assert set(rates) == {(-1, 0)}
    assert rates[(-1, 0)] == pytest.approx(2.0 + 6.0)


# ---------------------------------------------------------------- lyapunov

def test_lyapunov_values():
    assert lyapunov((0,)) == 1.0
    assert lyapunov((1, 1, 1)) == 0.0
    assert lyapunov((3, 1, 0)) == pytest.approx(2.295836866004329, rel=1e-15)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5))
def test_lyapunov_nonnegative_zero_only_at_ones(x):
    v = lyapunov(x)
    assert v >= 0.0
    if all(t == 1 for t in x):
        assert v == 0.0
    else:
        assert v > 0.0


def test_lyapunov_rejects_negative():
    with pytest.raises(ValueError):
        lyapunov((1, -1))


def test_state_routines_refuse_non_integral_states():
    for x in ([2.5], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            lyapunov(x)
    assert lyapunov([2.0]) == lyapunov([2])
    bd = birth_death()
    with pytest.raises(ValueError):
        exact_kstep_drift(bd, (2.9,), 1)
    assert exact_kstep_drift(bd, (3.0,), 1) == exact_kstep_drift(bd, (3,), 1)
    for routine in (generator_applied, total_rate, transition_rates):
        with pytest.raises(ValueError):
            routine(bd, (1.5,))
        with pytest.raises(ValueError):
            routine(bd, (math.inf,))


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4),
    st.data(),
)
def test_lyapunov_difference_matches_direct(x, data):
    h = tuple(
        data.draw(st.integers(min_value=-xi, max_value=3)) for xi in x
    )
    ref = lyapunov(tuple(a + b for a, b in zip(x, h))) - lyapunov(x)
    assert lyapunov_difference(tuple(x), h) == pytest.approx(ref, abs=1e-12)


def test_lyapunov_difference_rejects_negative_target():
    with pytest.raises(ValueError):
        lyapunov_difference((1, 0), (-2, 0))
    with pytest.raises(ValueError, match="different dimensions"):
        lyapunov_difference((1, 0), (1,))


# --------------------------------------------------------------- generator

@pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
def test_generator_on_cycle_grows_linearly(n):
    got = generator_applied(CYCLE, (n, 1, 0))
    expect = n * (2 * LOG2 - 1.0)
    assert abs(got - expect) <= 1e-12 * expect


def test_generator_at_absorbing_state_is_zero():
    assert generator_applied(reversible_isomers(), (0, 0)) == 0.0


@given(st.tuples(*[st.integers(min_value=0, max_value=30)] * 3))
def test_generator_consistent_with_transition_rates(x):
    by_reaction = generator_applied(CYCLE, x)
    by_jump = sum(
        lam * lyapunov_difference(x, h)
        for h, lam in transition_rates(CYCLE, x).items()
    )
    assert by_reaction == pytest.approx(by_jump, abs=1e-12, rel=1e-12)


# ------------------------------------------------------------- jump chain

def test_embedded_step_distribution_cycle():
    dist = embedded_step_distribution(CYCLE, (3, 1, 0))
    assert dist == {(3, 2, 0): 0.5, (3, 0, 1): 0.5}


def test_embedded_step_distribution_birth_death():
    bd = birth_death(1.0, 1.0)
    dist = embedded_step_distribution(bd, (2,))
    assert dist[(3,)] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dist[(1,)] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_embedded_step_distribution_absorbing_raises():
    with pytest.raises(AbsorbingStateError):
        embedded_step_distribution(reversible_isomers(), (0, 0))


@given(st.tuples(*[st.integers(min_value=0, max_value=20)] * 3))
def test_embedded_step_normalization(x):
    tot = total_rate(CYCLE, x)
    if tot == 0.0:
        return
    dist = embedded_step_distribution(CYCLE, x)
    assert all(p > 0.0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------- path probability

def test_path_probability_two_steps():
    # (3,1,0) --A->A+B--> (3,2,0) --A+B->A+C--> (3,1,1)
    # factors 3/6 and 6/11 (the 2B complex is active at (3,2,0))
    r = CYCLE.network.reactions
    p = path_probability(CYCLE, (3, 1, 0), [r[0], r[1]])
    assert p == pytest.approx(3.0 / 11.0, rel=1e-14)


def test_path_probability_blocked_step_is_zero():
    r = CYCLE.network.reactions
    # A+C -> C has intensity 0 at (3,1,0)
    assert path_probability(CYCLE, (3, 1, 0), [r[2]]) == 0.0


def test_path_probability_empty_path_is_one():
    assert path_probability(CYCLE, (3, 1, 0), []) == 1.0


def test_path_probability_absorbing_midway_is_zero():
    iso = reversible_isomers()
    a_to_b = iso.network.reactions[0]
    # (1,0) -> (0,1) works once; from (0,1) the same reaction is blocked
    assert path_probability(iso, (1, 0), [a_to_b]) == 1.0
    assert path_probability(iso, (1, 0), [a_to_b, a_to_b]) == 0.0


def test_path_probability_rejects_intermediate_states_past_the_cap():
    bd = birth_death()
    birth = next(r for r in bd.network.reactions if r.change == (1,))
    assert path_probability(bd, (STATE_COORD_MAX,), [birth]) > 0.0
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        path_probability(bd, (STATE_COORD_MAX,), [birth, birth])


def test_path_probability_chain_rule():
    r = CYCLE.network.reactions
    path = [r[0], r[1], r[2]]
    x = (4, 2, 1)
    whole = path_probability(CYCLE, x, path)
    head = path_probability(CYCLE, x, path[:1])
    x1 = tuple(a + b for a, b in zip(x, r[0].change))
    tail = path_probability(CYCLE, x1, path[1:])
    assert whole == pytest.approx(head * tail, rel=1e-12)


def test_path_probability_agrees_with_hand_walk():
    r = CYCLE.network.reactions
    path = [r[0], r[1], r[2], r[3]]
    x = (5, 1, 2)
    expect = 1.0
    z = x
    ok = True
    for rr in path:
        rates = hand_rates(CYCLE, z)
        lam = CYCLE.rate_constant(rr) * hand_intensity(rr.source.coeffs, z)
        if lam == 0.0 or sum(rates) == 0.0:
            ok = False
            break
        expect *= lam / sum(rates)
        z = tuple(a + b for a, b in zip(z, rr.change))
    assert ok
    assert path_probability(CYCLE, x, path) == pytest.approx(expect, rel=1e-12)


# --------------------------------------------------------------- rate table

NETWORKS = Path(__file__).resolve().parent.parent / "demos" / "networks"

RATE_SYSTEMS = [
    five_complex_cycle((1.3, 0.7, 2.9, 0.11, 5.5)),
    creation_annihilation_loop((0.5, 2.0, 1.25, 3.0, 0.1, 7.0, 0.3, 1.1)),
    birth_death(3.7, 0.3),
    reversible_isomers(0.4, 2.5),
    pair_annihilation(0.3, 1.7),
    # sources over two and three species with mixed coefficients
    parse(
        "species: A, B, C\n"
        "0 -> A + B ; k=1.5\n"
        "A + B -> C ; k=0.25\n"
        "2A + 3B -> A ; k=0.003\n"
        "A + B + C -> 0 ; k=0.7\n"
        "C -> 0 ; k=7.0"
    ),
] + [parse(path.read_text()) for path in sorted(NETWORKS.glob("*.crn"))]

coordinate = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=STATE_COORD_MAX),
    st.integers(min_value=STATE_COORD_MAX - 3, max_value=STATE_COORD_MAX),
)


@given(st.sampled_from(RATE_SYSTEMS), st.data())
def test_rate_table_equals_hand_rates_exactly(system, data):
    x = tuple(data.draw(coordinate) for _ in range(system.network.dim))
    rates, total = _rates(system._rate_table, x)
    expected = hand_rates(system, x)
    assert rates == expected
    hand_total = 0.0
    for lam in expected:  # left to right, the order the library sums in
        hand_total += lam
    assert total == hand_total
