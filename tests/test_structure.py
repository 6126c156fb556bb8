"""Structural checks against brute-force graph oracles and known networks."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnkit import Complex, MassActionSystem, Reaction, ReactionNetwork, parse
from crnkit.catalog import (
    birth_death,
    creation_annihilation_loop,
    five_complex_cycle,
    pair_annihilation,
    pure_birth,
    reversible_isomers,
    three_class_network,
)
from crnkit.structure import (
    ReachabilityReport,
    is_binary,
    is_weakly_reversible,
    linkage_classes,
    reachable_states,
    species_complex_condition,
    theorem_verdict,
)
from crnkit.kinetics import _moves, transition_rates
from crnkit.network import STATE_COORD_MAX
from oracles import (
    linkage_classes_csgraph,
    pooled_rates_by_reactions,
    reachable_by_dicts,
    transitive_closure_weakly_reversible,
)

DEMOS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "networks").glob("*.crn")
)


# ------------------------------------------------------------ linkage classes

def test_linkage_classes_cycle_is_single_strong_class():
    part = linkage_classes(five_complex_cycle().network)
    assert len(part) == 1
    assert part.classes[0] == frozenset(range(5))
    assert part.strongly_connected == (True,)


def test_linkage_classes_three_class_network():
    net = three_class_network().network
    part = linkage_classes(net)
    assert len(part) == 3
    by_formula = [
        sorted(net.format_complex(net.complexes[i]) for i in cls)
        for cls in part.classes
    ]
    assert by_formula == [
        ["2A", "A + C", "B"],
        ["0", "2B"],
        ["2C", "A + B", "D"],
    ]
    assert part.strongly_connected == (False, False, True)


def test_weak_reversibility_known_networks():
    assert is_weakly_reversible(five_complex_cycle().network)
    assert is_weakly_reversible(creation_annihilation_loop().network)
    assert is_weakly_reversible(birth_death().network)
    assert is_weakly_reversible(pair_annihilation().network)
    assert not is_weakly_reversible(three_class_network().network)
    assert not is_weakly_reversible(pure_birth().network)


def _random_network(rng, d=2, n_complex=5, n_edges=6):
    while True:
        coeffs = set()
        while len(coeffs) < n_complex:
            coeffs.add(tuple(rng.randrange(0, 3) for _ in range(d)))
        complexes = [Complex(c) for c in coeffs]
        pairs = [
            (i, j) for i in range(n_complex) for j in range(n_complex) if i != j
        ]
        rng.shuffle(pairs)
        chosen = pairs[:n_edges]
        reactions = [Reaction(complexes[i], complexes[j]) for i, j in chosen]
        species = [chr(ord("A") + k) for k in range(d)]
        try:
            return ReactionNetwork.from_reactions(species, reactions)
        except ValueError:
            continue  # some complex ended up unused; redraw


def test_weak_reversibility_matches_transitive_closure_oracle():
    rng = random.Random(20587)
    agree_true = agree_false = 0
    for _ in range(300):
        net = _random_network(rng, n_edges=rng.randrange(4, 9))
        got = is_weakly_reversible(net)
        want = transitive_closure_weakly_reversible(net)
        assert got == want
        if want:
            agree_true += 1
        else:
            agree_false += 1
    # the sample must exercise both outcomes for the comparison to mean much
    assert agree_true > 10
    assert agree_false > 10


def test_linkage_classes_match_csgraph_oracle():
    rng = random.Random(4471)
    several = weak_only = 0
    for _ in range(300):
        d = rng.randint(1, 3)
        net = _random_network(
            rng, d=d, n_complex=rng.randint(2, min(7, 3**d)), n_edges=rng.randint(1, 8)
        )
        part = linkage_classes(net)
        assert (part.classes, part.strongly_connected) == linkage_classes_csgraph(net)
        several += len(part) > 1
        weak_only += not all(part.strongly_connected)
    assert several > 10 and weak_only > 10


# ------------------------------------------------------------------ binarity

def test_is_binary():
    assert is_binary(five_complex_cycle().network)
    assert is_binary(creation_annihilation_loop().network)
    ternary = ReactionNetwork.from_reactions(
        ("A",), [Reaction(Complex((3,)), Complex((1,)))]
    )
    assert not is_binary(ternary)
    verdict = theorem_verdict(ternary)
    assert verdict.verdict == "Inconclusive"
    assert "not binary (complex of total molecularity 3)" in verdict.reasons


# -------------------------------------------------------- species condition

def test_species_condition_cycle_witnesses():
    net = five_complex_cycle().network
    rep = species_complex_condition(net)
    assert rep.satisfied
    assert [net.format_complex(w) for w in rep.witnesses] == ["A", "2B", "C"]
    assert rep.failing == ()


def test_species_condition_loop_witnesses():
    net = creation_annihilation_loop().network
    rep = species_complex_condition(net)
    assert rep.satisfied
    assert [net.format_complex(w) for w in rep.witnesses] == ["A", "B", "2C"]


def test_species_condition_failure_lists_species():
    net = pair_annihilation().network
    rep = species_complex_condition(net)
    assert not rep.satisfied
    assert rep.failing == ("A", "B")
    assert rep.witnesses == (None, None)


def test_species_condition_prefers_singleton_over_double():
    net = parse_net("A -> 2A ; k=1\n2A -> A ; k=1\n")
    rep = species_complex_condition(net)
    assert rep.witnesses[0].coeffs == (1,)


def parse_net(text):
    from crnkit.parser import parse

    return parse(text).network


# ------------------------------------------------------------------ verdict

def test_verdict_positive_recurrent_networks():
    for sys_ in (five_complex_cycle(), creation_annihilation_loop(), birth_death()):
        v = theorem_verdict(sys_.network)
        assert v.positive_recurrent
        assert v.verdict == "PositiveRecurrent"
        assert v.reasons == ()


def test_verdict_three_class_network_inconclusive():
    v = theorem_verdict(three_class_network().network)
    assert not v.positive_recurrent
    assert v.verdict == "Inconclusive"
    assert not v.weakly_reversible
    assert not v.single_linkage_class
    assert v.binary
    assert any("linkage classes" in r for r in v.reasons)


def test_verdict_pair_annihilation_inconclusive():
    v = theorem_verdict(pair_annihilation().network)
    assert not v.positive_recurrent
    assert v.weakly_reversible
    assert v.single_linkage_class
    assert v.binary
    assert not v.species_condition


def test_verdict_invariant_under_reordering_and_scaling():
    rng = random.Random(7)
    net = five_complex_cycle().network
    for _ in range(20):
        rxns = list(net.reactions)
        rng.shuffle(rxns)
        permuted = ReactionNetwork.from_reactions(net.species, rxns)
        assert theorem_verdict(permuted) == theorem_verdict(net)
    # rate constants do not enter the verdict at all: it takes only the network
    assert theorem_verdict(birth_death(1, 1).network) == theorem_verdict(
        birth_death(250.0, 1e-3).network
    )


# ------------------------------------------------------------- reachability

def test_reachable_states_absorbing_start():
    iso = reversible_isomers()
    rep = reachable_states(iso, (0, 0))
    assert rep.states == {(0, 0)}
    assert rep.absorbing == {(0, 0)}
    assert not rep.truncated
    assert rep.min_total_rate is None


def test_reachable_states_conservation_class():
    iso = reversible_isomers()
    rep = reachable_states(iso, (2, 0))
    assert rep.states == {(2, 0), (1, 1), (0, 2)}
    assert rep.absorbing == frozenset()
    assert rep.min_total_rate == 2.0


def test_reachable_states_truncation_flag():
    bd = birth_death(1.0, 1.0)
    rep = reachable_states(bd, (0,), cap=50)
    assert rep.truncated
    assert len(rep.states) == 50
    full = reachable_states(bd, (0,), cap=10**6)
    # unbounded chain: the search saturates the cap rather than closing
    assert full.truncated


def test_reachable_min_rate_positive_on_weakly_reversible_loop():
    loop = creation_annihilation_loop()
    rep = reachable_states(loop, (0, 0, 0), cap=2000)
    assert rep.min_total_rate is not None
    assert rep.min_total_rate > 0.0
    assert rep.absorbing == frozenset()


def test_reachable_cap_validation():
    with pytest.raises(ValueError):
        reachable_states(birth_death(), (0,), cap=0)


def test_reachable_cap_must_be_an_integer():
    with pytest.raises(ValueError, match="cap must be an integer"):
        reachable_states(birth_death(), (0,), cap=2.5)
    assert reachable_states(birth_death(), (0,), cap=3.0) == reachable_states(
        birth_death(), (0,), cap=3
    )


def _pooling_system() -> MassActionSystem:
    """2A -> A and A -> 0 share a change, and B -> A + B, declared between
    them, fires first wherever 2A -> A cannot."""
    a, b = Complex((1, 0)), Complex((0, 1))
    reactions = [
        Reaction(Complex((2, 0)), a),
        Reaction(b, Complex((1, 1))),
        Reaction(a, Complex((0, 0))),
        Reaction(b, Complex((0, 0))),
    ]
    net = ReactionNetwork.from_reactions(("A", "B"), reactions)
    return MassActionSystem(net, (0.3, 1.7, 0.1, 2.9))


def _systems():
    return [(p.stem, parse(p.read_text())) for p in DEMOS] + [
        ("pooling", _pooling_system())
    ]


def test_transition_rates_equal_the_per_reaction_oracle():
    for name, system in _systems():
        dim = system.network.dim
        for x in [(0,) * dim, (1,) * dim, (3,) * dim, tuple(range(1, dim + 1))]:
            got = transition_rates(system, x).items()
            want = pooled_rates_by_reactions(system, x).items()
            assert [(h, repr(v)) for h, v in got] == [
                (h, repr(v)) for h, v in want
            ], (name, x)
    # the pooled changes come in order of their first positive rate
    order = list(transition_rates(_pooling_system(), (1, 1)))
    assert order == [(1, 0), (-1, 0), (0, -1)]


def test_moves_pool_as_the_per_reaction_oracle():
    catalog = [
        five_complex_cycle(),
        creation_annihilation_loop(),
        three_class_network(),
        birth_death(),
        pure_birth(),
        reversible_isomers(),
        pair_annihilation(),
    ]
    for system in [_pooling_system(), *catalog]:
        dim = system.network.dim
        for x in [(0,) * dim, (1,) * dim, (2,) * dim, tuple(range(3, dim + 3))]:
            want = [
                (tuple(a + b for a, b in zip(x, h)), repr(v))
                for h, v in pooled_rates_by_reactions(system, x).items()
            ]
            assert [(s, repr(v)) for s, v in _moves(system, x).items()] == want
    # 2A -> A and A -> 0 reach one successor, summed in reaction order
    moves = _moves(_pooling_system(), (2, 1))
    assert list(moves.items()) == [
        ((1, 1), 0.3 * 2 + 0.1 * 2),
        ((3, 1), 1.7),
        ((2, 0), 2.9),
    ]
    assert list(_moves(_pooling_system(), (1, 1))) == [(2, 1), (0, 1), (1, 0)]


def test_moves_raise_past_the_coordinate_limit():
    assert _moves(birth_death(), (STATE_COORD_MAX,)) == {
        (STATE_COORD_MAX + 1,): 1.0,
        (STATE_COORD_MAX - 1,): float(STATE_COORD_MAX),
    }
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        _moves(birth_death(), (STATE_COORD_MAX + 1,))
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        _moves(_pooling_system(), (0, STATE_COORD_MAX + 1))


def _reach_fields(system, x0, cap):
    rep = reachable_states(system, x0, cap=cap)
    got = (rep.start, rep.states, rep.truncated, rep.absorbing)
    got += (repr(rep.min_total_rate),)
    start, states, truncated, absorbing, min_rate = reachable_by_dicts(system, x0, cap)
    return got, (start, states, truncated, absorbing, repr(min_rate))


def test_reachable_states_match_the_dict_bfs_oracle_on_every_demo():
    systems = _systems()
    cut = 0
    for name, system in systems:
        dim = system.network.dim
        for x0 in [(0,) * dim, (1,) * dim, (3,) * dim]:
            for cap in [*range(1, 25), 97, 1000]:
                got, want = _reach_fields(system, x0, cap)
                assert got == want, (name, x0, cap)
                cut += got[2]
    assert cut > 300  # most searches stop at the cap, many inside a level
    isomers = dict(systems)["isomers"]
    assert _reach_fields(isomers, (0, 0), 5)[0][3] == {(0, 0)}  # an absorbing start


def test_reachable_states_past_the_coordinate_limit_raise_as_the_oracle():
    bd = birth_death()
    with pytest.raises(ValueError) as got:
        reachable_states(bd, (STATE_COORD_MAX - 2,), cap=10)
    with pytest.raises(ValueError) as want:
        reachable_by_dicts(bd, (STATE_COORD_MAX - 2,), 10)
    assert str(got.value) == str(want.value)
    assert "exceeds supported maximum" in str(got.value)


def _reach_or_refusal(fn, system, x0, cap):
    """(start, states, truncated, absorbing, repr of the least total rate)
    of a search, or its refusal's type and message."""
    try:
        got = fn(system, x0, cap)
    except (ValueError, OverflowError) as e:
        return type(e), str(e)
    if isinstance(got, ReachabilityReport):
        got = (got.start, got.states, got.truncated, got.absorbing, got.min_total_rate)
    return got[:4] + (repr(got[4]),)


@st.composite
def reach_cases(draw):
    """A network of 1-4 species with coefficients 0-3, where a reaction may
    have a twin of the same net change (a coefficient 4 at most), so that
    rates pool, and non-integer rates k / 997, whose sums round; a start
    near 0 or near ``STATE_COORD_MAX``; and a cap of 1-200."""
    dim = draw(st.integers(1, 4))
    coeffs = st.tuples(*[st.integers(0, 3)] * dim)
    complexes = draw(st.lists(coeffs, min_size=2, max_size=5, unique=True))
    pairs = [(i, j) for i in range(len(complexes)) for j in range(len(complexes)) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=6, unique=True))
    reactions = [Reaction(Complex(complexes[i]), Complex(complexes[j])) for i, j in chosen]
    for r in list(reactions):  # a twin shares r's net change, so their rates pool
        y, z = r.source.coeffs, r.product.coeffs
        shift = -1 if min(y[0], z[0]) > 0 else 1
        twin = Reaction(Complex((y[0] + shift,) + y[1:]), Complex((z[0] + shift,) + z[1:]))
        if twin not in reactions and draw(st.booleans()):
            reactions.append(twin)
    rate = st.integers(1, 10**5).filter(lambda k: k % 997).map(lambda k: k / 997)
    kappa = draw(st.lists(rate, min_size=len(reactions), max_size=len(reactions)))
    net = ReactionNetwork.from_reactions([f"S{i}" for i in range(dim)], reactions)
    coord = st.one_of(st.integers(0, 5), st.integers(STATE_COORD_MAX - 6, STATE_COORD_MAX))
    x0 = draw(st.tuples(*[coord] * dim))
    return MassActionSystem(net, kappa), x0, draw(st.integers(1, 200))


@settings(max_examples=150, deadline=None)
@given(reach_cases())
def test_reachable_states_equal_the_dict_bfs_oracle_on_drawn_networks(case):
    system, x0, cap = case
    got = _reach_or_refusal(reachable_states, system, x0, cap)
    assert got == _reach_or_refusal(reachable_by_dicts, system, x0, cap)


def test_reachable_states_refuse_pure_birth_at_the_limit_at_once():
    birth = pure_birth()
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as got:
        reachable_states(birth, (STATE_COORD_MAX,), cap=10**6)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError) as want:
        reachable_by_dicts(birth, (STATE_COORD_MAX,), 10**6)
    assert str(got.value) == str(want.value)


def test_reachable_states_raise_the_oracles_rate_overflow():
    # the 40 factors of the start's falling product pass the float range
    system = parse("40A <-> 41A ; k=1, 1\n")
    with pytest.raises(OverflowError) as got:
        reachable_states(system, (10**8 - 1,))
    with pytest.raises(OverflowError) as want:
        reachable_by_dicts(system, (10**8 - 1,), 10**6)
    assert str(got.value) == str(want.value)
