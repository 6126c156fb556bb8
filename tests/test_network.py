"""Construction invariants of the core network types."""

import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crnkit import Complex, MassActionSystem, Reaction, ReactionNetwork, catalog, parse
from crnkit.catalog import birth_death, five_complex_cycle
from crnkit.network import STATE_COORD_MAX, _count, as_state
from test_acceptance import random_theorem_network

DEMO_NETWORKS = sorted((Path(__file__).parent.parent / "demos" / "networks").glob("*.crn"))


def _viewed_networks():
    """The catalog, the demo files and 20 acceptance-corpus networks."""
    nets = [
        getattr(catalog, name)().network
        for name in (
            "five_complex_cycle",
            "creation_annihilation_loop",
            "three_class_network",
            "birth_death",
            "pure_birth",
            "reversible_isomers",
            "pair_annihilation",
        )
    ]
    nets += [parse(path.read_text()).network for path in DEMO_NETWORKS]
    rng = random.Random(20260823)
    return nets + [random_theorem_network(rng) for _ in range(20)]


def test_complex_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        Complex((1, -1))
    # only integers: no truncated floats, parsed strings or overflowing infinities
    for bad in (1.7, "2", math.inf, math.nan, None):
        with pytest.raises(ValueError, match="nonnegative integers, got"):
            Complex((bad, 0))
    assert Complex((np.int64(2), 1.0)).coeffs == (2, 1)


def test_complex_order_and_support():
    c = Complex((0, 2, 1))
    assert c.order == 3
    assert c.support == (1, 2)
    assert Complex(()).order == 0


def test_complex_formatting():
    sp = ("A", "B", "C")
    assert Complex((1, 0, 0)).format(sp) == "A"
    assert Complex((0, 2, 0)).format(sp) == "2B"
    assert Complex((1, 1, 0)).format(sp) == "A + B"
    assert Complex((0, 0, 0)).format(sp) == "0"


def test_reaction_rejects_self_loop():
    c = Complex((1, 0))
    with pytest.raises(ValueError):
        Reaction(c, c)


def test_reaction_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        Reaction(Complex((1, 0)), Complex((1,)))


def test_reaction_change_vector():
    r = Reaction(Complex((2, 0)), Complex((0, 1)))
    assert r.change == (-2, 1)


def test_network_requires_unique_species():
    r = Reaction(Complex((1, 0)), Complex((0, 1)))
    with pytest.raises(ValueError):
        ReactionNetwork.from_reactions(("A", "A"), [r])
    with pytest.raises(ValueError, match="^species names must be nonempty$"):
        ReactionNetwork.from_reactions(("A", ""), [r])


def test_network_rejects_duplicate_and_misshapen_complexes():
    a, b = Complex((1, 0)), Complex((0, 1))
    r = Reaction(a, b)
    with pytest.raises(ValueError, match="^complex list contains duplicates$"):
        ReactionNetwork(("A", "B"), [a, b, a], [r])
    with pytest.raises(ValueError, match=r"^complex \(1,\) has dimension 1, expected 2$"):
        ReactionNetwork(("A", "B"), [a, b, Complex((1,))], [r])


def test_network_rejects_isolated_complex():
    r = Reaction(Complex((1, 0)), Complex((0, 1)))
    with pytest.raises(ValueError):
        ReactionNetwork(
            ("A", "B"),
            [Complex((1, 0)), Complex((0, 1)), Complex((2, 0))],
            [r],
        )


def test_network_rejects_duplicate_reactions():
    r = Reaction(Complex((1, 0)), Complex((0, 1)))
    with pytest.raises(ValueError):
        ReactionNetwork.from_reactions(("A", "B"), [r, r])


def test_network_rejects_foreign_endpoint():
    r = Reaction(Complex((1, 0)), Complex((0, 1)))
    with pytest.raises(ValueError):
        ReactionNetwork(("A", "B"), [Complex((1, 0))], [r])


def test_from_reactions_collects_complexes_in_first_appearance_order():
    sys_ = five_complex_cycle()
    coeffs = [c.coeffs for c in sys_.network.complexes]
    assert coeffs == [
        (1, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 0, 1),
        (0, 2, 0),
    ]


def test_mass_action_rejects_nonpositive_rate():
    net = birth_death().network
    with pytest.raises(ValueError):
        MassActionSystem(net, (1.0, 0.0))
    with pytest.raises(ValueError):
        MassActionSystem(net, (1.0, -2.0))


def test_mass_action_rejects_wrong_count():
    net = birth_death().network
    with pytest.raises(ValueError):
        MassActionSystem(net, (1.0,))


def test_mass_action_accepts_mapping():
    net = birth_death().network
    kap = {r: 2.0 + i for i, r in enumerate(net.reactions)}
    sys_ = MassActionSystem(net, kap)
    assert sys_.rate_constants == (2.0, 3.0)
    assert sys_.rate_constant(net.reactions[1]) == 3.0
    copy = sys_.kappa  # a copy: changing it leaves the system as it was
    assert copy == kap
    copy[net.reactions[1]] = 9.0
    assert sys_.kappa == kap


def test_mass_action_mapping_must_cover_all_reactions():
    net = birth_death().network
    with pytest.raises(ValueError):
        MassActionSystem(net, {net.reactions[0]: 1.0})
    foreign = five_complex_cycle().network.reactions[0]
    with pytest.raises(ValueError, match="^rate constants given for unknown reactions$"):
        MassActionSystem(net, {**dict.fromkeys(net.reactions, 1.0), foreign: 1.0})


def test_network_equality_ignores_reaction_order():
    a = five_complex_cycle().network
    rev = list(a.reactions)[::-1]
    b = ReactionNetwork.from_reactions(a.species, rev)
    assert a == b
    assert b.complexes != a.complexes  # presentation differs, identity does not
    assert a != "network" and a.__eq__(a.species) is NotImplemented


def test_network_lookups_and_reprs():
    sys_ = five_complex_cycle()
    net = sys_.network
    assert [net.species_index(s) for s in net.species] == [0, 1, 2]
    assert repr(net) == "ReactionNetwork(species=['A', 'B', 'C'], |C|=5, |R|=5)"
    assert repr(sys_) == f"MassActionSystem({net!r})"


def test_network_view_agrees_with_complex_index():
    nets = _viewed_networks()
    assert len(nets) == 7 + len(DEMO_NETWORKS) + 20 and DEMO_NETWORKS
    for net in nets:
        ends = [(net.complex_index(r.source), net.complex_index(r.product)) for r in net.reactions]
        assert net._ends == tuple(ends)
        assert net._reaction_index == {r: j for j, r in enumerate(net.reactions)}
        for u, c in enumerate(net.complexes):
            assert net._out_edges[u] == tuple(
                (p, j) for j, (s, p) in enumerate(ends) if s == u
            )
            assert net._rows[u] == tuple((i, y) for i, y in enumerate(c.coeffs) if y)


def test_complex_and_reaction_hashes_keep_the_dataclass_contract():
    for net in _viewed_networks():
        for c in net.complexes:
            twin = Complex(list(c.coeffs))
            assert twin == c and twin is not c
            assert hash(twin) == hash(c) == hash((tuple(c.coeffs),))
        for r in net.reactions:
            twin = Reaction(Complex(r.source.coeffs), Complex(r.product.coeffs))
            assert twin == r
            assert hash(twin) == hash(r) == hash((r.source, r.product))


def test_parsed_network_survives_pickling():
    for path in DEMO_NETWORKS:
        system = parse(path.read_text())
        copy = pickle.loads(pickle.dumps(system))
        net = copy.network
        assert copy == system and net == system.network
        assert net.complexes == system.network.complexes
        assert net.reactions == system.network.reactions
        assert [hash(r) for r in net.reactions] == [hash(r) for r in system.network.reactions]
        assert net._ends == system.network._ends
        assert net._out_edges == system.network._out_edges
        assert all(net.complex_index(c) == i for i, c in enumerate(system.network.complexes))
        assert all(net._reaction_index[r] == j for j, r in enumerate(system.network.reactions))


def test_as_state_takes_integral_values_of_any_numeric_type():
    got = as_state((np.int64(3), 2.0, True, np.float32(4.0), Fraction(6, 2)), 5)
    assert got == (3, 2, 1, 4, 3)
    assert all(type(v) is int for v in got)
    assert as_state(iter([1, 2]), 2) == (1, 2)


def test_as_state_rejects_non_integral_entries_with_value_error():
    for bad in (1.5, 2.9, np.float64(0.5), math.inf, -math.inf, math.nan, "1", None, 1j):
        with pytest.raises(ValueError, match="not an integer"):
            as_state((0, bad), 2)
    # a rational is tested by its denominator, never through a float
    for bad in (Fraction(1, 2), Fraction(10**400, 3), Fraction(-(10**400), 7)):
        with pytest.raises(ValueError, match=r"^state coordinate 1 is not an integer$"):
            as_state((0, bad), 2)
    assert as_state((Fraction(6, 2), Fraction(0)), 2) == (3, 0)
    with pytest.raises(ValueError, match=r"^state coordinate 1 \(-1\) is negative$"):
        as_state((0, -1), 2)


def test_as_state_names_the_coordinate_above_the_maximum():
    with pytest.raises(ValueError, match=r"coordinate 1 \(100000001\) exceeds supported"):
        as_state((0, STATE_COORD_MAX + 1), 2)
    # a value past Python's digit limit for int-to-string is not printed
    with pytest.raises(ValueError, match=r"^state coordinate 1 exceeds supported maximum"):
        as_state((0, 10**5000), 2)
    # an integral rational too large for a float is its integer
    with pytest.raises(ValueError, match=r"^state coordinate 0 exceeds supported maximum"):
        as_state([Fraction(10**400, 1)], 1)


def test_huge_negative_values_are_named_without_their_digits():
    # past Python's digit limit for int-to-string the value is left out of
    # the message, which names the coordinate or the count instead
    with pytest.raises(ValueError, match=r"^state coordinate 0 is negative$"):
        as_state([-(10**5000)], 1)
    with pytest.raises(ValueError, match=r"^state coordinate 1 \(-18446744073709551615\) is"):
        as_state([0, -(2**64 - 1)], 2)
    with pytest.raises(ValueError, match=r"^replicas must be an integer >= 0$"):
        _count(-(10**5000), "replicas")
    with pytest.raises(ValueError, match=r"^replicas must be an integer >= 1, got -3$"):
        _count(-3, "replicas", 1)
    with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got 1.5$"):
        _count(1.5, "k")
    with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got 7/2$"):
        _count(Fraction(7, 2), "k")
    # a rational past 64 bits is not converted to a float, nor printed
    for huge in (Fraction(10**400, 3), Fraction(10**5000, 3), Fraction(-(10**400), 1)):
        with pytest.raises(ValueError, match=r"^k must be an integer >= 0$"):
            _count(huge, "k")
