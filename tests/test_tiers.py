"""Tier machinery: sequences, partitions, path classification, witnesses,
pattern scan, and exact embedded drift.

The numeric cross-checks classify complexes by measured intensity growth at
two widely separated indices (``oracles.numeric_tier_partition``) and
re-derive drift values by full path enumeration (``oracles.enum_kstep_drift``)
and, at depths enumeration cannot reach, by the former level-by-level
fold-back (``oracles.foldback_kstep_drift``).
"""

import math
import os
import pickle
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import crnkit
from crnkit import Complex, MassActionSystem, Reaction, ReactionNetwork, catalog, parse
from crnkit.catalog import (
    birth_death,
    creation_annihilation_loop,
    five_complex_cycle,
    pair_annihilation,
    pure_birth,
    reversible_isomers,
)
from crnkit.errors import (
    AbsorbingStateError,
    BudgetExceededError,
    InvalidSequenceError,
    NoDropComplexError,
    TailNotNormalizedError,
    WitnessPathError,
)
from crnkit.network import STATE_COORD_MAX
from crnkit.kinetics import (
    embedded_step_distribution,
    generator_applied,
    lyapunov,
    lyapunov_difference,
    path_probability,
)
from crnkit.tiers import (
    Const,
    Grow,
    ParametricSequence,
    d_partition,
    evaluate_sequence,
    exact_kstep_drift,
    hypothesis_check,
    hypothesis_violation,
    parse_sequence_spec,
    path_probability_limit,
    path_tier_membership,
    scan_patterns,
    _parse_sequence_expr,
    _Tail,
    _minimal_start,
    _raw_value,
    s_partition,
    shift,
    witness_path,
)
from oracles import (
    MemoFreeTail,
    ScratchTail,
    coefficient_path_limit,
    drop_prefix_by_frontiers,
    enum_kstep_drift,
    foldback_kstep_drift,
    generator_by_reactions,
    kstep_drift_pairs,
    law_value_fraction,
    minimal_start_bisection,
    numeric_tier_partition,
    path_membership_by_offsets,
    scan_fields_by_labels,
    top_tiers_at,
)
from test_acceptance import random_theorem_network
from test_network import DEMO_NETWORKS
from test_structure import _pooling_system

CYCLE = five_complex_cycle()
CYCLE_SEQ = ParametricSequence((Grow(), Const(1), Const(0)))


# ----------------------------------------------------------- sequence type

def test_const_and_grow_validation():
    with pytest.raises(InvalidSequenceError):
        Const(-1)
    with pytest.raises(InvalidSequenceError):
        Grow(0.0)
    with pytest.raises(InvalidSequenceError):
        Grow(1.0, Fraction(-1, 2))


def test_grow_rejects_non_finite_coefficient():
    for coef in (math.inf, float("1e999"), math.nan):
        with pytest.raises(InvalidSequenceError):
            Grow(coef)
    with pytest.raises(InvalidSequenceError):
        parse_sequence_spec("A=1e999*n, B=1, C=0", ("A", "B", "C"))


def test_laws_hash_equal_after_pickling_in_another_process():
    child = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from crnkit.tiers import Const, Grow, ParametricSequence\n"
        "seq = ParametricSequence((Grow(0.5, Fraction(3, 2)), Const(1)), (-4, 2))\n"
        "sys.stdout.buffer.write(pickle.dumps((Const(0), Grow(), seq)))\n"
    )
    src = os.path.dirname(os.path.dirname(crnkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, check=True, env=env
    ).stdout
    fresh = (
        Const(0),
        Grow(),
        ParametricSequence((Grow(0.5, Fraction(3, 2)), Const(1)), (-4, 2)),
    )
    loaded = pickle.loads(out)
    assert loaded == fresh
    for a, b in zip(loaded, fresh):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_sequence_requires_growing_coordinate():
    with pytest.raises(InvalidSequenceError):
        ParametricSequence((Const(1), Const(0)))


def test_sequence_parts_are_checked_at_construction():
    bad = [
        lambda: ParametricSequence(()),
        lambda: ParametricSequence((Grow(),), (0, 1)),  # two offsets for one law
        lambda: ParametricSequence([Grow(), 3]),  # not a law
        lambda: ParametricSequence([Grow(), None]),
        lambda: ParametricSequence((Grow(),), (1.7,)),
        lambda: ParametricSequence((Grow(),), (math.inf,)),
        lambda: ParametricSequence((Grow(),), ("1",)),
        lambda: ParametricSequence((Grow(),), start=1.5),
        lambda: ParametricSequence((Grow(),), start=math.nan),
        lambda: ParametricSequence((Grow(),)).shifted((0.5,)),
        lambda: Const(1.5),
        lambda: Const(math.inf),
        lambda: Const("2"),
    ]
    for make in bad:
        with pytest.raises(InvalidSequenceError):
            make()
    # integral values of any numeric type are taken, as Python ints
    seq = ParametricSequence((Grow(), Const(2.0)), (np.int64(3), 1.0), start=np.int32(2))
    assert repr(seq) == repr(ParametricSequence((Grow(), Const(2)), (3, 1), 2))
    assert type(Const(np.int64(4)).value) is int
    assert seq.shifted((1.0, np.int8(-1))).offset == (4, 0)


def test_sequence_evaluate_basic():
    seq = ParametricSequence((Grow(), Const(1), Const(0)))
    assert seq.evaluate(7) == (7, 1, 0)
    assert evaluate_sequence(seq, 3) == (3, 1, 0)
    assert seq.samples([1, 7]) == [(1, 1, 0), (7, 1, 0)]
    with pytest.raises(ValueError):
        seq.evaluate(0)


def test_sequence_evaluate_exact_ceilings():
    assert ParametricSequence((Grow(2.0, 2),)).evaluate(10) == (200,)
    assert ParametricSequence((Grow(0.5, 1),)).evaluate(5) == (3,)  # ceil(2.5)
    assert ParametricSequence((Grow(1.0, Fraction(1, 2)),)).evaluate(10) == (4,)
    assert ParametricSequence((Grow(1.0, Fraction(1, 2)),)).evaluate(9) == (3,)
    assert ParametricSequence((Grow(1.5, 1),)).evaluate(3) == (5,)  # ceil(4.5)
    assert ParametricSequence((Grow(1.0, Fraction(3, 2)),)).evaluate(4) == (8,)
    assert ParametricSequence((Grow(np.int64(2), 2),)).evaluate(10) == (200,)


def test_sequence_constant_offset_negative_rejected():
    seq = ParametricSequence((Grow(), Const(1)))
    with pytest.raises(InvalidSequenceError):
        seq.shifted((0, -2))


def test_huge_values_are_left_out_of_sequence_and_drift_messages():
    # past Python's digit limit for int-to-string the value is left out of
    # the message, which still raises the routine's own error
    huge = -(10**5000)
    calls = [
        (
            lambda: Const(huge),
            InvalidSequenceError,
            "constant coordinate value must be a nonnegative integer",
        ),
        (
            lambda: Grow(huge),
            InvalidSequenceError,
            "growth coefficient must be positive and finite",
        ),
        (
            lambda: ParametricSequence((Grow(),), start=huge),
            InvalidSequenceError,
            "start index must be an integer >= 1",
        ),
        (
            lambda: ParametricSequence((Grow(), Const(1)), (0, huge)),
            InvalidSequenceError,
            "constant coordinate is negative",
        ),
        (
            lambda: ParametricSequence((Grow(), Const(1))).shifted((0, huge)),
            InvalidSequenceError,
            "constant coordinate is negative",
        ),
        (
            lambda: ParametricSequence((Grow(),), (Fraction(10**5000, 3),)),
            InvalidSequenceError,
            "offsets must be integers",
        ),
        (
            lambda: ParametricSequence((Grow(),)).evaluate(huge),
            ValueError,
            "n is below the sequence start 1",
        ),
        (
            lambda: exact_kstep_drift(birth_death(), (1,), -huge),
            BudgetExceededError,
            "k steps exceed the budget of 1000000",
        ),
        (  # the first entry that is not a law is named by its index and type
            lambda: ParametricSequence((Const(-huge), 3)),
            InvalidSequenceError,
            "coordinate law 1 is int, not Const or Grow",
        ),
    ]
    for make, error, message in calls:
        with pytest.raises(error, match=f"^{message}$"):
            make()
    # values within 64 bits are still shown
    with pytest.raises(InvalidSequenceError, match=r"^constant coordinate 1 with offset -2 is"):
        ParametricSequence((Grow(), Const(1))).shifted((0, -2))
    with pytest.raises(ValueError, match=r"^n=-3 is below the sequence start 1$"):
        ParametricSequence((Grow(),)).evaluate(-3)


def test_sequence_shift_accumulates_and_start_rises():
    seq = ParametricSequence((Grow(), Const(1)))
    moved = shift(shift(seq, (-2, 1)), (-1, 0))
    assert moved.offset == (-3, 1)
    # growing coordinate must stay nonnegative from the start index on
    assert moved.start == 3
    assert moved.evaluate(3) == (0, 2)


def test_sequence_dimension_checks():
    seq = ParametricSequence((Grow(),))
    with pytest.raises(InvalidSequenceError):
        seq.shifted((1, 2))
    with pytest.raises(InvalidSequenceError):
        seq.normalized_for(CYCLE.network)
    net = CYCLE.network
    with pytest.raises(InvalidSequenceError, match="^complex dimension does not match"):
        seq.degree(net.complexes[0])
    with pytest.raises(InvalidSequenceError, match="^complex dimension does not match"):
        d_partition(net, seq)  # the tail's own check
    for partition in (s_partition, hypothesis_violation):
        with pytest.raises(InvalidSequenceError, match="^network dimension does not match"):
            partition(net, seq)


def test_normalized_for_raises_start_past_complex_entries():
    seq = CYCLE_SEQ.shifted((-1, 0, 1))
    norm = seq.normalized_for(CYCLE.network)
    # largest complex entry 2, largest offset magnitude 1: values must exceed 3
    assert norm.evaluate(norm.start)[0] > 3
    assert norm.laws == seq.laws and norm.offset == seq.offset
    # already-normalized sequences come back unchanged
    assert norm.normalized_for(CYCLE.network) is norm


def test_sequence_start_search_is_fast_for_deep_offsets():
    began = time.perf_counter()
    seq = ParametricSequence((Grow(1.0, Fraction(1, 2)),), (-3000,))
    assert time.perf_counter() - began < 1.0
    assert seq.start == 8_994_002
    assert seq.evaluate(seq.start) == (0,)
    # one index earlier the coordinate would be ceil(sqrt(n)) - 3000 = -1
    bare = ParametricSequence((Grow(1.0, Fraction(1, 2)),))
    assert bare.evaluate(seq.start - 1) == (2999,)


def test_deep_offset_start_is_minimal_and_prompt():
    laws = (Grow(0.001, Fraction(1, 3)), Grow(1.0, Fraction(5, 2)))
    began = time.perf_counter()
    seq = ParametricSequence(laws, (-2541, -1557), 42)
    assert time.perf_counter() - began < 1.0
    assert all(v >= 0 for v in seq.evaluate(seq.start))
    bare = ParametricSequence(laws)
    earlier = bare.evaluate(seq.start - 1)
    assert min(v + w for v, w in zip(earlier, seq.offset)) < 0


def test_law_values_match_fraction_oracle():
    # the oracle's float-seeded root is exact only well inside float range
    rng = random.Random(73104)
    coefs = [0.001, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 1 / 3, 7.25, 1e-6, 123.456, 1, 2]
    powers = [
        Fraction(p) for p in ("1", "2", "3", "1/2", "3/2", "1/3", "5/2", "7/3", "2/5")
    ]
    checked = 0
    while checked < 5000:
        coef = rng.choice(coefs) if rng.random() < 0.7 else rng.uniform(1e-3, 50)
        law = Grow(coef, rng.choice(powers))
        n = rng.randrange(1, 10 ** rng.randrange(1, 7))
        value = _raw_value(law, n)
        if value >= 2**50:
            continue
        assert value == law_value_fraction(law, n), (law, n)
        checked += 1


def test_law_values_are_exact_ceilings_at_any_size():
    # value k is the least integer with (k * den) ** b >= num ** b * n ** a
    rng = random.Random(50917)
    for _ in range(2000):
        power = Fraction(rng.randrange(1, 12), rng.randrange(1, 6))
        law = Grow(rng.uniform(1e-3, 1e3), power)
        n = rng.randrange(1, 10**rng.randrange(1, 40))
        num, den = law.coef.as_integer_ratio()
        a, b = law.power.numerator, law.power.denominator
        k = _raw_value(law, n)
        assert (k * den) ** b >= num**b * n**a > ((k - 1) * den) ** b


def test_minimal_start_matches_bisection_oracle():
    rng = random.Random(88213)
    coefs = [0.001, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 1e-6, 123.456, 1, 5]
    powers = [
        Fraction(p) for p in ("1", "2", "3", "1/2", "3/2", "1/3", "5/2", "2/5")
    ]
    checked = 0
    while checked < 1000:
        laws = tuple(
            Const(rng.randrange(0, 5))
            if rng.random() < 0.3
            else Grow(rng.choice(coefs), rng.choice(powers))
            for _ in range(rng.randrange(1, 4))
        )
        offset = tuple(
            rng.randrange(-300, 50) if isinstance(l, Grow) else 0 for l in laws
        )
        start = rng.randrange(1, 50)
        bound = rng.choice([-1, 0, 2, 5, rng.randrange(0, 300)])
        got = _minimal_start(laws, offset, start, bound)
        # the bisection evaluates every law up to about 2 * got
        if any(_raw_value(l, 2 * got) >= 2**50 for l in laws):
            continue
        assert got == minimal_start_bisection(laws, offset, start, bound), (
            laws, offset, start, bound
        )
        checked += 1
    # offsets at or above the bound: such a coordinate never raises the start
    for laws, offset, start, bound in [
        ((Grow(0.001, Fraction(1, 3)),), (7,), 3, 7),
        ((Grow(1e-6, Fraction(5, 2)), Const(1)), (300, 0), 1, 5),
        ((Grow(2.0, 2), Grow(0.5, 1)), (40, -3), 9, 40),
        ((Grow(1.5, Fraction(3, 2)), Grow(1, 1)), (0, 0), 2, -1),
    ]:
        got = _minimal_start(laws, offset, start, bound)
        assert got == minimal_start_bisection(laws, offset, start, bound)


def test_degree_uses_exact_fractions():
    seq = ParametricSequence((Grow(1.0, Fraction(3, 2)), Grow(1.0, 2), Const(4)))
    c = Complex((2, 1, 5))
    assert seq.degree(c) == Fraction(3, 2) * 2 + 2
    assert isinstance(seq.degree(c), Fraction)


# -------------------------------------------------------------- partitions

def test_d_partition_cycle_two_tiers():
    part = d_partition(CYCLE.network, CYCLE_SEQ)
    assert part.kind == "D"
    assert part.tiers == (frozenset({0, 1, 2}), frozenset({3, 4}))
    assert part.infinite == frozenset()
    assert part.degrees == (Fraction(1),) * 3 + (Fraction(0),) * 2
    assert part.tier_of(0) == 1
    assert part.tier_of(4) == 2


def test_d_partition_orders_fractional_degrees():
    net = ReactionNetwork.from_reactions(
        ("A", "B"),
        [
            Reaction(Complex((2, 0)), Complex((0, 1))),
            Reaction(Complex((0, 1)), Complex((2, 0))),
        ],
    )
    seq = ParametricSequence((Grow(1.0, Fraction(1, 2)), Grow(1.0, Fraction(3, 2))))
    part = d_partition(net, seq)
    # deg(2A) = 1, deg(B) = 3/2
    assert part.tiers == (frozenset({1}), frozenset({0}))


def test_s_partition_cycle():
    part = s_partition(CYCLE.network, CYCLE_SEQ)
    assert part.kind == "S"
    assert part.top == frozenset({0, 1})  # A and A+B
    assert part.tiers == (frozenset({0, 1}),)
    assert part.infinite == frozenset({2, 3, 4})  # A+C, C, 2B
    assert part.tier_of(2) is None


def test_s_partition_birth_death():
    bd = birth_death()
    seq = ParametricSequence((Grow(),))
    part = s_partition(bd.network, seq)
    assert part.top == frozenset({1})  # S outranks the empty complex
    assert part.tiers == (frozenset({1}), frozenset({0}))
    assert part.infinite == frozenset()


def test_s_partition_all_infinite():
    # nothing grows enough: both complexes of A+B <-> 0 need A, which is 0
    net = pair_annihilation().network
    seq = ParametricSequence((Const(0), Grow()))
    part = s_partition(net, seq)
    assert part.tiers == (frozenset({1}),)  # the empty complex still fires
    assert part.infinite == frozenset({0})


def test_s_partition_requires_normalized_start():
    net = five_complex_cycle().network
    seq = ParametricSequence((Grow(), Const(1), Const(0)), start=1)
    shifted = seq.shifted((-1, 0, 0))  # A coordinate n-1 vanishes at n=1
    with pytest.raises(TailNotNormalizedError):
        s_partition(net, shifted)
    s_partition(net, shifted.normalized_for(net))  # fine after normalization


def test_partitions_match_numeric_growth_oracle_on_cycle():
    seq = CYCLE_SEQ.normalized_for(CYCLE.network)
    tiers, zero = numeric_tier_partition(
        CYCLE, seq.evaluate, CYCLE.network.complexes
    )
    s_part = s_partition(CYCLE.network, seq)
    assert s_part.tiers == tiers
    assert s_part.infinite == zero


def test_d_partition_shift_invariance_random():
    rng = random.Random(91542)
    nets = [CYCLE.network, creation_annihilation_loop().network]
    powers = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)]
    for _ in range(200):
        net = rng.choice(nets)
        seq = _random_sequence(rng, net.dim, powers)
        w = _valid_shift(rng, seq)
        assert d_partition(net, seq.shifted(w)) == d_partition(net, seq)


def _random_sequence(rng, d, powers):
    while True:
        laws = []
        for _ in range(d):
            if rng.random() < 0.5:
                laws.append(Const(rng.randrange(0, 4)))
            else:
                laws.append(Grow(rng.choice([0.5, 1.0, 2.0, 3.0]), rng.choice(powers)))
        if any(isinstance(l, Grow) for l in laws):
            return ParametricSequence(tuple(laws))


def _valid_shift(rng, seq):
    while True:
        w = tuple(rng.randrange(-3, 4) for _ in range(seq.dim))
        try:
            seq.shifted(w)
            return w
        except InvalidSequenceError:
            continue


def test_top_intensity_tier_survives_jump():
    """If a reaction's source is outside the infinite tier and its product is
    in the top growth tier, the product is in the top intensity tier of the
    shifted sequence."""
    rng = random.Random(5180)
    nets = [CYCLE.network, creation_annihilation_loop().network]
    powers = [Fraction(1), Fraction(2), Fraction(1, 2)]
    checked = 0
    for _ in range(300):
        net = rng.choice(nets)
        seq = _random_sequence(rng, net.dim, powers).normalized_for(net)
        d_top = d_partition(net, seq).top
        s_part = s_partition(net, seq)
        for r in net.reactions:
            src = net.complex_index(r.source)
            prd = net.complex_index(r.product)
            if src in s_part.infinite or prd not in d_top:
                continue
            try:
                moved = seq.shifted(r.change)
            except InvalidSequenceError:
                continue
            moved = moved.normalized_for(net)
            assert prd in s_partition(net, moved).top
            checked += 1
    assert checked > 100


def test_tier_crossing_reaction_exists_on_strongly_connected_nets():
    """With more than one growth tier, some reaction leaves the top tier."""
    rng = random.Random(777)
    powers = [Fraction(1), Fraction(2), Fraction(3)]
    found = 0
    for sys_ in (CYCLE, creation_annihilation_loop()):
        net = sys_.network
        for _ in range(150):
            seq = _random_sequence(rng, net.dim, powers)
            part = d_partition(net, seq)
            if len(part.tiers) < 2:
                continue
            found += 1
            assert any(
                net.complex_index(r.source) in part.top
                and net.complex_index(r.product) not in part.top
                for r in net.reactions
            )
    assert found > 50


# ------------------------------------------------------- path classification

def test_path_membership_cycle_drop_path():
    r = CYCLE.network.reactions
    rep = path_tier_membership(CYCLE.network, CYCLE_SEQ, [r[0], r[1], r[2]])
    assert rep.in_top_intensity
    assert rep.in_drop
    assert rep.first_drop_index == 3


def test_path_membership_blocked_source():
    r = CYCLE.network.reactions
    # C -> 2B: source C has identically zero intensity along (n, 1, 0)
    rep = path_tier_membership(CYCLE.network, CYCLE_SEQ, [r[3]])
    assert not rep.in_top_intensity
    assert not rep.in_drop
    assert rep.first_drop_index == 1  # product 2B sits below the top growth tier


def test_path_membership_no_drop():
    r = CYCLE.network.reactions
    rep = path_tier_membership(CYCLE.network, CYCLE_SEQ, [r[0]])
    assert rep.in_top_intensity
    assert not rep.in_drop
    assert rep.first_drop_index is None


def test_path_membership_empty_path():
    rep = path_tier_membership(CYCLE.network, CYCLE_SEQ, [])
    assert rep.in_top_intensity  # vacuous
    assert not rep.in_drop
    assert rep.first_drop_index is None


def test_path_membership_rejects_foreign_reaction():
    foreign = birth_death().network.reactions[0]
    with pytest.raises(ValueError):
        path_tier_membership(CYCLE.network, CYCLE_SEQ, [foreign])


def test_path_membership_step_uses_shifted_sequence():
    r = CYCLE.network.reactions
    # A+B is not in the top intensity tier at (n, 0, 0) but is after A -> A+B
    bare = ParametricSequence((Grow(), Const(0), Const(0)))
    alone = path_tier_membership(CYCLE.network, bare, [r[1]])
    assert not alone.in_top_intensity
    after = path_tier_membership(CYCLE.network, bare, [r[0], r[1]])
    assert after.in_top_intensity


def test_path_probability_limit_cycle_prefix():
    r = CYCLE.network.reactions
    limit = path_probability_limit(CYCLE, CYCLE_SEQ, [r[0], r[1]])
    assert limit == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_path_probability_limit_matches_finite_n():
    r = CYCLE.network.reactions
    path = [r[0], r[1]]
    limit = path_probability_limit(CYCLE, CYCLE_SEQ, path)
    at_n = path_probability(CYCLE, CYCLE_SEQ.evaluate(10**6), path)
    assert abs(at_n - limit) <= 1e-3 * limit


def test_path_probability_limit_zero_for_blocked_path():
    r = CYCLE.network.reactions
    assert path_probability_limit(CYCLE, CYCLE_SEQ, [r[3]]) == 0.0


def test_path_probability_limit_matches_coefficient_oracle():
    loop = creation_annihilation_loop((2.0, 1.0, 0.5, 1.0, 3.0, 1.0, 2.0, 0.25))
    net = loop.network
    seq = ParametricSequence((Const(2), Grow(2.0, 1), Grow(1.0, 1)))
    laws = [("const", 2), ("grow", 2.0, Fraction(1)), ("grow", 1.0, Fraction(1))]
    rng = random.Random(33)
    compared = 0
    for _ in range(40):
        path = [rng.choice(net.reactions) for _ in range(rng.randrange(1, 4))]
        try:
            got = path_probability_limit(loop, seq, path)
        except InvalidSequenceError:
            continue
        want = coefficient_path_limit(loop, laws, path)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        compared += 1
    assert compared > 25


def test_tier_walks_match_offset_bookkeeping_oracle():
    loop = creation_annihilation_loop((2.0, 1.0, 0.5, 1.0, 3.0, 1.0, 2.0, 0.25))
    powers = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
    rng = random.Random(60413)
    compared = invalid = 0
    for _ in range(400):
        system = rng.choice([CYCLE, loop])
        net = system.network
        while True:
            laws = []
            for _ in range(net.dim):
                if rng.random() < 0.5:
                    laws.append(("const", rng.randrange(0, 4)))
                else:
                    coef = rng.choice([0.5, 1.0, 2.0, 3.0])
                    laws.append(("grow", coef, rng.choice(powers)))
            if any(law[0] == "grow" for law in laws):
                break
        seq = ParametricSequence(
            tuple(Const(l[1]) if l[0] == "const" else Grow(l[1], l[2]) for l in laws)
        )
        growth_top, intensity_top = top_tiers_at(net, laws, [0] * net.dim)
        outside = sorted(intensity_top - growth_top)
        assert hypothesis_violation(net, seq) == (outside[0] if outside else None)

        path = [rng.choice(net.reactions) for _ in range(rng.randrange(0, 6))]
        want = path_membership_by_offsets(net, laws, path)
        if want is None:
            invalid += 1
            with pytest.raises(InvalidSequenceError):
                path_tier_membership(net, seq, path)
            with pytest.raises(InvalidSequenceError):
                path_probability_limit(system, seq, path)
            continue
        rep = path_tier_membership(net, seq, path)
        assert (rep.in_top_intensity, rep.in_drop, rep.first_drop_index) == want
        got = path_probability_limit(system, seq, path)
        assert got == pytest.approx(
            coefficient_path_limit(system, laws, path), rel=1e-12, abs=1e-15
        )
        compared += 1
    assert compared > 250 and invalid > 20


def test_incremental_tail_matches_the_scratch_oracle():
    loop = creation_annihilation_loop((2.0, 1.0, 0.5, 1.0, 3.0, 1.0, 2.0, 0.25))
    corpus_rng = random.Random(20260823)
    nets = [CYCLE.network, loop.network]
    nets += [random_theorem_network(corpus_rng) for _ in range(10)]
    powers = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
    rng = random.Random(91207)
    shifts = revived = killed = refused = 0
    for _ in range(600):
        net = rng.choice(nets)
        while True:
            laws = [
                ("const", rng.randrange(0, 4))
                if rng.random() < 0.5
                else ("grow", rng.choice([0.5, 1.0, 2.0]), rng.choice(powers))
                for _ in range(net.dim)
            ]
            if any(law[0] == "grow" for law in laws):
                break
        seq = ParametricSequence(
            tuple(Const(l[1]) if l[0] == "const" else Grow(l[1], l[2]) for l in laws)
        )
        tail, oracle = _Tail(net, seq), ScratchTail(net, seq)
        offset = [0] * net.dim
        assert tail.live() == oracle.live()
        assert tail.top() == oracle.top() == top_tiers_at(net, laws, offset)[1]
        for _ in range(rng.randrange(1, 12)):
            change = rng.choice(net.reactions).change
            try:
                oracle.shift(change)
            except InvalidSequenceError as e:
                with pytest.raises(InvalidSequenceError, match=re.escape(str(e))):
                    tail.shift(change)
                refused += 1
                break
            before = set(tail.live())
            tail.shift(change)
            offset = [w + h for w, h in zip(offset, change)]
            after = set(tail.live())
            revived += bool(after - before)
            killed += bool(before - after)
            shifts += 1
            assert tail.live() == oracle.live()
            assert tail.top() == oracle.top() == top_tiers_at(net, laws, offset)[1]
    assert shifts > 2000 and revived > 100 and killed > 100 and refused > 50


def test_tail_liveness_flips_both_ways_and_names_the_lower_negative_coordinate():
    # on the cycle with B and C pinned at 0: A -> A+B twice raises B to 2,
    # then 2B -> A drops it back to 0
    net = CYCLE.network
    a_b, two_b = net.complex_index(Complex((1, 1, 0))), net.complex_index(Complex((0, 2, 0)))
    tail = _Tail(net, ParametricSequence((Grow(), Const(0), Const(0))))
    seen = [(tail.top(), two_b in tail.live())]
    for r in (net.reactions[0], net.reactions[0], net.reactions[4]):
        tail.shift(r.change)
        seen.append((tail.top(), two_b in tail.live()))
    assert seen == [
        ({0}, False),
        ({0, a_b}, False),
        ({0, a_b}, True),
        ({0}, False),
    ]

    # 2A + B -> C drives A (1 - 2) and B (0 - 1) negative at once
    src, prd = Complex((2, 1, 0)), Complex((0, 0, 1))
    net = ReactionNetwork.from_reactions(("A", "B", "C"), [Reaction(src, prd), Reaction(prd, src)])
    seq = ParametricSequence((Const(1), Const(0), Grow()))
    message = "constant coordinate 1 with offset -2 is negative"
    for tail in (_Tail(net, seq), ScratchTail(net, seq)):
        with pytest.raises(InvalidSequenceError, match=f"^{message}$"):
            tail.shift(net.reactions[0].change)
    with pytest.raises(InvalidSequenceError, match=f"^{message}$"):
        path_tier_membership(net, seq, [net.reactions[0]] * 2)


# ------------------------------------------------------------ pattern scan

def test_hypothesis_violation_pair_annihilation():
    net = pair_annihilation().network
    seq = ParametricSequence((Grow(), Const(0)))
    idx = hypothesis_violation(net, seq)
    assert idx is not None
    assert net.complexes[idx].order == 0  # the empty complex


def test_hypothesis_violation_none_on_cycle():
    assert hypothesis_violation(CYCLE.network, CYCLE_SEQ) is None


def test_hypothesis_check_cycle_clean():
    report = hypothesis_check(CYCLE.network)
    assert not report.violation_found
    assert report.exhaustive
    assert report.patterns_enumerated == 5**3 - 2**3
    assert report.patterns_checked <= report.patterns_enumerated
    assert report.violating_sequence is None


def test_hypothesis_check_finds_pair_annihilation_violation():
    report = hypothesis_check(pair_annihilation().network)
    assert report.violation_found
    net = pair_annihilation().network
    assert net.complexes[report.violating_complex].order == 0
    laws = report.violating_sequence.laws
    assert any(isinstance(l, Grow) for l in laws)
    assert any(isinstance(l, Const) and l.value == 0 for l in laws)


def test_hypothesis_check_budget():
    report = hypothesis_check(CYCLE.network, pattern_budget=5)
    assert not report.exhaustive
    assert report.patterns_enumerated == 5


def test_hypothesis_check_dimension_guard():
    species = [f"S{i}" for i in range(13)]
    reactions = [
        Reaction(
            Complex(tuple(1 if j == i else 0 for j in range(13))),
            Complex(tuple(1 if j == (i + 1) % 13 else 0 for j in range(13))),
        )
        for i in range(13)
    ]
    net = ReactionNetwork.from_reactions(species, reactions)
    with pytest.raises(ValueError):
        hypothesis_check(net)


#: First violation at row 10 of the enumeration, after three patterns seen
#: twice; every row of a chunk past it is clean or repeats a pattern.
TRAP = "species: A, B, C\nA + B <-> 0 ; k=1, 1\nC <-> 0 ; k=1, 1"


def _counted_scans(monkeypatch) -> list:
    """Wraps ``tiers._scan_chunks``: one entry per scan, the number of
    chunks it handed out."""
    scans, real = [], crnkit.tiers._scan_chunks

    def counted(net, enumerated):
        scans.append(0)
        for chunk in real(net, enumerated):
            scans[-1] += 1
            yield chunk

    monkeypatch.setattr(crnkit.tiers, "_scan_chunks", counted)
    return scans


def _scan_fields(call, net, budget) -> dict:
    """The fields of one ``scan_patterns`` or ``hypothesis_check`` call,
    named as in ``oracles.scan_fields_by_labels``."""
    if call is scan_patterns:
        family = scan_patterns(net, budget)
        return {
            "sequences": family.sequences,
            "enumerated": family.enumerated,
            "exhaustive": family.exhaustive,
        }
    report = hypothesis_check(net, budget)
    assert report.violation_found == (report.violating_complex is not None)
    return {
        "enumerated": report.patterns_enumerated,
        "exhaustive": report.exhaustive,
        "patterns_checked": report.patterns_checked,
        "violating_sequence": report.violating_sequence,
        "violating_complex": report.violating_complex,
    }


def test_hypothesis_check_and_scan_patterns_share_one_pass(monkeypatch):
    scans = _counted_scans(monkeypatch)
    net = five_complex_cycle().network
    report = hypothesis_check(net)
    family = scan_patterns(net)
    assert len(scans) == 1
    assert not report.violation_found
    assert report.patterns_checked == len(family.sequences)
    # the memo is keyed by the labelings enumerated, not by the budget
    assert repr(hypothesis_check(net, 10**9)) == repr(report)
    assert scan_patterns(net, 10**9) == family
    assert len(scans) == 1
    hypothesis_check(net, 7)  # a different budget scans again ...
    scan_patterns(net, 7)  # ... once
    assert len(scans) == 2
    assert scan_patterns(net) == family  # the memo holds the last scan only
    assert len(scans) == 3
    hypothesis_check(five_complex_cycle().network)  # an equal, other network
    assert len(scans) == 4


def test_a_scan_stopped_at_a_violation_is_not_kept(monkeypatch):
    scans = _counted_scans(monkeypatch)
    net = parse(TRAP).network
    report = hypothesis_check(net)
    assert report.violation_found and net._scan_memo is None
    want = scan_fields_by_labels(net, 10**6)
    assert repr(_scan_fields(scan_patterns, net, 10**6)) == repr(
        {k: want[k] for k in ("sequences", "enumerated", "exhaustive")}
    )
    assert repr(hypothesis_check(net)) == repr(report)
    assert len(scans) == 2


def test_mixed_scan_call_orders_equal_the_label_loop(monkeypatch):
    # chunks of a few rows, budgets before, at and past the violation and
    # the whole family; each order starts on a freshly parsed network
    monkeypatch.setattr(crnkit.tiers, "_SCAN_CHUNK", 7)
    texts = [
        TRAP,
        "species: A, B\n3A <-> B ; k=1, 1\n0 <-> B ; k=1, 1",
        "species: A, B\nA + B -> 0 ; k=1\n0 -> A + B ; k=1",
        "species: A, B, C\nA -> B ; k=1\nB -> C ; k=1\nC -> A ; k=1\nA <-> 0 ; k=1, 1",
    ]
    S, H = scan_patterns, hypothesis_check
    for text in texts:
        for b1, b2 in [(10**6, 9), (10**6, 10), (11, 30), (0, 10**6), (4, 5)]:
            for order in [
                [(S, b1), (H, b2), (H, b1)],
                [(H, b1), (S, b1), (H, b2), (S, b2)],
                [(H, b2), (H, b1), (S, b2), (S, b1), (H, b2)],
            ]:
                net = parse(text).network
                for call, budget in order:
                    got = _scan_fields(call, net, budget)
                    want = scan_fields_by_labels(net, budget)
                    assert repr(got) == repr({k: want[k] for k in got}), (text, order)


def test_hypothesis_check_takes_no_chunk_past_the_violating_one(monkeypatch):
    chunk = 4
    monkeypatch.setattr(crnkit.tiers, "_SCAN_CHUNK", chunk)
    scans = _counted_scans(monkeypatch)
    report = hypothesis_check(parse(TRAP).network)
    labels = crnkit.tiers._SCAN_LABELS
    row = int("".join(str(labels.index(l)) for l in report.violating_sequence.laws), 5)
    assert row == 10
    assert scans == [row // chunk + 1]
    assert row // chunk + 1 < -(-(5**3) // chunk)  # chunks were left


# ------------------------------------------------------------ witness path

def test_witness_path_cycle_matches_construction():
    r = CYCLE.network.reactions
    path = witness_path(CYCLE.network, CYCLE_SEQ, target_len=5)
    assert path == (r[0], r[1], r[2], r[0], r[1])
    rep = path_tier_membership(CYCLE.network, CYCLE_SEQ, path)
    assert rep.in_top_intensity and rep.in_drop
    assert rep.first_drop_index == 3


def test_witness_path_default_length_is_reaction_count():
    path = witness_path(CYCLE.network, CYCLE_SEQ)
    assert len(path) == len(CYCLE.network.reactions)


def test_witness_path_birth_death():
    bd = birth_death()
    death = bd.network.reactions[1]
    seq = ParametricSequence((Grow(),))
    path = witness_path(bd.network, seq, target_len=2)
    assert path == (death, death)


def test_witness_path_no_drop_tier():
    iso = reversible_isomers()
    seq = ParametricSequence((Grow(), Grow()))
    with pytest.raises(NoDropComplexError):
        witness_path(iso.network, seq)


def test_witness_path_target_too_short():
    with pytest.raises(ValueError):
        witness_path(CYCLE.network, CYCLE_SEQ, target_len=2)


def test_witness_path_takes_an_integral_target_len_only():
    with pytest.raises(ValueError, match="target_len must be an integer >= 0, got 5.5"):
        witness_path(CYCLE.network, CYCLE_SEQ, target_len=5.5)
    assert witness_path(CYCLE.network, CYCLE_SEQ, target_len=5.0) == witness_path(
        CYCLE.network, CYCLE_SEQ, target_len=5
    )


@pytest.mark.parametrize(
    "text, spec, target_len, message",
    [
        (
            "A + B <-> 2B ; k=1, 1\n",
            "A=n, B=0",
            None,
            "every complex has identically zero intensity along the sequence",
        ),
        (
            "A + C -> 2B ; k=1\n",
            "A=2, B=0, C=n^2",
            3,
            "no reaction fires from the top intensity tier during the greedy "
            "extension",
        ),
        (
            "A + B <-> 0 ; k=1, 1\n",
            "A=n^2, B=2",
            3,
            "constructed path failed tier verification "
            "(in_top_intensity=True, in_drop=False)",
        ),
    ],
)
def test_witness_path_construction_errors(text, spec, target_len, message):
    net = parse(text).network
    seq = parse_sequence_spec(spec, net.species)
    with pytest.raises(WitnessPathError) as exc:
        witness_path(net, seq, target_len)
    assert type(exc.value) is WitnessPathError
    assert str(exc.value) == message


def test_witness_path_divergent_weighted_increment():
    """The probability-weighted Lyapunov increment of the witness path tends
    to minus infinity along the sequence, and is bounded above on the grid."""
    net = CYCLE.network
    path = witness_path(net, CYCLE_SEQ, target_len=5)
    delta = [0, 0, 0]
    for r in path:
        for i, c in enumerate(r.change):
            delta[i] += c
    vals = []
    for n in [10, 100, 1000, 10**4, 10**5, 10**6]:
        x = CYCLE_SEQ.evaluate(n)
        p = path_probability(CYCLE, x, path)
        dv = lyapunov(tuple(a + b for a, b in zip(x, delta))) - lyapunov(x)
        vals.append(p * dv)
    assert all(b < a for a, b in zip(vals, vals[1:]))  # strictly decreasing
    # divergence is logarithmic: roughly -(1/54) log n plus a constant
    assert vals[-1] < -0.25
    assert vals[-1] < 2.0 * vals[0]


# --------------------------------------------------------- increment bound

def test_lyapunov_increment_minus_log_bound():
    """V(x_n + h) - V(x_n) - log((x_n vee 1) ** h) is bounded above and
    non-increasing along the tail of a geometric grid."""
    for h in [(0, 1, 0), (0, -1, 1), (-1, 0, 0), (1, 2, -1)]:
        vals = []
        for n in [8, 32, 128, 512, 2048, 8192, 2**15, 2**17]:
            x = (n, 4, 2)
            xh = tuple(a + b for a, b in zip(x, h))
            log_term = sum(
                hi * math.log(max(xi, 1)) for xi, hi in zip(x, h)
            )
            vals.append(lyapunov(xh) - lyapunov(x) - log_term)
        assert all(v <= vals[0] + 1e-9 for v in vals)
        assert all(b <= a + 1e-9 for a, b in zip(vals[3:], vals[4:]))


# ----------------------------------------------------------- exact drift

def test_exact_drift_birth_death_frozen_value():
    bd = birth_death(1.0, 1.0)
    got = exact_kstep_drift(bd, (5,), 1)
    assert got == pytest.approx(-0.9677822225428117, rel=1e-12)


def test_exact_drift_matches_enumeration_oracle():
    for sys_, x, k in [
        (birth_death(2.0, 1.0), (3,), 4),
        (CYCLE, (10, 1, 0), 5),
        (CYCLE, (4, 2, 1), 3),
        (creation_annihilation_loop(), (2, 1, 1), 3),
    ]:
        assert exact_kstep_drift(sys_, x, k) == pytest.approx(
            enum_kstep_drift(sys_, x, k), rel=1e-10, abs=1e-12
        )


def test_exact_drift_k1_equals_step_distribution_expectation():
    for x in [(3, 1, 0), (7, 2, 1), (1, 0, 4)]:
        dist = embedded_step_distribution(CYCLE, x)
        expect = sum(p * (lyapunov(z) - lyapunov(x)) for z, p in dist.items())
        assert exact_kstep_drift(CYCLE, x, 1) == pytest.approx(expect, abs=1e-12)


def test_exact_drift_k0_is_zero():
    assert exact_kstep_drift(birth_death(), (4,), 0) == 0.0


def test_exact_drift_absorbing_raises():
    with pytest.raises(AbsorbingStateError):
        exact_kstep_drift(reversible_isomers(), (0, 0), 3)


def test_exact_drift_budget_guard():
    # birth-death from 5 collects 253k (state, level) pairs in 1000 steps
    with pytest.raises(BudgetExceededError, match="pairs after"):
        exact_kstep_drift(birth_death(), (5,), 1000, budget=10**5)


def test_exact_drift_budget_guard_refuses_huge_k_promptly():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        exact_kstep_drift(CYCLE, (3, 1, 0), 10**9)
    assert time.perf_counter() - start < 1.0


def test_exact_drift_budget_guard_is_exact():
    # refused iff the (state, level) pairs collected exceed the budget, for
    # 1, 2 and 5 reactions; each level holds a state, so k is never more
    for sys_, x in [
        (pure_birth(), (0,)),
        (reversible_isomers(), (2, 0)),
        (CYCLE, (3, 1, 0)),
    ]:
        for k in range(1, 6):
            pairs = kstep_drift_pairs(sys_, x, k)
            assert pairs >= k
            for budget in sorted({0, k - 1, k, pairs - 1, pairs}):
                if pairs > budget:
                    with pytest.raises(BudgetExceededError):
                        exact_kstep_drift(sys_, x, k, budget=budget)
                else:
                    assert exact_kstep_drift(sys_, x, k, budget=budget) == (
                        pytest.approx(enum_kstep_drift(sys_, x, k), abs=1e-12)
                    )
    with pytest.raises(BudgetExceededError):
        exact_kstep_drift(pure_birth(), (0,), 10**9, budget=0)


def test_exact_drift_pools_shared_changes_as_the_enumeration():
    # the pooled total is summed in successor order, not reaction order
    system = _pooling_system()
    for x in [(1, 1), (2, 1), (3, 2), (0, 3)]:
        for k in (1, 2, 4):
            assert exact_kstep_drift(system, x, k) == pytest.approx(
                enum_kstep_drift(system, x, k), abs=1e-12
            )


def test_exact_drift_one_reaction_refuses_more_steps_than_the_budget_promptly():
    # r ** k is 1 for every k; the step count alone must meet the budget
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="1000000000 steps"):
        exact_kstep_drift(pure_birth(), (0,), 10**9)
    assert time.perf_counter() - start < 1.0


def test_exact_drift_rejects_nan_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="NaN"):
        exact_kstep_drift(CYCLE, (1, 1, 0), 10**9, budget=math.nan)
    assert time.perf_counter() - start < 1.0


def test_exact_drift_rejects_a_non_integral_k():
    with pytest.raises(ValueError, match="k must be an integer"):
        exact_kstep_drift(birth_death(), (3,), 2.5)
    assert exact_kstep_drift(birth_death(), (3,), 2.0) == exact_kstep_drift(
        birth_death(), (3,), 2
    )


def test_exact_drift_long_horizon_needs_no_recursion():
    # one reaction collects one pair a level: 5000 pairs
    got = exact_kstep_drift(pure_birth(), (0,), 5000)
    assert got == lyapunov_difference((0,), (5000,))


def test_exact_drift_absorbing_branch_freezes_v():
    # A -> B with B inert: after one step the chain is stuck at (0, 1)
    net = ReactionNetwork.from_reactions(
        ("A", "B"), [Reaction(Complex((1, 0)), Complex((0, 1)))]
    )
    sys_ = MassActionSystem(net, (1.0,))
    v0 = lyapunov((1, 0))
    for k in (1, 2, 5):
        got = exact_kstep_drift(sys_, (1, 0), k)
        assert got == pytest.approx(lyapunov((0, 1)) - v0, abs=1e-14)


def test_exact_drift_matches_the_foldback_oracle_beyond_enumeration():
    # 8 ** 9, 5 ** 12 and 2 ** 30 paths: out of reach of full enumeration,
    # but within the default budget of (state, level) pairs
    for sys_, x, k in [
        (creation_annihilation_loop(), (50, 50, 50), 9),
        (CYCLE, (50, 1, 0), 12),
        (birth_death(2.0, 1.0), (3,), 30),
        (birth_death(), (5,), 30),
    ]:
        assert exact_kstep_drift(sys_, x, k) == pytest.approx(
            foldback_kstep_drift(sys_, x, k), rel=1e-12
        )


def test_exact_drift_raises_past_the_coordinate_limit():
    # the start may sit at the limit; expanding a state above it raises
    top = (STATE_COORD_MAX,)
    assert exact_kstep_drift(pure_birth(), top, 1) == lyapunov_difference(top, (1,))
    for k in (2, 3):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            exact_kstep_drift(pure_birth(), top, k)


# --------------------------------------------------------------- seq specs

def test_parse_sequence_spec_basic():
    seq = parse_sequence_spec("A=n, B=1, C=0", ("A", "B", "C"))
    assert seq.laws == (Grow(1.0, Fraction(1)), Const(1), Const(0))


def test_parse_sequence_spec_rich_expressions():
    seq = parse_sequence_spec("A=2*n^2, B=3", ("A", "B"))
    assert seq.laws == (Grow(2.0, Fraction(2)), Const(3))
    seq = parse_sequence_spec("A = 0.5n^3/2 , B = n", ("A", "B"))
    assert seq.laws == (Grow(0.5, Fraction(3, 2)), Grow(1.0, Fraction(1)))
    # an empty part between commas is skipped
    assert parse_sequence_spec("A=n,", ("A",)).laws == (Grow(1.0, Fraction(1)),)


def test_parse_sequence_spec_errors():
    with pytest.raises(InvalidSequenceError):
        parse_sequence_spec("A=1, B=1", ("A", "B"))  # nothing grows
    with pytest.raises(ValueError):
        parse_sequence_spec("A=n", ("A", "B"))  # B missing
    with pytest.raises(ValueError):
        parse_sequence_spec("A=n, Z=1", ("A", "B"))  # unknown species
    with pytest.raises(ValueError):
        parse_sequence_spec("A=n, A=1, B=1", ("A", "B"))  # duplicate
    with pytest.raises(ValueError):
        parse_sequence_spec("A=n^-1, B=1", ("A", "B"))  # bad exponent
    with pytest.raises(InvalidSequenceError):
        parse_sequence_spec("A=n^0, B=1", ("A", "B"))  # zero power
    with pytest.raises(InvalidSequenceError):
        parse_sequence_spec("A=0*n, B=1", ("A", "B"))  # zero coefficient
    with pytest.raises(ValueError, match="divides its power by zero"):
        parse_sequence_spec("A=n^1/0, B=1, C=0", ("A", "B", "C"))
    with pytest.raises(ValueError, match="^expected 'name=expr' in sequence spec, got 'A'$"):
        parse_sequence_spec("A", ("A",))


# ------------------------------------------ shared tails, trusted sequences

def _tail_systems():
    """The catalog systems, the demo files and the 100 acceptance-corpus
    networks (seeded rate constants in {0.5, 1, 2})."""
    systems = [
        getattr(catalog, name)()
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
    systems += [parse(path.read_text()) for path in DEMO_NETWORKS]
    rng = random.Random(20260823)
    for _ in range(100):
        net = random_theorem_network(rng)
        systems.append(MassActionSystem(net, [rng.choice((0.5, 1.0, 2.0)) for _ in net.reactions]))
    return systems


def _walks(system, seq) -> str:
    """Everything the tier walks answer along ``seq``, as one repr: the
    witness path (or the error it raises), its report and limit, the
    hypothesis check, both partitions and the normalized sequence."""
    net = system.network
    out = []
    try:
        path = witness_path(net, seq)
        out += [path, path_tier_membership(net, seq, path)]
        out.append(path_probability_limit(system, seq, path))
    except (WitnessPathError, ValueError) as e:
        out.append((type(e).__name__, str(e)))
    out.append(hypothesis_violation(net, seq))
    out.append(d_partition(net, seq))
    tail = seq.normalized_for(net)
    out += [tail, s_partition(net, tail)]
    return repr(out)


def test_tail_memo_matches_memo_free_tail_on_demos_and_corpus(monkeypatch):
    # up to 48 scan patterns per network, spread over its family
    calls = []
    for system in _tail_systems():
        seqs = scan_patterns(system.network).sequences
        calls += [(system, seq) for seq in seqs[:: -(-len(seqs) // 48)]]
    got = [_walks(system, seq) for system, seq in calls]
    with monkeypatch.context() as m:
        m.setattr(crnkit.tiers, "_Tail", MemoFreeTail)
        want = [_walks(system, seq) for system, seq in calls]
    assert got == want
    assert len(calls) > 3000


def test_tail_memo_serves_no_stale_entry_across_laws_and_networks(monkeypatch):
    # two networks over three species and law tuples that differ in kind,
    # in power, and only in coefficients and offsets (equal static parts)
    cycle, loop = five_complex_cycle(), creation_annihilation_loop()
    seqs = [
        ParametricSequence((Grow(), Const(1), Const(0))),
        ParametricSequence((Const(2), Grow(1.0, 2), Grow())),
        ParametricSequence((Grow(3.0), Const(1), Const(0)), (0, 2, 1)),
        ParametricSequence((Const(0), Grow(2.0, 2), Grow(0.5)), (1, 0, 0)),
    ]
    calls = [(system, seq) for seq in seqs for system in (cycle, loop)]
    calls += calls[::-1] + calls[::3] + calls[1::2]
    with monkeypatch.context() as m:
        m.setattr(crnkit.tiers, "_Tail", MemoFreeTail)
        want = [_walks(system, seq) for system, seq in calls]
    for (system, seq), expected in zip(calls, want):
        assert _walks(system, seq) == expected
        assert system.network._tail_memo[0] == seq.laws


def test_witness_prefix_matches_the_frontier_search_on_demos_and_corpus():
    # the witness starts with the first shortest walk out of the top growth
    # tier that the former frontier search found, from the same start
    found = 0
    for system in _tail_systems():
        net = system.network
        seqs = scan_patterns(net).sequences
        for seq in seqs[:: -(-len(seqs) // 16)]:
            tail = ScratchTail(net, seq)
            if not tail.top() or max(tail.rank) == 0 or tail.rank[min(tail.top())]:
                continue
            want = drop_prefix_by_frontiers(net, tail.rank, min(tail.top()))
            try:
                path = witness_path(net, seq)
            except WitnessPathError as e:
                assert want is not None or "is reachable" in str(e)
                continue
            assert path[: len(want)] == tuple(net.reactions[j] for j in want)
            found += 1
    assert found > 1000


def test_generator_matches_per_reaction_oracle_bit_for_bit():
    rng = random.Random(7)
    checked = 0
    for system in _tail_systems():
        net = system.network
        states = [tuple(rng.randrange(0, 6) for _ in range(net.dim)) for _ in range(20)]
        states += [(10**6,) + (1,) * (net.dim - 1), (0,) * net.dim]
        for seq in scan_patterns(net).sequences[:20]:
            tail = seq.normalized_for(net)
            states += [tail.evaluate(n) for n in (tail.start, tail.start + 1, 4 * tail.start)]
        for x in states:
            assert repr(generator_applied(system, x)) == repr(generator_by_reactions(system, x))
            checked += 1
    assert checked > 5000
    with pytest.raises(ValueError):
        generator_applied(CYCLE, (1.5, 1, 0))


def test_trusted_sequences_equal_the_checking_constructor():
    for system in _tail_systems():
        net = system.network
        if net.dim > 4:  # the label loop takes seconds at 5 species
            continue
        family = scan_patterns(net)
        want = scan_fields_by_labels(net, 10**6)
        assert repr(family.sequences) == repr(want["sequences"])
        report = hypothesis_check(net)
        assert repr(report.violating_sequence) == repr(want["violating_sequence"])
        for seq in family.sequences:
            tail = seq.normalized_for(net)
            assert repr(tail) == repr(ParametricSequence(seq.laws, seq.offset, tail.start))
    shifted = CYCLE_SEQ.shifted((-1, 2, 0)).normalized_for(CYCLE.network)
    assert repr(shifted) == repr(ParametricSequence(CYCLE_SEQ.laws, (-1, 2, 0), shifted.start))


def test_parsed_laws_are_cached_and_shared():
    a = parse_sequence_spec("A=n^2, B=1, C=0", ("A", "B", "C"))
    b = parse_sequence_spec("A = n^2, B=1, C=0", ("A", "B", "C"))
    assert all(x is y for x, y in zip(a.laws, b.laws))
    assert a.laws == (Grow(1.0, 2), Const(1), Const(0))
    assert _parse_sequence_expr.cache_info().maxsize is not None
