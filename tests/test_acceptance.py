"""Acceptance checks, one per shipped guarantee, each printing a single
pass/fail line.  Tolerances and budgets are part of the stated guarantees:
exact quantities at 1e-12, statistical gates at 4 standard errors or
significance 1e-3, and wall-clock budgets where a guarantee names one."""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from crnkit import (
    Complex,
    MassActionSystem,
    Reaction,
    ReactionNetwork,
    embedded_step_distribution,
    generator_applied,
    parse,
    path_probability,
    total_rate,
)
from crnkit.catalog import (
    birth_death,
    creation_annihilation_loop,
    five_complex_cycle,
    pair_annihilation,
    three_class_network,
)
from crnkit.errors import NoDropComplexError
from crnkit.simulate import (
    drift_estimate_mc,
    lyapunov_sublevel,
    occupancy_estimate,
    return_times,
    ssa_simulate,
    truncated_stationary,
)
from crnkit.structure import (
    is_weakly_reversible,
    linkage_classes,
    reachable_states,
    theorem_verdict,
)
import crnkit.tiers as tiers_module
from crnkit.tiers import (
    Const,
    Grow,
    ParametricSequence,
    d_partition,
    exact_kstep_drift,
    hypothesis_check,
    hypothesis_violation,
    parse_sequence_spec,
    path_probability_limit,
    path_tier_membership,
    s_partition,
    scan_patterns,
    witness_path,
)
from oracles import (
    enum_kstep_drift,
    linkage_classes_csgraph,
    numeric_source_growth_partition,
    numeric_tier_partition,
    poisson_truncated,
    reachable_by_dicts,
    scan_by_sequences,
    scan_fields_by_labels,
)


@contextmanager
def criterion(capsys, number, title):
    """Print exactly one line for the criterion, whatever happens."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {number:>2}: {title}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nacceptance {number:>2}: {title}: PASS")


def best_of(fn, repeats=3) -> float:
    elapsed = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - t0)
    return min(elapsed)


def names_of(net, indices) -> frozenset:
    return frozenset(net.format_complex(net.complexes[i]) for i in indices)


# ---------------------------------------------------------------------------
# random corpus of networks satisfying every theorem hypothesis


def random_theorem_network(rng: random.Random) -> ReactionNetwork:
    """A weakly reversible single-linkage-class binary network over up to 5
    species that contains S or 2S for every species S: a directed cycle
    through a random complex selection, plus random chords."""
    d = rng.randint(1, 5)
    species = tuple("ABCDE"[:d])
    pool = [Complex(tuple(0 for _ in range(d)))]
    singles, doubles = [], []
    for i in range(d):
        unit = [0] * d
        unit[i] = 1
        singles.append(Complex(tuple(unit)))
        double = [0] * d
        double[i] = 2
        doubles.append(Complex(tuple(double)))
    pool += singles + doubles
    for i in range(d):
        for j in range(i + 1, d):
            mixed = [0] * d
            mixed[i] = 1
            mixed[j] = 1
            pool.append(Complex(tuple(mixed)))
    chosen = []
    for i in range(d):
        witness = rng.choice([singles[i], doubles[i]])
        if witness not in chosen:
            chosen.append(witness)
    extras = [c for c in pool if c not in chosen]
    rng.shuffle(extras)
    for c in extras[: rng.randint(0, min(3, len(extras)))]:
        chosen.append(c)
    if len(chosen) < 2:
        chosen.append(next(c for c in pool if c not in chosen))
    rng.shuffle(chosen)
    m = len(chosen)
    reactions = [Reaction(chosen[k], chosen[(k + 1) % m]) for k in range(m)]
    for _ in range(rng.randint(0, m)):
        a, b = rng.randrange(m), rng.randrange(m)
        if a == b:
            continue
        chord = Reaction(chosen[a], chosen[b])
        if chord not in reactions:
            reactions.append(chord)
    return ReactionNetwork.from_reactions(species, reactions)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260823)
    return [random_theorem_network(rng) for _ in range(100)]


# ---------------------------------------------------------------------------


def test_criterion_01_generator_value_on_the_cycle(capsys):
    with criterion(capsys, 1, "generator applied to V along (n,1,0)"):
        system = five_complex_cycle()
        slope = 2 * math.log(2) - 1
        for n in (1, 10, 10**3, 10**6):
            value = generator_applied(system, (n, 1, 0))
            assert abs(value - n * slope) <= 1e-12 * (n * slope)
        runtime = best_of(lambda: generator_applied(system, (10**6, 1, 0)), 5)
        assert runtime < 1e-3


def test_criterion_02_structural_verdicts(capsys):
    with criterion(capsys, 2, "structural verdicts on the three reference nets"):
        loop = creation_annihilation_loop().network
        cycle = five_complex_cycle().network
        chain3 = three_class_network().network

        assert theorem_verdict(loop).positive_recurrent
        cycle_verdict = theorem_verdict(cycle)
        assert cycle_verdict.positive_recurrent
        witness_names = {
            cycle.format_complex(w) for w in cycle_verdict.species_report.witnesses
        }
        assert witness_names == {"A", "2B", "C"}

        classes = linkage_classes(chain3)
        assert len(classes.classes) == 3
        assert sum(classes.strongly_connected) == 1
        assert not is_weakly_reversible(chain3)

        for net in (loop, cycle, chain3):
            assert best_of(lambda n=net: theorem_verdict(n), 3) < 1e-2


def test_criterion_03_tier_partitions_match_numeric_oracle(capsys):
    with criterion(capsys, 3, "tier partitions along (n,1,0) vs numeric oracle"):
        net = five_complex_cycle().network
        seq = parse_sequence_spec("A=n, B=1, C=0", net.species).normalized_for(net)
        dpart = d_partition(net, seq)
        spart = s_partition(net, seq)

        assert [names_of(net, t) for t in dpart.tiers] == [
            frozenset({"A", "A + B", "A + C"}),
            frozenset({"C", "2B"}),
        ]
        assert [names_of(net, t) for t in spart.tiers] == [
            frozenset({"A", "A + B"})
        ]
        assert names_of(net, spart.infinite) == frozenset({"A + C", "C", "2B"})

        oracle_s, oracle_zero = numeric_tier_partition(
            net, seq.evaluate, net.complexes
        )
        assert oracle_s == spart.tiers
        assert oracle_zero == spart.infinite
        oracle_d = numeric_source_growth_partition(seq.evaluate, net.complexes)
        assert oracle_d == dpart.tiers


def test_criterion_04_pattern_scan_over_random_corpus(capsys, corpus):
    with criterion(capsys, 4, "pattern scan: 100 random nets clean, trap caught"):
        t0 = time.perf_counter()
        for net in corpus:
            assert theorem_verdict(net).positive_recurrent
            report = hypothesis_check(net)
            assert not report.violation_found
            assert report.exhaustive

        trap = pair_annihilation(1.0, 1.0).network
        grow_const = ParametricSequence((Grow(1, 1), Const(0)))
        assert hypothesis_violation(trap, grow_const) is not None
        trap_report = hypothesis_check(trap)
        assert trap_report.violation_found
        assert trap.complexes[trap_report.violating_complex].order == 0
        assert time.perf_counter() - t0 < 60.0


def test_linkage_classes_match_csgraph_oracle_on_corpus(corpus):
    for net in corpus:
        part = linkage_classes(net)
        assert (part.classes, part.strongly_connected) == linkage_classes_csgraph(net)


def test_reachable_states_match_dict_bfs_oracle_on_corpus(corpus):
    rng = random.Random(6113)
    for net in corpus[:40]:
        system = MassActionSystem(
            net, [rng.uniform(0.1, 3.0) for _ in net.reactions]
        )
        for _ in range(3):
            x0 = tuple(rng.randrange(0, 4) for _ in range(net.dim))
            for cap in (1, 2, 3, 5, 8, 13, 21, 60, 400):
                rep = reachable_states(system, x0, cap=cap)
                start, states, truncated, absorbing, min_rate = reachable_by_dicts(
                    system, x0, cap
                )
                assert (rep.start, rep.states, rep.truncated, rep.absorbing) == (
                    start,
                    states,
                    truncated,
                    absorbing,
                ), (net, x0, cap)
                assert repr(rep.min_total_rate) == repr(min_rate), (net, x0, cap)


def binary_ring(d: int) -> ReactionNetwork:
    """X1 -> X1 + X2 -> X2 -> X2 + X3 -> ... -> Xd + X1 -> X1."""
    cycle = []
    for i in range(d):
        cycle.append(Complex(tuple(int(j == i) for j in range(d))))
        cycle.append(Complex(tuple(int(j in (i, (i + 1) % d)) for j in range(d))))
    reactions = [Reaction(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return ReactionNetwork.from_reactions([f"X{i + 1}" for i in range(d)], reactions)


def test_pattern_scan_matches_per_labeling_oracle(corpus):
    # the oracle takes seconds per 5-species network; the ring covers that size
    nets = [net for net in corpus if net.dim <= 4][:16] + [
        five_complex_cycle().network,
        creation_annihilation_loop().network,
        three_class_network().network,
        birth_death().network,
        pair_annihilation().network,
        parse("species: A, B\nA + B -> 0 ; k=1\n0 -> A + B ; k=1").network,
        binary_ring(5),
        # A appears only in 3A, which A = 2 leaves vanishing as A = 0 does
        parse("species: A, B\n3A <-> B ; k=1, 1\n0 <-> B ; k=1, 1").network,
        # degrees past int64, keyed in 63-bit limbs; the parser caps entries
        # at 999, so this one is built by hand
        ReactionNetwork.from_reactions(
            ("A", "B"),
            [
                Reaction(Complex((2**62, 0)), Complex((0, 1))),
                Reaction(Complex((0, 1)), Complex((2**62, 0))),
                Reaction(Complex((0, 0)), Complex((1, 0))),
                Reaction(Complex((1, 0)), Complex((0, 0))),
            ],
        ),
    ]
    hits = 0
    for net in nets:
        total = 5**net.dim - 2**net.dim
        for budget in (0, 1, 7, total - 1, total, total + 1, -1):
            want = scan_by_sequences(net, budget)
            family = scan_patterns(net, budget)
            assert family.sequences == want["sequences"]
            assert family.enumerated == want["enumerated"]
            assert family.exhaustive == want["exhaustive"]
            report = hypothesis_check(net, budget)
            assert report.violation_found == (want["violating_complex"] is not None)
            assert report.patterns_enumerated == want["enumerated"]
            assert report.patterns_checked == want["patterns_checked"]
            assert report.exhaustive == want["exhaustive"]
            assert report.violating_sequence == want["violating_sequence"]
            assert report.violating_complex == want["violating_complex"]
            hits += report.violation_found
    assert hits > 0


def assert_scan_matches_label_loop(net, budget):
    """``scan_patterns`` and ``hypothesis_check`` equal, field by field and
    by ``repr``, to the per-labeling loop over labels."""
    want = scan_fields_by_labels(net, budget)
    family = scan_patterns(net, budget)
    report = hypothesis_check(net, budget)
    got = {
        "sequences": family.sequences,
        "enumerated": family.enumerated,
        "exhaustive": family.exhaustive,
        "patterns_checked": report.patterns_checked,
        "violating_sequence": report.violating_sequence,
        "violating_complex": report.violating_complex,
    }
    for field, value in want.items():
        assert repr(got[field]) == repr(value), (field, budget)
    assert report.patterns_enumerated == want["enumerated"]
    assert report.exhaustive == want["exhaustive"]
    assert report.violation_found == (want["violating_complex"] is not None)
    return report


def test_chunked_scan_matches_label_loop_on_rings():
    for d in (6, 7):
        report = assert_scan_matches_label_loop(binary_ring(d), 1_000_000)
        assert report.exhaustive and not report.violation_found


def test_chunked_scan_matches_label_loop_across_chunks(corpus, monkeypatch):
    # chunks of a few rows: budgets cut on a chunk boundary and inside one
    chunk = 7
    monkeypatch.setattr(tiers_module, "_SCAN_CHUNK", chunk)
    nets = [net for net in corpus if net.dim >= 2][:8] + [
        pair_annihilation().network,
        parse("species: A, B\n3A <-> B ; k=1, 1\n0 <-> B ; k=1, 1").network,
        # first violation at row 10, after three patterns seen twice
        parse("species: A, B, C\nA + B <-> 0 ; k=1, 1\nC <-> 0 ; k=1, 1").network,
    ]
    hits = 0
    for net in nets:
        grows = [
            any(isinstance(l, Grow) for l in labels)
            for labels in itertools.product(tiers_module._SCAN_LABELS, repeat=net.dim)
        ]
        total = sum(grows)
        budgets = {0, 1, total - 1, total, total + 1, -1}
        for k in (1, 2, 5, len(grows) // chunk // 2):
            boundary = sum(grows[: k * chunk])
            budgets |= {boundary - 1, boundary, boundary + 1}
        for budget in sorted(budgets):
            report = assert_scan_matches_label_loop(net, budget)
            hits += report.violation_found
    assert hits > 0


def test_chunked_scan_keeps_degrees_exact_past_int64():
    # 3 * row sum takes the degrees through int8 ... int64 and past it; the
    # degrees p * big tell the labelings apart only in their high bits
    for big in (50, 10**6, 10**12, 2**62, 2**70, 10**40):
        a, b, zero = Complex((big, 0)), Complex((0, big)), Complex((0, 0))
        net = ReactionNetwork.from_reactions(
            ["A", "B"], [Reaction(a, b), Reaction(b, zero), Reaction(zero, a)]
        )
        for budget in (1_000_000, 5):
            assert_scan_matches_label_loop(net, budget)


def test_pattern_scan_of_the_8_ring_is_exhaustive_and_clean():
    report = hypothesis_check(binary_ring(8))
    assert report.exhaustive and not report.violation_found
    assert report.patterns_enumerated == report.patterns_checked == 390_369


def test_criterion_05_growth_partition_shift_invariance(capsys):
    with criterion(capsys, 5, "growth partition invariant under 500 random shifts"):
        labels = [
            Const(0),
            Const(1),
            Const(2),
            Const(3),
            Grow(1, 1),
            Grow(2, 1),
            Grow(1, 2),
            Grow(1, 3),
            Grow(1, Fraction(1, 2)),
            Grow(3, Fraction(3, 2)),
        ]
        rng = random.Random(7331)
        for _ in range(500):
            net = random_theorem_network(rng)
            laws = [rng.choice(labels) for _ in range(net.dim)]
            if not any(isinstance(l, Grow) for l in laws):
                laws[rng.randrange(net.dim)] = Grow(1, 1)
            offset = []
            for law in laws:
                w = rng.randint(-1, 2)
                if isinstance(law, Const):
                    w = max(w, -law.value)
                offset.append(w)
            seq = ParametricSequence(tuple(laws), tuple(offset))
            shift_vec = []
            for law, w in zip(seq.laws, seq.offset):
                v = rng.randint(-3, 3)
                if isinstance(law, Const):
                    v = max(v, -(law.value + w))
                shift_vec.append(v)
            assert d_partition(net, seq.shifted(shift_vec)) == d_partition(net, seq)


def test_criterion_06_exact_drift_vs_monte_carlo_and_trend(capsys):
    with criterion(capsys, 6, "embedded drift: exact vs MC, 5-step trend"):
        t0 = time.perf_counter()
        bd = birth_death(1.0, 1.0)
        exact = exact_kstep_drift(bd, (5,), 1)
        assert abs(exact - enum_kstep_drift(bd, (5,), 1)) <= 1e-12
        assert abs(exact - (-0.9677822225428117)) <= 1e-12
        mean, stderr = drift_estimate_mc(bd, (5,), 1, replicas=10**5, seed=424242)
        assert abs(mean - exact) < 4 * stderr

        cycle = five_complex_cycle()
        ns = (10, 10**2, 10**3, 10**4)
        five_step = [exact_kstep_drift(cycle, (n, 1, 0), 5) for n in ns]
        assert all(a > b for a, b in zip(five_step, five_step[1:]))
        first_negative = next(i for i, v in enumerate(five_step) if v < 0)
        assert all(v < 0 for v in five_step[first_negative:])
        one_step = [exact_kstep_drift(cycle, (n, 1, 0), 1) for n in ns]
        assert all(v > 0 for v in one_step)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_07_path_probability_limit(capsys):
    with criterion(capsys, 7, "two-step path probability limit 1/3"):
        system = five_complex_cycle()
        net = system.network
        seq = parse_sequence_spec("A=n, B=1, C=0", net.species)
        by_name = {r.format(net.species): r for r in net.reactions}
        path = (by_name["A -> A + B"], by_name["A + B -> A + C"])
        limit = path_probability_limit(system, seq, path)
        assert abs(limit - 1 / 3) < 1e-15
        at_large_n = path_probability(system, (10**6, 1, 0), path)
        assert abs(at_large_n - limit) <= 1e-3 * limit


def test_criterion_08_simulation_distributional_checks(capsys):
    with criterion(capsys, 8, "stationary solve, occupancy TV, chi-square, KS"):
        t0 = time.perf_counter()
        system = birth_death(2.0, 1.0)
        solve = truncated_stationary(system, [(i,) for i in range(41)])
        closed_form = poisson_truncated(2.0, 40)
        assert (
            max(
                abs(solve.probability_of((i,)) - closed_form[i]) for i in range(41)
            )
            < 1e-8
        )

        occupancy = occupancy_estimate(system, (0,), t_max=10**6, seed=31337)
        support = set(occupancy.as_dict()) | set(solve.as_dict())
        tv = 0.5 * sum(
            abs(occupancy.probability_of(x) - solve.probability_of(x))
            for x in support
        )
        assert tv <= 0.02

        sample = ssa_simulate(system, (1,), max_jumps=120_000, seed=2024)
        successors = {}
        holds = []
        for row in range(len(sample) - 1):
            if tuple(int(v) for v in sample.states[row]) != (1,):
                continue
            nxt = tuple(int(v) for v in sample.states[row + 1])
            successors[nxt] = successors.get(nxt, 0) + 1
            holds.append(sample.times[row + 1] - sample.times[row])
        dist = embedded_step_distribution(system, (1,))
        visits = sum(successors.values())
        assert visits >= 10_000
        chi = stats.chisquare(
            [successors.get(nxt, 0) for nxt in sorted(dist)],
            [dist[nxt] * visits for nxt in sorted(dist)],
        )
        assert chi.pvalue > 1e-3
        ks = stats.kstest(
            np.asarray(holds), "expon", args=(0.0, 1.0 / total_rate(system, (1,)))
        )
        assert ks.pvalue > 1e-3
        assert time.perf_counter() - t0 < 120.0


def test_criterion_09_return_time_probe(capsys):
    with criterion(capsys, 9, "return times to {V <= 10}: all replicas return"):
        system = five_complex_cycle()
        target = lyapunov_sublevel(10.0)
        means = []
        for master_seed in (101, 202, 303):
            result = return_times(
                system,
                (1, 1, 1),
                target,
                horizon=10**5,
                replicas=200,
                seed=master_seed,
            )
            assert result.non_returning == 0
            assert len(result.times) == 200
            means.append(result.mean)
        assert max(means) / min(means) - 1 <= 0.20


def test_criterion_10_witness_paths_across_the_corpus(capsys, corpus):
    with criterion(capsys, 10, "witness paths valid for every scanned pattern"):
        successes = 0
        skipped_single_tier = 0
        for net in corpus:
            for seq in scan_patterns(net).sequences:
                try:
                    path = witness_path(net, seq)
                except NoDropComplexError:
                    # every complex in one growth tier: nothing can drop, and
                    # no witness is claimed for such patterns
                    skipped_single_tier += 1
                    continue
                report = path_tier_membership(net, seq, path)
                assert report.in_top_intensity
                assert report.in_drop
                successes += 1
        assert successes > 0
        assert skipped_single_tier < successes
