"""Independent reference computations used to freeze expected test values.

Everything here is written directly from first principles (explicit falling
products, brute-force graph closures, full path enumerations, closed-form
stationary laws) without calling the library code under test, so agreement
between the two routes is meaningful.  The exceptions keep former routes
of the library as checks on the current ones.  ``scan_by_sequences`` is the
pattern scan with one sequence and one tail per labeling, and
``scan_by_labels`` its loop over labelings, as checks on the chunked numpy
pass; ``ScratchTail`` is the tier walks' former tail, recomputed from
scratch at every query, as a check on the incremental one;
``replica_generator`` builds a replica's stream the way the samplers once
did, per replica, and ``EagerDrawBlock`` is their former draw block, which
turned each block into Python floats whole, as a check on the chunked one
(every sampler oracle draws through it); ``law_value_fraction`` and
``minimal_start_bisection`` are the sequence laws' former evaluation, in
``Fraction`` arithmetic with a float-seeded root, and the start search by
doubling and bisection over it.  ``step_by_rates`` is the direct-method
jump as the samplers took it before they remembered each state's jump law,
recomputing the rates and scanning them at every jump; ``ssa_by_rates``,
``occupancy_by_rates`` and ``return_times_by_rates`` drive it as the
samplers do.  ``pooled_rates_by_reactions`` and ``reachable_by_dicts`` are
the former ``transition_rates`` and the breadth-first search over its dicts,
as checks on the table-driven expansion; ``linkage_classes_csgraph`` is the
former scipy linkage-class computation; ``csv_by_writer`` is the CSV the
command line wrote row by row through ``csv.writer``, and
``stationary_by_dicts`` the stationary report it wrote through ``_emit``
with every distribution row a dict.
``generator_by_reactions`` is the generator summed through
``lyapunov_difference`` reaction by reaction, as a check on the sparse
pass; ``MemoFreeTail`` is the tier walks' tail with its static part built
afresh for every tail, as a check on the per-network memo; and
``scan_fields_by_labels`` builds its family through the checking
``ParametricSequence`` constructor, as a check on the scan's trusted path.
``foldback_kstep_drift`` is the exact drift's former two passes, the
states collected level by level and expectations folded back, as a check
on the forward pass over the chain's law at depths that full path
enumeration cannot reach.  ``drop_prefix_by_frontiers`` is the witness
path's former search for its drop prefix, frontier lists and parent
pointers walked back, as a check on the breadth-first table.
``stationary_by_moves`` is the censored solve as it was built before the
array pass: each state expanded by ``_moves``, its successors looked up in
a dict, and every matrix made by scipy's fancy indexing, ``diags`` and
``vstack``, as a check on ``kinetics._region_moves`` and on the matrices
built from index arrays.
``drift_backward`` is the exact k-step drift from many starts by a second
algorithm: the one-step drift g = PV - V summed along the chain by the
backward recursion w <- g + P w, as a check on the forward pass over the
chain's law.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from crnkit.cli import _emit
from crnkit.errors import AmbiguousRegionError, BudgetExceededError
from crnkit.kinetics import _moves, _rates, _region_moves, lyapunov_difference
from crnkit.network import STATE_COORD_MAX, as_state
from crnkit.simulate import _BLOCK, StationaryEstimate
from crnkit.tiers import Grow, _Tail


def falling_product(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1) by explicit multiplication; 0 when x < k."""
    out = 1
    for j in range(k):
        out *= x - j
    return max(out, 0) if x < k else out


def hand_intensity(source_coeffs, x) -> float:
    out = 1
    for xi, yi in zip(x, source_coeffs):
        if xi < yi:
            return 0.0
        out *= falling_product(xi, yi)
    return float(out)


def hand_rates(system, x):
    """Per-reaction rates at x, computed with the explicit falling product."""
    return [
        k * hand_intensity(r.source.coeffs, x)
        for r, k in zip(system.network.reactions, system.rate_constants)
    ]


def replica_generator(seed: int, r: int) -> np.random.Generator:
    """Replica r's generator built from scratch: Philox on the spawned
    ``SeedSequence(seed, spawn_key=(r,))``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,)))
    )


def v_scalar(t: int) -> float:
    return 1.0 if t == 0 else t * (math.log(t) - 1.0) + 1.0


def v_value(x) -> float:
    return sum(v_scalar(t) for t in x)


def enum_kstep_drift(system, x, k: int) -> float:
    """Expected V(Z_k) - V(Z_0) of the jump chain by full path enumeration.

    Enumerates reaction sequences of length k depth-first without any
    memoization; absorbing intermediates hold V constant.
    """
    reactions = system.network.reactions
    kappas = system.rate_constants

    def recurse(state, depth, prob):
        rates = [
            kk * hand_intensity(r.source.coeffs, state)
            for r, kk in zip(reactions, kappas)
        ]
        lam_bar = sum(rates)
        if depth == 0 or lam_bar == 0.0:
            return prob * (v_value(state) - v0)
        acc = 0.0
        for r, lam in zip(reactions, rates):
            if lam == 0.0:
                continue
            nxt = tuple(s + c for s, c in zip(state, r.change))
            acc += recurse(nxt, depth - 1, prob * lam / lam_bar)
        return acc

    v0 = v_value(tuple(x))
    return recurse(tuple(x), k, 1.0)


def kstep_drift_pairs(system, x, k: int) -> int:
    """Distinct (state, level) pairs in the laws of Z_1, ..., Z_k of the jump
    chain from ``x``: each level is the set of successors, one per reaction
    with positive hand-computed intensity, of the one before; an absorbing
    state stays put."""
    reactions = system.network.reactions
    level = {tuple(x)}
    pairs = 0
    for _ in range(k):
        nxt = set()
        for state in level:
            live = [
                r.change for r in reactions
                if hand_intensity(r.source.coeffs, state) > 0.0
            ]
            if not live:
                nxt.add(state)
            for h in live:
                nxt.add(tuple(a + b for a, b in zip(state, h)))
        level = nxt
        pairs += len(level)
    return pairs


def foldback_kstep_drift(system, x, k: int) -> float:
    """Expected V(Z_k) - V(Z_0) of the jump chain as ``exact_kstep_drift``
    once took it: the states reached are collected level by level with their
    rates, one successor per reaction, then expectations are folded back
    from the last level; absorbing intermediates hold V constant."""
    x0 = tuple(x)
    table = system._rate_table
    changes = [r.change for r in system.network.reactions]

    def rel_v(state):
        return lyapunov_difference(x0, tuple(a - b for a, b in zip(state, x0)))

    levels = [{x0: _rates(table, x0)}]
    for j in range(1, k + 1):
        level = {}
        for state, (rates, _total) in levels[-1].items():
            for lam, ch in zip(rates, changes):
                if lam != 0.0:
                    nxt = tuple(a + b for a, b in zip(state, ch))
                    if nxt not in level:
                        level[nxt] = _rates(table, nxt) if j < k else None
        levels.append(level)
    expected = {state: rel_v(state) for state in levels.pop()}
    for level in reversed(levels):
        folded = {}
        for state, (rates, lam_bar) in level.items():
            out = rel_v(state) if lam_bar == 0.0 else 0.0
            for lam, ch in zip(rates, changes):
                if lam != 0.0:
                    nxt = tuple(a + b for a, b in zip(state, ch))
                    out += (lam / lam_bar) * expected[nxt]
            folded[state] = out
        expected = folded
    return expected[x0]


def transitive_closure_weakly_reversible(net) -> bool:
    """Weak reversibility by brute force: every directed edge must lie on a
    directed cycle, equivalently reachability is symmetric on each
    undirected component.  Uses Floyd-Warshall closure; fine for small nets.
    """
    n = len(net.complexes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for r in net.reactions:
        reach[net.complex_index(r.source)][net.complex_index(r.product)] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    # undirected components via repeated sweeps
    comp = list(range(n))
    undirected = [[False] * n for _ in range(n)]
    for r in net.reactions:
        a = net.complex_index(r.source)
        b = net.complex_index(r.product)
        undirected[a][b] = undirected[b][a] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if undirected[i][j] and comp[j] != comp[i]:
                    tgt = min(comp[i], comp[j])
                    if comp[i] != tgt or comp[j] != tgt:
                        comp[i] = comp[j] = tgt
                        changed = True
    for i in range(n):
        for j in range(n):
            if comp[i] == comp[j] and reach[i][j] != reach[j][i]:
                return False
    return True


def poisson_truncated(lam: float, n_max: int):
    """Poisson(lam) conditioned on {0, ..., n_max}.  The weights
    lam^k / k! are taken in logs and scaled by the largest before
    exponentiating, so they neither overflow nor underflow as a whole for
    lam in the thousands."""
    logs = [k * math.log(lam) - math.lgamma(k + 1) for k in range(n_max + 1)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return [w / total for w in weights]


def numeric_growth_exponent(values, ns):
    """Slope of log(value) against log(n) between two sample points, as a
    Fraction with small denominator.  values[i] corresponds to ns[i]."""
    v1, v2 = values
    n1, n2 = ns
    if v1 == 0.0 or v2 == 0.0:
        return None
    slope = math.log(v2 / v1) / math.log(n2 / n1)
    return Fraction(round(slope * 12), 12)


def numeric_tier_partition(system_or_net, seq_eval, complexes, ns=(10**3, 10**6)):
    """Classify complexes by numerically measured intensity growth.

    ``seq_eval(n)`` must return the state x_n.  Returns (ordered tiers,
    zero set) where tiers is a list of frozensets of complex indices sorted
    by decreasing measured growth exponent, matching exact-arithmetic tier
    construction for monomial sequences when the sample points are far
    enough apart.
    """
    zero = set()
    exponents = {}
    for idx, c in enumerate(complexes):
        vals = []
        for n in ns:
            x = seq_eval(n)
            vals.append(hand_intensity(c.coeffs, x))
        if all(v == 0.0 for v in vals):
            zero.add(idx)
            continue
        if any(v == 0.0 for v in vals):
            raise AssertionError(
                "intensity vanishes at one sample point only; sequence not tail-normalized"
            )
        exponents[idx] = numeric_growth_exponent(vals, ns)
    by_exp = {}
    for idx, e in exponents.items():
        by_exp.setdefault(e, set()).add(idx)
    tiers = tuple(
        frozenset(by_exp[e]) for e in sorted(by_exp, reverse=True)
    )
    return tiers, frozenset(zero)


def numeric_source_growth_partition(seq_eval, complexes, ns=(10**3, 10**6)):
    """Classify complexes by numerically measured growth of the source
    monomial prod(max(x_i, 1) ** y_i), the quantity behind the growth-type
    tiers.  Same contract as ``numeric_tier_partition`` but with no zero
    set: the monomial is always >= 1."""
    exponents = {}
    for idx, c in enumerate(complexes):
        vals = []
        for n in ns:
            x = seq_eval(n)
            v = 1.0
            for xi, yi in zip(x, c.coeffs):
                v *= max(xi, 1) ** yi
            vals.append(v)
        e = numeric_growth_exponent(vals, ns)
        exponents[idx] = Fraction(0) if e is None else e
    by_exp = {}
    for idx, e in exponents.items():
        by_exp.setdefault(e, set()).add(idx)
    return tuple(frozenset(by_exp[e]) for e in sorted(by_exp, reverse=True))


def coefficient_path_limit(system, laws, path):
    """Limiting embedded-path probability from leading-coefficient ratios.

    ``laws`` maps species index to either ("const", c) or ("grow", a, p with
    p a Fraction).  Implemented straight from the limit formula: at each step
    the factor is kappa * lead(source) / sum over reactions whose source is
    in the current top intensity tier of kappa * lead(source), using exact
    offset bookkeeping for the constant coordinates.
    """
    d = len(laws)
    offset = [0] * d

    def degree(c):
        return sum(
            Fraction(c.coeffs[i]) * laws[i][2]
            for i in range(d)
            if laws[i][0] == "grow"
        )

    def lead(c):
        out = 1.0
        for i in range(d):
            ci = c.coeffs[i]
            if ci == 0:
                continue
            if laws[i][0] == "grow":
                out *= laws[i][1] ** ci
            else:
                base = laws[i][1] + offset[i]
                if base < ci:
                    return 0.0
                out *= falling_product(base, ci)
        return out

    prob = 1.0
    for r in path:
        alive = [
            (rr, kk)
            for rr, kk in zip(system.network.reactions, system.rate_constants)
            if lead(rr.source) > 0.0
        ]
        if not alive:
            return 0.0
        top_deg = max(degree(rr.source) for rr, _ in alive)
        top = [(rr, kk) for rr, kk in alive if degree(rr.source) == top_deg]
        kappa = system.rate_constant(r)
        num = kappa * lead(r.source)
        if degree(r.source) != top_deg or num == 0.0:
            return 0.0
        den = sum(kk * lead(rr.source) for rr, kk in top)
        prob *= num / den
        for i, hi in enumerate(r.change):
            offset[i] += hi
    return prob


def top_tiers_at(net, laws, offset):
    """(top growth tier, top intensity tier) of ``net`` along ``laws`` with
    the constant coordinates moved by ``offset``.

    ``laws`` has the format of ``coefficient_path_limit``.  Written straight
    from the definitions: a complex fires along the tail unless some
    constant coordinate sits below its entry, and its growth exponent sums
    entry times power over the growing coordinates.
    """
    d = len(laws)
    degrees = [
        sum(Fraction(c.coeffs[i]) * laws[i][2] for i in range(d) if laws[i][0] == "grow")
        for c in net.complexes
    ]
    top_degree = max(degrees)
    growth_top = frozenset(j for j, g in enumerate(degrees) if g == top_degree)
    firing = [
        j
        for j, c in enumerate(net.complexes)
        if all(
            laws[i][0] == "grow" or laws[i][1] + offset[i] >= c.coeffs[i]
            for i in range(d)
        )
    ]
    if not firing:
        return growth_top, frozenset()
    best = max(degrees[j] for j in firing)
    return growth_top, frozenset(j for j in firing if degrees[j] == best)


def path_membership_by_offsets(net, laws, path):
    """Tier classification of ``path`` by explicit offset bookkeeping.

    Step m is judged at the offsets accumulated over the first m-1
    reactions.  Returns None when one of those consulted offsets drives a
    constant coordinate negative (the shift after the last step is never
    consulted); otherwise (in_top_intensity, in_drop, first_drop_index) as
    in ``PathTierReport``.
    """
    d = len(laws)
    offset = [0] * d
    in_top = True
    sources_in_growth_top = True
    first_drop = None
    for m, r in enumerate(path, start=1):
        if m > 1:
            for i, h in enumerate(path[m - 2].change):
                offset[i] += h
            if any(laws[i][0] == "const" and laws[i][1] + offset[i] < 0 for i in range(d)):
                return None
        growth_top, intensity_top = top_tiers_at(net, laws, offset)
        src = net.complex_index(r.source)
        in_top = in_top and src in intensity_top
        sources_in_growth_top = sources_in_growth_top and src in growth_top
        if first_drop is None and net.complex_index(r.product) not in growth_top:
            first_drop = m
    in_drop = bool(path) and sources_in_growth_top and first_drop is not None
    return in_top, in_drop, first_drop


def drop_prefix_by_frontiers(net, rank, start: int):
    """Reaction indices of the first shortest walk from complex ``start`` to
    a complex of nonzero ``rank``, searched frontier by frontier with
    parent pointers and walked back from the goal; None when none is
    reachable."""
    parent = {start: None}
    frontier = [start]
    goal = None
    while frontier and goal is None:
        nxt = []
        for u in frontier:
            for v, j in net._out_edges[u]:
                if v in parent:
                    continue
                parent[v] = (u, j)
                if rank[v]:
                    goal = v
                    break
                nxt.append(v)
            if goal is not None:
                break
        frontier = nxt
    if goal is None:
        return None
    prefix = []
    while parent[goal] is not None:
        goal, j = parent[goal]
        prefix.append(j)
    return prefix[::-1]


class ScratchTail:
    """A sequence's tail along a network with every query answered from
    scratch: the complexes' degrees, growth ranks (0 is the top growth
    tier) and needs on the constant coordinates, and the current offsets.
    ``live()`` and ``top()`` rescan every complex; ``shift`` raises
    ``InvalidSequenceError`` as ``ParametricSequence.shifted`` does."""

    def __init__(self, net, seq):
        from crnkit.tiers import Const

        self.degrees = tuple(seq.degree(c) for c in net.complexes)
        common = math.lcm(*(d.denominator for d in self.degrees))
        scaled = [d.numerator * (common // d.denominator) for d in self.degrees]
        rank_of = {v: r for r, v in enumerate(sorted(set(scaled), reverse=True))}
        self.rank = [rank_of[v] for v in scaled]
        self.laws = seq.laws
        self.offset = list(seq.offset)
        self.needs = [
            [(i, ci) for i, ci in enumerate(c.coeffs) if ci and isinstance(seq.laws[i], Const)]
            for c in net.complexes
        ]

    def live(self) -> list:
        laws, offset = self.laws, self.offset
        return [
            j
            for j, need in enumerate(self.needs)
            if all(laws[i].value + offset[i] >= ci for i, ci in need)
        ]

    def top(self) -> frozenset:
        live = self.live()
        best = min((self.rank[j] for j in live), default=None)
        return frozenset(j for j in live if self.rank[j] == best)

    def shift(self, change) -> None:
        from crnkit.errors import InvalidSequenceError
        from crnkit.tiers import Const

        self.offset = [w + h for w, h in zip(self.offset, change)]
        for law, w in zip(self.laws, self.offset):
            if isinstance(law, Const) and law.value + w < 0:
                raise InvalidSequenceError(
                    f"constant coordinate {law.value} with offset {w} is negative"
                )


def scan_by_sequences(net, budget: int) -> dict:
    """The canonical pattern scan, one sequence and one tail per labeling.

    Each labeling over (0, 2, n, n^2, n^3) with a growing coordinate becomes
    a ``ParametricSequence``; labelings are counted up to ``budget`` and
    deduplicated by the complex degrees and live set of the sequence's tail
    (``ScratchTail``).  The distinct patterns are classified with
    ``hypothesis_violation`` in order up to the first violation.  Returns
    the fields of ``ScanFamily`` and ``HypothesisScanReport`` by name.
    """
    from crnkit.tiers import Const, Grow, ParametricSequence, hypothesis_violation

    labels = (Const(0), Const(2), Grow(1.0, 1), Grow(1.0, 2), Grow(1.0, 3))
    sequences, seen = [], set()
    enumerated, exhaustive = 0, True
    for labeling in iproduct(labels, repeat=net.dim):
        if not any(isinstance(l, Grow) for l in labeling):
            continue
        if enumerated >= budget:
            exhaustive = False
            break
        enumerated += 1
        seq = ParametricSequence(labeling)
        tail = ScratchTail(net, seq)
        key = (tail.degrees, tuple(tail.live()))
        if key not in seen:
            seen.add(key)
            sequences.append(seq)
    checked, violator, violating_complex = 0, None, None
    for seq in sequences:
        checked += 1
        violating_complex = hypothesis_violation(net, seq)
        if violating_complex is not None:
            violator = seq
            break
    return {
        "sequences": tuple(sequences),
        "enumerated": enumerated,
        "exhaustive": exhaustive,
        "patterns_checked": checked,
        "violating_sequence": violator,
        "violating_complex": violating_complex,
    }


def scan_by_labels(net, budget: int) -> tuple:
    """One pass over the canonical pattern family, in ``itertools.product``
    order.  A labeling's key is (degrees, live): each complex's sum of
    y_i * p_i over the growing coordinates (exact ints, as the scan's
    exponents are integers), and the complexes with y_i <= value at every
    constant coordinate.  Returns (patterns, enumerated, exhaustive), with
    ``patterns`` mapping each distinct key to its first labeling."""
    from crnkit.tiers import _SCAN_LABELS, _SCAN_MAX_DIM, Const, Grow

    if net.dim > _SCAN_MAX_DIM:
        raise ValueError(
            f"pattern scan supports at most {_SCAN_MAX_DIM} species, got {net.dim}"
        )
    coeffs = [c.coeffs for c in net.complexes]
    patterns: dict = {}
    enumerated = 0
    for labels in iproduct(_SCAN_LABELS, repeat=net.dim):
        grow = [(i, int(l.power)) for i, l in enumerate(labels) if isinstance(l, Grow)]
        if not grow:
            continue
        if enumerated >= budget:
            return patterns, enumerated, False
        enumerated += 1
        const = [(i, l.value) for i, l in enumerate(labels) if isinstance(l, Const)]
        degrees = tuple(sum(y[i] * p for i, p in grow) for y in coeffs)
        live = tuple(
            j for j, y in enumerate(coeffs) if all(y[i] <= v for i, v in const)
        )
        patterns.setdefault((degrees, live), labels)
    return patterns, enumerated, True


def scan_fields_by_labels(net, budget: int) -> dict:
    """``scan_by_labels`` as the fields of ``ScanFamily`` and
    ``HypothesisScanReport`` by name: the distinct patterns are classified
    in order up to the first whose top intensity tier (its live complexes
    of largest degree) sits below the top growth tier."""
    from crnkit.tiers import ParametricSequence

    patterns, enumerated, exhaustive = scan_by_labels(net, budget)
    checked, violator, violating_complex = 0, None, None
    for (degrees, live), labels in patterns.items():
        checked += 1
        if live and max(degrees[j] for j in live) < max(degrees):
            best = max(degrees[j] for j in live)
            violating_complex = next(j for j in live if degrees[j] == best)
            violator = ParametricSequence(labels)
            break
    return {
        "sequences": tuple(ParametricSequence(l) for l in patterns.values()),
        "enumerated": enumerated,
        "exhaustive": exhaustive,
        "patterns_checked": checked,
        "violating_sequence": violator,
        "violating_complex": violating_complex,
    }


def law_value_fraction(law, n: int) -> int:
    """ceil(coef * n ** power) in ``Fraction`` arithmetic: the root is seeded
    from a float estimate and stepped by one, so keep values well inside
    float precision (below 2 ** 50)."""
    if not hasattr(law, "coef"):
        return law.value
    p = Fraction(law.power)
    fr = Fraction(law.coef) ** p.denominator * Fraction(n) ** p.numerator
    r = p.denominator
    if fr <= 0:
        return 0
    if r == 1:
        return -(-fr.numerator // fr.denominator)
    k = int(float(fr) ** (1.0 / r))
    while k > 0 and k**r >= fr:
        k -= 1
    while k**r < fr:
        k += 1
    return k


def minimal_start_bisection(laws, offset, start: int, bound: int) -> int:
    """Smallest n >= start (start >= 1) at which every growing coordinate
    plus its offset exceeds ``bound``, by doubling then bisection over
    ``law_value_fraction``."""
    grown = [(l, w) for l, w in zip(laws, offset) if hasattr(l, "coef")]

    def ok(n: int) -> bool:
        return all(law_value_fraction(l, n) + w > bound for l, w in grown)

    lo = hi = start
    if ok(lo):
        return lo
    while not ok(hi):
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class EagerDrawBlock:
    """The samplers' former draw block, each block turned into Python floats
    whole as it is drawn: one exponential and one uniform per jump, refilled
    ``block`` at a time as ``step_by_rates`` consumes them.  Once ``spent``,
    the jumps drawn before a refill, reaches ``budget``, the refill raises."""

    def __init__(self, rng: np.random.Generator, block: int = _BLOCK, budget=math.inf):
        self.rng = rng
        self.block = block
        self.budget = budget
        self.spent = self.pos = 0
        self.refill()

    def refill(self) -> None:
        self.spent += self.pos
        if self.spent >= self.budget:
            raise BudgetExceededError(
                f"stopped after {self.spent} jumps: the horizon needs more "
                f"than the budget of {self.budget} jumps"
            )
        self.exps = self.rng.standard_exponential(self.block).tolist()
        self.unis = self.rng.random(self.block).tolist()
        self.pos = 0


def step_by_rates(table: tuple, x: list, draws):
    """One direct-method jump from ``x``, applied to ``x`` in place, with
    the rates recomputed and scanned linearly and the draws taken from an
    ``EagerDrawBlock``: None when ``x`` is absorbing (no draws consumed),
    otherwise (holding time, sparse change)."""
    rates, total = _rates(table, x)
    if total == 0.0:
        return None
    if draws.pos == draws.block:
        draws.refill()
    pos = draws.pos
    draws.pos = pos + 1
    target = draws.unis[pos] * total
    acc = 0.0
    change = table[-1][2]
    for lam, row in zip(rates, table):
        acc += lam
        if target < acc:
            change = row[2]
            break
    for i, c in change:
        xi = x[i] + c
        if xi > STATE_COORD_MAX:
            raise ValueError(
                f"state coordinate exceeded supported maximum {STATE_COORD_MAX} "
                "during simulation"
            )
        x[i] = xi
    return draws.exps[pos] / total, change


def _draws(seed: int):
    return EagerDrawBlock(np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))))


def ssa_by_rates(system, x0, seed: int, max_time=None, max_jumps=None):
    """(times, states, terminated_by) of ``ssa_simulate`` by ``step_by_rates``."""
    table = system._rate_table
    x = list(x0)
    draws = _draws(seed)
    times, states = [0.0], [list(x)]
    t = 0.0
    while True:
        if max_jumps is not None and len(times) - 1 >= max_jumps:
            terminated = "max_jumps"
            break
        jump = step_by_rates(table, x, draws)
        if jump is None:
            terminated = "absorbed"
            break
        if max_time is not None and t + jump[0] > max_time:
            terminated = "max_time"
            break
        t += jump[0]
        times.append(t)
        states.append(list(x))
    return np.asarray(times), np.asarray(states, dtype=np.int64), terminated


def occupancy_by_rates(system, x0, t_max: float, seed: int):
    """(support, probabilities) of ``occupancy_estimate`` by ``step_by_rates``."""
    table = system._rate_table
    x = list(x0)
    draws = _draws(seed)
    weights = {}
    t = 0.0
    while True:
        here = tuple(x)
        jump = step_by_rates(table, x, draws)
        if jump is None or t + jump[0] >= t_max:
            weights[here] = weights.get(here, 0.0) + (t_max - t)
            break
        weights[here] = weights.get(here, 0.0) + jump[0]
        t += jump[0]
    support = tuple(sorted(weights))
    probs = np.asarray([weights[s] for s in support])
    return support, probs / probs.sum()


def return_times_by_rates(system, x0, target, horizon: float, replicas: int, seed: int):
    """(times, non_returning, landings) of ``return_times`` by
    ``step_by_rates``; ``landings`` counts the jumps that landed within the
    horizon, each of which tests the target once."""
    table = system._rate_table
    times, non_returning, landings = [], 0, 0
    for r in range(replicas):
        draws = EagerDrawBlock(replica_generator(seed, r))
        x = list(x0)
        t = 0.0
        left = False
        while True:
            jump = step_by_rates(table, x, draws)
            if jump is None or t + jump[0] > horizon:
                non_returning += 1
                break
            t += jump[0]
            landings += 1
            if target(tuple(x)):
                if left:
                    times.append(t)
                    break
            else:
                left = True
    return np.asarray(times, dtype=np.float64), non_returning, landings


def drift_mc_by_rates(system, x0, k: int, replicas: int, seed: int):
    """(mean, standard error) of ``drift_estimate_mc`` by ``step_by_rates``,
    for k >= 1: replica r walks k jumps from ``x0`` on its spawned stream,
    drawn in blocks of min(k, _BLOCK)."""
    table = system._rate_table
    values = []
    for r in range(replicas):
        draws = EagerDrawBlock(replica_generator(seed, r), min(k, _BLOCK))
        x = list(x0)
        for _ in range(k):
            if step_by_rates(table, x, draws) is None:
                break
        values.append(lyapunov_difference(x0, tuple(a - b for a, b in zip(x, x0))))
    values = np.asarray(values, dtype=np.float64)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(replicas))


def pooled_rates_by_reactions(system, x) -> dict:
    """Net change -> summed positive rate at ``x``, pooled reaction by
    reaction in declaration order; ``ValueError`` for an invalid ``x``."""
    rates, _ = _rates(system._rate_table, as_state(x, system.network.dim))
    out = {}
    for r, lam in zip(system.network.reactions, rates):
        if lam > 0.0:
            h = r.change
            out[h] = out.get(h, 0.0) + lam
    return out


def reachable_by_dicts(system, x0, cap: int) -> tuple:
    """(start, states, truncated, absorbing, min_total_rate) of the
    breadth-first search from ``x0`` over ``pooled_rates_by_reactions``,
    collecting at most ``cap`` states."""
    start = as_state(x0, system.network.dim)
    seen = {start}
    queue = deque([start])
    absorbing = set()
    min_rate = None
    truncated = False
    while queue:
        x = queue.popleft()
        rates = pooled_rates_by_reactions(system, x)
        if not rates:
            absorbing.add(x)
            continue
        tot = sum(rates.values())
        if min_rate is None or tot < min_rate:
            min_rate = tot
        for h in rates:
            nxt = tuple(a + b for a, b in zip(x, h))
            if nxt not in seen:
                if len(seen) >= cap:
                    truncated = True
                    continue
                seen.add(nxt)
                queue.append(nxt)
    return start, frozenset(seen), truncated, frozenset(absorbing), min_rate


def linkage_classes_csgraph(net) -> tuple:
    """(classes, strongly_connected) from scipy's weak and strong components
    of the reaction graph, classes as frozensets in order of their smallest
    member."""
    n = len(net.complexes)
    rows = [s for s, _ in net._ends]
    cols = [p for _, p in net._ends]
    adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    _, weak = connected_components(adj, directed=True, connection="weak")
    _, strong = connected_components(adj, directed=True, connection="strong")
    members = {}
    for idx, lab in enumerate(weak):
        members.setdefault(int(lab), set()).add(idx)
    ordered = sorted(members.values(), key=min)
    flags = tuple(len({int(strong[i]) for i in cls}) == 1 for cls in ordered)
    return tuple(frozenset(c) for c in ordered), flags


def csv_by_writer(header, rows) -> str:
    """``header`` and ``rows`` as the command line wrote them, one
    ``csv.writer`` row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def stationary_by_dicts(report: dict, estimate, out) -> None:
    """``cli._emit_stationary`` as the command line wrote the report: every
    distribution row a dict, the whole report through ``cli._emit``."""
    report["stationary"] = {
        "method": estimate.method,
        "detail": estimate.detail,
        "distribution": [
            {"state": list(state), "probability": float(p)}
            for state, p in zip(estimate.support, estimate.probabilities)
        ],
    }
    _emit(report, out)


def generator_by_reactions(system, x) -> float:
    """The generator applied to V at ``x``: each positive-rate reaction's
    rate times ``lyapunov_difference`` over its dense change, in reaction
    order."""
    xs = as_state(x, system.network.dim)
    rates, _ = _rates(system._rate_table, xs)
    acc = 0.0
    for r, lam in zip(system.network.reactions, rates):
        if lam > 0.0:
            acc += lam * lyapunov_difference(xs, r.change)
    return acc


class MemoFreeTail(_Tail):
    """The tier walks' tail with its static part (common denominator,
    constant-coordinate users, scaled degrees, growth ranks) built from the
    network and the laws for every tail, never taken from the network's
    memo, and its moving part (offsets, unmet needs) set at the sequence's
    own offsets; the walk itself is ``_Tail``'s."""

    def __init__(self, net, seq):
        from crnkit.errors import InvalidSequenceError

        if net.complexes and net.dim != seq.dim:
            raise InvalidSequenceError("complex dimension does not match sequence")
        self.laws = laws = seq.laws
        powers = [l.power if isinstance(l, Grow) else None for l in laws]
        self.common = math.lcm(*(p.denominator for p in powers if p is not None))
        weight = [
            0 if p is None else p.numerator * (self.common // p.denominator)
            for p in powers
        ]
        users = {i: [] for i, w in enumerate(weight) if not w}
        self.scaled = []
        self.rows = net._rows
        for j, row in enumerate(self.rows):
            v = 0
            for i, c in row:
                if weight[i]:
                    v += c * weight[i]
                else:
                    users[i].append((j, c))
            self.scaled.append(v)
        self.users = tuple(users.items())
        rank_of = {v: r for r, v in enumerate(sorted(set(self.scaled), reverse=True))}
        self.rank = [rank_of[v] for v in self.scaled]
        self.offset = list(seq.offset)
        self.unmet = [0] * len(self.rank)
        for i, needs in self.users:
            for j, c in needs:
                if laws[i].value + self.offset[i] < c:
                    self.unmet[j] += 1
        self._top = None


def stationary_by_moves(system, region) -> StationaryEstimate:
    """The censored solve with the region expanded state by state through
    ``_moves``: ``truncated_stationary`` hands its solver arrays equal to
    this one's, array for array."""
    from scipy.sparse import diags, vstack
    from scipy.sparse.linalg import spsolve

    dim = system.network.dim
    states = sorted({as_state(s, dim) for s in region})
    if not states:
        raise ValueError("region is empty")
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows, cols, vals = [], [], []
    for i, s in enumerate(states):
        # successors are distinct and differ from s: no (i, j) pair repeats
        for t, lam in _moves(system, s).items():
            j = index.get(t)
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(lam)
    rates = csr_matrix((vals, (rows, cols)), shape=(n, n))

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
    sub = rates[members][:, members]
    # transposed generator of the class: balance reads q_t @ pi = 0
    q_t = (sub - diags(np.asarray(sub.sum(axis=1)).ravel())).T.tocsc()
    pi = np.ones(m)
    if m > 1:
        unit = np.zeros(m)
        unit[-1] = 1.0
        normalized = vstack([q_t[:-1], np.ones((1, m))], format="csc")
        rough = spsolve(normalized, unit, permc_spec="MMD_AT_PLUS_A")
        rest = np.arange(m) != np.argmax(rough)
        pi[rest] = spsolve(q_t[rest][:, rest], -q_t[rest][:, ~rest].toarray().ravel())
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


def drift_backward(system, starts, k: int) -> list:
    """The exact k-step drift E[V(Z_k)] - V(x) of the embedded chain from
    each state x of ``starts``, as the sum over j < k of (P^j g)(x).

    g = PV - V is the one-step drift, from ``_moves`` and
    ``lyapunov_difference``, and 0 at an absorbing state.  P is the jump
    matrix over the states within k - 1 steps of the starts (found by
    ``_moves`` levels): ``_region_moves``' rates, each divided by its
    state's full ``_moves`` total, with no row at an absorbing state.  The
    recursion w <- g + P w, taken k - 1 times from w = g, leaves the sum at
    the starts: a state d steps out needs its value after k - 1 - d rounds,
    which looks no further than the region's edge.
    """
    starts = [as_state(x, system.network.dim) for x in starts]
    if k == 0:
        return [0.0] * len(starts)
    moves, level = {}, set(starts)
    for _ in range(k):
        moves.update((x, _moves(system, x)) for x in level)
        level = {y for x in level for y in moves[x]} - moves.keys()
    states = sorted(moves)
    g, totals = [], []
    for x in states:
        total = sum(moves[x].values())
        totals.append(total or 1.0)  # an absorbing state has no row of P
        g.append(
            sum(
                lam / total * lyapunov_difference(x, tuple(b - a for a, b in zip(x, y)))
                for y, lam in moves[x].items()
            )
        )
    src, dst, rate = _region_moves(system, np.array(states, dtype=np.int64))
    n = len(states)
    p = csr_matrix((rate / np.array(totals)[src], (src, dst)), shape=(n, n))
    g = np.array(g)
    w = g
    for _ in range(k - 1):
        w = g + p @ w
    row = {x: i for i, x in enumerate(states)}
    return [float(w[row[x]]) for x in starts]
