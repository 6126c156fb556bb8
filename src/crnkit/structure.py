"""Structural analysis of reaction networks.

The reaction graph has the complexes as nodes and one directed edge per
reaction.  Linkage classes are its undirected connected components; the
network is weakly reversible when every linkage class is strongly connected.
Together with binarity (every complex has total molecularity at most 2) and
the requirement that each species S appears as the complex S or 2S, a single
weakly reversible linkage class certifies positive recurrence of the
associated mass-action chain on every closed irreducible state class.

``reachable_states`` explores the chain's state space (the finite state
projection of Munsky and Khammash, 2006) over states packed into ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .kinetics import _moves, _region_rates
from .network import (
    STATE_COORD_MAX,
    Complex,
    MassActionSystem,
    ReactionNetwork,
    State,
    _count,
    as_state,
)

__all__ = [
    "LinkageClassPartition",
    "SpeciesConditionReport",
    "TheoremVerdict",
    "ReachabilityReport",
    "linkage_classes",
    "is_weakly_reversible",
    "is_binary",
    "species_complex_condition",
    "theorem_verdict",
    "reachable_states",
]

VERDICT_POSITIVE_RECURRENT = "PositiveRecurrent"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class LinkageClassPartition:
    """Linkage classes as frozensets of complex indices, in order of their
    smallest member, with a strong-connectivity flag per class."""

    classes: tuple
    strongly_connected: tuple

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SpeciesConditionReport:
    """Per-species witness for the "S or 2S is a complex" condition.

    ``witnesses[i]`` is the witness complex for species i (the singleton if
    present, else the doubled complex), or None when neither exists.
    """

    satisfied: bool
    witnesses: tuple
    failing: tuple


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of the positive-recurrence hypothesis check."""

    weakly_reversible: bool
    single_linkage_class: bool
    binary: bool
    species_condition: bool
    species_report: SpeciesConditionReport
    verdict: str
    reasons: tuple

    @property
    def positive_recurrent(self) -> bool:
        return self.verdict == VERDICT_POSITIVE_RECURRENT


@dataclass(frozen=True)
class ReachabilityReport:
    """Breadth-first closure of a state under positive-rate jumps.

    ``truncated`` is set when the exploration cap stopped the search, in
    which case ``states`` may not be closed.  ``min_total_rate`` is the
    smallest total jump rate over the non-absorbing explored states (None
    when every explored state is absorbing).
    """

    start: State
    states: frozenset
    truncated: bool
    absorbing: frozenset
    min_total_rate: Optional[float]


def _closure(root: int, edges: list) -> set:
    """Nodes reachable from ``root``; ``edges[u]`` lists the neighbours of u."""
    found = {root}
    stack = [root]
    while stack:
        for v in edges[stack.pop()]:
            if v not in found:
                found.add(v)
                stack.append(v)
    return found


def linkage_classes(net: ReactionNetwork) -> LinkageClassPartition:
    """Partition the complexes into linkage classes.

    Each class also gets a flag saying whether it is strongly connected in
    the directed reaction graph: whether its smallest member reaches every
    member, and every member reaches it.
    """
    succ = [[] for _ in net.complexes]
    pred = [[] for _ in net.complexes]
    for s, p in net._ends:
        succ[s].append(p)
        pred[p].append(s)
    linked = [a + b for a, b in zip(succ, pred)]
    classes, flags = [], []
    for root in range(len(linked)):
        if not any(root in cls for cls in classes):
            cls = frozenset(_closure(root, linked))
            classes.append(cls)
            flags.append(_closure(root, succ) == cls == _closure(root, pred))
    return LinkageClassPartition(tuple(classes), tuple(flags))


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True when every linkage class is strongly connected.

    A network with no reactions is vacuously weakly reversible.
    """
    part = linkage_classes(net)
    return all(part.strongly_connected)


def is_binary(net: ReactionNetwork) -> bool:
    """True when every complex has total molecularity at most 2."""
    return all(c.order <= 2 for c in net.complexes)


def species_complex_condition(net: ReactionNetwork) -> SpeciesConditionReport:
    """Check that each species S appears as the complex S or the complex 2S."""
    d = net.dim
    cset = {c.coeffs for c in net.complexes}
    witnesses = []
    failing = []
    for i in range(d):
        single = tuple(1 if j == i else 0 for j in range(d))
        double = tuple(2 if j == i else 0 for j in range(d))
        if single in cset:
            witnesses.append(Complex(single))
        elif double in cset:
            witnesses.append(Complex(double))
        else:
            witnesses.append(None)
            failing.append(net.species[i])
    return SpeciesConditionReport(
        satisfied=not failing, witnesses=tuple(witnesses), failing=tuple(failing)
    )


def theorem_verdict(net: ReactionNetwork) -> TheoremVerdict:
    """Verdict on the recurrence hypotheses.

    ``PositiveRecurrent`` requires all of: weakly reversible, exactly one
    linkage class, binary, and the per-species complex condition.  Anything
    else yields ``Inconclusive`` with one reason per failed hypothesis (the
    check is sufficient, not necessary, so no negative certificate exists).
    """
    part = linkage_classes(net)
    wr = all(part.strongly_connected)
    single = len(part) == 1
    binary = is_binary(net)
    sreport = species_complex_condition(net)

    reasons = []
    if not wr:
        bad = sum(1 for f in part.strongly_connected if not f)
        reasons.append(
            f"not weakly reversible ({bad} of {len(part)} linkage classes "
            "not strongly connected)"
        )
    if not single:
        reasons.append(f"{len(part)} linkage classes, need exactly 1")
    if not binary:
        worst = max(c.order for c in net.complexes)
        reasons.append(f"not binary (complex of total molecularity {worst})")
    if not sreport.satisfied:
        reasons.append(
            "species without a singleton or doubled complex: "
            + ", ".join(sreport.failing)
        )
    ok = wr and single and binary and sreport.satisfied
    return TheoremVerdict(
        weakly_reversible=wr,
        single_linkage_class=single,
        binary=binary,
        species_condition=sreport.satisfied,
        species_report=sreport,
        verdict=VERDICT_POSITIVE_RECURRENT if ok else VERDICT_INCONCLUSIVE,
        reasons=tuple(reasons),
    )


def reachable_states(
    system: MassActionSystem,
    x0: Iterable[int],
    cap: int = 10**6,
) -> ReachabilityReport:
    """Explore the set of states reachable from ``x0`` by positive-rate jumps.

    Breadth-first search; stops enqueueing new states once ``cap`` states
    have been collected and marks the report truncated.  A state is one int
    with a field per species holding x_i + G - c_i, where c_i is the largest
    source coefficient of species i and the power of two G exceeds every
    coordinate met, so a successor is ``code + step`` and bit log2(G) of a
    field is set when x_i >= c_i.  The steps depend only on min(x, c), so
    each such clipped state's are taken once from ``kinetics._moves``, in
    its order and with its pooling.  Unless the bounds rule out a state past
    ``STATE_COORD_MAX`` and a rate past the float range, each dequeued state
    past the limit, or every one when a rate may overflow, is also expanded
    by ``_moves``, so the first state in queue order that has either raises
    its ``ValueError`` or ``OverflowError``.
    """
    cap = _count(cap, "cap", 1)
    dim = system.network.dim
    start = as_state(x0, dim)
    table = system._rate_table
    reactions = system.network.reactions
    need = list(map(max, zip((0,) * dim, *(r.source.coeffs for r in reactions))))
    rise = list(map(max, zip((0,) * dim, *(r.change for r in reactions))))
    # collected states lie within cap - 1 levels of the start: no coordinate met
    # passes start + cap * rise, nor goes more than one step past the limit
    top = [min(x + cap * r, STATE_COORD_MAX + r) for x, r in zip(start, rise)]
    risky = any(sum(c * top[i].bit_length() for i, c in pairs) > 1023 for _, pairs, _ in table)
    checked = risky or max(top) > STATE_COORD_MAX
    log_g = max(top + need).bit_length()
    width = max(8, 1 << log_g.bit_length())  # 8, 16 or 32 bits: room for 2G - 1
    shifts = range(0, dim * width, width)
    offs = [(1 << log_g) - c for c in need]
    guards = sum(1 << (log_g + sh) for sh in shifts)

    def decode(code) -> State:
        return tuple((code >> sh & (1 << width) - 1) - off for sh, off in zip(shifts, offs))

    steps = {}
    order = [sum((x + off) << sh for x, off, sh in zip(start, offs, shifts))]
    seen = set(order)
    truncated = False
    for code in order:
        if checked:
            x = decode(code)
            if risky or max(x) > STATE_COORD_MAX:
                _moves(system, x)  # raises if past the limit or overflowing
        g = code & guards
        key = guards if g == guards else code & ~(g - (g >> log_g))  # min(x, c)
        if key not in steps:
            x = decode(key)
            moves = _moves(system, x)
            steps[key] = [sum((b - a) << sh for a, b, sh in zip(x, y, shifts)) for y in moves]
        for h in steps[key]:
            nxt = code + h
            if nxt not in seen:
                if len(order) >= cap:
                    truncated = True
                    continue
                seen.add(nxt)
                order.append(nxt)
    del seen  # each part goes once used, to leave room for the report's tuples
    # the codes as little-endian 64-bit words, whose bytes hold the fields in order
    words = [[c >> sh & 0xFFFF_FFFF_FFFF_FFFF for c in order] for sh in shifts[:: 64 // width]]
    del order
    states = np.array(words, "<u8").T.copy().view(f"<u{width // 8}")[:, :dim] - np.array(offs)
    del words
    live, min_rate = _least_total(system, states)
    return ReachabilityReport(
        start=start,
        states=frozenset(zip(*states.T.tolist())),
        truncated=truncated,
        absorbing=frozenset(zip(*states[~live].T.tolist())),
        min_total_rate=min_rate,
    )


def _least_total(system: MassActionSystem, states: np.ndarray):
    """Which rows have a positive rate, and the least ``sum(_moves(x).values())``
    over them, taken at one row per distinct rate row of near-least total."""
    rates = _region_rates(system, states)
    live = (rates > 0.0).any(axis=1)
    if not live.any():
        return live, None
    rates = rates[live]
    with np.errstate(over="ignore"):
        total = rates.sum(axis=1)
    near = np.flatnonzero(total <= total.min() * (1 + rates.shape[1] * 2.0**-50))
    _, first = np.unique(rates[near], axis=0, return_index=True)
    rows = states[live][near[first]].tolist()
    return live, min(sum(_moves(system, tuple(x)).values()) for x in rows)
