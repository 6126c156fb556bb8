"""Structural analysis of reaction networks.

The reaction graph has the complexes as nodes and one directed edge per
reaction.  Linkage classes are its undirected connected components; the
network is weakly reversible when every linkage class is strongly connected.
Together with binarity (every complex has total molecularity at most 2) and
the requirement that each species S appears as the complex S or 2S, a single
weakly reversible linkage class certifies positive recurrence of the
associated mass-action chain on every closed irreducible state class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .kinetics import _moves
from .network import (
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
    have been collected and marks the report truncated.  Each state expands
    through ``kinetics._moves``, in the order and with the pooled rates of
    ``transition_rates``; its total rate is the sum of those.  Expanding a
    state with a coordinate above ``STATE_COORD_MAX`` raises ``ValueError``.
    """
    cap = _count(cap, "cap", 1)
    start = as_state(x0, system.network.dim)
    seen = {start}
    queue = deque([start])
    absorbing = set()
    min_rate: Optional[float] = None
    truncated = False
    while queue:
        x = queue.popleft()
        moves = _moves(system, x)
        if not moves:
            absorbing.add(x)
            continue
        tot = sum(moves.values())
        if min_rate is None or tot < min_rate:
            min_rate = tot
        for nxt in moves:
            if nxt not in seen:
                if len(seen) >= cap:
                    truncated = True
                    continue
                seen.add(nxt)
                queue.append(nxt)
    return ReachabilityReport(
        start=start,
        states=frozenset(seen),
        truncated=truncated,
        absorbing=frozenset(absorbing),
        min_total_rate=min_rate,
    )
