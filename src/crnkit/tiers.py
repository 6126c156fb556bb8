"""Tier analysis along parametric state sequences, and embedded-chain drift.

A parametric sequence assigns each species either a constant value or a
monomial growth law ceil(a * n ** p) with a > 0 and rational p > 0, plus an
integer offset per coordinate.  Along such a sequence x_n every complex y
has intensity lambda_y(x_n) that is either identically zero for n past the
start index or grows like (leading coefficient) * n ** deg(y), where deg(y)
sums y_i * p_i over the growing coordinates.  That dichotomy yields two
partitions of the complexes:

* the growth partition (``d_partition``): all complexes grouped by deg(y),
  top tier first; invariant under integer shifts of the sequence;
* the intensity partition (``s_partition``): complexes whose intensity is
  identically zero form the infinite tier, the rest are grouped by deg(y).

Paths of reactions are classified by where their sources and products sit in
these partitions as the sequence is shifted step by step, which gives exact
limits of embedded-chain path probabilities and a constructive witness path
whose probability-weighted Lyapunov increment diverges to minus infinity.

The path walks take un-normalized sequences and need no per-step
normalization.  Past the normalized start every growing coordinate exceeds
every complex entry, so a complex's intensity vanishes exactly when some
constant coordinate (law value plus offset) is below what the complex
needs.  Neither that test nor the leading coefficient depends on the start
or on the growing coordinates' offsets: a shift only moves integers, and
the degrees never change.

Sequences are not checked for reachability of the underlying chain; use
``ParametricSequence.samples`` against a ``ReachabilityReport`` when that
matters for the conclusion being drawn.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .errors import (
    AbsorbingStateError,
    BudgetExceededError,
    InvalidSequenceError,
    NoDropComplexError,
    TailNotNormalizedError,
    WitnessPathError,
)
from .kinetics import _moves, lyapunov_difference
from .network import Complex, MassActionSystem, Reaction, ReactionNetwork
from .network import _count, _shown, _whole, as_state

__all__ = [
    "Const",
    "Grow",
    "ParametricSequence",
    "TierPartition",
    "PathTierReport",
    "HypothesisScanReport",
    "ScanFamily",
    "scan_patterns",
    "evaluate_sequence",
    "shift",
    "d_partition",
    "s_partition",
    "path_tier_membership",
    "path_probability_limit",
    "hypothesis_violation",
    "hypothesis_check",
    "witness_path",
    "exact_kstep_drift",
    "parse_sequence_spec",
]


@dataclass(frozen=True)
class Const:
    """Coordinate pinned at a nonnegative integer value."""

    value: int

    def __post_init__(self):
        v = _whole(self.value)
        if v is None or v < 0:
            raise InvalidSequenceError(
                "constant coordinate value must be a nonnegative integer"
                + _shown(", got {}", self.value)
            )
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Grow:
    """Coordinate growing like ceil(coef * n ** power)."""

    coef: float = 1.0
    power: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 < self.coef < math.inf:
            raise InvalidSequenceError(
                "growth coefficient must be positive and finite" + _shown(", got {}", self.coef)
            )
        if not hasattr(self.coef, "as_integer_ratio"):  # e.g. numpy integers
            object.__setattr__(self, "coef", operator.index(self.coef))
        p = self.power
        if not isinstance(p, Fraction):
            p = Fraction(p)
            object.__setattr__(self, "power", p)
        if p <= 0:
            raise InvalidSequenceError(f"growth exponent must be positive{_shown(', got {}', p)}")


CoordLaw = Union[Const, Grow]


def _ceil_root(t: int, r: int) -> int:
    """Smallest integer k >= 0 with k ** r >= t, by integer Newton steps
    down from a power of two above the root."""
    if t <= 0:
        return 0
    if r == 1:
        return t
    x = 1 << -(-t.bit_length() // r)
    while True:
        y = ((r - 1) * x + t // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x**r >= t else x + 1


def _raw_value(law: CoordLaw, n: int) -> int:
    """ceil(coef * n ** (a/b)) exactly: the least k >= 0 with
    (k * den) ** b >= num ** b * n ** a, where coef = num / den."""
    if isinstance(law, Const):
        return law.value
    num, den = law.coef.as_integer_ratio()
    a, b = law.power.numerator, law.power.denominator
    return _ceil_root(-(-(num**b) * n**a // den**b), b)


def _minimal_start(laws: tuple, offset: tuple, start: int, bound: int) -> int:
    """Smallest n >= start at which every growing coordinate exceeds
    ``bound``: ceil(coef * n ** (a/b)) + w > bound exactly when
    num ** b * n ** a > ((bound - w) * den) ** b, which is closed-form in n.
    ``bound=-1`` asks for every growing coordinate to be nonnegative.  A
    coordinate with ``bound - w <= 0`` exceeds the bound from n = 1 on, so
    it cannot raise ``start``."""
    out = start
    for l, w in zip(laws, offset):
        if isinstance(l, Grow) and bound > w:
            num, den = l.coef.as_integer_ratio()
            a, b = l.power.numerator, l.power.denominator
            floor = ((bound - w) * den) ** b // num**b
            out = max(out, _ceil_root(floor + 1, a))
    return out


def _integers(values, what: str) -> tuple:
    """``values`` as ints (see ``network._whole``); ``InvalidSequenceError``
    names the first that is not an integer."""
    values = tuple(values)
    out = tuple(map(_whole, values))
    if None in out:
        raise InvalidSequenceError(f"{what} must be integers{_shown(', got {}', values)}")
    return out


def _check_constants(laws: tuple, offset) -> None:
    for l, w in zip(laws, offset):
        if isinstance(l, Const) and l.value + w < 0:
            raise InvalidSequenceError(
                f"constant coordinate{_shown(' {} with offset {}', l.value, w)} is negative"
            )


@dataclass(frozen=True, slots=True)
class ParametricSequence:
    """State sequence x_n with per-coordinate laws, offsets, and start index.

    Coordinate i evaluates to ``laws[i].value + offset[i]`` (constant) or
    ``ceil(coef * n ** power) + offset[i]`` (growing).  At least one
    coordinate must grow.  The start index is raised on construction to the
    smallest value at which every growing coordinate is nonnegative; a
    constant coordinate driven negative by its offset raises
    ``InvalidSequenceError`` outright, as do laws other than ``Const`` and
    ``Grow`` and offsets or a start that are not integers.
    """

    laws: tuple
    offset: tuple
    start: int

    def __init__(self, laws, offset=None, start: int = 1):
        laws = tuple(laws)
        if not laws:
            raise InvalidSequenceError("sequence needs at least one coordinate")
        for i, l in enumerate(laws):
            if not isinstance(l, (Const, Grow)):  # by type: formatting a huge law raises
                kind = type(l).__name__
                raise InvalidSequenceError(f"coordinate law {i} is {kind}, not Const or Grow")
        if offset is None:
            offset = (0,) * len(laws)
        offset = _integers(offset, "offsets")
        if len(offset) != len(laws):
            raise InvalidSequenceError(
                f"{len(offset)} offsets for {len(laws)} coordinates"
            )
        if not any(isinstance(l, Grow) for l in laws):
            raise InvalidSequenceError("sequence needs at least one growing coordinate")
        _check_constants(laws, offset)
        n = _whole(start)
        if n is None or n < 1:
            raise InvalidSequenceError(
                f"start index must be an integer >= 1{_shown(', got {}', start)}"
            )
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "start", _minimal_start(laws, offset, n, -1))

    @classmethod
    def _trusted(cls, laws: tuple, offset: tuple, start: int) -> "ParametricSequence":
        """A sequence from parts already known to be valid, ``start`` already
        at least the minimal start: no checks."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "laws", laws)
        object.__setattr__(seq, "offset", offset)
        object.__setattr__(seq, "start", start)
        return seq

    @property
    def dim(self) -> int:
        return len(self.laws)

    def evaluate(self, n: int) -> tuple:
        """The state x_n; requires n >= start."""
        if n < self.start:
            raise ValueError(
                f"n{_shown('={}', n)} is below the sequence start{_shown(' {}', self.start)}"
            )
        return tuple(_raw_value(l, n) + w for l, w in zip(self.laws, self.offset))

    def samples(self, ns) -> list:
        """States at several indices (for reachability cross-checks etc.)."""
        return [self.evaluate(n) for n in ns]

    def shifted(self, w) -> "ParametricSequence":
        """Sequence x_n + w.  Raises ``InvalidSequenceError`` when a constant
        coordinate goes negative; the start index is raised as needed to keep
        growing coordinates nonnegative."""
        w = _integers(w, "shift entries")
        if len(w) != self.dim:
            raise InvalidSequenceError("shift vector has wrong dimension")
        new_offset = tuple(a + b for a, b in zip(self.offset, w))
        return ParametricSequence(self.laws, new_offset, self.start)

    def normalized_for(self, net: ReactionNetwork) -> "ParametricSequence":
        """Copy whose start index is far enough along for tier classification.

        Raises the start until every growing coordinate exceeds the largest
        complex entry of ``net`` plus the largest absolute offset, so that
        intensity of each complex is either zero for all n >= start or
        positive for all n >= start, and stays so under single-reaction
        shifts.
        """
        if net.dim != self.dim:
            raise InvalidSequenceError("network dimension does not match sequence")
        max_entry = max((max(c.coeffs, default=0) for c in net.complexes), default=0)
        bound = max_entry + max((abs(w) for w in self.offset), default=0)
        start = _minimal_start(self.laws, self.offset, self.start, bound)
        if start == self.start:
            return self
        return ParametricSequence._trusted(self.laws, self.offset, start)

    def degree(self, c: Complex) -> Fraction:
        """Growth exponent of (x_n vee 1) ** c: sum of c_i * p_i over growing
        coordinates."""
        if c.dim != self.dim:
            raise InvalidSequenceError("complex dimension does not match sequence")
        out = Fraction(0)
        for y, law in zip(c.coeffs, self.laws):
            if y and isinstance(law, Grow):
                out += y * law.power
        return out


def evaluate_sequence(seq: ParametricSequence, n: int) -> tuple:
    """Functional form of ``seq.evaluate(n)``."""
    return seq.evaluate(n)


def shift(seq: ParametricSequence, w) -> ParametricSequence:
    """Functional form of ``seq.shifted(w)``."""
    return seq.shifted(w)


@dataclass(frozen=True)
class TierPartition:
    """Ordered partition of the complex indices of a network.

    ``tiers`` lists frozensets from fastest-growing downward; ``infinite``
    holds complexes with identically-zero intensity (always empty for the
    growth partition).  ``degrees`` aligns with the network's complex list
    and is None on the infinite tier.
    """

    kind: str
    tiers: tuple
    infinite: frozenset
    degrees: tuple

    def tier_of(self, index: int) -> Optional[int]:
        """1-based tier number of a complex, or None if in the infinite tier."""
        for t, members in enumerate(self.tiers, start=1):
            if index in members:
                return t
        return None

    @property
    def top(self) -> frozenset:
        return self.tiers[0] if self.tiers else frozenset()


def _static(net: ReactionNetwork, laws: tuple) -> tuple:
    """The static part of a tail, (common, users, scaled, rank): the common
    denominator of the growth powers; per constant coordinate, ascending, the
    (complex, entry) pairs that need it; each complex's degree times
    ``common`` (exact ints, cheap to hash and sort); and each complex's
    growth rank, 0 being the top growth tier.  It depends only on the
    network and on each law's kind and power, so equal laws share it: the
    network keeps the last one built, keyed by the laws."""
    memo = net._tail_memo
    if memo is not None and memo[0] == laws:
        return memo[1]
    powers = [l.power if isinstance(l, Grow) else None for l in laws]
    common = math.lcm(*(p.denominator for p in powers if p is not None))
    # a growing coordinate's power times the common denominator; 0 marks
    # a constant coordinate
    weight = [
        0 if p is None else p.numerator * (common // p.denominator) for p in powers
    ]
    users: Dict[int, list] = {i: [] for i, w in enumerate(weight) if not w}
    scaled = []
    for j, row in enumerate(net._rows):
        v = 0
        for i, c in row:
            if weight[i]:
                v += c * weight[i]
            else:
                users[i].append((j, c))
        scaled.append(v)
    rank_of = {v: r for r, v in enumerate(sorted(set(scaled), reverse=True))}
    static = (
        common,
        tuple((i, tuple(u)) for i, u in users.items()),
        tuple(scaled),
        tuple(rank_of[v] for v in scaled),
    )
    net._tail_memo = (laws, static)
    return static


class _Tail:
    """The tail of one sequence along a network, followed through shifts from
    the sequence's own offsets; a walk that starts again takes a fresh tail.

    The static part depends on the network and the laws alone (``_static``),
    so a fresh tail costs one memo lookup and the moving part: the offsets
    and, per complex, the count of needs the current constant values leave
    unmet.  A complex is live when that count is zero.  A shift touches only
    the complexes that need a moved coordinate, and the top intensity tier
    is recomputed only after some complex's liveness flips."""

    def __init__(self, net: ReactionNetwork, seq: ParametricSequence):
        if net.complexes and net.dim != seq.dim:  # as seq.degree(complex) fails
            raise InvalidSequenceError("complex dimension does not match sequence")
        self.laws = seq.laws
        self.rows = net._rows
        self.common, self.users, self.scaled, self.rank = _static(net, seq.laws)
        self.offset = list(seq.offset)
        self.unmet = [0] * len(self.rank)
        for i, users in self.users:
            v = self.laws[i].value + self.offset[i]
            for j, c in users:
                if v < c:
                    self.unmet[j] += 1
        self._top: Optional[frozenset] = None

    def degrees(self) -> tuple:
        """Each complex's exact growth exponent."""
        return tuple(Fraction(v, self.common) for v in self.scaled)

    def live(self) -> list:
        """Indices of the complexes whose intensity does not vanish, ascending."""
        return [j for j, u in enumerate(self.unmet) if not u]

    def tiers(self, indices) -> tuple:
        """``indices`` grouped by growth rank, top tier first."""
        groups: Dict[int, set] = {}
        for j in indices:
            groups.setdefault(self.rank[j], set()).add(j)
        return tuple(frozenset(groups[r]) for r in sorted(groups))

    def top(self) -> frozenset:
        """The top intensity tier at the current offsets."""
        if self._top is None:
            live = self.live()
            best = min((self.rank[j] for j in live), default=None)
            self._top = frozenset(j for j in live if self.rank[j] == best)
        return self._top

    def lead(self, j: int) -> float:
        """Leading coefficient of live complex j's intensity ~ coef * n **
        degree: growth coefficients to the power y_i times falling factorials
        of the constant coordinates.  Raises ``OverflowError`` naming the
        factor that takes it past the float range."""
        out = 1.0
        for i, ci in self.rows[j]:
            law = self.laws[i]
            try:
                if isinstance(law, Grow):
                    out *= law.coef**ci
                else:
                    out *= float(math.perm(law.value + self.offset[i], ci))
            except OverflowError:
                out = math.inf
            if out == math.inf:
                factor = (
                    f"growth coefficient {law.coef}"
                    if isinstance(law, Grow)
                    else f"constant coordinate {law.value + self.offset[i]}"
                )
                raise OverflowError(
                    "the leading coefficient of the witness limit overflows a "
                    f"float: {factor} to the power {ci}"
                )
        return out

    def shift(self, change) -> None:
        """Move by ``change``, failing as ``ParametricSequence.shifted`` does
        on the first constant coordinate driven negative."""
        laws, offset, unmet = self.laws, self.offset, self.unmet
        for i, users in self.users:
            h = change[i]
            if not h:
                continue
            old = laws[i].value + offset[i]
            offset[i] += h
            new = old + h
            if new < 0:
                _check_constants((laws[i],), (offset[i],))  # raises
            for j, c in users:
                if new < c <= old:  # a need falls unmet
                    if not unmet[j]:
                        self._top = None
                    unmet[j] += 1
                elif old < c <= new:  # a need is met again
                    unmet[j] -= 1
                    if not unmet[j]:
                        self._top = None


def d_partition(net: ReactionNetwork, seq: ParametricSequence) -> TierPartition:
    """Partition all complexes by growth exponent of (x_n vee 1) ** y.

    Exact rational arithmetic on the exponents; invariant under shifts of
    ``seq``.
    """
    tail = _Tail(net, seq)
    tiers = tail.tiers(range(len(tail.rank)))
    return TierPartition("D", tiers, frozenset(), tail.degrees())


def s_partition(net: ReactionNetwork, seq: ParametricSequence) -> TierPartition:
    """Partition complexes by intensity growth along the sequence.

    Complexes whose intensity is identically zero form the infinite tier;
    the rest are ranked by growth exponent.  Raises
    ``TailNotNormalizedError`` when some complex has zero intensity at the
    start index but positive intensity later, i.e. the start index is too
    small for the classification to describe the whole tail (see
    ``ParametricSequence.normalized_for``).
    """
    if net.dim != seq.dim:
        raise InvalidSequenceError("network dimension does not match sequence")
    tail = _Tail(net, seq)
    x_start = seq.evaluate(seq.start)
    live = tail.live()
    for idx in live:
        c = net.complexes[idx]
        if any(x_start[i] < c.coeffs[i] for i in range(net.dim)):
            raise TailNotNormalizedError(
                f"complex {net.format_complex(c)} has zero intensity at "
                f"n={seq.start} but not identically; raise the start index "
                "(see ParametricSequence.normalized_for)"
            )
    alive = set(live)
    infinite = {j for j in range(len(tail.rank)) if j not in alive}
    degrees = tuple(d if j in alive else None for j, d in enumerate(tail.degrees()))
    return TierPartition("S", tail.tiers(live), frozenset(infinite), degrees)


@dataclass(frozen=True)
class PathTierReport:
    """Tier classification of a reaction path along a sequence.

    ``in_top_intensity`` says every step's source lies in the top intensity
    tier of the correspondingly shifted sequence.  ``in_drop`` says every
    source lies in the top growth tier and some product falls below it;
    ``first_drop_index`` is the 1-based index of the first such product
    (present whenever a drop exists, whether or not the source condition
    holds).
    """

    path: tuple
    in_top_intensity: bool
    in_drop: bool
    first_drop_index: Optional[int]


def _check_path(net: ReactionNetwork, path) -> tuple:
    path = tuple(path)
    for r in path:
        if r not in net._reaction_index:
            raise ValueError(
                f"reaction {r.source.coeffs} -> {r.product.coeffs} "
                "is not part of the network"
            )
    return path


def path_tier_membership(
    net: ReactionNetwork, seq: ParametricSequence, path: Sequence[Reaction]
) -> PathTierReport:
    """Classify ``path`` against the tier partitions along ``seq``.

    Step m is judged with the sequence shifted by the accumulated net change
    of the first m-1 reactions; ``seq`` need not be normalized.
    ``InvalidSequenceError`` propagates if a shift drives a constant
    coordinate negative.
    """
    path = _check_path(net, path)
    tail = _Tail(net, seq)
    in_top_intensity = True
    sources_in_top_growth = True
    first_drop = None
    for m, (_, src, prd) in enumerate(_steps(net, tail, path), start=1):
        in_top_intensity = in_top_intensity and src in tail.top()
        if tail.rank[src]:
            sources_in_top_growth = False
        if first_drop is None and tail.rank[prd]:
            first_drop = m
    in_drop = bool(path) and sources_in_top_growth and first_drop is not None
    return PathTierReport(
        path=path,
        in_top_intensity=in_top_intensity,
        in_drop=in_drop,
        first_drop_index=first_drop,
    )


def _steps(net: ReactionNetwork, tail: _Tail, path: tuple):
    """Walk ``path`` on ``tail``: yield each step's (reaction index, source,
    product) with the tail at that step's shift.  The tail moves by a step's
    change only when the next step is asked for, so never after the last."""
    for m, r in enumerate(path):
        if m:
            tail.shift(path[m - 1].change)
        j = net._reaction_index[r]
        src, prd = net._ends[j]
        yield j, src, prd


def path_probability_limit(
    system: MassActionSystem, seq: ParametricSequence, path: Sequence[Reaction]
) -> float:
    """Limit as n grows of the embedded-chain probability of ``path`` from x_n.

    Zero unless every step's source is in the top intensity tier of its
    shifted sequence; otherwise the product over steps of

        kappa * lead(source) / sum over reactions with source in the top
        intensity tier of kappa' * lead(source'),

    with ``lead`` the intensity leading coefficient at that step's shift.
    Shifts are checked as in ``path_tier_membership``, also on paths whose
    limit is zero.
    """
    net = system.network
    path = _check_path(net, path)
    tail = _Tail(net, seq)
    prob = 1.0
    for j, src, _ in _steps(net, tail, path):
        # factors lie in [0, 1]: once prob is 0 only the shifts remain
        top = tail.top() if prob else frozenset()
        if src in top:
            num = system.rate_constants[j] * tail.lead(src)
            den = 0.0
            for (s, _), kk in zip(net._ends, system.rate_constants):
                if s in top:
                    den += kk * tail.lead(s)
            prob *= num / den
        else:
            prob = 0.0
    return prob


# ------------------------------------------------------------ pattern scan

#: Coordinate labels enumerated by ``hypothesis_check`` and ``scan_patterns``:
#: pinned at 0, pinned above any binary need, or growing like n, n^2 or n^3.
_SCAN_LABELS = (
    Const(0),
    Const(2),
    Grow(1.0, Fraction(1)),
    Grow(1.0, Fraction(2)),
    Grow(1.0, Fraction(3)),
)

_SCAN_MAX_DIM = 12

#: Rows of the labeling enumeration taken per numpy pass.
_SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class HypothesisScanReport:
    """Result of scanning the monomial pattern family for a tier-inclusion
    violation (a complex in the top intensity tier but not the top growth
    tier).

    ``patterns_enumerated`` counts labelings with at least one growing
    coordinate; ``patterns_checked`` counts the distinct patterns, by
    (complex degrees, vanishing set), up to the violating one or to the end.
    ``violating_complex`` is ``hypothesis_violation`` along the violating
    sequence.  When ``exhaustive`` is False the enumeration hit its budget,
    so a negative result is only heuristic.
    """

    violation_found: bool
    patterns_enumerated: int
    patterns_checked: int
    exhaustive: bool
    violating_sequence: Optional[ParametricSequence]
    violating_complex: Optional[int]


def hypothesis_violation(
    net: ReactionNetwork, seq: ParametricSequence
) -> Optional[int]:
    """Index of a complex in the top intensity tier but outside the top
    growth tier along ``seq``, or None when the inclusion holds.

    ``seq`` need not be normalized; the answer concerns the tail.
    """
    if net.dim != seq.dim:
        raise InvalidSequenceError("network dimension does not match sequence")
    tail = _Tail(net, seq)
    # the top intensity tier shares one growth rank: all inside or all out
    j = min(tail.top(), default=None)
    return j if j is not None and tail.rank[j] else None


@dataclass(frozen=True)
class ScanFamily:
    """Deduplicated monomial pattern family for one network.

    ``enumerated`` counts all labelings with a growing coordinate before
    deduplication; ``exhaustive`` is False when the budget cut the
    enumeration short."""

    sequences: tuple
    enumerated: int
    exhaustive: bool


def _scan_extent(net: ReactionNetwork, budget) -> tuple:
    """(enumerated, exhaustive) for the scan: the labelings with a growing
    coordinate, counted up to ``budget``."""
    if net.dim > _SCAN_MAX_DIM:
        raise ValueError(
            f"pattern scan supports at most {_SCAN_MAX_DIM} species, got {net.dim}"
        )
    n_const = sum(isinstance(l, Const) for l in _SCAN_LABELS)
    total = len(_SCAN_LABELS) ** net.dim - n_const**net.dim
    if not total > budget:  # also a NaN budget, which no count reaches
        return total, True
    stop = max(math.ceil(budget), 0)  # the first count not below the budget
    return min(total, stop), total <= stop


def _digits(rows: np.ndarray, d: int) -> np.ndarray:
    """Each row's label indices: its base-5 digits, first species most
    significant."""
    base = len(_SCAN_LABELS)
    return rows[:, None] // base ** np.arange(d - 1, -1, -1, dtype=np.int64) % base


def _scan_chunks(net: ReactionNetwork, enumerated: int):
    """The first ``enumerated`` labelings with a growing coordinate, in
    ``itertools.product`` order, ``_SCAN_CHUNK`` rows of the enumeration at
    a time; row n is the labeling ``_digits`` reads off n.  Yields
    (rows, keys, flags) over each chunk's kept rows, ascending.  A key is a
    fixed-width byte string of the row's ``degrees[k, j]``, complex j's sum
    of y_i * p_i over the growing coordinates (exact: the dtype holds the
    largest possible degree, and is ``object`` past int64), and
    ``live[k, j]``, y_i <= value at every constant coordinate; a flag says
    the live complexes of largest degree (the top intensity tier) sit below
    the top growth tier."""
    d, base = net.dim, len(_SCAN_LABELS)
    coeffs = [c.coeffs for c in net.complexes]
    powers = [int(l.power) if isinstance(l, Grow) else 0 for l in _SCAN_LABELS]
    top = max(powers) * max((sum(y) for y in coeffs), default=0)
    dtype = np.min_scalar_type(-top - 1)  # signed, and object past int64
    limbs = top.bit_length() // 63 + 1 if dtype == object else 0
    yt = np.array(coeffs, dtype=dtype).reshape(len(coeffs), d).T
    power_of = np.array(powers, dtype=np.int8)
    # per species and label, which complexes the label keeps live
    live_of = np.array(
        [[[isinstance(l, Grow) or y[i] <= l.value for y in coeffs]
          for l in _SCAN_LABELS] for i in range(d)],
        dtype=bool,
    ).reshape(d, base, len(coeffs))
    done = 0
    for lo in range(0, base**d, _SCAN_CHUNK):
        if done >= enumerated:
            return
        rows = np.arange(lo, min(lo + _SCAN_CHUNK, base**d), dtype=np.int64)
        digits = _digits(rows, d)
        pw = power_of[digits]
        kept = np.flatnonzero(pw.any(axis=1))[: enumerated - done]
        if not len(kept):
            continue
        done += len(kept)
        rows, digits = rows[kept], digits[kept]
        degrees = pw[kept] @ yt
        live = np.ones((len(rows), len(coeffs)), dtype=bool)
        for i in range(d):
            live &= live_of[i][digits[:, i]]
        exact = degrees
        if limbs:  # Python ints, cut into 63-bit limbs to fit a key
            exact = np.stack(
                [
                    ((degrees >> (63 * k)) & ((1 << 63) - 1)).astype(np.int64)
                    for k in range(limbs)
                ],
                axis=2,
            )
        # the zero byte keeps a key nonempty for a network without complexes
        raw = np.concatenate(
            [
                exact.reshape(len(rows), -1).view(np.uint8),
                np.packbits(live, axis=1),
                np.zeros((len(rows), 1), dtype=np.uint8),
            ],
            axis=1,
        )
        keys = raw.view(f"V{raw.shape[1]}").ravel()
        # degrees are nonnegative, so -1 marks a row without live complexes
        best = np.where(live, degrees, -1).max(axis=1, initial=-1)
        most = degrees.max(axis=1, initial=-1)
        yield rows, keys, (best >= 0) & (best < most)


def _scan_sequences(net: ReactionNetwork, rows) -> list:
    """The sequences of the labelings at the given rows of the enumeration,
    with zero offset and start 1.  They skip the checks of
    ``ParametricSequence``: every row has a growing coordinate, and at zero
    offset every law is nonnegative from n = 1 on."""
    digits = _digits(np.asarray(rows, dtype=np.int64), net.dim)
    zero = (0,) * net.dim
    return [
        ParametricSequence._trusted(tuple(map(_SCAN_LABELS.__getitem__, row)), zero, 1)
        for row in digits.tolist()
    ]


def _scan(net: ReactionNetwork, enumerated: int, stop: bool) -> tuple:
    """(rows, flags) of the distinct patterns among the first ``enumerated``
    labelings: each pattern's first row, ascending, and its violation flag.
    With ``stop`` the scan ends after the first chunk that holds a
    violation.  The network keeps its last completed scan, keyed by
    ``enumerated``; a scan that stopped early is not kept."""
    memo = net._scan_memo
    if memo is not None and memo[0] == enumerated:
        return memo[1]
    chunks, complete = [], True
    for chunk in _scan_chunks(net, enumerated):
        chunks.append(chunk)
        if stop and chunk[2].any():
            complete = False
            break
    found = np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    if chunks:
        rows, keys, flags = map(np.concatenate, zip(*chunks))
        first = np.sort(np.unique(keys, return_index=True)[1])
        found = rows[first], flags[first]
    if complete:
        net._scan_memo = (enumerated, found)
    return found


def scan_patterns(
    net: ReactionNetwork, pattern_budget: int = 1_000_000
) -> ScanFamily:
    """The canonical pattern family scanned for tier-inclusion violations.

    Each species gets one of the labels in ``_SCAN_LABELS``; labelings with
    no growing coordinate are dropped, and the rest are deduplicated by the
    complex degrees and vanishing set they induce, which is all the tier
    machinery can observe.  The first labeling of each distinct pattern, in
    ``itertools.product`` order, represents it.  Networks with more than 12
    species are rejected.
    """
    enumerated, exhaustive = _scan_extent(net, pattern_budget)
    rows, _ = _scan(net, enumerated, stop=False)
    return ScanFamily(
        sequences=tuple(_scan_sequences(net, rows)),
        enumerated=enumerated,
        exhaustive=exhaustive,
    )


def hypothesis_check(
    net: ReactionNetwork, pattern_budget: int = 1_000_000
) -> HypothesisScanReport:
    """Scan the canonical pattern family for a tier-inclusion violation.

    Reads the distinct patterns of ``scan_patterns`` in order up to the
    first violation, scanning no chunk of labelings past it; the network
    keeps a clean scan for the next call.  Finding a violation refutes
    the inclusion outright; exhausting the family without one confirms it
    for all monomial sequences with these exponents, which is a heuristic
    for general sequences.  Enumerations beyond ``pattern_budget`` return a
    partial, non-exhaustive report.
    """
    enumerated, exhaustive = _scan_extent(net, pattern_budget)
    rows, flags = _scan(net, enumerated, stop=True)
    seq, idx, checked = None, None, len(rows)
    hits = np.flatnonzero(flags)
    if len(hits):
        # the patterns are in row order: count them up to the violating one
        checked = int(hits[0]) + 1
        seq = _scan_sequences(net, rows[hits[:1]])[0]
        idx = hypothesis_violation(net, seq)
    return HypothesisScanReport(
        violation_found=idx is not None,
        patterns_enumerated=enumerated,
        patterns_checked=checked,
        exhaustive=exhaustive,
        violating_sequence=seq,
        violating_complex=idx,
    )


# ------------------------------------------------------------ witness path

def witness_path(
    net: ReactionNetwork,
    seq: ParametricSequence,
    target_len: Optional[int] = None,
) -> tuple:
    """Construct a reaction path in the top intensity tier with a growth-tier
    drop, of length ``target_len`` (default: the number of reactions).

    Works on weakly reversible single-linkage-class networks whose top
    intensity tier is contained in the top growth tier along ``seq``: start
    from a top-intensity-tier complex, walk the reaction graph to the
    nearest complex below the top growth tier, then extend greedily with
    reactions of asymptotically maximal intensity (unit rate constants, ties
    by declaration order).  The result is returned only once
    ``path_tier_membership`` finds it in the top intensity tier with a drop.

    The cost is linear in ``target_len`` and has no budget: on the 5-complex
    cycle a step takes about 6-8 us (2-core Xeon, Python 3.11), and each
    step adds about 20 bytes to a ``crnkit tiers`` report, so a length of
    100,000 takes about 0.8 s and writes 2.0 MB.

    Raises ``ValueError`` when ``target_len`` is not a nonnegative integer
    or is shorter than the drop prefix, ``NoDropComplexError`` when all
    complexes share one growth tier, and ``WitnessPathError`` when
    construction or verification fails.
    """
    length = len(net.reactions) if target_len is None else _count(target_len, "target_len")
    tail = _Tail(net, seq)
    if max(tail.rank, default=0) == 0:
        raise NoDropComplexError(
            "every complex has the same growth exponent along the sequence; "
            "no path can drop out of the top growth tier"
        )
    s_top = tail.top()
    if not s_top:
        raise WitnessPathError(
            "every complex has identically zero intensity along the sequence"
        )
    if tail.rank[min(s_top)]:  # the tier shares one rank: all in or all out
        raise WitnessPathError(
            "top intensity tier is not contained in the top growth tier"
        )

    # shortest directed walk from the top intensity tier out of the top
    # growth tier; first-found in breadth-first order for determinism
    start = min(s_top)
    walks = {start: ()}  # complex -> reactions from start
    queue = deque([start])
    path = None
    while queue and path is None:
        u = queue.popleft()
        for v, j in net._out_edges[u]:
            if v in walks:
                continue
            walks[v] = walks[u] + (net.reactions[j],)
            if tail.rank[v]:
                path = list(walks[v])
                break
            queue.append(v)
    if path is None:
        raise WitnessPathError(
            "no complex outside the top growth tier is reachable from the "
            "top intensity tier (is the network weakly reversible with a "
            "single linkage class?)"
        )
    if length < len(path):
        raise ValueError(
            f"target_len={length} is shorter than the drop prefix "
            f"({len(path)} reactions)"
        )

    for r in path:
        tail.shift(r.change)
    while len(path) < length:
        top = tail.top()
        best = None
        best_lead = -1.0
        for r, (src, _) in zip(net.reactions, net._ends):
            if src not in top:
                continue
            lead = tail.lead(src)
            if lead > best_lead:
                best = r
                best_lead = lead
        if best is None:
            raise WitnessPathError(
                "no reaction fires from the top intensity tier during the "
                "greedy extension"
            )
        path.append(best)
        tail.shift(best.change)

    report = path_tier_membership(net, seq, path)
    if not (report.in_top_intensity and report.in_drop):
        raise WitnessPathError(
            "constructed path failed tier verification "
            f"(in_top_intensity={report.in_top_intensity}, "
            f"in_drop={report.in_drop})"
        )
    return report.path


# ---------------------------------------------------------- embedded drift

def exact_kstep_drift(
    system: MassActionSystem,
    x,
    k: int,
    budget: int = 10**6,
) -> float:
    """Exact expectation of V(Z_k) - V(Z_0) for the embedded chain from ``x``.

    Carries the law ``{state: probability}`` of Z_j forward one step at a
    time, each state expanded by ``kinetics._moves`` and each successor
    taking its pooled rate over their sum; an absorbing state keeps its
    mass, so V holds constant.  The result sums p * (V(state) - V(x)) over
    the law of Z_k, each difference taken coordinate-wise relative to ``x``
    so that large states do not lose precision to cancellation.

    Raises ``AbsorbingStateError`` when ``x`` itself is absorbing,
    ``BudgetExceededError`` as soon as the (state, level) pairs collected,
    the sizes of the laws of Z_1, ..., Z_k, exceed ``budget`` (each law holds
    a state, so ``k`` above it is refused up front), and ``ValueError`` when
    ``k`` is not a nonnegative integer, ``budget`` is NaN or a state to
    expand has a coordinate above ``STATE_COORD_MAX``.
    """
    k = _count(k, "k")
    if budget != budget:  # NaN: no pair count would ever exceed it
        raise ValueError("budget must not be NaN")
    x0 = as_state(x, system.network.dim)
    if not _moves(system, x0):
        raise AbsorbingStateError(f"state {x0} is absorbing (total rate 0)")
    if k == 0:
        return 0.0
    if k > budget:
        raise BudgetExceededError(
            f"{_shown('{}', k) or 'k'} steps exceed the budget{_shown(' of {}', budget)}"
        )

    law = {x0: 1.0}
    pairs = 0
    for step in range(1, k + 1):
        nxt: Dict[tuple, float] = {}
        for state, p in law.items():
            moves = _moves(system, state)
            if not moves:
                nxt[state] = nxt.get(state, 0.0) + p
                continue
            total = sum(moves.values())
            for s, lam in moves.items():
                nxt[s] = nxt.get(s, 0.0) + p * (lam / total)
        law = nxt
        pairs += len(law)
        if pairs > budget:
            raise BudgetExceededError(
                f"{pairs} (state, level) pairs after {step} of {k} steps "
                f"exceed the budget of {budget}"
            )
    return sum(
        p * lyapunov_difference(x0, tuple(map(operator.sub, s, x0)))
        for s, p in law.items()
    )


# ------------------------------------------------------- textual sequences

_GROW_RE = re.compile(
    r"^(?:(?P<coef>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s*\*?\s*)?"
    r"n(?:\s*\^\s*(?P<power>[0-9]+(?:/[0-9]+)?))?$"
)


def parse_sequence_spec(text: str, species: Sequence[str]) -> ParametricSequence:
    """Parse a textual sequence such as ``"A=n, B=1, C=0"``.

    Each species gets either a nonnegative integer constant or a growth term
    ``[coef *] n [^ power]`` with positive coefficient and positive integer
    or fractional power (``2*n^2``, ``0.5n^3/2``, ``n``).  Every species must
    be assigned exactly once.  Raises ``ValueError`` on malformed input (a
    power with a zero denominator included) and ``InvalidSequenceError`` when
    a coefficient or power is not positive or no coordinate grows.
    """
    assignments = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected 'name=expr' in sequence spec, got '{part}'")
        name, expr = (s.strip() for s in part.split("=", 1))
        if name not in species:
            raise ValueError(f"unknown species '{name}' in sequence spec")
        if name in assignments:
            raise ValueError(f"species '{name}' assigned twice in sequence spec")
        assignments[name] = _parse_sequence_expr(expr)
    missing = [s for s in species if s not in assignments]
    if missing:
        raise ValueError(
            "sequence spec missing species: " + ", ".join(missing)
        )
    return ParametricSequence(tuple(assignments[s] for s in species))


@functools.lru_cache(maxsize=1024)
def _parse_sequence_expr(expr: str) -> CoordLaw:
    """One coordinate's law; laws are frozen, so one parsed law serves every
    spec that spells it alike."""
    expr = expr.strip()
    if re.fullmatch(r"[0-9]+", expr):
        return Const(int(expr))
    m = _GROW_RE.match(expr)
    if m is None:
        raise ValueError(
            f"cannot parse sequence expression '{expr}' "
            "(expected an integer or '[coef *] n [^ power]')"
        )
    coef = float(m.group("coef")) if m.group("coef") else 1.0
    power_txt = m.group("power")
    if power_txt is None:
        power = Fraction(1)
    elif "/" in power_txt:
        num, den = map(int, power_txt.split("/"))
        if not den:
            raise ValueError(f"sequence expression '{expr}' divides its power by zero")
        power = Fraction(num, den)
    else:
        power = Fraction(int(power_txt))
    return Grow(coef, power)
