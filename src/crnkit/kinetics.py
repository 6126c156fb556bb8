"""Stochastic mass-action kinetics and the entropy-like Lyapunov function.

Intensities follow the classical stochastic mass-action form: a complex y
fires at state x with intensity equal to the product of falling factorials
x_i (x_i - 1) ... (x_i - y_i + 1), which is zero whenever some x_i < y_i.
On top of that this module provides the jump-chain step distribution, the
generator applied to the Lyapunov function

    V(x) = sum_i (x_i (log x_i - 1) + 1),        with 0 log 0 = 0,

and finite-path probabilities of the embedded chain.  Every rate comes from
``_rates``, and every exact routine (here, in ``structure`` and ``tiers``)
expands a state through ``_moves``: its successors, each with the summed
rate of the reactions that reach it.  ``_region_rates`` gives the same
rates at many states in one array pass: the censored stationary solve in
``simulate`` pools them as ``_moves`` does (``_region_moves``), and
``structure.reachable_states`` takes its states' totals from them.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import AbsorbingStateError
from .network import STATE_COORD_MAX, Complex, MassActionSystem, Reaction, State
from .network import _whole, as_state

__all__ = [
    "intensity",
    "reaction_rate",
    "total_rate",
    "transition_rates",
    "lyapunov",
    "lyapunov_difference",
    "generator_applied",
    "embedded_step_distribution",
    "path_probability",
]


def _rates(table, x) -> Tuple[List[float], float]:
    """Per-reaction rates and their total at ``x`` from a system's rate table.

    Each rate is kappa times the exact integer falling product over the
    source's species, prod x_i (x_i - 1) ... (x_i - y_i + 1), which is zero
    whenever some x_i < y_i.  Every rate in the package comes from here.
    """
    rates = []
    total = 0.0
    for kappa, pairs, _ in table:
        prod = 1
        for i, c in pairs:
            xi = x[i]
            if xi < c:
                prod = 0
                break
            # math.perm(n, k) is the exact falling factorial n (n-1) ... (n-k+1).
            prod *= xi if c == 1 else xi * (xi - 1) if c == 2 else math.perm(xi, c)
        lam = kappa * prod  # the int converts exactly as float(prod) would
        rates.append(lam)
        total += lam
    return rates, total


def _moves(system: MassActionSystem, x: State) -> Dict[State, float]:
    """Successor state -> summed positive rate at the state tuple ``x``.

    Reactions share a successor exactly when they share a net change, so
    their rates pool, summed in reaction order; successors come in the order
    of their first positive rate.  Raises ``as_state``'s ``ValueError`` when
    ``x`` has a coordinate above ``STATE_COORD_MAX``.
    """
    if max(x, default=0) > STATE_COORD_MAX:
        as_state(x, len(x))  # raises
    rates, _ = _rates(system._rate_table, x)
    out: Dict[State, float] = {}
    for r, lam in zip(system.network.reactions, rates):
        if lam > 0.0:
            s = tuple(map(add, x, r.change))
            out[s] = out.get(s, 0.0) + lam
    return out


_PERM = np.frompyfunc(math.perm, 2, 1)


def _falling(col: np.ndarray, c: int) -> np.ndarray:
    """x (x-1) ... (x-c+1) of each entry of an int64 or object column: on
    int64, c - 1 products, where an entry below c meets the factor 0 before
    any negative one; on Python ints, ``math.perm``, as ``_rates`` takes it."""
    if col.dtype == object:
        return _PERM(col, c)
    out = col
    for k in range(1, c):
        out = out * (col - k)
    return out


def _region_rates(system: MassActionSystem, states: np.ndarray) -> np.ndarray:
    """The rates of ``_rates`` at each row of an (n, d) int64 array of
    states, no coordinate above ``STATE_COORD_MAX``: an (n, reactions) array.

    Each rate is kappa times the exact falling product of the source's
    columns, 0.0 for a coefficient above its column's largest entry.  The
    product is bounded by the columns' largest entries to the coefficients,
    and it is taken in int64 when the bit lengths prove that bound below
    2**63, else in Python ints (object arrays), where a rate past the float
    range raises ``_rates``' ``OverflowError``.
    """
    table = system._rate_table
    tops = states.max(axis=0).tolist()
    out = np.empty((len(states), len(table)))
    with np.errstate(over="ignore"):  # a rate may overflow to inf, as in _rates
        for j, (kappa, pairs, _) in enumerate(table):
            prod = 1
            if any(c > tops[i] for i, c in pairs):
                prod = 0
            else:
                wide = sum(c * tops[i].bit_length() for i, c in pairs) > 63
                for i, c in pairs:
                    col = states[:, i].astype(object) if wide else states[:, i]
                    prod = prod * _falling(col, c)
            out[:, j] = np.asarray(kappa * prod, dtype=np.float64)
    return out


def _region_moves(system: MassActionSystem, states: np.ndarray):
    """The moves of ``_moves`` that stay inside a region, for all its states
    at once.

    ``states`` is the region as an (n, d) int64 array of distinct rows in
    the order of sorted state tuples, no coordinate above
    ``STATE_COORD_MAX``.  Returns (src, dst, rate): the row of each move's
    state, the row of its successor and its rate, sorted by (src, dst).

    The rates are ``_region_rates``'.  Reactions that share a net change
    pool their rates in reaction order, 0.0 + l1 + l2, as ``_moves`` adds
    the positive ones.  A successor is found by one binary search over the
    rows' big-endian bytes, which order nonnegative rows as their tuples,
    so it holds whatever the region's bounding box.
    """
    n, dim = states.shape
    pooled: Dict[tuple, np.ndarray] = {}
    with np.errstate(over="ignore"):  # rates near the float range may pool to inf
        for (_, _, change), lam in zip(system._rate_table, _region_rates(system, states).T):
            pooled[change] = pooled.get(change, 0.0) + lam
    keys = _row_keys(states)
    src, dst, rate = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for change, lam in pooled.items():
        if any(abs(c) > STATE_COORD_MAX for _, c in change):
            continue  # every successor leaves the coordinate range
        rows = np.flatnonzero(lam > 0.0)
        step = np.zeros(dim, dtype=np.int64)
        for i, c in change:
            step[i] = c
        found = _row_keys(states[rows] + step)
        pos = np.searchsorted(keys, found).clip(max=n - 1)
        hit = keys[pos] == found
        src.append(rows[hit])
        dst.append(pos[hit])
        rate.append(lam[rows[hit]])
    src, dst, rate = map(np.concatenate, (src, dst, rate))
    by_row = np.argsort(src * n + dst)
    return src[by_row], dst[by_row], rate[by_row]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a nonnegative int64 array as one big-endian byte string."""
    raw = np.ascontiguousarray(rows, dtype=">i8")
    return raw.view(np.dtype((np.void, raw.itemsize * raw.shape[1]))).ravel()


def intensity(y: Complex, x: Iterable[int]) -> float:
    """Mass-action intensity of complex ``y`` at state ``x``.

    Product over species of the falling factorial x_i! / (x_i - y_i)!,
    evaluated as a falling product (never via full factorials).  Returns 0.0
    whenever some coordinate of ``x`` is below the complex's requirement.
    """
    xs = as_state(x, y.dim)
    pairs = tuple((i, c) for i, c in enumerate(y.coeffs) if c > 0)
    return _rates(((1.0, pairs, ()),), xs)[1]


def reaction_rate(system: MassActionSystem, reaction: Reaction, x: Iterable[int]) -> float:
    """Rate of one reaction at ``x``: rate constant times source intensity."""
    kappa = system.rate_constant(reaction)
    return kappa * intensity(reaction.source, x)


def total_rate(system: MassActionSystem, x: Iterable[int]) -> float:
    """Total jump rate at ``x``.  Zero exactly when ``x`` is absorbing."""
    return _rates(system._rate_table, as_state(x, system.network.dim))[1]


def transition_rates(system: MassActionSystem, x: Iterable[int]) -> Dict[State, float]:
    """Aggregate rate of each net jump vector at ``x``.

    The jumps of ``_moves``: reactions sharing the same net change pool their
    rates, and each change is its successor minus ``x``.  Jumps with zero
    rate are omitted, so an absorbing state yields an empty dict.
    """
    xs = as_state(x, system.network.dim)
    return {tuple(map(sub, s, xs)): lam for s, lam in _moves(system, xs).items()}


def _f(t: int) -> float:
    """Scalar piece of the Lyapunov function: t (log t - 1) + 1, with the
    0 log 0 = 0 convention handled as an explicit branch."""
    if t == 0:
        return 1.0
    return t * (math.log(t) - 1.0) + 1.0


def lyapunov(x: Iterable[int]) -> float:
    """Entropy-like Lyapunov function V(x).

    Nonnegative everywhere, and zero exactly at the all-ones state.
    Entries must be integers (integral floats are accepted).
    """
    xs = tuple(map(_whole, x))
    if None in xs:
        raise ValueError("lyapunov requires an integer state")
    if any(v < 0 for v in xs):
        raise ValueError("lyapunov requires a nonnegative state")
    return _lyapunov_sum(xs)


def _lyapunov_sum(xs: State) -> float:
    """V at a state tuple of nonnegative ints, unchecked: the sum that
    ``lyapunov`` returns after its checks, for states built valid."""
    return sum(map(_f, xs))


def lyapunov_difference(x: Sequence[int], h: Sequence[int]) -> float:
    """V(x + h) - V(x), summed coordinate-wise over changed coordinates only.

    Mathematically identical to ``lyapunov(x + h) - lyapunov(x)`` but avoids
    the catastrophic cancellation of subtracting two large near-equal sums
    when only small coordinates change.  Raises ``ValueError`` if ``x + h``
    leaves the nonnegative orthant.
    """
    if len(x) != len(h):
        raise ValueError("state and jump vector have different dimensions")
    out = 0.0
    for xi, hi in zip(x, h):
        if hi == 0:
            continue
        xn = xi + hi
        if xn < 0:
            raise ValueError(f"jump drives coordinate {xi} to negative value {xn}")
        out += _f(xn) - _f(xi)
    return out


def generator_applied(system: MassActionSystem, x: Iterable[int]) -> float:
    """Infinitesimal generator applied to the Lyapunov function at ``x``:

        sum over reactions of  rate(x) * (V(x + change) - V(x)).

    Zero-rate reactions are skipped, so states near the boundary never
    evaluate V at negative arguments: a positive rate needs x_i >= y_i for
    each source coefficient y_i, so x + change = x - y + y' stays
    nonnegative.  Each difference runs over the reaction's sparse change in
    coordinate order, as ``lyapunov_difference`` sums it, with ``_f(x_i)``
    evaluated once per coordinate.
    """
    xs = as_state(x, system.network.dim)
    table = system._rate_table
    rates, _ = _rates(table, xs)
    fx = [_f(v) for v in xs]
    acc = 0.0
    for (_, _, change), lam in zip(table, rates):
        if lam > 0.0:
            out = 0.0
            for i, hi in change:
                out += _f(xs[i] + hi) - fx[i]
            acc += lam * out
    return acc


def embedded_step_distribution(
    system: MassActionSystem, x: Iterable[int]
) -> Dict[State, float]:
    """One-step distribution of the embedded (jump) chain from ``x``.

    Maps successor states to probabilities rate(x, x') / total_rate(x).
    All probabilities are strictly positive and sum to 1 up to rounding.
    Raises ``AbsorbingStateError`` when the total rate is zero.
    """
    xs = as_state(x, system.network.dim)
    moves = _moves(system, xs)
    lam_bar = sum(moves.values())
    if lam_bar == 0.0:
        raise AbsorbingStateError(f"state {xs} is absorbing (total rate 0)")
    return {s: lam / lam_bar for s, lam in moves.items()}


def path_probability(
    system: MassActionSystem, x: Iterable[int], path: Sequence[Reaction]
) -> float:
    """Probability that the embedded chain from ``x`` executes ``path`` in order.

    The product over steps of rate_m(z_m) / total_rate(z_m) along the states
    z_1 = x, z_{m+1} = z_m + change_m.  Returns 0.0 as soon as a step has
    rate zero or an intermediate state is absorbing.  The empty path has
    probability 1.
    """
    dim = system.network.dim
    xs = list(as_state(x, dim))
    table = system._rate_table
    index = system.network._reaction_index
    prob = 1.0
    for r in path:
        j = index[r]  # KeyError for foreign reactions
        # as_state rejects a path that leaves the supported coordinate range
        rates, lam_bar = _rates(table, as_state(xs, dim))
        if rates[j] == 0.0:
            return 0.0
        prob *= rates[j] / lam_bar
        for i, hi in table[j][2]:
            xs[i] += hi
    return prob
