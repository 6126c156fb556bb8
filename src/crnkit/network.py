"""Core types for reaction networks with mass-action kinetics.

A network is a triple (species, complexes, reactions).  Complexes are
nonnegative integer vectors over the species, reactions are ordered pairs of
distinct complexes, and a mass-action system attaches a positive rate
constant to every reaction.  States of the associated continuous-time Markov
chain are nonnegative integer tuples of the same dimension.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

#: Largest state coordinate accepted by the kinetics routines.  Falling
#: factorials of larger counts no longer round-trip through float64 exactly,
#: so such states are rejected rather than silently losing precision.
STATE_COORD_MAX = 10**8

#: States are plain integer tuples, one coordinate per species.
State = tuple


def _whole(v) -> Optional[int]:
    """``v`` as an int when it is of an integer type (numpy's included), a
    rational whose denominator divides its numerator, or a finite real
    without a fractional part, else None.  A rational is never converted to
    a float, which a huge one would overflow."""
    try:
        return operator.index(v)
    except TypeError:
        if isinstance(v, numbers.Rational):
            whole, part = divmod(v.numerator, v.denominator)
            return None if part else int(whole)
        if isinstance(v, numbers.Real) and math.isfinite(v) and v == math.floor(v):
            return int(v)
        return None


def _shown(form: str, *values) -> str:
    """``form.format(*values)`` for a message, or "" when a value is too
    large to show: Python refuses to format an int of 4300 digits or more,
    so an int or rational, alone or in a tuple, is shown only while its
    numerator and denominator fit in 64 bits."""
    for w in (w for v in values for w in (v if isinstance(v, tuple) else (v,))):
        if isinstance(w, numbers.Rational) and max(abs(int(w.numerator)), w.denominator) >= 2**64:
            return ""
    return form.format(*values)


def _count(v, what: str, least: int = 0) -> int:
    """``v`` as an int >= ``least`` (see ``_whole``), else ``ValueError``."""
    n = _whole(v)
    if n is None or n < least:
        raise ValueError(f"{what} must be an integer >= {least}{_shown(', got {}', v)}")
    return n


def as_state(x: Iterable[int], dim: int) -> State:
    """Coerce ``x`` to a valid state tuple of dimension ``dim``.

    Integers of any type and integral floats are accepted.  Raises
    ``ValueError`` on wrong dimension, negative or non-integer entries, or
    any coordinate above ``STATE_COORD_MAX``.
    """
    xs = tuple(map(_whole, x))
    if None in xs:
        raise ValueError(f"state coordinate {xs.index(None)} is not an integer")
    if len(xs) != dim:
        raise ValueError(f"state has dimension {len(xs)}, expected {dim}")
    for i, v in enumerate(xs):
        if v < 0 or v > STATE_COORD_MAX:
            problem = "is negative" if v < 0 else f"exceeds supported maximum {STATE_COORD_MAX}"
            raise ValueError(f"state coordinate {i}{_shown(' ({})', v)} {problem}")
    return xs


@dataclass(frozen=True)
class Complex:
    """A complex: multiset of species, stored as a coefficient vector."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[int]):
        raw = tuple(coeffs)
        cs = tuple(map(_whole, raw))
        if None in cs or any(c < 0 for c in cs):
            raise ValueError(f"complex coefficients must be nonnegative integers, got {raw}")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_hash", hash((cs,)))

    def __hash__(self):  # precomputed, equal to the dataclass hash
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def order(self) -> int:
        """Total molecularity (sum of coefficients)."""
        return sum(self.coeffs)

    @property
    def support(self) -> tuple:
        """Indices of species present in the complex."""
        return tuple(i for i, c in enumerate(self.coeffs) if c > 0)

    def format(self, species: Sequence[str]) -> str:
        """Render as e.g. ``A + 2B``, or ``0`` for the empty complex."""
        if self.order == 0:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 1:
                parts.append(species[i])
            elif c > 1:
                parts.append(f"{c}{species[i]}")
        return " + ".join(parts)


@dataclass(frozen=True)
class Reaction:
    """A reaction: ordered pair of distinct complexes of equal dimension."""

    source: Complex
    product: Complex
    #: Net stoichiometric change, product minus source; derived, so it takes
    #: no part in equality, hashing or repr.
    change: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source.dim != self.product.dim:
            raise ValueError("source and product complexes have different dimensions")
        if self.source == self.product:
            raise ValueError("reaction source and product must differ (no self-loops)")
        change = tuple(p - s for s, p in zip(self.source.coeffs, self.product.coeffs))
        object.__setattr__(self, "change", change)
        object.__setattr__(self, "_hash", hash((self.source, self.product)))

    def __hash__(self):  # precomputed, equal to the dataclass hash
        return self._hash

    def format(self, species: Sequence[str]) -> str:
        return f"{self.source.format(species)} -> {self.product.format(species)}"


class ReactionNetwork:
    """A reaction network (species, complexes, reactions).

    Invariants enforced on construction: species names unique and nonempty,
    complexes duplicate-free with every complex appearing in at least one
    reaction, every reaction endpoint drawn from the complex list, and all
    dimensions equal to the species count.
    """

    def __init__(
        self,
        species: Sequence[str],
        complexes: Sequence[Complex],
        reactions: Sequence[Reaction],
    ):
        self.species = tuple(str(s) for s in species)
        if len(set(self.species)) != len(self.species):
            raise ValueError("species names must be unique")
        if any(not s for s in self.species):
            raise ValueError("species names must be nonempty")
        d = len(self.species)

        self.complexes = tuple(complexes)
        if len(set(self.complexes)) != len(self.complexes):
            raise ValueError("complex list contains duplicates")
        for c in self.complexes:
            if c.dim != d:
                raise ValueError(
                    f"complex {c.coeffs} has dimension {c.dim}, expected {d}"
                )

        self.reactions = tuple(reactions)
        cset = set(self.complexes)
        used = set()
        for r in self.reactions:
            if r.source not in cset or r.product not in cset:
                raise ValueError(
                    f"reaction endpoints {r.source.coeffs} -> {r.product.coeffs} "
                    "not in the complex list"
                )
            used.add(r.source)
            used.add(r.product)
        self._reaction_index = {r: j for j, r in enumerate(self.reactions)}
        if len(self._reaction_index) != len(self.reactions):
            raise ValueError("reaction list contains duplicates")
        isolated = cset - used
        if isolated:
            raise ValueError(
                f"complexes not touched by any reaction: "
                f"{sorted(c.coeffs for c in isolated)}"
            )

        self._complex_index = {c: i for i, c in enumerate(self.complexes)}
        self._species_index = {s: i for i, s in enumerate(self.species)}
        # The reaction graph in integers, for the tier walks: per reaction
        # its (source, product) complex indices; per complex its sparse
        # (species, coefficient) row and its (product, reaction) out-edges
        # in declaration order.
        self._ends = tuple(
            (self._complex_index[r.source], self._complex_index[r.product])
            for r in self.reactions
        )
        self._rows = tuple(
            tuple((i, c) for i, c in enumerate(y.coeffs) if c) for y in self.complexes
        )
        out_edges: list = [[] for _ in self.complexes]
        for j, (s, p) in enumerate(self._ends):
            out_edges[s].append((p, j))
        self._out_edges = tuple(map(tuple, out_edges))
        # the last sequence laws' static tail parts and the last completed
        # pattern scan on this network; see ``tiers._static``, ``tiers._scan``
        self._tail_memo: Optional[tuple] = None
        self._scan_memo: Optional[tuple] = None

    @classmethod
    def from_reactions(
        cls, species: Sequence[str], reactions: Sequence[Reaction]
    ) -> "ReactionNetwork":
        """Build a network whose complex list is the endpoints of ``reactions``
        in first-appearance order."""
        complexes: list = []
        seen = set()
        for r in reactions:
            for c in (r.source, r.product):
                if c not in seen:
                    seen.add(c)
                    complexes.append(c)
        return cls(species, complexes, reactions)

    @property
    def dim(self) -> int:
        return len(self.species)

    def complex_index(self, c: Complex) -> int:
        return self._complex_index[c]

    def species_index(self, name: str) -> int:
        return self._species_index[name]

    def format_complex(self, c: Complex) -> str:
        return c.format(self.species)

    def format_reaction(self, r: Reaction) -> str:
        return r.format(self.species)

    def __eq__(self, other) -> bool:
        """Networks are equal when species (ordered) and reaction sets agree.

        Complex list order is a presentation detail: the complex set is
        determined by the reactions."""
        if not isinstance(other, ReactionNetwork):
            return NotImplemented
        return self.species == other.species and set(self.reactions) == set(
            other.reactions
        )

    def __repr__(self) -> str:
        return (
            f"ReactionNetwork(species={list(self.species)}, "
            f"|C|={len(self.complexes)}, |R|={len(self.reactions)})"
        )


class MassActionSystem:
    """A reaction network together with positive rate constants.

    ``kappa`` may be a mapping from Reaction to rate constant or a sequence
    aligned with ``network.reactions``.
    """

    def __init__(
        self,
        network: ReactionNetwork,
        kappa: Union[Mapping[Reaction, float], Sequence[float]],
    ):
        self.network = network
        if isinstance(kappa, Mapping):
            extra = set(kappa) - set(network.reactions)
            if extra:
                raise ValueError("rate constants given for unknown reactions")
            try:
                rates = tuple(float(kappa[r]) for r in network.reactions)
            except KeyError as e:
                raise ValueError(f"missing rate constant for reaction {e}") from None
        else:
            rates = tuple(float(k) for k in kappa)
            if len(rates) != len(network.reactions):
                raise ValueError(
                    f"got {len(rates)} rate constants for "
                    f"{len(network.reactions)} reactions"
                )
        for r, k in zip(network.reactions, rates):
            if not (k > 0 and math.isfinite(k)):
                raise ValueError(
                    f"rate constant for {r.source.coeffs} -> {r.product.coeffs} "
                    f"must be positive, got {k}"
                )
        self.rate_constants = rates
        self._kappa = {r: k for r, k in zip(network.reactions, rates)}
        # Per reaction: (kappa, (species, coefficient) pairs of the source,
        # sparse net change).  Every rate in kinetics and simulate is
        # evaluated from this one table.
        self._rate_table = tuple(
            (
                k,
                tuple((i, c) for i, c in enumerate(r.source.coeffs) if c > 0),
                tuple((i, c) for i, c in enumerate(r.change) if c != 0),
            )
            for r, k in zip(network.reactions, rates)
        )

    def rate_constant(self, reaction: Reaction) -> float:
        """Rate constant of ``reaction``; KeyError if not in the network."""
        return self._kappa[reaction]

    @property
    def kappa(self) -> dict:
        """Copy of the reaction -> rate-constant mapping."""
        return dict(self._kappa)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassActionSystem):
            return NotImplemented
        return self.network == other.network and self._kappa == other._kappa

    def __repr__(self) -> str:
        return f"MassActionSystem({self.network!r})"

