"""Plain-text network format.

One statement per line.  An optional species declaration fixes the species
order; otherwise species are collected from the reactions in first-appearance
order.  Reactions give a source and product complex, an arrow (``->`` or
``<->``), and rate constants after a semicolon:

    # comment to end of line
    species: A, B, C
    A + B -> 2C ; k=1.5
    0 <-> A ; k=2, 0.5        # forward, backward

Complexes are ``0`` or ``+``-separated terms, each an optional coefficient
followed by a species name (``2C`` and ``2 C`` both work).  Coefficients are
nonnegative integers at most 999.  Whitespace is free within a line.

``parse`` is total over text input: every failure raises ``ParseError`` with
a 1-based line and column.  ``serialize`` emits a canonical form (species
declaration first, reactions sorted, ``->`` arrows only) whose parse compares
equal to the original system.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ParseError
from .network import Complex, MassActionSystem, Reaction, ReactionNetwork

__all__ = ["NetworkDocument", "DocumentStatement", "parse", "parse_document", "serialize"]

MAX_COEFF = 999

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")
_NUM = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


@dataclass(frozen=True)
class DocumentStatement:
    """One parsed line: ``kind`` is ``"species"`` or ``"reaction"``.

    For species statements ``payload`` is the name tuple; for reactions it is
    ``(source_terms, product_terms, reversible, (k_fwd, k_back or None))``
    where each term list holds ``(coeff, name)`` pairs.
    """

    kind: str
    line: int
    payload: tuple


@dataclass
class NetworkDocument:
    """Parse tree of a network file: ordered statements plus line spans."""

    statements: List[DocumentStatement] = field(default_factory=list)

    @property
    def species_declaration(self) -> Optional[DocumentStatement]:
        for s in self.statements:
            if s.kind == "species":
                return s
        return None


class _LineScanner:
    """Cursor over a single line with 1-based column reporting."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line = line_no
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def take(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, what: str):
        if not self.take(literal):
            raise self.error(f"expected {what}")

    def take_re(self, pattern: re.Pattern) -> Optional[str]:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)


def _parse_term(sc: _LineScanner) -> Tuple[int, str]:
    coeff_txt = sc.take_re(_INT)
    coeff = 1
    if coeff_txt is not None:
        coeff = int(coeff_txt)
        if coeff == 0:
            raise sc.error("term coefficient must be positive (use 0 for the empty complex)")
        if coeff > MAX_COEFF:
            raise sc.error(f"term coefficient {coeff} exceeds maximum {MAX_COEFF}")
    name = sc.take_re(_IDENT)
    if name is None:
        raise sc.error("expected species name")
    return coeff, name


def _parse_side(sc: _LineScanner) -> List[Tuple[int, str]]:
    # the bare zero complex: "0" not followed by a species name
    save = sc.pos
    if sc.take("0"):
        sc.skip_ws()
        if sc.pos >= len(sc.text) or not (
            sc.text[sc.pos].isalpha() or sc.text[sc.pos] == "_" or sc.text[sc.pos].isdigit()
        ):
            return []
        sc.pos = save
    terms = [_parse_term(sc)]
    while sc.take("+"):
        terms.append(_parse_term(sc))
    return terms


def _parse_reaction_line(sc: _LineScanner) -> DocumentStatement:
    source = _parse_side(sc)
    if sc.take("<->"):
        reversible = True
    elif sc.take("->"):
        reversible = False
    else:
        raise sc.error("expected '->' or '<->'")
    product = _parse_side(sc)
    sc.expect(";", "';' before rate constants")
    sc.expect("k", "rate constant 'k=...'")
    sc.expect("=", "'=' after 'k'")
    k_txt = sc.take_re(_NUM)
    if k_txt is None:
        raise sc.error("missing rate constant value")
    k_fwd = float(k_txt)
    k_back: Optional[float] = None
    if sc.take(","):
        back_txt = sc.take_re(_NUM)
        if back_txt is None:
            raise sc.error("missing backward rate constant after ','")
        k_back = float(back_txt)
        if not reversible:
            raise sc.error("two rate constants given for a one-way reaction")
    elif reversible:
        raise sc.error("reversible reaction needs two rate constants 'k=fwd, back'")
    if not sc.at_end():
        raise sc.error("unexpected trailing text")
    return DocumentStatement(
        "reaction",
        sc.line,
        (tuple(source), tuple(product), reversible, (k_fwd, k_back)),
    )


def _parse_species_line(sc: _LineScanner) -> DocumentStatement:
    names = []
    while True:
        name = sc.take_re(_IDENT)
        if name is None:
            raise sc.error("expected species name")
        names.append(name)
        if not sc.take(","):
            break
    if not sc.at_end():
        raise sc.error("unexpected trailing text")
    if len(set(names)) != len(names):
        raise ParseError("duplicate species name in declaration", sc.line, 1)
    return DocumentStatement("species", sc.line, tuple(names))


def parse_document(text: str) -> NetworkDocument:
    """Tokenize and parse ``text`` into statements without building the network."""
    doc = NetworkDocument()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        if not line.strip():
            continue
        sc = _LineScanner(line, line_no)
        if sc.peek("species"):
            save = sc.pos
            sc.take("species")
            if sc.take(":"):
                if doc.species_declaration is not None:
                    raise ParseError("duplicate species declaration", line_no, 1)
                doc.statements.append(_parse_species_line(sc))
                continue
            sc.pos = save  # "species" was actually an identifier
        doc.statements.append(_parse_reaction_line(sc))
    return doc


def _term_complex(terms, species_index, line: int) -> Complex:
    coeffs = [0] * len(species_index)
    for coeff, name in terms:
        if name not in species_index:
            raise ParseError(f"species '{name}' not in declaration", line, 1)
        coeffs[species_index[name]] += coeff
    if any(c > MAX_COEFF for c in coeffs):
        raise ParseError(f"complex coefficient exceeds maximum {MAX_COEFF}", line, 1)
    return Complex(coeffs)


def parse(text: str) -> MassActionSystem:
    """Parse network text into a mass-action system.

    Raises ``ParseError`` (with line and column) for syntax errors, unknown
    or duplicate species, self-loop reactions, duplicate reactions, and
    missing, non-positive or infinite rate constants.
    """
    doc = parse_document(text)
    decl = doc.species_declaration
    if decl is not None:
        species = list(decl.payload)
    else:
        species = []
        seen = set()
        for s in doc.statements:  # all reactions: there is no declaration
            for side in (s.payload[0], s.payload[1]):
                for _, name in side:
                    if name not in seen:
                        seen.add(name)
                        species.append(name)
    if not species:
        raise ParseError("no species found", 1, 1)
    species_index = {name: i for i, name in enumerate(species)}

    reactions: List[Reaction] = []
    kappa: List[float] = []
    seen_pairs = set()
    for s in doc.statements:
        if s.kind != "reaction":
            continue
        source_terms, product_terms, reversible, (k_fwd, k_back) = s.payload
        source = _term_complex(source_terms, species_index, s.line)
        product = _term_complex(product_terms, species_index, s.line)
        if source == product:
            raise ParseError("reaction source and product are identical", s.line, 1)
        directed = [(source, product, k_fwd)]
        if reversible:
            directed.append((product, source, k_back))
        for src, prd, k in directed:
            if k is None or not 0 < k < math.inf:
                raise ParseError(
                    f"rate constant must be positive and finite, got {k}", s.line, 1
                )
            if (src, prd) in seen_pairs:
                raise ParseError(
                    f"duplicate reaction "
                    f"{src.format(species)} -> {prd.format(species)}",
                    s.line,
                    1,
                )
            seen_pairs.add((src, prd))
            reactions.append(Reaction(src, prd))
            kappa.append(k)
    if not reactions:
        raise ParseError("no reactions found", 1, 1)
    net = ReactionNetwork.from_reactions(species, reactions)
    return MassActionSystem(net, kappa)


def serialize(system: MassActionSystem) -> str:
    """Canonical text for ``system``: a species declaration followed by one
    one-way reaction per line, sorted by (source, product) coefficients."""
    net = system.network
    lines = ["species: " + ", ".join(net.species)]
    order = sorted(
        net.reactions, key=lambda r: (r.source.coeffs, r.product.coeffs)
    )
    for r in order:
        lines.append(f"{r.format(net.species)} ; k={system.rate_constant(r)!r}")
    return "\n".join(lines) + "\n"

