"""Text format: parsing, diagnostics, canonical serialization, round trips."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnkit import Complex, MassActionSystem, Reaction, ReactionNetwork
from crnkit.catalog import creation_annihilation_loop, five_complex_cycle
from crnkit.errors import ParseError
from crnkit.parser import parse, parse_document, serialize

CYCLE_TEXT = """
# single linkage class, binary
species: A, B, C
A -> A + B ; k=1
A + B -> A + C ; k=1
A + C -> C ; k=1
C -> 2B ; k=1
2B -> A ; k=1
"""


def test_parse_cycle_matches_catalog():
    assert parse(CYCLE_TEXT) == five_complex_cycle()


def test_parse_without_declaration_uses_first_appearance_order():
    sys_ = parse("X -> Y ; k=1\nY -> Z ; k=2\n")
    assert sys_.network.species == ("X", "Y", "Z")
    # a name that starts with "species" is a species, not a declaration
    assert parse("speciesA -> 0 ; k=1\n").network.species == ("speciesA",)


def test_parse_declaration_fixes_order():
    sys_ = parse("species: Z, Y, X\nX -> Y ; k=1\nY -> Z ; k=2\n")
    assert sys_.network.species == ("Z", "Y", "X")


def test_parse_reversible_expands_to_two_reactions():
    sys_ = parse("0 <-> S ; k=2, 1\n")
    net = sys_.network
    assert len(net.reactions) == 2
    kap = {net.format_reaction(r): sys_.rate_constant(r) for r in net.reactions}
    assert kap == {"0 -> S": 2.0, "S -> 0": 1.0}


def test_parse_zero_complex_and_coefficients():
    sys_ = parse("2A + B -> 0 ; k=0.5\n0 -> 2 A + B ; k=1e-3\n")
    (r1, r2) = sys_.network.reactions
    assert r1.source.coeffs == (2, 1)
    assert r1.product.coeffs == (0, 0)
    assert sys_.rate_constant(r2) == 1e-3
    assert r2.product.coeffs == (2, 1)


def test_parse_is_whitespace_insensitive():
    a = parse("A+B->2C;k=1.5\n")
    b = parse("  A  +  B   ->   2 C ; k = 1.5\n")
    assert a == b


def test_parse_comments_and_blank_lines():
    text = "\n\n# header\nspecies: A, B  # trailing\n\nA -> B ; k=1 # note\n"
    sys_ = parse(text)
    assert len(sys_.network.reactions) == 1


def test_repeated_species_in_complex_accumulates():
    sys_ = parse("A + A -> B ; k=1\n")
    assert sys_.network.reactions[0].source.coeffs == (2, 0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("A -> ; k=1\n", "species name"),
        ("A => B ; k=1\n", "'->' or '<->'"),
        ("A -> B k=1\n", "';'"),
        ("A -> B ; k=\n", "missing rate constant"),
        ("A -> B ;\n", "rate constant"),
        ("A -> B ; k=0\n", "positive"),
        ("A -> B ; k=-2\n", "positive"),
        ("A -> B ; k=1e999\n", "positive"),
        ("A <-> B ; k=1\n", "two rate constants"),
        ("A -> B ; k=1, 2\n", "one-way"),
        ("A <-> B ; k=1, 0\n", "positive"),
        ("A -> A ; k=1\n", "identical"),
        ("A -> B ; k=1\nA -> B ; k=2\n", "duplicate reaction"),
        ("A -> B ; k=1 extra\n", "trailing"),
        ("species: A, A\nA -> 0 ; k=1\n", "duplicate species"),
        ("species: A\nspecies: B\nA -> 0 ; k=1\n", "duplicate species declaration"),
        ("species: A\nA -> B ; k=1\n", "not in declaration"),
        ("1000A -> B ; k=1\n", "exceeds maximum"),
        ("0A -> B ; k=1\n", "positive"),
        ("500A + 500A -> 0 ; k=1\n", "complex coefficient exceeds maximum"),
        ("A <-> B ; k=1,\n", "missing backward rate constant"),
        ("species: A,\nA -> 0 ; k=1\n", "expected species name"),
        ("species: A B\nA -> 0 ; k=1\n", "trailing"),
        ("species: A\n", "no reactions found"),
        ("", "no species"),
        ("# only a comment\n", "no species"),
    ],
)
def test_parse_errors_carry_message(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("A -> B ; k=1\nB -> ; k=1\n")
    assert exc.value.line == 2
    assert exc.value.column == 6


def test_parse_duplicate_via_reversible_detected():
    with pytest.raises(ParseError) as exc:
        parse("A <-> B ; k=1, 1\nB -> A ; k=2\n")
    assert "duplicate reaction" in str(exc.value)


def test_parse_document_keeps_statement_order_and_lines():
    doc = parse_document(CYCLE_TEXT)
    kinds = [s.kind for s in doc.statements]
    assert kinds == ["species"] + ["reaction"] * 5
    assert doc.statements[0].line == 3
    assert doc.statements[1].line == 4


def test_serialize_canonical_form():
    text = serialize(parse("B -> A ; k=2\nA -> B ; k=1\n"))
    assert text == "species: B, A\nA -> B ; k=1.0\nB -> A ; k=2.0\n"


def test_serialize_zero_complex():
    text = serialize(parse("S -> 0 ; k=1\n"))
    assert "S -> 0 ; k=1.0" in text


def test_round_trip_catalog_systems():
    for sys_ in (five_complex_cycle(), creation_annihilation_loop()):
        assert parse(serialize(sys_)) == sys_


def test_serialize_is_idempotent():
    sys_ = creation_annihilation_loop((0.5, 1, 2, 3, 4.25, 5, 6, 1e-4))
    once = serialize(sys_)
    assert serialize(parse(once)) == once


# ------------------------------------------------ randomized round trips

_names = st.lists(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def random_systems(draw):
    species = draw(_names)
    d = len(species)
    n_complex = draw(st.integers(min_value=2, max_value=5))
    coeff_vec = st.tuples(*[st.integers(min_value=0, max_value=3)] * d)
    complexes = draw(
        st.lists(coeff_vec, min_size=n_complex, max_size=n_complex, unique=True)
    )
    pairs = [
        (i, j)
        for i in range(len(complexes))
        for j in range(len(complexes))
        if i != j
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)
    )
    reactions = [
        Reaction(Complex(complexes[i]), Complex(complexes[j])) for i, j in chosen
    ]
    kappa = [
        draw(
            st.floats(
                min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
            )
        )
        for _ in reactions
    ]
    net = ReactionNetwork.from_reactions(species, reactions)
    return MassActionSystem(net, kappa)


@settings(max_examples=80, deadline=None)
@given(random_systems())
def test_round_trip_random_systems(sys_):
    assert parse(serialize(sys_)) == sys_


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="AB2 +-><;k=.,\n#_0e1", max_size=60))
@example("A->B;k=1e2220")
def test_parse_is_total(text):
    """Arbitrary input either parses or raises ParseError, never anything else."""
    try:
        parse(text)
    except ParseError:
        pass
