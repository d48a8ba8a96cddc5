import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EPS, random_term, seeded
from ordclass import terms as tm
from ordclass.context import ClassContext
from ordclass.errors import ParseError, UndeclaredAtom
from ordclass.grammar import _tokenize, parse_ord, render_ord


def test_spec_examples():
    assert parse_ord("w^w + 3") == tm.add(tm.omega_pow(tm.omega()), tm.nat(3))
    assert parse_ord("eps(0)") == tm.Leaf(EPS[0])
    assert parse_ord("w^(eps(0))") == tm.Leaf(EPS[0])


def test_whitespace_insignificant():
    assert parse_ord(" w ^ w +  3 ") == parse_ord("w^w+3")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_ord("w^w + ?")
    assert exc.value.position == 6


def test_undeclared_atom():
    with pytest.raises(UndeclaredAtom):
        parse_ord("A@3")


def test_atom_level_mismatch():
    ctx = ClassContext()
    ctx.declare("A", 3)
    with pytest.raises(ParseError):
        parse_ord("A@2", ctx.atoms)


def test_succ_level_violation_reported():
    with pytest.raises(ParseError):
        parse_ord("eps(0)(+2)")


def test_postfix_and_cp_roundtrip():
    ctx = ClassContext()
    ctx.declare("A", 3)
    for text in ["A@3(+2)(+1)", "cp(3,2,A@3)", "cp(2,1,cp(3,2,A@3))", "eps(0)(+1)"]:
        t = parse_ord(text, ctx.atoms)
        assert parse_ord(render_ord(t), ctx.atoms) == t


def test_finite_spellings_agree():
    assert parse_ord("w^0*5") == tm.nat(5)
    assert parse_ord("5") == tm.nat(5)


def test_only_w_exponentiates():
    with pytest.raises(ParseError):
        parse_ord("2^w")


def test_eps_index_must_be_concrete():
    ctx = ClassContext()
    ctx.declare("A", 2)
    with pytest.raises(ParseError):
        parse_ord("eps(A@2)", ctx.atoms)


def test_printer_deterministic_decreasing():
    assert render_ord(parse_ord("w + w^w*2 + 1 + w")) == "w^w*2+w"
    assert render_ord(parse_ord("1 + w^w*2 + w + 1")) == "w^w*2+w+1"


terms_st = st.builds(lambda s: random_term(seeded(s), depth=4), st.integers(0, 10**6))


@given(terms_st)
@settings(max_examples=120, deadline=None)
def test_render_parse_roundtrip(t):
    assert parse_ord(render_ord(t)) == t


def test_atom_roundtrip_with_context():
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    rng = seeded(11)
    leaves = [A, tm.mk_succ(A, 2), tm.mk_succ(tm.mk_succ(A, 2), 1), tm.mk_canonical(1, A, 2)]
    for _ in range(120):
        t = random_term(rng, depth=3, leaves=leaves)
        assert parse_ord(render_ord(t), ctx.atoms) == t


def _tokenize_by_loop(text):
    """The tokenizer as a match-per-token loop: the reference for _tokenize."""
    token = re.compile(
        r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[@^*+(),]))"
    )
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


_TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(list("w^*+(),@0123456789eps_xAZ ?#!.-{}\t\n\x0b\x1c\xa0 ٣²é")),
    max_size=30,
) | st.text(max_size=30)


@settings(max_examples=400, deadline=None)
@given(_TOKEN_TEXT)
def test_tokenize_matches_the_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_tokenize_by_loop, text)
