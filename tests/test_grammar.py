import pytest
from hypothesis import given, settings, strategies as st

import grammar_reference
from conftest import EPS, random_term, seeded
from ordclass import terms as tm
from ordclass.context import ClassContext
from ordclass.errors import OrderUndecidable, OrdinalError, ParseError, UndeclaredAtom
from ordclass.grammar import MAX_NESTING, parse_ord, render_leaf, render_ord


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


def _monomial_sum(pairs):
    """The normal form of the sum of w^e*c over the (e, c) pairs."""
    out = tm.ZERO
    for exp, coeff in pairs:
        out = tm.add(out, tm.mul(tm.omega_pow(exp), tm.nat(coeff)))
    return out


def _printer_heads():
    """Exponents the printer spells out: 1, n, w, w^w, w^(w*2), w^(w+1), and
    concrete, atom, (+k) and cp leaves (all of one atom, so every pair of
    them has a decided order)."""
    A = ClassContext().declare("A", 3)
    w = tm.omega()
    finite = [tm.one(), tm.nat(2), tm.nat(7), tm.nat(10**30)]
    heads = [w, tm.omega_pow(w), tm.mul(w, tm.nat(2)), tm.add(w, tm.one())]
    heads += [tm.omega_pow(h) for h in heads[2:]]
    leaves = [EPS[0], EPS[3], tm.ConcreteEps(w), A, tm.mk_succ(A, 2)]
    leaves += [tm.mk_succ(tm.mk_succ(A, 2), 1), tm.mk_canonical(1, A, 2), tm.mk_canonical(2, A, 1)]
    return finite + heads + [tm.Leaf(e) for e in leaves]


_COEFF = st.integers(1, 3) | st.integers(2**64, 2**80)
_PRINT_TERMS = st.recursive(
    st.sampled_from([tm.ZERO] + _printer_heads()) | _COEFF.map(tm.nat),
    lambda inner: st.lists(st.tuples(inner, _COEFF), min_size=1, max_size=3).map(_monomial_sum),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_PRINT_TERMS)
def test_printer_matches_the_reference(t):
    """The printer that tests a head's type first prints what the one that
    compared every head with 1 and w printed."""
    assert render_ord(t) == grammar_reference.render_ord(t)


_TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(list("w^*+(),@0123456789eps_xAZ ?#!.-{}\t\n\x0b\x1c\xa0 ٣²é")),
    max_size=30,
) | st.text(max_size=30)


def _level1_atoms():
    """A and Z at level 1: A@1(+1) against Z@1 has no decidable order."""
    ctx = ClassContext()
    ctx.declare("A", 1)
    ctx.declare("Z", 1)
    return ctx.atoms


_ATOMS = _level1_atoms()

# leaves of random expressions: concrete ones, and symbolic ones some pairs
# of which are undecidable, so that sums meet OrderUndecidable
_LEAF_TEXT = st.sampled_from(["0", "1", "3", "w", "eps(0)", "eps(1)", "eps(w)"]) | st.sampled_from(
    ["A@1", "Z@1", "A@1(+1)", "Z@1(+1)"]
)


def _compound(inner):
    return st.one_of(
        st.builds("w^({})".format, inner),
        st.builds("w^{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("{}+{}".format, inner, inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("{}*{}".format, inner, st.integers(0, 3)),
        st.builds("w^({})*{}+{}".format, inner, st.integers(1, 3), inner),
    )


_EXPR_TEXT = st.recursive(_LEAF_TEXT, _compound, max_leaves=12)


def _outcome(parse, text):
    """The term, or the exception's type, message and position."""
    try:
        return parse(text, _ATOMS)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=600, deadline=None)
@given(_TOKEN_TEXT | _EXPR_TEXT)
def test_parser_matches_the_reference(text):
    """The flat parser returns the reference parser's term, or raises its
    exception with the same message and position.  (The two differ only
    where the reference ran out of stack or int() gave up; those inputs are
    deeper or longer than these and are pinned below.)"""
    assert _outcome(parse_ord, text) == _outcome(grammar_reference.parse_ord, text)


@settings(max_examples=400, deadline=None)
@given(_TOKEN_TEXT | _EXPR_TEXT)
def test_parse_raises_only_domain_errors(text):
    try:
        parse_ord(text, _ATOMS)
    except OrdinalError:
        pass


def test_sums_meet_undecidable_pairs_in_order():
    # A(+1)+Z compares A(+1) with Z; Z+A(+1) compares Z with A(+1)
    for text in ("A@1(+1)+Z@1", "w^(A@1(+1))+w^(Z@1)*2", "A@1+A@1(+1)+Z@1"):
        with pytest.raises(OrderUndecidable) as exc:
            parse_ord(text, _ATOMS)
        assert _outcome(parse_ord, text) == _outcome(grammar_reference.parse_ord, text)
    assert parse_ord("A@1+Z@1", _ATOMS) == tm.Leaf(_ATOMS["Z"])


def test_limits_are_domain_errors():
    with pytest.raises(ParseError, match="number too long"):
        parse_ord("1" * 5000)
    deep = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    with pytest.raises(OrdinalError, match="term nested too deeply"):
        parse_ord(deep)
    shallow = "(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1)
    assert parse_ord(shallow) == tm.nat(1)


def _tower(base, text, n):
    """w^(w^(...base...)) with n powers, and its text."""
    for _ in range(n):
        base, text = tm.Cnf(((base, 1),)), f"w^({text})"
    return base, text


def _nestings(n):
    """(term, canonical text) pairs whose texts nest n + 1 sums: an n-level
    w-tower, eps of an (n - 1)-level one, an n-level chain of cp bases, and
    a tower over a cp chain, and the atoms their texts name."""
    tower = _tower(tm.from_monomials(((tm.omega(), 1), (tm.ZERO, 1))), "w^w+1", n)
    inner, inner_text = _tower(tm.from_monomials(((tm.omega(), 1), (tm.ZERO, 1))), "w^w+1", n - 1)
    eps = tm.Leaf(tm.ConcreteEps(inner)), f"eps({inner_text})"
    atom = tm.ClassAtom("A", n + 1, 0)
    chains = [(atom, f"A@{n + 1}")]
    for level in range(n, 0, -1):
        leaf, text = chains[-1]
        chains.append((tm.mk_canonical(level, leaf, 1), f"cp({level + 1},1,{text})"))
    cp = tm.Leaf(chains[-1][0]), chains[-1][1]
    half = n // 2
    leaf, text = chains[n - half]
    mixed = _tower(tm.add(tm.Leaf(leaf), tm.one()), f"{text}+1", half)
    return [tower, eps, cp, mixed], {"A": atom}


@pytest.mark.parametrize("n", range(MAX_NESTING - 2, MAX_NESTING + 2))
def test_the_printer_raises_where_the_parser_does(n):
    """Every printed term re-parses: a term is printed exactly when its
    text nests at most MAX_NESTING sums, also when a deep subterm's text
    was printed before and is reused one level further down."""
    pairs, atoms = _nestings(n)
    for term, text in pairs:
        if n + 1 > MAX_NESTING:
            with pytest.raises(OrdinalError, match="term nested too deeply"):
                parse_ord(text, atoms)
            with pytest.raises(OrdinalError, match="term nested too deeply"):
                render_ord(term)
            continue
        assert render_ord(term) == text and parse_ord(text, atoms) == term
        deeper = tm.Cnf(((term, 1),)) if isinstance(term, tm.Cnf) else None
        if deeper is not None and n + 2 > MAX_NESTING:
            with pytest.raises(OrdinalError, match="term nested too deeply"):
                render_ord(deeper)
    leaf = pairs[2][0].leaf
    if n + 1 > MAX_NESTING:
        with pytest.raises(OrdinalError, match="term nested too deeply"):
            render_leaf(leaf)
    else:
        assert render_leaf(leaf) == pairs[2][1]
