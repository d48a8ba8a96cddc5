"""The context's sorted views (its m-keys, its known leaves and the rank
table of its m-values) against the linear scans and term comparisons they
replace.

`ScanContext` builds no view, so every query on it runs the scan that tests
each m-annotation and known leaf, and `eta`/`ell` compare every m-value as
a term.  Wherever that reference returns, the context with views must
return the same answer.  Wherever the ranked pass that eta/ell once ran
(`oracle_reference._eta_of`/`_ell_of`) answers over the same candidates,
the one-pass maximum gives that answer.  Whether queries ran between the
writes changes no answer.  The T-set, which keeps each step of its
O-recursion for the later rounds, answers as the one that reran every
step in every round (`oracle_reference.reference_T_set`).
"""

import itertools
import json
import random

import pytest

from hypothesis import example, given, settings, strategies as st

from conftest import EPS
from oracle_reference import _ell_of, _eta_of, reference_T_set
from ordclass import terms as tm
from ordclass.cli import main
from ordclass.context import ClassContext, _between, chain_bound, chain_down, succ_chain
from ordclass.errors import OrderUndecidable, OrdinalError
from ordclass.grammar import parse_ord
from ordclass.skeleton import (
    T_set,
    _extremum,
    _m_pairs,
    _structural_candidates,
    canonical_point,
    eta_compute,
    l_compute,
)


class ScanContext(ClassContext):
    """A context whose sorted views never answer: the reference."""

    def _build_view(self, name):
        return None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except OrdinalError as exc:
        return "raised", type(exc)


def _agree(indexed, reference):
    """The indexed outcome matches the scan wherever the scan returns.

    Where the scan failed on an order it could not decide, the index may
    answer: its answer rests on the order of the other terms.  Any other
    failure of the scan is also a failure of the index.
    """
    if reference[0] == "ok":
        assert indexed == reference
    elif reference[1] is not OrderUndecidable:
        assert indexed == reference


def _candidates(ctx, k, alpha, t):
    """The structural eta/ell candidates in (alpha, t], with their m."""
    return _structural_candidates(ctx, succ_chain(alpha, k), chain_bound(alpha, k), t)


def _leaf_terms(ctx):
    return [tm.Leaf(e) for e in ctx.known_leaves]


def _probe_terms(ctx):
    """Points for interval ends: leaves, their doubles and towers, m-keys."""
    out = list(ctx.m_table)
    for r in _leaf_terms(ctx):
        out += [r, tm.mul(r, tm.nat(2)), tm.add(r, tm.one())]
        out += [tm.omega_tower(r.leaf, j) for j in (1, 2)]
        out.append(tm.add(tm.omega_tower(r.leaf, 2), tm.omega_tower(r.leaf, 1)))
    return out


@st.composite
def _history(draw):
    """Atom levels in declaration (rank) order, then a list of steps."""
    levels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["canon", "chain", "set_m", "register", "query", "query"]),
                st.lists(st.integers(0, 50), min_size=6, max_size=6),
            ),
            min_size=4,
            max_size=14,
        )
    )
    return levels, steps


def _pick(seq, n):
    return seq[n % len(seq)]


def _derived_leaf(ctx, r):
    """A successor or canonical point over a known leaf."""
    base = _pick(list(ctx.known_leaves), r[1])
    level = tm.leaf_level(base)
    if r[2] % 2 and level >= 2:
        return tm.mk_canonical(1 + r[3] % (level - 1), base, 1 + r[4] % 3)
    return tm.mk_succ(base, 1 + r[3] % level)


def _step(ctx, step):
    """One history step on one context; a query returns its outcomes."""
    kind, r = step
    leaves = list(ctx.known_leaves)
    if kind == "canon":
        e = _pick(leaves, r[0])
        i = 1 + r[1] % tm.leaf_level(e)
        return _outcome(canonical_point, ctx, i, e, 1 + r[2] % 3)
    if kind == "chain":
        return _outcome(chain_down, ctx, _pick(leaves, r[0]))
    if kind == "set_m":
        t = _pick(_probe_terms(ctx), r[0])
        bump = _pick(_probe_terms(ctx), r[1])
        return _outcome(lambda: ctx.set_m(t, tm.add(t, bump)))
    if kind == "register":
        return _outcome(ctx.register, _derived_leaf(ctx, r))
    alpha = _pick(leaves, r[0])
    k = 1 + r[1] % tm.leaf_level(alpha)
    probes = _probe_terms(ctx)
    t = _pick(probes, r[2])
    lo, hi = _pick(probes, r[3]), _pick(probes, r[4])
    return [
        _outcome(ctx.leaves_between, lo, hi, 1 + r[5] % 3),
        _outcome(_candidates, ctx, k, alpha, t),
        _outcome(lambda: eta_compute(ctx, k, alpha, t)),
        _outcome(lambda: l_compute(ctx, k, alpha, t)),
        _outcome(T_set, ctx, k, alpha, t),
    ]


def _declare(ctx, levels):
    for name, level in zip("ABC", levels):
        ctx.declare(name, level)
    for e in EPS[:3]:
        ctx.register(e)


@settings(max_examples=150, deadline=None)
@given(_history())
def test_indexed_queries_match_the_scan(history):
    levels, steps = history
    ctx, ref = ClassContext(), ScanContext()
    _declare(ctx, levels)
    _declare(ref, levels)
    for step in steps:
        got, want = _step(ctx, step), _step(ref, step)
        if step[0] != "query":
            assert got == want  # the same history on both
            continue
        for indexed, reference in zip(got, want):
            _agree(indexed, reference)
        # a query leaves the context as it found it
        assert list(ctx.known_leaves) == list(ref.known_leaves)
        assert ctx.m_table == ref.m_table


def _level3_context(cls):
    ctx = cls()
    for name in "AB":
        ctx.declare(name, 3)
    for name in "AB":
        for i in (1, 2, 3):
            for k in (1, 2, 3):
                canonical_point(ctx, i, ctx.atom(name), k)
    return ctx


def test_level3_queries_use_the_index():
    ctx, ref = _level3_context(ClassContext), _level3_context(ScanContext)
    for name in "AB":
        A = ctx.atom(name)
        for k in (1, 2, 3):
            gamma = canonical_point(ctx, 3, A, k).gamma
            canonical_point(ref, 3, A, k)
            for t in (gamma, tm.add(gamma, tm.one())):
                for name, closed in (("keys", True), ("leaves", False)):
                    assert _between(ctx._view(name), tm.Leaf(A), t, closed) is not None
                assert _candidates(ctx, 3, A, t) == _candidates(ref, 3, A, t)
                for fn in (eta_compute, l_compute):
                    assert fn(ctx, 3, A, t) == fn(ref, 3, A, t)
                assert T_set(ctx, 3, A, t) == T_set(ref, 3, A, t)
    lo, hi = tm.Leaf(EPS[0]), tm.Leaf(ctx.atom("B"))
    assert ctx.leaves_between(lo, hi) == ctx.scan_leaves_between(lo, hi)


def test_index_is_built_lazily_then_kept_sorted():
    """No view is built while the context is set up; a query builds the
    ones it reads, a write drops the ones it changes, and the next query
    sorts them again from every fact."""
    ctx = _level3_context(ClassContext)
    assert ctx._views == {}
    A, B = tm.Leaf(ctx.atom("A")), tm.Leaf(ctx.atom("B"))
    list(ctx.m_keys_in(A, B))
    ctx.leaves_between(A, B)
    assert set(ctx._views) == {"keys", "leaves"}
    canonical_point(ctx, 3, ctx.atom("A"), 4)  # new m-keys and leaves
    assert ctx._views == {}
    list(ctx.m_keys_in(A, B))
    ctx.leaves_between(A, B)
    for view, terms in ((ctx._views["keys"], list(ctx.m_table)), (ctx._views["leaves"], _leaf_terms(ctx))):
        assert len(view) == len(terms)
        assert all(tm.compare(a, b) is tm.LT for a, b in zip(view, view[1:]))


def _undecidable_pair_context():
    # A@1(+1) and B@1 have no decidable order: B may lie inside (A, A(+1))
    ctx = ClassContext()
    A = ctx.declare("A", 1)
    B = ctx.declare("B", 1)
    ctx.register(EPS[0])
    ctx.register(EPS[1])
    with pytest.raises(OrderUndecidable):
        tm.compare_leaves(tm.mk_succ(A, 1), B)
    return ctx, A, B


@pytest.mark.parametrize("built_first", [False, True])
def test_undecidable_leaves_drop_the_index(built_first):
    ctx, A, B = _undecidable_pair_context()
    lo, hi = tm.Leaf(EPS[0]), tm.Leaf(tm.mk_succ(EPS[1], 1))
    if built_first:
        assert _between(ctx._view("leaves"), lo, hi, False) is not None  # built, then dropped
    ctx.register(tm.mk_succ(A, 1))
    assert "leaves" not in ctx._views
    assert ctx.leaves_between(lo, hi) == (EPS[1],) == ctx.scan_leaves_between(lo, hi)
    assert ctx._views["leaves"] is None
    # the scan still answers where it can order every leaf against the ends
    t = tm.mul(tm.Leaf(EPS[0]), tm.nat(3))
    assert eta_compute(ctx, 1, EPS[0], t) == t
    # ...and fails where it must compare the two undecidable leaves
    with pytest.raises(OrderUndecidable):
        ctx.leaves_between(tm.Leaf(B), tm.mul(tm.Leaf(B), tm.nat(2)))


def test_undecidable_m_keys_drop_their_index():
    ctx, A, B = _undecidable_pair_context()
    ctx.set_m(tm.Leaf(B), tm.mul(tm.Leaf(B), tm.nat(2)))
    assert isinstance(ctx.m_keys_in(tm.Leaf(EPS[0]), tm.Leaf(EPS[1])), list)  # bisected
    assert ctx._views["keys"] is not None
    succ = tm.Leaf(tm.mk_succ(A, 1))
    ctx.set_m(succ, tm.mul(succ, tm.nat(2)))
    assert list(ctx.m_keys_in(tm.Leaf(EPS[0]), tm.Leaf(EPS[1]))) == []  # scanned
    assert ctx._views["keys"] is None
    assert ctx.m_table[succ] == tm.mul(succ, tm.nat(2))


def test_index_answers_where_the_scan_cannot():
    # B@1(+1) < D@2 < A@1 are decided, B@1(+1) against A@1 is not; an
    # annotation on B@1(+1) stops the scan of (A, A*3], not the bisection
    ctx, ref = ClassContext(), ScanContext()
    for c in (ctx, ref):
        B = c.declare("B", 1)
        D = c.declare("D", 2)
        A = c.declare("A", 1)
        x = tm.Leaf(tm.mk_succ(B, 1))
        c.set_m(x, tm.mul(x, tm.nat(2)))
        c.set_m(tm.Leaf(D), tm.mul(tm.Leaf(D), tm.nat(2)))
    with pytest.raises(OrderUndecidable):
        tm.compare(x, tm.Leaf(A))
    t = tm.mul(tm.Leaf(A), tm.nat(3))
    with pytest.raises(OrderUndecidable):
        _candidates(ref, 1, A, t)
    assert _candidates(ctx, 1, A, t) == {t: t}
    assert eta_compute(ctx, 1, A, t) == t


# ---------------------------------------------------------------------------
# the rank table of m-values


def _spaced_context(cls):
    """E@2 < B@1 < D@2 < A@1 by rank.  B(+1) < D < A are decided, B(+1)
    against A is not; nor is E(+1) against B or A, as B or A may lie
    inside (E, E(+1))."""
    ctx = cls()
    for name, level in (("E", 2), ("B", 1), ("D", 2), ("A", 1)):
        ctx.declare(name, level)
    return ctx


def _spaced_terms(ctx):
    """(keys inside (E, E(+2)), values over every root)."""
    E, B, D, A = (ctx.atom(n) for n in "EBDA")
    e, e1 = tm.Leaf(E), tm.Leaf(tm.mk_succ(E, 1))
    keys = [tm.mul(e, tm.nat(c)) for c in (2, 3, 4)]
    keys += [tm.add(e, tm.one()), tm.omega_tower(E, 1), e1, tm.mul(e1, tm.nat(3))]
    leaves = [e1, tm.Leaf(B), tm.Leaf(tm.mk_succ(B, 1)), tm.Leaf(D), tm.Leaf(A)]
    values = [tm.mul(r, tm.nat(2)) for r in leaves] + [tm.mul(r, tm.nat(5)) for r in keys]
    return keys, values


@st.composite
def _annotations(draw):
    """(key, value) index pairs in insertion order, then query picks."""
    sets = draw(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=8))
    queries = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 50)), min_size=1, max_size=6))
    return sets, queries


def _ranked_differential(annotations, register):
    """Random annotations over four roots: the rank table is built, dropped
    (undecidable values) or bypassed (an unranked m undecidable against a
    ranked one), and eta/ell agree with the scan reference wherever it
    returns, and with the old ranked pass over the same candidates wherever
    that returns."""
    sets, queries = annotations
    ctx, ref = _spaced_context(ClassContext), _spaced_context(ScanContext)
    if register:  # E(+1) against B(+1) is undecidable: drops the leaf index
        for c in (ctx, ref):
            c.register(tm.mk_succ(c.atom("E"), 1))
            c.register(tm.mk_succ(c.atom("B"), 1))
    keys, values = _spaced_terms(ctx)
    for i, j in sets:
        key, value = _pick(keys, i), _pick(values, j)
        assert _outcome(ctx.set_m, key, value) == _outcome(ref.set_m, key, value)
    E = ctx.atom("E")
    for k, i in queries:
        t = _pick(keys + [tm.mul(r, tm.nat(2)) for r in keys], i)
        pairs = _outcome(_m_pairs, k, E, t, ctx)
        for fn, old in ((eta_compute, _eta_of), (l_compute, _ell_of)):
            got = _outcome(lambda: fn(ctx, k, E, t))
            _agree(got, _outcome(lambda: fn(ref, k, E, t)))
            if pairs[0] == "ok" and pairs[1][1] is not None:
                _agree(got, _outcome(old, pairs[1][1]))


@settings(max_examples=200, deadline=None)
@given(_annotations())
def test_ranked_eta_ell_match_the_term_loop(annotations):
    _ranked_differential(annotations, register=True)


@settings(max_examples=200, deadline=None)
@given(_annotations())
# E*2 -> B*2, w^(E+1) -> D*2 and E*3 -> E(+1)*2, queried on (E, w^(E+1)]:
# B*2 against E(+1)*2 is undecidable, D*2 lies above both; the old ranked
# pass raised on it
@example(([(0, 1), (4, 15), (1, 0)], [(1, 46)]))
def test_ranked_eta_ell_match_the_term_loop_on_the_indexed_path(annotations):
    _ranked_differential(annotations, register=False)


def _annotate(ctx, pairs):
    for key, value in pairs:
        ctx.set_m(key, value)


def _spaced_annotations(ctx):
    """E*2 -> B(+1)*2, E*4 -> D*2, E*3 -> A*2, in that order: the values
    sort without B(+1)*2 meeting A*2, which no rule orders."""
    e = tm.Leaf(ctx.atom("E"))
    b1 = tm.Leaf(tm.mk_succ(ctx.atom("B"), 1))
    double = lambda r: tm.mul(r, tm.nat(2))  # noqa: E731
    return [
        (tm.mul(e, tm.nat(2)), double(b1)),
        (tm.mul(e, tm.nat(4)), double(tm.Leaf(ctx.atom("D")))),
        (tm.mul(e, tm.nat(3)), double(tm.Leaf(ctx.atom("A")))),
    ]


def test_rank_table_is_lazy_equal_valued_and_rebuilt_after_set_m():
    ctx = _spaced_context(ClassContext)
    pairs = _spaced_annotations(ctx)
    _annotate(ctx, pairs)
    assert "ranks" not in ctx._views
    ranks = ctx.m_ranks()
    assert [ranks[id(ctx.m_table[key])] for key, _ in pairs] == [0, 1, 2]
    e = tm.Leaf(ctx.atom("E"))
    equal = tm.mul(tm.Leaf(ctx.atom("D")), tm.nat(2))  # equal to a value, not it
    assert equal == pairs[1][1] and equal is not pairs[1][1]
    assert id(equal) not in ranks
    ctx.set_m(tm.mul(e, tm.nat(5)), equal)
    assert "ranks" not in ctx._views
    ranks = ctx.m_ranks()
    assert ranks[id(equal)] == ranks[id(pairs[1][1])] == 1


def test_rank_table_answers_where_the_term_loop_cannot():
    """The one intended difference: on (E, E*3] the candidates' values are
    B(+1)*2 and A*2.  Compared directly they have no order, so the
    reference raises; the table ordered them through D*2, so the ranked
    context answers."""
    ctx, ref = _spaced_context(ClassContext), _spaced_context(ScanContext)
    _annotate(ctx, _spaced_annotations(ctx))
    _annotate(ref, _spaced_annotations(ref))
    E = ctx.atom("E")
    t = tm.mul(tm.Leaf(E), tm.nat(3))
    for fn in (eta_compute, l_compute):
        with pytest.raises(OrderUndecidable):
            fn(ref, 1, E, t)
    assert eta_compute(ctx, 1, E, t) == tm.mul(tm.Leaf(ctx.atom("A")), tm.nat(2))
    assert l_compute(ctx, 1, E, t) == t


def test_undecidable_values_drop_the_rank_table():
    """Inserted in this order, sorting the values compares A*2 with
    B(+1)*2, so the table is dropped; eta/ell then compare the m's as
    terms, as the reference does, and answer where it answers."""
    ctx, ref = _spaced_context(ClassContext), _spaced_context(ScanContext)
    for c in (ctx, ref):
        pairs = _spaced_annotations(c)
        _annotate(c, [pairs[0], pairs[2], pairs[1]])
    assert ctx.m_ranks() is None and ctx._views["ranks"] is None
    E = ctx.atom("E")
    e = tm.Leaf(E)
    for t in (tm.add(tm.mul(e, tm.nat(2)), tm.one()), tm.mul(e, tm.nat(3))):
        for fn in (eta_compute, l_compute):
            assert _outcome(lambda: fn(ctx, 1, E, t)) == _outcome(lambda: fn(ref, 1, E, t))
    assert eta_compute(ctx, 1, E, tm.add(tm.mul(e, tm.nat(2)), tm.one())) == _spaced_annotations(ctx)[0][1]
    # the next set_m lets the table be tried again
    ctx.set_m(tm.mul(e, tm.nat(4)), tm.mul(tm.Leaf(ctx.atom("D")), tm.nat(3)))
    assert "ranks" not in ctx._views


def test_undecidable_unranked_value_has_no_maximum():
    """E@2 < D@2 < B@1 by rank.  On (E, E(+1)*3] at level 2 the chain
    point E(+1) has the unranked m E(+1)*2 and t the unranked m E(+1)*3,
    which no rule orders against the ranked B*2, since B may lie inside
    (E, E(+1)); no third value orders them, so no maximum is decided and
    both contexts raise."""
    contexts = []
    for cls in (ClassContext, ScanContext):
        c = cls()
        for name, level in (("E", 2), ("D", 2), ("B", 1)):
            c.declare(name, level)
        c.set_m(tm.mul(tm.Leaf(c.atom("E")), tm.nat(2)), tm.mul(tm.Leaf(c.atom("B")), tm.nat(2)))
        contexts.append(c)
    ctx, ref = contexts
    E = ctx.atom("E")
    t = tm.mul(tm.Leaf(tm.mk_succ(E, 1)), tm.nat(3))
    assert ctx.m_ranks() is not None
    _, triples = _m_pairs(2, E, t, ctx)
    assert [rank for _, _, rank in triples] == [None, 0, None]
    with pytest.raises(OrderUndecidable):
        _extremum([(m, rank) for _, m, rank in triples], tm.GT)
    for fn in (eta_compute, l_compute):
        got = _outcome(lambda: fn(ctx, 2, E, t))
        assert got == ("raised", OrderUndecidable) == _outcome(lambda: fn(ref, 2, E, t))


# E(+1)*2 against B*2 or A*2 has no decided order (B and A may lie inside
# (E, E(+1))), while E(+1)*2 < D*2 < A*2 and B*2 < D*2 are decided
_FOUND = {
    "atoms": [{"name": n, "level": v} for n, v in (("E", 2), ("B", 1), ("D", 2), ("A", 1))],
    "m_annotations": [
        ["w^(E@2)*2", "w^(E@2(+1))*2"],
        ["w^(E@2)*4", "w^(D@2)*2"],
        ["w^(E@2)*3", "w^(B@1)*2"],
    ],
}


def test_a_value_above_an_undecidable_pair_is_the_maximum(tmp_path, capsys):
    """On (E, E*4] the m-values E(+1)*2 and B*2 have no decided order, and
    sorting the values meets that pair, so there is no rank table; D*2 lies
    decidably above both, so eta is D*2, first reached at E*4."""
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(_FOUND))
    for verb, want in (("eta", "D@2*2"), ("ell", "E@2*4")):
        assert main(["--context", str(path), verb, "1", "E@2", "w^(E@2)*4"]) == 0
        assert capsys.readouterr().out == want + "\n"
    for cls in (ClassContext, ScanContext):
        ctx = cls.from_json(_FOUND)
        assert ctx.m_ranks() is None
        E = ctx.atom("E")
        t = tm.mul(tm.Leaf(E), tm.nat(4))
        assert eta_compute(ctx, 1, E, t) == tm.mul(tm.Leaf(ctx.atom("D")), tm.nat(2))
        assert l_compute(ctx, 1, E, t) == t


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_a_chain_of_decided_comparisons_places_an_undecidable_value(order):
    """m(E+1) = A*2, m(E*2) = E(+1)*2, m(E*3) = D*2, annotated in any
    order: E(+1)*2 < D*2 < A*2 are decided, E(+1)*2 against A*2 is not.
    Eta over (E, E*3] is A*2, first reached at E+1, whichever pairs the
    rank table's sort compares, and with no rank table at all."""
    for cls in (ClassContext, ScanContext):
        ctx = _spaced_context(cls)
        E, D, A = (ctx.atom(n) for n in "EDA")
        e = tm.Leaf(E)
        double = lambda x: tm.mul(tm.Leaf(x), tm.nat(2))  # noqa: E731
        pairs = [
            (tm.add(e, tm.one()), double(A)),
            (tm.mul(e, tm.nat(2)), double(tm.mk_succ(E, 1))),
            (tm.mul(e, tm.nat(3)), double(D)),
        ]
        _annotate(ctx, [pairs[i] for i in order])
        t = tm.mul(e, tm.nat(3))
        assert eta_compute(ctx, 1, E, t) == double(A)
        assert l_compute(ctx, 1, E, t) == tm.add(e, tm.one())


# ---------------------------------------------------------------------------
# answers do not depend on query history


_CANON = [(name, i, k) for name in "AB" for i in (1, 2, 3) for k in (1, 2, 3)]


def _canon_context(calls):
    ctx = ClassContext()
    for name in "AB":
        ctx.declare(name, 3)
    for name, i, k in calls:
        canonical_point(ctx, i, ctx.atom(name), k)
    return ctx


def _answers(ctx):
    """T-set, eta and ell at level 3 on every gamma_k(3, A) and gamma + 1."""
    A = ctx.atom("A")
    out = []
    for k in (1, 2, 3):
        gamma = tm.add(tm.omega_tower(tm.mk_canonical(1, tm.mk_canonical(2, A, k), k), k),
                       tm.omega_tower(tm.mk_canonical(1, tm.mk_canonical(2, A, k), k), k - 1))
        for t in (gamma, tm.add(gamma, tm.one())):
            out.append(_outcome(T_set, ctx, 3, A, t))
            out.append(_outcome(lambda: eta_compute(ctx, 3, A, t)))
            out.append(_outcome(lambda: l_compute(ctx, 3, A, t)))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_answers_do_not_depend_on_the_order_of_canon_calls(seed):
    calls = list(_CANON)
    random.Random(seed).shuffle(calls)
    assert _answers(_canon_context(calls)) == _answers(_canon_context(_CANON))


@pytest.mark.parametrize("cut", [3, 9, 17])
def test_a_query_between_canon_calls_changes_no_later_answer(cut):
    """The query builds the views and the rank table; the canon calls
    after it add m-keys and leaves and set m-values, which must drop
    them."""
    shared = _canon_context(_CANON[:cut])
    assert _answers(shared) == _answers(_canon_context(_CANON[:cut]))
    built = shared._views.get("ranks")
    for name, i, k in _CANON[cut:]:
        canonical_point(shared, i, shared.atom(name), k)
    assert built is not None and "ranks" not in shared._views
    assert _answers(shared) == _answers(_canon_context(_CANON))


@pytest.mark.parametrize("query_first", [False, True])
def test_an_earlier_query_does_not_let_an_undecidable_pair_pass(query_first):
    """B@1(+1) < D@2 < A@1 are decided, B@1(+1) against A@1 is not.  With
    m(x) = x*2 annotated on D, B(+1) and A in that order, sorting the keys
    compares B(+1) with A, so eta/ell on (A, A*3] fall back to the scan,
    which raises on that pair, whether or not a query after the first
    annotation sorted the keys then."""
    ctx = ClassContext()
    B, D, A = ctx.declare("B", 1), ctx.declare("D", 2), ctx.declare("A", 1)
    t = tm.mul(tm.Leaf(A), tm.nat(3))
    for x in (tm.Leaf(D), tm.Leaf(tm.mk_succ(B, 1)), tm.Leaf(A)):
        ctx.set_m(x, tm.mul(x, tm.nat(2)))
        if query_first and x == tm.Leaf(D):
            assert eta_compute(ctx, 1, A, t) == t
    for fn in (eta_compute, l_compute):
        with pytest.raises(OrderUndecidable):
            fn(ctx, 1, A, t)


@settings(max_examples=100, deadline=None)
@given(_history())
# A@1, B@2, C@1: m(B) = B*2, a query on (C, w^(C+1)], then m(A(+1)) =
# A(+1)*2 and m(C) = C*2.  A(+1) < B < C are decided, A(+1) against C is
# not; the query's sort of the keys must not let the later ones skip it
@example(([1, 2, 1], [
    ("set_m", [6, 6, 0, 0, 0, 0]),
    ("query", [2, 0, 16, 0, 0, 0]),
    ("register", [0, 0, 0, 0, 0, 0]),
    ("set_m", [37, 37, 0, 0, 0, 0]),
    ("set_m", [14, 14, 0, 0, 0, 0]),
    ("query", [2, 0, 18, 0, 0, 0]),
]))
def test_answers_do_not_depend_on_when_queries_ran(history):
    """The same writes with and without the queries between them, then the
    same queries on both contexts: the answers agree."""
    levels, steps = history
    queried, quiet = ClassContext(), ClassContext()
    _declare(queried, levels)
    _declare(quiet, levels)
    for step in steps:
        got = _step(queried, step)
        if step[0] != "query":
            assert got == _step(quiet, step)  # the same writes on both
    for step in steps:
        if step[0] == "query":
            assert _step(queried, step) == _step(quiet, step)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_history())
def test_a_context_file_answers_as_the_context_that_wrote_it(history):
    """A random history's context, written by to_json and read back: the
    same facts in the same order, and the same answers to its queries."""
    levels, steps = history
    ctx = ClassContext()
    _declare(ctx, levels)
    for step in steps:
        _step(ctx, step)
    back = ClassContext.from_json(json.loads(json.dumps(ctx.to_json())))
    assert list(back.known_leaves) == list(ctx.known_leaves)
    assert list(back.m_table.items()) == list(ctx.m_table.items())
    for step in steps:
        if step[0] == "query":
            assert _step(back, step) == _step(ctx, step)


def _t_set_outcome(fn, ctx, n, alpha, t):
    """The leaves, or the exception's type, message and trace."""
    try:
        return fn(ctx, n, alpha, t)
    except OrdinalError as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)


@settings(max_examples=100, deadline=None)
@given(_history())
def test_T_set_matches_the_reference_that_reruns_every_step(history):
    """On the contexts of random histories, at the queries' points and at
    every m-value and its successor over every leaf at every level."""
    levels, steps = history
    ctx = ClassContext()
    _declare(ctx, levels)
    queries = []
    for step in steps:
        _step(ctx, step)
        if step[0] == "query":
            leaves, r = list(ctx.known_leaves), step[1]
            alpha = _pick(leaves, r[0])
            queries.append((1 + r[1] % tm.leaf_level(alpha), alpha, _pick(_probe_terms(ctx), r[2])))
    for alpha in ctx.known_leaves:
        for n in range(2, tm.leaf_level(alpha) + 1):
            for m in dict.fromkeys(ctx.m_table.values()):
                queries += [(n, alpha, m), (n, alpha, tm.add(m, tm.one()))]
    for n, alpha, t in queries:
        got = _t_set_outcome(T_set, ctx, n, alpha, t)
        assert got == _t_set_outcome(reference_T_set, ctx, n, alpha, t)


# _history-style contexts, as context files, whose eta and l at one
# (k, alpha, t) answer or raise differently as their annotations are
# reordered.  A derandomized search over random histories found them; each
# was then cut down to the annotations it needs.
_ORDER_DEPENDENT = [
    ({"atoms": [{"name": "A", "level": 2}, {"name": "B", "level": 3}, {"name": "C", "level": 1}],
      "m_annotations": [
          ["C@1+1", "C@1+w^(w^(eps(1)+1))"],
          ["w^(w^(w^(A@2(+1)+1)))", "w^(w^(w^(A@2(+1)+1)))+w^(w^(A@2(+1)+1))"],
          ["w^(w^(B@3+1))", "w^(w^(B@3+1))+w^(B@3+1)"]]},
     (2, "A@2", "w^(A@2(+1)+1)")),
    ({"atoms": [{"name": "A", "level": 2}, {"name": "B", "level": 2}, {"name": "C", "level": 1}],
      "m_annotations": [
          ["w^(w^(B@2+1))", "w^(C@1+1)"],
          ["w^(C@1+1)", "w^(C@1+1)+C@1"],
          ["cp(2,3,A@2)", "w^(w^(w^(cp(2,3,A@2)+1)))+w^(w^(cp(2,3,A@2)+1))"]]},
     (2, "A@2", "cp(2,3,A@2)")),
    ({"atoms": [{"name": "A", "level": 3}, {"name": "B", "level": 3}, {"name": "C", "level": 2}],
      "m_annotations": [
          ["w^(w^(C@2+1))", "w^(w^(C@2+1))+w^(w^(A@3+1))+w^(A@3+1)"],
          ["cp(2,3,B@3)", "w^(w^(w^(cp(2,3,B@3)+1)))+w^(w^(cp(2,3,B@3)+1))"],
          ["cp(3,1,A@3)(+1)", "cp(3,1,A@3)(+1)*2"]]},
     (3, "A@3", "cp(3,1,A@3)(+1)")),
    ({"atoms": [{"name": "A", "level": 3}, {"name": "B", "level": 2}, {"name": "C", "level": 1}],
      "m_annotations": [
          ["w^(w^(B@2+1))+w^(B@2+1)", "C@1"],
          ["w^(w^(w^(C@1+1)))", "w^(w^(w^(C@1+1)))+w^(w^(C@1+1))"],
          ["w^(w^(w^(A@3(+1)+1)))", "w^(w^(w^(A@3(+1)+1)))+w^(w^(A@3(+1)+1))"]]},
     (2, "A@3", "w^(A@3(+1)+1)")),
]


def _outcomes_by_order(data, query):
    """eta and l at the query, with data's annotations in every order."""
    k, alpha, t = query
    annotations = data["m_annotations"]
    outcomes = {}
    for order in itertools.permutations(range(len(annotations))):
        ctx = ClassContext.from_json(dict(data, m_annotations=[annotations[i] for i in order]))
        a, u = parse_ord(alpha, ctx.atoms).leaf, parse_ord(t, ctx.atoms)
        outcomes[order] = (_outcome(eta_compute, ctx, k, a, u), _outcome(l_compute, ctx, k, a, u))
    return outcomes


@pytest.mark.xfail(
    strict=True,
    reason="the order of the annotations decides which pairs the sorted m-keys "
    "compare; a sort that meets an undecidable pair drops the view, and the "
    "scan then raises where the view answered (ROADMAP item 6)",
)
def test_structural_answers_do_not_depend_on_the_order_of_the_annotations():
    """B@1, D@2 and A@1 with m(x) = x*2 on D@2, B@1(+1) and A@1: eta and l
    at A@1*3 answer the same, or raise the same error, in all six orders.
    So do eta and l on each context of _ORDER_DEPENDENT."""
    outcomes = {}
    for order in itertools.permutations(range(3)):
        ctx = ClassContext()
        b, d, a = ctx.declare("B", 1), ctx.declare("D", 2), ctx.declare("A", 1)
        facts = [tm.Leaf(d), tm.Leaf(tm.mk_succ(b, 1)), tm.Leaf(a)]
        for i in order:
            ctx.set_m(facts[i], tm.mul(facts[i], tm.nat(2)))
        t = tm.mul(tm.Leaf(a), tm.nat(3))
        outcomes[order] = (_outcome(eta_compute, ctx, 1, a, t), _outcome(l_compute, ctx, 1, a, t))
    differ = [outcomes] if len(set(outcomes.values())) > 1 else []
    for data, query in _ORDER_DEPENDENT:
        by_order = _outcomes_by_order(data, query)
        if len(set(by_order.values())) > 1:
            differ.append(by_order)
    assert not differ, differ
