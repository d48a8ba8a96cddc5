"""The context's sorted indexes against the linear scans they replace.

`ScanContext` never lets an index answer, so every query on it runs the
scan that tests each m-annotation and known leaf.  Wherever that scan
returns, the indexed context must return the same answer.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EPS
from ordclass import terms as tm
from ordclass.context import ClassContext, chain_down
from ordclass.errors import OrderUndecidable, OrdinalError
from ordclass.skeleton import (
    T_set,
    _scan_candidates,
    _structural_candidates,
    canonical_point,
    eta_compute,
    l_compute,
)


class ScanContext(ClassContext):
    """A context whose indexes never answer: the linear-scan reference."""

    def m_keys_in(self, lo, hi):
        return None

    def leaf_terms_in(self, lo, hi, hi_closed=True):
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
        _outcome(_structural_candidates, ctx, k, alpha, t),
        _outcome(lambda: eta_compute(k, alpha, t, ctx=ctx)),
        _outcome(lambda: l_compute(k, alpha, t, ctx=ctx)),
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
                assert ctx.m_keys_in(tm.Leaf(A), t) is not None
                assert ctx.leaf_terms_in(tm.Leaf(A), t) is not None
                assert _structural_candidates(ctx, 3, A, t) == _scan_candidates(ctx, 3, A, t)
                for fn in (eta_compute, l_compute):
                    assert fn(3, A, t, ctx=ctx) == fn(3, A, t, ctx=ref)
                assert T_set(ctx, 3, A, t) == T_set(ref, 3, A, t)
    lo, hi = tm.Leaf(EPS[0]), tm.Leaf(ctx.atom("B"))
    assert ctx.leaves_between(lo, hi) == ctx.scan_leaves_between(lo, hi)


def test_index_is_built_lazily_then_kept_sorted():
    ctx = _level3_context(ClassContext)
    assert ctx._m_index.terms is None and ctx._leaf_index.terms is None
    A = ctx.atom("A")
    ctx.m_keys_in(tm.Leaf(A), tm.Leaf(ctx.atom("B")))
    ctx.leaf_terms_in(tm.Leaf(A), tm.Leaf(ctx.atom("B")))
    canonical_point(ctx, 3, A, 4)  # inserted into the built indexes
    for index, terms in ((ctx._m_index, list(ctx.m_table)), (ctx._leaf_index, _leaf_terms(ctx))):
        assert len(index.terms) == len(terms)
        assert all(tm.compare(a, b) is tm.LT for a, b in zip(index.terms, index.terms[1:]))


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
        assert ctx.leaf_terms_in(lo, hi) is not None  # built, then extended
    ctx.register(tm.mk_succ(A, 1))
    assert ctx.leaf_terms_in(lo, hi) is None
    assert ctx.leaves_between(lo, hi) == (EPS[1],) == ctx.scan_leaves_between(lo, hi)
    # the scan still answers where it can order every leaf against the ends
    t = tm.mul(tm.Leaf(EPS[0]), tm.nat(3))
    assert eta_compute(1, EPS[0], t, ctx=ctx) == t
    # ...and fails where it must compare the two undecidable leaves
    with pytest.raises(OrderUndecidable):
        ctx.leaves_between(tm.Leaf(B), tm.mul(tm.Leaf(B), tm.nat(2)))


def test_undecidable_m_keys_drop_their_index():
    ctx, A, B = _undecidable_pair_context()
    ctx.set_m(tm.Leaf(B), tm.mul(tm.Leaf(B), tm.nat(2)))
    assert ctx.m_keys_in(tm.Leaf(EPS[0]), tm.Leaf(EPS[1])) is not None
    succ = tm.Leaf(tm.mk_succ(A, 1))
    ctx.set_m(succ, tm.mul(succ, tm.nat(2)))
    assert ctx.m_keys_in(tm.Leaf(EPS[0]), tm.Leaf(EPS[1])) is None
    assert ctx.m_table[succ] == tm.mul(succ, tm.nat(2))


def test_index_answers_where_the_scan_cannot():
    # B@1(+1) < D@2 < A@1 are decided, B@1(+1) against A@1 is not; an
    # annotation on B@1(+1) stops the scan of (A, A*3], not the bisection
    ctx = ClassContext()
    B = ctx.declare("B", 1)
    D = ctx.declare("D", 2)
    A = ctx.declare("A", 1)
    x = tm.Leaf(tm.mk_succ(B, 1))
    with pytest.raises(OrderUndecidable):
        tm.compare(x, tm.Leaf(A))
    ctx.set_m(x, tm.mul(x, tm.nat(2)))
    ctx.set_m(tm.Leaf(D), tm.mul(tm.Leaf(D), tm.nat(2)))
    t = tm.mul(tm.Leaf(A), tm.nat(3))
    with pytest.raises(OrderUndecidable):
        _scan_candidates(ctx, 1, A, t)
    assert _structural_candidates(ctx, 1, A, t) == {t: t}
    assert eta_compute(1, A, t, ctx=ctx) == t
