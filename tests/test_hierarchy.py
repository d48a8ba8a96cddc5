import pytest

from conftest import EPS
from ordclass import terms as tm
from ordclass.context import ClassContext, chain_bound
from ordclass.errors import RegimeMixed, Undecidable
from ordclass.grammar import parse_ord, render_ord
from ordclass.hierarchy import (
    A_degenerate,
    A_successor_step,
    G_membership,
    G_sample,
    HierarchySet,
    M_transport,
    S_interval,
    S_interval_via_domain,
    leq1_query,
)
from ordclass.skeleton import canonical_point, eta_compute

e = parse_ord


def grid_eps(rel):
    return [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]


def test_leq1_query_grid(anchor_rel):
    ok, why = leq1_query(EPS[0], e("eps(0)*2"), rel=anchor_rel)
    assert ok and why == "grid"
    ok, why = leq1_query(EPS[0], e("eps(0)*2+1"), rel=anchor_rel)
    assert not ok
    # off-grid values resolve against the frontier
    ok, _ = leq1_query(EPS[0], e("eps(0)+w*7"), rel=anchor_rel)
    assert ok


def test_leq1_query_symbolic_level_rule():
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    ok, why = leq1_query(A, chain_bound(A, 3), ctx=ctx)
    assert ok and why == "level-rule"
    with pytest.raises(Undecidable):
        leq1_query(A, tm.add(chain_bound(A, 3), tm.one()), ctx=ctx)
    ctx.set_m(tm.Leaf(A), tm.add(chain_bound(A, 3), tm.nat(5)))
    ok, why = leq1_query(A, tm.add(chain_bound(A, 3), tm.one()), ctx=ctx)
    assert ok and why == "annotation"


def test_G_beta_alpha_symbolic_all_admissible_t():
    # an atom of level n satisfies G-membership at itself for admissible t,
    # which for n = 2 ranges over the (+^1)-window of the atom
    ctx = ClassContext()
    A = ctx.declare("A", 2)
    data = canonical_point(ctx, 1, A, 2)
    for t in (tm.Leaf(A), chain_bound(A, 1), data.gamma):
        ok, _ = G_membership(2, A, t, A, ctx=ctx)
        assert ok


def test_G_fails_T_containment(anchor_rel):
    # t carries eps(1) in its support, so beta = eps(0) < eps(1) cannot receive it
    t = e("eps(1)+eps(0)")
    ok, why = G_membership(2, e("eps(2)").leaf, t, EPS[0], rel=anchor_rel)
    assert not ok and why == "T-set not contained in beta"


def test_G_degenerate_interval_matches_lim_rule(anchor_rel):
    rel = anchor_rel
    alpha = e("eps(1)").leaf
    universe = grid_eps(rel)
    for t in (tm.Leaf(alpha), e("eps(1)+1"), e("eps(1)*2")):
        sample = G_sample(2, alpha, t, universe, rel=rel)
        degenerate = A_degenerate(2, alpha, t, universe, rel=rel)
        assert sample.members == degenerate.members == ()
    # the set is empty, but T below alpha is still decided: grids decide
    # level 1 only
    with pytest.raises(Undecidable):
        A_degenerate(3, alpha, tm.Leaf(alpha), universe, rel=rel)


def test_A_step_below_eta_keeps_members(anchor_rel):
    alpha = e("eps(1)").leaf
    prev = HierarchySet("A-successor-trace", 2, alpha, tm.Leaf(alpha), (EPS[0],))
    step = A_successor_step(2, alpha, tm.Leaf(alpha), prev, rel=anchor_rel)
    assert step.members == prev.members  # l < eta on the degenerate stretch


def test_A_step_at_eta_takes_sample_lim(anchor_rel):
    alpha = e("eps(1)").leaf
    l = e("eps(1)*2+1")
    eta = eta_compute(1, alpha, l, rel=anchor_rel)
    assert tm.eq(eta, l)
    prev = HierarchySet("A-successor-trace", 2, alpha, l, (EPS[0],))
    step = A_successor_step(2, alpha, l, prev, rel=anchor_rel)
    assert step.members == ()
    assert step.sample_relative


def test_G_equals_A_trace_on_grid(anchor_rel):
    rel = anchor_rel
    universe = grid_eps(rel)
    instances = 0
    eta_fixed = 0
    for alpha_t in ("eps(0)", "eps(1)", "eps(2)"):
        alpha = e(alpha_t).leaf
        window = [
            p
            for p in rel.grid.points
            if tm.le(tm.Leaf(alpha), p) and tm.lt(p, tm.Leaf(tm.mk_succ(alpha, 1)))
        ]
        prev = G_sample(2, alpha, window[0], universe, rel=rel)
        for l, t_next in zip(window, window[1:]):
            if not tm.eq(tm.add(l, tm.one()), t_next):
                prev = G_sample(2, alpha, t_next, universe, rel=rel)
                continue
            step = A_successor_step(2, alpha, l, prev, rel=rel)
            gside = G_sample(2, alpha, t_next, universe, rel=rel)
            assert step.members == gside.members
            instances += len(universe)
            if tm.eq(eta_compute(1, alpha, l, rel=rel), l):
                eta_fixed += 1
            prev = gside
    assert instances >= 100
    assert eta_fixed >= 10


def test_S_interval_remark_agreement(anchor_rel):
    rel = anchor_rel
    ctx = ClassContext()
    alpha, r = EPS[0], EPS[0]
    t = e("eps(0)*2+w")
    a = S_interval(1, alpha, r, t, rel.grid.points, rel=rel)
    b = S_interval_via_domain(1, alpha, r, t, rel.grid.points, ctx=ctx, rel=rel)
    assert a == b
    from ordclass.skeleton import l_compute

    ell = l_compute(1, alpha, t, rel=rel)
    assert tm.le(ell, t)
    assert all(tm.lt(q, ell) for q in a)
    # r above the whole T-range admits the full interval sample
    wide = S_interval(1, alpha, e("eps(2)").leaf, t, rel.grid.points, rel=rel)
    expected = tuple(
        q
        for q in rel.grid.points
        if tm.lt(tm.Leaf(alpha), q) and tm.lt(q, ell)
    )
    assert wide == expected


def test_M_transport_grid(anchor_rel):
    rel = anchor_rel
    ctx = ClassContext()
    tr = M_transport(2, EPS[0], e("eps(1)").leaf, ctx=ctx)
    assert tm.eq(tr.R_of(tm.Leaf(EPS[0])), tm.Leaf(e("eps(1)").leaf))
    window = [
        p
        for p in rel.grid.points
        if tm.le(tm.Leaf(EPS[0]), p)
        and tm.lt(p, e("eps(1)"))
        and all(tr.forward.contains(x) for x in tm.ep_set(p))
    ]
    assert window
    images = [tr.R_of(t) for t in window]
    for t, s in zip(window, images):
        assert tm.eq(tr.H_of(s), t)
    for (t1, s1) in zip(window, images):
        for (t2, s2) in zip(window, images):
            assert tm.compare(t1, t2) == tm.compare(s1, s2)
    m_set = tr.M_set(rel.grid.points, rel=rel)
    assert set(map(render_ord, images)) == set(map(render_ord, m_set))


def test_hierarchy_calls_need_a_context_or_a_relation(anchor_rel):
    alpha, t = EPS[0], e("eps(0)*2+1")
    points = anchor_rel.grid.points
    tr = M_transport(2, EPS[0], e("eps(1)").leaf)
    with pytest.raises(RegimeMixed):
        tr.M_set(points)
    with pytest.raises(RegimeMixed):
        G_membership(2, alpha, t, alpha)
    with pytest.raises(RegimeMixed):
        A_degenerate(2, alpha, tm.Leaf(alpha), ())
    with pytest.raises(RegimeMixed):
        S_interval(1, alpha, alpha, t, points)
    # given both, M_set reads the grid: T below kappa is the level-1 Ep-set
    assert tr.M_set(points, ctx=ClassContext(), rel=anchor_rel) == tr.M_set(points, rel=anchor_rel)


def test_M_transport_symbolic():
    ctx = ClassContext()
    r = ctx.declare("R", 2)
    kappa = ctx.declare("K", 2)
    tr = M_transport(3, r, kappa, ctx=ctx)
    pts = [tm.Leaf(r), chain_bound(r, 2), tm.Leaf(tm.mk_succ(r, 1))]
    for t in pts:
        assert tm.eq(tr.H_of(tr.R_of(t)), t)
    assert tm.eq(tr.R_of(tm.Leaf(r)), tm.Leaf(kappa))
