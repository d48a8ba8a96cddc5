import inspect

import pytest
from hypothesis import Phase, example, given, reject, settings, strategies as st

from conftest import EPS
from ordclass import terms as tm
from ordclass.context import ClassContext, chain_bound, lambda_locate
from ordclass.errors import GridCapExceeded, LevelViolation, Undecidable
from ordclass.grammar import parse_ord, render_ord
from ordclass.hierarchy import (
    A_degenerate,
    A_successor_step,
    G_sample,
    G_set,
    M_transport,
    S_interval,
    S_interval_via_domain,
    Transport,
    _t_below,
    leq1_query,
)
from ordclass.oracle import ANCHOR_OPS, GridOps, build_grid, leq1_fixpoint
from ordclass.skeleton import canonical_point, eta_compute, g_map, l_compute

e = parse_ord


def grid_eps(rel):
    return [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]


def test_leq1_query_grid(anchor_rel):
    ok, why = leq1_query(anchor_rel, EPS[0], e("eps(0)*2"))
    assert ok and why == "grid"
    ok, why = leq1_query(anchor_rel, EPS[0], e("eps(0)*2+1"))
    assert not ok
    # off-grid values resolve against the frontier
    ok, _ = leq1_query(anchor_rel, EPS[0], e("eps(0)+w*7"))
    assert ok
    # a value at most beta holds whatever the grid says
    ok, why = leq1_query(anchor_rel, EPS[1], e("eps(0)*2"))
    assert ok and why == "reflexive"
    with pytest.raises(Undecidable, match="outside the grid"):
        leq1_query(anchor_rel, EPS[5], e("eps(5)*2"))


def test_leq1_query_symbolic_level_rule():
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    ok, why = leq1_query(ctx, A, chain_bound(A, 3))
    assert ok and why == "level-rule"
    with pytest.raises(Undecidable):
        leq1_query(ctx, A, tm.add(chain_bound(A, 3), tm.one()))
    ctx.set_m(tm.Leaf(A), tm.add(chain_bound(A, 3), tm.nat(5)))
    ok, why = leq1_query(ctx, A, tm.add(chain_bound(A, 3), tm.one()))
    assert ok and why == "annotation"


def test_G_beta_alpha_symbolic_all_admissible_t():
    # an atom of level n satisfies G-membership at itself for admissible t,
    # which for n = 2 ranges over the (+^1)-window of the atom
    ctx = ClassContext()
    A = ctx.declare("A", 2)
    data = canonical_point(ctx, 1, A, 2)
    for t in (tm.Leaf(A), chain_bound(A, 1), data.gamma):
        [(_, ok, _)] = G_set(ctx, 2, A, t, [A])
        assert ok


def test_G_fails_T_containment(anchor_rel):
    # t carries eps(1) in its support, so beta = eps(0) < eps(1) cannot receive it
    t = e("eps(1)+eps(0)")
    [(_, ok, why)] = G_set(anchor_rel, 2, e("eps(2)").leaf, t, [EPS[0]])
    assert not ok and why == "T-set not contained in beta"


def test_G_degenerate_interval_matches_lim_rule(anchor_rel):
    rel = anchor_rel
    alpha = e("eps(1)").leaf
    universe = grid_eps(rel)
    for t in (tm.Leaf(alpha), e("eps(1)+1"), e("eps(1)*2")):
        sample = G_sample(rel, 2, alpha, t, universe)
        degenerate = A_degenerate(rel, 2, alpha, t)
        assert sample == degenerate == ()
    # the set is empty, but T below alpha is still decided: grids decide
    # level 1 only
    with pytest.raises(Undecidable):
        A_degenerate(rel, 3, alpha, tm.Leaf(alpha))


def test_A_step_below_eta_keeps_members(anchor_rel):
    alpha = e("eps(1)").leaf
    prev = (EPS[0],)
    step = A_successor_step(anchor_rel, 2, alpha, tm.Leaf(alpha), prev)
    assert step == prev  # l < eta on the degenerate stretch


def test_A_step_at_eta_takes_sample_lim(anchor_rel):
    alpha = e("eps(1)").leaf
    l = e("eps(1)*2+1")
    eta = eta_compute(anchor_rel, 1, alpha, l)
    assert tm.eq(eta, l)
    prev = (EPS[0],)
    step = A_successor_step(anchor_rel, 2, alpha, l, prev)
    assert step == ()


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
        prev = G_sample(rel, 2, alpha, window[0], universe)
        for l, t_next in zip(window, window[1:]):
            if not tm.eq(tm.add(l, tm.one()), t_next):
                prev = G_sample(rel, 2, alpha, t_next, universe)
                continue
            step = A_successor_step(rel, 2, alpha, l, prev)
            gside = G_sample(rel, 2, alpha, t_next, universe)
            assert step == gside
            instances += len(universe)
            if tm.eq(eta_compute(rel, 1, alpha, l), l):
                eta_fixed += 1
            prev = gside
    assert instances >= 100
    assert eta_fixed >= 10


def test_S_interval_remark_agreement(anchor_rel):
    rel = anchor_rel
    alpha, r = EPS[0], EPS[0]
    t = e("eps(0)*2+w")
    a = S_interval(rel, 1, alpha, r, t, rel.grid.points)
    b = S_interval_via_domain(rel, 1, alpha, r, t, rel.grid.points)
    assert a == b
    ell = l_compute(rel, 1, alpha, t)
    assert tm.le(ell, t)
    assert all(tm.lt(q, ell) for q in a)
    # r above the whole T-range admits the full interval sample
    wide = S_interval(rel, 1, alpha, e("eps(2)").leaf, t, rel.grid.points)
    expected = tuple(
        q
        for q in rel.grid.points
        if tm.lt(tm.Leaf(alpha), q) and tm.lt(q, ell)
    )
    assert wide == expected


def test_M_transport_grid(anchor_rel):
    rel = anchor_rel
    tr = M_transport(2, EPS[0], e("eps(1)").leaf)
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
    m_set = tr.M_set(rel, rel.grid.points)
    assert set(map(render_ord, images)) == set(map(render_ord, m_set))


SOURCE_CALLS = (
    eta_compute,
    l_compute,
    canonical_point,
    _t_below,
    leq1_query,
    G_set,
    G_sample,
    A_successor_step,
    A_degenerate,
    S_interval,
    S_interval_via_domain,
    Transport.M_set,
)


def test_skeleton_and_hierarchy_calls_take_one_source():
    # one required `source`, a grid relation or a context: no call can be
    # given neither or both
    for fn in SOURCE_CALLS:
        params = inspect.signature(fn).parameters
        assert "ctx" not in params and "rel" not in params, fn.__name__
        source = params["source"]
        assert source.kind is source.POSITIONAL_OR_KEYWORD, fn.__name__
        assert source.default is source.empty, fn.__name__
    # these read no m, and take no source
    for fn in (g_map, lambda_locate, M_transport):
        params = inspect.signature(fn).parameters
        assert not {"source", "ctx", "rel"} & set(params), fn.__name__


def test_M_transport_symbolic():
    ctx = ClassContext()
    r = ctx.declare("R", 2)
    kappa = ctx.declare("K", 2)
    tr = M_transport(3, r, kappa)
    pts = [tm.Leaf(r), chain_bound(r, 2), tm.Leaf(tm.mk_succ(r, 1))]
    for t in pts:
        assert tm.eq(tr.H_of(tr.R_of(t)), t)
    assert tm.eq(tr.R_of(tm.Leaf(r)), tm.Leaf(kappa))


# ---------------------------------------------------------------------------
# grid G-sets where the grid holds beta*2: grid eta(1, alpha, t) is at least
# the chain bound alpha*2, so eta[g] + 1 lies above beta*2, which bounds
# m-hat(beta) when beta*2 is a grid point, and leq1_query says no

DRAWN_BOUNDS = [
    "eps(1)", "eps(2)", "eps(3)", "eps(0)*3", "eps(1)*3", "eps(2)*3", "w^w", "w^(eps(0)+1)"
]
drawn_seeds = st.lists(
    st.sampled_from(["eps(0)", "eps(1)", "eps(2)", "eps(0)+1", "w*2", "eps(0)*2+w"]),
    min_size=1,
    max_size=3,
    unique=True,
)
CAPS = st.one_of(st.none(), st.integers(1, 3))
double_ops = st.builds(
    GridOps,
    add=st.booleans(),
    double=st.just(True),
    succ=st.booleans(),
    tower_height=st.integers(0, 3),
    coeff_cap=CAPS,
    tail_cap=CAPS,
    max_monomials=CAPS,
)

# coeff_cap 1 rejects eps(0)*2: on eps(1) with seed eps(0) the grid is 0, 1,
# w, eps(0), w^(eps(0)+1), and m-hat(eps(0)) = w^(eps(0)+1) puts eps(0) in
# G(eps(0)) at alpha = t = eps(0)
CAPPED_DOUBLE = GridOps(
    add=False, succ=False, tower_height=1, coeff_cap=1, tail_cap=1, max_monomials=1
)


def drawn_rel(ops, bound, seeds):
    try:
        return leq1_fixpoint(build_grid(e(bound), [e(s) for s in seeds], ops, cap=40))
    except GridCapExceeded:
        reject()


def grid_members(rel):
    """(alpha, t, beta) for every row of G_set(rel, 2, alpha, t, epsilons)
    that the grid decides as a member, over every epsilon alpha and every
    point t; a call that raises LevelViolation has no rows."""
    epsilons = grid_eps(rel)
    found = []
    for alpha in epsilons:
        for t in rel.grid.points:
            try:
                rows = G_set(rel, 2, alpha, t, epsilons)
            except LevelViolation:
                continue
            found += [(alpha, t, beta) for beta, member, why in rows if member and why == "grid"]
    return found


def test_grid_G_sets_are_empty_on_the_anchor_grid(anchor_rel):
    assert grid_members(anchor_rel) == []


@given(st.sampled_from(DRAWN_BOUNDS), drawn_seeds)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_grid_G_sets_are_empty_on_preset_grids(bound, seeds):
    assert grid_members(drawn_rel(ANCHOR_OPS, bound, seeds)) == []


@pytest.mark.xfail(
    strict=True,
    reason="double=True does not put beta*2 in the grid when a cap rejects it: "
    "then m-hat(beta) lies above beta*2 and the grid decides beta a member",
)
@given(double_ops, st.sampled_from(DRAWN_BOUNDS), drawn_seeds)
@example(CAPPED_DOUBLE, "eps(1)", ["eps(0)"])
@settings(max_examples=20, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
def test_grid_G_sets_are_empty_on_double_grids(ops, bound, seeds):
    assert grid_members(drawn_rel(ops, bound, seeds)) == []


@given(double_ops, st.sampled_from(DRAWN_BOUNDS), drawn_seeds)
@example(CAPPED_DOUBLE, "eps(1)", ["eps(0)"])
@settings(max_examples=20, deadline=None, derandomize=True)
def test_grid_G_set_members_lie_where_beta_doubled_is_off_the_grid(ops, bound, seeds):
    rel = drawn_rel(ops, bound, seeds)
    for _, _, beta in grid_members(rel):
        assert tm.mul(tm.Leaf(beta), tm.nat(2)) not in rel.grid
