import pytest

from conftest import EPS, random_term, seeded
from ordclass import terms as tm
from ordclass.context import ClassContext, chain_down
from ordclass.errors import LeafOutsideDomain, LevelViolation, MissingMValue, RegimeMixed
from ordclass.grammar import parse_ord, render_ord
from ordclass.skeleton import (
    T_set,
    canonical_point,
    eta_compute,
    f_and_S,
    g_map,
    l_compute,
)
from ordclass.subst import apply_subst, compare_maps, compose_maps, invert_map, MapOrder

e = parse_ord


@pytest.fixture()
def ctx3():
    ctx = ClassContext()
    ctx.declare("A", 3)
    ctx.declare("B", 3)
    return ctx


def test_eta_degenerate_cases(ctx3):
    assert tm.eq(
        eta_compute(ClassContext(), 1, EPS[0], e("eps(0)*2")), e("eps(0)*2")
    )
    A = ctx3.atom("A")
    chain = chain_down(ctx3, A)
    t = tm.Leaf(chain[2])
    expected = tm.mul(tm.Leaf(chain[2]), tm.nat(2))
    assert tm.eq(eta_compute(ctx3, 3, A, t), expected)


def test_eta_preconditions(ctx3):
    with pytest.raises(LevelViolation):
        eta_compute(ctx3, 2, EPS[0], e("eps(0)"))
    with pytest.raises(LevelViolation):
        eta_compute(ctx3, 1, EPS[0], e("eps(1)*2"))


def test_eta_structural_needs_m(ctx3):
    with pytest.raises(MissingMValue):
        eta_compute(ClassContext(), 1, EPS[0], tm.omega_tower(EPS[0], 2))


def test_l_cases():
    ctx = ClassContext()
    assert tm.eq(l_compute(ctx, 1, EPS[0], e("eps(0)+5")), e("eps(0)*2"))


def test_eta_l_oracle(eps0_rel):
    rel = eps0_rel
    t = tm.omega_tower(EPS[0], 2)
    eta = eta_compute(rel, 1, EPS[0], t)
    assert tm.eq(eta, rel.m_hat(t))
    # eta is its own eta
    assert tm.eq(eta_compute(rel, 1, EPS[0], eta), eta)
    ell = l_compute(rel, 1, EPS[0], t)
    assert tm.eq(rel.m_hat(ell), eta)


def test_a_call_reads_m_from_its_one_source(eps0_rel):
    rel = eps0_rel
    t = tm.omega_tower(EPS[0], 2)
    for fn in (eta_compute, l_compute):
        # the grid answers where the context has no m-value
        with pytest.raises(MissingMValue):
            fn(ClassContext(), 1, EPS[0], t)
        assert fn(rel, 1, EPS[0], t) in rel.grid
    data = canonical_point(rel, 1, EPS[0], 2)
    assert tm.eq(data.gamma, rel.m_hat(data.x))
    ctx = ClassContext()
    with pytest.raises(RegimeMixed):
        canonical_point(rel, 2, ctx.declare("A", 2), 2)  # grids carry level 1 only


def test_canonical_tower_case():
    ctx = ClassContext()
    data = canonical_point(ctx, 1, EPS[0], 2)
    assert tm.eq(data.x, tm.omega_tower(EPS[0], 2))
    assert data.o_chain == (EPS[0],)
    assert tm.eq(ctx.m_of(data.x), data.gamma)
    # gamma values strictly increase with k
    prev = None
    for k in range(1, 5):
        g = canonical_point(ctx, 1, EPS[0], k).gamma
        if prev is not None:
            assert tm.lt(prev, g)
        prev = g


def test_canonical_gamma_is_eta_fixed(ctx3):
    A = ctx3.atom("A")
    data = canonical_point(ctx3, 2, A, 2)
    assert tm.eq(eta_compute(ctx3, 2, A, data.gamma), data.gamma)


def test_canonical_chain_structure(ctx3):
    A = ctx3.atom("A")
    data = canonical_point(ctx3, 3, A, 1)
    o1, o2, o3 = data.o_chain
    assert o3 == A
    assert tm.leaf_level(o1) == 1 and tm.leaf_level(o2) == 2
    assert tm.eq(data.x, tm.Leaf(o2))
    # item 5 m-equalities: every chain point below e reaches gamma
    assert tm.eq(ctx3.m_of(tm.Leaf(o1)), data.gamma)
    assert tm.eq(ctx3.m_of(tm.Leaf(o2)), data.gamma)
    # strictly increasing in k, and x-points too
    d2 = canonical_point(ctx3, 3, A, 2)
    assert tm.lt(data.gamma, d2.gamma)
    assert tm.lt(data.x, d2.x)


def _two_tower_canonical_point(ctx, i, e, k):
    """(x, gamma, o_chain) of canonical_point on a context, with gamma built
    as the sum of two separately built towers: the reference."""
    chain = [e]
    cur = e
    for j in range(i, 1, -1):
        cur = tm.mk_canonical(j - 1, cur, k)
        ctx.register(cur)
        chain.append(cur)
    o1 = chain[-1]
    gamma = tm.add(tm.omega_tower(o1, k), tm.omega_tower(o1, k - 1))
    ctx.set_m(tm.omega_tower(o1, k), gamma)
    for leaf in chain[1:]:
        ctx.set_m(tm.Leaf(leaf), gamma)
    x = tm.omega_tower(e, k) if i == 1 else tm.Leaf(chain[1])
    return x, gamma, tuple(reversed(chain))


def test_canonical_point_matches_the_two_tower_formula():
    ctx, ref = ClassContext(), ClassContext()
    for c in (ctx, ref):
        c.declare("A", 3)
        c.declare("B", 3)
    for name in "AB":
        for i in (1, 2, 3):
            for k in range(1, 19):
                data = canonical_point(ctx, i, ctx.atom(name), k)
                want = _two_tower_canonical_point(ref, i, ref.atom(name), k)
                assert (data.x, data.gamma, data.o_chain) == want
    assert [(render_ord(r), render_ord(m)) for r, m in ctx.m_table.items()] == [
        (render_ord(r), render_ord(m)) for r, m in ref.m_table.items()
    ]
    assert list(ctx.known_leaves) == list(ref.known_leaves)


def test_gamma_shares_the_head_of_its_tower(ctx3):
    """gamma = w_k(o_1) + w_{k-1}(o_1) is built from the tower x = w_k(o_1)
    it annotates, so set_m compares gamma with x by identity."""
    A = ctx3.atom("A")
    data = canonical_point(ctx3, 1, A, 4)
    assert data.gamma.monomials[0][0] is data.x.monomials[0][0]
    data = canonical_point(ctx3, 3, A, 4)
    tower = tm.omega_tower(data.o_chain[0], 4)
    x = next(r for r in ctx3.m_table if r == tower)
    assert ctx3.m_table[x] is data.gamma
    assert data.gamma.monomials[0][0] is x.monomials[0][0]


def test_T_set_level1_is_ep_set():
    ctx = ClassContext()
    t = e("eps(0)*2+w")
    assert T_set(ctx, 1, EPS[0], t) == tm.ep_set(t)


def test_T_set_successor_invariant(ctx3):
    A = ctx3.atom("A")
    data = canonical_point(ctx3, 3, A, 1)
    ts = T_set(ctx3, 3, A, data.gamma)
    ts2 = T_set(ctx3, 3, A, tm.add(data.gamma, tm.one()))
    assert ts == ts2


def test_T_set_is_o_chain(ctx3):
    for name, i in (("A", 2), ("B", 3)):
        base = ctx3.atom(name)
        for k in (1, 2):
            data = canonical_point(ctx3, i, base, k)
            ts = T_set(ctx3, i, base, data.gamma)
            assert ts == data.o_chain
            # T-set contains Ep(t) and is finite and decreasing
            for leaf in tm.ep_set(data.gamma):
                assert leaf in ts


@pytest.mark.parametrize("k", [1, 2, 5])
def test_T_set_runs_each_step_of_the_O_recursion_once(monkeypatch, ctx3, k):
    """The O-recursion's second round revisits the chain's delta, and its
    step is kept from the first: one f_and_S call per distinct argument."""
    import ordclass.skeleton as sk

    A = ctx3.atom("A")
    data = canonical_point(ctx3, 3, A, k)
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return f_and_S(*args)

    monkeypatch.setattr(sk, "f_and_S", counted)
    assert T_set(ctx3, 3, A, data.gamma) == data.o_chain
    assert len(calls) == len(set(calls)) == 2


def test_T_monotone_laws(ctx3):
    A = ctx3.atom("A")
    data = canonical_point(ctx3, 3, A, 2)
    t = data.gamma
    a = tm.Leaf(A)
    eta = eta_compute(ctx3, 3, A, t)
    ell = l_compute(ctx3, 3, A, t)
    T_t = {x for x in T_set(ctx3, 3, A, t) if tm.compare_leaves(x, A) is tm.LT}
    T_eta = {x for x in T_set(ctx3, 3, A, eta) if tm.compare_leaves(x, A) is tm.LT}
    assert T_eta <= T_t
    T_l = set(T_set(ctx3, 3, A, ell))
    assert T_l <= set(T_set(ctx3, 3, A, t))


def test_f_and_S():
    ctx = ClassContext()
    assert f_and_S(ctx, 1, EPS[0], EPS[1]) == ((), ())
    A = ctx.declare("A", 3)
    data = canonical_point(ctx, 3, A, 1)
    o1, o2, o3 = data.o_chain
    S, f = f_and_S(ctx, 2, o2, o1)
    assert S == () and f == (o1,)
    # sigma_1 = sigma always
    S2, f2 = f_and_S(ctx, 3, A, o2)
    assert f2[0] == o2


def test_f_and_S_recurses_on_the_top_of_S():
    # f = (delta,) + f(max S) while S is not empty
    ctx = ClassContext()
    A = ctx.declare("A", 2)
    a1, a2, a3 = (
        e(text, ctx.atoms).leaf for text in ("A@2(+1)", "A@2(+1)(+1)", "A@2(+1)(+1)(+1)")
    )
    for leaf in (a1, a2, a3):
        ctx.register(leaf)
    S, f = f_and_S(ctx, 2, A, a3)
    assert (S, f) == ((a1, a2), (a3, a2, a1))
    m_delta = ctx.m_of(tm.Leaf(a3))
    for x in S:  # m(x)[g(1, x, delta)] >= m(delta)
        moved = apply_subst(ctx.m_of(tm.Leaf(x)), g_map(1, x, a3))
        assert tm.compare(moved, m_delta) is not tm.LT


def test_g_map_n1_exact():
    g = g_map(1, EPS[5], EPS[2])
    assert tm.eq(apply_subst(tm.Leaf(EPS[5]), g), tm.Leaf(EPS[2]))
    assert tm.eq(apply_subst(tm.Leaf(EPS[1]), g), tm.Leaf(EPS[1]))
    ident = g_map(1, EPS[3], EPS[3])
    for k in range(4):
        assert tm.eq(apply_subst(tm.Leaf(EPS[k]), ident), tm.Leaf(EPS[k]))


def test_g_map_domain_condition():
    g = g_map(1, EPS[5], EPS[2])
    # Ep(t) inside Dom g iff T(1, alpha, t) below alpha inside c
    for text in ["eps(5)*2+eps(1)", "eps(5)+eps(3)", "eps(4)", "eps(0)+w"]:
        t = e(text)
        tcap = [x for x in tm.ep_set(t) if tm.compare_leaves(x, EPS[5]) is tm.LT]
        contained = all(tm.compare_leaves(x, EPS[2]) is tm.LT for x in tcap)
        assert all(g.contains(x) for x in tm.ep_set(t)) == contained


def test_g_map_increasing_and_T_coherence():
    g = g_map(1, EPS[5], EPS[2])
    rng = seeded(7)
    pool = [EPS[0], EPS[1], EPS[5]]
    pts = []
    for _ in range(200):
        t = random_term(rng, depth=2, leaves=pool)
        pts.append(t)
    moved = [(t, apply_subst(t, g)) for t in pts]
    for (t1, m1) in moved:
        for (t2, m2) in moved:
            assert tm.compare(t1, t2) == tm.compare(m1, m2)
        # (2.2.4): T-sets below the base agree after transport
        left = {x for x in tm.ep_set(m1) if tm.compare_leaves(x, EPS[2]) is tm.LT}
        right = {x for x in tm.ep_set(t1) if tm.compare_leaves(x, EPS[5]) is tm.LT}
        assert left == right


def test_g_map_eta_commutes_structural(ctx3):
    # (2.2.5) on the canonical skeleton: eta(gamma)[g] = eta at the image
    ctx = ctx3
    A, B = ctx.atom("A"), ctx.atom("B")
    dA = canonical_point(ctx, 3, A, 2)
    dB = canonical_point(ctx, 3, B, 2)
    g = g_map(3, A, B)
    etaA = eta_compute(ctx, 3, A, dA.gamma)
    etaB = eta_compute(ctx, 3, B, dB.gamma)
    assert tm.eq(apply_subst(etaA, g), etaB)


def test_g_map_composition_triangle(ctx3):
    ctx = ClassContext()
    for level in (1, 2, 3):
        names = [f"L{level}X", f"L{level}Y", f"L{level}Z"]
        c, d, alpha = (ctx.declare(n, level) for n in names)
        gac = g_map(level, alpha, c)
        comp = compose_maps(g_map(level, d, c), g_map(level, alpha, d))
        assert compare_maps(comp, gac) is MapOrder.EQ
        assert compare_maps(invert_map(gac), g_map(level, c, alpha)) is MapOrder.EQ


def test_gamma_transport_law(ctx3):
    ctx = ClassContext()
    e2, a2 = ctx.declare("E2", 2), ctx.declare("A2", 2)
    e3, a3 = ctx.declare("E3", 3), ctx.declare("A3", 3)
    for i, (src, dst) in (
        (1, (EPS[0], EPS[4])),
        (2, (e2, a2)),
        (2, (e3, a3)),
    ):
        for j in (1, 2, 3):
            d_src = canonical_point(ctx, i, src, j)
            d_dst = canonical_point(ctx, i, dst, j)
            g = g_map(i, src, dst)
            assert tm.eq(apply_subst(d_src.gamma, g), d_dst.gamma)


def test_g_map_levels_checked(ctx3):
    with pytest.raises(LevelViolation):
        g_map(2, EPS[0], ctx3.atom("A"))


def test_g_map_rebases_the_towers_below_its_level():
    ctx = ClassContext()
    ctx.declare("A", 3)
    ctx.declare("C", 3)
    g = g_map(2, ctx.atom("A"), ctx.atom("C"))
    for src, dst in (
        ("A@3(+1)", "C@3(+1)"),
        ("A@3(+1)(+1)", "C@3(+1)(+1)"),
        ("cp(2,1,A@3)", "cp(2,1,C@3)"),
    ):
        assert tm.eq(apply_subst(e(src, ctx.atoms), g), e(dst, ctx.atoms))
    # a constructor of level >= 2 anywhere in the tower, or another root
    for text in ("A@3(+2)", "A@3(+2)(+1)", "cp(3,1,A@3)", "C@3(+1)"):
        with pytest.raises(LeafOutsideDomain):
            apply_subst(e(text, ctx.atoms), g)


def test_T_set_missing_m_is_loud():
    ctx = ClassContext()
    A = ctx.declare("A", 2)
    stray = tm.mk_canonical(1, A, 1)  # built outside canonical_point: no m known
    with pytest.raises(MissingMValue):
        T_set(ctx, 2, A, tm.Leaf(stray))


def test_O_recursion_cap_is_structured(monkeypatch, ctx3):
    import ordclass.skeleton as sk
    from ordclass.errors import IterationCapExceeded

    A = ctx3.atom("A")
    data = canonical_point(ctx3, 3, A, 1)
    monkeypatch.setattr(sk, "O_RECURSION_CAP", 0)
    with pytest.raises(IterationCapExceeded) as exc:
        sk.T_set(ctx3, 3, A, data.gamma)
    assert exc.value.trace == ()
