"""Acceptance criteria, one test per criterion, exact unless stated.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import time

from conftest import ANCHOR_OPS, EPS, random_increasing_map, random_term, seeded
from ordclass import terms as tm
from ordclass.cli import main as cli_main
from ordclass.context import ClassContext, chain_down
from ordclass.grammar import parse_ord, render_ord
from ordclass.hierarchy import A_degenerate, A_successor_step, G_sample
from ordclass.oracle import build_grid, leq1_fixpoint
from ordclass.skeleton import (
    T_set,
    canonical_point,
    eta_compute,
    g_map,
    l_compute,
)
from ordclass.subst import apply_subst, compare_maps, compose_maps, invert_map, make_map, MapOrder

e = parse_ord


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_substitution_laws():
    rng = seeded(2024)
    pool = EPS[:4]
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        x = random_term(rng, depth=5, leaves=pool)
        y = random_term(rng, depth=5, leaves=pool)
        pairs = random_increasing_map(rng, EPS[:6], 6)
        f = make_map(pairs)
        table = dict(pairs)
        xf, yf = apply_subst(x, f), apply_subst(y, f)
        assert tm.compare(x, y) == tm.compare(xf, yf)
        cx, cxf = tm.classify(x), tm.classify(xf)
        assert cx.is_principal == cxf.is_principal
        assert cx.is_epsilon == cxf.is_epsilon
        assert tm.ep_set(xf) == tm.sort_leaves(
            [table[l] for l in tm.ep_set(x)], reverse=True
        )
        assert tm.eq(apply_subst(xf, invert_map(f)), x)
        assert tm.eq(apply_subst(tm.add(x, y), f), tm.add(xf, yf))
        assert tm.eq(apply_subst(tm.omega_pow(x), f), tm.omega_pow(xf))
        assert tm.eq(apply_subst(tm.mul(x, y), f), tm.mul(xf, yf))
        g_pairs = [(d, d) for _, d in pairs]
        g_outer = make_map(g_pairs)
        comp = compose_maps(g_outer, f)
        assert tm.eq(apply_subst(x, comp), apply_subst(xf, g_outer))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        checked >= 1000 and elapsed < 10.0,
        f"{checked} random (x, y, f) triples, all laws exact, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_n1_base_case():
    ctx = ClassContext()
    pool = EPS[:7]
    rng = seeded(7)
    corpus = [random_term(rng, depth=3, leaves=EPS[:5]) for _ in range(200)]
    checked_domains = checked_T = checked_comp = 0
    for alpha in pool:
        for c in pool:
            g = g_map(1, alpha, c)
            assert tm.eq(apply_subst(tm.Leaf(alpha), g), tm.Leaf(c))
            # Dom g(1, alpha, c) = (E inside c inside alpha) plus {alpha}
            for probe in pool:
                expected = probe == alpha or (
                    tm.compare_leaves(probe, c) is tm.LT
                    and tm.compare_leaves(probe, alpha) is tm.LT
                )
                assert g.contains(probe) == expected
                checked_domains += 1
    for t in corpus:
        for alpha in (EPS[5], EPS[6]):
            assert T_set(ctx, 1, alpha, t) == tm.ep_set(t)
            checked_T += 1
    for ci in range(7):
        for di in range(ci, 7):
            for ai in range(di, 7):
                c, d, alpha = pool[ci], pool[di], pool[ai]
                comp = compose_maps(g_map(1, d, c), g_map(1, alpha, d))
                assert compare_maps(comp, g_map(1, alpha, c)) is MapOrder.EQ
                checked_comp += 1
    report(
        2,
        True,
        f"exact: {checked_domains} domain probes, {checked_T} T-sets, "
        f"{checked_comp} composition triples over eps(0)..eps(6)",
    )


def test_criterion_3_oracle_anchors():
    start = time.perf_counter()
    grid = build_grid(
        e("eps(3)"),
        seeds=[e("eps(0)"), e("eps(1)"), e("eps(2)")],
        ops=ANCHOR_OPS,
        cap=400,
    )
    rel = leq1_fixpoint(grid)
    elapsed = time.perf_counter() - start
    assert len(grid.points) >= 150
    anchors = 0
    for p in grid.points:
        if tm.classify(p).is_zero:
            continue
        double = tm.mul(p, tm.nat(2))
        if double in grid and tm.add(double, tm.one()) in grid:
            assert rel.leq1(p, double) == tm.is_epsilon(p), render_ord(p)
            anchors += 1
    assert rel.leq1(e("eps(0)"), e("eps(0)*2+1")) is False
    assert tm.eq(rel.m_hat(e("eps(0)")), e("eps(0)*2"))
    n = len(grid.points)
    for i, fi in enumerate(rel.frontiers):
        assert i <= fi < n  # reflexive, inside the order
        for j in range(i, fi + 1):
            assert rel.frontiers[j] <= fi  # transitivity; prefix rows = connectedness
    report(
        3,
        elapsed < 300,
        f"{len(grid.points)} points, {anchors} doubling anchors, "
        f"m_hat(eps(0)) = eps(0)*2, connected+transitive, {elapsed:.1f}s < 300s",
    )


def test_criterion_4_eta_l_coherence(eps0_grid, eps0_rel):
    rel = eps0_rel
    alpha = EPS[0]
    lo = e("eps(0)*2")
    checked = 0
    for t in rel.grid.points:
        if not (tm.lt(lo, t) and tm.lt(t, rel.grid.points[-1])):
            continue
        eta = eta_compute(rel, 1, alpha, t)
        ell = l_compute(rel, 1, alpha, t)
        assert tm.eq(rel.m_hat(ell), eta)
        assert tm.eq(eta_compute(rel, 1, alpha, eta), eta)
        three_cases = (
            tm.eq(ell, lo)
            or tm.eq(ell, tm.pi_head(t))
            or tm.eq(ell, t)
        )
        assert three_cases, render_ord(t)
        checked += 1
    report(4, checked > 0, f"{checked} grid points in (eps(0)*2, grid-max), exact")


def test_criterion_5_chain_and_T_structure():
    ctx = ClassContext()
    atoms = {
        2: (ctx.declare("E2", 2), ctx.declare("A2", 2)),
        3: (ctx.declare("E3", 3), ctx.declare("A3", 3)),
    }
    for level, (base, _) in atoms.items():
        chain = chain_down(ctx, base)
        assert [tm.leaf_level(x) for x in chain] == list(range(level, 0, -1))
        bound = tm.mul(tm.Leaf(chain[-1]), tm.nat(2))
        for leaf in chain[1:]:
            assert tm.eq(ctx.m_of(tm.Leaf(leaf)), bound)
    t_checks = transport_checks = 0
    for level, (base, other) in atoms.items():
        for k in (1, 2):
            data = canonical_point(ctx, level, base, k)
            ts = T_set(ctx, level, base, data.gamma)
            assert ts == data.o_chain
            assert ts == T_set(ctx, level, base, tm.add(data.gamma, tm.one()))
            t_checks += 1
    for i in (1, 2):
        for j in (1, 2, 3):
            for src, dst in ((atoms[2][0], atoms[2][1]), (atoms[3][0], atoms[3][1])):
                if tm.leaf_level(src) < i:
                    continue
                g = g_map(i, src, dst)
                gsrc = canonical_point(ctx, i, src, j).gamma
                gdst = canonical_point(ctx, i, dst, j).gamma
                assert tm.eq(apply_subst(gsrc, g), gdst)
                transport_checks += 1
    report(
        5,
        t_checks == 4 and transport_checks == 12,
        f"chains annotated, {t_checks} o-chain T-sets, T(t+1)=T(t), "
        f"{transport_checks} gamma transports, exact",
    )


def test_criterion_6_eta_well_definedness(anchor_rel):
    rel = anchor_rel
    sampled = 0
    k = 1
    for alpha_text, hi_text in (
        ("eps(0)", "eps(1)"),
        ("eps(1)", "eps(2)"),
        ("eps(2)", None),
    ):
        alpha = e(alpha_text)
        hi = e(hi_text) if hi_text else None
        for t in rel.grid.points:
            if not tm.lt(alpha, t):
                continue
            if hi is not None and not tm.lt(t, hi):
                continue
            P = [
                r
                for r in rel.points_in(alpha, t)
                if tm.le(t, rel.m_hat(r))
            ]
            assert 1 <= len(P) <= k + 1, render_ord(t)
            sampled += 1
            if sampled >= 100:
                break
        if sampled >= 100:
            break
    report(6, sampled >= 100, f"{sampled} sampled (k, alpha, t), 1 <= |P| <= k+1")


def test_criterion_7_hierarchy_equivalence(anchor_rel):
    rel = anchor_rel
    universe = [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]
    instances = eta_fixed = 0
    for alpha_text in ("eps(0)", "eps(1)", "eps(2)"):
        alpha = e(alpha_text).leaf
        window = [
            p
            for p in rel.grid.points
            if tm.le(tm.Leaf(alpha), p)
            and tm.lt(p, tm.Leaf(tm.mk_succ(alpha, 1)))
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
                eta_fixed += len(universe)
            prev = gside
        # degenerate interval: G reduces to the sample-relative Lim rule
        for t in (tm.Leaf(alpha), tm.mul(tm.Leaf(alpha), tm.nat(2))):
            gside = G_sample(rel, 2, alpha, t, universe)
            lim_side = A_degenerate(rel, 2, alpha, t)
            assert gside == lim_side
    report(
        7,
        instances >= 100 and eta_fixed >= 10,
        f"{instances} (alpha, t, beta) instances agree, {eta_fixed} at l = eta, "
        "degenerate interval reduces to sample-relative Lim",
    )


def test_criterion_8_cli_round_trip_and_determinism(tmp_path, capsys):
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    rng = seeded(88)
    corpora = [random_term(rng, depth=4, leaves=EPS[:4]) for _ in range(300)]
    corpora += [
        random_term(rng, depth=3, leaves=[A, tm.mk_succ(A, 2), tm.mk_canonical(1, A, 2)])
        for _ in range(100)
    ]
    for t in corpora:
        assert parse_ord(render_ord(t), ctx.atoms) == t
    script = tmp_path / "report.txt"
    outputs = []
    for run in range(2):
        out_file = tmp_path / f"rel{run}.json"
        script.write_text(f"grid g eps(1) eps(0)\nexport g {out_file}\n")
        code = cli_main(["--script", str(script)])
        capsys.readouterr()
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    report(
        8,
        True,
        f"{len(corpora)} corpus terms re-parse to themselves; "
        "repeated JSON reports byte-identical",
    )
