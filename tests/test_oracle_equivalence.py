"""Differential tests: the oracle against slow references.

- `reference_fixpoint`, from `oracle_reference.py`, iterates the literal
  subset-enumerating check;
- `reference_eta` and `reference_ell`, from the same file, place t in
  alpha's interval by term comparisons and scan (r, m-hat(r)) triples;
- `reference_build_grid` offers every frontier pair in both orders each round;
- `reference_compare` enters with a structural `==`;
- `reference_points_in` scans every grid point.
"""

import copy
import hashlib
import json

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import EPS, random_term, seeded
from oracle_reference import (
    reference_ell,
    reference_eta,
    reference_fixpoint,
    slow_check_pair,
)
from ordclass import terms as tm
from ordclass.context import ClassContext, chain_bound
from ordclass.errors import (
    GridCapExceeded,
    LevelViolation,
    MissingMValue,
    OrderUndecidable,
    OrdinalError,
)
from ordclass.grammar import parse_ord, render_ord
from ordclass.skeleton import eta_compute, l_compute
from ordclass.oracle import (
    ANCHOR_OPS,
    Grid,
    GridOps,
    _snapshot_fits,
    _sorted_terms,
    build_grid,
    leq1_fixpoint,
)
from ordclass.terms import EQ, GT, LT
# eps2_grid is a fixture: pytest finds it by its name in this module
from test_oracle import _chained_relation, eps2_grid  # noqa: F401

e = parse_ord


def reference_build_grid(bound, seeds=(), ops=None, cap=400):
    ops = ops or GridOps()
    points = {tm.ZERO, tm.one(), tm.omega()}
    points.update(seeds)
    points = {p for p in points if tm.lt(p, bound) and ops.admits(p)}

    def overflow():
        raise GridCapExceeded(_sorted_terms(points)[:cap], cap)

    if len(points) > cap:
        overflow()
    frontier = set(points)
    while frontier:
        new = set()

        def offer(t):
            if t not in points and t not in new and tm.lt(t, bound) and ops.admits(t):
                new.add(t)

        for t in frontier:
            if ops.succ:
                offer(tm.add(t, tm.one()))
            if ops.double:
                offer(tm.mul(t, tm.nat(2)))
            if ops.tower_height and isinstance(t, tm.Leaf):
                for j in range(1, ops.tower_height + 1):
                    offer(tm.omega_tower(t.leaf, j))
        if ops.add:
            for a in points | frontier:
                for b in frontier:
                    offer(tm.add(a, b))
                    offer(tm.add(b, a))
        if len(points) + len(new) > cap:
            points |= new
            overflow()
        points |= new
        frontier = new
    return Grid(_sorted_terms(points), bound, ops)


def reference_compare_leaves(a, b):
    if a == b:
        return EQ
    ra, pa = tm.leaf_path(a)
    rb, pb = tm.leaf_path(b)
    a_concrete = isinstance(ra, tm.ConcreteEps)
    b_concrete = isinstance(rb, tm.ConcreteEps)
    if a_concrete and b_concrete:
        return reference_compare(ra.index, rb.index)
    if a_concrete != b_concrete:
        return LT if a_concrete else GT
    if ra == rb:
        if pa == pb[: len(pa)]:
            return LT
        if pb == pa[: len(pb)]:
            return GT
        return LT if pa < pb else GT
    if ra.rank == rb.rank:
        raise OrderUndecidable(a, b)
    root_cmp = LT if ra.rank < rb.rank else GT
    lower_path = pa if root_cmp is LT else pb
    upper_root = rb if root_cmp is LT else ra
    if tm._escape_level(lower_path) <= tm.leaf_level(upper_root):
        return root_cmp
    raise OrderUndecidable(a, b)


def reference_compare(a, b):
    if a == b:
        return EQ
    if isinstance(a, tm.Leaf) and isinstance(b, tm.Leaf):
        return reference_compare_leaves(a.leaf, b.leaf)
    ma, mb = tm.monomials_of(a), tm.monomials_of(b)
    for (ea, ca), (eb, cb) in zip(ma, mb):
        c = reference_compare(ea, eb)
        if c is not EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(ma) == len(mb):
        return EQ
    return LT if len(ma) < len(mb) else GT


def reference_points_in(grid, lo, hi):
    return [
        p for p in grid.points if tm.compare(p, lo) is GT and tm.compare(p, hi) is not GT
    ]


def closure_outcome(build, bound, seeds, ops, cap):
    """("grid", points), or ("cap", partial points) when the cap is hit."""
    try:
        return "grid", build(bound, seeds, ops=ops, cap=cap).points
    except GridCapExceeded as exc:
        return "cap", exc.partial_points


def assert_front_end_matches(bound, seeds, ops, cap):
    fast = closure_outcome(build_grid, bound, seeds, ops, cap)
    slow = closure_outcome(reference_build_grid, bound, seeds, ops, cap)
    assert fast == slow
    return fast


ANCHOR_SIZES = {1: 51, 2: 129, 3: 243, 4: 393}
# sha256 prefixes of the JSON (sort_keys, indent=1) and DOT exports, joined
ANCHOR_EXPORTS = {
    1: "1f286bb6cf74efbf",
    2: "6c171e747896ac8a",
    3: "bdac9ec98e70c0b4",
    4: "34e5c6ddd3f7b1f1",
}


def anchor_args(g):
    return tm.Leaf(EPS[g]), [tm.Leaf(x) for x in EPS[:g]]


@pytest.mark.parametrize("g", sorted(ANCHOR_SIZES))
def test_anchor_grids_match_reference(g):
    bound, seeds = anchor_args(g)
    kind, points = assert_front_end_matches(bound, seeds, ANCHOR_OPS, cap=1000)
    assert kind == "grid" and len(points) == ANCHOR_SIZES[g]
    rel = leq1_fixpoint(Grid(points, bound, ANCHOR_OPS))
    export = json.dumps(rel.to_json(), sort_keys=True, indent=1) + rel.to_dot()
    assert hashlib.sha256(export.encode()).hexdigest()[:16] == ANCHOR_EXPORTS[g]


@pytest.mark.parametrize("g", [2, 3])
def test_anchor_caps_match_reference(g):
    # a cap inside the last round: the truncated points must agree too
    cap = ANCHOR_SIZES[g] - 5
    kind, points = assert_front_end_matches(*anchor_args(g), ANCHOR_OPS, cap=cap)
    assert kind == "cap" and len(points) == cap


def test_tower3_grid_matches_reference(eps0_grid):
    ops = eps0_grid.ops
    assert ops.tower_height == 3
    assert reference_build_grid(eps0_grid.bound, [e("eps(0)")], ops, cap=400).points == (
        eps0_grid.points
    )


# Bounds and up to three seeds for build_grid's default closure
# (ANCHOR_OPS); some seeds are not principal.
PRESET_BOUNDS = [
    "eps(0)", "eps(1)", "eps(2)", "eps(3)", "eps(0)*2", "eps(0)*3", "eps(1)*2", "eps(1)*3",
    "eps(2)*3", "w^w", "w^(eps(0)+1)", "w^(eps(1)+1)", "eps(1)+eps(0)",
]
PRESET_SEEDS = [
    "eps(0)", "eps(1)", "eps(2)", "eps(0)+1", "w*2", "eps(0)*2+w", "eps(1)+w", "w^(eps(0)+1)",
    "eps(0)*3",
]


@given(
    st.sampled_from(PRESET_BOUNDS),
    st.lists(st.sampled_from(PRESET_SEEDS), max_size=3, unique=True),
)
# eps(0)*2 is no grid point, so eps(0)'s row runs to the grid's edge
@example("eps(0)*2", ["eps(0)", "eps(0)+1"])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_preset_grids_are_exact_at_their_epsilons(bound, seeds):
    """On the default closure every row but an epsilon's is reflexive, an
    epsilon's m-hat is eps*2 when that is a grid point and the last point
    otherwise, and the fixpoint takes two rounds."""
    grid = build_grid(e(bound), [e(s) for s in seeds])
    assert grid.ops is ANCHOR_OPS
    rel = leq1_fixpoint(grid)
    pts, f = grid.points, rel.frontiers
    for i, p in enumerate(pts):
        if tm.is_epsilon(p):
            double = tm.mul(p, tm.nat(2))
            assert pts[f[i]] == (double if double in grid else pts[-1])
        else:
            assert f[i] == i
    assert len(pts) == 1 or rel.rounds == 2


CAPS = st.one_of(st.none(), st.integers(1, 3))
ops_st = st.builds(
    GridOps,
    add=st.booleans(),
    double=st.booleans(),
    succ=st.booleans(),
    tower_height=st.integers(0, 3),
    coeff_cap=CAPS,
    tail_cap=CAPS,
    max_monomials=CAPS,
)
BOUNDS = ["eps(1)", "eps(2)", "eps(3)", "eps(1)*3", "w^w", "w^(eps(0)+1)"]
SEEDS = ["eps(0)", "eps(1)", "eps(2)", "w*2", "eps(0)+w", "w^(w+1)"]


@given(
    ops_st,
    st.sampled_from(BOUNDS),
    st.lists(st.sampled_from(SEEDS), max_size=3),
    st.integers(3, 80),
)
@settings(max_examples=60, deadline=None)
def test_random_grids_match_reference(ops, bound, seeds, cap):
    assert_front_end_matches(e(bound), [e(s) for s in seeds], ops, cap)


@given(
    ops_st,
    st.sampled_from(["eps(1)", "eps(2)", "eps(3)", "eps(0)*3", "eps(1)*3", "eps(2)*3"]),
    st.lists(st.sampled_from(["eps(0)", "eps(1)", "eps(2)"]), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_computed_relation_fits_its_snapshot_check(ops, bound, seeds):
    """The cache trusts what the fixpoint computes: a snapshot of any
    relation `leq1_fixpoint` returns is read back as a hit, also where a row
    reaches one past a lower row that reaches it (grids without `double`)."""
    try:
        grid = build_grid(e(bound), [e(s) for s in seeds], ops, cap=30)
    except GridCapExceeded:
        reject()
    rel = leq1_fixpoint(grid)
    assert _snapshot_fits(json.loads(json.dumps(rel.snapshot())), grid)


# For each pair it checks and each subset of alpha's window, the reference
# tests every sum triple with a summand in the subset, so its time grows
# steeply with the grid.  Grids of at most 24 points take at most about 2 s
# each, and the draws are fixed so that the test's time is too.
FIXPOINT_GRID_CAP = 24


@given(
    ops_st,
    st.sampled_from(["eps(1)", "eps(2)", "eps(3)", "eps(0)*3", "eps(1)*3", "eps(2)*3"]),
    st.lists(st.sampled_from(["eps(0)", "eps(1)", "eps(2)"]), min_size=1, max_size=3, unique=True),
)
# eps(0) has no grid point in [eps(0)*2, eps(1)), so its row reaches eps(1),
# and the low-row condition of `_row_frontier` cuts the row of eps(1)
@example(GridOps(add=False, double=False, tower_height=0, tail_cap=2), "eps(1)*3", ["eps(0)", "eps(1)"])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fixpoint_is_the_slow_checks_fixpoint(ops, bound, seeds):
    try:
        grid = build_grid(e(bound), [e(s) for s in seeds], ops, cap=FIXPOINT_GRID_CAP)
    except GridCapExceeded:
        reject()
    fast = leq1_fixpoint(grid).frontiers
    for subset_cap in (2, 4):
        assert reference_fixpoint(grid, subset_cap) == fast


def test_sweep_order_is_part_of_the_fixpoint():
    # The check reads the current relation facts with `!=`, so it is not
    # monotone: an ascending sweep ends at another self-consistent relation,
    # neither contains the other, and their union is not self-consistent.
    ops = GridOps(add=False, double=False, tower_height=0, tail_cap=2)
    grid = build_grid(e("eps(2)"), [e("eps(0)"), e("eps(1)")], ops)
    n = len(grid.points)
    down = reference_fixpoint(grid, 2)
    up = reference_fixpoint(grid, 2, order=range(n))
    assert down == leq1_fixpoint(grid).frontiers
    assert any(a < b for a, b in zip(down, up)) and any(a > b for a, b in zip(down, up))

    def self_consistent(f):
        return all(slow_check_pair(f, grid, i, j, 2) for i in range(n) for j in range(i, f[i] + 1))

    assert self_consistent(down) and self_consistent(up)
    assert not self_consistent([max(a, b) for a, b in zip(down, up)])


def test_compare_matches_reference_on_random_terms():
    A = tm.ClassAtom("A", 3, 1)
    B = tm.ClassAtom("B", 2, 2)
    symbolic = [
        A,
        B,
        tm.mk_succ(A, 1),
        tm.mk_succ(A, 2),
        tm.mk_succ(B, 1),
        tm.mk_canonical(1, A, 2),
        tm.mk_canonical(2, A, 1),
    ]
    pools = [EPS[:4], EPS[:2] + symbolic]
    rng = seeded(7)

    def outcome(cmp, a, b):
        try:
            return cmp(a, b)
        except OrdinalError as exc:
            return type(exc)

    checked = 0
    while checked < 3000:
        pool = pools[checked % 2]
        try:
            a = random_term(rng, depth=3, leaves=pool)
            b = random_term(rng, depth=3, leaves=pool)
        except OrdinalError:
            continue  # the pool's leaves met an undecidable pair while building
        for x, y in ((a, b), (b, a), (a, tm.rebuild(a)), (copy.deepcopy(b), b)):
            assert outcome(tm.compare, x, y) == outcome(reference_compare, x, y)
        assert tm.compare(a, copy.deepcopy(a)) is EQ
        checked += 1


def test_points_in_matches_scan(anchor_rel):
    grid = anchor_rel.grid
    off_grid = [e(t) for t in ("w+3", "eps(0)*2+w*7", "eps(3)", "eps(5)", "w^w^w")]
    for t in off_grid:
        assert t not in grid
    probes = list(grid.points[::20]) + off_grid
    for lo in probes:
        for hi in probes:
            assert anchor_rel.points_in(lo, hi) == reference_points_in(grid, lo, hi)
    assert anchor_rel.points_in(e("eps(2)"), e("eps(1)")) == []
    assert anchor_rel.points_in(e("eps(1)"), e("eps(1)")) == []
    # span reads a point's rank and bisects only an off-grid end
    ends = list(grid.points) + off_grid
    upto = [tm.bisect_terms(grid.points, t, right=True) for t in ends]
    for lo, u_lo in zip(ends, upto):
        for hi, u_hi in zip(ends, upto):
            assert anchor_rel.span(lo, hi) == range(u_lo, u_hi)
    # an equal but distinct copy of a point is read off the same rank
    for i in range(0, len(grid.points), 20):
        copy_i = copy.deepcopy(grid.points[i])
        assert copy_i is not grid.points[i]
        assert anchor_rel.span(copy_i, grid.points[-1]) == range(i + 1, len(grid.points))


# ---------------------------------------------------------------------------
# grid eta/ell in rank space against the term-comparing reference

# A@1 and A@2 share a rank, so their order is undecidable, and so is the
# order of A@1(+1) against either
A1 = tm.ClassAtom("A", 1, 0)
A2 = tm.ClassAtom("A", 2, 0)
B1 = tm.ClassAtom("B", 1, 1)
C3 = tm.ClassAtom("C", 3, 2)
ATOM_ALPHAS = [A1, A2, tm.mk_succ(A1, 1)]
ETA_BOUNDS = [e(t) for t in ("eps(1)", "eps(2)", "eps(3)", "eps(0)*3", "eps(1)*3")]
ETA_BOUNDS += [tm.Leaf(C3), tm.Leaf(tm.mk_succ(A2, 1))]
ETA_SEEDS = [tm.Leaf(x) for x in (*EPS[:3], A1, A2, B1)]
W5 = tm.mul(tm.omega(), tm.nat(5))


def _probes(alpha, k):
    """Terms around alpha's level-k interval that are no grid points of the
    anchor preset (w*5 breaks its coefficient cap): below alpha, at or
    below the chain bound, between the bound and alpha(+^k), at or above
    alpha(+^k)."""
    a = tm.Leaf(alpha)
    out = [tm.add(W5, tm.nat(3)), tm.add(a, W5)]
    try:
        bound = chain_bound(alpha, k)
        upper = tm.Leaf(tm.mk_succ(alpha, k))
    except OrdinalError:  # k exceeds alpha's level
        return out
    return out + [bound, tm.add(bound, W5), upper, tm.add(tm.mul(upper, tm.nat(2)), tm.one())]


def _text_outcome(fn, render):
    try:
        return render(fn())
    except OrdinalError as exc:
        return type(exc), str(exc)


def assert_grid_eta_ell_match_reference(rel, alphas):
    """Every alpha given and every epsilon of the grid, k = 0, 1, 2, and t
    every grid point, an equal copy of one, and the probes."""
    points = rel.grid.points
    alphas = list(alphas) + [p.leaf for p in points if tm.is_epsilon(p)]
    for alpha in alphas:
        for k in (0, 1, 2):
            for t in (*points, copy.deepcopy(points[-1]), *_probes(alpha, k)):
                for fast, slow in ((eta_compute, reference_eta), (l_compute, reference_ell)):
                    got = _text_outcome(lambda: fast(rel, k, alpha, t), render_ord)
                    want = _text_outcome(lambda: slow(k, alpha, t, rel), render_ord)
                    assert got == want, (fast.__name__, k, alpha, t)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_grid_eta_ell_match_the_reference_on_anchor_grids(g, anchor_rel):
    rel = anchor_rel if g == 3 else leq1_fixpoint(build_grid(*anchor_args(g), ANCHOR_OPS))
    assert_grid_eta_ell_match_reference(rel, [EPS[7], *ATOM_ALPHAS])


def test_grid_eta_ell_match_the_reference_below_a_non_point():
    # eps(0) is no point of this grid
    rel = leq1_fixpoint(build_grid(e("eps(1)"), [e("eps(0)+1")], ANCHOR_OPS))
    assert EPS[0] not in [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]
    assert_grid_eta_ell_match_reference(rel, [EPS[0], EPS[7], *ATOM_ALPHAS])


@pytest.mark.parametrize(
    "bound, seeds",
    [
        # A@1(+1) has no decidable order against B@1, nor A@1 and A@2
        # against each other, so bisecting such an alpha would fail
        (tm.Leaf(C3), [EPS[0], A1, B1]),
        (tm.Leaf(tm.mk_succ(A2, 1)), [EPS[0], A2]),
    ],
)
def test_grid_eta_ell_match_the_reference_on_grids_seeded_with_atoms(bound, seeds):
    ops = GridOps(tower_height=1, coeff_cap=1, tail_cap=1, max_monomials=2)
    rel = leq1_fixpoint(build_grid(bound, [tm.Leaf(x) for x in seeds], ops))
    with pytest.raises(OrderUndecidable):
        tm.bisect_terms(rel.grid.points, tm.Leaf(A1 if A2 in seeds else ATOM_ALPHAS[2]))
    assert_grid_eta_ell_match_reference(rel, [EPS[0], EPS[7], *ATOM_ALPHAS])


@pytest.mark.parametrize("seed", [1, 2, 6, 12])
def test_grid_eta_ell_match_the_reference_on_chained_frontiers(eps2_grid, seed):
    """Grid eta/ell read the frontiers, not the fixpoint's shape: on it a
    non-epsilon row is reflexive, so each rank tops its own span, but these
    prefix-transitive relations have spans whose top frontier is reached
    first below their last rank, and by two ranks."""
    rel = _chained_relation(eps2_grid, seed)
    f, start = rel.frontiers, eps2_grid.index(tm.Leaf(EPS[0])) + 1
    assert any(f[j] == max(f[start:j]) for j in range(start + 1, len(f)))
    assert_grid_eta_ell_match_reference(rel, [EPS[0], EPS[1]])


@given(
    ops_st,
    st.sampled_from(ETA_BOUNDS),
    st.lists(st.sampled_from(ETA_SEEDS), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_grid_eta_ell_match_the_reference_on_drawn_grids(ops, bound, seeds):
    """Grids of up to 40 points, some seeded with atoms whose order against
    an atom alpha is undecidable."""
    try:
        grid = build_grid(bound, seeds, ops, cap=40)
    except (GridCapExceeded, OrderUndecidable):
        reject()
    assert_grid_eta_ell_match_reference(leq1_fixpoint(grid), [EPS[0], EPS[7], *ATOM_ALPHAS])


# ---------------------------------------------------------------------------
# the two regimes: a context annotated with a grid's m-hat against the grid


def _regime_outcomes(rel, ctx):
    """{(operator, alpha, t): (grid outcome, context outcome)} at k = 1, for
    every grid epsilon alpha and grid point t, as text or exception type."""
    def outcome(fn, render):
        try:
            return render(fn())
        except OrdinalError as exc:
            return type(exc)

    points = rel.grid.points
    out = {}
    for fn in (eta_compute, l_compute):
        for alpha in (points[i].leaf for i in rel.grid.epsilons):
            for t in points:
                key = (fn.__name__, render_ord(tm.Leaf(alpha)), render_ord(t))
                out[key] = (
                    outcome(lambda: fn(rel, 1, alpha, t), render_ord),
                    outcome(lambda: fn(ctx, 1, alpha, t), render_ord),
                )
    return out


def _annotated(rel, keep):
    """A fresh context with m = m-hat at every principal point that is no
    grid-edge point and that keep admits."""
    ctx = ClassContext()
    for p in rel.grid.points:
        if tm.classify(p).is_principal and not rel.boundary_suspect(p) and keep(p):
            ctx.set_m(p, rel.m_hat(p))
    return ctx


@pytest.mark.parametrize("g, values", [(1, 42), (2, 120), (3, 234)])
def test_the_two_regimes_agree_on_anchor_grids(g, values, anchor_rel):
    """Given the grid's m-hat, the structural eta/l answer as the grid does
    at every grid point; given it at the epsilons only, they miss exactly
    the two towers w^(alpha+1) and w^(w^(alpha+1)) of each alpha, which the
    grid answers with the tower itself."""
    rel = anchor_rel if g == 3 else leq1_fixpoint(build_grid(*anchor_args(g), ANCHOR_OPS))
    full = _regime_outcomes(rel, _annotated(rel, lambda p: True))
    assert all(grid == ctx for grid, ctx in full.values())
    kinds = [grid for grid, _ in full.values()]
    assert len(kinds) - kinds.count(LevelViolation) == 2 * values
    sparse = _regime_outcomes(rel, _annotated(rel, tm.is_epsilon))
    differ = {key: pair for key, pair in sparse.items() if pair[0] != pair[1]}
    towers = [(i, render_ord(tm.omega_tower(EPS[i], j))) for i in range(g) for j in (1, 2)]
    assert differ == {
        (op, render_ord(tm.Leaf(EPS[i])), text): (text, MissingMValue)
        for op in ("eta_compute", "l_compute")
        for i, text in towers
    }
