import json

import pytest

from conftest import seeded
from oracle_reference import slow_check_pair
from ordclass import oracle, terms as tm
from ordclass.errors import GridCapExceeded, OrdinalError
from ordclass.grammar import parse_ord, render_ord
from ordclass.oracle import (
    GridOps,
    Leq1Relation,
    build_grid,
    cache_path,
    leq1_cached,
    leq1_fixpoint,
)

e = parse_ord


def test_build_grid_contains_anchor_points(eps0_grid):
    for text in ["eps(0)", "eps(0)*2", "eps(0)*2+1", "w^(eps(0)+1)", "0", "1", "w"]:
        assert e(text) in eps0_grid


def test_build_grid_eps1_times_3_example():
    ops = GridOps(tower_height=1, coeff_cap=2, tail_cap=1, max_monomials=2)
    grid = build_grid(e("eps(1)*3"), [e("eps(0)")], ops=ops, cap=200)
    for text in ["eps(0)", "eps(0)*2", "eps(0)*2+1", "w^(eps(0)+1)"]:
        assert e(text) in grid


def test_build_grid_cap_error_truncates():
    with pytest.raises(GridCapExceeded) as exc:
        build_grid(e("w"), [], ops=GridOps(), cap=40)
    partial = exc.value.partial_points
    assert len(partial) == 40
    assert all(tm.lt(p, e("w")) for p in partial)
    assert partial[0] == tm.ZERO and partial[1] == tm.one()


def test_build_grid_bound_respected():
    try:
        grid = build_grid(e("w^w"), [e("w")], ops=GridOps(), cap=60)
        points = grid.points
    except GridCapExceeded as exc:
        points = exc.partial_points
    assert points and all(tm.lt(p, e("w^w")) for p in points)


def test_grid_sorted_and_indexable(anchor_grid):
    pts = anchor_grid.points
    for a, b in zip(pts, pts[1:]):
        assert tm.lt(a, b)
    assert anchor_grid.index(e("eps(1)")) == pts.index(e("eps(1)"))
    with pytest.raises(OrdinalError):
        anchor_grid.index(e("eps(0)*2+w*7"))


def test_anchor_equivalence(anchor_rel):
    rel = anchor_rel
    for p in rel.grid.points:
        double = tm.mul(p, tm.nat(2))
        if not tm.classify(p).is_zero and double in rel.grid and tm.add(double, tm.one()) in rel.grid:
            assert rel.leq1(p, double) == tm.is_epsilon(p), render_ord(p)


def test_paper_anchor_pairs(anchor_rel):
    assert anchor_rel.leq1(e("eps(0)"), e("eps(0)*2")) is True
    assert anchor_rel.leq1(e("eps(0)"), e("eps(0)*2+1")) is False


def test_regression_snapshot_w_pairs(anchor_rel):
    # recorded oracle values, frozen as regressions (not asserted a priori)
    assert anchor_rel.leq1(e("w"), e("w*2")) is False
    assert anchor_rel.leq1(e("w"), e("w+1")) is False


def test_m_hat(anchor_rel):
    rel = anchor_rel
    assert tm.eq(rel.m_hat(e("eps(0)")), e("eps(0)*2"))
    assert tm.eq(rel.m_hat(e("0")), e("0"))
    for p in rel.grid.points:
        assert tm.le(p, rel.m_hat(p))


def test_relation_shape(anchor_rel):
    rel = anchor_rel
    pts = rel.grid.points
    n = len(pts)
    # reflexive, inside the order, transitive on prefix rows
    for i, fi in enumerate(rel.frontiers):
        assert i <= fi < n
        for j in range(i, fi + 1):
            assert rel.frontiers[j] <= fi
    # each row is the prefix i..f_i, read through the grid's rank index
    for i, p in enumerate(pts):
        fi = rel.frontiers[i]
        for j, q in enumerate(pts):
            assert rel.leq1(p, q) == (i <= j <= fi)
    for outside in ("w+3", "eps(0)*2+w*7", "eps(3)"):
        assert e(outside) not in rel.grid
        with pytest.raises(OrdinalError):
            rel.grid.index(e(outside))
    assert rel.rounds <= n**2


def test_class_detect(anchor_rel):
    hits = anchor_rel.class_detect(1)
    names = {render_ord(p) for p, _ in hits}
    assert names == {"eps(0)", "eps(1)", "eps(2)"}
    for p, wit in hits:
        assert tm.eq(wit[0], p) and tm.eq(wit[1], tm.mul(p, tm.nat(2)))
    assert anchor_rel.class_detect(2) == []


def _reference_class_detect(rel, j):
    """class_detect as it was: every level rebuilt from level 1."""
    pts = rel.grid.points
    level = {}
    members = []
    for i, p in enumerate(pts):
        if not tm.is_epsilon(p):
            continue
        d = rel.grid.ranks.get(tm.mul(p, tm.nat(2)))
        if d is None:
            continue
        if rel.frontiers[i] >= d:
            members.append(i)
            level[i] = [i, d]
    for _ in range(j - 1):
        nxt = []
        nxt_wit = {}
        for i in range(len(pts)):
            for b in members:
                if i < b and rel.frontiers[i] >= b:
                    nxt.append(i)
                    nxt_wit[i] = [i] + level[b]
                    break
        members, level = nxt, nxt_wit
    return [(pts[i], tuple(pts[w] for w in level[i])) for i in sorted(members)]


def _reference_class_level_of(rel, t):
    """The largest j with t in class_detect(1), ..., class_detect(j)."""
    if t not in rel.grid:
        return 0
    j = 0
    while True:
        hits = [p for p, _ in _reference_class_detect(rel, j + 1)]
        if not any(tm.eq(p, t) for p in hits):
            return j
        j += 1


def _chained_relation(grid, seed):
    """Prefix-transitive frontiers with long <1-chains: a relation the
    fixpoint does not produce, so that class levels above 1 occur."""
    rng = seeded(seed)
    n = len(grid.points)
    f = [0] * n
    for i in range(n - 1, -1, -1):
        f[i] = min(n - 1, i + rng.choice([0, 0, 1, 2, 5, 20]))
        while f[i] < max(f[i + 1 : f[i] + 1], default=0):
            f[i] = max(f[i + 1 : f[i] + 1])
    return Leq1Relation(grid, tuple(f), 0)


@pytest.fixture(scope="module")
def eps2_grid():
    return build_grid(e("eps(2)"), seeds=[e("eps(0)"), e("eps(1)")], ops=oracle.ANCHOR_OPS)


# seeds whose relation on the eps(2) grid has <1-chains of 18 to 33 levels
@pytest.mark.parametrize("seed", [None, 2, 6, 12])
def test_class_levels_match_the_level_by_level_loop(anchor_rel, eps2_grid, seed):
    rel = anchor_rel if seed is None else _chained_relation(eps2_grid, seed)
    levels = [_reference_class_level_of(rel, p) for p in rel.grid.points]
    for j in range(1, max(levels) + 3):
        assert rel.class_detect(j) == _reference_class_detect(rel, j)
    # the levels stop at the first empty one, so a huge j costs no more
    assert rel.class_detect(10**9) == []
    assert max(levels) == 1 if seed is None else max(levels) >= 3


def test_fast_engine_matches_slow_reference():
    ops = GridOps(tower_height=1, coeff_cap=2, tail_cap=1, max_monomials=2)
    grid = build_grid(e("eps(1)*3"), seeds=[e("eps(0)")], ops=ops, cap=120)
    rel = leq1_fixpoint(grid)
    n = len(grid.points)
    for i in range(n):
        for j in range(i, n):
            fast = j <= rel.frontiers[i]
            assert fast == slow_check_pair(rel.frontiers, grid, i, j, 4), (
                render_ord(grid.points[i]),
                render_ord(grid.points[j]),
            )


def test_m_hat_monotone_under_extension(eps0_grid, eps0_rel):
    small_ops = GridOps(tower_height=2, coeff_cap=2, tail_cap=1, max_monomials=2)
    small = build_grid(e("eps(1)"), seeds=[e("eps(0)")], ops=small_ops, cap=400)
    rel_small = leq1_fixpoint(small)
    for p in small.points:
        if p in eps0_grid:
            assert tm.le(rel_small.m_hat(p), eps0_rel.m_hat(p))


def test_json_and_dot_deterministic(anchor_rel):
    a = json.dumps(anchor_rel.to_json(), sort_keys=True)
    b = json.dumps(anchor_rel.to_json(), sort_keys=True)
    assert a == b
    dot = anchor_rel.to_dot()
    assert dot == anchor_rel.to_dot()
    assert dot.startswith("digraph leq1 {") and dot.endswith("}\n")
    assert 'label="eps(0)"' in dot


def test_cache_roundtrip(tmp_path):
    ops = GridOps(tower_height=1, coeff_cap=1, tail_cap=1, max_monomials=2)
    grid = build_grid(e("eps(1)"), seeds=[e("eps(0)")], ops=ops, cap=200)
    rel = leq1_cached(grid, str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    again = leq1_cached(grid, str(tmp_path))
    assert again.frontiers == rel.frontiers
    assert list(tmp_path.iterdir()) == files


def _small_grid():
    ops = GridOps(tower_height=1, coeff_cap=1, tail_cap=1, max_monomials=2)
    return build_grid(e("eps(1)"), seeds=[e("eps(0)")], ops=ops, cap=200)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda text: text[: len(text) // 2],  # truncated file: malformed JSON
        lambda text: b"\xff\xfe not text",
        lambda text: json.dumps({**json.loads(text), "frontiers": json.loads(text)["frontiers"][:-3]}),
        lambda text: json.dumps({**json.loads(text), "frontiers": [0] * len(json.loads(text)["frontiers"])}),
        lambda text: json.dumps({**json.loads(text), "points": json.loads(text)["points"][::-1]}),
        lambda text: json.dumps({**json.loads(text), "rounds": "2"}),
        lambda text: json.dumps([1, 2, 3]),
        # row 0 reaches 1 and row 1 reaches 2, but row 0 does not reach 2
        lambda text: json.dumps({**json.loads(text), "frontiers": [1, 2] + json.loads(text)["frontiers"][2:]}),
    ],
    ids=[
        "truncated",
        "garbage",
        "short-frontiers",
        "frontier-below-row",
        "points",
        "rounds",
        "not-an-object",
        "not-transitive",
    ],
)
def test_invalid_snapshot_is_a_miss(tmp_path, spoil):
    grid = _small_grid()
    fresh = leq1_cached(grid, str(tmp_path))
    [path] = tmp_path.iterdir()
    good = path.read_text()
    bad = spoil(good)
    path.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
    again = leq1_cached(grid, str(tmp_path))
    assert again.frontiers == fresh.frontiers and again.rounds == fresh.rounds
    assert path.read_text() == good  # recomputed and rewritten


def _with_frontier(text, i, fi):
    data = json.loads(text)
    data["frontiers"][i] = fi
    return json.dumps(data)


# Each spoiled file below is prefix-transitive JSON for its grid, with one
# frontier i <= f_i < n per point and integer rounds, so only the facts the
# fixpoint adds tell it apart: on the eps(0) grid below (51 points), row 1
# (the point 1) is no epsilon, row 9 is eps(0), and eps(0)*2 is point 14.
@pytest.mark.parametrize(
    "spoil",
    [
        lambda text: _with_frontier(text, 1, 2),
        lambda text: _with_frontier(text, 9, 15),
        lambda text: json.dumps({**json.loads(text), "rounds": 0}),
        lambda text: json.dumps({**json.loads(text), "rounds": oracle.MAX_ROUNDS + 1}),
    ],
    ids=["non-epsilon-row-reaches-past-itself", "epsilon-row-reaches-past-its-double", "no-rounds", "rounds-past-the-cap"],
)
def test_a_snapshot_the_fixpoint_cannot_compute_is_a_miss(tmp_path, spoil):
    grid = build_grid(e("eps(1)"), [e("eps(0)")], oracle.ANCHOR_OPS)
    fresh = leq1_cached(grid, str(tmp_path))
    assert len(grid.points) == 51 and grid.epsilons == (9,)
    assert grid.points[14] == tm.mul(grid.points[9], tm.nat(2)) and fresh.frontiers[9] == 14
    [path] = tmp_path.iterdir()
    good = path.read_text()
    path.write_text(spoil(good))
    again = leq1_cached(grid, str(tmp_path))
    assert again.frontiers == fresh.frontiers and again.rounds == fresh.rounds
    assert path.read_text() == good  # recomputed and rewritten


def _undoubled_grid():
    """A library grid closed without `double` (26 points, epsilons at ranks
    4, 8 and 15): the fixpoint gives eps(0) the frontier 8, eps(1), the
    first point >= eps(0)*2, and eps(1) the frontier 9, one past it, as
    `_row_frontier` allows one past a lower row that reaches it."""
    ops = GridOps(add=True, double=False, succ=True, tower_height=0, coeff_cap=1, tail_cap=1, max_monomials=3)
    return build_grid(e("eps(3)"), [e("eps(0)"), e("eps(1)"), e("eps(2)")], ops)


def test_a_row_one_past_a_lower_row_is_a_hit(tmp_path, monkeypatch):
    """Such a relation is not prefix-transitive; its snapshot is a hit all
    the same, and a row two past the lower row is a miss."""
    grid = _undoubled_grid()
    fresh = leq1_cached(grid, str(tmp_path))
    assert grid.epsilons == (4, 8, 15) and fresh.frontiers[4] == 8 and fresh.frontiers[8] == 9
    [path] = tmp_path.iterdir()
    good = path.read_text()

    def miss(grid):
        raise AssertionError("cache miss")

    monkeypatch.setattr(oracle, "leq1_fixpoint", miss)
    again = leq1_cached(grid, str(tmp_path))
    assert again.frontiers == fresh.frontiers and again.rounds == fresh.rounds
    monkeypatch.undo()
    path.write_text(_with_frontier(good, 8, 10))  # 10 <= 15, the rank of the first point >= eps(1)*2
    assert leq1_cached(grid, str(tmp_path)).frontiers == fresh.frontiers
    assert path.read_text() == good  # recomputed and rewritten


def test_failed_write_leaves_no_snapshot(tmp_path, monkeypatch):
    grid = _small_grid()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"frontiers": [')
        raise OSError("disk full")

    monkeypatch.setattr(oracle.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        leq1_cached(grid, str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    rel = leq1_cached(grid, str(tmp_path))
    [path] = tmp_path.iterdir()
    assert str(path) == cache_path(str(tmp_path), grid)
    assert json.loads(path.read_text()) == rel.snapshot()


def test_snapshot_has_no_matrix_and_is_a_hit(tmp_path, monkeypatch):
    grid = _small_grid()
    rel = leq1_cached(grid, str(tmp_path))
    [path] = tmp_path.iterdir()
    assert set(json.loads(path.read_text())) == {"points", "frontiers", "rounds"}

    def miss(grid):
        raise AssertionError("cache miss")

    monkeypatch.setattr(oracle, "leq1_fixpoint", miss)
    again = leq1_cached(grid, str(tmp_path))
    assert again.frontiers == rel.frontiers and again.rounds == rel.rounds
    # a snapshot that also holds the n^2 matrix, as older ones do, is a hit too
    path.write_text(json.dumps(rel.to_json(), sort_keys=True))
    assert leq1_cached(grid, str(tmp_path)).frontiers == rel.frontiers
