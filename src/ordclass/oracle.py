"""Finite-grid decision procedure for the <=1 relation.

The relation is the fixpoint of the following check that removal-only
rounds reach from the full order relation, each round sweeping the rows in
descending order:

    alpha <=1 beta  iff  for every finite B of grid points below beta, there is
    an embedding h of B into the ordinals below alpha that fixes the part of B
    below alpha pointwise, is strictly increasing, and preserves sum triples
    and the current relation facts.

Restricting h's images to grid points empties the relation on any finite
grid (the largest grid point below alpha blocks every image), so images are
drawn from the witness family the anchor theorems guarantee below an epsilon
point: a tall additive principal V above every grid point below alpha, with
window points alpha*mu + delta mapped to V*mu + delta.  Sum triples are then
preserved automatically, because alpha and V are both additively principal
and above every low point; in particular a window point, being at least
alpha, is never the sum of two points below alpha.  So the fast engine tests
no sum triple.  The relation facts of images are decidable:
V reaches its own translates V + delta and nothing at or beyond V*2, points
with delta != 0 or mu >= 2 reach nothing, and a low point c reaches an image
iff it reaches alpha.  Below a non-epsilon point no such family exists and
the row collapses to reflexivity, a documented under-approximation.  The
per-pair check therefore reduces to two window conditions (`_row_frontier`).

The literal check is kept as a slow subset-enumerating reference in
`tests/oracle_reference.py`; the tests require the fixpoint that the same
rounds reach with it to equal `leq1_fixpoint` on drawn grids.  The check
reads the current relation facts, so it is not monotone, and the sweep
order is part of the definition: on some grids two self-consistent
relations are incomparable and their union is not self-consistent, so
there is no greatest one.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import os

from . import terms as tm
from .errors import GridCapExceeded, LevelViolation, OrdinalError
from .grammar import render_ord


class GridOps(tm.Frozen):
    """Closure operations, with the finiteness knobs recorded alongside."""

    __slots__ = ("add", "double", "succ", "tower_height", "coeff_cap", "tail_cap", "max_monomials")

    def __init__(self, add=True, double=True, succ=True, tower_height=2,
                 coeff_cap=None, tail_cap=None, max_monomials=None):
        # the three caps are ints, or None for no cap
        values = (add, double, succ, tower_height, coeff_cap, tail_cap, max_monomials)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def admits(self, t: tm.OrdTerm) -> bool:
        monos = tm.monomials_of(t)
        if self.max_monomials is not None and len(monos) > self.max_monomials:
            return False
        for exp, coeff in monos:
            if isinstance(exp, tm.Zero):
                if self.tail_cap is not None and coeff > self.tail_cap:
                    return False
            elif self.coeff_cap is not None and coeff > self.coeff_cap:
                return False
        return True


# The default closure of build_grid: the preset of the CLI's `grid` command,
# the anchor tests and the report script.
ANCHOR_OPS = GridOps(tower_height=2, coeff_cap=2, tail_cap=2, max_monomials=2)


class Grid(tm.Frozen):
    """The points in increasing order, with the bound and ops that closed them."""

    def __init__(self, points: tuple[tm.OrdTerm, ...], bound: tm.OrdTerm, ops: GridOps):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "ops", ops)
        # point -> its position in `points`; terms are normal forms, so equal
        # ordinals are equal (and equally hashed) terms
        object.__setattr__(self, "ranks", {p: i for i, p in enumerate(points)})
        # id(point) -> its position, so that the grid's own point objects are
        # found without hashing them
        object.__setattr__(self, "ids", {id(p): i for i, p in enumerate(points)})

    def __reduce__(self):
        return Grid, (self.points, self.bound, self.ops)

    def rank_of(self, t: tm.OrdTerm) -> int | None:
        """The position of t in `points`, or None if t is not a grid point.

        The grid holds its points, so no other live object has the id of
        one; a copy of the grid builds its `ids` from its own points."""
        i = self.ids.get(id(t))
        return self.ranks.get(t) if i is None else i

    def index(self, t: tm.OrdTerm) -> int:
        i = self.rank_of(t)
        if i is None:
            raise OrdinalError(f"{render_ord(t)} is not a grid point")
        return i

    def __contains__(self, t):
        return self.rank_of(t) is not None

    @functools.cached_property
    def rendered(self) -> tuple[str, ...]:
        """The points in the grammar's canonical text."""
        return tuple(render_ord(p) for p in self.points)

    @functools.cached_property
    def epsilons(self) -> tuple[int, ...]:
        """The ranks of the epsilon points, increasing."""
        return tuple(i for i, p in enumerate(self.points) if tm.is_epsilon(p))

    @functools.cached_property
    def by_text(self) -> dict:
        """The canonical text of each point -> its rank.  Printed terms
        re-parse to equal terms, so a text found here needs no parse, and
        its rank no term hashed or compared."""
        return {text: i for i, text in enumerate(self.rendered)}

    def digest(self) -> str:
        payload = ";".join(self.rendered)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# The default number of points at which a grid closure stops.
GRID_CAP = 400


def _sorted_terms(terms_it):
    return tuple(sorted(set(terms_it), key=tm.term_key))


def build_grid(bound, seeds=(), ops: GridOps = ANCHOR_OPS, cap: int = GRID_CAP) -> Grid:
    """Smallest closure of seeds + {0, 1, w} under ops, strictly below bound.

    The closure is semi-naive: a round applies the ops only to the points
    the previous round found (the frontier), and adds only the sums with a
    frontier summand, so each ordered pair of points is summed once in all.
    """
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
            # admits makes no compare, and it rejects about half the offers
            if ops.admits(t) and t not in points and t not in new and tm.lt(t, bound):
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
            for a in points - frontier:
                for b in frontier:
                    offer(tm.add(a, b))
                    offer(tm.add(b, a))
            for a in frontier:
                for b in frontier:
                    offer(tm.add(a, b))
        if len(points) + len(new) > cap:
            points |= new
            overflow()
        points |= new
        frontier = new
    return Grid(_sorted_terms(points), bound, ops)


# ---------------------------------------------------------------------------
# the relation


class Leq1Relation:
    def __init__(self, grid: Grid, frontiers: tuple[int, ...], rounds: int):
        self.grid = grid
        self.frontiers = frontiers
        self.rounds = rounds
        # (alpha, k) -> the ranks that place a point in alpha's level-k
        # interval and the table of each prefix's least top-frontier rank,
        # built by the grid eta/ell of `skeleton` at the first query
        self.windows = {}

    # -- queries -------------------------------------------------------------

    def leq1(self, a: tm.OrdTerm, b: tm.OrdTerm) -> bool:
        return self.reaches(self.grid.index(a), self.grid.index(b))

    def reaches(self, i: int, j: int) -> bool:
        """points[i] <=1 points[j], for ranks i and j."""
        return i <= j <= self.frontiers[i]

    def m_hat(self, t: tm.OrdTerm) -> tm.OrdTerm:
        return self.grid.points[self.frontiers[self.grid.index(t)]]

    def span(self, lo: tm.OrdTerm, hi: tm.OrdTerm) -> range:
        """The ranks of the grid points r with lo < r <= hi."""
        return range(self._count_upto(lo), self._count_upto(hi))

    def _count_upto(self, t: tm.OrdTerm) -> int:
        """The number of grid points <= t: read off its rank if t is a
        point, else bisected."""
        i = self.grid.rank_of(t)
        if i is None:
            return tm.bisect_terms(self.grid.points, t, right=True)
        return i + 1

    def points_in(self, lo: tm.OrdTerm, hi: tm.OrdTerm):
        """Grid points r with lo < r <= hi."""
        ranks = self.span(lo, hi)
        return list(self.grid.points[ranks.start : ranks.stop])

    def boundary_suspect(self, t: tm.OrdTerm) -> bool:
        """The frontier of t runs into the grid edge."""
        return self.frontiers[self.grid.index(t)] == len(self.grid.points) - 1

    def class_detect(self, j: int):
        """Grid points with a <1-chain of length j, with witnesses.

        Level 1 holds the epsilon points whose frontier reaches their
        double; a point is in level j + 1 if its frontier reaches a member
        of level j above it, the least such member being its witness.  The
        largest member of level j + 1 lies below the largest of level j, so
        some level within n + 1 is empty, and the levels stop there.
        """
        if j < 1:
            raise LevelViolation(f"class level must be >= 1, got {j}")
        pts, f = self.grid.points, self.frontiers
        level = {}  # rank -> witness ranks
        for i in self.grid.epsilons:
            d = self.grid.ranks.get(tm.mul(pts[i], tm.nat(2)))
            if d is not None and f[i] >= d:
                level[i] = [i, d]
        for _ in range(j - 1):
            if not level:
                break
            members = sorted(level)
            nxt = {}
            for i in range(len(pts)):
                k = bisect.bisect_right(members, i)
                if k < len(members) and members[k] <= f[i]:
                    nxt[i] = [i] + level[members[k]]
            level = nxt
        return [(pts[i], tuple(pts[w] for w in level[i])) for i in sorted(level)]

    # -- exports ---------------------------------------------------------------

    def snapshot(self):
        """What a cache snapshot stores: the points, frontiers and rounds."""
        return {
            "points": list(self.grid.rendered),
            "frontiers": list(self.frontiers),
            "rounds": self.rounds,
        }

    def to_json(self):
        """The export: the snapshot plus each row of the relation as a
        0/1 matrix string."""
        n = len(self.grid.points)
        data = self.snapshot()
        data["matrix"] = [
            "0" * i + "1" * (fi - i + 1) + "0" * (n - fi - 1)
            for i, fi in enumerate(self.frontiers)
        ]
        return data

    def to_dot(self) -> str:
        """Covering relation of <1 as a DOT digraph.

        i <1 j is covered unless some k strictly between them has i <1 k
        (true, as k < j <= f_i) and k <1 j, that is f_k >= j.
        """
        f = self.frontiers
        lines = ["digraph leq1 {", "  rankdir=BT;"]
        for i, text in enumerate(self.grid.rendered):
            lines.append(f'  n{i} [label="{text}"];')
        for i, fi in enumerate(f):
            reach = i  # the furthest frontier of the rows strictly between i and j
            for j in range(i + 1, fi + 1):
                if reach < j:
                    lines.append(f"  n{i} -> n{j};")
                reach = max(reach, f[j])
        lines.append("}")
        return "\n".join(lines) + "\n"


# removal-only rounds before leq1_fixpoint gives up; the anchor grids take 2
MAX_ROUNDS = 64


def leq1_fixpoint(grid: Grid) -> Leq1Relation:
    pts = grid.points
    n = len(pts)
    doubles = [tm.mul(p, tm.nat(2)) if tm.is_epsilon(p) else None for p in pts]
    f = [n - 1] * n
    rounds = 0
    changed = True
    while changed:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise OrdinalError("leq1 fixpoint did not converge")
        changed = False
        for i in range(n - 1, -1, -1):
            new = _row_frontier(i, f, pts, doubles[i])
            if new < f[i]:
                f[i] = new
                changed = True
    return Leq1Relation(grid, tuple(f), rounds)


def _row_frontier(i, f, pts, alpha2):
    """The new frontier of row i; alpha2 is points[i]*2, or None if
    points[i] is not an epsilon (its row is reflexive only).

    A frontier j is at most f[i], the window of points from alpha up to
    points[j-1] lies below alpha*2, and a low row (c < i) whose frontier
    reaches alpha reaches j - 1 too.  Rows are swept in descending order, so
    a window point x (strictly between alpha and alpha*2, hence no epsilon)
    already has f[x] = x.
    """
    if alpha2 is None:
        return i
    low_ends = [fc for fc in f[:i] if fc >= i]
    return min(f[i], tm.bisect_terms(pts, alpha2), 1 + min(low_ends, default=f[i]))


def cache_path(cache_dir, grid: Grid):
    return os.path.join(cache_dir, f"leq1_{grid.digest()}.json")


def leq1_cached(grid: Grid, cache_dir=None) -> Leq1Relation:
    """Compute or reload the relation; snapshots keyed by grid digest.

    A snapshot is used only if it is JSON for this very grid that passes
    `_snapshot_fits`; any other file is a miss, and the relation is
    computed again and the file rewritten.  A snapshot is written to a
    temporary file in the cache directory and then renamed, so a failed
    write leaves no partial file.
    """
    if cache_dir is None:
        return leq1_fixpoint(grid)
    path = cache_path(cache_dir, grid)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except ValueError:  # malformed JSON or text
            data = None
        if _snapshot_fits(data, grid):
            return Leq1Relation(grid, tuple(data["frontiers"]), data["rounds"])
    rel = leq1_fixpoint(grid)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(rel.snapshot(), fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return rel


def _snapshot_fits(data, grid: Grid) -> bool:
    """The snapshot is for this grid, with one frontier i <= f_i < n per
    point, and has what every relation `leq1_fixpoint` computes: 1 to
    MAX_ROUNDS rounds, a reflexive row at each non-epsilon point, at each
    epsilon alpha a row that reaches no further than the first point at or
    above alpha*2, and f_j <= f_i + 1 for i <= j <= f_i (`_row_frontier`:
    in the last round no row changed, so a row j that row i reaches ends at
    most one past f_i)."""
    if not isinstance(data, dict) or data.get("points") != list(grid.rendered):
        return False
    f, n, rounds = data.get("frontiers"), len(grid.points), data.get("rounds")
    pts, eps = grid.points, set(grid.epsilons)
    return (
        type(rounds) is int
        and 1 <= rounds <= MAX_ROUNDS
        and isinstance(f, list)
        and len(f) == n
        and all(type(fi) is int and i <= fi < n for i, fi in enumerate(f))
        and all(fi == i for i, fi in enumerate(f) if i not in eps)
        and all(f[i] <= tm.bisect_terms(pts, tm.mul(pts[i], tm.nat(2))) for i in eps)
        and all(f[j] <= fi + 1 for i, fi in enumerate(f) for j in range(i, fi + 1))
    )
