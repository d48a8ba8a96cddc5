"""Finite-grid decision procedure for the <=1 relation.

The relation is the greatest self-consistent fixpoint, reached from the full
order relation by removal-only rounds, of the check:

    alpha <=1 beta  iff  for every finite B of grid points below beta with at most
    `subset_cap` points of B above alpha, there is an embedding h of B into
    the ordinals below alpha that fixes the part of B below alpha pointwise, is strictly
    increasing, and preserves sum triples and the current relation facts.

Restricting h's images to grid points empties the relation on any finite
grid (the largest grid point below alpha blocks every image), so images are
drawn from the witness family the anchor theorems guarantee below an epsilon
point: a tall additive principal V above every grid point below alpha, with
window points alpha*mu + delta mapped to V*mu + delta.  Sum triples are then
preserved automatically, and the relation facts of images are decidable:
V reaches its own translates V + delta and nothing at or beyond V*2, points
with delta != 0 or mu >= 2 reach nothing, and a low point c reaches an image
iff it reaches alpha.  Below a non-epsilon point no such family exists and
the row collapses to reflexivity, a documented under-approximation.  The
per-pair check therefore reduces to window-consistency conditions; the
module keeps a slow subset-enumerating checker for cross-validation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

from . import terms as tm
from .errors import GridCapExceeded, OrdinalError
from .grammar import render_ord
from .terms import LT


@dataclass(frozen=True)
class GridOps:
    """Closure operations, with the finiteness knobs recorded alongside."""

    add: bool = True
    double: bool = True
    succ: bool = True
    tower_height: int = 2
    coeff_cap: int | None = None
    tail_cap: int | None = None
    max_monomials: int | None = None

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


# The closure preset of the CLI's `grid` command, the anchor tests and the
# report script.
ANCHOR_OPS = GridOps(tower_height=2, coeff_cap=2, tail_cap=2, max_monomials=2)


@dataclass(frozen=True)
class Grid:
    points: tuple[tm.OrdTerm, ...]
    bound: tm.OrdTerm
    ops: GridOps
    # point -> its position in `points`; terms are normal forms, so equal
    # ordinals are equal (and equally hashed) terms
    ranks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ranks", {p: i for i, p in enumerate(self.points)})

    def index(self, t: tm.OrdTerm) -> int:
        try:
            return self.ranks[t]
        except KeyError:
            raise OrdinalError(f"{render_ord(t)} is not a grid point") from None

    def __contains__(self, t):
        return t in self.ranks

    @functools.cached_property
    def rendered(self) -> tuple[str, ...]:
        """The points in the grammar's canonical text."""
        return tuple(render_ord(p) for p in self.points)

    def digest(self) -> str:
        payload = ";".join(self.rendered)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _sorted_terms(terms_it):
    return tuple(
        sorted(set(terms_it), key=functools.cmp_to_key(tm.compare))
    )


def build_grid(bound, seeds=(), ops: GridOps | None = None, cap: int = 400) -> Grid:
    """Smallest closure of seeds + {0, 1, w} under ops, strictly below bound.

    The closure is semi-naive: a round applies the ops only to the points
    the previous round found (the frontier), and adds only the sums with a
    frontier summand, so each ordered pair of points is summed once in all.
    """
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


@dataclass
class Leq1Relation:
    grid: Grid
    frontiers: tuple[int, ...]
    subset_cap: int
    rounds: int

    # -- queries -------------------------------------------------------------

    def leq1(self, a: tm.OrdTerm, b: tm.OrdTerm) -> bool:
        i = self.grid.index(a)
        j = self.grid.index(b)
        return j <= self.frontiers[i] if i <= j else False

    def m_hat(self, t: tm.OrdTerm) -> tm.OrdTerm:
        return self.grid.points[self.frontiers[self.grid.index(t)]]

    def points_in(self, lo: tm.OrdTerm, hi: tm.OrdTerm):
        """Grid points r with lo < r <= hi."""
        pts = self.grid.points
        lo, hi = tm.bisect_terms(pts, lo, right=True), tm.bisect_terms(pts, hi, right=True)
        return list(pts[lo:hi])

    def boundary_suspect(self, t: tm.OrdTerm) -> bool:
        """The frontier of t runs into the grid edge."""
        return self.frontiers[self.grid.index(t)] == len(self.grid.points) - 1

    def class_detect(self, j: int):
        """Grid points with a <1-chain of length j, with witnesses."""
        pts = self.grid.points
        level: dict[int, list[int]] = {}
        members = []
        for i, p in enumerate(pts):
            if not tm.is_epsilon(p):
                continue
            d = self.grid.ranks.get(tm.mul(p, tm.nat(2)))
            if d is None:
                continue
            if self.frontiers[i] >= d:
                members.append(i)
                level[i] = [i, d]
        for _ in range(j - 1):
            nxt = []
            nxt_wit = {}
            for i in range(len(pts)):
                for b in members:
                    if i < b and self.frontiers[i] >= b:
                        nxt.append(i)
                        nxt_wit[i] = [i] + level[b]
                        break
            members, level = nxt, nxt_wit
        return [
            (pts[i], tuple(pts[w] for w in level[i])) for i in sorted(members)
        ]

    def class_level_of(self, t: tm.OrdTerm) -> int:
        if t not in self.grid:
            return 0
        j = 0
        while True:
            hits = [p for p, _ in self.class_detect(j + 1)]
            if not any(tm.eq(p, t) for p in hits):
                return j
            j += 1

    # -- exports ---------------------------------------------------------------

    def to_json(self):
        n = len(self.grid.points)
        return {
            "points": list(self.grid.rendered),
            "frontiers": list(self.frontiers),
            "matrix": [
                "0" * i + "1" * (fi - i + 1) + "0" * (n - fi - 1)
                for i, fi in enumerate(self.frontiers)
            ],
            "subset_cap": self.subset_cap,
            "rounds": self.rounds,
        }

    def strict_pairs(self):
        for i, fi in enumerate(self.frontiers):
            for j in range(i + 1, fi + 1):
                yield i, j

    def to_dot(self) -> str:
        """Covering relation of <1 as a DOT digraph."""
        pts = self.grid.points
        strict = {(i, j) for i, j in self.strict_pairs()}
        lines = ["digraph leq1 {", "  rankdir=BT;"]
        for i, p in enumerate(pts):
            lines.append(f'  n{i} [label="{render_ord(p)}"];')
        for i, j in sorted(strict):
            if any((i, k) in strict and (k, j) in strict for k in range(i + 1, j)):
                continue
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _decomposition_bounds(points):
    """For each point, the least grid level below which it splits as a sum.

    That is the least max(rank a, rank b) over nonzero grid points a, b with
    a + b = p, or None.  Write p in CNF as M[:i] + w^e*c + M[i+1:] with
    (e, c) = M[i].  Then every such b is a tail w^e*x + M[i+1:] with
    1 <= x <= c, and the a that go with it are exactly the ordinals in
    [a0, a0 + w^e) with a0 = M[:i] + w^e*(c - x), since b absorbs the part of
    a below w^e.  The best a is the least nonzero grid point in that interval.
    Only the x for which b is a grid point are tried, so a large c (no
    coeff_cap) costs no more than a small one.
    """
    n = len(points)
    # grid points w^e*x + T, keyed by (e, T), in increasing x and rank
    tails = {}
    for j, q in enumerate(points):
        monos = tm.monomials_of(q)
        if monos:
            tails.setdefault((monos[0][0], monos[1:]), []).append((monos[0][1], j))
    best = [None] * n
    for k, p in enumerate(points):
        monos = tm.monomials_of(p)
        for i, (exp, c) in enumerate(monos):
            head = monos[:i]
            for x, j in tails.get((exp, monos[i + 1 :]), ()):
                if x > c or (best[k] is not None and best[k] <= j):
                    break
                # a0 < p, so the least nonzero point at or above a0 exists
                lo = tm.bisect_terms(points, tm.from_monomials(head + ((exp, c - x),)))
                if isinstance(points[lo], tm.Zero):
                    lo += 1
                if tm.lt(points[lo], tm.from_monomials(head + ((exp, c - x + 1),))):
                    cut = max(lo, j)
                    if best[k] is None or cut < best[k]:
                        best[k] = cut
    return best


def leq1_fixpoint(grid: Grid, subset_cap: int = 4, max_rounds: int = 64) -> Leq1Relation:
    if subset_cap < 2:
        raise OrdinalError("subset_cap must be >= 2")
    pts = grid.points
    n = len(pts)
    is_eps = [tm.is_epsilon(p) for p in pts]
    doubles = [tm.mul(p, tm.nat(2)) if is_eps[i] else None for i, p in enumerate(pts)]
    decomp = _decomposition_bounds(pts)
    f = [n - 1] * n
    rounds = 0
    changed = True
    while changed:
        rounds += 1
        if rounds > max_rounds:
            raise OrdinalError("leq1 fixpoint did not converge")
        changed = False
        for i in range(n - 1, -1, -1):
            new = _row_frontier(i, f, pts, is_eps, doubles[i], decomp)
            if new < f[i]:
                f[i] = new
                changed = True
    return Leq1Relation(grid, tuple(f), subset_cap, rounds)


def _row_frontier(i, f, pts, is_eps, alpha2, decomp):
    if not is_eps[i]:
        return i
    best = i
    for cand in range(i + 1, f[i] + 1):
        w_hi = cand - 1
        if w_hi > i:
            # every already-accepted window point must sit below alpha*2
            if tm.compare(pts[w_hi], alpha2) is not LT:
                break
            # window rows other than alpha must be reflexive-only
            if any(f[x] >= w_hi for x in range(i + 1, w_hi)):
                break
            # no window point may split as a sum of two lower grid points
            if decomp[w_hi] is not None and decomp[w_hi] < i:
                break
        # a low row's frontier may not end inside the window
        stop = False
        for c in range(i):
            if i <= f[c] < w_hi:
                stop = True
                break
        if stop:
            break
        best = cand
    return best


# ---------------------------------------------------------------------------
# slow reference checker (tests cross-validate the collapsed row conditions)


def _eps_split(y, alpha_leaf):
    """y = alpha*mu + delta with delta < alpha; returns (mu, delta)."""
    a = tm.Leaf(alpha_leaf)
    head = []
    tail = []
    for exp, coeff in tm.monomials_of(y):
        if tm.compare(exp, a) is not LT:
            head.append((tm.left_subtract(a, exp), coeff))
        else:
            tail.append((exp, coeff))
    return tm.from_monomials(head), tm.from_monomials(tail)


def slow_check_pair(rel_frontiers, grid, i, j, subset_cap):
    """Literal subset-enumerating check of the pair (points[i], points[j])."""
    pts = grid.points
    alpha = pts[i]
    if not tm.is_epsilon(alpha):
        return j <= i
    window = list(range(i, j))

    def fact(a_idx, b_idx):
        return b_idx <= rel_frontiers[a_idx]

    def image(x_idx):
        return _eps_split(pts[x_idx], alpha.leaf)

    def image_fact(low_or_img_a, img_b):
        # (c <1 V-form) := (c <1 alpha); V reaches exactly its own translates
        kind_a, a = low_or_img_a
        mu_b, delta_b = img_b
        if kind_a == "low":
            return fact(a, i)
        mu_a, delta_a = a
        if not (tm.eq(mu_a, tm.one()) and isinstance(delta_a, tm.Zero)):
            return False
        return tm.eq(mu_b, tm.one())

    for size in range(1, subset_cap + 1):
        for high in itertools.combinations(window, size):
            imgs = {x: image(x) for x in high}
            ok = True
            # sum triples among highs and against every low, both directions
            members = [("low", c) for c in range(i)] + [("high", x) for x in high]
            for a_kind, a in members:
                for b_kind, b in members:
                    s = tm.add(pts[a], pts[b])
                    sa = pts[a] if a_kind == "low" else _img_term(imgs[a])
                    sb = pts[b] if b_kind == "low" else _img_term(imgs[b])
                    mapped = tm.add(sa, sb)
                    for c_kind, c in members:
                        sc = pts[c] if c_kind == "low" else _img_term(imgs[c])
                        if tm.eq(mapped, sc) != tm.eq(s, pts[c]):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                return False
            # relation facts, low->high and high->high
            for x in high:
                for c in range(i):
                    if fact(c, x) != image_fact(("low", c), imgs[x]):
                        return False
                for y in high:
                    if y <= x:
                        continue
                    if fact(x, y) != image_fact(("img", imgs[x]), imgs[y]):
                        return False
    return True


_V = tm.ClassAtom("__V__", 1, 10**9)


def _img_term(img):
    mu, delta = img
    return tm.add(tm.mul(tm.Leaf(_V), mu), delta)


def cache_path(cache_dir, grid: Grid, subset_cap: int):
    import os

    return os.path.join(cache_dir, f"leq1_{grid.digest()}_s{subset_cap}.json")


def leq1_cached(grid: Grid, subset_cap: int = 4, cache_dir=None) -> Leq1Relation:
    """Compute or reload the relation; snapshots keyed by grid digest and cap.

    A snapshot is used only if it is JSON for this very grid and cap, with
    one frontier i <= f_i < n per point; any other file is a miss, and the
    relation is computed again and the file rewritten.
    """
    import os

    if cache_dir is None:
        return leq1_fixpoint(grid, subset_cap)
    path = cache_path(cache_dir, grid, subset_cap)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except ValueError:  # malformed JSON or text
            data = None
        if _snapshot_fits(data, grid, subset_cap):
            return Leq1Relation(grid, tuple(data["frontiers"]), subset_cap, data["rounds"])
    rel = leq1_fixpoint(grid, subset_cap)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(rel.to_json(), fh, sort_keys=True)
    return rel


def _snapshot_fits(data, grid: Grid, subset_cap: int) -> bool:
    if not isinstance(data, dict) or data.get("points") != list(grid.rendered):
        return False
    f, n = data.get("frontiers"), len(grid.points)
    return (
        data.get("subset_cap") == subset_cap
        and type(data.get("rounds")) is int
        and isinstance(f, list)
        and len(f) == n
        and all(type(fi) is int and i <= fi < n for i, fi in enumerate(f))
    )
