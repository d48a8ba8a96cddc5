"""Class(n) machinery over declared atoms (structural) and grid ordinals
(oracle): eta/l operators, canonical sequences, T-sets, f/S-sets, g-maps.

eta, l and the canonical points read m from the one `source` they are
given: a grid relation (Leq1Relation), whose m-hat is its frontiers, or a
ClassContext, whose m is its annotations and the derivation rules in
ClassContext.m_of.  g-maps read no m and take no source.
"""

from __future__ import annotations

from . import terms as tm
from .context import ClassContext, chain_bound, lambda_locate, succ_chain
from .errors import (
    IterationCapExceeded,
    LevelViolation,
    OrderUndecidable,
    RegimeMixed,
    Undecidable,
)
from .oracle import Leq1Relation
from .subst import SubstMap, apply_subst, make_map
from .terms import EQ, GT, LT

O_RECURSION_CAP = 16


def _check_level(k, alpha):
    if k < 1:
        raise LevelViolation("class level must be >= 1")
    if tm.leaf_level(alpha) < k:
        raise LevelViolation(
            f"{alpha!r} has level {tm.leaf_level(alpha)} < {k}"
        )


def _outside(k, alpha, t, below):
    """The error for a t below alpha (below) or at or above alpha(+^k)."""
    if below:
        return LevelViolation(f"{t!r} lies below {alpha!r}")
    return LevelViolation(f"{t!r} is not below {alpha!r}(+^{k})")


def _check_interval(k, alpha, t):
    _check_level(k, alpha)
    if tm.compare(t, tm.Leaf(alpha)) is LT:
        raise _outside(k, alpha, t, True)
    if tm.compare(t, tm.Leaf(tm.mk_succ(alpha, k))) is not LT:
        raise _outside(k, alpha, t, False)


def _inside(r, a, t):
    return tm.compare(r, a) is GT and tm.compare(r, t) is not GT


def _structural_candidates(ctx, chain, bound, t):
    """{r: m(r)} for the candidates r in (alpha, t]: the points of alpha's
    chain below alpha(+^k) (chain = succ_chain(alpha, k), each with the
    chain bound as its m), the m-annotated terms (ClassContext.m_keys_in),
    and t itself.
    """
    a = tm.Leaf(chain[0])
    keys = ctx.m_keys_in(a, t)
    out = {r: bound for r in map(tm.Leaf, chain[1:]) if _inside(r, a, t)}
    for r in keys:
        out[r] = ctx.m_table[r]
    if t not in out:
        out[t] = ctx.m_of(t)
    return out


def _m_pairs(k, alpha, t, ctx):
    """(bound, triples): the chain bound of alpha, and None if t is at most
    it, else an (r, m(r), rank) for each candidate r in (alpha, t].

    Ranks order m-values as integers, equal values with equal ranks: the
    rank of an annotated value (ClassContext.m_ranks).  A derived m has
    rank None.
    """
    _check_interval(k, alpha, t)
    chain = succ_chain(alpha, k)
    bound = tm.mul(tm.Leaf(chain[-1]), tm.nat(2))  # chain_bound(alpha, k)
    if tm.compare(t, bound) is not GT:
        return bound, None
    ranks = ctx.m_ranks() or {}
    pairs = _structural_candidates(ctx, chain, bound, t).items()
    return bound, [(r, m, ranks.get(id(m))) for r, m in pairs]


def _grid_window(rel, k, alpha):
    """(bound, ranks) for alpha's level-k interval on rel's grid, kept in
    rel.windows: the chain bound of alpha (the grid's own point if it is
    one), and ranks = (below, upper, low, start, first).  The first four
    are the numbers of points below alpha, below alpha(+^k), at most the
    bound, and at most alpha; first[i - start], for start <= i < upper, is
    the least rank in [start, i] whose frontier is the largest there, found
    in one pass over the frontiers.

    ranks is None if alpha is not a concrete epsilon: a grid may hold a
    leaf whose order against a symbolic alpha is undecidable, which a
    bisection can step past, so such an alpha is compared as a term.
    Against a concrete epsilon every term has a decidable place.
    """
    window = rel.windows.get((alpha, k))
    if window is None:
        _check_level(k, alpha)
        grid = rel.grid
        bound = chain_bound(alpha, k)
        i = grid.rank_of(bound)
        if i is not None:
            bound = grid.points[i]
        ranks = None
        if isinstance(alpha, tm.ConcreteEps):
            a = tm.Leaf(alpha)
            start = rel._count_upto(a)
            upper = tm.bisect_terms(grid.points, tm.Leaf(tm.mk_succ(alpha, k)))
            f, first, top = rel.frontiers, [], start
            for j in range(start, upper):
                if f[j] > f[top]:
                    top = j
                first.append(top)
            ranks = (
                tm.bisect_terms(grid.points, a),
                upper,
                tm.bisect_terms(grid.points, bound, right=True),
                start,
                first,
            )
        window = rel.windows[(alpha, k)] = (bound, ranks)
    return window


def _grid_top(k, alpha, t, rel):
    """(bound, r): the chain bound of alpha, and None if t is at most it,
    else the least rank r in (alpha, t] whose frontier is the largest there.

    For a grid point t the interval checks read its rank against the
    window's, and r is read off the window's table; any other t is compared
    as a term, and is then no grid point.
    """
    bound, ranks = _grid_window(rel, k, alpha)
    i = rel.grid.rank_of(t)
    if i is None or ranks is None:
        _check_interval(k, alpha, t)
        if tm.compare(t, bound) is not GT:
            return bound, None
        rel.grid.index(t)  # t must be a grid point
        span, f = rel.span(tm.Leaf(alpha), t), rel.frontiers
        return bound, f.index(max(f[span.start : span.stop]), span.start, span.stop)
    below, upper, low, start, first = ranks
    if i < below or i >= upper:
        raise _outside(k, alpha, t, i < below)
    if i < low:
        return bound, None
    return bound, first[i - start]


def _order(x, y):
    """The order of two (value, rank) pairs: by rank where both have one,
    else by comparing the values."""
    i, j = x[1], y[1]
    if i is None or j is None:
        return tm.compare(x[0], y[0])
    return GT if i > j else LT if i < j else EQ


def _decided(p, q):
    """_order(p, q), or None where it is undecidable."""
    try:
        return _order(p, q)
    except OrderUndecidable:
        return None


def _extremum(pairs, side):
    """The (value, rank) pair whose value lies at or beyond every other on
    `side` (GT for the greatest, LT for the least), through chains of
    decided comparisons; ranks order the ranked values.

    A value with no decided order against the best so far waits.  The
    waiting values are retried whenever the best moves, and at the end each
    is placed by a value already placed at or short of the best.
    OrderUndecidable if some value is still waiting then.
    """
    queue = list(pairs)
    best, placed, waiting = queue.pop(0), [], []
    for p in queue:  # retried values join its end
        order = _decided(p, best)
        if order is None:
            waiting.append(p)
        elif order is side:
            placed.append(best)
            best = p
            queue += waiting
            waiting = []
        else:
            placed.append(p)
    while waiting:
        left = []
        for p in waiting:
            short = any(_decided(p, q) not in (side, None) for q in placed)
            (placed if short else left).append(p)
        if len(left) == len(waiting):
            raise OrderUndecidable(left[0][0], best[0])
        waiting = left
    return best


def _greatest_m(triples):
    """(m, rank) for the greatest m of the (r, m, rank) triples.  The ranked
    m's go first, the top rank first, so that the other ranked m's are
    placed by their ranks and only the unranked ones are compared as
    terms."""
    pairs = [(m, rank) for _, m, rank in triples]
    pairs.sort(key=lambda p: -1 if p[1] is None else p[1], reverse=True)
    return _extremum(pairs, GT)


def eta_compute(source, k, alpha, t):
    """max m over (alpha, t], with the degenerate chain value on the low part.

    On a grid, m-hat(r) is the point at r's frontier, so the maximum is the
    point at the largest frontier of the span.  In a context it is the
    greatest m over the candidates, which are stated facts only: the points
    of alpha's chain below alpha(+^k), the m-annotated terms in (alpha, t],
    and t.  A registered leaf is no candidate unless it is one of these.
    """
    if isinstance(source, Leq1Relation):
        bound, r = _grid_top(k, alpha, t, source)
        return bound if r is None else source.grid.points[source.frontiers[r]]
    bound, triples = _m_pairs(k, alpha, t, source)
    return bound if triples is None else _greatest_m(triples)[0]


def l_compute(source, k, alpha, t):
    """Least r in (alpha, t] whose m realizes the eta maximum."""
    if isinstance(source, Leq1Relation):
        bound, r = _grid_top(k, alpha, t, source)
        return bound if r is None else source.grid.points[r]
    bound, triples = _m_pairs(k, alpha, t, source)
    if triples is None:
        return bound
    eta, top = _greatest_m(triples)
    # ranks number the distinct values, and an unranked eta lies above every
    # ranked m (_greatest_m starts at the top rank and only moves up); normal
    # forms are unique, so an unranked m reaches eta if it is == eta
    at_top = [
        (r, None) for r, m, rank in triples if (m == eta if rank is None else rank == top)
    ]
    return _extremum(at_top, LT)[0]


# ---------------------------------------------------------------------------
# canonical sequences


class CanonicalData(tm.Frozen):
    __slots__ = ("x", "gamma", "o_chain")

    def __init__(self, x: tm.OrdTerm, gamma: tm.OrdTerm, o_chain: tuple[tm.EpsLeaf, ...]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "o_chain", o_chain)  # o_1 > ... > o_i = e ((e,) for i = 1)


def _symbolic_gamma(x: tm.OrdTerm) -> tm.OrdTerm:
    """Symbolic stand-in for m(x), x = w_k(e) with k >= 1: w_k(e) + w_{k-1}(e).
    w_{k-1}(e) is x's exponent, whose own head exponent lies below it, so
    the sum is x's monomial followed by the exponent's monomials; it keeps
    x's monomial, so comparing it with x stops at that exponent's identity."""
    exponent = x.monomials[0][0]
    return tm.Cnf(x.monomials + exponent.monomials)


def canonical_point(source, i, e, k) -> CanonicalData:
    """The paper-indexed point x_k(i, e) and its reach gamma_k(i, e).

    A grid relation gives gamma as its m-hat and carries level 1 only; a
    context is given the symbolic gamma as an m-annotation."""
    if i < 1 or k < 1:
        raise LevelViolation("canonical sequence needs i >= 1 and k >= 1")
    if tm.leaf_level(e) < i:
        raise LevelViolation(f"{e!r} has level below {i}")
    if isinstance(source, Leq1Relation):
        if i > 1:
            raise RegimeMixed("a grid relation only carries level-1 canonical data")
        x = tm.omega_tower(e, k)
        return CanonicalData(x, source.m_hat(x), (e,))
    # o_{i-1} = x_k(i, e), o_{j-1} = x_k(j, o_j); gamma = m(o_1)
    chain = [e]
    cur = e
    for j in range(i, 1, -1):
        cur = tm.mk_canonical(j - 1, cur, k)
        source.register(cur)
        chain.append(cur)
    x = tm.omega_tower(chain[-1], k)
    gamma = _symbolic_gamma(x)
    source.set_m(x, gamma)
    for leaf in chain[1:]:
        source.set_m(tm.Leaf(leaf), gamma)
    point = x if i == 1 else tm.Leaf(chain[1])
    return CanonicalData(point, gamma, tuple(reversed(chain)))


# ---------------------------------------------------------------------------
# T-sets


def T_set(ctx: ClassContext, n: int, alpha: tm.EpsLeaf, t: tm.OrdTerm):
    """T(n, alpha, t) as a strictly decreasing tuple of leaves."""
    if n < 1:
        raise LevelViolation("T-set level must be >= 1")
    upper = tm.Leaf(tm.mk_succ(alpha, n))
    if tm.compare(t, upper) is not LT:
        raise LevelViolation(f"{t!r} is not below {alpha!r}(+^{n})")
    if n == 1:
        return tm.ep_set(t)
    a = tm.Leaf(alpha)
    if not isinstance(t, tm.Leaf):
        members = (x for e in tm.ep_set(t) for x in T_set(ctx, n, alpha, tm.Leaf(e)))
        return tm.sort_leaves(members, reverse=True)
    leaf = t.leaf
    if tm.compare(t, a) is not GT:
        return (leaf,)
    # t is an epsilon inside (alpha, alpha(+^n)): iterate the O-recursion
    m_t = ctx.m_of(t)
    chain = []
    cur = lambda_locate(1, m_t)
    chain.append(cur)
    for j in range(2, n + 1):
        cur = lambda_locate(j, tm.Leaf(cur))
        chain.append(cur)
    members = set()
    steps = {}  # delta -> _o_step(ctx, n, delta), once: every round revisits the members
    frontier = [c for c in chain if _in_open_interval(c, a, upper)]
    for _ in range(O_RECURSION_CAP):
        new = set()
        for delta in frontier:
            if delta not in steps:
                steps[delta] = _o_step(ctx, n, delta)
            new.update(steps[delta])
        if new <= members:
            return tm.sort_leaves(members, reverse=True)
        members |= new
        frontier = [c for c in members if _in_open_interval(c, a, upper)]
    raise IterationCapExceeded(
        f"O-recursion did not stabilize within {O_RECURSION_CAP} rounds",
        trace=tm.sort_leaves(members, reverse=True),
    )


def _o_step(ctx, n, delta):
    """The leaves one O-recursion round adds for delta, of level k:
    f(k+1, lambda)(delta), ep(m(delta)) and lambda = lambda(k+1, delta);
    none unless 1 <= k <= n-1."""
    k = tm.leaf_level(delta)
    if not 1 <= k <= n - 1:
        return ()
    lam = lambda_locate(k + 1, tm.Leaf(delta))
    if not isinstance(lam, (tm.ConcreteEps, tm.ClassAtom, tm.Succ, tm.CanonicalPoint)):
        raise Undecidable(f"lambda({k + 1}, {delta!r}) is not an ordinal")
    return (*f_and_S(ctx, k + 1, lam, delta)[1], *tm.ep_set(ctx.m_of(tm.Leaf(delta))), lam)


def _in_open_interval(e: tm.EpsLeaf, lo: tm.OrdTerm, hi: tm.OrdTerm) -> bool:
    le = tm.Leaf(e)
    return tm.compare(le, lo) is GT and tm.compare(le, hi) is LT


# ---------------------------------------------------------------------------
# f- and S-sets


def f_and_S(ctx: ClassContext, n: int, alpha: tm.EpsLeaf, delta: tm.EpsLeaf):
    """(S, f): S(n, alpha)(delta) over the known skeleton, increasing, and
    f(n, alpha)(delta) = (sigma_1, ..., sigma_q), decreasing."""
    if n == 1:
        return (), ()
    a = tm.Leaf(alpha)
    upper = tm.Leaf(tm.mk_succ(alpha, n))
    d = tm.Leaf(delta)
    m_delta = ctx.m_of(d)
    s_members = []
    for e in ctx.leaves_between(a, d, min_level=n - 1):
        if not _in_open_interval(e, a, upper):
            continue
        g = g_map(n - 1, e, delta)
        moved = apply_subst(ctx.m_of(tm.Leaf(e)), g)
        if tm.compare(moved, m_delta) is not LT:
            s_members.append(e)
    s_members = tm.sort_leaves(s_members)
    f_elems = [delta]
    if s_members:
        sup = s_members[-1]
        f_elems.extend(f_and_S(ctx, n, alpha, sup)[1])
    return s_members, tuple(f_elems)


# ---------------------------------------------------------------------------
# g-maps


def g_map(n: int, alpha: tm.EpsLeaf, c: tm.EpsLeaf) -> SubstMap:
    """The interval-transport substitution g(n, alpha, c)."""
    if n < 1:
        raise LevelViolation("g-map level must be >= 1")
    if tm.leaf_level(alpha) < n:
        raise LevelViolation(f"{alpha!r} has level below {n}")
    if tm.leaf_level(c) < n:
        raise LevelViolation(f"{c!r} has level below {n}")
    threshold = (
        alpha if tm.compare_leaves(alpha, c) is not GT else c
    )
    if n == 1:
        return make_map([(alpha, c)], threshold=threshold)
    return make_map([(alpha, c)], threshold=threshold, rebase=(n, alpha, c))
