"""Slow references the tests hold the fast oracle to.

- The literal <=1 check that `oracle.leq1_fixpoint` collapses into two
  window conditions: `slow_check_pair` enumerates the subsets B of alpha's
  window, and `reference_fixpoint` iterates it from the full order.
- Grid eta and l by term comparisons: `reference_m_pairs` checks t's place
  in alpha's interval with `terms.compare` and lists an (r, m-hat(r), rank)
  triple for every grid point r in (alpha, t]; `reference_eta` and
  `reference_ell` take the maximum over the triples with `_eta_of` and
  `_ell_of`.
- The maximum of (r, m, rank) triples as the structural eta/l once took it
  (`_greatest`, `_extreme`, `_eta_of`, `_ell_of`): a ranked pass that is
  rerun as a term loop when it meets an undecidable pair.  Wherever it
  answers, the one-pass maximum of `skeleton` must give the same answer.
- The T-set as it was before `skeleton.T_set` kept each delta's step of
  the O-recursion for the later rounds (`reference_T_set`): it reruns
  every member's step in every round.  `T_set` must give the same leaves,
  or raise the same exception with the same message.
"""

from __future__ import annotations

import itertools

from ordclass import terms as tm
from ordclass.context import chain_bound, lambda_locate
from ordclass.errors import IterationCapExceeded, LevelViolation, OrderUndecidable, Undecidable
from ordclass.skeleton import O_RECURSION_CAP, _check_interval, _in_open_interval, f_and_S
from ordclass.terms import EQ, GT, LT


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
    """Literal subset-enumerating check of the pair (points[i], points[j]).

    Sum triples whose summands are both low (below alpha) are skipped: such
    a sum is below alpha, an epsilon, on both sides of h, which fixes low
    points, and no point at or above alpha, nor its image, equals it, so no
    such triple can fail.
    """
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
                    if a_kind == b_kind == "low":
                        continue
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


def reference_fixpoint(grid, subset_cap, order=None):
    """The fixpoint of `slow_check_pair` reached from the full order.

    Each round sweeps the rows in `order`, by default descending as in
    `leq1_fixpoint`, and cuts a row just before its first pair the check
    rejects, using the cuts made so far; rounds repeat until one cuts
    nothing.
    """
    n = len(grid.points)
    f = [n - 1] * n
    changed = True
    while changed:
        changed = False
        for i in order or range(n - 1, -1, -1):
            for j in range(i + 1, f[i] + 1):
                if not slow_check_pair(f, grid, i, j, subset_cap):
                    f[i] = j - 1
                    changed = True
                    break
    return tuple(f)


def reference_m_pairs(k, alpha, t, rel):
    """(bound, triples): the chain bound of alpha, and None if t is at most
    it, else an (r, m(r), rank) for each grid point r in (alpha, t], the
    rank being the frontier index of r."""
    _check_interval(k, alpha, t)
    bound = chain_bound(alpha, k)
    if tm.compare(t, bound) is not GT:
        return bound, None
    rel.grid.index(t)  # t must be a grid point
    pts, f = rel.grid.points, rel.frontiers
    return bound, [(pts[i], pts[f[i]], f[i]) for i in rel.span(tm.Leaf(alpha), t)]


def reference_eta(k, alpha, t, rel):
    bound, triples = reference_m_pairs(k, alpha, t, rel)
    return bound if triples is None else _eta_of(triples)


def reference_ell(k, alpha, t, rel):
    bound, triples = reference_m_pairs(k, alpha, t, rel)
    return bound if triples is None else _ell_of(triples)


def _greatest(triples):
    """The greatest m of the triples, and its rank (None if no ranked m is
    that great).  Ranked m's are ordered by rank; an unranked m is compared
    as a term with the greatest so far."""
    best, top = None, -1
    for _, m, rank in triples:
        if rank is not None and rank > top:
            best, top = m, rank
    if best is None:
        top = None
    for _, m, rank in triples:
        if rank is None and (best is None or tm.compare(m, best) is GT):
            best, top = m, None
    return best, top


def _extreme(values, side):
    """The first of the values that no later one lies beyond on `side`
    (GT for the greatest, LT for the least)."""
    best = None
    for v in values:
        if best is None or tm.compare(v, best) is side:
            best = v
    return best


def _eta_of(triples):
    """The greatest m of the triples: on ranks where it can be taken there;
    if that meets an undecidable pair, every m is compared as a term."""
    try:
        return _greatest(triples)[0]
    except OrderUndecidable:
        return _extreme((m for _, m, _ in triples), GT)


def _ell_of(triples):
    """The least r of the triples whose m is the greatest."""
    try:
        eta, top = _greatest(triples)
        at_top = [
            r
            for r, m, rank in triples
            if (rank == top if rank is not None else tm.compare(m, eta) is EQ)
        ]
    except OrderUndecidable:
        eta = _extreme((m for _, m, _ in triples), GT)
        at_top = (r for r, m, _ in triples if tm.compare(m, eta) is EQ)
    return _extreme(at_top, LT)


def reference_T_set(ctx, n, alpha, t):
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
        members = (x for e in tm.ep_set(t) for x in reference_T_set(ctx, n, alpha, tm.Leaf(e)))
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
    frontier = [c for c in chain if _in_open_interval(c, a, upper)]
    for _ in range(O_RECURSION_CAP):
        new = set()
        for delta in frontier:
            k = tm.leaf_level(delta)
            if not 1 <= k <= n - 1:
                continue
            lam = lambda_locate(k + 1, tm.Leaf(delta))
            if not isinstance(lam, (tm.ConcreteEps, tm.ClassAtom, tm.Succ, tm.CanonicalPoint)):
                raise Undecidable(f"lambda({k + 1}, {delta!r}) is not an ordinal")
            new.update(f_and_S(ctx, k + 1, lam, delta)[1])
            new.update(tm.ep_set(ctx.m_of(tm.Leaf(delta))))
            new.add(lam)
        if new <= members:
            return tm.sort_leaves(members, reverse=True)
        members |= new
        frontier = [c for c in members if _in_open_interval(c, a, upper)]
    raise IterationCapExceeded(
        f"O-recursion did not stabilize within {O_RECURSION_CAP} rounds",
        trace=tm.sort_leaves(members, reverse=True),
    )
