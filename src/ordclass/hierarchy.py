"""Executable fragments of the generalized hierarchy: the G-membership
predicate, the successor step of the A-recursion, S-interval sets, and the
interval-transport bijection between [r, r(+^k)) and its copy above kappa.

A call that reads m or T-sets takes one `source`: a grid relation
(Leq1Relation), which decides level-1 intervals from its m-hat, or a
ClassContext, which reads its annotations and T-sets.  Every set produced
here is a finite computed sample, returned as a tuple of its members;
limit operators are sample-relative, which the CLI flags with
`"sample_relative": true` in its payloads.
"""

from __future__ import annotations

from . import terms as tm
from .context import chain_bound
from .errors import LevelViolation, Undecidable
from .grammar import render_leaf, render_ord
from .oracle import Leq1Relation
from .skeleton import T_set, eta_compute, g_map, l_compute
from .subst import apply_subst
from .terms import GT, LT


def _t_below(source, k, alpha, t):
    """The members of T(k, alpha, t) below alpha."""
    if isinstance(source, Leq1Relation):
        # grid T-sets are Ep-sets, which is the level-1 identity only
        if k != 1:
            raise Undecidable(f"grids decide level-1 intervals only, got level {k}")
        ts = tm.ep_set(t)
    else:
        ts = T_set(source, k, alpha, t)
    return [e for e in ts if tm.compare_leaves(e, alpha) is LT]


def leq1_query(source, beta: tm.EpsLeaf, v: tm.OrdTerm):
    """Decide beta <=1 v; returns (answer, provenance)."""
    b = tm.Leaf(beta)
    if tm.compare(v, b) is not GT:
        return True, "reflexive"
    if isinstance(source, Leq1Relation):
        if b in source.grid:
            answer = tm.compare(v, source.m_hat(b)) is not GT
            return answer, "grid"
        raise Undecidable(f"{render_leaf(beta)} is outside the grid")
    level = tm.leaf_level(beta)
    if tm.compare(v, chain_bound(beta, level)) is not GT:
        return True, "level-rule"
    if b in source.m_table:
        return tm.compare(v, source.m_table[b]) is not GT, "annotation"
    raise Undecidable(f"beta <=1 {render_ord(v)} has no grid value or annotation")


def _inside(leaves, r):
    """Whether every leaf lies below r."""
    return all(tm.compare_leaves(e, r) is LT for e in leaves)


def G_set(source, n, alpha, t, universe):
    """A (beta, member, why) row per beta of the universe, in order: beta in
    G^{n-1}(t) relative to alpha's interval.  T below alpha and eta, which
    no beta changes, are computed once, at the first beta that reads them."""
    if n < 2:
        raise LevelViolation("G-membership needs n >= 2")
    k = n - 1
    a = tm.Leaf(alpha)
    below = eta = None
    rows = []
    for beta in universe:
        if tm.compare(tm.Leaf(beta), a) is GT:
            rows.append((beta, False, "beta above alpha"))
            continue
        if below is None:
            below = _t_below(source, k, alpha, t)
        if not _inside(below, beta):
            rows.append((beta, False, "T-set not contained in beta"))
            continue
        if eta is None:
            eta = eta_compute(source, k, alpha, t)
        v = tm.add(apply_subst(eta, g_map(k, alpha, beta)), tm.one())
        rows.append((beta, *leq1_query(source, beta, v)))
    return rows


def G_sample(source, n, alpha, t, universe):
    """The members of the universe in G^{n-1}(t), increasing."""
    rows = G_set(source, n, alpha, t, universe)
    return tm.sort_leaves(beta for beta, member, _ in rows if member)


def A_successor_step(source, n, alpha, l, prev):
    """The members of A^{n-1}(l+1) from those of A^{n-1}(l): unchanged below
    the eta fixpoint, else the limit points of A^{n-1}(l), of which a finite
    sample has none."""
    eta = eta_compute(source, n - 1, alpha, l)
    return prev if tm.compare(l, eta) is LT else ()


def A_degenerate(source, n, alpha, t):
    """A^{n-1}(t) on [alpha, chain bound]: Lim Class(n-1) above max(T below alpha).

    A finite sample has no limit points, so the set is empty; T below alpha
    is still computed, so a T it cannot decide fails as it would with limits.
    """
    _t_below(source, n - 1, alpha, t)
    return ()


def _below_ell(source, i, alpha, t, universe):
    """The q of the universe in (alpha, l(i, alpha, t)), filtered lazily."""
    ell = l_compute(source, i, alpha, t)
    a = tm.Leaf(alpha)
    return (q for q in universe if tm.compare(q, a) is GT and tm.compare(q, ell) is LT)


def S_interval(source, i, alpha, r, t, universe):
    """{q in (alpha, l(i, alpha, t)) : T(i, alpha, q) below alpha inside r}."""
    window = _below_ell(source, i, alpha, t, universe)
    return tuple(q for q in window if _inside(_t_below(source, i, alpha, q), r))


def S_interval_via_domain(source, i, alpha, r, t, universe):
    """The Remark's second reading: q with Ep(q) inside Dom g(i, alpha, r)."""
    window = _below_ell(source, i, alpha, t, universe)
    g = g_map(i, alpha, r)
    return tuple(q for q in window if all(g.contains(e) for e in tm.ep_set(q)))


class Transport(tm.Frozen):
    """R(t) = t[g(k, r, kappa)] with inverse H(s) = s[g(k, kappa, r)]."""

    __slots__ = ("k", "r", "kappa", "forward", "backward")

    def __init__(self, k: int, r: tm.EpsLeaf, kappa: tm.EpsLeaf, forward, backward):
        for name, value in zip(self.__slots__, (k, r, kappa, forward, backward)):
            object.__setattr__(self, name, value)

    def R_of(self, t: tm.OrdTerm) -> tm.OrdTerm:
        return apply_subst(t, self.forward)

    def H_of(self, s: tm.OrdTerm) -> tm.OrdTerm:
        return apply_subst(s, self.backward)

    def M_set(self, source, universe):
        """{q in [kappa, kappa(+^k)) : T(k, kappa, q) below kappa inside r}."""
        lo = tm.Leaf(self.kappa)
        hi = tm.Leaf(tm.mk_succ(self.kappa, self.k))
        return tuple(
            q
            for q in universe
            if tm.compare(q, lo) is not LT
            and tm.compare(q, hi) is LT
            and _inside(_t_below(source, self.k, self.kappa, q), self.r)
        )


def M_transport(n, r, kappa) -> Transport:
    k = n - 1
    if tm.compare_leaves(r, kappa) is not LT:
        raise ValueError("transport needs r < kappa")
    fwd = g_map(k, r, kappa)
    bwd = g_map(k, kappa, r)
    return Transport(k, r, kappa, fwd, bwd)
