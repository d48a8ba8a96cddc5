"""Executable fragments of the generalized hierarchy: the G-membership
predicate, the successor step of the A-recursion, S-interval sets, and the
interval-transport bijection between [r, r(+^k)) and its copy above kappa.

Every set produced here is a finite computed sample; limit operators are
sample-relative and flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import terms as tm
from .context import chain_bound
from .errors import LevelViolation, Undecidable
from .skeleton import T_set, _require_source, eta_compute, g_map, l_compute
from .subst import apply_subst
from .terms import GT, LT


@dataclass(frozen=True)
class HierarchySet:
    kind: str  # G | A-successor-trace | M | S
    n: int
    base: tm.EpsLeaf
    t: tm.OrdTerm
    members: tuple
    sample_relative: bool = True


def _t_below(k, alpha, t, ctx, rel):
    """The members of T(k, alpha, t) below alpha."""
    _require_source(ctx, rel)
    if rel is None:
        return T_set(ctx, k, alpha, t).intersect_below(alpha)
    # grid T-sets are Ep-sets, which is the level-1 identity only
    if k != 1:
        raise Undecidable(f"grids decide level-1 intervals only, got level {k}")
    return [e for e in tm.ep_set(t) if tm.compare_leaves(e, alpha) is LT]


def leq1_query(beta: tm.EpsLeaf, v: tm.OrdTerm, *, ctx=None, rel=None):
    """Decide beta <=1 v; returns (answer, provenance)."""
    b = tm.Leaf(beta)
    if tm.compare(v, b) is not GT:
        return True, "reflexive"
    if rel is not None:
        if b in rel.grid:
            answer = tm.compare(v, rel.m_hat(b)) is not GT
            return answer, "grid"
        raise Undecidable(f"{beta!r} is outside the grid")
    if ctx is None:
        raise Undecidable("no grid and no context for a <=1 query")
    level = tm.leaf_level(beta)
    if tm.compare(v, chain_bound(beta, level)) is not GT:
        return True, "level-rule"
    if b in ctx.m_table:
        return tm.compare(v, ctx.m_table[b]) is not GT, "annotation"
    raise Undecidable(f"beta <=1 {v!r} has no grid value or annotation")


def g_level(n):
    """The level n - 1 of G^{n-1}, which must be >= 1."""
    if n < 2:
        raise LevelViolation("G-membership needs n >= 2")
    return n - 1


def G_membership(n, alpha, t, beta, *, ctx=None, rel=None):
    """beta in G^{n-1}(t) relative to alpha's interval; returns (bool, why)."""
    k = g_level(n)
    b = tm.Leaf(beta)
    if tm.compare(b, tm.Leaf(alpha)) is GT:
        return False, "beta above alpha"
    for e in _t_below(k, alpha, t, ctx, rel):
        if tm.compare_leaves(e, beta) is not LT:
            return False, "T-set not contained in beta"
    eta = eta_compute(k, alpha, t, ctx=ctx, rel=rel)
    g = g_map(ctx, k, alpha, beta)
    v = tm.add(apply_subst(eta, g), tm.one())
    answer, why = leq1_query(beta, v, ctx=ctx, rel=rel)
    return answer, why


def G_sample(n, alpha, t, universe, *, ctx=None, rel=None) -> HierarchySet:
    g_level(n)  # even if the universe is empty
    members = []
    for beta in universe:
        ok, _ = G_membership(n, alpha, t, beta, ctx=ctx, rel=rel)
        if ok:
            members.append(beta)
    return HierarchySet("G", n, alpha, t, tuple(tm.sort_leaves(members)))


def A_successor_step(n, alpha, l, prev: HierarchySet, *, ctx=None, rel=None) -> HierarchySet:
    """A^{n-1}(l+1) from A^{n-1}(l): unchanged below the eta fixpoint, else
    the limit points of A^{n-1}(l), of which a finite sample has none."""
    k = n - 1
    eta = eta_compute(k, alpha, l, ctx=ctx, rel=rel)
    succ_t = tm.add(l, tm.one())
    members = prev.members if tm.compare(l, eta) is LT else ()
    return HierarchySet("A-successor-trace", n, alpha, succ_t, members)


def A_degenerate(n, alpha, t, universe, *, ctx=None, rel=None) -> HierarchySet:
    """A^{n-1}(t) on [alpha, chain bound]: Lim Class(n-1) above max(T below alpha).

    A finite sample has no limit points, so the set is empty; T below alpha
    is still computed, so a T it cannot decide fails as it would with limits.
    """
    _t_below(n - 1, alpha, t, ctx, rel)
    return HierarchySet("A-successor-trace", n, alpha, t, ())


def S_interval(i, alpha, r, t, universe, *, ctx=None, rel=None):
    """{q in (alpha, l(i, alpha, t)) : T(i, alpha, q) below alpha inside r}."""
    ell = l_compute(i, alpha, t, ctx=ctx, rel=rel)
    a = tm.Leaf(alpha)
    out = []
    for q in universe:
        if not (tm.compare(q, a) is GT and tm.compare(q, ell) is LT):
            continue
        if all(tm.compare_leaves(e, r) is LT for e in _t_below(i, alpha, q, ctx, rel)):
            out.append(q)
    return tuple(out)


def S_interval_via_domain(i, alpha, r, t, universe, *, ctx=None, rel=None):
    """The Remark's second reading: q with Ep(q) inside Dom g(i, alpha, r)."""
    ell = l_compute(i, alpha, t, ctx=ctx, rel=rel)
    a = tm.Leaf(alpha)
    g = g_map(ctx, i, alpha, r)
    out = []
    for q in universe:
        if not (tm.compare(q, a) is GT and tm.compare(q, ell) is LT):
            continue
        if all(g.contains(e) for e in tm.ep_set(q)):
            out.append(q)
    return tuple(out)


@dataclass(frozen=True)
class Transport:
    """R(t) = t[g(k, r, kappa)] with inverse H(s) = s[g(k, kappa, r)]."""

    k: int
    r: tm.EpsLeaf
    kappa: tm.EpsLeaf
    forward: object
    backward: object

    def R_of(self, t: tm.OrdTerm) -> tm.OrdTerm:
        return apply_subst(t, self.forward)

    def H_of(self, s: tm.OrdTerm) -> tm.OrdTerm:
        return apply_subst(s, self.backward)

    def M_set(self, universe, *, ctx=None, rel=None):
        """{q in [kappa, kappa(+^k)) : T(k, kappa, q) below kappa inside r}."""
        lo = tm.Leaf(self.kappa)
        hi = tm.Leaf(tm.mk_succ(self.kappa, self.k))
        out = []
        for q in universe:
            if tm.compare(q, lo) is LT or tm.compare(q, hi) is not LT:
                continue
            tcap = _t_below(self.k, self.kappa, q, ctx, rel)
            if all(tm.compare_leaves(e, self.r) is LT for e in tcap):
                out.append(q)
        return tuple(out)


def M_transport(n, r, kappa, *, ctx=None) -> Transport:
    k = n - 1
    if tm.compare_leaves(r, kappa) is not LT:
        raise ValueError("transport needs r < kappa")
    fwd = g_map(ctx, k, r, kappa)
    bwd = g_map(ctx, k, kappa, r)
    return Transport(k, r, kappa, fwd, bwd)
