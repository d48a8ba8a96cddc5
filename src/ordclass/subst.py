"""Simultaneous substitution of epsilon leaves and the map algebra around it.

A SubstMap is a strictly increasing partial map on epsilon leaves: finite
overrides, an optional identity-below-threshold region, and an optional
rebase rule used by the interval-transport maps of the class skeleton
(identity below min(alpha, c), alpha -> c, and towers over alpha rebuilt
over c).
"""

from __future__ import annotations

from enum import Enum

from . import terms as tm
from .errors import (
    CompositionUnsupported,
    LeafOutsideDomain,
    LevelViolation,
    MapInvalid,
)
from .terms import EQ, GT, LT


class MapOrder(Enum):
    EQ = "EQ"
    LT = "LT"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"


class SubstMap(tm.Frozen):
    __slots__ = ("overrides", "threshold", "rebase")

    def __init__(self, overrides, threshold=None, rebase=None):
        object.__setattr__(self, "overrides", overrides)  # ((leaf, leaf), ...)
        object.__setattr__(self, "threshold", threshold)  # a leaf or None
        object.__setattr__(self, "rebase", rebase)  # (n, alpha, c) or None

    def lookup(self, e: tm.EpsLeaf) -> tm.EpsLeaf:
        for src, dst in self.overrides:
            if src == e:
                return dst
        if self.threshold is not None and tm.compare_leaves(e, self.threshold) is LT:
            return e
        if self.rebase is not None:
            n, alpha, c = self.rebase
            moved = _rebase_leaf(e, n, alpha, c)
            if moved is not None:
                return moved
        raise LeafOutsideDomain(e)

    def contains(self, e: tm.EpsLeaf) -> bool:
        try:
            self.lookup(e)
            return True
        except LeafOutsideDomain:
            return False

    def domain_leaves(self) -> tuple[tm.EpsLeaf, ...]:
        """The explicit (finite) part of the domain, increasing."""
        return tuple(src for src, _ in self.overrides)

    def to_json(self):
        from .grammar import render_leaf

        data = {
            "overrides": [
                [render_leaf(s), render_leaf(d)] for s, d in self.overrides
            ],
            "rule": "identity-below" if self.threshold is not None else "none",
        }
        if self.threshold is not None:
            data["threshold"] = render_leaf(self.threshold)
        if self.rebase is not None:
            n, alpha, c = self.rebase
            data["rule"] = "rebase-above"
            data["level"] = n
            data["from"] = render_leaf(alpha)
            data["to"] = render_leaf(c)
        return data


def _rebase_leaf(e, n, alpha, c):
    """Transport e in [alpha, alpha(+^n)) to the interval over c, else None:
    alpha goes to c, and each (+^k) with k < n or canonical point of level
    < n over alpha is rebuilt over e's transported base."""
    if e == alpha:
        return c
    if isinstance(e, tm.Succ) and e.k < n:
        base = _rebase_leaf(e.base, n, alpha, c)
        return None if base is None else tm.mk_succ(base, e.k)
    if isinstance(e, tm.CanonicalPoint) and e.level < n:
        base = _rebase_leaf(e.base, n, alpha, c)
        return None if base is None else tm.mk_canonical(e.level, base, e.k)
    return None


def make_map(pairs, threshold=None, rebase=None) -> SubstMap:
    """Validate and build a strictly increasing map from (from, to) pairs."""
    pairs = list(pairs)
    seen = []
    for src, dst in pairs:
        if any(src == s for s in seen):
            raise MapInvalid(f"duplicate domain leaf {src!r}")
        seen.append(src)
    pairs.sort(key=lambda p: tm.leaf_key(p[0]))
    for (s1, d1), (s2, d2) in zip(pairs, pairs[1:]):
        if tm.compare_leaves(s1, s2) is not LT:
            raise MapInvalid(f"domain not strictly increasing at {s1!r}, {s2!r}")
        if tm.compare_leaves(d1, d2) is not LT:
            raise MapInvalid(
                f"map not strictly increasing: {s1!r}->{d1!r} but {s2!r}->{d2!r}"
            )
    if threshold is not None:
        for src, dst in pairs:
            if tm.compare_leaves(src, threshold) is LT:
                raise MapInvalid(
                    f"override {src!r} lies inside the identity region"
                )
            if tm.compare_leaves(dst, threshold) is LT:
                raise MapInvalid(
                    f"image {dst!r} falls below the identity region"
                )
    return SubstMap(tuple(pairs), threshold, rebase)


def apply_subst(x: tm.OrdTerm, f: SubstMap) -> tm.OrdTerm:
    """x[f]: replace every epsilon leaf of the normal form through f."""
    if isinstance(x, tm.Leaf):
        return tm.Leaf(f.lookup(x.leaf))
    if isinstance(x, (tm.Zero, tm.NatSum)):
        return x
    return tm.from_monomials(
        tuple((apply_subst(e, f), c) for e, c in x.monomials)
    )


def invert_map(f: SubstMap) -> SubstMap:
    """f's inverse: the pairs and the rule (n, alpha, c) -> (n, c, alpha)
    swapped, validated like any other map."""
    rule = f.rebase and (f.rebase[0], f.rebase[2], f.rebase[1])
    return make_map([(d, s) for s, d in f.overrides], f.threshold, rule)


def _lower_threshold(f: SubstMap, g: SubstMap):
    """The lower of the two maps' thresholds (f's if they are equal), or
    None if either has none."""
    if f.threshold is None or g.threshold is None:
        return None
    if tm.compare_leaves(f.threshold, g.threshold) is not GT:
        return f.threshold
    return g.threshold


def compose_maps(outer: SubstMap, inner: SubstMap) -> SubstMap:
    """The map e -> outer(inner(e)); t[compose(f,g)] = t[g][f].  Transport
    maps compose only as they chain, g(n, b, c) o g(n, a, b), into the rule
    (n, a, c)."""
    rule = None
    if inner.rebase is not None or outer.rebase is not None:
        n, a, b = inner.rebase or (None, None, None)
        if outer.rebase is None or outer.rebase[:2] != (n, b):
            raise CompositionUnsupported(
                "composition of these transport maps is not representable"
            )
        rule = (n, a, outer.rebase[2])
    new_threshold = _lower_threshold(inner, outer)
    pairs = []
    for src, mid in inner.overrides:
        try:
            pairs.append((src, outer.lookup(mid)))
        except LeafOutsideDomain as exc:
            raise CompositionUnsupported(
                f"image {mid!r} of {src!r} escapes the outer domain"
            ) from exc
    if inner.threshold is not None:
        for src, dst in outer.overrides:
            if tm.compare_leaves(src, inner.threshold) is LT and not any(
                src == s for s, _ in pairs
            ):
                pairs.append((src, dst))
    return make_map(pairs, new_threshold, rule)


def compare_maps(f: SubstMap, g: SubstMap) -> MapOrder:
    """Pointwise comparison on a shared domain: the same (n, alpha) of the
    rule, the same identity region and the same explicit leaves."""
    if (
        (f.rebase and f.rebase[:2]) != (g.rebase and g.rebase[:2])
        or (f.threshold is None) != (g.threshold is None)
        or (
            f.threshold is not None
            and tm.compare_leaves(f.threshold, g.threshold) is not EQ
        )
        or f.domain_leaves() != g.domain_leaves()
    ):
        raise MapInvalid("maps have different domains")
    seen = {tm.compare_leaves(f.lookup(src), g.lookup(src)) for src in f.domain_leaves()}
    if LT in seen:
        return MapOrder.INCOMPARABLE if GT in seen else MapOrder.LT
    return MapOrder.GT if GT in seen else MapOrder.EQ
