"""The map algebra as it was when transport maps had their own branches,
kept verbatim as the reference the tests hold `subst.compose_maps`,
`subst.invert_map` and `subst.compare_maps` to: an equal map or order, or
the same exception type.  Transport maps composed through
`_compose_rebase`, were inverted without validation, and were compared by
a domain test of their own."""

from __future__ import annotations

from ordclass import terms as tm
from ordclass.errors import CompositionUnsupported, LeafOutsideDomain, MapInvalid
from ordclass.subst import MapOrder, SubstMap, make_map
from ordclass.terms import EQ, GT, LT


def invert_map(f: SubstMap) -> SubstMap:
    if f.rebase is not None:
        n, alpha, c = f.rebase
        return SubstMap(
            tuple((d, s) for s, d in f.overrides),
            f.threshold,
            (n, c, alpha),
        )
    return make_map([(d, s) for s, d in f.overrides], f.threshold)


def _lower_threshold(f: SubstMap, g: SubstMap):
    """The lower of the two maps' thresholds (f's if they are equal), or
    None if either has none."""
    if f.threshold is None or g.threshold is None:
        return None
    if tm.compare_leaves(f.threshold, g.threshold) is not GT:
        return f.threshold
    return g.threshold


def compose_maps(outer: SubstMap, inner: SubstMap) -> SubstMap:
    """The map e -> outer(inner(e)); t[compose(f,g)] = t[g][f]."""
    if inner.rebase is not None or outer.rebase is not None:
        return _compose_rebase(outer, inner)
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
    return make_map(pairs, new_threshold)


def _compose_rebase(outer, inner):
    if (
        inner.rebase is not None
        and outer.rebase is not None
        and inner.rebase[0] == outer.rebase[0]
        and inner.rebase[2] == outer.rebase[1]
    ):
        n, alpha, _ = inner.rebase
        c = outer.rebase[2]
        return SubstMap(((alpha, c),), _lower_threshold(inner, outer), (n, alpha, c))
    raise CompositionUnsupported(
        "composition of these transport maps is not representable"
    )


def compare_maps(f: SubstMap, g: SubstMap) -> MapOrder:
    """Pointwise comparison on a shared domain."""
    if f.rebase is not None or g.rebase is not None:
        if f == g:
            return MapOrder.EQ
        if (
            f.rebase is None
            or g.rebase is None
            or f.rebase[:2] != g.rebase[:2]
            or f.threshold != g.threshold
        ):
            raise MapInvalid("maps have different domains")
    else:
        if (f.threshold is None) != (g.threshold is None) or (
            f.threshold is not None
            and tm.compare_leaves(f.threshold, g.threshold) is not EQ
        ):
            raise MapInvalid("maps have different domains")
        if f.domain_leaves() != g.domain_leaves():
            raise MapInvalid("maps have different domains")
    saw_lt = saw_gt = False
    for src in f.domain_leaves():
        c = tm.compare_leaves(f.lookup(src), g.lookup(src))
        if c is LT:
            saw_lt = True
        elif c is GT:
            saw_gt = True
    if saw_lt and saw_gt:
        return MapOrder.INCOMPARABLE
    if saw_lt:
        return MapOrder.LT
    if saw_gt:
        return MapOrder.GT
    return MapOrder.EQ
