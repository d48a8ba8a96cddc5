"""Term comparison as it was before leaves kept their leaf paths, kept
verbatim as the reference the tests hold `terms.compare` and
`terms.compare_leaves` to: the same Ordering, or the same exception type.
It walks both terms' monomials level by level and rebuilds each leaf path
from its constructors."""

from __future__ import annotations

from ordclass.errors import OrderUndecidable
from ordclass.terms import (
    EQ,
    GT,
    LT,
    CanonicalPoint,
    ConcreteEps,
    EpsLeaf,
    Leaf,
    OrdTerm,
    Ordering,
    Succ,
    leaf_level,
    monomials_of,
)


def leaf_path(e: EpsLeaf):
    """Constructor keys from the root outward; see compare for the order."""
    keys = []
    while isinstance(e, (Succ, CanonicalPoint)):
        if isinstance(e, Succ):
            keys.append((e.k, 0, 0))
        else:
            keys.append((e.level, 1, e.k))
        e = e.base
    keys.reverse()
    return e, tuple(keys)


def _escape_level(path) -> int:
    """Least class level whose members above the root bound the whole tower."""
    if not path:
        return 0
    return 1 + max(key[0] for key in path)


def compare_leaves(a: EpsLeaf, b: EpsLeaf) -> Ordering:
    if isinstance(a, ConcreteEps) and isinstance(b, ConcreteEps):
        return compare(a.index, b.index)
    if a == b:
        return EQ
    ra, pa = leaf_path(a)
    rb, pb = leaf_path(b)
    # concrete leaves never carry constructors (mk_succ normalizes), so a
    # concrete root here is a bare concrete leaf facing a symbolic one
    a_concrete = isinstance(ra, ConcreteEps)
    b_concrete = isinstance(rb, ConcreteEps)
    if a_concrete != b_concrete:
        # declared atoms live above the concrete notation range
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
    if _escape_level(lower_path) <= leaf_level(upper_root):
        return root_cmp
    raise OrderUndecidable(a, b)


def compare(a: OrdTerm, b: OrdTerm) -> Ordering:
    # identity, not ==: equal terms built separately reach EQ through the
    # walk below, and a structural == would cost a walk on every call
    if a is b:
        return EQ
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return compare_leaves(a.leaf, b.leaf)
    ma, mb = monomials_of(a), monomials_of(b)
    for (ea, ca), (eb, cb) in zip(ma, mb):
        c = compare(ea, eb)
        if c is not EQ:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(ma) == len(mb):
        return EQ
    return LT if len(ma) < len(mb) else GT
