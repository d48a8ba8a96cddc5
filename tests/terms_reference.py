"""Term comparison as it was before leaves kept their leaf paths, kept
verbatim as the reference the tests hold `terms.compare` and
`terms.compare_leaves` to: the same Ordering, or the same exception type.
It walks both terms' monomials level by level and rebuilds each leaf path
from its constructors.

Also the product as it was when the parser kept its own (`grammar._mul`,
beside `terms.mul`), kept verbatim as the reference the tests hold
`terms.mul` and the parser's products to: an equal term, or the same
exception type, after the same comparisons."""

from __future__ import annotations

import types

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
    ZERO,
    Zero,
    add,
    from_monomials,
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


def mul(a: OrdTerm, b: OrdTerm) -> OrdTerm:
    ma = monomials_of(a)
    if not ma or isinstance(b, Zero):
        return ZERO
    lead_exp, lead_coeff = ma[0]
    out: OrdTerm = ZERO
    for e, c in monomials_of(b):
        if isinstance(e, Zero):
            # right-multiplication by a finite part scales the head once
            out = add(out, from_monomials(((lead_exp, lead_coeff * c),) + ma[1:]))
        else:
            out = add(out, from_monomials(((add(lead_exp, e), c),)))
    return out


# the terms module as grammar._mul read it, with the reference mul above
tm = types.SimpleNamespace(
    Zero=Zero, monomials_of=monomials_of, from_monomials=from_monomials, mul=mul
)


def _mul(ma, mb):
    """The monomials of terms.mul on two monomial tuples; a finite right
    factor scales the head's coefficient without a comparison."""
    if not ma or not mb:
        return ()
    if len(mb) == 1 and isinstance(mb[0][0], tm.Zero):
        (lead, c), n = ma[0], mb[0][1]
        return ((lead, c * n),) + ma[1:]
    return tm.monomials_of(tm.mul(tm.from_monomials(ma), tm.from_monomials(mb)))
