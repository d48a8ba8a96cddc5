"""Exact Cantor-Normal-Form ordinal terms over epsilon-number leaves.

A term is Zero, a finite ordinal, a CNF sum of omega-power monomials, or a
single epsilon leaf.  Leaves are concrete epsilons, declared class atoms,
successor-functional points b(+^k), or canonical points x_k(j+1, b).  All
values are immutable and hashable; arithmetic and comparison are exact.
"""

from __future__ import annotations

import bisect
import functools
from enum import IntEnum

from .errors import LevelViolation, OrderUndecidable


class Ordering(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


LT, EQ, GT = Ordering.LT, Ordering.EQ, Ordering.GT


class Frozen:
    """An immutable value: its fields, in constructor order, are its
    __slots__ (or its own __reduce__'s arguments), set once in __init__.
    Values are equal and hash as their field tuples; copies are rebuilt.
    Each leaf and term class spells out its own __eq__ and __hash__, for
    speed and for the counters of perfbench/tracer.py.

    A slot whose name starts with "_" is no field but a cache of something
    the fields decide (a leaf path, a leading leaf, a printed text).
    __reduce__ leaves it out, so equality, hashes and copies see the fields
    only, and a copy fills its own caches again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self):
        return hash(self.__reduce__()[1])


def _slot_setters(cls):
    """The __set__ of each of cls's slots, in order.  The constructors that
    fill caches call these: each costs about half an object.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# ---------------------------------------------------------------------------
# leaves


class ConcreteEps(Frozen):
    """eps(index): the index-th epsilon number, index an atom-free term."""

    __slots__ = ("index",)

    def __init__(self, index: OrdTerm):
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index,) == (other.index,)

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return f"eps({self.index!r})"


class ClassAtom(Frozen):
    """A declared symbolic ordinal of the given class level."""

    __slots__ = ("name", "level", "rank")

    def __init__(self, name: str, level: int, rank: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.level, self.rank) == (other.name, other.level, other.rank)

    def __hash__(self):
        return hash((self.name, self.level, self.rank))

    def __repr__(self):
        return f"{self.name}@{self.level}"


class Succ(Frozen):
    """base(+^k): least Class(k) element above base; requires level(base) >= k."""

    __slots__ = ("base", "k", "_path")

    def __init__(self, base: EpsLeaf, k: int):
        _succ_base(self, base)
        _succ_k(self, k)
        _succ_path(self, _path_above(base, (k, 0, 0)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.k) == (other.base, other.k)

    def __hash__(self):
        return hash((self.base, self.k))

    def __repr__(self):
        return f"{self.base!r}(+{self.k})"


_succ_base, _succ_k, _succ_path = _slot_setters(Succ)


class CanonicalPoint(Frozen):
    """k-th canonical point of level `level` over base, i.e. x_k(level+1, base).

    Requires level(base) >= level + 1.
    """

    __slots__ = ("level", "base", "k", "_path")

    def __init__(self, level: int, base: EpsLeaf, k: int):
        _cp_level(self, level)
        _cp_base(self, base)
        _cp_k(self, k)
        _cp_path(self, _path_above(base, (level, 1, k)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.base, self.k) == (other.level, other.base, other.k)

    def __hash__(self):
        return hash((self.level, self.base, self.k))

    def __repr__(self):
        return f"cp({self.level + 1},{self.k},{self.base!r})"


_cp_level, _cp_base, _cp_k, _cp_path = _slot_setters(CanonicalPoint)

EpsLeaf = ConcreteEps | ClassAtom | Succ | CanonicalPoint


def leaf_level(e: EpsLeaf) -> int:
    if isinstance(e, ConcreteEps):
        return 1
    if isinstance(e, ClassAtom):
        return e.level
    if isinstance(e, Succ):
        return e.k
    return e.level


def mk_succ(base: EpsLeaf, k: int) -> EpsLeaf:
    """base(+^k), normalizing the concrete case eps(g)(+1) = eps(g+1)."""
    if k < 1:
        raise LevelViolation(f"successor level must be >= 1, got {k}")
    if leaf_level(base) < k:
        raise LevelViolation(
            f"cannot apply (+^{k}) to a level-{leaf_level(base)} leaf {base!r}"
        )
    if isinstance(base, ConcreteEps):
        return ConcreteEps(add(base.index, one()))
    return Succ(base, k)


def mk_canonical(level: int, base: EpsLeaf, k: int) -> EpsLeaf:
    if level < 1 or k < 1:
        raise LevelViolation("canonical point needs level >= 1 and k >= 1")
    if leaf_level(base) < level + 1:
        raise LevelViolation(
            f"canonical point of level {level} needs a base of level >= {level + 1},"
            f" got {base!r}"
        )
    return CanonicalPoint(level, base, k)


def leaf_root(e: EpsLeaf) -> EpsLeaf:
    while isinstance(e, (Succ, CanonicalPoint)):
        e = e.base
    return e


def leaf_path(e: EpsLeaf):
    """(root, keys): e's root leaf and its constructor keys from the root
    outward, (k, 0, 0) for a (+^k) and (level, 1, k) for a canonical point;
    see compare_leaves for their order."""
    if e.__class__ is Succ or e.__class__ is CanonicalPoint:
        return e._path
    return e, ()


def _path_above(base: EpsLeaf, key):
    """The leaf path of a constructor with this key over base."""
    if base.__class__ is Succ or base.__class__ is CanonicalPoint:
        root, keys = base._path
        return root, keys + (key,)
    return base, (key,)


def leaf_base_chain(e: EpsLeaf):
    """The leaf followed by its bases down to the root (levels weakly increase)."""
    chain = [e]
    while isinstance(e, (Succ, CanonicalPoint)):
        e = e.base
        chain.append(e)
    return chain


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


# sort key for leaves in compare_leaves order
leaf_key = functools.cmp_to_key(compare_leaves)


# ---------------------------------------------------------------------------
# terms


def _digits(n: int) -> str:
    """n in decimal, or its size past the digits str() converts: error
    messages show terms through repr, which must not raise."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit number>"


class Zero(Frozen):
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ or NotImplemented

    def __hash__(self):
        return hash(())  # the hash of its empty field tuple

    def __repr__(self):
        return "0"


class NatSum(Frozen):
    """A finite ordinal n >= 1."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n,) == (other.n,)

    def __hash__(self):
        return hash((self.n,))

    def __repr__(self):
        return _digits(self.n)


class Cnf(Frozen):
    """Sum of monomials (exponent, coefficient), exponents strictly decreasing.

    Its caches: `_lead`, its leading leaf (see leading_leaf), read off the
    head exponent at construction, and `_text`, filled by
    grammar.render_ord."""

    __slots__ = ("monomials", "_lead", "_text")

    def __init__(self, monomials: tuple[tuple[OrdTerm, int], ...]):
        head = monomials[0][0]
        kind = head.__class__
        _cnf_monomials(self, monomials)
        _cnf_lead(self, head.leaf if kind is Leaf else head._lead if kind is Cnf else None)
        _cnf_text(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.monomials,) == (other.monomials,)

    def __hash__(self):
        return hash((self.monomials,))

    def __repr__(self):
        return "+".join(
            f"w^({e!r})*{_digits(c)}" if c > 1 else f"w^({e!r})" for e, c in self.monomials
        )


_cnf_monomials, _cnf_lead, _cnf_text = _slot_setters(Cnf)


class Leaf(Frozen):
    __slots__ = ("leaf",)

    def __init__(self, leaf: EpsLeaf):
        object.__setattr__(self, "leaf", leaf)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.leaf,) == (other.leaf,)

    def __hash__(self):
        return hash((self.leaf,))

    def __repr__(self):
        return repr(self.leaf)


OrdTerm = Zero | NatSum | Cnf | Leaf

ZERO = Zero()


def one() -> OrdTerm:
    return NatSum(1)


def nat(n: int) -> OrdTerm:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return ZERO if n == 0 else NatSum(n)


def omega() -> OrdTerm:
    return Cnf(((one(), 1),))


def monomials_of(t: OrdTerm) -> tuple[tuple[OrdTerm, int], ...]:
    if isinstance(t, Zero):
        return ()
    if isinstance(t, NatSum):
        return ((ZERO, t.n),)
    if isinstance(t, Leaf):
        return ((t, 1),)
    return t.monomials


def from_monomials(monos) -> OrdTerm:
    """Rebuild a normal-form term from strictly-decreasing monomials."""
    monos = tuple((e, c) for e, c in monos if c > 0)
    if not monos:
        return ZERO
    if len(monos) == 1:
        (e, c) = monos[0]
        if isinstance(e, Zero):
            return NatSum(c)
        if c == 1 and isinstance(e, Leaf):
            # epsilon fixed point: w^e = e
            return e
    return Cnf(monos)


def is_epsilon(t: OrdTerm) -> bool:
    return isinstance(t, Leaf)


def leading_leaf(t: OrdTerm) -> EpsLeaf | None:
    """The leaf at the bottom of t's head-exponent chain, which is the
    largest epsilon leaf <= t, or None if that chain ends in a finite
    exponent (t < eps(0))."""
    kind = t.__class__
    if kind is Leaf:
        return t.leaf
    return t._lead if kind is Cnf else None


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


# sort key for terms in compare order
term_key = functools.cmp_to_key(compare)


def bisect_terms(sorted_terms, t, right=False) -> int:
    """Number of sorted terms below t, or at or below t if right."""
    find = bisect.bisect_right if right else bisect.bisect_left
    return find(sorted_terms, term_key(t), key=term_key)


def lt(a, b):
    return compare(a, b) is LT


def le(a, b):
    return compare(a, b) is not GT


def eq(a, b):
    return compare(a, b) is EQ


def add(a: OrdTerm, b: OrdTerm) -> OrdTerm:
    ma, mb = monomials_of(a), monomials_of(b)
    if not mb:
        return a
    if not ma:
        return b
    return from_monomials(add_monomials(ma, mb))


def add_monomials(ma, mb):
    """The monomials of a + b from the monomials of a and b.

    Every monomial of a is compared with the head of b, in order, so that
    the sum meets OrderUndecidable wherever one of those pairs has no
    order.  A finite head needs no comparison: every other exponent lies
    above 0.
    """
    if not ma or not mb:
        return ma or mb
    head, coeff = mb[0]
    if isinstance(head, Zero):
        order = [EQ if isinstance(e, Zero) else GT for e, _ in ma]
    else:
        order = [compare(e, head) for e, _ in ma]
    keep = tuple(m for m, o in zip(ma, order) if o is GT)
    n = len(keep)
    if n < len(ma) and order[n] is EQ:
        mb = ((head, ma[n][1] + coeff),) + mb[1:]
    return keep + mb


def mul(a: OrdTerm, b: OrdTerm) -> OrdTerm:
    return from_monomials(mul_monomials(monomials_of(a), monomials_of(b)))


def mul_monomials(ma, mb):
    """The monomials of a * b from the monomials of a and b: a's head times
    each monomial of b, summed left to right with add_monomials.  A finite
    monomial of b scales a's head coefficient with no comparison."""
    if not ma or not mb:
        return ()
    (lead, coeff), rest = ma[0], ma[1:]
    out = ()
    for e, c in mb:
        if e.__class__ is Zero:
            out = add_monomials(out, ((lead, coeff * c),) + rest)
        else:
            out = add_monomials(out, ((add(lead, e), c),))
    return out


def omega_pow(a: OrdTerm) -> OrdTerm:
    return from_monomials(((a, 1),))


def left_subtract(a: OrdTerm, b: OrdTerm) -> OrdTerm:
    """The unique c with a + c = b; requires a <= b."""
    ma, mb = monomials_of(a), monomials_of(b)
    i = 0
    while i < len(ma) and i < len(mb) and mb[i] == ma[i]:
        i += 1
    if i == len(ma):
        return from_monomials(mb[i:])
    if i == len(mb):
        raise ValueError("left_subtract requires a <= b")
    ea, ca = ma[i]
    eb, cb = mb[i]
    c = compare(ea, eb)
    if c is GT or (c is EQ and ca >= cb):
        raise ValueError("left_subtract requires a <= b")
    if c is EQ:
        return from_monomials(((eb, cb - ca),) + mb[i + 1 :])
    return from_monomials(mb[i:])


class Flags(Frozen):
    __slots__ = ("is_zero", "is_successor", "is_limit", "is_principal", "is_epsilon")

    def __init__(self, is_zero, is_successor, is_limit, is_principal, is_epsilon):
        values = (is_zero, is_successor, is_limit, is_principal, is_epsilon)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


def classify(t: OrdTerm) -> Flags:
    monos = monomials_of(t)
    zero = not monos
    successor = bool(monos) and isinstance(monos[-1][0], Zero)
    principal = len(monos) == 1 and monos[0][1] == 1
    return Flags(
        is_zero=zero,
        is_successor=successor,
        is_limit=bool(monos) and not successor,
        is_principal=principal,
        is_epsilon=isinstance(t, Leaf),
    )


def pi_head(t: OrdTerm) -> OrdTerm:
    """Leading additive-principal summand of a nonzero term."""
    monos = monomials_of(t)
    if not monos:
        raise ValueError("pi_head of 0")
    return from_monomials(((monos[0][0], 1),))


def ep_set(t: OrdTerm) -> tuple[EpsLeaf, ...]:
    """Epsilon leaves of the normal form, in strictly decreasing order."""
    found: list[EpsLeaf] = []

    def walk(u: OrdTerm):
        if isinstance(u, Leaf):
            if u.leaf not in found:
                found.append(u.leaf)
            return
        for e, _ in monomials_of(u):
            walk(e)

    walk(t)
    found.sort(key=leaf_key, reverse=True)
    return tuple(found)


def sort_leaves(leaves, reverse=False):
    return tuple(sorted(set(leaves), key=leaf_key, reverse=reverse))


def omega_tower(e: EpsLeaf, k: int) -> OrdTerm:
    """w_0(e) = e + 1, w_{j+1}(e) = w^(w_j(e))."""
    if k < 0:
        raise ValueError("tower height must be >= 0")
    t = add(Leaf(e), one())
    for _ in range(k):
        t = Cnf(((t, 1),))
    return t


def rebuild(t: OrdTerm) -> OrdTerm:
    """Re-normalize a term bottom-up through the smart constructors."""
    if isinstance(t, (Zero, NatSum, Leaf)):
        return from_monomials(monomials_of(t))
    return from_monomials(tuple((rebuild(e), c) for e, c in t.monomials))
