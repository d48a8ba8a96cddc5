"""Declaration environment for the symbolic regime.

A ClassContext holds the declared class atoms, the partial table of known
m-values, and every leaf materialized so far (the "skeleton"), which the
S-set and T-set computations enumerate over.  Interval queries over the
m-annotated terms and the known leaves bisect sorted indexes of them.
"""

from __future__ import annotations

import bisect
import json

from . import terms as tm
from .errors import (
    LevelViolation,
    MissingMValue,
    OrderUndecidable,
    ParseError,
    UndeclaredAtom,
    Undecidable,
)
from .terms import GT, LT


class NegInfinity:
    """Sentinel below every ordinal; the 'no Class(j) element <= t' answer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INFINITY = NegInfinity()


class _TermIndex:
    """Terms in increasing `terms.compare` order, for interval queries.

    The index is sorted on its first query and kept sorted by insertion
    after that, so a context that is only being set up pays nothing for it.
    If some pair of its terms has no decidable order, it is dropped for good
    and answers no query; the caller then tests every term instead.
    """

    __slots__ = ("terms", "dropped")

    def __init__(self):
        self.terms: list[tm.OrdTerm] | None = None
        self.dropped = False

    def add(self, t: tm.OrdTerm):
        """Insert a term that is not in the index yet (once it is built)."""
        if self.terms is None:
            return
        try:
            bisect.insort(self.terms, t, key=tm.term_key)
        except OrderUndecidable:
            self.terms, self.dropped = None, True

    def between(self, source, lo, hi, hi_closed):
        """The terms r with lo < r < hi (r <= hi if hi_closed), increasing.

        `source` yields every term of the index, and is read only to build
        it.  None when the index is dropped, or when lo or hi has no
        decidable place in it.  A returned answer rests on the order of the
        index: r < lo is read off r < r' <= lo for a neighbour r', so it
        holds even where r and lo are not comparable directly.
        """
        if self.dropped:
            return None
        if self.terms is None:
            try:
                self.terms = sorted(source, key=tm.term_key)
            except OrderUndecidable:
                self.dropped = True
                return None
        try:
            i = tm.bisect_terms(self.terms, lo, right=True)
            j = tm.bisect_terms(self.terms, hi, right=hi_closed)
        except OrderUndecidable:
            return None
        return self.terms[i:j]


class ClassContext:
    def __init__(self):
        self.atoms: dict[str, tm.ClassAtom] = {}
        self.m_table: dict[tm.OrdTerm, tm.OrdTerm] = {}
        # an insertion-ordered set: registration tests membership in O(1)
        self.known_leaves: dict[tm.EpsLeaf, None] = {}
        self._m_index = _TermIndex()  # the keys of m_table
        self._leaf_index = _TermIndex()  # the known leaves, as terms
        # see m_ranks; None until built, False once dropped
        self._m_ranks = None

    # -- declarations -------------------------------------------------------

    def declare(self, name: str, level: int) -> tm.ClassAtom:
        if level < 1:
            raise LevelViolation(f"atom level must be >= 1, got {level}")
        if name in self.atoms:
            raise LevelViolation(f"atom {name!r} already declared")
        atom = tm.ClassAtom(name, level, rank=len(self.atoms))
        self.atoms[name] = atom
        self.register(atom)
        return atom

    def atom(self, name: str) -> tm.ClassAtom:
        try:
            return self.atoms[name]
        except KeyError:
            raise UndeclaredAtom(name) from None

    def register(self, leaf: tm.EpsLeaf):
        if leaf not in self.known_leaves:
            self.known_leaves[leaf] = None
            self._leaf_index.add(tm.Leaf(leaf))

    def leaves_between(self, lo: tm.OrdTerm, hi: tm.OrdTerm, min_level=1):
        """Known leaves in the open interval (lo, hi), increasing."""
        inside = self.leaf_terms_in(lo, hi)
        if inside is None:
            return self.scan_leaves_between(lo, hi, min_level)
        return tuple(r.leaf for r in inside if tm.leaf_level(r.leaf) >= min_level)

    def scan_leaves_between(self, lo: tm.OrdTerm, hi: tm.OrdTerm, min_level=1):
        """leaves_between by testing every known leaf: the answer where the
        leaf index has none, and the reference the tests hold it to."""
        out = [
            e
            for e in self.known_leaves
            if tm.leaf_level(e) >= min_level
            and tm.compare(tm.Leaf(e), lo) is GT
            and tm.compare(tm.Leaf(e), hi) is LT
        ]
        return tm.sort_leaves(out)

    def leaf_terms_in(self, lo: tm.OrdTerm, hi: tm.OrdTerm):
        """Known leaves r (as terms) with lo < r < hi, increasing; None when
        the leaf index cannot answer."""
        return self._leaf_index.between(map(tm.Leaf, self.known_leaves), lo, hi, False)

    # -- m-values ------------------------------------------------------------

    def set_m(self, term: tm.OrdTerm, value: tm.OrdTerm):
        if tm.compare(value, term) is LT:
            raise LevelViolation(
                f"m-annotation below its argument: m({term!r}) = {value!r}"
            )
        if term not in self.m_table:
            self._m_index.add(term)
        self.m_table[term] = value
        self._m_ranks = None

    def m_ranks(self):
        """{id(value): rank} for the values of the m-table: the ranks number
        the distinct values in increasing order, so equal values share a
        rank.

        Keyed by identity, so that a lookup hashes no term: the table keeps
        its value objects alive, and any other object has no rank.  Built
        on the first call after a set_m.  None when some pair of values has
        no decidable order; the table is then dropped until the next set_m,
        and callers compare the values as terms.
        """
        if self._m_ranks is None:
            # distinct values in first-annotation order, so that which
            # pairs the sort compares does not depend on hashing
            distinct = dict.fromkeys(self.m_table.values())
            try:
                values = sorted(distinct, key=tm.term_key)
            except OrderUndecidable:
                self._m_ranks = False
                return None
            rank = {v: i for i, v in enumerate(values)}
            self._m_ranks = {id(v): rank[v] for v in self.m_table.values()}
        return self._m_ranks if self._m_ranks is not False else None

    def m_keys_in(self, lo: tm.OrdTerm, hi: tm.OrdTerm):
        """The m-annotated terms r with lo < r <= hi, increasing; None when
        the index of annotations cannot answer."""
        return self._m_index.between(self.m_table, lo, hi, hi_closed=True)

    def m_of(self, term: tm.OrdTerm) -> tm.OrdTerm:
        """Annotated or structurally forced m-value; loud on genuine gaps."""
        hit = self.m_table.get(term)
        if hit is not None:
            return hit
        flags = tm.classify(term)
        if flags.is_zero or flags.is_successor:
            return term
        if isinstance(term, tm.Leaf) and isinstance(term.leaf, tm.Succ):
            # a (+^k)-point is not a limit of Class(k); its reach is the
            # degenerate chain bound
            return chain_bound(term.leaf, term.leaf.k)
        if not flags.is_principal:
            # non-principal limits reach no further than themselves
            return term
        raise MissingMValue(term)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        from .grammar import render_ord

        return {
            "atoms": [
                {"name": a.name, "level": a.level}
                for a in sorted(self.atoms.values(), key=lambda a: a.rank)
            ],
            "m_annotations": [
                [render_ord(k), render_ord(v)] for k, v in self.m_table.items()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "ClassContext":
        from .grammar import parse_ord

        ctx = cls()
        for a in data.get("atoms", ()):
            ctx.declare(a["name"], int(a["level"]))
        for key, value in data.get("m_annotations", ()):
            ctx.set_m(parse_ord(key, ctx.atoms), parse_ord(value, ctx.atoms))
        return ctx

    @classmethod
    def load(cls, path) -> "ClassContext":
        """The context in a JSON file.  A file that is no JSON or not of
        from_json's shape is a ParseError; a domain error in a well-formed
        one propagates as it is."""
        with open(path) as fh:
            try:
                return cls.from_json(json.load(fh))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ParseError(f"malformed context file {path}: {exc!r}") from None


# ---------------------------------------------------------------------------
# skeleton basics


def succ_chain(a: tm.EpsLeaf, k: int) -> list[tm.EpsLeaf]:
    """[a, a(+^{k-1}), a(+^{k-1})(+^{k-2}), ..., ...(+^1)]: k leaves."""
    chain = [a]
    for j in range(k - 1, 0, -1):
        chain.append(tm.mk_succ(chain[-1], j))
    return chain


def chain_down(ctx: ClassContext, a: tm.EpsLeaf) -> list[tm.EpsLeaf]:
    """[a_n, ..., a_1] with a_{j-1} = a_j(+^{j-1}); annotates m(a_j) = a_1*2."""
    chain = succ_chain(a, tm.leaf_level(a))
    bound = tm.mul(tm.Leaf(chain[-1]), tm.nat(2))
    for leaf in chain:
        ctx.register(leaf)
    for leaf in chain[1:]:
        ctx.set_m(tm.Leaf(leaf), bound)
    return chain


def chain_bound(a: tm.EpsLeaf, k: int) -> tm.OrdTerm:
    """a(+^{k-1})(+^{k-2})...(+^1)*2, read as a*2 when k = 1."""
    return tm.mul(tm.Leaf(succ_chain(a, k)[-1]), tm.nat(2))


def _leading_leaf(t: tm.OrdTerm) -> tm.EpsLeaf | None:
    """The largest epsilon leaf <= t, or None when t < eps_0."""
    while True:
        if isinstance(t, tm.Leaf):
            return t.leaf
        monos = tm.monomials_of(t)
        if not monos:
            return None
        head = monos[0][0]
        if isinstance(head, tm.Zero):
            return None
        t = head


def lambda_locate(j: int, t: tm.OrdTerm):
    """The unique delta in Class(j) with t in [delta, delta(+^j)), or -inf."""
    if j < 1:
        raise LevelViolation("lambda level must be >= 1")
    leaf = _leading_leaf(t)
    if leaf is None:
        return NEG_INFINITY
    if tm.leaf_level(leaf) >= j:
        return leaf
    for base in tm.leaf_base_chain(leaf)[1:]:
        if tm.leaf_level(base) >= j:
            # all constructors above `base` have level < j, so t < base(+^j)
            return base
    if isinstance(tm.leaf_root(leaf), tm.ConcreteEps):
        return NEG_INFINITY
    raise Undecidable(
        f"no Class({j}) element below {t!r} is derivable from its structure"
    )
