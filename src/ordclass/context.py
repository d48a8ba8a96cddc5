"""Declaration environment for the symbolic regime.

A ClassContext holds the declared class atoms, the partial table of known
m-values, and every leaf materialized so far (the "skeleton"), which the
S-set and T-set computations enumerate over.  Interval queries over the
m-annotated terms and the known leaves bisect sorted views of them, built
from the facts after each write that changes them (ClassContext._view).
"""

from __future__ import annotations

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


def _between(terms, lo, hi, hi_closed):
    """The sorted terms r with lo < r < hi (r <= hi if hi_closed), increasing.

    None when there are no terms (a view that could not be sorted), or when
    lo or hi has no decidable place among them.  A returned answer rests on
    the order of the terms: r < lo is read off r < r' <= lo for a neighbour
    r', so it holds even where r and lo are not comparable directly, and a
    bisection may answer where a scan of the same terms raises.
    """
    if terms is None:
        return None
    try:
        i = tm.bisect_terms(terms, lo, right=True)
        j = tm.bisect_terms(terms, hi, right=hi_closed)
    except OrderUndecidable:
        return None
    return terms[i:j]


class ClassContext:
    def __init__(self):
        self.atoms: dict[str, tm.ClassAtom] = {}
        self.m_table: dict[tm.OrdTerm, tm.OrdTerm] = {}
        # an insertion-ordered set: registration tests membership in O(1)
        self.known_leaves: dict[tm.EpsLeaf, None] = {}
        self._views = {}  # name -> view of the facts; see _view

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
            self._views.pop("leaves", None)

    def leaves_between(self, lo: tm.OrdTerm, hi: tm.OrdTerm, min_level=1):
        """Known leaves in the open interval (lo, hi), increasing."""
        inside = _between(self._view("leaves"), lo, hi, False)
        if inside is None:
            return self.scan_leaves_between(lo, hi, min_level)
        return tuple(r.leaf for r in inside if tm.leaf_level(r.leaf) >= min_level)

    def scan_leaves_between(self, lo: tm.OrdTerm, hi: tm.OrdTerm, min_level=1):
        """leaves_between by testing every known leaf: the answer where the
        sorted leaves have none, and the reference the tests hold it to."""
        inside = (
            e for e in self.known_leaves if tm.leaf_level(e) >= min_level
            and tm.compare(tm.Leaf(e), lo) is GT and tm.compare(tm.Leaf(e), hi) is LT
        )
        return tm.sort_leaves(inside)

    def _view(self, name):
        """"keys" (the m-annotated terms) or "leaves" (the known leaves, as
        terms) in increasing compare order, or "ranks" (m_ranks), sorted
        from the facts in insertion order at the first query after the last
        write that changed them, so that which pairs the sort compares does
        not depend on when queries ran.  None until the next such write if
        the sort meets an undecidable pair."""
        if name not in self._views:
            self._views[name] = self._build_view(name)
        return self._views[name]

    def _build_view(self, name):
        if name == "ranks":  # distinct values, in first-annotation order
            facts = dict.fromkeys(self.m_table.values())
        else:
            facts = self.m_table if name == "keys" else map(tm.Leaf, self.known_leaves)
        try:
            terms = sorted(facts, key=tm.term_key)
        except OrderUndecidable:
            return None
        if name != "ranks":
            return terms
        rank = {v: i for i, v in enumerate(terms)}
        return {id(v): rank[v] for v in self.m_table.values()}

    # -- m-values ------------------------------------------------------------

    def set_m(self, term: tm.OrdTerm, value: tm.OrdTerm):
        if tm.compare(value, term) is LT:
            raise LevelViolation(
                f"m-annotation below its argument: m({term!r}) = {value!r}"
            )
        size = len(self.m_table)
        self.m_table[term] = value  # hashes term once: a tower hashes level by level
        if len(self.m_table) > size:
            self._views.pop("keys", None)
        self._views.pop("ranks", None)

    def m_ranks(self):
        """{id(value): rank} for the values of the m-table: the ranks number
        the distinct values in increasing order, equal values sharing one.
        Keyed by identity, so that a lookup hashes no term: the table keeps
        its value objects alive, and any other object has no rank.  None
        when the values have no decided order (see _view); callers then
        compare them as terms."""
        return self._view("ranks")

    def m_keys_in(self, lo: tm.OrdTerm, hi: tm.OrdTerm):
        """The m-annotated terms r with lo < r <= hi: bisected out of the
        sorted keys, increasing; where they cannot answer, a lazy test of
        every key in insertion order."""
        inside = _between(self._view("keys"), lo, hi, True)
        if inside is None:
            return (r for r in self.m_table
                    if tm.compare(r, lo) is GT and tm.compare(r, hi) is not GT)
        return inside

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


def lambda_locate(j: int, t: tm.OrdTerm):
    """The unique delta in Class(j) with t in [delta, delta(+^j)), or -inf."""
    if j < 1:
        raise LevelViolation("lambda level must be >= 1")
    leaf = tm.leading_leaf(t)
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
