"""ASCII grammar for ordinal terms.

    0, decimal naturals, `w`, `^`, `*`, `+`, parentheses, `eps(<expr>)`,
    `<atom>@<level>` for declared atoms, postfix `(+k)` for the successor
    functional, and `cp(i,k,<leaf>)` for canonical points x_k(i, base).

The canonical printer emits the same grammar deterministically; every
printed term re-parses to an equal term under the same atom environment.
"""

from __future__ import annotations

import re

from . import terms as tm
from .errors import LevelViolation, OrdinalError, ParseError, UndeclaredAtom

# A token is a number, a name or an operator; whitespace before it is
# skipped.  A character outside these classes (_BAD) starts no token.
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[@^*+(),])")
_BAD = re.compile(r"[^\s\dA-Za-z_@^*+(),]")
_OPS = frozenset("@^*+(),")
_END = ""  # the token after the last one
# Nested sums (parentheses, eps and cp arguments) the parser descends into,
# and the printer prints.  Comparison, printing and substitution recurse
# once or more per level too; at this depth they all stay well inside
# Python's recursion limit.
MAX_NESTING = 150


def _mul(ma, mb):
    """The monomials of terms.mul on two monomial tuples; a finite right
    factor scales the head's coefficient without a comparison."""
    if not ma or not mb:
        return ()
    if len(mb) == 1 and isinstance(mb[0][0], tm.Zero):
        (lead, c), n = ma[0], mb[0][1]
        return ((lead, c * n),) + ma[1:]
    return tm.monomials_of(tm.mul(tm.from_monomials(ma), tm.from_monomials(mb)))


class _Parser:
    """Descent over the token strings of one text.

    A sum is folded left to right on monomial tuples and built into a term
    once; token positions are computed only for an error message.
    """

    __slots__ = ("text", "toks", "i", "atoms", "depth")

    def __init__(self, text, toks, atoms):
        self.text = text
        self.toks = toks
        self.i = 0
        self.atoms = atoms
        self.depth = 0

    def error(self, message, j):
        """A ParseError at the position of token j."""
        positions = [m.start(1) for m in _TOKEN.finditer(self.text)]
        positions.append(len(self.text))
        return ParseError(message, positions[j])

    def take(self):
        """The next token and its index."""
        j = self.i
        self.i = j + 1
        return self.toks[j], j

    def expect(self, value):
        tok, j = self.take()
        if tok != value:
            raise self.error(f"expected {value!r}, found {tok!r}", j)

    def number(self, message):
        """The next token as an int; a ParseError with message if it is no
        number."""
        tok, j = self.take()
        if not tok.isdecimal():
            raise self.error(message, j)
        return self.int_of(tok, j), j

    def int_of(self, tok, j):
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", j) from None

    def parse(self):
        t = self.sum()
        tok = self.toks[self.i]
        if tok != _END:
            raise self.error(f"trailing input {tok!r}", self.i)
        return t

    def sum(self):
        """sum := product ('+' product)*, product := power ('*' power)*,
        power := 'w' '^' power | primary; the powers are parsed inline."""
        if self.depth == MAX_NESTING:
            raise OrdinalError("term nested too deeply")
        self.depth += 1
        toks = self.toks
        total, product = (), None
        while True:
            i = start = self.i
            while toks[i] == "w" and toks[i + 1] == "^":
                i += 2
            self.i = i
            t = self.primary()
            tok = toks[self.i]
            if tok == "^":
                raise self.error("only w may be exponentiated", self.i)
            if i == start:
                monos = tm.monomials_of(t)
            else:
                # w^w^x is w^(w^x)
                for _ in range((i - start) // 2 - 1):
                    t = tm.from_monomials(((t, 1),))
                monos = ((t, 1),)
            product = monos if product is None else _mul(product, monos)
            if tok == "*":
                self.i += 1
                continue
            total = tm.add_monomials(total, product)
            if tok != "+":
                self.depth -= 1
                return tm.from_monomials(total)
            self.i += 1
            product = None

    def primary(self):
        toks = self.toks
        tok, j = self.take()
        if tok == "(":
            t = self.sum()
            self.expect(")")
        elif tok.isdecimal():
            t = tm.nat(self.int_of(tok, j))
        elif tok in _OPS or tok == _END:
            raise self.error(f"unexpected token {tok!r}", j)
        else:
            t = self.named(tok, j)
        while toks[self.i] == "(" and toks[self.i + 1] == "+":
            self.i += 2
            k, kj = self.number("expected a level after (+")
            self.expect(")")
            if not isinstance(t, tm.Leaf):
                raise self.error("(+k) applies only to epsilon leaves", j)
            try:
                t = tm.Leaf(tm.mk_succ(t.leaf, k))
            except LevelViolation as exc:
                raise self.error(str(exc), kj) from exc
        return t

    def named(self, name, j):
        if name == "w":
            return tm.omega()
        if name == "eps":
            self.expect("(")
            index = self.sum()
            self.expect(")")
            if tm.ep_set(index):
                raise self.error("eps index must be a concrete term", j)
            return tm.Leaf(tm.ConcreteEps(index))
        if name == "cp":
            self.expect("(")
            i = self.number("expected a number")[0]
            self.expect(",")
            k = self.number("expected a number")[0]
            self.expect(",")
            base = self.sum()
            self.expect(")")
            if not isinstance(base, tm.Leaf):
                raise self.error("cp base must be an epsilon leaf", j)
            if i < 2:
                raise self.error("cp level index must be >= 2", j)
            try:
                return tm.Leaf(tm.mk_canonical(i - 1, base.leaf, k))
            except LevelViolation as exc:
                raise self.error(str(exc), j) from exc
        if self.toks[self.i] == "@":
            self.i += 1
            level, lj = self.number("atom level must be a number")
            atom = self.atoms.get(name)
            if atom is None:
                raise UndeclaredAtom(name)
            if atom.level != level:
                raise self.error(
                    f"atom {name} declared at level {atom.level}, not {self.toks[lj]}", lj
                )
            return tm.Leaf(atom)
        raise self.error(f"unknown name {name!r}", j)


def parse_ord(text: str, atoms=None) -> tm.OrdTerm:
    """Parse an ordinal expression; atoms maps name -> ClassAtom."""
    bad = _BAD.search(text)
    if bad is not None:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    toks = _TOKEN.findall(text)
    toks.append(_END)
    return _Parser(text, toks, atoms or {}).parse()


def _decimal(n: int) -> str:
    """n in decimal; a natural can outgrow the digits str() converts."""
    try:
        return str(n)
    except ValueError:
        raise OrdinalError("number too long to print") from None


def _too_deep():
    return OrdinalError("term nested too deeply")


def render_ord(t: tm.OrdTerm) -> str:
    """The canonical text of t.  "term nested too deeply" where parse_ord
    would say so of the text: its sums nest deeper than MAX_NESTING."""
    return _sum(t, MAX_NESTING)[0]


def render_leaf(e: tm.EpsLeaf) -> str:
    """The canonical text of a leaf, refused where render_ord refuses it:
    the leaf alone is a sum, so its insides have one level less."""
    return _leaf(e, MAX_NESTING - 1)[0]


_OMEGA = tm.omega().monomials  # of w, the exponent of a w^w head
_keep_text = tm._cnf_text  # fills a Cnf's text cache (terms.Cnf)


def _sum(t, room):
    """(text, nest) for t printed as a sum with room for `room` nested
    sums, its own included: nest is the number of nested sums parse_ord
    enters to read the text, its own included.  A Cnf keeps the pair in its
    text cache."""
    if room < 1:
        raise _too_deep()
    kind = t.__class__
    if kind is tm.Cnf:
        done = t._text
        if done is None:
            parts, inner = [], 0
            for exp, coeff in t.monomials:
                text, nest = _monomial(exp, coeff, room - 1)
                parts.append(text)
                if nest > inner:
                    inner = nest
            done = ("+".join(parts), inner + 1)
            _keep_text(t, done)
        elif done[1] > room:
            raise _too_deep()
        return done
    if kind is tm.Leaf:
        text, nest = _leaf(t.leaf, room - 1)
        return text, nest + 1
    if kind is tm.NatSum:
        return _decimal(t.n), 1
    return "0", 1


def _monomial(exp, coeff, room):
    """(text, nest) for the monomial w^exp*coeff, with room for `room`
    nested sums inside it."""
    kind = exp.__class__
    if kind is tm.Zero:
        return _decimal(coeff), 0
    nest = 0
    if kind is tm.NatSum:
        head = "w" if exp.n == 1 else f"w^{_decimal(exp.n)}"
    elif kind is tm.Leaf:
        head, nest = _leaf(exp.leaf, room)
    elif exp._lead is None and exp.monomials == _OMEGA:  # w has no leading leaf
        head = "w^w"
    else:
        text, nest = _sum(exp, room)
        head = f"w^({text})"
    return (head if coeff == 1 else f"{head}*{_decimal(coeff)}"), nest


def _leaf(e, room):
    """(text, nest) for the leaf e, with room for `room` nested sums inside
    it: an eps index and a cp base are sums."""
    kind = e.__class__
    if kind is tm.ClassAtom:
        return f"{e.name}@{e.level}", 0
    if kind is tm.ConcreteEps:
        text, nest = _sum(e.index, room)
        return f"eps({text})", nest
    if kind is tm.Succ:
        text, nest = _leaf(e.base, room)
        return f"{text}(+{e.k})", nest
    if room < 1:
        raise _too_deep()
    text, nest = _leaf(e.base, room - 1)
    return f"cp({e.level + 1},{e.k},{text})", nest + 1
