"""The expression parser as it was before the flat descent of grammar.py,
kept verbatim as the reference the tests hold `grammar.parse_ord` to: the
same term, or the same exception type, message and position.  Below it,
the printer as it was before `_render_monomial` tested the head's type
first, kept verbatim as the reference for `grammar.render_ord`: the same
text."""

from __future__ import annotations

import re

from ordclass import terms as tm
from ordclass.errors import LevelViolation, OrdinalError, ParseError, UndeclaredAtom

# every character that starts no token is a one-character `bad` token
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[@^*+(),])|(?P<bad>\S))"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, atoms):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.atoms = atoms or {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def parse(self):
        t = self.sum()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return t

    def sum(self):
        t = self.product()
        while self.peek()[1] == "+":
            self.next()
            t = tm.add(t, self.product())
        return t

    def product(self):
        t = self.power()
        while self.peek()[1] == "*":
            self.next()
            t = tm.mul(t, self.power())
        return t

    def power(self):
        kind, val, pos = self.peek()
        if kind == "name" and val == "w":
            save = self.i
            self.next()
            if self.peek()[1] == "^":
                self.next()
                return tm.omega_pow(self.power())
            self.i = save
        t = self.primary()
        if self.peek()[1] == "^":
            raise ParseError("only w may be exponentiated", self.peek()[2])
        return t

    def primary(self):
        kind, val, pos = self.next()
        if kind == "num":
            t = tm.nat(int(val))
        elif val == "(":
            t = self.sum()
            self.expect(")")
        elif kind == "name":
            t = self.named(val, pos)
        else:
            raise ParseError(f"unexpected token {val!r}", pos)
        return self.postfix(t, pos)

    def named(self, name, pos):
        if name == "w":
            return tm.omega()
        if name == "eps":
            self.expect("(")
            index = self.sum()
            self.expect(")")
            if tm.ep_set(index):
                raise ParseError("eps index must be a concrete term", pos)
            return tm.Leaf(tm.ConcreteEps(index))
        if name == "cp":
            self.expect("(")
            i = self.int_arg()
            self.expect(",")
            k = self.int_arg()
            self.expect(",")
            base = self.sum()
            self.expect(")")
            if not isinstance(base, tm.Leaf):
                raise ParseError("cp base must be an epsilon leaf", pos)
            if i < 2:
                raise ParseError("cp level index must be >= 2", pos)
            try:
                return tm.Leaf(tm.mk_canonical(i - 1, base.leaf, k))
            except LevelViolation as exc:
                raise ParseError(str(exc), pos) from exc
        if self.peek()[1] == "@":
            self.next()
            kind, lvl, lpos = self.next()
            if kind != "num":
                raise ParseError("atom level must be a number", lpos)
            atom = self.atoms.get(name)
            if atom is None:
                raise UndeclaredAtom(name)
            if atom.level != int(lvl):
                raise ParseError(
                    f"atom {name} declared at level {atom.level}, not {lvl}", lpos
                )
            return tm.Leaf(atom)
        raise ParseError(f"unknown name {name!r}", pos)

    def int_arg(self):
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected a number", pos)
        return int(val)

    def postfix(self, t, pos):
        while self.peek()[1] == "(":
            save = self.i
            self.next()
            if self.peek()[1] != "+":
                self.i = save
                break
            self.next()
            kind, val, kpos = self.next()
            if kind != "num":
                raise ParseError("expected a level after (+", kpos)
            self.expect(")")
            if not isinstance(t, tm.Leaf):
                raise ParseError("(+k) applies only to epsilon leaves", pos)
            try:
                t = tm.Leaf(tm.mk_succ(t.leaf, int(val)))
            except LevelViolation as exc:
                raise ParseError(str(exc), kpos) from exc
        return t


def parse_ord(text: str, atoms=None) -> tm.OrdTerm:
    """Parse an ordinal expression; atoms maps name -> ClassAtom."""
    return _Parser(text, atoms).parse()


def render_leaf(e: tm.EpsLeaf) -> str:
    if isinstance(e, tm.ConcreteEps):
        return f"eps({render_ord(e.index)})"
    if isinstance(e, tm.ClassAtom):
        return f"{e.name}@{e.level}"
    if isinstance(e, tm.Succ):
        return f"{render_leaf(e.base)}(+{e.k})"
    return f"cp({e.level + 1},{e.k},{render_leaf(e.base)})"


def _decimal(n: int) -> str:
    """n in decimal; a natural can outgrow the digits str() converts."""
    try:
        return str(n)
    except ValueError:
        raise OrdinalError("number too long to print") from None


def _render_monomial(exp: tm.OrdTerm, coeff: int) -> str:
    if isinstance(exp, tm.Zero):
        return _decimal(coeff)
    if exp == tm.one():
        head = "w"
    elif isinstance(exp, tm.Leaf):
        head = render_leaf(exp.leaf)
    elif isinstance(exp, tm.NatSum):
        head = f"w^{_decimal(exp.n)}"
    elif exp == tm.omega():
        head = "w^w"
    else:
        head = f"w^({render_ord(exp)})"
    return head if coeff == 1 else f"{head}*{_decimal(coeff)}"


def render_ord(t: tm.OrdTerm) -> str:
    if isinstance(t, tm.Zero):
        return "0"
    if isinstance(t, tm.NatSum):
        return _decimal(t.n)
    if isinstance(t, tm.Leaf):
        return render_leaf(t.leaf)
    return "+".join(_render_monomial(e, c) for e, c in t.monomials)
