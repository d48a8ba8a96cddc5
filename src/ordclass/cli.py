"""Command-line front end.

One command per invocation, or a batch script with one command per line
(# starts a comment).  A command is a verb and its arguments, which
`ordclass --help` lists from _SIGNATURES.  Arguments are whitespace-
separated, so ordinal expressions contain no spaces (or are quoted in script
files); each is read by its name in _SIGNATURES, the integers first.

Exit codes: 0 success, 1 domain error (or a term nested too deeply to
recurse over, or a number too long to print), 2 parse or usage error (or a
file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys

from . import terms as tm
from .context import ClassContext, NEG_INFINITY, lambda_locate
from .errors import OrdinalError, ParseError, UndeclaredAtom
from .grammar import parse_ord, render_leaf, render_ord
from .hierarchy import A_successor_step, G_sample, G_set
from .oracle import ANCHOR_OPS, GRID_CAP, build_grid, leq1_cached
from .skeleton import T_set, canonical_point, eta_compute, g_map, l_compute


class Session:
    def __init__(self, cache_dir=None, grid_cap=GRID_CAP):
        self.context = ClassContext()
        self.grids = {}  # name -> Leq1Relation
        self.cache_dir = cache_dir
        self.grid_cap = grid_cap


# verb -> handler, and verb -> the names of its arguments, in order: [X] is
# optional and [X...] is any number of them; _ARITY holds each signature read
# as (names, the number required, whether the last repeats)
_VERBS, _SIGNATURES, _ARITY = {}, {}, {}


def _verb(signature):
    """Register the decorated _cmd_<verb> handler under its verb."""
    def register(handler):
        verb = handler.__name__.removeprefix("_cmd_")
        _VERBS[verb], _SIGNATURES[verb] = handler, signature
        names = tuple(w.strip("[.]") for w in signature.split())
        required = len(names) - signature.count("[")
        _ARITY[verb] = names, required, signature.endswith("...]")
        return handler
    return register


def _leaf(session, text):
    t = _term(session, text)
    if not isinstance(t, tm.Leaf):
        raise OrdinalError(f"{text!r} is not an epsilon leaf")
    return t.leaf


def _term(session, text):
    """A point of one of the session's grids if text is its canonical text
    (Grid.by_text), else the parsed text."""
    for rel in session.grids.values():
        point = rel.grid.by_text.get(text)
        if point is not None:
            return point
    return parse_ord(text, session.context.atoms)


def _grid(session, name):
    try:
        return session.grids[name]
    except KeyError:
        raise OrdinalError(f"no grid named {name!r}") from None


def _text(session, text):
    return text


def _file(session, text):
    if "\0" in text:  # open() raises a ValueError, not an OSError, on it
        raise OSError(f"NUL byte in file name {text!r}")
    return text


def _epsilons(rel):
    """The epsilon leaves of rel's grid, increasing (so G-set members are)."""
    return [rel.grid.points[i].leaf for i in rel.grid.epsilons]


def _render(rel, t):
    """t's text: read off the grid's printed points if t is one of them
    (rel may be None), else printed."""
    i = None if rel is None else rel.grid.rank_of(t)
    return render_ord(t) if i is None else rel.grid.rendered[i]


# How each argument name is read into the value its handler takes: an
# integer by int(text), any other by reader(session, text).
_READERS = {
    **dict.fromkeys(("LEVEL", "N", "K", "J", "I"), int),
    **dict.fromkeys(("ALPHA", "E", "C"), _leaf),
    **dict.fromkeys(("EXPR", "T", "A", "B", "L", "BOUND", "SEED"), _term),
    "GRID": _grid,
    "NAME": _text,
    "FILE": _file,
}


# A line without quotes, escapes or comments, whose only whitespace is what
# shlex splits on, splits the same under str.split, at a fraction of the cost.
_SHELL_SYNTAX = re.compile(r"""['"\\#]|[^\S \t\r\n]""")


def _split(command):
    if _SHELL_SYNTAX.search(command) is None:
        return command.split()
    return shlex.split(command, comments=True)


def run_command(session: Session, command: str):
    """Execute one command; returns (text, payload) with payload JSON-able.

    The arguments are read by their names in _SIGNATURES.  A wrong count,
    then a non-integer where an integer is due, is a usage error (a
    ParseError) raised before any other argument is read.
    """
    try:
        words = _split(command)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise ParseError(f"{exc} in {command!r}") from None
    if not words:
        return "", None
    verb, args = words[0], words[1:]
    handler = _VERBS.get(verb)
    if handler is None:
        raise OrdinalError(f"unknown verb {verb!r}")
    names, required, repeats = _ARITY[verb]
    if len(args) < required or (len(args) > len(names) and not repeats):
        raise ParseError(f"usage: {verb} {_SIGNATURES[verb]}")
    names += names[-1:] * (len(args) - len(names))  # [X...] reads the rest
    readers = [_READERS[name] for name in names]
    values = list(args)
    for i, arg in enumerate(args):
        if readers[i] is int:
            try:
                values[i] = int(arg)
            except ValueError:
                raise ParseError(
                    f"{verb}: {names[i]} must be an integer, not {arg!r}"
                ) from None
    for i, arg in enumerate(args):
        if readers[i] is not int:
            values[i] = readers[i](session, arg)
    return handler(session, *values)


@_verb("NAME LEVEL")
def _cmd_declare(session, name, level):
    session.context.declare(name, level)
    return f"declared {name}@{level}", {"declared": name, "level": level}


@_verb("EXPR")
def _cmd_eval(session, t):
    text = render_ord(t)
    return text, {"normal_form": text}


@_verb("N ALPHA T")
def _cmd_tset(session, n, alpha, t):
    names = [render_leaf(e) for e in T_set(session.context, n, alpha, t)]
    return "{" + ", ".join(names) + "}", {"t_set": names}


@_verb("N ALPHA C")
def _cmd_gmap(session, n, alpha, c):
    g = g_map(n, alpha, c)
    data = g.to_json()
    return json.dumps(data, sort_keys=True), data


@_verb("K ALPHA T [GRID]")
def _cmd_eta(session, k, alpha, t, rel=None):
    text = _render(rel, eta_compute(rel or session.context, k, alpha, t))
    return text, {"value": text}


@_verb("K ALPHA T [GRID]")
def _cmd_ell(session, k, alpha, t, rel=None):
    text = _render(rel, l_compute(rel or session.context, k, alpha, t))
    return text, {"value": text}


@_verb("J T")
def _cmd_lambda(session, j, t):
    where = lambda_locate(j, t)
    if where is NEG_INFINITY:
        return "-inf", {"lambda": None}
    text = render_leaf(where)
    return text, {"lambda": text}


@_verb("I E K [GRID]")
def _cmd_canon(session, i, e, k, rel=None):
    data = canonical_point(rel or session.context, i, e, k)
    payload = {
        "x": _render(rel, data.x),
        "gamma": _render(rel, data.gamma),
        "o_chain": [render_leaf(o) for o in data.o_chain],
    }
    return f"x = {payload['x']}, gamma = {payload['gamma']}", payload


@_verb("NAME BOUND [SEED...]")
def _cmd_grid(session, name, bound, *seeds):
    if name in session.grids:
        raise OrdinalError(f"grid {name!r} already exists; snapshots are immutable")
    grid = build_grid(bound, seeds, ops=ANCHOR_OPS, cap=session.grid_cap)
    grid.by_text  # render every point now: one too long to print fails here
    session.grids[name] = rel = leq1_cached(grid, session.cache_dir)
    text = f"grid {name}: {len(grid.points)} points, {rel.rounds} rounds"
    return text, {"grid": name, "points": len(grid.points), "rounds": rel.rounds}


@_verb("GRID A B")
def _cmd_leq1(session, rel, a, b):
    answer = rel.leq1(a, b)
    text = f"{'true' if answer else 'false'} (grid-relative)"
    return text, {"leq1": answer, "grid_relative": True}


@_verb("GRID T")
def _cmd_mhat(session, rel, t):
    grid = rel.grid
    f = rel.frontiers[grid.index(t)]
    value = grid.rendered[f]
    # the frontier at the grid edge (Leq1Relation.boundary_suspect)
    return value, {"m_hat": value, "boundary": f == len(grid.points) - 1}


@_verb("GRID J")
def _cmd_classdetect(session, rel, j):
    hits = rel.class_detect(j)
    payload = [
        {"point": _render(rel, p), "witness": [_render(rel, w) for w in chain]}
        for p, chain in hits
    ]
    text = "{" + ", ".join(h["point"] for h in payload) + "}"
    return text, {"class_detect": payload}


@_verb("N ALPHA T GRID")
def _cmd_gset(session, n, alpha, t, rel):
    rows = [
        {"beta": render_leaf(beta), "member": member, "provenance": why}
        for beta, member, why in G_set(rel, n, alpha, t, _epsilons(rel))
    ]
    names = [row["beta"] for row in rows if row["member"]]
    payload = {"members": names, "queries": rows, "sample_relative": True}
    return "{" + ", ".join(names) + "}", payload


@_verb("N ALPHA L GRID")
def _cmd_astep(session, n, alpha, l, rel):
    prev = G_sample(rel, n, alpha, l, _epsilons(rel))
    names = [render_leaf(b) for b in A_successor_step(rel, n, alpha, l, prev)]
    t = render_ord(tm.add(l, tm.one()))
    payload = {"t": t, "members": names, "sample_relative": True}
    return "{" + ", ".join(names) + "}", payload


@_verb("GRID FILE")
def _cmd_export(session, rel, path):
    """A FILE named *.dot gets the DOT covering relation, any other the
    JSON dump."""
    with open(path, "w") as fh:
        if path.endswith(".dot"):
            fh.write(rel.to_dot())
        else:
            json.dump(rel.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return f"wrote {path}", {"wrote": path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordclass",
        description="ordinal class workbench",
        epilog="verbs:\n" + "".join(f"  {v} {a}\n" for v, a in _SIGNATURES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--context", help="context JSON file to load")
    parser.add_argument("--script", help="batch script, one command per line")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--cache-dir", default=os.environ.get("ORDCLASS_CACHE_DIR")
    )
    parser.add_argument("--grid-cap", type=int, default=GRID_CAP)
    parser.add_argument("command", nargs="*", help="a single command")
    ns = parser.parse_args(argv)

    session = Session(cache_dir=ns.cache_dir, grid_cap=ns.grid_cap)
    try:
        for path in filter(None, (ns.context, ns.script, ns.cache_dir)):
            _file(session, path)
        if ns.context:
            session.context = ClassContext.load(ns.context)
        commands = []
        if ns.script:
            with open(ns.script) as fh:
                commands.extend(line.strip() for line in fh)
        if ns.command:
            commands.append(" ".join(ns.command))
        if not commands:
            parser.print_usage()
            return 0
        for command in commands:
            if not command or command.startswith("#"):
                continue
            text, payload = run_command(session, command)
            if ns.format == "json" and payload is not None:
                print(json.dumps(payload, sort_keys=True))
            elif text:
                print(text)
    except (ParseError, UndeclaredAtom) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except OrdinalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # parse, compare and render recurse once per nesting level
        print("error: term nested too deeply", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
