"""Command-line front end.

One command per invocation, or a batch script with one command per line.
A command is a verb and its arguments, which `ordclass --help` lists from
_SIGNATURES.  On the command line each word is one argument; a script line
is split like a shell line (quotes, escapes, # comments).  Each argument is
read by its name in _SIGNATURES, the integers first.

Exit codes: 0 success, 1 domain error (or a term nested too deeply to
recurse over, or a number too long to print), 2 parse or usage error (or a
file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import terms as tm
from .context import ClassContext, NEG_INFINITY, lambda_locate
from .errors import OrdinalError, ParseError, UndeclaredAtom
from .grammar import parse_ord, render_leaf, render_ord
from .hierarchy import A_successor_step, G_sample, G_set
from .oracle import GRID_CAP, build_grid, leq1_cached
from .skeleton import T_set, canonical_point, eta_compute, g_map, l_compute


class Session:
    def __init__(self, cache_dir=None, grid_cap=GRID_CAP):
        self.context = ClassContext()
        self.grids = {}  # name -> Leq1Relation
        self.cache_dir = cache_dir
        self.grid_cap = grid_cap


# verb -> handler, and verb -> the names of its arguments, in order: [X] is
# optional and [X...] is any number of them; _ARITY holds each signature read
# as its reader plan: (names, the number required, the reader of the rest
# if the last repeats (else None), the integer positions, and the
# (position, reader) pairs of the other named arguments)
_VERBS, _SIGNATURES, _ARITY = {}, {}, {}


def _verb(signature):
    """Register the decorated _cmd_<verb> handler under its verb."""
    def register(handler):
        verb = handler.__name__.removeprefix("_cmd_")
        _VERBS[verb], _SIGNATURES[verb] = handler, signature
        names = tuple(w.strip("[.]") for w in signature.split())
        required = len(names) - signature.count("[")
        readers = list(enumerate(_READERS[name] for name in names))
        ints = tuple(i for i, reader in readers if reader is int)
        others = tuple((i, reader) for i, reader in readers if reader is not int)
        rest = readers[-1][1] if signature.endswith("...]") else None
        _ARITY[verb] = names, required, rest, ints, others
        return handler
    return register


def _leaf(session, text):
    t = _term(session, text)
    if not isinstance(t, tm.Leaf):
        raise OrdinalError(f"{text!r} is not an epsilon leaf")
    return t.leaf


def _term(session, text):
    """A point of one of the session's grids if text is its canonical text
    (the point at its rank in Grid.by_text), else the parsed text."""
    for rel in session.grids.values():
        i = rel.grid.by_text.get(text)
        if i is not None:
            return rel.grid.points[i]
    return parse_ord(text, session.context.atoms)


def _ranks(session, grid, *texts):
    """The rank in grid of each point text: read from Grid.by_text, else
    read by _term and found by Grid.index.  All the reads come first, then
    the "not a grid point" checks, left to right, as when each argument was
    read as a term before its handler ran."""
    ranks = [grid.by_text.get(text) for text in texts]
    points = [_term(session, text) if i is None else None for text, i in zip(texts, ranks)]
    return [grid.index(p) if i is None else i for p, i in zip(points, ranks)]


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


# How each argument name is read into the value its handler takes: an
# integer by int(text), after a check that text is an optional "-" and the
# digits the grammar reads as a number (str.isdecimal), any other by
# reader(session, text).  A and B, the points of a grid query, stay text:
# the handler reads each one to its rank in its own grid (_ranks).
_READERS = {
    **dict.fromkeys(("LEVEL", "N", "K", "J", "I"), int),
    **dict.fromkeys(("ALPHA", "E", "C"), _leaf),
    **dict.fromkeys(("EXPR", "T", "L", "BOUND", "SEED"), _term),
    **dict.fromkeys(("NAME", "A", "B"), _text),
    "GRID": _grid,
    "FILE": _file,
}


def _plain(line):
    """A line of printable ASCII without quotes, escapes or comments: it
    splits the same under str.split as under shlex, at a fraction of the
    cost."""
    return line.isascii() and line.isprintable() and not (
        '"' in line or "'" in line or "\\" in line or "#" in line
    )


def _split(command):
    if _plain(command):
        return command.split()
    import shlex  # a line with quotes, escapes, comments, tabs or non-ASCII

    return shlex.split(command, comments=True)


def run_command(session: Session, command: str):
    """Execute one command line (split by _split); returns (text, payload)
    with payload JSON-able, ("", None) for a blank or comment line.

    The arguments are read by their names in _SIGNATURES, by the plan in
    _ARITY.  A wrong count, then a non-integer where an integer is due, is a
    usage error (a ParseError) raised before any other argument is read.
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
    names, required, rest, ints, others = _ARITY[verb]
    count = len(args)
    if count < required or (count > len(names) and rest is None):
        raise ParseError(f"usage: {verb} {_SIGNATURES[verb]}")
    for i in ints:
        if i < count:
            arg = args[i]
            try:
                if not arg.removeprefix("-").isdecimal():
                    raise ValueError
                args[i] = int(arg)
            except ValueError:  # not digits, or more than int() converts
                raise ParseError(
                    f"{verb}: {names[i]} must be an integer, not {arg!r}"
                ) from None
    for i, reader in others:
        if i < count:
            args[i] = reader(session, args[i])
    if rest is not None:  # [X...] reads the rest
        for i in range(len(names), count):
            args[i] = rest(session, args[i])
    return handler(session, *args)


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
    text = render_ord(eta_compute(rel or session.context, k, alpha, t))
    return text, {"value": text}


@_verb("K ALPHA T [GRID]")
def _cmd_ell(session, k, alpha, t, rel=None):
    text = render_ord(l_compute(rel or session.context, k, alpha, t))
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
    """The one verb that writes the context and then can fail (printing
    a point nested too deeply): a failed canon takes its writes back."""
    facts = session.context.facts()
    try:
        data = canonical_point(rel or session.context, i, e, k)
        payload = {
            "x": render_ord(data.x),
            "gamma": render_ord(data.gamma),
            "o_chain": [render_leaf(o) for o in data.o_chain],
        }
    except BaseException:
        session.context.restore(facts)
        raise
    return f"x = {payload['x']}, gamma = {payload['gamma']}", payload


@_verb("NAME BOUND [SEED...]")
def _cmd_grid(session, name, bound, *seeds):
    if name in session.grids:
        raise OrdinalError(f"grid {name!r} already exists; snapshots are immutable")
    grid = build_grid(bound, seeds, cap=session.grid_cap)
    grid.by_text  # render every point now: one too long to print fails here
    session.grids[name] = rel = leq1_cached(grid, session.cache_dir)
    text = f"grid {name}: {len(grid.points)} points, {rel.rounds} rounds"
    return text, {"grid": name, "points": len(grid.points), "rounds": rel.rounds}


@_verb("GRID A B")
def _cmd_leq1(session, rel, a, b):
    by_text = rel.grid.by_text
    i, j = by_text.get(a), by_text.get(b)
    if i is None or j is None:
        i, j = _ranks(session, rel.grid, a, b)
    answer = rel.reaches(i, j)
    text = f"{'true' if answer else 'false'} (grid-relative)"
    return text, {"leq1": answer, "grid_relative": True}


@_verb("GRID A")
def _cmd_mhat(session, rel, a):
    grid = rel.grid
    i = grid.by_text.get(a)
    if i is None:
        (i,) = _ranks(session, grid, a)
    f = rel.frontiers[i]
    value = grid.rendered[f]
    # the frontier at the grid edge (Leq1Relation.boundary_suspect)
    return value, {"m_hat": value, "boundary": f == len(grid.points) - 1}


@_verb("GRID J")
def _cmd_classdetect(session, rel, j):
    hits = rel.class_detect(j)
    payload = [
        {"point": render_ord(p), "witness": [render_ord(w) for w in chain]}
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
    parser.add_argument("--cache-dir")
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
            import shlex  # quoted so that _split gives back each word whole

            commands.append(shlex.join(ns.command))
        if not commands:
            parser.print_usage()
            return 0
        for command in commands:
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
