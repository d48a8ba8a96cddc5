"""The command dispatch as it was before each verb kept its reader plan,
kept verbatim as the reference the tests hold `cli.run_command` to: the
same (text, payload), or the same exception type and message.  It rebuilt
the names and the reader list of a command on every call, converted the
integers by whatever int() accepts, and sent every line with a quote, an
escape, a comment or a whitespace character other than space, tab, CR and
LF to shlex.

It reads the live `_VERBS`, `_SIGNATURES`, `_READERS` and `_ARITY`, so only
the dispatch differs; the one edit is the slice of `_ARITY`'s plan, whose
third field is now the reader of a repeated argument (None if none)
where it was a flag.

Below it, the grid queries `leq1` and `mhat` as they were before they read
their point arguments straight to ranks (`run_grid_query`)."""

from __future__ import annotations

import re
import shlex

from ordclass.cli import _ARITY, _READERS, _SIGNATURES, _VERBS, _grid
from ordclass.errors import OrdinalError, ParseError
from ordclass.grammar import parse_ord


# A line without quotes, escapes or comments, whose only whitespace is what
# shlex splits on, splits the same under str.split, at a fraction of the cost.
_SHELL_SYNTAX = re.compile(r"""['"\\#]|[^\S \t\r\n]""")


def _split(command):
    if _SHELL_SYNTAX.search(command) is None:
        return command.split()
    return shlex.split(command, comments=True)


def run_command(session, command: str):
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
    names, required, repeats = _ARITY[verb][:3]
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


# ---------------------------------------------------------------------------
# The grid queries `leq1` and `mhat` as they were before they read their
# point arguments straight to ranks: each point argument was read as a term
# by _term before the handler ran, and the handler found its rank by
# Grid.index.  _term, _cmd_leq1 and _cmd_mhat are kept verbatim but for two
# edits: _term reads the text table as it was (text -> point, `_by_text`,
# where Grid.by_text now maps text -> rank), and _cmd_leq1 calls
# Leq1Relation.leq1 as it was (`_leq1`).


def _by_text(grid):
    return dict(zip(grid.rendered, grid.points))


def _leq1(rel, a, b):
    i = rel.grid.index(a)
    j = rel.grid.index(b)
    return j <= rel.frontiers[i] if i <= j else False


def _term(session, text):
    """A point of one of the session's grids if text is its canonical text
    (Grid.by_text), else the parsed text."""
    for rel in session.grids.values():
        point = _by_text(rel.grid).get(text)
        if point is not None:
            return point
    return parse_ord(text, session.context.atoms)


def _cmd_leq1(session, rel, a, b):
    answer = _leq1(rel, a, b)
    text = f"{'true' if answer else 'false'} (grid-relative)"
    return text, {"leq1": answer, "grid_relative": True}


def _cmd_mhat(session, rel, t):
    grid = rel.grid
    f = rel.frontiers[grid.index(t)]
    value = grid.rendered[f]
    # the frontier at the grid edge (Leq1Relation.boundary_suspect)
    return value, {"m_hat": value, "boundary": f == len(grid.points) - 1}


_GRID_QUERIES = {"leq1": _cmd_leq1, "mhat": _cmd_mhat}


def run_grid_query(session, command: str):
    """A leq1 or mhat command with its arguments counted right: the grid
    read first, then each point as a term, left to right."""
    verb, name, *points = command.split()
    rel = _grid(session, name)
    return _GRID_QUERIES[verb](session, rel, *(_term(session, p) for p in points))
