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
where it was a flag."""

from __future__ import annotations

import re
import shlex

from ordclass.cli import _ARITY, _READERS, _SIGNATURES, _VERBS
from ordclass.errors import OrdinalError, ParseError


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
