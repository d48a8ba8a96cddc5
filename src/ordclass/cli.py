"""Command-line front end.

Verbs: declare, eval, tset, gmap, eta, ell, lambda, canon, grid, leq1,
mhat, classdetect, gset, astep, export.  One command per invocation, or a
batch script with one command per line (# starts a comment).  Arguments are
whitespace-separated; ordinal expressions therefore contain no spaces
(or are quoted in script files).

Exit codes: 0 success, 1 domain error (or a term nested too deeply to
recurse over), 2 parse or usage error (or a file that cannot be read or
written).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
from dataclasses import dataclass, field

from . import terms as tm
from .context import ClassContext, NEG_INFINITY, lambda_locate
from .errors import OrdinalError, ParseError, UndeclaredAtom
from .grammar import parse_ord, render_leaf, render_ord
from .hierarchy import A_successor_step, G_membership, G_sample
from .oracle import ANCHOR_OPS, Grid, Leq1Relation, build_grid, leq1_cached
from .skeleton import T_set, canonical_point, eta_compute, g_map, l_compute


@dataclass
class Session:
    context: ClassContext = field(default_factory=ClassContext)
    grids: dict = field(default_factory=dict)  # name -> (Grid, Leq1Relation)
    output_format: str = "text"
    cache_dir: str | None = None
    grid_cap: int = 400

    def grid_named(self, name):
        try:
            return self.grids[name]
        except KeyError:
            raise OrdinalError(f"no grid named {name!r}") from None


def _leaf(session, text):
    t = parse_ord(text, session.context.atoms)
    if not isinstance(t, tm.Leaf):
        raise OrdinalError(f"{text!r} is not an epsilon leaf")
    session.context.register(t.leaf)
    return t.leaf


def _term(session, text):
    return parse_ord(text, session.context.atoms)


# A line without quotes, escapes or comments, whose only whitespace is what
# shlex splits on, splits the same under str.split, at a fraction of the cost.
_SHELL_SYNTAX = re.compile(r"""['"\\#]|[^\S \t\r\n]""")


def _split(command):
    if _SHELL_SYNTAX.search(command) is None:
        return command.split()
    return shlex.split(command, comments=True)


def run_command(session: Session, command: str):
    """Execute one command; returns (text, payload) with payload JSON-able."""
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
    _check_args(verb, args)
    return handler(session, args)


def _check_args(verb, args):
    """Usage errors (a ParseError) for a wrong argument count or a
    non-integer where _SIGNATURES wants an integer."""
    names = _SIGNATURES[verb].split()
    required = sum(1 for a in names if not a.startswith("["))
    variadic = names[-1].endswith("...]")
    if len(args) < required or (len(args) > len(names) and not variadic):
        raise ParseError(f"usage: {verb} {_SIGNATURES[verb]}")
    for name, arg in zip(names, args):
        if name in _INT_ARGS:
            try:
                int(arg)
            except ValueError:
                raise ParseError(
                    f"{verb}: {name} must be an integer, not {arg!r}"
                ) from None


def _cmd_declare(session, args):
    name, level = args[0], int(args[1])
    session.context.declare(name, level)
    return f"declared {name}@{level}", {"declared": name, "level": level}


def _cmd_eval(session, args):
    t = _term(session, args[0])
    text = render_ord(t)
    return text, {"normal_form": text}


def _cmd_tset(session, args):
    n, alpha, t = int(args[0]), _leaf(session, args[1]), _term(session, args[2])
    ts = T_set(session.context, n, alpha, t)
    names = [render_leaf(e) for e in ts.elements]
    return "{" + ", ".join(names) + "}", {"t_set": names}


def _cmd_gmap(session, args):
    n, alpha, c = int(args[0]), _leaf(session, args[1]), _leaf(session, args[2])
    g = g_map(session.context, n, alpha, c)
    data = g.to_json()
    return json.dumps(data, sort_keys=True), data


def _grid_arg(session, args, i):
    """The relation of the grid named by args[i], or None if there is none."""
    return session.grid_named(args[i])[1] if len(args) > i else None


def _eta_like(session, args, fn):
    k, alpha, t = int(args[0]), _leaf(session, args[1]), _term(session, args[2])
    value = fn(k, alpha, t, ctx=session.context, rel=_grid_arg(session, args, 3))
    text = render_ord(value)
    return text, {"value": text}


def _cmd_eta(session, args):
    return _eta_like(session, args, eta_compute)


def _cmd_ell(session, args):
    return _eta_like(session, args, l_compute)


def _cmd_lambda(session, args):
    j, t = int(args[0]), _term(session, args[1])
    where = lambda_locate(session.context, j, t)
    if where is NEG_INFINITY:
        return "-inf", {"lambda": None}
    text = render_leaf(where)
    return text, {"lambda": text}


def _cmd_canon(session, args):
    i, e, k = int(args[0]), _leaf(session, args[1]), int(args[2])
    data = canonical_point(session.context, i, e, k, rel=_grid_arg(session, args, 3))
    payload = {
        "x": render_ord(data.x),
        "gamma": render_ord(data.gamma),
        "o_chain": [render_leaf(o) for o in data.o_chain],
    }
    return f"x = {payload['x']}, gamma = {payload['gamma']}", payload


def _cmd_grid(session, args):
    name, bound = args[0], _term(session, args[1])
    if name in session.grids:
        raise OrdinalError(f"grid {name!r} already exists; snapshots are immutable")
    seeds = [_term(session, a) for a in args[2:]]
    grid = build_grid(bound, seeds, ops=ANCHOR_OPS, cap=session.grid_cap)
    rel = leq1_cached(grid, session.cache_dir)
    session.grids[name] = (grid, rel)
    text = f"grid {name}: {len(grid.points)} points, {rel.rounds} rounds"
    return text, {"grid": name, "points": len(grid.points), "rounds": rel.rounds}


def _cmd_leq1(session, args):
    _, rel = session.grid_named(args[0])
    a, b = _term(session, args[1]), _term(session, args[2])
    answer = rel.leq1(a, b)
    text = f"{'true' if answer else 'false'} (grid-relative)"
    return text, {"leq1": answer, "grid_relative": True}


def _cmd_mhat(session, args):
    _, rel = session.grid_named(args[0])
    t = _term(session, args[1])
    value = render_ord(rel.m_hat(t))
    return value, {"m_hat": value}


def _cmd_classdetect(session, args):
    _, rel = session.grid_named(args[0])
    j = int(args[1])
    hits = rel.class_detect(j)
    payload = [
        {"point": render_ord(p), "witness": [render_ord(w) for w in chain]}
        for p, chain in hits
    ]
    text = "{" + ", ".join(h["point"] for h in payload) + "}"
    return text, {"class_detect": payload}


def _cmd_gset(session, args):
    n, alpha, t = int(args[0]), _leaf(session, args[1]), _term(session, args[2])
    _, rel = session.grid_named(args[3])
    universe = [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]
    rows = []
    for beta in universe:
        try:
            member, why = G_membership(n, alpha, t, beta, rel=rel)
        except OrdinalError as exc:
            member, why = None, str(exc)
        rows.append(
            {"beta": render_leaf(beta), "member": member, "provenance": why}
        )
    sample = G_sample(n, alpha, t, universe, rel=rel)
    names = [render_leaf(b) for b in sample.members]
    payload = {"members": names, "queries": rows, "sample_relative": True}
    return "{" + ", ".join(names) + "}", payload


def _cmd_astep(session, args):
    n, alpha, l = int(args[0]), _leaf(session, args[1]), _term(session, args[2])
    _, rel = session.grid_named(args[3])
    universe = [p.leaf for p in rel.grid.points if tm.is_epsilon(p)]
    prev = G_sample(n, alpha, l, universe, rel=rel)
    step = A_successor_step(n, alpha, l, prev, rel=rel)
    names = [render_leaf(b) for b in step.members]
    payload = {
        "t": render_ord(step.t),
        "members": names,
        "sample_relative": True,
    }
    return "{" + ", ".join(names) + "}", payload


def _cmd_export(session, args):
    name, path = args[0], args[1]
    grid, rel = session.grid_named(name)
    if session.output_format == "dot":
        data = rel.to_dot()
        with open(path, "w") as fh:
            fh.write(data)
    else:
        with open(path, "w") as fh:
            json.dump(rel.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return f"wrote {path}", {"wrote": path}


_VERBS = {
    "declare": _cmd_declare,
    "eval": _cmd_eval,
    "tset": _cmd_tset,
    "gmap": _cmd_gmap,
    "eta": _cmd_eta,
    "ell": _cmd_ell,
    "lambda": _cmd_lambda,
    "canon": _cmd_canon,
    "grid": _cmd_grid,
    "leq1": _cmd_leq1,
    "mhat": _cmd_mhat,
    "classdetect": _cmd_classdetect,
    "gset": _cmd_gset,
    "astep": _cmd_astep,
    "export": _cmd_export,
}

# Arguments of each verb: [X] is optional, [X...] is any number of them;
# the arguments named in _INT_ARGS must be integers.
_SIGNATURES = {
    "declare": "NAME LEVEL",
    "eval": "EXPR",
    "tset": "N ALPHA T",
    "gmap": "N ALPHA C",
    "eta": "K ALPHA T [GRID]",
    "ell": "K ALPHA T [GRID]",
    "lambda": "J T",
    "canon": "I E K [GRID]",
    "grid": "NAME BOUND [SEED...]",
    "leq1": "GRID A B",
    "mhat": "GRID T",
    "classdetect": "GRID J",
    "gset": "N ALPHA T GRID",
    "astep": "N ALPHA L GRID",
    "export": "GRID FILE",
}
_INT_ARGS = {"LEVEL", "N", "K", "J", "I"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordclass",
        description="ordinal class workbench",
        epilog="verbs:\n" + "".join(f"  {v} {a}\n" for v, a in _SIGNATURES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--context", help="context JSON file to load")
    parser.add_argument("--script", help="batch script, one command per line")
    parser.add_argument(
        "--format", choices=("text", "json", "dot"), default="text"
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("ORDCLASS_CACHE_DIR")
    )
    parser.add_argument("--grid-cap", type=int, default=400)
    parser.add_argument("command", nargs="*", help="a single command")
    ns = parser.parse_args(argv)

    session = Session(
        output_format=ns.format,
        cache_dir=ns.cache_dir,
        grid_cap=ns.grid_cap,
    )
    try:
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
            if session.output_format == "json" and payload is not None:
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
