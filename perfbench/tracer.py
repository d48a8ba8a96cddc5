"""Per-layer tracing for a benchmark session, installed from outside the
program by wrapping functions where they are looked up.

Layers are the modules of `ordclass`.  Every public module-level function of
each layer, and the methods in METHODS, become spans: a call count and a self
time (the span's duration minus the time of the spans it called).  `terms` is
the innermost layer and the hottest: only `compare` is a span there, and the
counted functions in COUNTED keep no clock, so their time shows in the span
that called them.

A function is replaced in every layer module that binds it, including
`from x import f` copies, module-level dispatch tables such as the CLI's verb
table, and the recursive calls a function makes through its own global name.
Spans are aggregated by name in memory; `report()` returns the totals.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "grammar", "terms", "subst", "context", "skeleton", "oracle", "hierarchy")

# Span names that differ from module.function.
ALIASES = {
    "oracle._decomposition_bounds": "oracle.decomposition",
    "oracle._row_frontier": "oracle.row_sweep",
    "oracle.Grid.index": "oracle.grid_index",
    "oracle.Leq1Relation.points_in": "oracle.points_in",
    "context.ClassContext.m_of": "context.m_of",
    "cli._cmd_export": "oracle.export",
}

# Private functions that are spans too.
PRIVATE = ("oracle._decomposition_bounds", "oracle._row_frontier", "cli._cmd_export")

# Methods that are spans.  Serialisation methods are left out on purpose:
# their time belongs to the export or cache span that calls them.
METHODS = (
    "oracle.Grid.index",
    "oracle.Leq1Relation.leq1",
    "oracle.Leq1Relation.m_hat",
    "oracle.Leq1Relation.points_in",
    "oracle.Leq1Relation.class_detect",
    "context.ClassContext.m_of",
    "context.ClassContext.register",
    "context.ClassContext.set_m",
    "context.ClassContext.leaves_between",
    "subst.SubstMap.lookup",
)

# terms functions that are counted but keep no span.
COUNTED = ("add", "mul", "monomials_of", "from_monomials")
# dataclasses whose generated __hash__/__eq__ are counted
TERM_CLASSES = (
    "Zero", "NatSum", "Cnf", "Leaf", "ConcreteEps", "ClassAtom", "Succ", "CanonicalPoint",
)


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"ordclass.{name}") for name in LAYERS}
        self.stats = {}  # span name -> [calls, self_s, compare_calls, total_s]
        self.counts = {}  # counter name -> [n]
        self._stack = []
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self):
        terms = self.modules["terms"]
        compare_stat = self._stat("terms.compare")
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if layer == "terms":
                    if name == "compare":
                        self._replace(obj, self._span(qual, obj, compare_stat))
                    elif name in COUNTED:
                        self._replace(obj, self._counter(f"terms.{name}", obj))
                elif not name.startswith("_") or qual in PRIVATE:
                    self._replace(obj, self._span(qual, obj, compare_stat))
        for qual in METHODS:
            layer, cls_name, meth = qual.split(".")
            cls = getattr(self.modules[layer], cls_name)
            orig = cls.__dict__[meth]
            self._setattr(cls, meth, self._span(qual, orig, compare_stat))
        for cls_name in TERM_CLASSES:
            cls = getattr(terms, cls_name)
            for dunder, counter in (("__hash__", "terms.hash"), ("__eq__", "terms.eq")):
                self._setattr(cls, dunder, self._counter(counter, cls.__dict__[dunder]))
        self._observe_oracle()

    def uninstall(self):
        for target, name, old in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = old
            else:
                setattr(target, name, old)
        self._undo.clear()

    def _setattr(self, target, name, value):
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _replace(self, orig, wrapper):
        """Rebind every module global and dispatch-table entry that is orig."""
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._setattr(mod, name, wrapper)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            self._undo.append((value, key, entry))
                            value[key] = wrapper

    # -- wrappers --------------------------------------------------------------

    def _stat(self, qual):
        return self.stats.setdefault(ALIASES.get(qual, qual), [0, 0.0, 0, 0.0])

    def _span(self, qual, fn, compare_stat):
        """Wrap fn as a span.

        stat = [calls, self_s, compare calls inside, total_s]; the last two
        stay 0 for terms.compare itself.

        The stack holds, per open span, the time its child spans took.
        """
        stat = self._stat(qual)
        stack = self._stack
        clock = time.perf_counter

        def enter():
            stack.append(0.0)
            return compare_stat[0], clock()

        def leave(compares, start):
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed - stack.pop()
            stat[2] += compare_stat[0] - compares
            stat[3] += elapsed
            if stack:
                stack[-1] += elapsed

        if qual == "terms.compare":
            # the hottest span: no argument packing, and no count of the
            # compare calls inside it, which are its own recursion
            def span(a, b):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(a, b)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
        else:
            def span(*args, **kwargs):
                compares, start = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(compares, start)

        return span

    def _counter(self, name, fn):
        return _counting(self.counts.setdefault(name, [0]), fn)

    def _observe_oracle(self):
        """Grid size, fixpoint rounds and cache hits, read off return values."""
        oracle = self.modules["oracle"]
        cli = self.modules["cli"]
        grid_points = self.counts.setdefault("oracle.grid.points", [0])
        rounds = self.counts.setdefault("oracle.fixpoint.rounds", [0])
        hits = self.counts.setdefault("oracle.cache.hits", [0])
        misses = self.counts.setdefault("oracle.cache.misses", [0])
        fixpoint_stat = self._stat("oracle.leq1_fixpoint")
        cached_stat = self._stat("oracle.leq1_cached")
        read = self.stats.setdefault("oracle.cache_read", [0, 0.0, 0, 0.0])
        write = self.stats.setdefault("oracle.cache_write", [0, 0.0, 0, 0.0])

        traced_build = cli.build_grid

        def build_grid(*args, **kwargs):
            grid = traced_build(*args, **kwargs)
            grid_points[0] += len(grid.points)
            return grid

        traced_fixpoint = oracle.leq1_fixpoint

        def leq1_fixpoint(*args, **kwargs):
            rel = traced_fixpoint(*args, **kwargs)
            rounds[0] += rel.rounds
            return rel

        traced_cached = cli.leq1_cached

        def leq1_cached(*args, **kwargs):
            calls, self_s = fixpoint_stat[0], cached_stat[1]
            rel = traced_cached(*args, **kwargs)
            target, cell = (read, hits) if fixpoint_stat[0] == calls else (write, misses)
            cell[0] += 1
            target[0] += 1
            target[1] += cached_stat[1] - self_s
            return rel

        for orig, wrapper in (
            (traced_build, build_grid),
            (traced_fixpoint, leq1_fixpoint),
            (traced_cached, leq1_cached),
        ):
            self._replace(orig, wrapper)

    # -- results ---------------------------------------------------------------

    def report(self):
        """{"spans": {name: {calls, self_s, compare_calls, total_s}},
        "counts": {name: n}}"""
        spans = {
            name: {"calls": s[0], "self_s": s[1], "compare_calls": s[2], "total_s": s[3]}
            for name, s in sorted(self.stats.items())
        }
        counts = {name: c[0] for name, c in sorted(self.counts.items())}
        return {"spans": spans, "counts": counts}


def _arity(fn):
    """Number of parameters if fn takes only plain positional ones, else None."""
    params = inspect.signature(fn).parameters.values()
    if all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params):
        return len(params)
    return None


def _counting(cell, fn):
    """Wrap fn to add 1 to cell[0] per call."""
    arity = _arity(fn)
    # fixed-arity wrappers: argument packing would double the cost
    if arity == 1:
        def counted(a):
            cell[0] += 1
            return fn(a)
    elif arity == 2:
        def counted(a, b):
            cell[0] += 1
            return fn(a, b)
    else:
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
    return counted
