#!/usr/bin/env python3
"""The ordclass benchmark: seeded CLI sessions, end-to-end timings, output
checks, and a traced run that reports per-layer counters.

    python3 perfbench/run.py --workload oracle-cold|oracle-warm|symbolic-l3|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each session is a closed loop with
one client: a fresh child process (perfbench/session.py) imports the program
from ./src, builds one `Session`, and feeds it the workload's generated
script one line at a time.  Only one child runs at a time.  Sessions repeat
until --seconds have passed.  While its script runs, a session times chunks
of a fixed reference kernel (calib.py) every 50 ms; each command's time is
scaled by how slowly the host ran the kernel around it, and averaged over
the sessions in which the host ran fastest around it.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and two
traced sessions, prints the per-layer metrics of the first traced one, and
checks that both traced sessions made exactly the same calls.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SESSION = os.path.join(HERE, "session.py")
SETUP_PROBES = 10
SETUP_PROBES_PER_SESSION = 2
FASTEST_SESSIONS = 3
MIN_SESSIONS = FASTEST_SESSIONS  # even when one session fills --seconds
RUN_BUDGET_S = 170.0  # every run must end well inside 180 s
# The reference chunk's time (calib.py) on the baseline machine in a fast
# phase; a session's times are scaled to it.
REFERENCE_CHUNK_S = 0.0035
REFERENCE_WINDOW = 7  # the chunks nearest a command set its slowdown
LAYERS = ("cli", "grammar", "terms", "subst", "context", "skeleton", "oracle", "hierarchy")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# children


class Runner:
    """Starts one child at a time, inside the run's scratch directory."""

    def __init__(self, root, work, deadline):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("ORDCLASS_CACHE_DIR", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def child(self, *args, cwd=None):
        self.count += 1
        out = os.path.join(self.work, f"result-{self.count}.json")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a child could start")
        # a group of its own, so that its reference helper can be stopped too
        proc = subprocess.Popen(
            [sys.executable, SESSION, "--src", self.src, "--out", out, *args],
            cwd=cwd or self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise BenchError("a session child ran past the run's time budget") from None
        except BaseException:
            _kill_group(proc)
            raise
        if proc.returncode != 0:
            raise BenchError(f"session child failed:\n{stdout}{stderr}")
        with open(out) as fh:
            return json.load(fh)

    def session(self, name, script_path, workload, cache_dir=None, trace=False):
        cwd = os.path.join(self.work, name)
        os.makedirs(cwd)
        args = ["--script", script_path, "--workload", workload]
        if workload == "oracle-cold":
            cache_dir = os.path.join(cwd, "cache")
        if cache_dir:
            args += ["--cache-dir", cache_dir]
        args.append("--trace" if trace else "--reference")
        result = self.child(*args, cwd=cwd)
        result["workdir"] = cwd
        return result


def _kill_group(proc):
    """Kill a session child and its reference helper; wait until both are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(200):  # the orphaned helper is reaped by init
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# one workload


def run_workload(root, workload, seed, seconds, trace):
    start = time.monotonic()
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
    try:
        runner = Runner(root, work, start + RUN_BUDGET_S)
        return _run(runner, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it


def _run(runner, workload, seed, seconds, trace):
    lines = wl.script(workload, seed)
    script_path = os.path.join(runner.work, "script.txt")
    with open(script_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    runner.child("--setup-only")  # compiles the program's bytecode
    cache_dir = snapshot = None
    if workload == "oracle-warm":
        cache_dir, snapshot = _fill_cache(runner)

    sessions, traced, setup = [], [], []
    if trace:
        sessions.append(runner.session("u0", script_path, workload, cache_dir))
        for name in ("t0", "t1"):
            traced.append(runner.session(name, script_path, workload, cache_dir, trace=True))
    else:
        # set-up probes are spread over the run
        def probe(count):
            setup.extend(runner.child("--setup-only")["setup_s"] for _ in range(count))

        probe(SETUP_PROBES)
        t0 = time.monotonic()
        while len(sessions) < MIN_SESSIONS or time.monotonic() - t0 < seconds:
            last = sessions[-1]["session_s"] if sessions else 0.0
            if len(sessions) >= MIN_SESSIONS and time.monotonic() + 1.5 * last > runner.deadline:
                break
            sessions.append(runner.session(f"s{len(sessions)}", script_path, workload, cache_dir))
            probe(SETUP_PROBES_PER_SESSION)

    attempted, failures = 0, []
    for result in sessions + traced:
        attempted += sum(1 for line in lines if not line.startswith("@"))
        failures += [f"{lines[int(i)]}: {err}" for i, err in result["errors"].items()]
        failures += wl.check_session(workload, lines, result, result["workdir"], snapshot)
        if result["digest"] != sessions[0]["digest"]:
            failures.append("stdout/export digest differs between sessions of one run")
    if trace:
        failures += _compare_counts(traced)
        metrics = layer_metrics(traced[0], sessions[0])
    else:
        metrics = end_to_end_metrics(workload, lines, setup, sessions)
    info = {
        "sessions": len(sessions) + len(traced),
        "query_samples": len(_query_lines(workload, lines)),
        "python": sessions[0]["python"],
        "nproc": os.cpu_count(),
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "info": info,
    }


def _fill_cache(runner):
    """Compute the eps(3) relation into a fresh cache; return (dir, export)."""
    cache_dir = os.path.join(runner.work, "cache")
    fill = os.path.join(runner.work, "fill")
    os.makedirs(fill)
    path = os.path.join(runner.work, "fill.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(wl.oracle_warm_fill()) + "\n")
    result = runner.child("--script", path, "--cache-dir", cache_dir, cwd=fill)
    if result["errors"]:
        raise BenchError(f"cache fill failed: {result['errors']}")
    if not any(n.startswith("leq1_") for n in os.listdir(cache_dir)):
        raise BenchError("cache fill left no snapshot")
    with open(os.path.join(fill, wl.JSON_EXPORT)) as fh:
        return cache_dir, json.load(fh)


# ---------------------------------------------------------------------------
# metrics


def slowdowns(session):
    """Per command, how much slower than the baseline machine's fast phase the
    host ran: the median of the reference chunks taken inside the command,
    or of the REFERENCE_WINDOW chunks nearest it when fewer fell inside,
    over REFERENCE_CHUNK_S."""
    chunks = session["reference_chunks"]
    if len(chunks) < REFERENCE_WINDOW:
        raise BenchError(f"a session took only {len(chunks)} reference chunks")
    where = [i for i, _ in chunks]
    secs = [t for _, t in chunks]
    out = []
    for i in range(len(session["times_ms"])):
        lo, hi = bisect.bisect_left(where, i), bisect.bisect_right(where, i)
        if hi - lo < REFERENCE_WINDOW:
            lo = max(0, min(lo - REFERENCE_WINDOW // 2, len(secs) - REFERENCE_WINDOW))
            hi = lo + REFERENCE_WINDOW
        out.append(statistics.median(secs[lo:hi]) / REFERENCE_CHUNK_S)
    return out


def command_times(sessions):
    """Each command's time in ms at the reference speed: the mean of its
    scaled times in the FASTEST_SESSIONS sessions whose host ran fastest
    around it (see README.md, "Steadiness")."""
    slow = [slowdowns(s) for s in sessions]
    out = []
    for i, first in enumerate(sessions[0]["times_ms"]):
        if first is None:  # an `@` line
            out.append(None)
            continue
        fastest = sorted((sl[i], s["times_ms"][i]) for sl, s in zip(slow, sessions))
        out.append(statistics.fmean(t / x for x, t in fastest[:FASTEST_SESSIONS]))
    return out


def _query_lines(workload, lines):
    """Indices of the commands whose latencies the percentiles cover."""
    ready = set(wl.ready_lines(workload, lines))
    return [i for i, line in enumerate(lines) if not line.startswith("@") and i not in ready]


def end_to_end_metrics(workload, lines, setup, sessions):
    """Command times are those of `command_times`; `session_s` and `ready_s`
    are their sums.  `setup_s` is the best set-up probe."""
    times = command_times(sessions)
    queries = [times[i] for i in _query_lines(workload, lines)]
    deciles = statistics.quantiles(queries, n=10, method="inclusive")
    return {
        "setup_s": (min(setup), "s"),
        "session_s": (sum(t for t in times if t is not None) / 1e3, "s"),
        "ready_s": (sum(times[i] for i in wl.ready_lines(workload, lines)) / 1e3, "s"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sessions), "MB"),
    }


# (metric, source kind, source name, field); spans give calls, self_s,
# compare_calls and total_s
_SPAN = "span"
_COUNT = "count"
PER_LAYER = [
    ("terms.compare.calls", _SPAN, "terms.compare", "calls"),
    ("terms.compare.self_s", _SPAN, "terms.compare", "self_s"),
    ("terms.hash.calls", _COUNT, "terms.hash", None),
    ("terms.eq.calls", _COUNT, "terms.eq", None),
    ("terms.add.calls", _COUNT, "terms.add", None),
    ("terms.mul.calls", _COUNT, "terms.mul", None),
    ("terms.monomials_of.calls", _COUNT, "terms.monomials_of", None),
    ("terms.from_monomials.calls", _COUNT, "terms.from_monomials", None),
    ("oracle.build_grid.self_s", _SPAN, "oracle.build_grid", "self_s"),
    ("oracle.build_grid.compare_calls", _SPAN, "oracle.build_grid", "compare_calls"),
    ("oracle.build_grid.total_s", _SPAN, "oracle.build_grid", "total_s"),
    ("oracle.grid.points", _COUNT, "oracle.grid.points", None),
    ("oracle.decomposition.self_s", _SPAN, "oracle.decomposition", "self_s"),
    ("oracle.decomposition.compare_calls", _SPAN, "oracle.decomposition", "compare_calls"),
    ("oracle.decomposition.total_s", _SPAN, "oracle.decomposition", "total_s"),
    ("oracle.leq1_cached.total_s", _SPAN, "oracle.leq1_cached", "total_s"),
    ("oracle.row_sweep.self_s", _SPAN, "oracle.row_sweep", "self_s"),
    ("oracle.fixpoint.rounds", _COUNT, "oracle.fixpoint.rounds", None),
    ("oracle.cache.hits", _COUNT, "oracle.cache.hits", None),
    ("oracle.cache.misses", _COUNT, "oracle.cache.misses", None),
    ("oracle.cache_read.self_s", _SPAN, "oracle.cache_read", "self_s"),
    ("oracle.cache_write.self_s", _SPAN, "oracle.cache_write", "self_s"),
    ("oracle.export.self_s", _SPAN, "oracle.export", "self_s"),
    ("oracle.grid_index.calls", _SPAN, "oracle.grid_index", "calls"),
    ("oracle.points_in.calls", _SPAN, "oracle.points_in", "calls"),
    ("oracle.points_in.self_s", _SPAN, "oracle.points_in", "self_s"),
    ("grammar.parse_ord.calls", _SPAN, "grammar.parse_ord", "calls"),
    ("grammar.parse_ord.self_s", _SPAN, "grammar.parse_ord", "self_s"),
    ("grammar.render_ord.calls", _SPAN, "grammar.render_ord", "calls"),
    ("grammar.render_ord.self_s", _SPAN, "grammar.render_ord", "self_s"),
    ("cli.run_command.calls", _SPAN, "cli.run_command", "calls"),
    ("cli.run_command.self_s", _SPAN, "cli.run_command", "self_s"),
    ("skeleton.eta_compute.self_s", _SPAN, "skeleton.eta_compute", "self_s"),
    ("skeleton.l_compute.self_s", _SPAN, "skeleton.l_compute", "self_s"),
    ("skeleton.T_set.self_s", _SPAN, "skeleton.T_set", "self_s"),
    ("skeleton.canonical_point.self_s", _SPAN, "skeleton.canonical_point", "self_s"),
    ("skeleton.f_and_S.calls", _SPAN, "skeleton.f_and_S", "calls"),
    ("skeleton.g_map.calls", _SPAN, "skeleton.g_map", "calls"),
    ("subst.apply_subst.calls", _SPAN, "subst.apply_subst", "calls"),
    ("subst.apply_subst.self_s", _SPAN, "subst.apply_subst", "self_s"),
    ("subst.make_map.calls", _SPAN, "subst.make_map", "calls"),
    ("context.m_of.calls", _SPAN, "context.m_of", "calls"),
    ("context.m_of.self_s", _SPAN, "context.m_of", "self_s"),
    ("context.lambda_locate.calls", _SPAN, "context.lambda_locate", "calls"),
    ("context.lambda_locate.self_s", _SPAN, "context.lambda_locate", "self_s"),
    ("hierarchy.G_membership.calls", _SPAN, "hierarchy.G_membership", "calls"),
    ("hierarchy.G_sample.self_s", _SPAN, "hierarchy.G_sample", "self_s"),
    ("hierarchy.A_successor_step.self_s", _SPAN, "hierarchy.A_successor_step", "self_s"),
]
# spans derived from leq1_cached's self time, not separate work
_DERIVED = ("oracle.cache_read", "oracle.cache_write")


def layer_metrics(traced, untraced):
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]
    out = {}
    for metric, kind, source, field in PER_LAYER:
        if kind == _SPAN:
            value = spans.get(source, {}).get(field, 0)
        else:
            value = counts.get(source, 0)
        out[metric] = (value, "s" if field in ("self_s", "total_s") else "count")
    out["oracle.cache.bytes"] = (traced["cache_bytes"], "bytes")
    out["oracle.export.bytes"] = (sum(e["bytes"] for e in traced["exports"].values()), "bytes")
    for layer in LAYERS:
        busy = sum(
            s["self_s"]
            for name, s in spans.items()
            if name.split(".")[0] == layer and name not in _DERIVED
        )
        out[f"{layer}.self_s"] = (busy, "s")
    out["trace.overhead_ratio"] = (traced["session_s"] / untraced["session_s"], "ratio")
    return out


def _compare_counts(traced):
    """Two traced sessions must make exactly the same calls."""
    def calls(result):
        trace = result["trace"]
        return (
            {name: s["calls"] for name, s in trace["spans"].items()},
            trace["counts"],
        )

    if calls(traced[0]) != calls(traced[1]):
        return ["two traced sessions made different calls"]
    return []


# ---------------------------------------------------------------------------
# entry point


def _print_result(workload, result, trace):
    info = result["info"]
    print(f"# {workload}: {info['sessions']} sessions, python {info['python']}, "
          f"nproc {info['nproc']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload}  {name:40s} {value:14.6g} {unit}")
    if not trace:
        print(f"{workload}  query latency samples: {info['query_samples']} commands, "
              f"each from the fastest {FASTEST_SESSIONS} of {info['sessions']} sessions")
    frac = result["failed"] / result["attempted"]
    print(f"{workload}  failed_frac {frac:.6g} ({result['failed']} of {result['attempted']})")
    for failure in result["failures"][:20]:
        print(f"{workload}  FAILED: {failure}", file=sys.stderr)


def _json_line(results):
    metrics = {}
    for prefix, result in results:
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ordclass", "cli.py")):
        print(f"no program: {root}/src/ordclass/cli.py is missing", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if ns.workload == "all" else (ns.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(root, name, ns.seed, ns.seconds, bool(ns.trace))
            _print_result(name, result, ns.trace)
            results.append((f"{name}." if ns.workload == "all" else "", result))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(_json_line(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
