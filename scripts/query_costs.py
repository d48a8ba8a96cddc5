#!/usr/bin/env python3
"""Per-verb command costs of a benchmark workload, in one process.

Usage: python scripts/query_costs.py WORKLOAD [--seed N] [--repeat R] [--src DIR]

Generates the seeded script of WORKLOAD (oracle-cold, oracle-warm or
symbolic-l3) with perfbench/workloads.py, which it only imports, and runs it
R times through `ordclass.cli.run_command`, each time in a fresh `Session`
inside a temporary directory (the exports are written there).  Every command
is timed with time.perf_counter.  For each verb it prints the number of
commands and the median and p90 of their times in ms, each the best of the
R runs.  A first `startup` row gives the median and p90 time to import
`ordclass.cli` and build a `Session` in R fresh interpreters, after one
untimed interpreter that writes the bytecode cache.  A `queries` row gives
the median and p90 over the commands that perfbench/run.py counts as
queries, every one not in `workloads.ready_lines`: the in-process analogue
of its query_p50_ms and query_p90_ms.  Two last rows give the
total time of a run's set-up commands (`ready`: the lines of
`workloads.ready_lines`, whose sum is the benchmark's ready_s) and of all
its commands (`session`), the best of the R runs; a total is one value per
run, so its median and p90 agree.  Unlike perfbench/run.py
it runs no reference kernel and scales no time, so its numbers compare verbs
within one run, not machines; the oracle-warm script runs without a cache.

--src DIR times the `ordclass` package under DIR (default: this checkout's
src/) with the same workload script and harness, for example another
checkout's src/: runs of two checkouts taken in turns compare them.  The
first line names the package directory that was timed.
"""

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STARTUP = (
    "import time; t = time.perf_counter(); import ordclass.cli as cli; cli.Session();"
    " print((time.perf_counter() - t) * 1e3)"
)


def time_startup(src, repeat):
    """The ms to import ordclass.cli from src and build a Session in each of
    repeat fresh interpreters, after one untimed interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(repeat + 1):
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP], env=env, capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout))
    return times[1:]


def time_script(cli, error, lines):
    """{line index: ms} of each command of one run of the script in a fresh
    session of cli, the ordclass.cli module timed; error is its OrdinalError."""
    session = cli.Session(grid_cap=1000)  # as perfbench/session.py sets it
    run_command = cli.run_command
    times = {}
    clock = time.perf_counter
    for i, line in enumerate(lines):
        if line.startswith("@"):  # a harness directive, not a command
            continue
        start = clock()
        try:
            run_command(session, line)
        except error as exc:
            raise SystemExit(f"{line}: {exc}") from None
        times[i] = (clock() - start) * 1e3
    return times


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    ns = parser.parse_args(argv)
    if ns.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = os.path.abspath(ns.src)
    if not os.path.isfile(os.path.join(src, "ordclass", "cli.py")):
        parser.error(f"--src {ns.src}: no ordclass/cli.py there")
    sys.path.insert(0, src)
    cli = importlib.import_module("ordclass.cli")
    error = importlib.import_module("ordclass.errors").OrdinalError

    lines = workloads.script(ns.workload, ns.seed)
    startup = time_startup(src, ns.repeat)
    runs = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for _ in range(ns.repeat):
                runs.append(time_script(cli, error, lines))
        finally:
            os.chdir(cwd)

    print(
        f"{ns.workload}, seed {ns.seed}: best of {ns.repeat} in-process runs,"
        f" Python {sys.version.split()[0]}, {os.path.dirname(cli.__file__)}"
    )
    print(f"{'verb':<12}{'count':>7}{'median_ms':>12}{'p90_ms':>12}")
    median, tail = statistics.median(startup), p90(startup)
    print(f"{'startup':<12}{len(startup):>7}{median:>12.4g}{tail:>12.4g}")
    verbs = {}
    for i in runs[0]:
        verbs.setdefault(lines[i].split()[0], []).append(i)
    ready = workloads.ready_lines(ns.workload, lines)
    queries = sorted(set(runs[0]) - set(ready))
    for verb, indices in [*verbs.items(), ("queries", queries)]:
        median = min(statistics.median([run[i] for i in indices]) for run in runs)
        tail = min(p90([run[i] for i in indices]) for run in runs)
        print(f"{verb:<12}{len(indices):>7}{median:>12.4g}{tail:>12.4g}")
    for name, indices in (("ready", ready), ("session", runs[0])):
        total = min(sum(run[i] for i in indices) for run in runs)
        print(f"{name:<12}{len(indices):>7}{total:>12.4g}{total:>12.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
