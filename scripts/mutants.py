#!/usr/bin/env python3
"""The mutants the tests must kill, each applied to a temporary copy of src/.

Usage: python scripts/mutants.py [NAME ...]

MUTANTS names each mutant: a file under src/, its exact old text, the new
text, the test files that must fail, and whether it must die.  For each
mutant (or only those named) the script copies src/ into a temporary
directory, replaces the old text there, runs pytest -x on the named test
files with that copy first on PYTHONPATH, and prints whether the mutant was
killed (pytest exit 1; the first failed test is named) or survived (exit
0).  It exits 1 if a mutant marked "must die" survives, if pytest
ends in any other way (a collection error, say), or if an old text does not
occur exactly once in src/; tests/test_scripts.py checks the last at every
run of the suite.  No mutated code is written outside the temporary copy.
"""

import argparse
import collections
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
MUST_DIE = "must die"
Mutant = collections.namedtuple("Mutant", "name path old new tests expect", defaults=(MUST_DIE,))


MUTANTS = [
    Mutant(
        "window-table-identity",  # each prefix topped by its last rank
        "ordclass/skeleton.py",
        "first.append(top)",
        "first.append(j)",
        ["tests/test_oracle_equivalence.py"],
    ),
    Mutant(
        "window-table-ties-go-up",  # a tied top frontier moves to the later rank
        "ordclass/skeleton.py",
        "if f[j] > f[top]:",
        "if f[j] >= f[top]:",
        ["tests/test_oracle_equivalence.py"],
    ),
    Mutant(
        "ranks-index-as-they-read",  # a non-point A reported before B fails to parse
        "ordclass/cli.py",
        "    points = [_term(session, text) if i is None else None for text, i in zip(texts, ranks)]\n"
        "    return [grid.index(p) if i is None else i for p, i in zip(points, ranks)]\n",
        "    return [grid.index(_term(session, text)) if i is None else i for text, i in zip(texts, ranks)]\n",
        ["tests/test_cli.py"],
    ),
    Mutant(
        "argv-joined-by-spaces",  # an argv word with a space splits in two
        "ordclass/cli.py",
        "commands.append(shlex.join(ns.command))",
        'commands.append(" ".join(ns.command))',
        ["tests/test_cli.py"],
    ),
    Mutant(
        "row-frontier-drops-low-rows",
        "ordclass/oracle.py",
        "return min(f[i], tm.bisect_terms(pts, alpha2), 1 + min(low_ends, default=f[i]))",
        "return min(f[i], tm.bisect_terms(pts, alpha2))",
        ["tests/test_oracle.py", "tests/test_oracle_equivalence.py"],
    ),
    Mutant(
        "G-sample-empty",  # criterion 7 compares two sides empty by construction
        "ordclass/hierarchy.py",
        "    return tm.sort_leaves(beta for beta, member, _ in rows if member)\n",
        "    return ()\n",
        ["tests/test_acceptance.py", "tests/test_hierarchy.py"],
        expect="survives (item 4)",
    ),
    Mutant(
        "grid-eta-answers-its-argmax",  # eta prints the point at rank r, not at r's frontier
        "ordclass/cli.py",
        "return grid.rendered[rel.frontiers[r] if compute is eta_compute else r]",
        "return grid.rendered[r]",
        ["tests/test_cli.py"],
    ),
    Mutant(
        "rank-path-skips-the-window-check",  # T outside ALPHA's interval read as inside
        "ordclass/skeleton.py",
        "    if not below <= j < upper:\n        return None\n",
        "",
        ["tests/test_cli.py"],
    ),
]


def occurrences(mutant, src):
    """How often the old text occurs in the mutant's file, and in all of
    src's Python files."""
    counts = {}
    for folder, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    counts[os.path.relpath(path, src)] = fh.read().count(mutant.old)
    return counts.get(os.path.normpath(mutant.path), 0), sum(counts.values())


def run(mutant, src):
    """'killed by <the first failed test>' or 'survived', with the seconds
    pytest took."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(copy, mutant.path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        tests = [os.path.join(ROOT, t) for t in mutant.tests]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp,  # the hypothesis database goes with the copy
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}")
    if proc.returncode == 0:
        return "survived", seconds
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return f"killed by {failed[0].rsplit('/', 1)[-1] if failed else '?'}", seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    failed = False
    for mutant in [by_name[n] for n in args.names] or MUTANTS:
        here, everywhere = occurrences(mutant, src)
        if (here, everywhere) != (1, 1):
            print(f"{mutant.name}: old text occurs {here} times in src/{mutant.path}, {everywhere} in src/")
            failed = True
            continue
        outcome, seconds = run(mutant, src)
        note = ""
        if outcome == "survived" and mutant.expect == MUST_DIE:
            failed, note = True, "  <- must die"
        elif outcome != "survived" and mutant.expect != MUST_DIE:
            note = f"  (expected: {mutant.expect}; the table can mark it {MUST_DIE!r})"
        print(f"{mutant.name}: {outcome} in {seconds:.1f} s{note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
