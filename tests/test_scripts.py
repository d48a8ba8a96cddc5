"""Smoke tests: the scripts run end to end and write what they promise, and
the benchmark's per-layer tracer still finds the functions it names."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ordclass import cli
from test_oracle_equivalence import ANCHOR_EXPORTS

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_anchor_report_writes_the_exports(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ORDCLASS_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ordclass", "--format", "json",
         "--script", str(SCRIPTS / "anchor_report.txt")],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "leq1_covering.dot",
        "leq1_matrix.json",
    ]
    payloads = [json.loads(line) for line in proc.stdout.splitlines()]
    assert payloads[0] == {"grid": "g", "points": 243, "rounds": 2}
    assert [p for p in payloads if "m_hat" in p] == [
        {"m_hat": f"eps({g})*2", "boundary": False} for g in range(3)
    ]
    detect = [p["class_detect"] for p in payloads if "class_detect" in p]
    assert [[hit["point"] for hit in hits] for hits in detect] == [
        ["eps(0)", "eps(1)", "eps(2)"],
        [],
    ]
    matrix = (tmp_path / "leq1_matrix.json").read_text()
    data = json.loads(matrix)
    assert set(data) == {"points", "frontiers", "matrix", "rounds"}
    assert len(data["frontiers"]) == 243
    dot = (tmp_path / "leq1_covering.dot").read_text()
    assert dot.startswith("digraph leq1 {") and dot.endswith("}\n")
    # the pinned digest joins the JSON dump, without its final newline, and the DOT
    export = matrix.removesuffix("\n") + dot
    assert hashlib.sha256(export.encode()).hexdigest()[:16] == ANCHOR_EXPORTS[3]


@pytest.mark.parametrize("level, points", [(3, 4), (2, 2)])
def test_explore_canonical_transports_every_point(level, points):
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "explore_canonical.py"),
            "--level",
            str(level),
            "--points",
            str(points),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("chain_down(E): E@" + str(level))
    assert [line for line in lines if line.startswith("k = ")] == [
        f"k = {k}" for k in range(1, points + 1)
    ]
    agrees = [line for line in lines if "transport to F agrees" in line]
    assert agrees == ["  transport to F agrees: True"] * points
    # the T-set of gamma is its o-chain (criterion 5)
    chains = [line.split("=", 1)[1] for line in lines if "o-chain" in line]
    tsets = [line.split("=", 1)[1] for line in lines if "T-set" in line]
    assert tsets == chains and len(chains) == points


def test_query_costs_prints_every_verb_of_the_workload():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "query_costs.py"), "oracle-warm", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("oracle-warm, seed 21: best of 1 in-process runs")
    assert lines[1].split() == ["verb", "count", "median_ms", "p90_ms"]
    assert lines[2].split()[:2] == ["startup", "1"]
    rows = {row.split()[0]: row.split()[1:] for row in lines[2:]}
    assert set(rows) == {
        "startup", "grid", "leq1", "mhat", "eta", "ell", "gset", "astep", "canon", "classdetect",
        "export", "ready", "session",
    }
    assert [row.split()[0] for row in lines[-2:]] == ["ready", "session"]
    assert rows["grid"][0] == "1" and rows["classdetect"][0] == "3"
    for count, median, tail in rows.values():
        assert 0 < float(median) <= float(tail)
    # the ready row is the grid command; the session row counts every command
    verbs = set(rows) - {"startup", "ready", "session"}
    assert int(rows["session"][0]) == sum(int(rows[verb][0]) for verb in verbs)
    assert rows["ready"][0] == "1" and rows["ready"][1] == rows["ready"][2]
    assert float(rows["grid"][1]) <= float(rows["ready"][1]) <= float(rows["session"][1])


def test_query_costs_times_the_package_under_src(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "ordclass", other / "ordclass",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = [sys.executable, str(SCRIPTS / "query_costs.py"), "symbolic-l3", "--repeat", "1"]
    proc = subprocess.run(
        [*script, "--src", str(other)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("symbolic-l3, seed 21: best of 1 in-process runs")
    assert lines[0].endswith(", " + str(other / "ordclass"))
    rows = {row.split()[0]: row.split()[1] for row in lines[2:]}
    assert rows["canon"] == "108" and rows["ready"] == "110" and rows["session"] == "674"
    proc = subprocess.run(
        [*script, "--src", str(tmp_path / "none")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and "no ordclass/cli.py there" in proc.stderr


def test_perfbench_tracer_records_the_named_layers(tmp_path):
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        session = cli.Session()
        gamma = "w^(cp(2,1,cp(3,1,A@3))+1)+cp(2,1,cp(3,1,A@3))+1"  # of canon 3 A@3 1
        for command in (
            "grid g eps(1) eps(0)",
            "eta 1 eps(0) eps(0)*2+1 g",
            "ell 1 eps(0) eps(0)*2+1 g",
            "canon 1 eps(0) 1 g",
            f"export g {tmp_path / 'g.json'}",
            "declare A 3",
            "canon 3 A@3 1",
            f"tset 3 A@3 {gamma}",
            f"eta 3 A@3 {gamma}",
        ):
            cli.run_command(session, command)
    finally:
        tracer.uninstall()
    spans = tracer.report()["spans"]
    for name in (
        "oracle.row_sweep", "oracle.export", "skeleton.eta_compute", "context.m_of",
        "context.ClassContext.set_m", "context.ClassContext.register",
        "context.ClassContext.leaves_between",
    ):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    assert cli._VERBS["export"] is cli._cmd_export  # uninstalled
