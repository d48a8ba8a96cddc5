"""Smoke tests: the scripts run end to end and write what they promise."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_oracle_grid_writes_reports(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_oracle_grid.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "anchors.txt",
        "leq1_covering.dot",
        "leq1_matrix.json",
    ]
    report = (tmp_path / "anchors.txt").read_text()
    assert proc.stdout == report
    assert report.startswith("grid points: 243 (below eps(3))\n")
    assert "  m_hat(eps(0)) = eps(0)*2\n" in report
    assert "class_detect(1) = {eps(0), eps(1), eps(2)}\n" in report
    data = json.loads((tmp_path / "leq1_matrix.json").read_text())
    assert set(data) == {"points", "frontiers", "matrix", "rounds"}
    assert len(data["frontiers"]) == 243
    dot = (tmp_path / "leq1_covering.dot").read_text()
    assert dot.startswith("digraph leq1 {") and dot.endswith("}\n")
