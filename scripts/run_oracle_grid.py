#!/usr/bin/env python3
"""Build the anchor grid below eps(3), compute the <=1 relation, and write
reports: an anchor summary, the JSON matrix dump, and the DOT covering
relation.

Usage: python scripts/run_oracle_grid.py [outdir] [--cap N]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ordclass import terms as tm
from ordclass.grammar import parse_ord, render_ord
from ordclass.oracle import ANCHOR_OPS, build_grid, leq1_fixpoint

e = parse_ord


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="reports")
    parser.add_argument("--cap", type=int, default=400)
    ns = parser.parse_args()

    t0 = time.perf_counter()
    grid = build_grid(
        e("eps(3)"),
        seeds=[e("eps(0)"), e("eps(1)"), e("eps(2)")],
        ops=ANCHOR_OPS,
        cap=ns.cap,
    )
    rel = leq1_fixpoint(grid)
    elapsed = time.perf_counter() - t0

    os.makedirs(ns.outdir, exist_ok=True)
    with open(os.path.join(ns.outdir, "leq1_matrix.json"), "w") as fh:
        json.dump(rel.to_json(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(ns.outdir, "leq1_covering.dot"), "w") as fh:
        fh.write(rel.to_dot())

    lines = [
        f"grid points: {len(grid.points)} (below eps(3))",
        f"fixpoint rounds: {rel.rounds}, {elapsed:.2f}s",
        "",
        "anchor facts (grid-relative):",
    ]
    for p in grid.points:
        if not tm.is_epsilon(p):
            continue
        lines.append(
            f"  m_hat({render_ord(p)}) = {render_ord(rel.m_hat(p))}"
            f"{'  [boundary]' if rel.boundary_suspect(p) else ''}"
        )
    detect = rel.class_detect(1)
    lines.append(
        "class_detect(1) = {" + ", ".join(render_ord(q) for q, _ in detect) + "}"
    )
    lines.append(f"class_detect(2) = {rel.class_detect(2)!r}")
    report = "\n".join(lines) + "\n"
    with open(os.path.join(ns.outdir, "anchors.txt"), "w") as fh:
        fh.write(report)
    print(report, end="")


if __name__ == "__main__":
    main()
