#!/usr/bin/env python3
"""Print canonical sequences, o-chains, and T-sets over declared atoms.

Usage: python scripts/explore_canonical.py [--level N] [--points K]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ordclass import terms as tm
from ordclass.context import ClassContext, chain_down
from ordclass.grammar import render_leaf, render_ord
from ordclass.skeleton import T_set, canonical_point, g_map
from ordclass.subst import apply_subst


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--level", type=int, default=3)
    parser.add_argument("--points", type=int, default=3)
    ns = parser.parse_args()

    ctx = ClassContext()
    E = ctx.declare("E", ns.level)
    F = ctx.declare("F", ns.level)

    chain = chain_down(ctx, E)
    print("chain_down(E):", " >1 ".join(render_leaf(x) for x in chain))
    for leaf in chain[1:]:
        print(f"  m({render_leaf(leaf)}) = {render_ord(ctx.m_of(tm.Leaf(leaf)))}")

    g = g_map(ns.level, E, F)
    for k in range(1, ns.points + 1):
        data = canonical_point(ctx, ns.level, E, k)
        ts = T_set(ctx, ns.level, E, data.gamma)
        print(f"\nk = {k}")
        print("  x  =", render_ord(data.x))
        print("  gamma =", render_ord(data.gamma))
        print("  o-chain =", " > ".join(render_leaf(o) for o in data.o_chain))
        print("  T-set   =", " > ".join(render_leaf(o) for o in ts))
        moved = apply_subst(data.gamma, g)
        other = canonical_point(ctx, ns.level, F, k).gamma
        print("  transport to F agrees:", tm.eq(moved, other))


if __name__ == "__main__":
    main()
