"""Workbench for the ordinal classes induced by the <=1 relation: exact CNF
ordinal arithmetic, the simultaneous epsilon-substitution engine, the class
hierarchy machinery, and a finite-grid <=1 oracle."""

from .context import NEG_INFINITY, ClassContext, chain_bound, chain_down, lambda_locate
from .errors import OrdinalError
from .grammar import parse_ord, render_leaf, render_ord
from .oracle import Grid, GridOps, Leq1Relation, build_grid, leq1_fixpoint
from .skeleton import T_set, canonical_point, eta_compute, f_and_S, g_map, l_compute
from .subst import SubstMap, apply_subst, compare_maps, compose_maps, invert_map, make_map
from .terms import EpsLeaf, OrdTerm, add, classify, compare, ep_set, mul, omega_pow, omega_tower

__all__ = [
    "NEG_INFINITY",
    "ClassContext",
    "EpsLeaf",
    "Grid",
    "GridOps",
    "Leq1Relation",
    "OrdTerm",
    "OrdinalError",
    "SubstMap",
    "T_set",
    "add",
    "apply_subst",
    "build_grid",
    "canonical_point",
    "chain_bound",
    "chain_down",
    "classify",
    "compare",
    "compare_maps",
    "compose_maps",
    "ep_set",
    "eta_compute",
    "f_and_S",
    "g_map",
    "invert_map",
    "l_compute",
    "lambda_locate",
    "leq1_fixpoint",
    "make_map",
    "mul",
    "omega_pow",
    "omega_tower",
    "parse_ord",
    "render_leaf",
    "render_ord",
]
