import random

import pytest

from ordclass import terms as tm
from ordclass.grammar import parse_ord
from ordclass.oracle import ANCHOR_OPS, GridOps, build_grid, leq1_fixpoint

EPS = [tm.ConcreteEps(tm.nat(i)) for i in range(8)]


def random_term(rng, depth=3, leaves=EPS[:4]):
    """A random normal-form term of bounded nesting depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.5:
            return tm.nat(rng.randint(0, 9))
        return tm.Leaf(rng.choice(leaves))
    k = rng.randint(1, 3)
    parts = []
    for _ in range(k):
        exp = random_term(rng, depth - 1, leaves)
        coeff = rng.randint(1, 3)
        parts.append(tm.mul(tm.omega_pow(exp), tm.nat(coeff)))
    if rng.random() < 0.5:
        parts.append(tm.nat(rng.randint(1, 5)))
    out = tm.ZERO
    for p in parts:
        out = tm.add(out, p)
    return out


def random_increasing_map(rng, pool=EPS[:6], size=4):
    srcs = sorted(rng.sample(range(len(pool)), size))
    gap = len(pool) - size
    imgs = []
    lo = 0
    for s in srcs:
        lo = max(lo, s - gap)
        hi = s + gap
        pick = rng.randint(max(lo, srcs.index(s)), min(hi, len(pool) - 1))
        imgs.append(pick)
        lo = pick + 1
    if len(set(imgs)) != size or imgs != sorted(imgs):
        imgs = srcs
    return [(pool[s], pool[i]) for s, i in zip(srcs, imgs)]


@pytest.fixture(scope="session")
def anchor_grid():
    e = parse_ord
    return build_grid(
        e("eps(3)"),
        seeds=[e("eps(0)"), e("eps(1)"), e("eps(2)")],
        ops=ANCHOR_OPS,
        cap=400,
    )


@pytest.fixture(scope="session")
def anchor_rel(anchor_grid):
    return leq1_fixpoint(anchor_grid)


@pytest.fixture(scope="session")
def eps0_grid():
    """A grid inside [0, eps(1)) so eta/l at eps(0) cover its whole range."""
    e = parse_ord
    ops = GridOps(tower_height=3, coeff_cap=2, tail_cap=2, max_monomials=2)
    return build_grid(e("eps(1)"), seeds=[e("eps(0)")], ops=ops, cap=400)


@pytest.fixture(scope="session")
def eps0_rel(eps0_grid):
    return leq1_fixpoint(eps0_grid)


def seeded(seed=0):
    return random.Random(seed)
