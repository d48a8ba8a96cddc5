
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EPS, random_increasing_map, random_term, seeded
from ordclass import terms as tm
from ordclass.errors import LeafOutsideDomain, MapInvalid
from ordclass.grammar import parse_ord
from ordclass.subst import (
    MapOrder,
    SubstMap,
    apply_subst,
    compare_maps,
    compose_maps,
    invert_map,
    make_map,
)


def raw_subst(x, table):
    """Independent recursion over the CNF tree, no re-normalization entry."""
    if isinstance(x, tm.Leaf):
        return tm.Leaf(table[x.leaf])
    if isinstance(x, (tm.Zero, tm.NatSum)):
        return x
    return tm.Cnf(tuple((raw_subst(e, table), c) for e, c in x.monomials))


maps_st = st.builds(lambda s: random_increasing_map(seeded(s), EPS[:6], 6), st.integers(0, 10**6))
terms_st = st.builds(
    lambda s: random_term(seeded(s), depth=3, leaves=EPS[:6]), st.integers(0, 10**6)
)


def test_make_map_examples():
    make_map([(EPS[0], EPS[1])])
    with pytest.raises(MapInvalid):
        make_map([(EPS[0], EPS[2]), (EPS[1], EPS[1])])
    make_map([(EPS[0], EPS[0])])
    with pytest.raises(MapInvalid):
        make_map([(EPS[0], EPS[1]), (EPS[0], EPS[2])])


def test_apply_examples():
    f = make_map([(EPS[0], EPS[5])])
    assert tm.eq(apply_subst(tm.nat(42), f), tm.nat(42))
    x = parse_ord("eps(0)*2+w")
    assert tm.eq(apply_subst(x, f), parse_ord("eps(5)*2+w"))
    g = make_map([(EPS[0], EPS[1]), (EPS[1], EPS[2])])
    y = tm.omega_pow(tm.add(tm.Leaf(EPS[1]), tm.Leaf(EPS[0])))
    moved = apply_subst(y, g)
    assert tm.eq(moved, tm.omega_pow(tm.add(tm.Leaf(EPS[2]), tm.Leaf(EPS[1]))))
    table = {EPS[0]: EPS[1], EPS[1]: EPS[2]}
    assert tm.eq(tm.rebuild(raw_subst(y, table)), moved)


def test_leaf_outside_domain_reports_leaf():
    f = make_map([(EPS[0], EPS[1])])
    with pytest.raises(LeafOutsideDomain) as exc:
        apply_subst(tm.Leaf(EPS[3]), f)
    assert exc.value.leaf == EPS[3]


@given(terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_result_already_normal(x, pairs):
    f = make_map(pairs)
    table = dict(pairs)
    moved = apply_subst(x, f)
    assert tm.rebuild(raw_subst(x, table)) == raw_subst(x, table) == moved


@given(terms_st, terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_order_equivalence(x, y, pairs):
    f = make_map(pairs)
    assert tm.compare(x, y) == tm.compare(apply_subst(x, f), apply_subst(y, f))


@given(terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_kind_preservation(y, pairs):
    f = make_map(pairs)
    a, b = tm.classify(y), tm.classify(apply_subst(y, f))
    assert a.is_principal == b.is_principal
    assert a.is_epsilon == b.is_epsilon


@given(terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_ep_set_image(x, pairs):
    f = make_map(pairs)
    table = dict(pairs)
    expected = tm.sort_leaves([table[e] for e in tm.ep_set(x)], reverse=True)
    assert tm.ep_set(apply_subst(x, f)) == expected


@given(terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip(x, pairs):
    f = make_map(pairs)
    assert tm.eq(apply_subst(apply_subst(x, f), invert_map(f)), x)


def test_invert_examples():
    f = make_map([(EPS[0], EPS[3])])
    assert invert_map(f).overrides == ((EPS[3], EPS[0]),)
    ident = make_map([(e, e) for e in EPS[:4]])
    assert invert_map(ident) == ident


@given(terms_st, terms_st, maps_st)
@settings(max_examples=100, deadline=None)
def test_homomorphism(x, y, pairs):
    f = make_map(pairs)
    assert tm.eq(apply_subst(tm.add(x, y), f), tm.add(apply_subst(x, f), apply_subst(y, f)))
    assert tm.eq(apply_subst(tm.omega_pow(x), f), tm.omega_pow(apply_subst(x, f)))
    assert tm.eq(apply_subst(tm.mul(x, y), f), tm.mul(apply_subst(x, f), apply_subst(y, f)))


def test_interval_transport():
    rng = seeded(3)
    f = make_map(random_increasing_map(rng, EPS[:6], 6))
    for _ in range(200):
        alpha = rng.choice(EPS[:5])
        x = random_term(rng, depth=2, leaves=EPS[:6])
        lo, hi = tm.Leaf(alpha), tm.Leaf(tm.mk_succ(alpha, 1))
        inside = tm.le(lo, x) and tm.lt(x, hi)
        img = f.lookup(alpha)
        moved = apply_subst(x, f)
        lo2, hi2 = tm.Leaf(img), tm.Leaf(tm.mk_succ(img, 1))
        inside2 = tm.le(lo2, moved) and tm.lt(moved, hi2)
        assert inside == inside2


def test_compose_examples():
    f = make_map([(e, e) for e in EPS[:5]])
    g = make_map([(EPS[0], EPS[1]), (EPS[1], EPS[2])])
    assert compose_maps(f, g).overrides == g.overrides
    h = compose_maps(make_map([(EPS[1], EPS[2])]), make_map([(EPS[0], EPS[1])]))
    assert tm.eq(apply_subst(tm.Leaf(EPS[0]), h), tm.Leaf(EPS[2]))


@given(terms_st, st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_compose_law(t, s1, s2):
    inner = make_map(random_increasing_map(seeded(s1), EPS[:6], 6))
    outer_pairs = [(d, d) for _, d in inner.overrides]
    outer = make_map(
        [(s, EPS[min(7, list(EPS).index(d) + 1)]) for s, d in
         zip([p[0] for p in outer_pairs], [p[1] for p in outer_pairs])]
    )
    comp = compose_maps(outer, inner)
    assert tm.eq(apply_subst(t, comp), apply_subst(apply_subst(t, inner), outer))


def test_compare_maps():
    f = make_map([(EPS[0], EPS[1]), (EPS[1], EPS[2])])
    assert compare_maps(f, f) is MapOrder.EQ
    g = make_map([(EPS[0], EPS[1]), (EPS[1], EPS[3])])
    assert compare_maps(f, g) is MapOrder.LT
    assert compare_maps(g, f) is MapOrder.GT
    with pytest.raises(MapInvalid):
        compare_maps(f, make_map([(EPS[0], EPS[1])]))


@given(terms_st, st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_pointwise_order_transfers(x, seed):
    rng = seeded(seed)
    f_pairs = random_increasing_map(rng, EPS[:6], 6)
    g_pairs = [(s, EPS[min(7, list(EPS).index(d) + rng.choice([0, 1]))]) for s, d in f_pairs]
    try:
        g = make_map(g_pairs)
    except MapInvalid:
        return
    f = make_map(f_pairs)
    order = compare_maps(f, g)
    if order in (MapOrder.EQ, MapOrder.LT):
        assert tm.le(apply_subst(x, f), apply_subst(x, g))
    if order is MapOrder.LT:
        strict = {s for (s, d1), (_, d2) in zip(f.overrides, g.overrides) if d1 != d2}
        if set(tm.ep_set(x)) & strict:
            assert tm.lt(apply_subst(x, f), apply_subst(x, g))


def test_json_roundtrip():
    f = make_map([(EPS[1], EPS[2])], threshold=EPS[1])
    data = f.to_json()
    assert data["rule"] == "identity-below"
