
import pytest
from hypothesis import given, settings, strategies as st

import subst_reference
from conftest import EPS, random_increasing_map, random_term, seeded
from ordclass import subst
from ordclass import terms as tm
from ordclass.context import ClassContext
from ordclass.errors import (
    CompositionUnsupported,
    LeafOutsideDomain,
    MapInvalid,
    OrderUndecidable,
    OrdinalError,
)
from ordclass.grammar import parse_ord
from ordclass.skeleton import g_map
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


# Leaves for the differential tests of the map algebra: atoms of levels 1
# to 3, their (+k) points and canonical points, and concrete epsilons.
# Some pairs have no decided order: E@2 against B@3(+2), for one.
_CTX = ClassContext()
_ATOMS = [_CTX.declare(name, level) for name, level in zip("ABCDEF", (1, 3, 2, 3, 2, 3))]
_A, _B, _C, _D, _E, _F = _ATOMS
_LEAVES = _ATOMS + EPS[:4] + [
    tm.mk_succ(a, k) for a in _ATOMS for k in range(1, tm.leaf_level(a) + 1)
] + [tm.mk_succ(tm.mk_succ(_B, 2), 1)] + [
    tm.mk_canonical(j, a, 1 + j % 2) for a in _ATOMS for j in range(1, tm.leaf_level(a))
]
_leaf_st = st.sampled_from(_LEAVES)
_AT_LEVEL = {n: [e for e in _LEAVES if tm.leaf_level(e) >= n] for n in (1, 2, 3)}


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except OrdinalError as exc:
        return "raised", type(exc)


def _kept_difference(name, args, want, got):
    """Where the reference answered transport maps (n >= 2) otherwise than
    it answered n = 1 maps, which have no rule: they now get the n = 1
    answer, OrderUndecidable.  Its composition returned a map that make_map
    refuses, and its comparison called thresholds with no decided order
    different domains."""
    if got != ("raised", OrderUndecidable):
        return False
    if name == "compose_maps" and want[0] == "ok":
        f = want[1]
        refused = _outcome(make_map, f.overrides, f.threshold, f.rebase)
        return f.rebase is not None and refused == got
    if name == "compare_maps" and want == ("raised", MapInvalid):
        f, g = args
        return (
            f.rebase is not None and g.rebase is not None
            and _outcome(tm.compare_leaves, f.threshold, g.threshold) == got
        )
    return False


def _same(name, *args):
    """The outcome of subst.<name>, checked against subst_reference's."""
    got = _outcome(getattr(subst, name), *args)
    want = _outcome(getattr(subst_reference, name), *args)
    assert got == want or _kept_difference(name, args, want, got), (name, args, want, got)
    return got


def _map_laws(inner, outer):
    """Compose, invert and compare the two maps, and what they compose to."""
    comp = _same("compose_maps", outer, inner)
    for f in (inner, outer):
        _same("invert_map", f)
    _same("compare_maps", inner, outer)
    _same("compare_maps", outer, inner)
    if comp[0] == "ok":
        _same("invert_map", comp[1])
        _same("compare_maps", comp[1], inner)
    return comp


_pick_st = st.integers(0, len(_LEAVES) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), _pick_st, _pick_st, _pick_st, _pick_st, st.booleans())
def test_g_maps_compose_invert_and_compare_as_the_reference(n, n2, a, b, b2, c, chain):
    """g(n2, b2, c) o g(n, a, b), chained (n2 = n, b2 = b) or not, at n = 1
    to 3 over atoms, (+k) and canonical bases and concrete epsilons."""
    if chain:
        n2, b2 = n, b
    a, b, c = (_AT_LEVEL[n][i % len(_AT_LEVEL[n])] for i in (a, b, c))
    b2 = _AT_LEVEL[n2][b2 % len(_AT_LEVEL[n2])] if not chain else b
    maps = [_outcome(g_map, *args) for args in ((n, a, b), (n2, b2, c))]
    if any(kind != "ok" for kind, _ in maps):
        return  # an undecidable pair: no map
    inner, outer = maps[0][1], maps[1][1]
    comp = _map_laws(inner, outer)
    whole = _outcome(g_map, n, a, c)
    if comp[0] == "ok" and whole[0] == "ok":
        _same("compare_maps", comp[1], whole[1])


def _override_map(pairs, threshold):
    """make_map's map on the drawn sources and images, each put in
    increasing order, or None where make_map refuses them."""
    try:
        srcs, dsts = (tm.sort_leaves(side) for side in zip(*pairs))
        return make_map(zip(srcs, dsts), threshold)
    except OrdinalError:
        return None


_pairs_st = st.lists(st.tuples(_leaf_st, _leaf_st), min_size=1, max_size=3)
_threshold_st = st.one_of(st.none(), _leaf_st)


@st.composite
def _override_maps(draw):
    """Two maps from make_map, the outer one often defined on the inner
    one's images."""
    inner = _override_map(draw(_pairs_st), draw(_threshold_st))
    pairs = draw(_pairs_st)
    if inner is not None and draw(st.booleans()):
        images = [img for _, img in pairs] * 3
        pairs = [(mid, img) for (_, mid), img in zip(inner.overrides, images)]
    return inner, _override_map(pairs, draw(_threshold_st))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_override_maps())
def test_override_maps_compose_invert_and_compare_as_the_reference(maps):
    """Maps with and without an identity region, whose thresholds may have
    no decided order against each other."""
    if None not in maps:
        _map_laws(*maps)


def test_chained_transports_that_make_map_refuses_raise_as_at_level_1():
    """B@3(+2) < D@3 < E@2, but E@2 against B@3(+2) is undecided: the
    composition E@2 -> B@3(+2), identity below B@3(+2), has no decided
    place for E@2.  The reference raised at n = 1 and returned the map at
    n = 2."""
    b2 = tm.mk_succ(_B, 2)
    for n in (1, 2):
        inner, outer = g_map(n, _E, _D), g_map(n, _D, b2)
        with pytest.raises(OrderUndecidable):
            compose_maps(outer, inner)
    with pytest.raises(OrderUndecidable):
        subst_reference.compose_maps(g_map(1, _D, b2), g_map(1, _E, _D))
    old = subst_reference.compose_maps(g_map(2, _D, b2), g_map(2, _E, _D))
    assert old.overrides == ((_E, b2),) and old.threshold == b2
    with pytest.raises(OrderUndecidable):
        make_map(old.overrides, old.threshold, old.rebase)


def test_transports_with_undecided_thresholds_are_undecided_as_at_level_1():
    """g(n, F@3, B@3(+2)) and g(n, F@3, E@2) share F@3's rule, but their
    identity regions end at B@3(+2) and E@2, whose order is undecided."""
    b2 = tm.mk_succ(_B, 2)
    for n in (1, 2):
        with pytest.raises(OrderUndecidable):
            compare_maps(g_map(n, _F, b2), g_map(n, _F, _E))
    with pytest.raises(OrderUndecidable):
        subst_reference.compare_maps(g_map(1, _F, b2), g_map(1, _F, _E))
    with pytest.raises(MapInvalid):
        subst_reference.compare_maps(g_map(2, _F, b2), g_map(2, _F, _E))


def test_an_inverse_is_validated_like_any_other_map():
    """A decreasing transport built by hand: the reference inverted it
    without a check; make_map now refuses the inverse."""
    hand_built = SubstMap(((EPS[2], EPS[1]),), EPS[2], (2, EPS[2], EPS[1]))
    assert subst_reference.invert_map(hand_built).overrides == ((EPS[1], EPS[2]),)
    with pytest.raises(MapInvalid):
        invert_map(hand_built)


def test_transport_maps_compose_only_as_they_chain():
    ctx = ClassContext()
    x, y, z = (ctx.declare(name, 2) for name in "XYZ")
    comp = compose_maps(g_map(2, y, z), g_map(2, x, y))
    assert comp.rebase == (2, x, z) and comp.overrides == ((x, z),)
    assert invert_map(comp).rebase == (2, z, x)
    for outer, inner in (
        (g_map(2, x, z), g_map(2, x, y)),  # y is not x
        (g_map(1, y, z), g_map(2, x, y)),  # a map with no rule
        (g_map(2, y, z), make_map([(x, y)])),
    ):
        with pytest.raises(CompositionUnsupported):
            compose_maps(outer, inner)
