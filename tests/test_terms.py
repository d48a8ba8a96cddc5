import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import terms_reference
from conftest import EPS, random_term, seeded
from ordclass import terms as tm
from ordclass.errors import LevelViolation, OrderUndecidable
from ordclass.grammar import parse_ord, render_ord

e = parse_ord


def naive_mul(a, b):
    """Independent product: distribute over b's monomials, sum by iteration."""
    out = tm.ZERO
    for exp, coeff in tm.monomials_of(b):
        if isinstance(exp, tm.Zero):
            for _ in range(coeff):
                out = tm.add(out, a)
        else:
            block = tm.omega_pow(tm.add(tm.monomials_of(a)[0][0], exp))
            for _ in range(coeff):
                out = tm.add(out, block)
    return out


terms_st = st.builds(lambda s: random_term(seeded(s), depth=3), st.integers(0, 10**6))


def test_add_absorbs_finite():
    assert tm.eq(tm.add(tm.one(), tm.omega()), tm.omega())


def test_mul_left_distributes():
    assert tm.eq(tm.mul(e("w+1"), tm.nat(2)), e("w*2+1"))


def test_omega_pow_and_mul_agree_on_eps():
    eps0 = tm.Leaf(EPS[0])
    expected = tm.omega_pow(tm.add(eps0, tm.one()))
    assert tm.eq(tm.mul(eps0, tm.omega()), expected)
    assert tm.eq(naive_mul(eps0, tm.omega()), expected)


@given(terms_st, terms_st)
@settings(max_examples=60, deadline=None)
def test_mul_matches_naive_oracle(a, b):
    if isinstance(a, tm.Zero):
        return
    assert tm.eq(tm.mul(a, b), naive_mul(a, b))


def test_compare_examples():
    assert tm.compare(e("w*5"), e("w^w")) is tm.LT
    assert tm.compare(tm.Leaf(EPS[0]), tm.omega_pow(tm.Leaf(EPS[0]))) is tm.EQ
    A = tm.ClassAtom("A", 3, 0)
    assert (
        tm.compare(tm.Leaf(tm.mk_succ(A, 1)), tm.Leaf(tm.mk_succ(A, 2))) is tm.LT
    )


def test_leaf_order_rules():
    A = tm.ClassAtom("A", 3, 0)
    B = tm.ClassAtom("B", 3, 1)
    # min-property: A(+^k) <= b for any leaf b > A of level >= k
    assert tm.compare_leaves(tm.mk_succ(A, 2), B) is tm.LT
    assert tm.compare_leaves(tm.mk_succ(tm.mk_succ(A, 2), 1), tm.mk_succ(A, 3)) is tm.LT
    # concrete epsilons sit below declared atoms
    assert tm.compare_leaves(EPS[5], A) is tm.LT


def test_leaf_order_undecidable_reported():
    A = tm.ClassAtom("A", 3, 0)
    B = tm.ClassAtom("B", 1, 1)
    with pytest.raises(OrderUndecidable):
        tm.compare_leaves(tm.mk_succ(A, 3), B)


def test_succ_level_violation():
    with pytest.raises(LevelViolation):
        tm.mk_succ(EPS[0], 2)


def test_canonical_point_levels():
    A = tm.ClassAtom("A", 3, 0)
    x = tm.mk_canonical(2, A, 1)
    assert tm.leaf_level(x) == 2
    with pytest.raises(LevelViolation):
        tm.mk_canonical(3, A, 1)


def test_canonical_points_between_succ_landmarks():
    A = tm.ClassAtom("A", 3, 0)
    x1 = tm.mk_canonical(2, A, 1)
    x2 = tm.mk_canonical(2, A, 2)
    assert tm.compare_leaves(tm.mk_succ(A, 2), x1) is tm.LT
    assert tm.compare_leaves(x1, x2) is tm.LT
    assert tm.compare_leaves(x2, tm.mk_succ(A, 3)) is tm.LT


def test_classify():
    assert not tm.classify(e("w^w*2")).is_principal
    f = tm.classify(tm.Leaf(EPS[3]))
    assert f.is_principal and f.is_epsilon
    g = tm.classify(tm.omega_pow(tm.add(tm.Leaf(EPS[0]), tm.one())))
    assert g.is_principal and not g.is_epsilon
    assert tm.classify(tm.ZERO).is_zero
    assert tm.classify(e("w+3")).is_successor
    assert tm.classify(e("w*2")).is_limit


def test_ep_set():
    t = tm.add(
        tm.omega_pow(tm.mul(tm.Leaf(EPS[1]), tm.nat(2))),
        tm.add(tm.mul(tm.Leaf(EPS[0]), tm.nat(3)), tm.nat(7)),
    )
    assert tm.ep_set(t) == (EPS[1], EPS[0])
    assert tm.ep_set(e("w^w+5")) == ()
    assert tm.ep_set(tm.Leaf(EPS[0])) == (EPS[0],)


def test_omega_tower():
    eps0 = EPS[0]
    assert tm.eq(tm.omega_tower(eps0, 0), tm.add(tm.Leaf(eps0), tm.one()))
    assert tm.eq(tm.omega_tower(eps0, 1), tm.omega_pow(tm.add(tm.Leaf(eps0), tm.one())))
    assert tm.eq(tm.omega_tower(eps0, 2), tm.omega_pow(tm.omega_tower(eps0, 1)))
    prev = tm.Leaf(eps0)
    upper = tm.Leaf(tm.mk_succ(eps0, 1))
    for k in range(5):
        cur = tm.omega_tower(eps0, k)
        assert tm.lt(prev, cur) and tm.lt(cur, upper)
        prev = cur


@given(terms_st)
@settings(max_examples=80, deadline=None)
def test_normalization_idempotent(t):
    assert tm.rebuild(t) == t


@given(terms_st, terms_st, terms_st)
@settings(max_examples=80, deadline=None)
def test_add_associative(a, b, c):
    assert tm.eq(tm.add(tm.add(a, b), c), tm.add(a, tm.add(b, c)))


@given(terms_st, terms_st, terms_st)
@settings(max_examples=50, deadline=None)
def test_mul_associative(a, b, c):
    assert tm.eq(tm.mul(tm.mul(a, b), c), tm.mul(a, tm.mul(b, c)))


@given(terms_st, terms_st)
@settings(max_examples=60, deadline=None)
def test_omega_pow_hom(a, b):
    assert tm.eq(
        tm.omega_pow(tm.add(a, b)), tm.mul(tm.omega_pow(a), tm.omega_pow(b))
    )


@given(terms_st, terms_st, terms_st)
@settings(max_examples=80, deadline=None)
def test_order_left_add_monotone(a, b, c):
    if tm.lt(a, b):
        assert tm.lt(tm.add(c, a), tm.add(c, b))


@given(terms_st, terms_st, terms_st)
@settings(max_examples=80, deadline=None)
def test_order_transitive(a, b, c):
    if tm.lt(a, b) and tm.lt(b, c):
        assert tm.lt(a, c)


@given(terms_st)
@settings(max_examples=60, deadline=None)
def test_epsilon_fixed_point_rule(t):
    assert tm.is_epsilon(t) == tm.eq(tm.omega_pow(t), t)


@given(terms_st, terms_st)
@settings(max_examples=60, deadline=None)
def test_ep_set_closure(x, y):
    allowed = set(tm.ep_set(x)) | set(tm.ep_set(y))
    for t in (tm.add(x, y), tm.omega_pow(x), tm.mul(x, y)):
        assert set(tm.ep_set(t)) <= allowed


def test_left_subtract_roundtrip():
    rng = seeded(5)
    for _ in range(200):
        a = random_term(rng)
        b = random_term(rng)
        if tm.le(a, b):
            assert tm.eq(tm.add(a, tm.left_subtract(a, b)), b)


def _reference_add(a, b):
    """terms.add as it was before it shared add_monomials with the parser."""
    ma, mb = tm.monomials_of(a), tm.monomials_of(b)
    if not mb:
        return a
    if not ma:
        return b
    head_b = mb[0][0]
    keep = [m for m in ma if tm.compare(m[0], head_b) is tm.GT]
    merged = list(mb)
    if len(keep) < len(ma) and tm.eq(ma[len(keep)][0], head_b):
        merged[0] = (head_b, ma[len(keep)][1] + mb[0][1])
    return tm.from_monomials(keep + merged)


def _symbolic_leaves():
    """A@1 < Z@1 by rank; A@1(+1) against Z@1 has no decidable order."""
    A, Z = tm.ClassAtom("A", 1, 0), tm.ClassAtom("Z", 1, 1)
    return [EPS[0], EPS[1], A, Z, tm.mk_succ(A, 1), tm.mk_succ(Z, 1)]


def _symbolic_term(seed):
    try:
        return random_term(seeded(seed), depth=3, leaves=_symbolic_leaves())
    except OrderUndecidable:  # a summand met an unordered one
        return None


_sum_st = st.builds(_symbolic_term, st.integers(0, 10**6)).filter(lambda t: t is not None)


def _add_outcome(add, a, b):
    try:
        return add(a, b)
    except OrderUndecidable as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_sum_st, _sum_st)
def test_add_matches_the_reference(a, b):
    """The same sum, or OrderUndecidable on the same first pair."""
    assert _add_outcome(tm.add, a, b) == _add_outcome(_reference_add, a, b)


def test_repr_of_a_natural_too_long_to_print_names_its_size():
    """Error messages show terms through repr, which must not raise."""
    big = 10**5000
    assert repr(tm.nat(big)) == f"<{big.bit_length()}-bit number>"
    t = tm.add(tm.mul(tm.omega(), tm.nat(big)), tm.nat(3))
    assert repr(t) == f"w^(1)*<{big.bit_length()}-bit number>+w^(0)*3"
    assert repr(tm.Leaf(tm.ConcreteEps(tm.nat(big)))) == f"eps(<{big.bit_length()}-bit number>)"


# Leaves for the differential test of compare: A@1 and B@1 share a rank,
# so they and the leaves over them have no decidable order; Z@2 carries
# successor points and canonical points above it.
_A, _B, _Z = tm.ClassAtom("A", 1, 0), tm.ClassAtom("B", 1, 0), tm.ClassAtom("Z", 2, 1)
_POOL = [
    EPS[0], EPS[1], _A, _B, _Z, tm.mk_succ(_A, 1), tm.mk_succ(_Z, 2), tm.mk_succ(_Z, 1),
    tm.mk_canonical(1, _Z, 2), tm.mk_canonical(1, tm.mk_succ(_Z, 2), 1),
]


def _pool_term(seed, picks):
    """A random term over one or two pool leaves, or None where its own
    sums meet a pair with no decidable order."""
    try:
        return random_term(seeded(seed), depth=3, leaves=[_POOL[i] for i in picks])
    except OrderUndecidable:
        return None


_picks_st = st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=2, unique=True)
_compare_st = st.one_of(
    st.builds(_pool_term, st.integers(0, 10**6), _picks_st).filter(lambda t: t is not None),
    # towers: a Cnf whose head-exponent chain ends in a leaf k levels down
    st.builds(lambda i, k: tm.omega_tower(_POOL[i], k), st.integers(0, len(_POOL) - 1),
              st.integers(0, 4)),
    st.builds(lambda i: tm.Leaf(_POOL[i]), st.integers(0, len(_POOL) - 1)),
    st.builds(lambda n, c: tm.mul(tm.omega_pow(tm.nat(n)), tm.nat(c)),  # finite heads
              st.integers(0, 3), st.integers(1, 3)),
)


def _compare_outcome(compare, a, b):
    try:
        return compare(a, b)
    except OrderUndecidable as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_compare_st, _compare_st)
def test_compare_matches_the_reference_walk(a, b):
    """The same Ordering, or the same exception, as the comparison that
    rebuilds each leaf path from its constructors."""
    for x, y in ((a, b), (b, a), (a, tm.rebuild(a)), (a, tm.add(a, tm.one()))):
        assert _compare_outcome(tm.compare, x, y) == _compare_outcome(terms_reference.compare, x, y)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, tm.Leaf) and isinstance(y, tm.Leaf):
            expected = _compare_outcome(terms_reference.compare_leaves, x.leaf, y.leaf)
            assert _compare_outcome(tm.compare_leaves, x.leaf, y.leaf) == expected


def test_the_differential_draws_reach_every_kind_of_pair():
    """The pool has undecidable pairs, which a tower meets at the leaf at
    the bottom of its head-exponent chain; finite-headed terms lie below
    every leaf."""
    tower = tm.omega_tower(_A, 3)
    assert _compare_outcome(tm.compare, tower, tm.Leaf(_B)) is OrderUndecidable
    assert tm.compare(tower, tm.Leaf(_A)) is tm.GT and tm.compare(tm.Leaf(_A), tower) is tm.LT
    finite = tm.mul(tm.omega_pow(tm.nat(3)), tm.nat(2))
    assert tm.leading_leaf(finite) is None and tm.compare(finite, tm.Leaf(EPS[0])) is tm.LT
    assert tm.leading_leaf(tower) is _A and tm.leading_leaf(tm.Leaf(_B)) is _B


def _cached_values():
    """Terms and leaves whose caches are filled: leaf paths, leading
    leaves and printed texts."""
    atoms = {"A": _A, "Z": _Z}
    values = [
        tm.omega_tower(tm.mk_canonical(1, _Z, 2), 3),
        e("w^(Z@2(+2)+1)*2+w^(cp(2,1,Z@2(+2)))+3", atoms),
        _POOL[6], _POOL[7], _POOL[8], _POOL[9], _A,
    ]
    for v in values:
        hash(v)
        if isinstance(v, tm.Cnf):
            render_ord(v)
            tm.compare(v, tm.Leaf(_Z))
        else:
            tm.compare_leaves(v, _Z)
    return values


_FIELDS = {
    tm.Cnf: ("monomials",), tm.Succ: ("base", "k"), tm.CanonicalPoint: ("level", "base", "k"),
    tm.ClassAtom: ("name", "level", "rank"),
}


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_caches_are_not_fields(how):
    rebuild = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    }[how]
    for value in _cached_values():
        fields = tuple(getattr(value, name) for name in _FIELDS[type(value)])
        assert value.__reduce__() == (type(value), fields)
        other = rebuild(value)
        assert type(other) is type(value) and other == value and hash(other) == hash(value)
        assert other.__reduce__() == (type(value), tuple(getattr(other, n) for n in _FIELDS[type(value)]))
        if isinstance(value, tm.Cnf):
            assert tm.leading_leaf(other) == tm.leading_leaf(value)
            assert render_ord(other) == render_ord(value)
            assert tm.compare(other, tm.Leaf(_Z)) is tm.compare(value, tm.Leaf(_Z))
        else:
            assert tm.leaf_path(other) == tm.leaf_path(value)
