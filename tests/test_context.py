import pytest

from conftest import EPS
import ordclass
from ordclass import terms as tm
from ordclass.context import (
    NEG_INFINITY,
    ClassContext,
    chain_bound,
    chain_down,
    lambda_locate,
)
from ordclass.errors import LevelViolation, MissingMValue, Undecidable
from ordclass.grammar import parse_ord, render_ord

e = parse_ord


def test_declare_ranks_increase():
    ctx = ClassContext()
    a = ctx.declare("A", 3)
    b = ctx.declare("B", 2)
    assert a.rank < b.rank
    with pytest.raises(LevelViolation):
        ctx.declare("A", 1)


def test_every_exported_name_resolves():
    for name in ordclass.__all__:
        assert getattr(ordclass, name, None) is not None, name


def test_chain_down():
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    chain = chain_down(ctx, A)
    assert [render_ord(tm.Leaf(x)) for x in chain] == [
        "A@3",
        "A@3(+2)",
        "A@3(+2)(+1)",
    ]
    assert [tm.leaf_level(x) for x in chain] == [3, 2, 1]
    bound = tm.mul(tm.Leaf(chain[-1]), tm.nat(2))
    for leaf in chain[1:]:
        assert tm.eq(ctx.m_of(tm.Leaf(leaf)), bound)
    # chain strictly decreasing toward alpha_1
    for hi, lo in zip(chain, chain[1:]):
        assert tm.compare_leaves(hi, lo) is tm.LT


def test_chain_down_trivial():
    ctx = ClassContext()
    assert chain_down(ctx, EPS[0]) == [EPS[0]]


def test_chain_bound_degenerate_readings():
    A = tm.ClassAtom("A", 3, 0)
    assert tm.eq(chain_bound(A, 1), tm.mul(tm.Leaf(A), tm.nat(2)))
    a1 = tm.mk_succ(A, 1)
    assert tm.eq(chain_bound(A, 2), tm.mul(tm.Leaf(a1), tm.nat(2)))


def test_lambda_locate():
    ctx = ClassContext()
    assert lambda_locate(1, e("eps(0)*2")) == EPS[0]
    A = ctx.declare("A", 2)
    t = tm.Leaf(tm.mk_succ(A, 1))
    assert lambda_locate(2, t) == A
    assert lambda_locate(1, e("w")) is NEG_INFINITY
    assert lambda_locate(1, tm.Leaf(EPS[2])) == EPS[2]
    assert lambda_locate(2, e("eps(2)*2")) is NEG_INFINITY


def test_lambda_undecidable_for_symbolic_gaps():
    ctx = ClassContext()
    ctx.declare("B", 3)
    A = ctx.declare("A", 2)
    with pytest.raises(Undecidable):
        lambda_locate(3, tm.Leaf(A))


def test_m_rules():
    ctx = ClassContext()
    assert tm.eq(ctx.m_of(e("w+3")), e("w+3"))  # successor
    assert tm.eq(ctx.m_of(e("eps(0)*2")), e("eps(0)*2"))  # non-principal limit
    A = ctx.declare("A", 2)
    s = tm.mk_succ(A, 1)
    assert tm.eq(ctx.m_of(tm.Leaf(s)), tm.mul(tm.Leaf(s), tm.nat(2)))
    with pytest.raises(MissingMValue):
        ctx.m_of(tm.Leaf(A))  # an atom's own reach is never defaulted
    with pytest.raises(MissingMValue):
        ctx.m_of(tm.omega_tower(EPS[0], 2))  # towers need oracle or annotation


def test_m_annotation_validated():
    ctx = ClassContext()
    with pytest.raises(LevelViolation):
        ctx.set_m(e("w^w"), e("w"))


def test_context_json_roundtrip(tmp_path):
    ctx = ClassContext()
    A = ctx.declare("A", 3)
    chain_down(ctx, A)
    path = tmp_path / "ctx.json"
    import json

    path.write_text(json.dumps(ctx.to_json()))
    back = ClassContext.load(path)
    assert back.atoms.keys() == ctx.atoms.keys()
    assert back.m_table == ctx.m_table
