"""The value contract of the term classes and the frozen records: fields
cannot be set or deleted, copies are equal and hash alike, a value hashes
as the tuple of its fields, and values of different classes are never
equal."""

import copy

import pytest

from conftest import EPS
from ordclass import terms as tm
from ordclass.cli import Session
from ordclass.grammar import parse_ord
from ordclass.oracle import ANCHOR_OPS, Grid, GridOps, build_grid
from ordclass.subst import SubstMap, make_map

e = parse_ord
A = tm.ClassAtom("A", 3, 1)
GRID = build_grid(e("eps(1)"), [e("eps(0)")], ANCHOR_OPS)
TERM_CLASSES = (
    tm.ConcreteEps, tm.ClassAtom, tm.Succ, tm.CanonicalPoint, tm.Zero, tm.NatSum, tm.Cnf, tm.Leaf,
)

# (value, the names of its fields in constructor order)
VALUES = [
    (tm.ConcreteEps(tm.nat(2)), ("index",)),
    (A, ("name", "level", "rank")),
    (tm.Succ(A, 2), ("base", "k")),
    (tm.CanonicalPoint(1, A, 2), ("level", "base", "k")),
    (tm.ZERO, ()),
    (tm.NatSum(3), ("n",)),
    (e("w^(eps(0)+1)*2+w+1"), ("monomials",)),
    (tm.Leaf(EPS[1]), ("leaf",)),
    (
        ANCHOR_OPS,
        ("add", "double", "succ", "tower_height", "coeff_cap", "tail_cap", "max_monomials"),
    ),
    (GRID, ("points", "bound", "ops")),
    (make_map([(EPS[0], EPS[1])], threshold=EPS[0]), ("overrides", "threshold", "rebase")),
]
IDS = [type(v).__name__ for v, _ in VALUES]


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, names):
    before = fields_of(value, names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields_of(value, names) == before


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_copies_are_equal_and_hash_alike(value, names):
    for other in (copy.copy(value), copy.deepcopy(value)):
        assert type(other) is type(value)
        assert other == value and not other != value
        assert hash(other) == hash(value)
        assert fields_of(other, names) == fields_of(value, names)


@pytest.mark.parametrize("value, names", VALUES, ids=IDS)
def test_a_value_hashes_as_its_field_tuple(value, names):
    # set and dict order, and so every answer and export, follow this hash
    assert hash(value) == hash(fields_of(value, names))


def test_values_of_different_classes_are_never_equal():
    for value, names in VALUES:
        assert value != fields_of(value, names)
        for other, _ in VALUES:
            if type(other) is not type(value):
                assert value != other and not value == other
    assert tm.NatSum(1) != 1 and tm.Leaf(EPS[0]) != EPS[0]


def test_a_grid_copy_finds_its_own_points_and_the_originals():
    ranks = list(range(len(GRID.points)))
    for other in (copy.copy(GRID), copy.deepcopy(GRID)):
        assert [other.index(p) for p in other.points] == ranks
        assert [other.index(p) for p in GRID.points] == ranks
        assert [GRID.index(p) for p in other.points] == ranks
        assert other.rendered == GRID.rendered


def test_term_classes_define_their_own_eq_and_hash():
    # perfbench/tracer.py wraps these entries to count the calls per class
    for cls in TERM_CLASSES:
        assert "__eq__" in cls.__dict__ and "__hash__" in cls.__dict__


def test_constructors_take_their_fields_by_keyword():
    assert tm.ClassAtom(name="A", level=3, rank=1) == A
    assert tm.CanonicalPoint(level=1, base=A, k=2) == tm.CanonicalPoint(1, A, 2)
    assert GridOps() == GridOps(True, True, True, 2, None, None, None)
    assert GridOps(tower_height=2, coeff_cap=2, tail_cap=2, max_monomials=2) == ANCHOR_OPS
    assert Grid(points=GRID.points, bound=GRID.bound, ops=GRID.ops) == GRID
    f = SubstMap(overrides=((EPS[0], EPS[1]),), threshold=EPS[0])
    assert f == make_map([(EPS[0], EPS[1])], threshold=EPS[0]) and f.rebase is None
    session = Session(cache_dir="cache", grid_cap=7)
    assert (session.cache_dir, session.grid_cap, session.grids) == ("cache", 7, {})
    assert session.context is not Session().context
