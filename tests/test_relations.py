import dataclasses
import operator
import re

import pytest

from conftest import relation_from_pairs

from gradedorders import (
    Carrier,
    DIVIDES,
    GE,
    GT,
    LE,
    LT,
    Relation,
    carrier_range,
    complementary,
    converse,
    intersection,
    is_connected,
    is_irreflexive,
    is_negatively_transitive,
    is_reflexive,
    is_strict_total_order,
    is_strict_weak_order,
    is_strongly_connected,
    is_total_order,
    is_transitive,
    is_trichotomous,
    or_eq,
    union,
)
from gradedorders.relations import EMPTY, property_witness

C3 = carrier_range(0, 2)
C4 = carrier_range(0, 3)


def agree_on(r1, r2, carrier):
    return all(
        r1.apply(x, y) == r2.apply(x, y)
        for x in carrier.elements
        for y in carrier.elements
    )


def test_relation_keeps_its_dataclass_behaviour():
    r = Relation(operator.lt, True, "r", abs, ((None, False),))
    assert [f.name for f in dataclasses.fields(r)] == ["apply", "declared_reflexive", "name", "key", "plan"]
    assert r == Relation(apply=operator.lt, declared_reflexive=True, name="r", key=abs, plan=((None, False),))
    assert hash(r) == hash(Relation(operator.lt, True, "r", abs, ((None, False),)))
    assert dataclasses.replace(r, name="s", key=None) == Relation(operator.lt, True, "s", None, ((None, False),))
    assert r != dataclasses.replace(r, declared_reflexive=False)
    assert Relation(operator.lt) == Relation(operator.lt, False, "", None, ())
    assert repr(r) == (
        "Relation(apply=<built-in function lt>, declared_reflexive=True, name='r', "
        "key=<built-in function abs>, plan=((None, False),))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.name = "s"
    with pytest.raises(TypeError):
        Relation()


def test_converse_unfolds():
    assert converse(LT).apply(5, 3)
    assert not converse(LT).apply(3, 5)
    # a relation called is its apply
    assert LT(1, 2) and not LT(2, 1)


def test_converse_involutive():
    assert agree_on(converse(converse(LT)), LT, C4)


def test_converse_preserves_total_order():
    assert is_total_order(LE, C3)
    assert is_total_order(converse(LE), C3)


def test_complementary_of_strict_less_holds_on_diagonal():
    assert complementary(LT, declared_reflexive=True).apply(2, 2)


def test_double_complement():
    r = complementary(complementary(LT, declared_reflexive=True), declared_reflexive=False)
    assert agree_on(r, LT, C3)


def test_complementary_divisibility_not_transitive():
    c = Carrier((2, 3, 4))
    comp = complementary(DIVIDES, declared_reflexive=False)
    assert is_transitive(DIVIDES, c)
    assert not is_transitive(comp, c)


def test_divides_at_zero():
    # every a divides 0, and 0 divides only 0
    assert DIVIDES.apply(0, 0)
    assert all(DIVIDES.apply(a, 0) for a in range(-5, 6))
    assert not any(DIVIDES.apply(0, b) for b in range(-5, 6) if b)
    assert property_witness("reflexive", DIVIDES, carrier_range(0, 5)) is None


def test_or_eq():
    assert or_eq(LT).apply(7, 7)
    assert or_eq(LT).apply(3, 9)
    assert or_eq(LT).declared_reflexive


def test_or_eq_of_empty_is_identity():
    r = or_eq(EMPTY)
    for x in C4.elements:
        for y in C4.elements:
            assert r.apply(x, y) == (x == y)


def test_union_intersection():
    u = union(LT, GT, declared_reflexive=False)
    assert u.apply(2, 3)
    assert not u.apply(2, 2)
    both = intersection(LE, GE, declared_reflexive=True)
    for x in C4.elements:
        for y in C4.elements:
            assert both.apply(x, y) == (x == y)


def test_union_with_complement_is_universal():
    u = union(LT, complementary(LT, declared_reflexive=True), declared_reflexive=True)
    assert all(u.apply(x, y) for x in C4.elements for y in C4.elements)


def test_trichotomous_singleton_empty_relation():
    assert is_trichotomous(EMPTY, Carrier((0,)))


def test_connectivity_examples():
    assert is_strongly_connected(LE, C3)
    assert not is_strongly_connected(LT, C3)
    assert is_connected(LT, C3)


def test_strict_total_order_on_lt():
    assert is_strict_total_order(LT, C3)
    c = carrier_range(0, 4)
    assert is_negatively_transitive(LT, c)
    assert is_irreflexive(LT, c)
    assert not is_irreflexive(LE, c)


def test_divisibility_is_not_total_order():
    assert not is_total_order(DIVIDES, Carrier((1, 2, 3)))


def test_empty_relation_is_strict_weak_order():
    assert is_strict_weak_order(EMPTY, carrier_range(0, 1))


def test_empty_carrier_vacuous():
    c = Carrier(())
    assert is_total_order(LT, c)
    assert is_strict_total_order(EMPTY, c)
    assert is_reflexive(EMPTY, c)


def test_carrier_rejects_duplicates():
    with pytest.raises(ValueError):
        Carrier((1, 1, 2))
    # the first duplicate pair is named, whichever way it was detected
    for elements, eq, pair in [
        ((3, 1, 2, 1, 3), operator.eq, "3, 3"),
        (([0], [1], [1]), operator.eq, "[1], [1]"),
        ((0, 1, 2, 4), lambda a, b: a % 3 == b % 3, "1, 4"),
    ]:
        with pytest.raises(ValueError, match=f"duplicate carrier elements: {re.escape(pair)}$"):
            Carrier(elements, eq)
    assert len(carrier_range(0, 3000).elements) == 3001


def test_range_and_tuple_carriers_are_equal_and_hold_tuples():
    for lo, hi in [(0, -1), (0, 0), (-3, 3), (5, 600)]:
        given = Carrier(range(lo, hi + 1))
        assert given == Carrier(tuple(range(lo, hi + 1))) == carrier_range(lo, hi)
        assert type(given.elements) is tuple and type(carrier_range(lo, hi).elements) is tuple
        assert given.elements == tuple(range(lo, hi + 1))
    # a range is distinct only under the default equality: any other scans
    with pytest.raises(ValueError, match=r"duplicate carrier elements: 0, 2$"):
        Carrier(range(4), eq=lambda x, y: x % 2 == y % 2)


def test_property_witness_reports_counterexample():
    failure = property_witness("connected", DIVIDES, Carrier((1, 2, 3, 4, 5, 6)))
    assert failure is not None
    name, (x, y) = failure
    assert name == "connected"
    assert not DIVIDES.apply(x, y) and not DIVIDES.apply(y, x)


def test_property_witness_unknown_name():
    with pytest.raises(KeyError):
        property_witness("wellfounded", LT, C3)


def test_custom_equality_carrier():
    # elements distinct modulo 3; relation on residues
    c = Carrier((0, 1, 2), eq=lambda a, b: a % 3 == b % 3)
    mod_le = Relation(lambda a, b: a % 3 <= b % 3, declared_reflexive=True)
    assert is_total_order(mod_le, c)
