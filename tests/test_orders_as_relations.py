"""Orders on families are relations: each builder declares the reflexivity
its definition gives on equal families, and an order goes back into the
comparators, the property deciders and the monomial-order checks as it is.
"""

import pytest

from conftest import box, family_carrier
from gradedorders import (
    GE,
    GT,
    LE,
    LT,
    Monoid,
    Relation,
    converse_rel,
    family_add,
    graded,
    grcolex_rec,
    grevlex_rec,
    grlex_rec,
    grsymlex_full_rec,
    grsymlex_rec,
    is_monomial_order,
    is_reflexive,
    is_strict_total_order,
    is_total_order,
    lex,
    matrix_for,
    or_eq_rel,
    reverse_rel,
    weighted_relation,
)
from gradedorders.graded import NAMED_ORDERS, named_builder
from gradedorders.relations import property_witness

SCALARS = {"lt": LT, "le": LE, "gt": GT, "ge": GE}
RECURSIVE = (grlex_rec, grcolex_rec, grsymlex_full_rec, grsymlex_rec, grevlex_rec)


def vector_orders(d):
    """Every vector builder over each scalar relation, by name."""
    orders = {}
    for sname, r in SCALARS.items():
        for name in NAMED_ORDERS:
            order = named_builder(name)(r)
            orders[f"{name}({sname})"] = order
            orders[f"reverse_rel({name}({sname}))"] = reverse_rel(order)
            orders[f"converse_rel({name}({sname}))"] = converse_rel(order)
            orders[f"or_eq_rel({name}({sname}))"] = or_eq_rel(order)
        for build in RECURSIVE:
            orders[f"{build.__name__}({sname})"] = build(r)
        for vname, v in SCALARS.items():
            orders[f"graded({sname}, lex({vname}))"] = graded(r, lex(v))
        orders[f"weighted grlex({sname})"] = weighted_relation(matrix_for("grlex", d), r)
    return orders


@pytest.mark.parametrize("d", [1, 2, 3])
def test_declared_reflexivity_agrees_with_the_predicate(d):
    carrier = family_carrier(box(d, 2))
    flags = set()
    for name, order in vector_orders(d).items():
        assert order.declared_reflexive == is_reflexive(order, carrier), name
        flags.add(order.declared_reflexive)
    assert flags == {False, True}


def reference_lex_lex(strict):
    """lex of lex on families of families, written out: the first differing
    inner family decides at its first differing component."""

    def apply(xs, ys):
        for x, y in zip(xs, ys):
            for a, b in zip(x, y):
                if a != b:
                    return a < b
        return not strict

    return apply


@pytest.mark.parametrize("r, strict", [(LT, True), (LE, False)])
def test_lex_of_lex_on_families_of_families(r, strict):
    order = lex(lex(r))
    reference = reference_lex_lex(strict)
    items = [(x, y) for x in box(2, 1) for y in box(2, 1)]
    for xs in items:
        for ys in items:
            assert order.apply(xs, ys) == reference(xs, ys), (xs, ys)
    carrier = family_carrier(items)
    assert order.declared_reflexive == (not strict)
    assert (is_strict_total_order if strict else is_total_order)(order, carrier)


@pytest.mark.parametrize("name", NAMED_ORDERS)
def test_deciders_take_a_vector_order_directly(name):
    order = named_builder(name)(LT)
    assert isinstance(order, Relation)
    carrier = family_carrier(box(2, 3))
    assert property_witness("strict_total_order", order, carrier) is None
    assert is_monomial_order(order, Monoid((0, 0), family_add), carrier)
