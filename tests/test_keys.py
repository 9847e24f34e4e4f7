"""Compiled sort keys against the compositional definitions they replace.

A key must satisfy apply(x, y) == (key(x) < key(y)) on same-length
families; orders without that guarantee carry no key and sort through the
pairwise comparator.
"""

import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import box, sort_under
from gradedorders import (
    GT,
    LE,
    LT,
    LengthMismatchError,
    Monoid,
    SparsePoly,
    WeightMatrix,
    colex,
    converse_rel,
    format_poly,
    graded,
    grcolex,
    grcolex_rec,
    grevlex,
    grevlex_rec,
    grlex,
    grlex_rec,
    grsymlex,
    grsymlex_full_rec,
    grsymlex_rec,
    leading_term,
    lex,
    matrix_for,
    or_eq_rel,
    parse_poly,
    reverse_rel,
    revlex,
    sort_terms,
    symlex,
    weighted_relation,
)
from gradedorders.families import sorted_total
from gradedorders.graded import NAMED_ORDERS

NAMED = {
    "lex": lex,
    "colex": colex,
    "symlex": symlex,
    "revlex": revlex,
    "grlex": grlex,
    "grcolex": grcolex,
    "grsymlex": grsymlex,
    "grevlex": grevlex,
}


def keyed_orders(d):
    orders = {name: build(LT) for name, build in NAMED.items()}
    for name in NAMED_ORDERS:
        orders[f"matrix_for({name})"] = weighted_relation(matrix_for(name, d), LT)
    # one weight column with a zero entry: ties are incomparable, not total
    orders["inline non-total"] = weighted_relation(
        WeightMatrix(tuple((2 * i,) for i in range(d))), LT
    )
    return orders


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_key_agrees_with_apply_on_boxes(d):
    items = box(d, 3)
    for name, order in keyed_orders(d).items():
        assert order.key is not None, name
        keys = [order.key(x) for x in items]
        for x, kx in zip(items, keys):
            for y, ky in zip(items, keys):
                assert order.apply(x, y) == (kx < ky), (name, x, y)


def test_weighted_key_rejects_wrong_length():
    order = weighted_relation(matrix_for("grlex", 3), LT)
    with pytest.raises(LengthMismatchError):
        order.key((1, 2))


NAT_ADD_COPY = Monoid(0, operator.add, name="nat+ copy")


def keyless_orders():
    return {
        "lex(le)": lex(LE),
        "colex(gt)": colex(GT),
        "grevlex(gt)": grevlex(GT),
        "grlex(le)": grlex(LE),
        "weighted le": weighted_relation(matrix_for("grlex", 2), LE),
        "lex custom eq": lex(LT, lambda a, b: a == b),
        "grsymlex custom eq": grsymlex(LT, eq=lambda a, b: a == b),
        "grlex other monoid": grlex(LT, NAT_ADD_COPY),
        "grlex_rec": grlex_rec(LT),
        "grcolex_rec": grcolex_rec(LT),
        "grsymlex_rec": grsymlex_rec(LT),
        "grevlex_rec": grevlex_rec(LT),
        "grsymlex_full_rec": grsymlex_full_rec(LT),
        "reverse_rel(lex)": reverse_rel(lex(LT)),
        "converse_rel(grlex)": converse_rel(grlex(LT)),
        "or_eq_rel(grevlex)": or_eq_rel(grevlex(LT)),
    }


@pytest.mark.parametrize("name, order", keyless_orders().items())
def test_keyless_orders_sort_by_comparator(name, order):
    assert order.key is None
    assert order.plan == ()
    rng = random.Random(name)
    for _ in range(20):
        pairs = [(tuple(rng.randint(0, 4) for _ in range(2)), rng.choice([-2, 1, 3]))
                 for _ in range(rng.randint(1, 12))]
        p = SparsePoly.from_pairs(2, pairs)
        expected = sort_under(order, list(p.terms))
        assert [t.exponents for t in sort_terms(p, order)] == expected
        if expected:
            assert leading_term(p, order).exponents == expected[-1]


coefficients = st.one_of(
    st.integers(-20, 20).filter(bool),
    st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 9)),
)


@st.composite
def sparse_polys(draw):
    d = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * d), coefficients), max_size=12))
    return SparsePoly.from_pairs(d, pairs)


@settings(max_examples=150, deadline=None)
@given(sparse_polys(), st.sampled_from(sorted(NAMED)))
def test_parse_format_roundtrip_under_every_order(p, name):
    terms = sort_terms(p, NAMED[name](LT))
    assert parse_poly(format_poly(terms, p.dimension), p.dimension) == p


def planned_orders():
    orders = {name: build(LT) for name, build in NAMED.items()}
    orders["graded(lt,lex(lt))"] = graded(LT, lex(LT))
    for name, build in NAMED.items():
        order = build(LT)
        # a copy with another apply, the way a tracer wraps an order
        orders[f"wrapped {name}"] = replace(order, apply=lambda x, y, apply=order.apply: apply(x, y))
    return orders


def random_items(rng, d):
    """Families of length d with components among a few ints and Fractions,
    as tuples, lists or both, sometimes with a duplicate or a family of
    another length."""
    values = [0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)]
    items = [tuple(rng.choice(values) for _ in range(d)) for _ in range(rng.randint(0, 12))]
    if items and rng.random() < 0.3:
        items.insert(rng.randrange(len(items)), rng.choice(items))
    if items and rng.random() < 0.15:
        items.insert(rng.randrange(len(items)), tuple(range(d + rng.choice([-1, 1]))))
    kind = rng.choice(["tuples", "lists", "mixed"])
    if kind == "lists":
        items = [list(x) for x in items]
    elif kind == "mixed":
        items = [list(x) if rng.random() < 0.5 else x for x in items]
    return items


def outcome(items, order):
    """The sorted list, or the type and message of what sorted_total raised."""
    try:
        return sorted_total(items, order)
    except ValueError as exc:  # LengthMismatchError or IncomparableError
        return type(exc), str(exc)


@pytest.mark.parametrize("name, order", planned_orders().items())
def test_plan_path_agrees_with_key_and_comparator_paths(name, order):
    assert order.plan and order.key is not None
    keyed = replace(order, plan=())
    compared = replace(order, key=None, plan=())
    rng = random.Random(name)
    for d in range(1, 7):
        for _ in range(40):
            items = random_items(rng, d)
            got = outcome(items, order)
            assert got == outcome(items, keyed) == outcome(items, compared), (items, got)
            if isinstance(got, list) and len(set(map(tuple, items))) == len(items):
                assert got == sort_under(order, items)


def leading_outcome(p, order):
    """The leading term, or the type and message of what leading_term raised."""
    try:
        return leading_term(p, order)
    except ValueError as exc:  # LengthMismatchError or IncomparableError
        return type(exc), str(exc)


@pytest.mark.parametrize("name, order", planned_orders().items())
def test_leading_term_by_plan_agrees_with_key_path(name, order):
    keyed = replace(order, plan=())
    # the plan path never calls the key, so a key that fails shows the path taken
    planned_only = replace(order, key=lambda family: 1 / 0)
    rng = random.Random(f"leading {name}")
    for d in range(1, 7):
        for _ in range(40):
            exponents = list(map(tuple, random_items(rng, d)))
            coefficients = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for _ in exponents]
            p = SparsePoly(d, dict(zip(exponents, coefficients)))
            got = leading_outcome(p, order)
            assert got == leading_outcome(p, keyed) == leading_outcome(p, planned_only), (p, got)
            if p.terms and not isinstance(got, tuple):
                assert got.exponents == sort_under(order, list(p.terms))[-1]
                assert got.coefficient == p.terms[got.exponents]
