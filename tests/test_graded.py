import operator

import pytest

from conftest import box, family_carrier, sort_under

from gradedorders import (
    Carrier,
    GE,
    GT,
    LE,
    LT,
    LengthMismatchError,
    Monoid,
    NAT_ADD,
    carrier_range,
    colex,
    family_add,
    family_sum,
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
    is_antisymmetric,
    is_monomial_nonstrict_order,
    is_monomial_order,
    is_plus_compat_r,
    is_plus_reg_r,
    is_strongly_connected,
    lex,
    revlex,
    symlex,
    zero_least_on_nonzero,
)
from gradedorders.families import SCHEMES, sorted_total
from gradedorders.graded import NAMED_ORDERS, named_builder
from gradedorders.relations import Relation

GRLEX_LT = grlex(LT)
GRCOLEX_LT = grcolex(LT)
GRSYMLEX_LT = grsymlex(LT)
GREVLEX_LT = grevlex(LT)
ALL_GRADED = {
    "grlex": GRLEX_LT,
    "grcolex": GRCOLEX_LT,
    "grsymlex": GRSYMLEX_LT,
    "grevlex": GREVLEX_LT,
}

C6 = carrier_range(0, 5)


def agree_on_box(r1, r2, d, bound):
    return all(r1.apply(x, y) == r2.apply(x, y) for x in box(d, bound) for y in box(d, bound))


# ---------------------------------------------------------------------------
# sums and the grading operator


def test_family_sum():
    assert family_sum((1, 2, 0)) == 3
    assert family_sum(()) == 0
    assert family_sum((0, 0, 3)) == 3


def test_family_sum_other_monoid():
    m = Monoid(1, operator.mul, name="nat*")
    assert family_sum((2, 3, 4), m) == 24
    assert family_sum((), m) == 1


def test_family_add():
    assert family_add((1, 2), (3, 0)) == (4, 2)
    with pytest.raises(LengthMismatchError, match="family lengths differ: 2 vs 1"):
        family_add((1, 2), (3,))


def test_graded_compares_sums_first():
    g = graded(LT, lex(LT))
    assert not g.apply((0, 8), (1, 2))
    assert g.apply((1, 2), (0, 8))


def test_graded_on_empty_families_defers_to_vector():
    assert not graded(LT, lex(LT)).apply((), ())
    assert graded(LT, lex(LE)).apply((), ())


def test_graded_lex_is_grlex_on_a32():
    a32 = [t for t in box(2, 3) if sum(t) <= 3]
    chain = [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
        (2, 0), (0, 3), (1, 2), (2, 1), (3, 0),
    ]
    assert sort_under(graded(LT, lex(LT)), a32) == chain
    assert sort_under(GRLEX_LT, a32) == chain


def test_grsymlex_sum3_slice():
    chain = [
        (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
        (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    ]
    assert sort_under(GRSYMLEX_LT, sorted(chain)) == chain


def test_grlex_table_exponents():
    vectors = [(0, 0, 3), (0, 3, 0), (1, 1, 1), (1, 2, 0), (3, 0, 0)]
    assert sort_under(GRLEX_LT, sorted(vectors, reverse=True)) == vectors


# ---------------------------------------------------------------------------
# the named orders


def test_named_orders_table():
    builders = [lex, colex, symlex, revlex, grlex, grcolex, grsymlex, grevlex]
    assert [named_builder(name) for name in NAMED_ORDERS] == builders
    assert {scheme for scheme, _ in NAMED_ORDERS.values()} == set(SCHEMES)
    assert [name for name, (_, graded) in NAMED_ORDERS.items() if graded] == list(ALL_GRADED)
    with pytest.raises(KeyError):
        named_builder("grrevlex")


def test_builder_names():
    # spelled out, since the builders fold their names from a shared helper
    built = [
        lex, colex, symlex, revlex, grlex, grcolex, grsymlex, grevlex,
        grlex_rec, grcolex_rec, grsymlex_rec, grevlex_rec, grsymlex_full_rec,
    ]
    assert [build(LT).name for build in built] == [
        "lex(lt)", "colex(lt)", "symlex(lt)", "revlex(lt)",
        "grlex(lt)", "grcolex(lt)", "grsymlex(lt)", "grevlex(lt)",
        "grlex_rec(lt)", "grcolex_rec(lt)", "grsymlex_rec(lt)", "grevlex_rec(lt)", "grsymlex_full_rec(lt)",
    ]


@pytest.mark.parametrize("r", [LT, LE, GT], ids=lambda r: r.name)
@pytest.mark.parametrize("name", list(ALL_GRADED))
def test_named_graded_orders_are_their_compositions(name, r):
    # the grading of the scheme's order, built in one step under its own name
    order = named_builder(name)(r)
    composed = graded(r, named_builder(NAMED_ORDERS[name][0])(r))
    assert (order.name, composed.name) == (f"{name}({r.name})", f"graded({r.name},{NAMED_ORDERS[name][0]}({r.name}))")
    assert order.declared_reflexive == composed.declared_reflexive == r.declared_reflexive
    assert agree_on_box(order, composed, 3, 2)
    assert (order.key is None, len(order.plan)) == (composed.key is None, len(composed.plan))
    items = box(3, 2)[::-1]
    if order.key is not None:
        assert list(map(order.key, items)) == list(map(composed.key, items))
        assert sorted_total(items, order) == sorted_total(items, composed) == sort_under(composed, items)


# ---------------------------------------------------------------------------
# recursive variants


def test_grsymlex_rec_agrees_on_box():
    assert agree_on_box(grsymlex_rec(LT), GRSYMLEX_LT, 3, 3)
    assert agree_on_box(grsymlex_rec(LE), grsymlex(LE), 3, 2)


def test_grsymlex_rec_tail_branch():
    assert grsymlex_rec(LT).apply((2, 0, 1), (1, 2, 0))


def test_grevlex_rec_agrees_on_box():
    assert agree_on_box(grevlex_rec(LT), GREVLEX_LT, 3, 3)
    assert agree_on_box(grevlex_rec(LE), grevlex(LE), 3, 2)


def test_grsymlex_full_rec_agrees():
    assert agree_on_box(grsymlex_full_rec(LT), GRSYMLEX_LT, 3, 3)
    assert agree_on_box(grsymlex_full_rec(LT), grsymlex_rec(LT), 3, 3)
    assert agree_on_box(grsymlex_full_rec(LE), grsymlex(LE), 3, 2)


def test_inlined_strict_variants():
    assert agree_on_box(grlex_rec(LT), GRLEX_LT, 3, 3)
    assert agree_on_box(grcolex_rec(LT), GRCOLEX_LT, 3, 3)
    assert agree_on_box(grlex_rec(LE), grlex(LE), 3, 2)
    assert agree_on_box(grcolex_rec(LE), grcolex(LE), 3, 2)


# each recursive form with the composition it agrees with
RECURSIVE_FORMS = [
    (grlex_rec, grlex),
    (grcolex_rec, grcolex),
    (grsymlex_full_rec, grsymlex),
    (grsymlex_rec, grsymlex),
    (grevlex_rec, grevlex),
]


@pytest.mark.parametrize("r", [LT, LE, GT, GE], ids=lambda r: r.name)
@pytest.mark.parametrize("rec, composed", RECURSIVE_FORMS, ids=lambda f: f.__name__)
def test_recursive_forms_equal_their_compositions(rec, composed, r):
    # d = 0 is the pair of empty families
    for d in range(5):
        assert agree_on_box(rec(r), composed(r), d, 2), d


@pytest.mark.parametrize("r", [LT, LE], ids=lambda r: r.name)
@pytest.mark.parametrize("rec, composed", RECURSIVE_FORMS, ids=lambda f: f.__name__)
def test_recursive_forms_take_families_past_the_recursion_limit(rec, composed, r):
    # on equal families each form takes one step per component, past the
    # default recursion limit of 1000; x and y differ in their last two only
    n = 1100
    zeros = (0,) * n
    x, y = zeros[:-2] + (1, 0), zeros[:-2] + (0, 1)
    for a, b in [(zeros, zeros), (x, x), (x, y), (y, x)]:
        assert rec(r).apply(a, b) == composed(r).apply(a, b)


# ---------------------------------------------------------------------------
# monomial-order checks


def test_plus_compat_examples():
    assert is_plus_compat_r(LT, NAT_ADD, C6)
    assert is_plus_compat_r(LE, NAT_ADD, C6)
    weird = Relation(lambda x1, x2: x1 == 0 and x2 == 1)
    assert not is_plus_compat_r(weird, NAT_ADD, C6)


def test_plus_reg_examples():
    assert is_plus_reg_r(NAT_ADD, C6)
    assert not is_plus_reg_r(Monoid(0, max, name="nat max"), carrier_range(0, 2))
    z2 = Monoid(0, lambda a, b: (a + b) % 2, name="Z/2")
    assert is_plus_reg_r(z2, carrier_range(0, 1))


def test_monomial_order_examples():
    assert is_monomial_order(LT, NAT_ADD, C6)
    assert not is_monomial_order(
        Relation(lambda a, b: b % a == 0 and a != b, name="proper divides"),
        Monoid(1, operator.mul),
        carrier_range(1, 6),
    )
    from gradedorders import converse

    assert is_monomial_order(converse(LT), NAT_ADD, C6)


def test_monomial_nonstrict_corollaries():
    assert is_monomial_nonstrict_order(LE, NAT_ADD, C6)
    assert is_antisymmetric(LE, C6)
    assert is_strongly_connected(LE, C6)


def test_zero_least_on_nonzero():
    assert zero_least_on_nonzero(LT, NAT_ADD, C6)
    from gradedorders import converse

    assert not zero_least_on_nonzero(converse(LT), NAT_ADD, C6)
    assert zero_least_on_nonzero(LE, NAT_ADD, C6)


# ---------------------------------------------------------------------------
# identities


def test_graded_idem_named_instance():
    left = graded(GT, grcolex(LT))
    right = graded(GT, colex(LT))
    assert agree_on_box(left, right, 3, 3)


@pytest.mark.parametrize("n", [1, 2])
def test_degenerate_dimension_identities(n):
    assert agree_on_box(GRLEX_LT, GREVLEX_LT, n, 3)
    assert agree_on_box(GRCOLEX_LT, GRSYMLEX_LT, n, 3)


def test_all_four_differ_pairwise_in_dimension_three():
    names = list(ALL_GRADED)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not agree_on_box(ALL_GRADED[a], ALL_GRADED[b], 3, 3), (a, b)


def test_graded_orders_are_strict_total_orders_on_boxes():
    items = box(3, 2)
    for order in ALL_GRADED.values():
        from gradedorders import is_strict_total_order

        assert is_strict_total_order(order, family_carrier(items))
