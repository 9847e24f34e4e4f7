import operator

import pytest
from hypothesis import example, given, strategies as st

from conftest import box, family_carrier, sort_under

from gradedorders import (
    EmptyFamilyError,
    GE,
    GT,
    LE,
    LT,
    LengthMismatchError,
    colex,
    head,
    init,
    is_strict_total_order,
    last,
    lex,
    matrix_for,
    or_eq,
    reverse_family,
    reverse_rel,
    revlex,
    symlex,
    tail,
    weighted_relation,
)
from gradedorders.families import sorted_total
from gradedorders.graded import NAMED_ORDERS, named_builder

LEX_LT = lex(LT)
COLEX_LT = colex(LT)
SYMLEX_LT = symlex(LT)
REVLEX_LT = revlex(LT)


def lex_recursive(r, x, y, eq=operator.eq):
    """Literal structural recursion, kept as the oracle for the iterative
    comparator."""
    assert len(x) == len(y)
    if not x:
        return r.declared_reflexive
    return (not eq(x[0], y[0]) and r.apply(x[0], y[0])) or (
        eq(x[0], y[0]) and lex_recursive(r, x[1:], y[1:], eq)
    )


# numbers with exact equality, compared across types (1 == True == Fraction(1))
small_numbers = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=0, max_value=4, max_denominator=2),
    st.booleans(),
)


@st.composite
def family_pairs(draw):
    """Two families of one length, each a tuple or a list."""
    n = draw(st.integers(min_value=0, max_value=6))
    x = draw(st.sampled_from([tuple, list]))(draw(small_numbers) for _ in range(n))
    y = draw(st.sampled_from([tuple, list]))(draw(small_numbers) for _ in range(n))
    return x, y


# ---------------------------------------------------------------------------
# accessors


def test_accessors():
    assert tail((1, 2, 3)) == (2, 3)
    assert init((1, 2, 3)) == (1, 2)
    assert head(tail((0, 3))) == 3
    assert last((1, 2, 3)) == 3


@pytest.mark.parametrize("op", [head, tail, init, last])
def test_empty_family_access_raises(op):
    with pytest.raises(EmptyFamilyError):
        op(())


def test_reverse_family():
    assert reverse_family((1, 2, 0)) == (0, 2, 1)
    assert reverse_family(()) == ()


@given(family_pairs())
def test_reverse_family_involutive(pair):
    x, _ = pair
    assert reverse_family(reverse_family(x)) == tuple(x)


# ---------------------------------------------------------------------------
# lex


def test_lex_examples():
    assert LEX_LT.apply((0, 3), (1, 0))
    assert not LEX_LT.apply((), ())
    assert lex(LE).apply((), ())


def test_lex_chain_on_a32():
    chain = [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
        (1, 1), (1, 2), (2, 0), (2, 1), (3, 0),
    ]
    assert sort_under(LEX_LT, sorted(chain)) == chain


def test_length_mismatch_raises():
    for order in (LEX_LT, COLEX_LT, SYMLEX_LT, REVLEX_LT):
        with pytest.raises(LengthMismatchError):
            order.apply((1, 2), (1,))


@given(family_pairs())
def test_iterative_lex_matches_literal_recursion(pair):
    x, y = pair
    assert LEX_LT.apply(x, y) == lex_recursive(LT, x, y)
    assert lex(LE).apply(x, y) == lex_recursive(LE, x, y)


def test_strict_reading_matches_unified_definition():
    # the strict-only recursion (scalar strict-less, no equality guard on R)
    def lex_strict(x, y):
        if not x:
            return False
        if x[0] < y[0]:
            return True
        return x[0] == y[0] and lex_strict(x[1:], y[1:])

    lex_le = lex(LE)
    or_eq_lex_lt = lambda x, y: x == y or LEX_LT.apply(x, y)
    for x in box(2, 3):
        for y in box(2, 3):
            assert LEX_LT.apply(x, y) == lex_strict(x, y)
            assert lex_le.apply(x, y) == or_eq_lex_lt(x, y)


# ---------------------------------------------------------------------------
# reverse_rel / colex / symlex / revlex


def test_reverse_rel():
    assert reverse_rel(LEX_LT).apply((1, 0), (0, 1))
    rr = reverse_rel(reverse_rel(COLEX_LT))
    for x in box(3, 2):
        for y in box(3, 2):
            assert rr.apply(x, y) == COLEX_LT.apply(x, y)


def test_reverse_rel_identity_on_singletons():
    for x in box(1, 3):
        for y in box(1, 3):
            assert reverse_rel(LEX_LT).apply(x, y) == LEX_LT.apply(x, y)


def test_colex_is_reversed_lex():
    rr = reverse_rel(LEX_LT)
    for x in box(3, 2):
        for y in box(3, 2):
            assert COLEX_LT.apply(x, y) == rr.apply(x, y)


def test_colex_chain_and_examples():
    chain = [
        (0, 0), (1, 0), (2, 0), (3, 0), (0, 1),
        (1, 1), (2, 1), (0, 2), (1, 2), (0, 3),
    ]
    assert sort_under(COLEX_LT, sorted(chain)) == chain
    assert COLEX_LT.apply((1, 0), (0, 1))


def test_colex_equals_lex_in_dimension_one():
    for x in box(1, 4):
        for y in box(1, 4):
            assert COLEX_LT.apply(x, y) == LEX_LT.apply(x, y)


def test_symlex_examples():
    assert SYMLEX_LT.apply((1, 0), (0, 1))
    a32 = [t for t in box(2, 3) if sum(t) <= 3]
    lex_chain = sort_under(LEX_LT, a32)
    assert sort_under(SYMLEX_LT, a32) == list(reversed(lex_chain))
    sym_le = symlex(LE)
    for a in box(2, 2):
        assert sym_le.apply(a, a)


def test_revlex_examples():
    diag = [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert sort_under(REVLEX_LT, list(reversed(diag))) == diag
    assert REVLEX_LT.apply((0, 1), (1, 0))
    for x in box(1, 4):
        for y in box(1, 4):
            assert REVLEX_LT.apply(x, y) == SYMLEX_LT.apply(x, y)


@given(family_pairs())
def test_symlex_revlex_are_argument_swaps(pair):
    x, y = pair
    assert SYMLEX_LT.apply(x, y) == LEX_LT.apply(y, x)
    assert REVLEX_LT.apply(x, y) == COLEX_LT.apply(y, x)


# (builder, down, back), spelled out rather than read from families.SCHEMES,
# the table the builders read
LEX_FAMILY = [
    (lex, False, False),
    (colex, False, True),
    (symlex, True, False),
    (revlex, True, True),
]


def _eq_mod_3(a, b):
    return a % 3 == b % 3


@given(family_pairs())
@example(((), ()))
def test_lex_family_matches_the_literal_recursion_under_its_flags(pair):
    # each comparator is lex_recursive on the families reversed when back,
    # with the arguments swapped when down, for strict and nonstrict scalar
    # relations of either direction and under a custom equality
    x, y = pair
    for builder, down, back in LEX_FAMILY:
        fx, fy = (x[::-1], y[::-1]) if back else (x, y)
        if down:
            fx, fy = fy, fx
        for r in (LT, LE, GT, GE):
            for eq in (operator.eq, _eq_mod_3):
                assert builder(r, eq).apply(x, y) == lex_recursive(r, fx, fy, eq)


@given(family_pairs())
def test_reversal_identities(pair):
    x, y = pair
    xr, yr = reverse_family(x), reverse_family(y)
    assert SYMLEX_LT.apply(xr, yr) == REVLEX_LT.apply(x, y)
    assert REVLEX_LT.apply(xr, yr) == SYMLEX_LT.apply(x, y)


@pytest.mark.parametrize("order", [LEX_LT, COLEX_LT, SYMLEX_LT, REVLEX_LT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lex_family_strict_total_orders_on_boxes(order, n):
    items = box(n, 2)
    assert is_strict_total_order(order, family_carrier(items))


@pytest.mark.parametrize("scalar", [LT, LE], ids=["keyed", "keyless"])
@pytest.mark.parametrize("name", NAMED_ORDERS)
def test_sorted_total_refuses_mixed_lengths(name, scalar):
    order = named_builder(name)(scalar)
    for items in ([(1,), (0, 0)], [(0, 0), (1,)], [(2, 1), (0, 1), (1, 0, 0), (0, 2)]):
        with pytest.raises(LengthMismatchError, match="family lengths differ"):
            sorted_total(items, order)
    items = [(2, 1), (0, 1), (1, 0), (0, 2)]
    assert sorted_total(items, order) == sort_under(order, items)


def test_sorted_total_refuses_mixed_lengths_under_a_matrix():
    order = weighted_relation(matrix_for("grevlex", 2))
    with pytest.raises(LengthMismatchError):
        sorted_total([(1,), (0, 0)], order)
    assert sorted_total([(1, 1), (0, 2), (2, 0)], order) == sort_under(order, [(1, 1), (0, 2), (2, 0)])
