import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import box, reference_columns

from gradedorders import (
    LT,
    LengthMismatchError,
    WeightMatrix,
    find_incomparable,
    format_matrix,
    graded,
    grlex,
    lex,
    load_matrix,
    matrix_for,
    parse_matrix,
    prepend_ones_column,
    weighted_lt,
    weighted_relation,
)
from gradedorders import weighted
from gradedorders.graded import NAMED_ORDERS

ORDER_NAMES = tuple(NAMED_ORDERS)


def agree_on_box(w, order, d, bound=3):
    return all(
        weighted_lt(w, LT, x, y) == order.apply(x, y)
        for x in box(d, bound)
        for y in box(d, bound)
    )


def test_identity_matrix_is_lex():
    w = WeightMatrix(((1, 0), (0, 1)))
    assert agree_on_box(w, lex(LT), 2)


def test_ones_then_unit_is_grlex():
    w = WeightMatrix(((1, 1), (1, 0)))
    assert agree_on_box(w, grlex(LT), 2)


def test_single_column_equal_projections():
    w = WeightMatrix(((1,), (1,)))
    assert not weighted_lt(w, LT, (1, 0), (0, 1))
    assert not weighted_lt(w, LT, (0, 1), (1, 0))


def test_dimension_mismatch_raises():
    w = WeightMatrix(((1, 0), (0, 1)))
    with pytest.raises(LengthMismatchError):
        weighted_lt(w, LT, (1, 2, 3), (0, 0, 0))


@pytest.mark.parametrize("name", ORDER_NAMES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrix_for_agrees_with_combinators(name, d):
    from gradedorders import colex, grcolex, grevlex, grsymlex, revlex, symlex

    reference = {
        "lex": lex(LT),
        "colex": colex(LT),
        "symlex": symlex(LT),
        "revlex": revlex(LT),
        "grlex": grlex(LT),
        "grcolex": grcolex(LT),
        "grsymlex": grsymlex(LT),
        "grevlex": grevlex(LT),
    }[name]
    w = matrix_for(name, d)
    assert w.d == d and w.m == d
    assert agree_on_box(w, reference, d)


def test_matrix_for_unknown_name():
    with pytest.raises(ValueError):
        matrix_for("grwhatever", 2)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        matrix_for("grlex", 0)


@pytest.mark.parametrize("name", ["COLEX", "revlex:", "grsymlex_rec"])
def test_matrix_for_rejects_orders_without_a_matrix(name):
    with pytest.raises(ValueError, match="unknown order name"):
        matrix_for(name, 2)


def test_matrix_for_returns_the_reference_columns():
    # test_matrix_for_agrees_with_combinators compares the orders only up
    # to d = 3; above that the columns must match their definition
    for name in ORDER_NAMES:
        for d in range(1, 9):
            columns = reference_columns(name, d)
            assert [matrix_for(name, d).column(j) for j in range(d)] == columns, (name, d)


def test_ones_column_prepend_is_grading():
    for d in (2, 3):
        w = prepend_ones_column(matrix_for("lex", d))
        assert agree_on_box(w, graded(LT, lex(LT)), d, 2)


def test_column_scaling_invariance():
    w = matrix_for("grevlex", 3)
    for j in range(w.m):
        scaled = w.scale_column(j, 7)
        assert agree_on_box(scaled, weighted_relation(w), 3, 2)


INVERTIBLE = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((2, 1), (1, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 1, 1), (1, 1, 0), (1, 0, 0)),
]

SINGULAR = [
    ((1, 1), (1, 1)),
    ((1, 2), (2, 4)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
]


@pytest.mark.parametrize("rows", INVERTIBLE)
def test_invertible_fixtures_are_total_on_box(rows):
    assert find_incomparable(WeightMatrix(rows), LT, 3) is None


@pytest.mark.parametrize("rows", SINGULAR)
def test_singular_fixtures_yield_witnesses(rows):
    w = WeightMatrix(rows)
    witness = find_incomparable(w, LT, 3)
    assert witness is not None
    x, y = witness
    assert x != y
    assert not weighted_lt(w, LT, x, y) and not weighted_lt(w, LT, y, x)


def test_single_ones_column_witness():
    witness = find_incomparable(WeightMatrix(((1,), (1,))), LT, 1)
    assert witness in (((0, 1), (1, 0)), ((1, 0), (0, 1)))


def test_all_ones_rank_one_witness_on_tiny_box():
    assert find_incomparable(WeightMatrix(((1, 1), (1, 1))), LT, 1) is not None


# a column of each kind: zero, unit, negated unit, with a Fraction, dense
def _column(kind, d, i, draw):
    if kind in ("unit", "negated"):
        return tuple((1 if kind == "unit" else -1) if j == i else 0 for j in range(d))
    if kind == "fraction":
        return tuple(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(d))
    return (0,) * d if kind == "zero" else tuple(draw(st.integers(-5, 5)) for _ in range(d))


@st.composite
def matrices_and_families(draw):
    d, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kinds = st.sampled_from(["zero", "unit", "negated", "fraction", "dense"])
    columns = [_column(draw(kinds), d, draw(st.integers(0, d - 1)), draw) for _ in range(m)]
    return WeightMatrix(tuple(zip(*columns))), draw(st.tuples(*[st.integers(-9, 9)] * d))


@settings(max_examples=300, deadline=None)
@given(matrices_and_families())
@example((WeightMatrix(((1,),)), (7,)))
@example((WeightMatrix(((0, 1), (1, 0))), (2, 3)))
def test_key_is_the_tuple_of_column_dot_products(case):
    # unit columns are read as the component at their 1, the others as dot products
    w, x = case
    columns = [tuple(row[j] for row in w.rows) for j in range(w.m)]
    assert weighted_relation(w, LT).key(x) == tuple(sum(a * c for a, c in zip(x, column)) for column in columns)


def test_rejects_float_entries():
    # the first inexact entry in row order is named, whatever follows it
    for entry in [1.0, 1j, Decimal(1)]:
        with pytest.raises(TypeError, match=re.escape(f"inexact matrix entry {entry!r}")):
            WeightMatrix(((1, Fraction(1, 2)), (entry, 0.5)))
    mixed = ((True, 0), (Fraction(1, 2), -2), (False, Fraction(3)))
    assert WeightMatrix(mixed).rows == mixed
    with pytest.raises(ValueError, match="at least one row"):
        WeightMatrix(())
    with pytest.raises(ValueError, match="inconsistent lengths"):
        WeightMatrix(((1, 0), (1,)))


def test_fixture_format_roundtrip(tmp_path):
    w = matrix_for("grsymlex", 3)
    text = format_matrix(w)
    assert parse_matrix(text) == w
    path = tmp_path / "w.txt"
    path.write_text(text)
    assert load_matrix(path) == w


def test_fixture_format_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1 2 3\n")
    with pytest.raises(ValueError, match="bad matrix header"):
        parse_matrix("2\n1\n1\n")


def _rows_or_error(text):
    try:
        return parse_matrix(text).rows
    except ValueError as exc:
        return str(exc)


# ASCII digits, a non-ASCII decimal digit, blanks, the signs and separator
# int() alone reads, and commas
ROW_CHARS = st.sampled_from([*"0123456789", "\u0661", " ", "\t", "\xa0", "\u3000", "-", "+", "_", ","])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.text(ROW_CHARS, max_size=4), min_size=1, max_size=4).map(" ".join), min_size=1, max_size=3))
@example(["1 -2 \u0661", "3  4 5 "])
@example(["1 x 2", "1 2 3"])
@example(["1 2", "9" * 5000 + " 1"])
@example(["1 2", "3", "4 5 6"])
@example(["1 2", "3 4", "5 x"])
@example(["1 2\r", "3 4\r"])
def test_fixture_rows_are_read_as_entry_by_entry(rows):
    # one match of the row pattern over all rows; a pattern that matches
    # nothing reads every row entry by entry, by weighted._integer
    text = f"{len(rows)} {len(rows[0].split())}\n" + "\n".join(rows) + "\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weighted, "_ROW", re.compile(r"(?!)"))
        by_entry = _rows_or_error(text)
    assert _rows_or_error(text) == by_entry


@pytest.mark.parametrize("token", ["1_0", "+1", "0x1", "1.0"])
@pytest.mark.parametrize("where", ["entry", "header"])
def test_fixture_numbers_are_read_as_compare_reads_them(token, where):
    # an optional minus and a run of digits: int() alone would read "1_0"
    # as 10 and "+1" as 1
    text = f"2 2\n{token} 0\n0 1\n" if where == "entry" else f"{token} 2\n1 0\n"
    with pytest.raises(ValueError, match="not an integer"):
        parse_matrix(text)
