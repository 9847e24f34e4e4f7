import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from conftest import (
    budget,
    reference_format_poly,
    reference_format_term,
    reference_from_pairs,
    reference_parse_poly,
    reference_tokenize,
    sort_under,
)
from gradedorders import (
    LT,
    IncomparableError,
    LengthMismatchError,
    WeightMatrix,
    PolyParseError,
    Relation,
    SparsePoly,
    Term,
    format_poly,
    format_term,
    grcolex,
    grevlex,
    grlex,
    grsymlex,
    leading_term,
    lex,
    load_matrix,
    monomial_mul,
    parse_poly,
    sort_terms,
    weighted_relation,
)
from gradedorders import poly
from gradedorders.cli import main
from gradedorders.families import sorted_total
from gradedorders.graded import NAMED_ORDERS, named_builder
from gradedorders.poly import _tokenize

TABLE_INPUT = "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3"


def test_parse_basic():
    p = parse_poly("X0^0*X1^8 + X0^1*X1^2", 2)
    assert p.terms == {(0, 8): 1, (1, 2): 1}


def test_parse_cancellation_gives_zero():
    p = parse_poly("X0 - X0", 2)
    assert p.is_zero()
    assert p.terms == {}


def test_parse_like_term_merge():
    p = parse_poly("2*X0*X1 + 3*X0*X1", 2)
    assert p.terms == {(1, 1): 5}


def test_parse_rational_coefficients_and_constants():
    p = parse_poly("1/2*X0 + 3 - 1/4", 1)
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(11, 4)}


def test_parse_leading_sign():
    p = parse_poly("-X0 + 2", 1)
    assert p.terms == {(1,): -1, (0,): 2}


def test_parse_aliases():
    p = parse_poly("X*Y^2*Z", 3)
    assert p.terms == {(1, 2, 1): 1}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("X0 + ?", 2)
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("X5", 2)
    with pytest.raises(PolyParseError):
        parse_poly("X0 + ", 2)
    with pytest.raises(PolyParseError):
        parse_poly("X0^", 2)
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError):
        parse_poly("X", 4)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        parse_poly("X", 0)


POLY_PIECES = ["X", "Y", "Z", "X0", "X12", "3", "45", "2/3", " / ", "^", "*", "+", "-", " ", "\t", "\n", "?", "\u0663"]


def _result_or_error(f, *args):
    try:
        return f(*args)
    except PolyParseError as err:
        return (str(err), err.position)


@given(
    st.one_of(
        st.text(alphabet="XYZ0123456789/^*+- \t?\u0663", max_size=30),
        st.lists(st.sampled_from(POLY_PIECES), max_size=12).map("".join),
    )
)
@example("")
@example("   \t ")
@example("X0 + Y^2   ")
@example("X0 + ^ ?")
@example("1 /\t2*X?")
def test_tokenizer_matches_the_reference(text):
    assert _result_or_error(_tokenize, text) == _result_or_error(reference_tokenize, text)


@pytest.mark.parametrize(
    "text, position, got",
    [("1 2", 2, "2"), ("X1 2", 3, "2"), ("X 1", 2, "1")],
)
def test_whitespace_never_splits_a_token(text, position, got):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 2)
    assert str(err.value) == f"expected '+' or '-', got {got!r} (at position {position})"


def test_whitespace_may_separate_tokens():
    assert parse_poly("1 / 2*X", 2).terms == {(1, 0): Fraction(1, 2)}
    assert parse_poly("X ^ 2", 2).terms == {(2, 0): 1}


HUGE = "9" * 5000  # past the default int digit limit of 4300


@st.composite
def poly_texts(draw):
    """(text, d): terms of factors as the grammar writes them, with random
    whitespace between tokens, and numbers, indices and aliases that may be
    out of range for d."""
    d = draw(st.sampled_from([1, 3, 4, 11, 13]))

    def ws():
        return draw(st.sampled_from(["", "", " ", "\t", "  "]))

    def number():
        n = draw(st.integers(0, 40))
        return HUGE if n == 40 else "\u0663" if n == 39 else str(n)

    def factor():
        kind = draw(st.sampled_from(["coefficient", "rational", "alias", "index"]))
        if kind == "coefficient":
            return number()
        if kind == "rational":
            return number() + ws() + "/" + ws() + number()
        if kind == "alias":
            name = draw(st.sampled_from("XYZ"))
        else:
            i = draw(st.integers(0, d + 1))
            name = "X" + (HUGE if i == d + 1 and draw(st.booleans()) else str(i))
        if draw(st.booleans()):
            name += ws() + "^" + ws() + number()
        return name

    terms = [
        (ws() + "*" + ws()).join(factor() for _ in range(draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 5)))
    ]
    text = ws() + draw(st.sampled_from(["", "", "-", "+"])) + ws() + terms[0]
    for term in terms[1:]:
        text += ws() + draw(st.sampled_from("+-")) + ws() + term
    return text + ws(), d


@st.composite
def mutated_poly_texts(draw):
    """poly_texts with signs, '*', '^', '/', tabs, U+0663 or '?' inserted and
    characters dropped."""
    text, d = draw(poly_texts())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from(["+", "-", "*", "^", "/", "\t", "?", "\u0663"])) + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text, d


@settings(max_examples=400, deadline=None)
@given(st.one_of(poly_texts(), mutated_poly_texts()))
@example(("", 3))
@example(("- \t", 1))
@example(("X + - Y", 3))
@example(("X**Y", 3))
@example(("\t-X^2", 3))
@example((HUGE + "*X", 1))
@example(("X" + HUGE, 13))
@example(("X^" + HUGE, 3))
@example(("3/0*X", 3))
@example(("X0^1/2", 4))
@example((HUGE + "/0*X", 3))
@example(("1/" + HUGE, 3))
@example(("X9 Y", 2))
@example(("Y^2 ?", 4))
@example(("X^", 2))
@example(("X^ + 1", 2))
def test_parse_matches_the_reference(case):
    text, d = case
    assert _result_or_error(parse_poly, text, d) == _result_or_error(reference_parse_poly, text, d)


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
# the named orders, and weight matrices that are total (w) or tie (flat) in
# two of the dimensions that poly_texts draws
SORT_ORDERS = [*NAMED_ORDERS] + [f"weighted:{FIXTURES}/{kind}{d}.txt" for kind in ("w", "flat") for d in (3, 4)]


def _reference_sort_terms(text, d, order_name):
    """(exit code, stdout or error line) of sort-terms by the reference parse,
    a pairwise sort and the reference writer."""
    if order_name.startswith("weighted:"):
        matrix = load_matrix(order_name[len("weighted:"):])
        if matrix.d != d:  # refused where the matrix is loaded, before the text is read
            return 2, f"Error: expected families of length {matrix.d}, got {d}"
        order = weighted_relation(matrix, LT)
    else:
        order = named_builder(order_name)(LT)
    try:
        p = reference_parse_poly(text, d)
    except PolyParseError as err:
        return 2, f"Error: {err}"
    exponents = sort_under(order, list(p.terms))
    if any(not order.apply(a, b) for a, b in zip(exponents, exponents[1:])):
        return 2, None  # the order ties two of the terms
    return 0, reference_format_poly([Term(e, p.terms[e]) for e in exponents], d) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.tuples(poly_texts(), st.sampled_from(SORT_ORDERS)))
@example((("-X + Y", 2), "grevlex"))
@example((("  - 1/2*X0^2 + X1", 2), "lex"))
@example((("X*Y - Y*X + 2 - 2", 3), "grlex"))
@example((("X*Y - Y*X", 3), "revlex"))
@example((("2*3/4*X - X + 1/2*Y", 3), "grsymlex"))
@example((("-1/2*2*X + X^2 - 3*2", 3), f"weighted:{FIXTURES}/w3.txt"))
@example((("0*X + 0 + X0*0*X1 - Y", 3), "colex"))
@example((("X0*X1 + X1^2 - 7", 4), f"weighted:{FIXTURES}/flat4.txt"))
@example((("X + Y", 2), f"weighted:{FIXTURES}/w3.txt"))
@example((("0", 1), f"weighted:{FIXTURES}/w3.txt"))
@example((("X - X", 1), f"weighted:{FIXTURES}/w3.txt"))
def test_sort_terms_command_matches_the_reference(case):
    (text, d), order_name = case
    result = CliRunner().invoke(main, ["sort-terms", "--d", str(d), "--order", order_name], input=text)
    code, expected = _reference_sort_terms(text, d, order_name)
    assert result.exit_code == code, result.output
    if code == 0:
        assert result.stdout == expected
        assert all(type(c) is Fraction for c in parse_poly(text, d).terms.values())
    elif expected is not None:
        assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [expected]


# exponents around powers of two, where the packed fields' width changes
PACKED_EXPONENTS = [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32]


@st.composite
def packed_texts(draw):
    """(text, d), d = 1..6: terms over a few monomials, so that like terms
    merge and cancel, each with its variables' powers split over repeated
    factors, coefficient factors anywhere among them, aliases when d <= 3,
    and now and then a factor that is no factor or is out of range."""
    d = draw(st.integers(1, 6))
    alias = d <= 3 and draw(st.booleans())
    pool = draw(st.lists(st.lists(st.sampled_from(PACKED_EXPONENTS), min_size=d, max_size=d), min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        factors = draw(st.lists(st.sampled_from(["0", "1", "2", "3", "1/2", "2/4", "7"]), max_size=2))
        for i, exponent in enumerate(draw(st.sampled_from(pool))):
            name = "XYZ"[i] if alias else f"X{i}"
            if exponent > 1 and draw(st.booleans()):  # the variable repeated
                cut = draw(st.integers(1, exponent - 1))
                parts = [cut, exponent - cut]
            else:  # an exponent 0 written as ^0 or left out
                parts = [exponent] if exponent or draw(st.booleans()) else []
            factors += [name if e == 1 else f"{name}^{e}" for e in parts]
        if draw(st.integers(0, 9)) == 0:
            factors.append(draw(st.sampled_from(["Y" if d > 3 else "X3", f"X{d}", "1/0", "", "X^", "?"])))
        if not factors:
            factors = [draw(st.sampled_from(["1", "0", "5"]))]
        terms.append(draw(st.sampled_from(["+", "-", " - ", " + "])) + "*".join(draw(st.permutations(factors))))
    text = "".join(terms)
    return text[1:] if text[0] == "+" and draw(st.booleans()) else text, d


def _tuple_path(text, d, order_name):
    """sort-terms' line by parse_poly, sorted_total and _format_pairs, or
    its Error: line."""
    try:
        p = parse_poly(text, d)
    except PolyParseError as err:
        return f"Error: {err}"
    exponents = sorted_total(p.terms, named_builder(order_name)(LT))
    return poly._format_pairs(zip(exponents, map(p.terms.__getitem__, exponents)), d)


def _sort_terms_line(text, d, order_name):
    """sort-terms' stdout, or its one Error: line."""
    result = CliRunner().invoke(main, ["sort-terms", "--d", str(d), "--order", order_name], input=text)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    if result.exit_code == 0:
        assert result.stdout.endswith("\n") and not errors
        return result.stdout[:-1]
    assert (result.exit_code, result.stdout, len(errors)) == (2, "", 1), result.output
    return errors[0]


@settings(max_examples=400, deadline=None)
@given(packed_texts(), st.sampled_from(list(NAMED_ORDERS)))
@example(("X - X", 1), "grlex")
@example(("X*Y - Y*X", 3), "revlex")
@example(("2*X0*X1 - X1*X0*2 + 3 - 1*3", 2), "grevlex")
@example(("0*X + 0 + X0*0*X1 - Y + 1", 3), "colex")
@example(("X*X^3 + X^2*X^2*Y - Y*X^4", 2), "lex")
@example(("X*3 + 2*3*X^2 - Y*1/2*2 + 2/4*Y*X", 2), "grsymlex")
@example(("X*Y^2*Z - 3*X + 1/2", 3), "symlex")
@example(("X^15 - Y^15 + X^15*Y^0", 2), "grcolex")  # a component and a degree of 2^4 - 1 in 4-bit fields
@example(("X^8*X^8 + X^15*Y + Y^16", 2), "grevlex")  # 2^4 in 5-bit fields
@example(("X0^3*X0^4*X2^7 + X1^7 - X5^7*X0^0", 6), "grsymlex")
@example(("2*X^{0}*X - X^{0} + X^2".format(2**70), 1), "symlex")  # fields past 64 bits
@example(("X + Y", 1), "grlex")
@example(("X + ", 2), "lex")
@example(("X", 4), "revlex")
@example(("1/0*X", 2), "grevlex")
@example(("", 1), "colex")
def test_packed_sort_matches_the_tuple_path(case, order_name):
    # a named order's terms sort as packed monomials; only text that the
    # term parse refuses goes back to the tuple path, and sort-terms writes
    # what the tuple path writes, or its Error: line
    text, d = case
    expected = _tuple_path(text, d, order_name)
    packed = poly._sort_packed(text, d, *NAMED_ORDERS[order_name])
    assert (packed is None) == (poly._parse_by_term(text, d) is None)
    if packed is not None:
        assert poly._write_packed(*packed) == expected
    assert _sort_terms_line(text, d, order_name) == expected


@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
@pytest.mark.parametrize(
    "text, d",
    [("X0^3 + X0 - 2*X1", 2**16), ("X^{0} + Y - X^{0}*Y".format("9" * 4300), 3)],
    ids=["dimension", "exponent"],
)
def test_monomials_too_wide_to_pack_keep_the_tuple_path(text, d, order_name):
    assert poly._sort_packed(text, d, *NAMED_ORDERS[order_name]) is None
    assert _sort_terms_line(text, d, order_name) == _tuple_path(text, d, order_name)


@budget(1, "a dimension no list holds is refused at once")
@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
@pytest.mark.parametrize("size", [10**18, sys.maxsize])
def test_sort_terms_refuses_a_dimension_no_list_holds_at_once(size, order_name):
    # no text, well-formed or not, makes anything of the dimension's size
    # before the dimension is refused
    for text in ["X0", "7", "X0 - X0", "X0^2*X1 + 3/4*X5", "X +"]:
        assert _sort_terms_line(text, size, order_name) == f"Error: --d {size} is too large"


def test_a_fault_walk_that_finds_no_fault_is_an_error(monkeypatch):
    monkeypatch.setattr(poly, "_parse_by_term", lambda text, dimension: None)
    with pytest.raises(AssertionError, match=re.escape("'X + 1'")):
        parse_poly("X + 1", 2)


WELL_FORMED = [
    ("X*Y^2*Z - 3*X + 1/2", 3),
    ("X0^2*X12 + X7 - X0*X0^3 + X12^10", 13),
    ("-X*X^2 + 7", 1),
    ("  - 2 / 3 * X0 ^ 4  +  5  ", 2),
    ("1/2*Y - 4/6 + 2*3", 2),
    ("+X1^0", 2),
    ("0", 1),
    ("X0 - X0", 2),
    ("X\t*\tY ^ 2 -\tY", 2),
    ("\u0663*X\u0663", 4),
]


def test_well_formed_text_never_reaches_the_tokenizer(monkeypatch):
    expected = [reference_parse_poly(text, d) for text, d in WELL_FORMED]

    def refuse(text):
        raise AssertionError(f"the tokenizer ran on {text!r}")

    monkeypatch.setattr(poly, "_tokenize", refuse)
    assert [parse_poly(text, d) for text, d in WELL_FORMED] == expected
    with pytest.raises(AssertionError, match="the tokenizer ran"):
        parse_poly("X +", 2)


def test_blanks_around_a_factor_leave_its_terms_and_its_reading(monkeypatch):
    # blanks around a factor change no term; blanks around a term's signs
    # leave its factors the texts they are inside a term, each read once
    calls = []
    factor = poly._factor
    monkeypatch.setattr(poly, "_factor", lambda *args: calls.append(args[0]) or factor(*args))
    terms = [((2, 1), Fraction(3)), ((0, 1), Fraction(-1))]
    assert list(parse_poly(" 2*X^2*Y\t+ Y*X^2 -\tY  ", 2).terms.items()) == terms
    assert sorted(calls) == ["2", "X^2", "Y"]
    for text in ["2*X^2*Y+Y*X^2-Y", " 2 * X^2 *Y\t+\tY*  X^2 - Y ", "2 *X^2\t*\tY + Y *X^2 - \tY"]:
        assert list(parse_poly(text, 2).terms.items()) == terms


def test_parse_zero_denominator_is_a_parse_error():
    for text, position in [("1/0*X0", 0), ("X0 + 3 / 0", 5), ("X0*2*1/0", 5)]:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, 2)
        assert err.value.position == position
        assert "zero denominator" in str(err.value)


@pytest.mark.parametrize(
    "text, position",
    [("X + {}*Y", 4), ("X + {}/2*Y", 4), ("X + 3/{}*Y", 4), ("X + Y^{}", 6), ("X + X{}", 4)],
    ids=["coefficient", "numerator", "denominator", "exponent", "variable"],
)
def test_parse_numbers_past_the_int_digit_limit_are_parse_errors(text, position):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default)
    with pytest.raises(PolyParseError) as err:
        parse_poly(text.format("9" * 5000), 2)
    assert err.value.position == position
    assert f"number of more than {sys.get_int_max_str_digits()} digits" in str(err.value)


@st.composite
def coefficient_pairs(draw):
    """(d, pairs): exponents drawn from a small box, so that they repeat, with
    int, Fraction, float and Decimal coefficients, some of which cancel."""
    d = draw(st.sampled_from([1, 2, 3]))
    coefficient = st.one_of(
        st.integers(-3, 3),
        st.integers(-(10**30), 10**30),
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])),
        st.sampled_from([0.5, -0.5, 0.1, -0.1, 0.0, 1e300, Decimal("0.1"), Decimal("-0.1")]),
        st.floats(-10, 10),
    )
    pair = st.tuples(st.tuples(*[st.integers(0, 2)] * d), coefficient)
    return d, draw(st.lists(pair, max_size=12))


@settings(max_examples=300, deadline=None)
@given(coefficient_pairs())
@example((2, [((1, 0), 1), ((1, 0), Fraction(-1, 2)), ((1, 0), -0.5), ((0, 1), 3)]))
@example((1, [((0,), Fraction(2, 3)), ((0,), 1)]))
@example((2, [((1,), 1)]))
def test_from_pairs_matches_the_reference(case):
    d, pairs = case
    try:
        expected = reference_from_pairs(d, pairs)
    except LengthMismatchError:
        with pytest.raises(LengthMismatchError):
            SparsePoly.from_pairs(d, pairs)
        return
    terms = SparsePoly.from_pairs(d, pairs).terms
    assert list(terms.items()) == list(expected.items())
    assert all(type(c) is Fraction for c in terms.values())


def test_term_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        Term((1, 0), 0)


def test_term_stores_a_fraction_coefficient():
    t = Term((3, 0, 0), 1)
    assert type(t.coefficient) is Fraction and t.coefficient == 1
    half = Fraction(1, 2)
    assert Term((0, 1), half).coefficient is half


class _Exponents(tuple):
    """A tuple by value but not by type: Term makes a tuple of it."""


def _fields(terms):
    return [(type(t.exponents), t.exponents, type(t.coefficient), t.coefficient) for t in terms]


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0): 3, (0, 1): Fraction(1, 2), (1, 1): -1},
        {_Exponents((2, 0)): Fraction(3), (0, 1): Fraction(-1, 2)},
        {(2, 0): 0, (0, 1): Fraction(1)},
        {(0, 1): Fraction(1), (2, 0): Fraction(0)},
    ],
    ids=["int coefficients", "exponents of a tuple subclass", "zero int", "zero Fraction"],
)
def test_terms_of_a_directly_built_polynomial_are_what_term_makes(terms):
    # the entries of a SparsePoly built directly are not checked: sort_terms
    # and leading_term must give the Terms that Term makes of them, or its
    # error.  (Exponents as lists cannot be dict keys; a tuple subclass is
    # what Term converts instead.)
    p, order = SparsePoly(2, terms), grlex(LT)
    exponents = sort_under(order, list(terms))
    for got, entries in [(sort_terms, exponents), (leading_term, exponents[-1:])]:
        try:
            expected = [Term(e, terms[e]) for e in entries]
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                got(p, order)
            continue
        result = got(p, order)
        assert _fields(result if got is sort_terms else [result]) == _fields(expected)


def test_sort_terms_table_rows():
    p = parse_poly(TABLE_INPUT, 3)
    grevlex_terms = sort_terms(p, grevlex(LT))
    assert [t.exponents for t in grevlex_terms] == [
        (0, 0, 3), (1, 1, 1), (0, 3, 0), (1, 2, 0), (3, 0, 0),
    ]
    grsymlex_terms = sort_terms(p, grsymlex(LT))
    assert [t.exponents for t in grsymlex_terms] == [
        (3, 0, 0), (1, 2, 0), (1, 1, 1), (0, 3, 0), (0, 0, 3),
    ]


def test_sort_terms_refuses_tied_exponents():
    order = weighted_relation(WeightMatrix(((1,), (1,))))
    with pytest.raises(IncomparableError) as excinfo:
        sort_terms(parse_poly("X + Y + X^2 + X*Y", 2), order)
    assert excinfo.value.pair == ((1, 0), (0, 1))
    assert [t.exponents for t in sort_terms(parse_poly("X + X^2", 2), order)] == [(1, 0), (2, 0)]
    # a keyless order ties through the comparator
    with pytest.raises(IncomparableError):
        sorted_total([(0, 1), (1, 0)], Relation(lambda x, y: False))


def test_sort_terms_single_term():
    p = parse_poly("5*X0^2", 1)
    assert [t.exponents for t in sort_terms(p, grlex(LT))] == [(2,)]


def test_sort_terms_is_ascending_permutation():
    p = parse_poly("X0^2 + X1^2 + X0*X1 + 1 - 3*X1", 2)
    order = grlex(LT)
    terms = sort_terms(p, order)
    assert {t.exponents: t.coefficient for t in terms} == p.terms
    for a, b in zip(terms, terms[1:]):
        assert order.apply(a.exponents, b.exponents)
    degrees = [sum(t.exponents) for t in terms]
    assert degrees == sorted(degrees)


def test_leading_term_examples():
    p = parse_poly("X0^0*X1^8 + X0^1*X1^2", 2)
    assert leading_term(p, lex(LT)).exponents == (1, 2)
    assert leading_term(p, grlex(LT)).exponents == (0, 8)
    assert leading_term(SparsePoly(2, {}), grlex(LT)) is None


def test_leading_term_refuses_a_tied_maximum():
    flat = weighted_relation(WeightMatrix(((1,), (2,))))  # X^2 and Y both weigh 2
    for text, pair in [("X^2 + Y", ((2, 0), (0, 1))), ("Y + X^2", ((0, 1), (2, 0)))]:
        p = parse_poly(text, 2)
        with pytest.raises(IncomparableError) as excinfo:
            leading_term(p, flat)
        assert excinfo.value.pair == pair
        with pytest.raises(IncomparableError):
            sort_terms(p, flat)
        assert leading_term(p, grlex(LT)).exponents == (2, 0)
    assert leading_term(parse_poly("X + 3*Y", 2), flat) == Term((0, 1), 3)


@pytest.mark.parametrize("name", NAMED_ORDERS)
def test_leading_term_refuses_mixed_lengths_as_sort_terms_does(name):
    p = SparsePoly(2, {(1, 0): Fraction(1), (0, 0, 5): Fraction(2)})
    order = named_builder(name)(LT)
    with pytest.raises(LengthMismatchError) as sorting:
        sort_terms(p, order)
    with pytest.raises(LengthMismatchError) as leading:
        leading_term(p, order)
    assert str(leading.value) == str(sorting.value) == "family lengths differ: 2 vs 3"


def test_leading_term_is_the_last_sorted_term():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 4)
        p = SparsePoly.from_pairs(d, [(tuple(rng.randint(0, 4) for _ in range(d)), rng.randint(1, 9)) for _ in range(8)])
        # upper triangular with a nonzero diagonal: a total order
        full_rank = WeightMatrix(tuple(tuple(rng.randint(1, 3) if i == j else rng.randint(0, 2) * (i < j) for j in range(d)) for i in range(d)))
        for order in [named_builder(name)(LT) for name in NAMED_ORDERS] + [weighted_relation(full_rank)]:
            assert leading_term(p, order) == sort_terms(p, order)[-1]


def test_monomial_mul():
    p = parse_poly("X0 + X1^2", 2)
    q = monomial_mul(p, (1, 1))
    assert q.terms == {(2, 1): 1, (1, 3): 1}
    with pytest.raises(LengthMismatchError):
        monomial_mul(p, (1,))
    with pytest.raises(ValueError, match="negative"):
        monomial_mul(parse_poly("X*Y + 2*Y", 2), (-3, 0))


@pytest.mark.parametrize("gamma", [(Fraction(1, 2), 0), (0.5, 1), (1.0, 0), (0, Fraction(2))])
def test_monomial_mul_refuses_non_integer_shifts(gamma):
    """A shift that is no int would give exponents such as 3/2, 1.5 or 2.0,
    which format_poly writes and parse_poly cannot read back."""
    p = parse_poly("X0 + X1^2", 2)
    with pytest.raises(ValueError, match="exponents are naturals"):
        monomial_mul(p, gamma)
    assert monomial_mul(p, (True, 0)).terms == {(2, 0): 1, (1, 2): 1}


def _shifted_by_from_pairs(p, gamma):
    """monomial_mul by its definition: each family shifted, then from_pairs."""
    pairs = ((tuple(e + g for e, g in zip(exponents, gamma)), c) for exponents, c in p.terms.items())
    return SparsePoly.from_pairs(p.dimension, pairs)


def _outcome(f, *args):
    """The terms f returns with the types of their entries, or its error."""
    try:
        q = f(*args)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    return q.dimension, [(type(e), e, type(c), c) for e, c in q.terms.items()]


# past 2**53 a float family may shift onto another: 2**53 + 2 and 2**53 + 4
# both round to 2**53 + 4 when 1 is added
_FAR = 2.0**53


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 3, (0, 1): Fraction(1, 2)},
        {(1, 0): Fraction(0), (0, 1): Fraction(2)},
        {(1, 0): 0, (0, 1): Fraction(2)},
        {(1, 0): True, (0, 1): Fraction(2)},
        {(1, 0): 0.5, (0, 1): Fraction(2)},
        {(1, 0, 5): Fraction(1), (0, 1): Fraction(1)},
        {(1, 0): Fraction(1), (0, 1, 5): Fraction(1)},
        {(1,): Fraction(1), (0, 1): Fraction(1)},
        {(0, 1): Fraction(1), (1,): Fraction(1)},
        {_Exponents((2, 0)): Fraction(3), (0, 1): Fraction(-1, 2)},
        {(_FAR + 2, 0): Fraction(1), (_FAR + 4, 0): Fraction(2)},
        {(0.5, 0): Fraction(1), (0, 1): Fraction(1)},
        {"ab": Fraction(1)},
        {},
    ],
    ids=[
        "int coefficient",
        "zero Fraction",
        "zero int",
        "bool coefficient",
        "float coefficient",
        "longer family first",
        "longer family last",
        "shorter family first",
        "shorter family last",
        "exponents of a tuple subclass",
        "float families that the shift merges",
        "float family",
        "string family",
        "zero polynomial",
    ],
)
def test_monomial_mul_of_a_directly_built_polynomial_is_what_from_pairs_makes(terms):
    p = SparsePoly(2, terms)
    assert _outcome(monomial_mul, p, (1, 2)) == _outcome(_shifted_by_from_pairs, p, (1, 2))


def test_monomial_mul_is_what_from_pairs_makes():
    rng = random.Random(29)
    for _ in range(300):
        d = rng.randint(1, 5)
        pairs = [
            (tuple(rng.randint(0, 3) for _ in range(d)), rng.choice([1, -2, Fraction(1, 3), Fraction(-7, 2)]))
            for _ in range(rng.randint(0, 12))
        ]
        gamma = tuple(rng.randint(0, 3) for _ in range(d))
        p = SparsePoly.from_pairs(d, pairs)
        polys = [p, parse_poly(format_poly([Term(e, c) for e, c in p.terms.items()], d), d)] if p.terms else [p]
        for p in polys:
            assert _outcome(monomial_mul, p, gamma) == _outcome(_shifted_by_from_pairs, p, gamma)


def test_leading_term_morphism_sample():
    rng = random.Random(7)
    orders = [grlex(LT), grcolex(LT), grsymlex(LT), grevlex(LT)]
    for _ in range(100):
        d = rng.randint(1, 3)
        pairs = []
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 6) for _ in range(d))
            c = rng.choice([c for c in range(-5, 6) if c])
            pairs.append((e, c))
        p = SparsePoly.from_pairs(d, pairs)
        if p.is_zero():
            continue
        gamma = tuple(rng.randint(0, 4) for _ in range(d))
        order = rng.choice(orders)
        lead = leading_term(p, order)
        shifted = leading_term(monomial_mul(p, gamma), order)
        assert shifted.exponents == tuple(e + g for e, g in zip(lead.exponents, gamma))
        assert shifted.coefficient == lead.coefficient


def test_format_term():
    assert format_term(Term((3, 0, 0), 1), 3) == "X^3"
    assert format_term(Term((1, 2, 0), 1), 3) == "X*Y^2"
    assert format_term(Term((0, 0, 0), Fraction(3, 4)), 3) == "3/4"
    assert format_term(Term((2, 1), 6), 2, alias=False) == "6*X0^2*X1"


def test_format_poly():
    p = parse_poly("-X0 + 2*X1 - 3", 2)
    terms = sort_terms(p, grlex(LT))
    assert format_poly(terms, 2) == "-3 + 2*Y - X"
    assert format_poly([], 2) == "0"


@st.composite
def term_lists(draw):
    """(terms, d, alias): up to 8 terms of dimension d, repeats allowed, with
    integer and rational coefficients of either sign and zero.  Term refuses
    a zero coefficient, so a zero rides on a stand-in with the same fields."""
    d = draw(st.sampled_from([1, 3, 4, 13]))
    exponent = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 10, 123])
    coefficient = st.builds(
        Fraction, st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30)), st.sampled_from([1, 1, 2, 3, 7, 10])
    )

    def term():
        exponents = tuple(draw(exponent) for _ in range(d))
        c = draw(coefficient)
        return Term(exponents, c) if c else SimpleNamespace(exponents=exponents, coefficient=c)

    return [term() for _ in range(draw(st.integers(0, 8)))], d, draw(st.sampled_from([None, True, False]))


@settings(max_examples=400, deadline=None)
@given(term_lists())
@example(([], 3, None))
@example(([Term((0, 0, 0), -1)], 3, None))
@example(([Term((0, 0, 0), 1), Term((1, 0, 0), -1), Term((0, 2, 0), Fraction(-1, 2))], 3, False))
@example(([SimpleNamespace(exponents=(1,), coefficient=Fraction(0)), Term((0,), 5)], 1, None))
def test_format_poly_matches_the_reference(case):
    terms, d, alias = case
    assert format_poly(terms, d, alias) == reference_format_poly(terms, d, alias)
    for t in terms:
        assert format_term(t, d, alias) == reference_format_term(t, d, alias)


def test_parse_format_roundtrip():
    text = "Z^3 + X*Y*Z + 2*X^3"
    p = parse_poly(text, 3)
    rendered = format_poly(sort_terms(p, grlex(LT)), 3)
    assert parse_poly(rendered, 3).terms == p.terms
