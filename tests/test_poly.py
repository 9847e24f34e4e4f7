import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import reference_tokenize
from gradedorders import (
    LT,
    IncomparableError,
    LengthMismatchError,
    WeightMatrix,
    PolyParseError,
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
    monomial_mul,
    parse_poly,
    sort_terms,
    weighted_relation,
)
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


POLY_PIECES = ["X", "Y", "Z", "X0", "X12", "3", "45", "2/3", " / ", "^", "*", "+", "-", " ", "\t", "\n", "?", "\u0663"]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
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
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(reference_tokenize, text)


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


def test_term_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        Term((1, 0), 0)


def test_term_stores_a_fraction_coefficient():
    t = Term((3, 0, 0), 1)
    assert type(t.coefficient) is Fraction and t.coefficient == 1
    half = Fraction(1, 2)
    assert Term((0, 1), half).coefficient is half


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


def test_monomial_mul():
    p = parse_poly("X0 + X1^2", 2)
    q = monomial_mul(p, (1, 1))
    assert q.terms == {(2, 1): 1, (1, 3): 1}
    with pytest.raises(LengthMismatchError):
        monomial_mul(p, (1,))
    with pytest.raises(ValueError, match="negative"):
        monomial_mul(parse_poly("X*Y + 2*Y", 2), (-3, 0))


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


def test_parse_format_roundtrip():
    text = "Z^3 + X*Y*Z + 2*X^3"
    p = parse_poly(text, 3)
    rendered = format_poly(sort_terms(p, grlex(LT)), 3)
    assert parse_poly(rendered, 3).terms == p.terms
