"""Sparse multivariate polynomials over exponent families.

A polynomial is a map from exponent tuples to nonzero exact coefficients
(integers or Fractions, never floats: ordering and cancellation must be
exact).  The operations are exactly what monomial orders pay for: parsing,
sorting the terms under any strict vector order, picking the leading term,
and multiplying by a single monomial.

Grammar for parse_poly: terms joined by '+'/'-'; a term is an optional
integer or rational coefficient and '*'-separated factors "Xi" or "Xi^e"
with e a natural.  Whitespace may separate tokens but never splits one:
"X ^ 2" and "1 / 2*X" parse, "X 1" and "1 2" do not.  For up to three
variables, the aliases X, Y, Z stand for X0, X1, X2.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat
from operator import add, and_, attrgetter, eq, xor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .families import SCHEMES, Family, IncomparableError, LengthMismatchError, _check_one_length, sort_key, sorted_total
from .relations import Relation

_ALIASES = {"X": 0, "Y": 1, "Z": 2}

# each token after optional whitespace; any other character is a bad token,
# and trailing whitespace matches with no group
_TOKEN_RE = re.compile(
    r"""\s*(?: (?P<number>\d+(?:\s*/\s*\d+)?)
          | (?P<var>X\d+|[XYZ])
          | (?P<op>[\^*+-])
          | (?P<bad>\S)
          | \Z )
    """,
    re.VERBOSE,
)

# the term parse: the text splits at its signs and each term at '*'; a factor,
# with the whitespace around it, is a number ("p" or "p/q") or a variable with
# an optional exponent, in the character classes of _TOKEN_RE.  The split
# takes the bare sign: a leading \s* in it would rescan each run of blanks
# from every position, quadratic in the run's length
_SIGN_RE = re.compile(r"([+-])")
_FACTOR_RE = re.compile(r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|(X\d+|[XYZ])(?:\s*\^\s*(\d+))?)\s*")


# the coefficient of a term with no coefficient factor, under its sign
_UNIT = {"+": Fraction(1), "-": Fraction(-1)}


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Term:
    exponents: Tuple[int, ...]
    coefficient: Fraction

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("terms carry nonzero coefficients")
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if not isinstance(self.coefficient, Fraction):
            object.__setattr__(self, "coefficient", Fraction(self.coefficient))


@dataclass(frozen=True)
class SparsePoly:
    dimension: int
    terms: Dict[Tuple[int, ...], Fraction]

    @classmethod
    def from_pairs(cls, dimension: int, pairs) -> "SparsePoly":
        """Build a canonical polynomial: like terms combined, zeros dropped.
        Each coefficient is summed as the Fraction it equals, so that every
        sum is exact."""
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for exponents, coefficient in pairs:
            exponents = tuple(exponents)
            if len(exponents) != dimension:
                raise LengthMismatchError(
                    f"exponent family of length {len(exponents)} in dimension {dimension}"
                )
            if type(coefficient) is not Fraction:
                coefficient = Fraction(coefficient)
            if exponents in acc:
                acc[exponents] += coefficient
            else:
                acc[exponents] = coefficient
        return cls(dimension, {e: c for e, c in acc.items() if c})

    def is_zero(self) -> bool:
        return not self.terms


def _tokenize(text: str):
    """(kind, value, position) of each token, in one scan of the text; an
    unexpected character anywhere wins over any grammar error."""
    tokens = [
        (m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
        for m in _TOKEN_RE.finditer(text)
        if m.lastgroup
    ]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise PolyParseError(f"unexpected character {value!r}", pos)
    return tokens


def _int(digits: str, pos: int) -> int:
    """int(digits), or a PolyParseError at pos past sys.get_int_max_str_digits()."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"number of more than {sys.get_int_max_str_digits()} digits", pos) from None


def parse_poly(text: str, dimension: int) -> SparsePoly:
    """The polynomial a text writes in the given dimension.

    The term parse builds every polynomial, reading each distinct factor
    text once per call.  On malformed text the tokens are read in order up
    to the first fault, and the PolyParseError names it and its position."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    poly = _parse_by_term(text, dimension)
    if poly is not None:
        return poly
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    n = len(tokens)
    i = 1 if tokens[0][0] == "op" and tokens[0][1] in "+-" else 0
    while True:  # a factor, then '*', '+' or '-'
        if i == n:
            raise PolyParseError("expected a coefficient or a variable", tokens[-1][2])
        kind, value, pos = tokens[i]
        if kind == "op":
            raise PolyParseError(f"expected a coefficient or a variable, got {value!r}", pos)
        _factor(value, dimension, pos)
        i += 1
        if kind == "var" and i < n and tokens[i][1] == "^":
            i += 1
            if i == n or tokens[i][0] != "number" or "/" in tokens[i][1]:
                got, at = tokens[i][1:] if i < n else ("end of input", pos)
                raise PolyParseError(f"expected a natural exponent, got {got!r}", at)
            _factor(tokens[i][1], dimension, tokens[i][2])
            i += 1
        if i == n:
            raise AssertionError(f"the term parse refused well-formed text {text!r}")
        value, pos = tokens[i][1:]
        if value not in ("*", "+", "-"):
            raise PolyParseError(f"expected '+' or '-', got {value!r}", pos)
        i += 1


def _split_signs(text: str) -> Tuple[List[str], List[str]]:
    """The sign of each term and its text: the text split at its signs, the
    first term's sign "+" unless only blanks come before a sign."""
    pieces = _SIGN_RE.split(text)
    if len(pieces) > 1 and not pieces[0].strip():
        del pieces[0]  # the optional leading sign
    else:
        pieces.insert(0, "+")
    return pieces[::2], pieces[1::2]


def _parse_by_term(text: str, dimension: int) -> Optional[SparsePoly]:
    """parse_poly of well-formed text, or None for parse_poly to name the
    fault: a factor that does not match (an empty term too) or one that
    _factor refuses.  A term is stripped before it splits at "*", so a
    factor at its end is the same text as inside a term, and each distinct
    factor text is read once.  Each term goes straight into the polynomial's
    map, and its coefficient is a cached Fraction under its sign unless it
    has two or more coefficient factors, which alone are multiplied."""
    factors: Dict[str, object] = {}
    terms: Dict[Tuple[int, ...], Fraction] = {}
    zero = False  # whether a coefficient factor or a sum is 0
    try:
        for sign, term in zip(*_split_signs(text)):
            exponents = [0] * dimension
            coefficient = None
            for piece in term.strip().split("*"):
                factor = factors.get(piece)
                if factor is None:
                    factor = factors[piece] = _factor(piece, dimension)
                    if factor is None:
                        return None
                    zero = zero or type(factor) is dict and not factor["+"]
                if type(factor) is tuple:
                    exponents[factor[0]] += factor[1]
                elif coefficient is None:
                    coefficient = factor[sign]
                else:
                    coefficient *= factor["+"]
            if coefficient is None:
                coefficient = _UNIT[sign]
            exponents = tuple(exponents)
            if exponents in terms:
                coefficient += terms[exponents]
                zero = zero or not coefficient
            terms[exponents] = coefficient
    except PolyParseError:
        return None
    return SparsePoly(dimension, {e: c for e, c in terms.items() if c} if zero else terms)


def _factor(text: str, dimension: int, pos: int = 0):
    """An (index, exponent) pair, or {"+": c, "-": -c} for a coefficient c
    (a Fraction), for one factor's text, or None for text that is no factor.
    A fault raises a PolyParseError at pos plus the offset of the faulty
    token: a number past the int digit limit, a zero denominator, an alias
    past dimension 3 or an index past the dimension."""
    match = _FACTOR_RE.fullmatch(text)
    if match is None:
        return None
    numerator, denominator, var, exponent = match.groups()
    if var is None:
        at = pos + match.start(1)
        if denominator is None:
            value = Fraction(_int(numerator, at))
        else:
            denominator = _int(denominator, at)
            if not denominator:
                raise PolyParseError("zero denominator", at)
            value = Fraction(_int(numerator, at), denominator)
        return {"+": value, "-": -value}
    at = pos + match.start(3)
    if var in _ALIASES:
        if dimension > 3:
            raise PolyParseError(f"alias {var!r} is only available for dimension <= 3", at)
        index = _ALIASES[var]
    else:
        index = _int(var[1:], at)
    if index >= dimension:
        raise PolyParseError(f"variable X{index} exceeds declared dimension {dimension}", at)
    return index, 1 if exponent is None else _int(exponent, pos + match.start(4))


# ---------------------------------------------------------------------------
# ordering


def sort_terms(p: SparsePoly, order: Relation) -> List[Term]:
    """Terms in ascending order under a strict total vector order; raises
    IncomparableError when the order ties two of the exponents."""
    terms = p.terms
    return [Term(e, terms[e]) for e in sorted_total(terms, order)]


def leading_term(p: SparsePoly, order: Relation) -> Optional[Term]:
    """Maximum term under a strict total vector order; None for the zero
    polynomial.  Raises IncomparableError when the order ties another term
    with the maximum, and LengthMismatchError on exponents of two lengths.
    Tuples are read by the order's plan when it has one: each pass, the most
    significant first, keeps the terms of the largest pass key (the
    smallest, for a reversed pass), and one term is left, since only equal
    families tie under a plan; else by the order's key or comparator."""
    if not p.terms:
        return None
    exponents = list(p.terms)
    _check_one_length(exponents)
    if order.plan and set(map(type, exponents)) == {tuple}:
        for key, reverse in reversed(order.plan):
            keys = exponents if key is None else list(map(key, exponents))
            best = min(keys) if reverse else max(keys)
            exponents = list(compress(exponents, map(eq, keys, repeat(best))))
        return Term(exponents[0], p.terms[exponents[0]])
    keys = list(map(sort_key(order), exponents))
    top = keys.index(max(keys))
    if keys.count(keys[top]) > 1:
        raise IncomparableError(exponents[top], exponents[keys.index(keys[top], top + 1)])
    return Term(exponents[top], p.terms[exponents[top]])


def monomial_mul(p: SparsePoly, gamma: Sequence[int]) -> SparsePoly:
    """Multiply by a single monomial: shift every exponent family by gamma."""
    gamma = tuple(gamma)
    if len(gamma) != p.dimension:
        raise LengthMismatchError(
            f"shift of length {len(gamma)} in dimension {p.dimension}"
        )
    if not all(isinstance(g, int) for g in gamma):
        raise ValueError(f"non-integer shift {gamma}: exponents are naturals")
    if any(g < 0 for g in gamma):
        raise ValueError(f"negative shift {gamma}: exponents are naturals")
    return SparsePoly.from_pairs(p.dimension, ((tuple(map(add, e, gamma)), c) for e, c in p.terms.items()))


# ---------------------------------------------------------------------------
# formatting


def format_term(term: Term, dimension: int, alias: Optional[bool] = None) -> str:
    """Canonical unsigned rendering of a term (the sign is handled by the
    polynomial joiner)."""
    return format_poly([term], dimension, alias).lstrip("-")


def format_poly(terms: Sequence[Term], dimension: int, alias: Optional[bool] = None) -> str:
    """Each term's coefficient and powers joined by ``*``, after its sign; the
    first term's sign shows only when it is negative.  Variables are X, Y, Z
    up to dimension 3 unless alias is false, else X0, X1, ..."""
    return _format_pairs(map(attrgetter("exponents", "coefficient"), terms), dimension, alias)


def _format_pairs(
    pairs: Iterable[Tuple[Family, Fraction]], dimension: int, alias: Optional[bool] = None
) -> str:
    """format_poly of the terms that (exponents, coefficient) pairs write,
    the coefficients nonzero Fractions.  Each factor's text is made once per
    call, and a coefficient's text from its numerator and denominator, with
    no Fraction arithmetic."""
    letters = dimension <= 3 and (alias or alias is None)
    powers = {}  # (index, exponent) -> the factor's text
    parts = []
    for exponents, coefficient in pairs:
        factors = []
        for index, exponent in enumerate(exponents):
            if exponent:
                text = powers.get((index, exponent))
                if text is None:
                    text = powers[index, exponent] = _power(index, exponent, letters)
                factors.append(text)
        head, alone = _coefficient_texts(coefficient)
        parts.append(head + "*".join(factors) if factors else alone)
    return _join_terms(parts)


def _power(index: int, exponent: int, letters: bool) -> str:
    """The text of a variable to a positive power: its name, X, Y, Z when
    letters, else X0, X1, ..., then "^" and the exponent unless it is 1."""
    name = "XYZ"[index] if letters else f"X{index}"
    return name if exponent == 1 else f"{name}^{exponent}"


def _coefficient_texts(coefficient: Fraction) -> Tuple[str, str]:
    """The texts of a term with a nonzero coefficient: before the "*"-joined
    powers of its monomial, and alone for a constant.  Each is the sign,
    "+ " or "- ", then the coefficient's magnitude, "p/q" or "p", which a
    monomial leaves out when it is 1."""
    n, q = coefficient.as_integer_ratio()
    sign = "+ " if n > 0 else "- "
    number = f"{abs(n)}/{q}" if q != 1 else str(abs(n))
    return sign if number == "1" else f"{sign}{number}*", sign + number


def _join_terms(parts: List[str]) -> str:
    """The terms' texts, each after its sign, as one line: the first term's
    sign shows only when it is negative, and no terms are "0"."""
    if not parts:
        return "0"
    line = " ".join(parts)
    return line[2:] if line[0] == "+" else "-" + line[2:]


# ---------------------------------------------------------------------------
# packed monomials
#
# A monomial packs into one int of fields w bits wide, where w is the bit
# length of the largest variable exponent times the most factors in one
# term, so that no component and no degree carries into the next field.
# Component i sits at field i for the back schemes (colex, revlex) and at
# field d - 1 - i for the front schemes, and the degree field above them, so
# that one int comparison is a graded order and the fields below the degree
# a lexicographic one.  A field above the degree counts a term's coefficient
# factors.  Wider monomials than _PACKED_BITS, of a large dimension or large
# exponents, keep the tuple path: so the packed path holds no int of a size
# the text does not bound, and a dimension too large for a list is refused
# where the tuple path makes its first list of d components.

_PACKED_BITS = 2**16


def _sort_packed(text: str, dimension: int, scheme: str, graded: bool) -> Optional[tuple]:
    """The terms of parse_poly(text, dimension) ascending under the named
    order of SCHEMES[scheme], graded or not, as packed monomials: the
    arguments of _write_packed.  None for text that _parse_by_term refuses
    and for monomials wider than _PACKED_BITS.

    Each distinct factor text is read once by _factor and becomes one int.
    A term's int is the sum of its factors' ints, like terms merge by int
    equality, and zeros drop.  The sort is one list.sort: by the fields
    below the degree, descending when down, for a lexicographic order; by
    the whole int for a graded one, with the fields below the degree
    complemented when down."""
    down, back = SCHEMES[scheme]
    signs, texts = _split_signs(text)
    terms = [term.strip().split("*") for term in texts]
    try:
        factors = {piece: _factor(piece, dimension) for piece in set(chain.from_iterable(terms))}
    except PolyParseError:
        return None
    if None in factors.values():
        return None
    exponents = [factor[1] for factor in factors.values() if type(factor) is tuple]
    width = (max(exponents, default=0) * max(map(len, terms))).bit_length() or 1
    if width * (dimension + 2) > _PACKED_BITS:
        return None
    degree = 1 << width * dimension  # the 1 of the degree field
    count = degree << width  # of the count of coefficient factors
    ints, coefficients = {}, {}
    for piece, factor in factors.items():
        if type(factor) is tuple:
            index, exponent = factor
            ints[piece] = exponent * ((1 << width * (index if back else dimension - 1 - index)) + degree)
        else:
            ints[piece], coefficients[piece] = count, factor
    zero = not all(factor["+"] for factor in coefficients.values())  # whether a coefficient factor or a sum is 0
    monomials: Dict[int, Fraction] = {}
    two = 2 * count  # the least total with two coefficient factors
    for sign, pieces, total in zip(signs, terms, map(sum, map(partial(map, ints.__getitem__), terms))):
        if total < count:
            coefficient = _UNIT[sign]
        elif total < two and pieces[0] in coefficients:
            coefficient = coefficients[pieces[0]][sign]
        else:  # the first coefficient factor under the sign, times the others
            coefficient = None
            for factor in filter(None, map(coefficients.get, pieces)):
                coefficient = factor[sign] if coefficient is None else coefficient * factor["+"]
        monomial = total & count - 1
        if monomial in monomials:
            coefficient += monomials[monomial]
            zero = zero or not coefficient
        monomials[monomial] = coefficient
    if zero:
        monomials = {m: c for m, c in monomials.items() if c}
    ordered = list(monomials)
    low = degree - 1
    if graded:
        ordered.sort(key=partial(xor, low) if down else None)
    else:
        ordered.sort(key=partial(and_, low), reverse=down)
    return ordered, monomials, dimension, width, back


def _write_packed(ordered: List[int], monomials: Dict[int, Fraction], dimension: int, width: int, back: bool) -> str:
    """_format_pairs of the packed monomials in the order given, with their
    coefficients.  A monomial's text joins those of its high and its low
    half of fields, in the order of the components, each made once per
    call; so are each distinct coefficient's texts."""
    letters = dimension <= 3
    split = width * (dimension // 2)  # the low half's bits
    below = (1 << split) - 1
    low = (1 << width * dimension) - 1

    def half(value, field):
        """The powers of a half whose first field is field, "*"-joined."""
        factors = []
        while value:  # the highest nonzero field first
            at = (value.bit_length() - 1) // width
            exponent = value >> at * width
            value -= exponent << at * width
            index = field + at if back else dimension - 1 - field - at
            factors.append(_power(index, exponent, letters))
        if back:
            factors.reverse()
        return "*".join(factors)

    highs: Dict[int, str] = {}
    lows: Dict[int, str] = {}
    heads: Dict[int, Tuple[str, str]] = {}  # by id: every coefficient is alive in monomials
    parts = []
    for monomial in ordered:
        coefficient = monomials[monomial]
        texts = heads.get(id(coefficient))
        if texts is None:
            texts = heads[id(coefficient)] = _coefficient_texts(coefficient)
        monomial &= low
        if not monomial:
            parts.append(texts[1])
            continue
        high, rest = monomial >> split, monomial & below
        first = highs.get(high)
        if first is None:
            first = highs[high] = half(high, dimension // 2)
        second = lows.get(rest)
        if second is None:
            second = lows[rest] = half(rest, 0)
        if back:
            first, second = second, first
        parts.append(texts[0] + (f"{first}*{second}" if first and second else first or second))
    return _join_terms(parts)
