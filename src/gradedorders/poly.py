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
from itertools import compress, repeat
from operator import attrgetter, eq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .families import Family, IncomparableError, LengthMismatchError, _check_one_length, sort_key, sorted_total
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
        Ints and Fractions are summed as they come, any other number as the
        Fraction it equals, so that every sum is exact."""
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for exponents, coefficient in pairs:
            exponents = tuple(exponents)
            if len(exponents) != dimension:
                raise LengthMismatchError(
                    f"exponent family of length {len(exponents)} in dimension {dimension}"
                )
            if not isinstance(coefficient, (int, Fraction)):
                coefficient = Fraction(coefficient)
            if exponents in acc:
                acc[exponents] += coefficient
            else:
                acc[exponents] = coefficient
        return cls(dimension, {e: c if type(c) is Fraction else Fraction(c) for e, c in acc.items() if c})

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


def _parse_by_term(text: str, dimension: int) -> Optional[SparsePoly]:
    """parse_poly of well-formed text, or None for parse_poly to name the
    fault: a factor that does not match (an empty term too) or one that
    _factor refuses.  Each term goes straight into the polynomial's map, and
    its coefficient is a cached Fraction under its sign unless it has two or
    more coefficient factors, which alone are multiplied."""
    pieces = _SIGN_RE.split(text)
    if len(pieces) > 1 and not pieces[0].strip():
        del pieces[0]  # the optional leading sign
    else:
        pieces.insert(0, "+")
    factors: Dict[str, object] = {}
    terms: Dict[Tuple[int, ...], Fraction] = {}
    zero = False  # whether a coefficient factor or a sum is 0
    try:
        for sign, term in zip(pieces[::2], pieces[1::2]):
            exponents = [0] * dimension
            coefficient = None
            for piece in term.split("*"):
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


def _term(exponents, coefficient) -> Term:
    """Term(exponents, coefficient), without running its checks again on an
    entry that is already what they would make: a tuple and a nonzero
    Fraction, as every canonical polynomial holds."""
    if type(exponents) is not tuple or type(coefficient) is not Fraction or not coefficient:
        return Term(exponents, coefficient)
    term = object.__new__(Term)
    object.__setattr__(term, "exponents", exponents)
    object.__setattr__(term, "coefficient", coefficient)
    return term


def sort_terms(p: SparsePoly, order: Relation) -> List[Term]:
    """Terms in ascending order under a strict total vector order; raises
    IncomparableError when the order ties two of the exponents."""
    terms = p.terms
    return [_term(e, terms[e]) for e in sorted_total(terms, order)]


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
        return _term(exponents[0], p.terms[exponents[0]])
    keys = list(map(sort_key(order), exponents))
    top = keys.index(max(keys))
    if keys.count(keys[top]) > 1:
        raise IncomparableError(exponents[top], exponents[keys.index(keys[top], top + 1)])
    return _term(exponents[top], p.terms[exponents[top]])


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
    return SparsePoly.from_pairs(
        p.dimension,
        ((tuple(e + g for e, g in zip(exponents, gamma)), c) for exponents, c in p.terms.items()),
    )


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
                    name = "XYZ"[index] if letters else f"X{index}"
                    text = powers[index, exponent] = name if exponent == 1 else f"{name}^{exponent}"
                factors.append(text)
        n, q = coefficient.as_integer_ratio()
        if q != 1:
            factors.insert(0, f"{abs(n)}/{q}")
        elif abs(n) != 1 or not factors:
            factors.insert(0, str(abs(n)))
        parts.append(("+ " if n > 0 else "- ") + "*".join(factors))
    if not parts:
        return "0"
    line = " ".join(parts)
    return line[2:] if line[0] == "+" else "-" + line[2:]
