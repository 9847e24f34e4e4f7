"""Shared helpers for the test suite."""

import functools
import importlib.util
import operator
import re
import statistics
import sys
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import product, repeat
from pathlib import Path

from gradedorders import Carrier, LengthMismatchError, PolyParseError, Relation, SparsePoly


# the benchmark's clock, read from its own file
_spec = importlib.util.spec_from_file_location("reference", Path(__file__).parents[1] / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def budget(seconds, name):
    """Time the test and assert it ran within seconds at the benchmark's
    nominal speed: its wall time scaled by NOMINAL_NS over the median time
    of the reference work run just before and after it."""

    def decorate(test):
        @functools.wraps(test)
        def timed(*args, **kwargs):
            references = [reference.reference_ns() for _ in range(5)]
            started = time.perf_counter()
            test(*args, **kwargs)
            elapsed = time.perf_counter() - started
            references += [reference.reference_ns() for _ in range(5)]
            nominal = elapsed * reference.NOMINAL_NS / statistics.median(references)
            assert nominal < seconds, f"{name}: {nominal:.2f}s nominal ({elapsed:.2f}s measured), budget {seconds}s"
            print(f"PASS {name} ({elapsed:.2f}s measured, {nominal:.2f}s nominal)")

        return timed

    return decorate


def box(d, bound):
    """All integer families in [0..bound]^d."""
    return list(product(range(bound + 1), repeat=d))


def sort_under(order, items):
    """Sort with an arbitrary strict total vector order."""

    def compare(a, b):
        if order.apply(a, b):
            return -1
        if order.apply(b, a):
            return 1
        return 0

    return sorted(items, key=cmp_to_key(compare))


def relation_from_pairs(pairs):
    pairs = frozenset(pairs)
    return Relation(lambda x, y: (x, y) in pairs, name=f"pairs{sorted(pairs)}")


def all_relations(elements):
    """Every binary relation on a small carrier, as pair sets."""
    elements = tuple(elements)
    all_pairs = [(x, y) for x in elements for y in elements]
    for mask in range(1 << len(all_pairs)):
        yield frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1)


# the failing y of each pair property, from the masks of r(x, y), of r(y, x)
# and of all y from x onward; bit 0 is y = x
REFERENCE_PAIR_FAILS = {
    "antisymmetric": lambda xy, yx, ones: xy & yx & ~1,
    "asymmetric": lambda xy, yx, ones: xy & yx,
    "connected": lambda xy, yx, ones: (ones ^ (xy | yx)) & ~1,
    "strongly_connected": lambda xy, yx, ones: ones ^ (xy | yx),
    # exactly one of x = y, r(x, y), r(y, x)
    "trichotomous": lambda xy, yx, ones: ((ones ^ xy ^ yx) & ~1) | ((xy | yx) & 1),
}


def _reference_mask(answers):
    return int.from_bytes(bytes(map(operator.truth, answers)), "little")


def reference_pair_witness(name, r, c):
    """The first failing (x, y) of a pair property from whole rows of r(x, y)
    and r(y, x) for y from x onward, each answer through operator.truth, and
    a mask of the failing y: the scan that asks r(y, x) only where r(x, y)
    leaves the pair open replaces."""
    fails, ap, els = REFERENCE_PAIR_FAILS[name], r.apply, c.elements
    ones = _reference_mask([1] * len(els))
    for i, x in enumerate(els):
        xy = _reference_mask(map(ap, repeat(x), els[i:]))
        yx = (xy & 1) | _reference_mask(map(ap, els[i + 1 :], repeat(x))) << 8
        bad = fails(xy, yx, ones >> 8 * i)
        if bad:
            return (x, els[i + (((bad & -bad).bit_length() - 1) >> 3)])
    return None


def family_carrier(items):
    return Carrier(tuple(items))


def reference_slice(d, l, scheme):
    """The slice (d, l) by the three-branch recursion that once implemented
    the lex, colex and symlex schemes: the definition the slice walk
    replaces."""
    if d == 1:
        yield (l,)
        return
    if scheme == "lex":
        for i in range(l + 1):
            for rest in reference_slice(d - 1, l - i, scheme):
                yield (i,) + rest
    elif scheme == "colex":
        for i in range(l + 1):
            for rest in reference_slice(d - 1, l - i, scheme):
                yield rest + (i,)
    else:  # symlex: first component decreasing from l
        for i in range(l + 1):
            for rest in reference_slice(d - 1, i, scheme):
                yield (l - i,) + rest


_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\s*/\s*\d+)?)
      | (?P<var>X\d+|[XYZ])
      | (?P<op>[\^*+-])
    """,
    re.VERBOSE,
)


def reference_tokenize(text):
    """The polynomial tokens by one anchored match per token, stopping at the
    first character that starts none: the loop that the one-scan tokenizer
    replaces."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


def _reference_int(digits, pos):
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"number of more than {sys.get_int_max_str_digits()} digits", pos) from None


def _reference_term(tokens, i, d):
    exponents = [0] * d
    coefficient = 1
    while True:
        if i >= len(tokens):
            raise PolyParseError("expected a coefficient or a variable", tokens[-1][2] if tokens else 0)
        kind, value, pos = tokens[i]
        if kind == "number":
            numerator, slash, denominator = value.partition("/")
            if slash:
                denominator = _reference_int(denominator, pos)
                if denominator == 0:
                    raise PolyParseError("zero denominator", pos)
                coefficient *= Fraction(_reference_int(numerator, pos), denominator)
            else:
                coefficient *= _reference_int(numerator, pos)
            i += 1
        elif kind == "var":
            if value in "XYZ":
                if d > 3:
                    raise PolyParseError(f"alias {value!r} is only available for dimension <= 3", pos)
                index = "XYZ".index(value)
            else:
                index = _reference_int(value[1:], pos)
            if index >= d:
                raise PolyParseError(f"variable X{index} exceeds declared dimension {d}", pos)
            exponent = 1
            i += 1
            if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "number" or "/" in tokens[i][1]:
                    bad = tokens[i] if i < len(tokens) else (None, "end of input", pos)
                    raise PolyParseError(f"expected a natural exponent, got {bad[1]!r}", bad[2])
                exponent = _reference_int(tokens[i][1], tokens[i][2])
                i += 1
            exponents[index] += exponent
        else:
            raise PolyParseError(f"expected a coefficient or a variable, got {value!r}", pos)
        if i < len(tokens) and tokens[i][:2] == ("op", "*"):
            i += 1
            continue
        return i, tuple(exponents), coefficient


def reference_parse_poly(text, d):
    """The polynomial by the tokenizer parse alone, token after token: the
    parse that the term-by-term fast path defers to on every fault."""
    tokens = reference_tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    pairs = []
    i = 0
    sign = 1
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1 if tokens[0][1] == "-" else 1
        i = 1
    while True:
        i, exponents, coefficient = _reference_term(tokens, i, d)
        pairs.append((exponents, sign * coefficient))
        if i == len(tokens):
            return SparsePoly.from_pairs(d, pairs)
        kind, value, pos = tokens[i]
        if kind != "op" or value not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {value!r}", pos)
        sign = -1 if value == "-" else 1
        i += 1


def reference_from_pairs(dimension, pairs):
    """The terms of SparsePoly.from_pairs with every coefficient made a
    Fraction before it is summed and zeros dropped in a second pass: the
    body that the one-pass sum replaces."""
    acc = {}
    for exponents, coefficient in pairs:
        exponents = tuple(exponents)
        if len(exponents) != dimension:
            raise LengthMismatchError(f"exponent family of length {len(exponents)} in dimension {dimension}")
        if exponents in acc:
            acc[exponents] += Fraction(coefficient)
        else:
            acc[exponents] = Fraction(coefficient)
    return {e: c for e, c in acc.items() if c != 0}


def reference_format_term(term, dimension, alias=None):
    """The unsigned term written factor by factor with Fraction arithmetic:
    the term writer that format_term's call of format_poly replaces."""
    if alias is None:
        alias = dimension <= 3
    factors = []
    for index, exponent in enumerate(term.exponents):
        if exponent == 0:
            continue
        name = "XYZ"[index] if alias and dimension <= 3 else f"X{index}"
        factors.append(name if exponent == 1 else f"{name}^{exponent}")
    magnitude = abs(term.coefficient)
    if not factors:
        return str(magnitude)
    if magnitude == 1:
        return "*".join(factors)
    return "*".join([str(magnitude)] + factors)


def reference_format_poly(terms, dimension, alias=None):
    """The polynomial joined term by term from reference_format_term: the
    joiner that format_poly's per-call factor table replaces."""
    if not terms:
        return "0"
    parts = []
    for i, term in enumerate(terms):
        body = reference_format_term(term, dimension, alias)
        if i == 0:
            parts.append(body if term.coefficient > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if term.coefficient > 0 else '-'} {body}")
    return " ".join(parts)


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


def reference_columns(order_name, d):
    """The matrix columns of the named orders as eight hand-written branches:
    the definition that weighted.matrix_for derives from the flags."""
    ones = (1,) * d
    if order_name == "lex":
        return [_unit(d, i) for i in range(d)]
    if order_name == "colex":
        return [_unit(d, i) for i in range(d - 1, -1, -1)]
    if order_name == "symlex":
        return [_unit(d, i, -1) for i in range(d)]
    if order_name == "revlex":
        return [_unit(d, i, -1) for i in range(d - 1, -1, -1)]
    if order_name == "grlex":
        return [ones] + [_unit(d, i) for i in range(d - 1)]
    if order_name == "grcolex":
        return [ones] + [_unit(d, i) for i in range(d - 1, 0, -1)]
    if order_name == "grsymlex":
        return [ones] + [_unit(d, i, -1) for i in range(d - 1)]
    if order_name == "grevlex":
        return [ones] + [_unit(d, i, -1) for i in range(d - 1, 0, -1)]
    raise ValueError(f"unknown order name {order_name!r}")
