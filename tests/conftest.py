"""Shared helpers for the test suite."""

import re
from functools import cmp_to_key
from itertools import product

from gradedorders import Carrier, PolyParseError, Relation


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


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


def reference_columns(order_name, d):
    """The matrix columns of the named orders as five hand-written branches:
    the definition that weighted._candidate_columns derives from the flags."""
    ones = (1,) * d
    if order_name == "lex":
        return [_unit(d, i) for i in range(d)]
    if order_name == "grlex":
        return [ones] + [_unit(d, i) for i in range(d - 1)]
    if order_name == "grcolex":
        return [ones] + [_unit(d, i) for i in range(d - 1, 0, -1)]
    if order_name == "grsymlex":
        return [ones] + [_unit(d, i, -1) for i in range(d - 1)]
    if order_name == "grevlex":
        return [ones] + [_unit(d, i, -1) for i in range(d - 1, 0, -1)]
    raise ValueError(f"unknown order name {order_name!r}")
