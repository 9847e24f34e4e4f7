"""Shared helpers for the test suite."""

from functools import cmp_to_key
from itertools import product

from gradedorders import Carrier, Relation


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


def matrix_relation(order, items):
    """Precompute a vector order on a finite set of families as a lookup
    table, so the cubic property deciders stay fast."""
    table = {(a, b): order.apply(a, b) for a in items for b in items}
    return Relation(lambda x, y: table[(x, y)], name=f"table({order.name})")


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
