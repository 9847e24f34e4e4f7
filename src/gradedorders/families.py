"""Fixed-length families and the four lexicographic comparators.

Families are plain tuples.  An order on families is a Relation whose
arguments are two families of the same length; mismatched lengths are a
usage error and raise, never silently return False.  Each builder declares
the reflexivity its own definition gives on two equal families.

All four comparators share one base case: on two empty families the result is
the declared reflexivity of the scalar relation.  This is what lets a single
definition cover both strict and nonstrict scalar orders (lex(le) on equal
families is True, lex(lt) is False).

One builder makes the four comparators from the (down, back) flags of
SCHEMES: it scans for the first differing index (the last when back) and
consults the scalar relation there, with the arguments swapped when down.
The literal structural recursion is kept as a test oracle in the test suite.
Under the strict ``<`` with structural equality the scan is one tuple
comparison (Python compares tuples by ``<`` at the first index where ``==``
fails) of the families reversed when back and swapped when down.  The same
flags give each comparator a sort plan of one pass: the family, reversed
when back, sorted descending when down.  sorted_total runs a plan's passes
as stable sorts, so that the grading of a plan is one more pass by the sum.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key
from itertools import compress, count, islice, pairwise
from operator import itemgetter, neg
from typing import Any, Callable, Iterable, List, Sequence, Tuple

from .relations import Predicate, Relation, converse, or_eq

Family = Tuple[Any, ...]

# The four lexicographic orders, named by their slice scheme, as two flags
# (down, back).  Down swaps the arguments of the comparison (symlex, revlex);
# back decides at the last differing index rather than the first (colex,
# revlex).  The comparators and their sort keys below, and the slice walk of
# multi_index, read these flags.
SCHEMES = {
    "lex": (False, False),
    "colex": (False, True),
    "symlex": (True, False),
    "revlex": (True, True),
}


class LengthMismatchError(ValueError):
    """Two families of different lengths were compared."""


class EmptyFamilyError(ValueError):
    """Head/tail/init/last was taken on an empty family."""


class IncomparableError(ValueError):
    """A sort met two distinct families that the order does not separate."""

    def __init__(self, x: Family, y: Family):
        super().__init__(f"the order does not separate {x} and {y}")
        self.pair = (x, y)


def check_same_length(x: Sequence, y: Sequence) -> None:
    if len(x) != len(y):
        raise LengthMismatchError(f"family lengths differ: {len(x)} vs {len(y)}")


def head(a: Family):
    if not a:
        raise EmptyFamilyError("head of empty family")
    return a[0]


def tail(a: Family) -> Family:
    if not a:
        raise EmptyFamilyError("tail of empty family")
    return tuple(a[1:])


def init(a: Family) -> Family:
    if not a:
        raise EmptyFamilyError("init of empty family")
    return tuple(a[:-1])


def last(a: Family):
    if not a:
        raise EmptyFamilyError("last of empty family")
    return a[-1]


def reverse_family(a: Family) -> Family:
    return tuple(reversed(a))


# An order on families is a Relation; the name is kept for callers.
VectorRelation = Relation


def sort_key(order: Relation) -> Callable[[Family], Any]:
    """Key for sorted/max under a strict vector order: the compiled key, or
    else a comparator that calls ``apply`` both ways."""
    if order.key is not None:
        return order.key

    def compare(x: Family, y: Family) -> int:
        if order.apply(x, y):
            return -1
        if order.apply(y, x):
            return 1
        return 0

    return cmp_to_key(compare)


def _check_one_length(items: Sequence[Family]) -> None:
    """LengthMismatchError naming the first family whose length differs from
    the first family's."""
    if len(set(map(len, items))) > 1:
        for y in items:
            check_same_length(items[0], y)


def sorted_total(items: Iterable[Family], order: Relation) -> List[Family]:
    """Families ascending under a strict total order.

    Raises IncomparableError naming the first two neighbours of the result
    that the order does not separate, which a total order never gives two
    distinct families, and LengthMismatchError on families of two lengths.
    Tuples sort by the order's plan (see Relation) when it has one, where
    only equal families tie; else by its key, computed once per family, or
    by its comparator."""
    items = list(items)
    _check_one_length(items)
    if order.plan and set(map(type, items)) == {tuple}:
        for key, reverse in order.plan:
            items.sort(key=key, reverse=reverse)
        for i in compress(count(), map(operator.eq, items, islice(items, 1, None))):
            raise IncomparableError(items[i], items[i + 1])
        return items
    key = sort_key(order)
    keyed = [(key(x), x) for x in items]
    keyed.sort(key=itemgetter(0))
    for (kx, x), (ky, y) in pairwise(keyed):
        if kx == ky:
            raise IncomparableError(x, y)
    return [item for _, item in keyed]


def is_strict_less(r: Relation, eq: Predicate = operator.eq) -> bool:
    """True when r is the strict ``<`` and equality is structural, the case
    in which the lexicographic comparators reduce to tuple comparison."""
    return r.apply is operator.lt and not r.declared_reflexive and eq is operator.eq


def _lexicographic(name: str, r: Relation, eq: Predicate) -> Relation:
    """The lexicographic order of SCHEMES[name] over r: r decides at the
    first index (the last when back) where the items differ under eq, with
    the arguments swapped when down; if no index differs the result is the
    declared reflexivity of r.  Under the strict ``<`` that scan is one
    tuple comparison, the key is the family, reversed when back and negated
    when down, and the plan one pass by the family, reversed when back and
    descending when down."""
    down, back = SCHEMES[name]
    rapply = r.apply
    base = r.declared_reflexive

    def apply(x: Family, y: Family) -> bool:
        check_same_length(x, y)
        if down:
            x, y = y, x
        for i in range(len(x) - 1, -1, -1) if back else range(len(x)):
            if not eq(x[i], y[i]):
                return rapply(x[i], y[i])
        return base

    key, plan = None, ()
    if is_strict_less(r, eq):
        # the loop above as one tuple comparison, for numbers with exact equality
        def apply(x: Family, y: Family) -> bool:
            if len(x) != len(y):
                check_same_length(x, y)
            if down:
                x, y = y, x
            if back:
                return tuple(x)[::-1] < tuple(y)[::-1]
            return tuple(x) < tuple(y)

        # every key is a tuple, so that a list's key and a tuple's compare
        if down:
            key = (lambda a: tuple(map(neg, reversed(a)))) if back else (lambda a: tuple(map(neg, a)))
        else:
            key = (lambda a: tuple(a[::-1])) if back else tuple
        plan = ((itemgetter(slice(None, None, -1)) if back else None, down),)
    return Relation(apply, declared_reflexive=base, name=f"{name}({r.name})", key=key, plan=plan)


def lex(r: Relation, eq: Predicate = operator.eq) -> Relation:
    """Lexicographic extension of a scalar relation: it decides at the first
    index where the items differ under eq."""
    return _lexicographic("lex", r, eq)


def colex(r: Relation, eq: Predicate = operator.eq) -> Relation:
    """Colexicographic order: the last differing index decides.  Extensionally
    equal to reverse_rel(lex(r))."""
    return _lexicographic("colex", r, eq)


def symlex(r: Relation, eq: Predicate = operator.eq) -> Relation:
    """Argument-swapped lex: symlex(r)(x, y) iff lex(r)(y, x)."""
    return _lexicographic("symlex", r, eq)


def revlex(r: Relation, eq: Predicate = operator.eq) -> Relation:
    """Argument-swapped colex: revlex(r)(x, y) iff colex(r)(y, x)."""
    return _lexicographic("revlex", r, eq)


def reverse_rel(rn: Relation) -> Relation:
    """Apply a vector relation to the reversed families."""

    def apply(x: Family, y: Family) -> bool:
        check_same_length(x, y)
        return rn.apply(reverse_family(x), reverse_family(y))

    return Relation(apply, declared_reflexive=rn.declared_reflexive, name=f"reverse({rn.name})")


# Swap the arguments of a vector relation: the scalar converse, which keeps
# the declared reflexivity.
converse_rel = converse


def _same_family(x: Family, y: Family) -> bool:
    check_same_length(x, y)
    return tuple(x) == tuple(y)


def or_eq_rel(rn: Relation) -> Relation:
    """Reflexive closure of a vector relation (componentwise equality)."""
    return or_eq(rn, _same_family)
