"""Binary relations as values, operators on them, and exhaustive property
deciders over explicit finite carriers.

A relation is a pure binary predicate plus a declared reflexivity flag, and
may carry a sort key.  The flag is metadata, not something inferred: it
drives the empty-family base case of the lexicographic comparators, where the
result on two empty families is exactly "is the scalar relation reflexive".
Scalar relations and the orders on families built from them are one type, so
an order on families is again a relation that the comparators, the deciders
and the monomial-order checks take as it is.

Every property, elementary or conjunctive, is decided one way: as a tuple of
conjuncts, decided in order on one table of the relation (_Table), which
asks the relation about each ordered pair of carrier elements at most once,
n^2 calls on an n-element carrier; an elementary property is its own single
conjunct.  The witness is the first counterexample of the definitional loop
over x, y (and z) in carrier order.  Deciders read whole rows, so pairs
after the first witness in a row may be evaluated: a relation must be a
total predicate on the carrier, defined and without side effects on every
pair.  Known instead of asked: lt, le, gt and ge are linear orders on the
ints, so on pairwise-distinct ints their table is an ordered tournament.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, islice, repeat
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

Predicate = Callable[[Any, Any], bool]


@dataclass(frozen=True, init=False)
class Relation:
    """A binary predicate with declared metadata.

    ``declared_reflexive`` is an assertion by the constructor, not a computed
    fact (reflexivity is undecidable over infinite types).  On any finite
    carrier used in tests the flag must agree with the predicate; a violation
    is a test failure, not a runtime error.

    ``key``, when set, compiles the relation to a sort key: for any two
    arguments x, y (families of the same length, for an order on families)
    ``apply(x, y) == (key(x) < key(y))``.  The builders attach one only where
    that holds by construction (strict ``<`` on numbers, structural equality,
    natural-number sums), and there ``apply`` runs on builtins too: one
    tuple comparison, or ``sum``.  The builder's loop, which every other
    scalar relation, equality or monoid runs, stays the definition; the two
    agree on numbers with exact equality, the domain of ``key``.

    ``plan``, derived like ``key`` and set only by the lexicographic builders
    under the strict ``<`` and by their gradings with natural-number sums,
    sorts tuples of numbers by passes: a tuple of ``(key or None, reverse)``,
    each one stable ``list.sort`` in turn, the last pass the most
    significant.  After all passes, families of one length stand in
    ascending ``key`` order, and only equal families are neighbours that the
    passes do not separate.  It is empty wherever ``key`` is None.

    The deciders read each answer of ``apply`` through ``operator.truth``,
    except where ``divides`` on a carrier of ints maps its own expressions.
    """

    apply: Predicate
    declared_reflexive: bool = False
    name: str = ""
    key: Optional[Callable[[Any], Any]] = None
    plan: Tuple[Tuple[Optional[Callable[[Any], Any]], bool], ...] = ()

    # one update of the instance dict, not the frozen __init__'s setattr per field
    def __init__(self, apply, declared_reflexive=False, name="", key=None, plan=()):
        self.__dict__.update(apply=apply, declared_reflexive=declared_reflexive, name=name, key=key, plan=plan)

    def __call__(self, x, y) -> bool:
        return self.apply(x, y)


# Ready-made relations on numbers.
LT = Relation(operator.lt, declared_reflexive=False, name="lt")
LE = Relation(operator.le, declared_reflexive=True, name="le")
GT = Relation(operator.gt, declared_reflexive=False, name="gt")
GE = Relation(operator.ge, declared_reflexive=True, name="ge")


def _divides(a, b) -> bool:
    if a == 0:
        return b == 0
    return b % a == 0


DIVIDES = Relation(_divides, declared_reflexive=True, name="divides")

EMPTY = Relation(lambda x, y: False, declared_reflexive=False, name="empty")


@dataclass(frozen=True)
class Carrier:
    """A finite sequence of pairwise-distinct elements with an explicit
    decidable equality.

    Equality is a supplied function, not assumed structural, so the deciders
    stay generic over user element types.  The elements are stored as a
    tuple; a range under the default equality is distinct without a test,
    and a range is known to hold ints.
    """

    elements: Tuple[Any, ...]
    eq: Predicate = operator.eq
    _ints = False  # not a field: every element is known to have type int

    def __post_init__(self):
        given, elems = self.elements, tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if isinstance(given, range):  # ints, distinct under the default equality
            object.__setattr__(self, "_ints", True)
            if self.eq is operator.eq:
                return
        elif self.eq is operator.eq:
            try:
                if len(set(elems)) == len(elems):
                    return
            except TypeError:  # unhashable elements: fall back to the scan
                pass
        # the pairwise scan decides under a custom eq and names the first duplicate pair
        for i, x in enumerate(elems):
            for y in elems[i + 1 :]:
                if self.eq(x, y):
                    raise ValueError(f"duplicate carrier elements: {x!r}, {y!r}")


def carrier_range(lo: int, hi: int) -> Carrier:
    """Carrier of the integers lo..hi inclusive."""
    return Carrier(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# operators on relations


def converse(r: Relation) -> Relation:
    """Swap the arguments.  Preserves the declared reflexivity flag."""
    return Relation(
        lambda x, y: r.apply(y, x),
        declared_reflexive=r.declared_reflexive,
        name=f"converse({r.name})",
    )


def complementary(r: Relation, *, declared_reflexive: bool) -> Relation:
    """Pointwise negation.

    The reflexivity flag of the result cannot be soundly inferred over
    infinite types, so the caller supplies it.
    """
    return Relation(
        lambda x, y: not r.apply(x, y),
        declared_reflexive=declared_reflexive,
        name=f"complementary({r.name})",
    )


def or_eq(r: Relation, eq: Predicate = operator.eq) -> Relation:
    """Reflexive closure: holds when the arguments are equal or related."""
    return Relation(
        lambda x, y: eq(x, y) or r.apply(x, y),
        declared_reflexive=True,
        name=f"or_eq({r.name})",
    )


def union(r1: Relation, r2: Relation, *, declared_reflexive: bool) -> Relation:
    """Pointwise disjunction; flag supplied by the caller."""
    return Relation(
        lambda x, y: r1.apply(x, y) or r2.apply(x, y),
        declared_reflexive=declared_reflexive,
        name=f"union({r1.name},{r2.name})",
    )


def intersection(r1: Relation, r2: Relation, *, declared_reflexive: bool) -> Relation:
    """Pointwise conjunction; flag supplied by the caller."""
    return Relation(
        lambda x, y: r1.apply(x, y) and r2.apply(x, y),
        declared_reflexive=declared_reflexive,
        name=f"intersection({r1.name},{r2.name})",
    )


# ---------------------------------------------------------------------------
# the relation as a table
#
# Row i of a table holds truth(r(c[i], c[j])) in byte j.  As an int a row is
# a mask with bit j set when c[i] is related to c[j], so quantifying over a
# row is mask arithmetic: the Boolean-matrix view of a relation (Warshall, "A
# theorem on Boolean matrices", JACM 9, 1962).

_truth = operator.truth
_NOT = bytes.maketrans(b"\0\1", b"\1\0")  # complement of a row
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a row as binary digits


# linear orders on the ints, strict or not
_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def _divides_row(x, ys) -> bytearray:
    """_divides(x, y) for each int y: not y % x, or not y where x is 0."""
    if x:
        return bytearray(map(operator.not_, map(operator.mod, ys, repeat(x))))
    return bytearray(map(operator.not_, ys))


def _divided_row(x, ys) -> bytearray:
    """_divides(y, x) for each int y: not x % y, and a row that holds y = 0
    asks _divides of each y instead."""
    ys = tuple(ys)  # read again by the fallback
    try:
        return bytearray(map(operator.not_, map(operator.mod, repeat(x), ys)))
    except ZeroDivisionError:
        return bytearray(map(_divides, ys, repeat(x)))


def _cells(answers) -> bytes:
    """One byte per answer, 1 where the answer is true: the row of a
    relation whose answers may be no bool, each answer read through
    ``operator.truth`` as it comes."""
    return bytes(map(_truth, answers))


class _Table:
    """The relation asked once about every pair of carrier elements.

    The cells are built on first use and kept: one bytearray of n^2 bytes,
    filled row after row so that the build holds each answer once, whose
    strided slices are its columns, and an n-bit mask per row, which the
    transitivity scans read.  Until then ``line`` and ``diagonal`` ask the
    relation as they are read, so that a lone diagonal or pair property
    stops at its first witness.

    ``forward(x, ys)`` makes the bytes of r(x, y) for each y in ``ys``,
    ``backward(x, ys)`` those of r(y, x), by ``_cells``.  On ints
    (``type(x) is int``: no bool, no other number; a range carrier is known
    to hold ints) ``divides`` maps its own expressions over each row, one
    Python call per row, not per pair; lt, le, gt and ge, on ints that are
    also pairwise distinct (a range, or a set of n: a custom eq says nothing
    of ints), are linear orders, known ``ordered`` with no row built."""

    def __init__(self, r: Relation, c: Carrier):
        self.apply = ap = r.apply
        self.elements = els = c.elements
        self.n = n = len(els)
        self.forward = lambda x, ys: _cells(map(ap, repeat(x), ys))
        self.backward = lambda x, ys: _cells(map(ap, ys, repeat(x)))
        if ap is _divides and (c._ints or {*map(type, els)} <= {int}):
            self.forward, self.backward = _divides_row, _divided_row
        elif n and any(ap is p for p in _COMPARISONS) and (c._ints or ({*map(type, els)} <= {int} and len({*els}) == n)):
            self.ordered = True

    @cached_property
    def cells(self) -> bytearray:
        els, n, forward = self.elements, self.n, self.forward
        cells = bytearray(n * n)
        for i, x in enumerate(els):
            cells[i * n : i * n + n] = forward(x, els)
        return cells

    @cached_property
    def masks(self) -> list:
        cells, n = self.cells, self.n
        return [int(cells[i * n : i * n + n][::-1].translate(_DIGITS), 2) for i in range(n)]

    def line(self, i: int, forward: bool, chosen: Optional[bytes] = None) -> bytes:
        """r(x, y) if ``forward``, else r(y, x), for x = c[i] and each y
        after x in carrier order; given ``chosen``, only for each y =
        c[i + 1 + k] with a nonzero byte k in it.  When every y is chosen the
        whole line is read, which is faster than selecting all of it."""
        if chosen is not None and b"\0" not in chosen:
            chosen = None
        if "cells" in self.__dict__:
            n, at = self.n, i * self.n + i
            line = self.cells[at + 1 : at + n - i] if forward else self.cells[at + n :: n]
            return line if chosen is None else bytes(compress(line, chosen))
        ys = self.elements[i + 1 :]
        if chosen is not None:
            ys = compress(ys, chosen)
        return (self.forward if forward else self.backward)(self.elements[i], ys)

    @cached_property
    def ordered(self) -> bool:
        """Whether the table is an ordered tournament, whose relation and
        complement are transitive: r(x, x) one truth value d for every x,
        exactly one of r(x, y) and r(y, x) for every x != y, and row counts
        d, d + 1, ..., n - 1 + d in some order.  A tournament is transitive
        exactly when its scores are 0, 1, ..., n - 1 (J. W. Moon, Topics on
        Tournaments, 1968, ch. 2); a constant diagonal keeps it so, and the
        complement is the converse tournament with the other diagonal.
        Preset where the class docstring says, else tested on the cells."""
        n, cells = self.n, self.cells
        if not n:
            return False
        d = cells[0]
        scores = sorted([cells.count(1, at, at + n) for at in range(0, n * n, n)])
        if scores != list(range(d, n + d)):
            return False
        # the complement of the cells is their transpose off the diagonal
        # and 1 - d on it
        transpose = bytearray().join([cells[j::n] for j in range(n)])
        transpose[:: n + 1] = bytes([1 - d]) * n
        return transpose == cells.translate(_NOT)

    def diagonal(self) -> Iterator:
        """r(x, x) for each x in carrier order, asked as it is read."""
        if "cells" in self.__dict__:
            return iter(self.cells[:: self.n + 1])
        return map(self.apply, self.elements, self.elements)


# ---------------------------------------------------------------------------
# elementary property deciders
#
# Each decider reads a _Table and returns its witness tuple or None.  On the
# empty carrier every universally quantified property holds vacuously.


def _transitive(t: _Table, negated: bool = False) -> Optional[tuple]:
    """First (x, y, z) with r(x, y), r(y, z) and not r(x, z), by one mask
    operation per related pair and no further calls.  Negated, the same scan
    runs on the complemented table and finds the witness of negative
    transitivity: not r(x, y), not r(y, z) and r(x, z).  An ordered
    tournament passes both without the scan."""
    if t.ordered:
        return None
    els, n, masks, cells = t.elements, t.n, t.masks, t.cells
    if negated:
        ones = (1 << n) - 1
        masks, cells = [ones ^ mask for mask in masks], cells.translate(_NOT)
    for i in range(n):
        outside = ~masks[i]
        for j in compress(range(n), cells[i * n : i * n + n]):
            bad = masks[j] & outside  # z with r(y, z) and not r(x, z)
            if bad:  # the first such z is the lowest bit of bad
                return (els[i], els[j], els[(bad & -bad).bit_length() - 1])
    return None


def _diagonal_witness(t: _Table, fails) -> Optional[tuple]:
    """First (x,) whose r(x, x) ``fails`` maps to a true value."""
    for x in compress(t.elements, map(fails, t.diagonal())):
        return (x,)
    return None


def _pair_witness(t: _Table, fails) -> Optional[tuple]:
    """First (x, y) failing a property that is symmetric in x and y.

    Since (y, x) fails whenever (x, y) does, the first failing pair in row
    order has y at or after x, so each x reads y from x onward only.  The
    pair fails when r(x, y) and r(y, x) both equal v, for one entry
    (v, start) of ``fails`` and y at least ``start`` places after x.  At
    y = x both are r(x, x), asked once and only when some entry starts at
    0: carrier elements are pairwise distinct, so x = y only at the same
    position.  For the y after x, each row reads one direction, r(x, y) or
    r(y, x), and asks the other only for the y whose first answer is v.
    Which y fail does not depend on the direction read first, so the next
    row reads first the direction the current one would have asked less
    often: it switches when more than half the y of the row were asked
    twice.  A passing pair property then costs about n(n + 1)/2 calls on an
    n-element carrier whenever one direction settles most pairs, and
    trichotomy, which asks both directions of every pair, n^2.  A table
    known or found ordered reads no row: a tournament relates distinct
    elements one way only, so only its constant diagonal can fail, at the
    first x, whose r(x, x) is the one answer asked."""
    els, n = t.elements, t.n
    on_diagonal = [v for v, start in fails if start == 0]
    if t.__dict__.get("ordered"):
        return (els[0], els[0]) if _truth(next(t.diagonal())) in on_diagonal else None
    diagonal = t.diagonal()
    forward = True
    for i in range(n):
        if on_diagonal and _truth(next(diagonal)) in on_diagonal:
            return (els[i], els[i])
        first = t.line(i, forward)
        found, asked = [], 0
        for v, _ in fails:
            chosen = first if v else first.translate(_NOT)
            if 1 not in chosen:
                continue
            asked += chosen.count(1)
            k = t.line(i, not forward, chosen).find(v)
            if k >= 0:  # the k-th chosen y
                found.append(next(islice(compress(range(i + 1, n), chosen), k, None)))
        if found:
            return (els[i], els[min(found)])
        forward ^= 2 * asked > n - 1 - i
    return None


_PAIR_FAILS = {
    "antisymmetric": ((True, 1),),
    "asymmetric": ((True, 0),),
    "connected": ((False, 1),),
    "strongly_connected": ((False, 0),),
    # exactly one of x = y, r(x, y), r(y, x): asymmetric and connected
    "trichotomous": ((True, 0), (False, 1)),
}

_DECIDERS = {
    "transitive": _transitive,
    "negatively_transitive": partial(_transitive, negated=True),
    "reflexive": partial(_diagonal_witness, fails=operator.not_),
    "irreflexive": partial(_diagonal_witness, fails=_truth),
    **{name: partial(_pair_witness, fails=fails) for name, fails in _PAIR_FAILS.items()},
}


# ---------------------------------------------------------------------------
# conjunctive properties
#
# Deliberately the long, redundant conjunctions; the equivalence lemmas with
# fewer conjuncts are what the test suite then certifies.  Each starts with a
# conjunct that reads the rows, so its pair and diagonal conjuncts read them
# too and the relation is asked at most n^2 times.

CONJUNCTIVE_PARTS = {
    "total_order": (
        "transitive",
        "reflexive",
        "antisymmetric",
        "strongly_connected",
        "negatively_transitive",
        "connected",
    ),
    "strict_total_order": (
        "transitive",
        "irreflexive",
        "asymmetric",
        "connected",
        "negatively_transitive",
        "antisymmetric",
        "trichotomous",
    ),
    "strict_weak_order": (
        "negatively_transitive",
        "irreflexive",
        "asymmetric",
        "transitive",
        "antisymmetric",
    ),
    # Standard conjunctions provided as plumbing (not lemma-anchored).
    "preorder": ("transitive", "reflexive"),
    "partial_order": ("transitive", "reflexive", "antisymmetric"),
}

_PARTS = {**{name: (name,) for name in _DECIDERS}, **CONJUNCTIVE_PARTS}

PROPERTY_NAMES = tuple(_PARTS)


def _conjunctive_witness(parts: Sequence[str], t: _Table) -> Optional[Tuple[str, tuple]]:
    """First failing conjunct, with its counterexample, or None."""
    for part in parts:
        w = _DECIDERS[part](t)
        if w is not None:
            return (part, w)
    return None


def property_witness(name: str, r: Relation, c: Carrier):
    """Uniform lookup used by the CLI: returns None on PASS, otherwise a
    (conjunct_name, counterexample) pair (elementary properties report
    themselves as the conjunct).  KeyError for an unknown name."""
    return _conjunctive_witness(_PARTS[name], _Table(r, c))


def is_transitive(r, c):
    return property_witness("transitive", r, c) is None


def is_negatively_transitive(r, c):
    return property_witness("negatively_transitive", r, c) is None


def is_reflexive(r, c):
    return property_witness("reflexive", r, c) is None


def is_irreflexive(r, c):
    return property_witness("irreflexive", r, c) is None


def is_antisymmetric(r, c):
    return property_witness("antisymmetric", r, c) is None


def is_asymmetric(r, c):
    return property_witness("asymmetric", r, c) is None


def is_connected(r, c):
    return property_witness("connected", r, c) is None


def is_strongly_connected(r, c):
    return property_witness("strongly_connected", r, c) is None


def is_trichotomous(r, c):
    return property_witness("trichotomous", r, c) is None


def is_total_order(r, c):
    return property_witness("total_order", r, c) is None


def is_strict_total_order(r, c):
    return property_witness("strict_total_order", r, c) is None


def is_strict_weak_order(r, c):
    return property_witness("strict_weak_order", r, c) is None
