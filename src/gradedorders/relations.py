"""Binary relations as values, operators on them, and brute-force property
deciders over explicit finite carriers.

A relation is a pure binary predicate plus a declared reflexivity flag.  The
flag is metadata, not something inferred: it drives the empty-family base case
of the lexicographic comparators, where the result on two empty families is
exactly "is the scalar relation reflexive".

Property deciders are naive O(|C|^3) loops.  Carriers are meant to stay small
(size <= 6 by convention); at that scale checking all 512 relations on a
3-element carrier against a lemma takes milliseconds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

Predicate = Callable[[Any, Any], bool]


@dataclass(frozen=True)
class Relation:
    """A binary predicate with declared metadata.

    ``declared_reflexive`` is an assertion by the constructor, not a computed
    fact (reflexivity is undecidable over infinite types).  On any finite
    carrier used in tests the flag must agree with the predicate; a violation
    is a test failure, not a runtime error.
    """

    apply: Predicate
    declared_reflexive: bool = False
    name: str = ""

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
    stay generic over user element types.
    """

    elements: Tuple[Any, ...]
    eq: Predicate = operator.eq

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        elems = self.elements
        if self.eq is operator.eq:
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
    return Carrier(tuple(range(lo, hi + 1)))


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
# elementary property deciders
#
# Each decider has a *_witness companion returning the first counterexample
# tuple, or None.  On the empty carrier every universally quantified property
# holds vacuously.


def transitive_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    ap = r.apply
    for x in c.elements:
        for y in c.elements:
            if ap(x, y):
                for z in c.elements:
                    if ap(y, z) and not ap(x, z):
                        return (x, y, z)
    return None


def negatively_transitive_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    ap = r.apply
    for x in c.elements:
        for y in c.elements:
            if not ap(x, y):
                for z in c.elements:
                    if not ap(y, z) and ap(x, z):
                        return (x, y, z)
    return None


def reflexive_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        if not r.apply(x, x):
            return (x,)
    return None


def irreflexive_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        if r.apply(x, x):
            return (x,)
    return None


def antisymmetric_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        for y in c.elements:
            if r.apply(x, y) and r.apply(y, x) and not c.eq(x, y):
                return (x, y)
    return None


def asymmetric_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        for y in c.elements:
            if r.apply(x, y) and r.apply(y, x):
                return (x, y)
    return None


def connected_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        for y in c.elements:
            if not c.eq(x, y) and not r.apply(x, y) and not r.apply(y, x):
                return (x, y)
    return None


def strongly_connected_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    for x in c.elements:
        for y in c.elements:
            if not r.apply(x, y) and not r.apply(y, x):
                return (x, y)
    return None


def trichotomous_witness(r: Relation, c: Carrier) -> Optional[tuple]:
    # Exactly the three-way exclusive disjunction, case by case.
    for x in c.elements:
        for y in c.elements:
            xy = r.apply(x, y)
            yx = r.apply(y, x)
            eq = c.eq(x, y)
            if (eq and not xy and not yx) or (not eq and xy and not yx) or (not eq and yx and not xy):
                continue
            return (x, y)
    return None


ELEMENTARY_WITNESSES = {
    "transitive": transitive_witness,
    "negatively_transitive": negatively_transitive_witness,
    "reflexive": reflexive_witness,
    "irreflexive": irreflexive_witness,
    "antisymmetric": antisymmetric_witness,
    "asymmetric": asymmetric_witness,
    "connected": connected_witness,
    "strongly_connected": strongly_connected_witness,
    "trichotomous": trichotomous_witness,
}


def is_transitive(r, c):
    return transitive_witness(r, c) is None


def is_negatively_transitive(r, c):
    return negatively_transitive_witness(r, c) is None


def is_reflexive(r, c):
    return reflexive_witness(r, c) is None


def is_irreflexive(r, c):
    return irreflexive_witness(r, c) is None


def is_antisymmetric(r, c):
    return antisymmetric_witness(r, c) is None


def is_asymmetric(r, c):
    return asymmetric_witness(r, c) is None


def is_connected(r, c):
    return connected_witness(r, c) is None


def is_strongly_connected(r, c):
    return strongly_connected_witness(r, c) is None


def is_trichotomous(r, c):
    return trichotomous_witness(r, c) is None


# ---------------------------------------------------------------------------
# conjunctive properties
#
# Deliberately the long, redundant conjunctions; the equivalence lemmas with
# fewer conjuncts are what the test suite then certifies.

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


def conjunctive_witness(name: str, r: Relation, c: Carrier) -> Optional[Tuple[str, tuple]]:
    """First failing conjunct of a named conjunctive property, with its
    counterexample, or None when the property holds."""
    for part in CONJUNCTIVE_PARTS[name]:
        w = ELEMENTARY_WITNESSES[part](r, c)
        if w is not None:
            return (part, w)
    return None


def is_total_order(r, c):
    return conjunctive_witness("total_order", r, c) is None


def is_strict_total_order(r, c):
    return conjunctive_witness("strict_total_order", r, c) is None


def is_strict_weak_order(r, c):
    return conjunctive_witness("strict_weak_order", r, c) is None


def property_witness(name: str, r: Relation, c: Carrier):
    """Uniform lookup used by the CLI: returns None on PASS, otherwise a
    (conjunct_name, counterexample) pair (elementary properties report
    themselves as the conjunct)."""
    if name in ELEMENTARY_WITNESSES:
        w = ELEMENTARY_WITNESSES[name](r, c)
        return None if w is None else (name, w)
    if name in CONJUNCTIVE_PARTS:
        return conjunctive_witness(name, r, c)
    raise KeyError(name)


PROPERTY_NAMES = tuple(ELEMENTARY_WITNESSES) + tuple(CONJUNCTIVE_PARTS)
