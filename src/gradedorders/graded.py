"""Abelian-monoid sums, the grading operator, the four graded orders, and the
monomial-order property checks.

Grading turns a scalar relation (comparing family sums) and a vector relation
(breaking ties) into a new vector relation: sums are compared first, equal
sums fall through to the vector relation.  The four graded orders are the
gradings of lex/colex/symlex/revlex with the same scalar relation, and
NAMED_ORDERS lists all eight named orders by slice scheme and grading bit.

Five recursive forms are provided as independent variants, all from one
recursion over the (down, back) flags of SCHEMES: the inlined grlex, grcolex
and grsymlex recursions, which compare components after the sums, and the
simplified grsymlex and grevlex recursions, which compare only sums.  They
agree with the graded compositions, strict and nonstrict, whenever the scalar
relation is a monomial order and the monoid is right-cancellative, and the
test suite checks exactly that.  They take families of any length.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, repeat
from typing import Any, Callable

from . import families
from .families import Family, check_same_length, is_strict_less
from .relations import (
    CONJUNCTIVE_PARTS,
    Carrier,
    Predicate,
    Relation,
    _conjunctive_witness,
    _Table,
)


@dataclass(frozen=True)
class Monoid:
    """Identity element plus an associative-commutative operation with a
    decidable equality.  Associativity/commutativity/neutrality are checked
    exhaustively on test carriers, not here."""

    identity: Any
    op: Callable[[Any, Any], Any]
    eq: Predicate = operator.eq
    name: str = ""


NAT_ADD = Monoid(0, operator.add, name="nat+")


def family_sum(a: Family, monoid: Monoid = NAT_ADD):
    """Left fold of the monoid operation; empty family gives the identity."""
    return reduce(monoid.op, a, monoid.identity)


def family_add(x: Family, y: Family, monoid: Monoid = NAT_ADD) -> Family:
    """Componentwise monoid operation (the monoid structure on G^n)."""
    check_same_length(x, y)
    return tuple(map(monoid.op, x, y))


def graded(scalar: Relation, vector: Relation, monoid: Monoid = NAT_ADD) -> Relation:
    """Compare family sums with the scalar relation; on equal sums defer to
    the vector relation.

    When the scalar relation is the strict ``<`` and the sums are
    natural-number sums, ``apply`` compares ``sum(x)`` with ``sum(y)``, and
    the result has the key (sum, vector key) if the vector relation has a
    key; then a plan of the vector relation gains a last pass by the sum."""
    op, identity, same = monoid.op, monoid.identity, monoid.eq
    vector_apply, scalar_apply = vector.apply, scalar.apply

    def apply(x: Family, y: Family) -> bool:
        if len(x) != len(y):
            check_same_length(x, y)
        # the fold of family_sum
        sx = reduce(op, x, identity)
        sy = reduce(op, y, identity)
        if same(sx, sy):
            return vector_apply(x, y)
        return scalar_apply(sx, sy)

    key, plan = None, ()
    vector_key = vector.key
    if monoid is NAT_ADD and is_strict_less(scalar):

        def apply(x: Family, y: Family) -> bool:
            if len(x) != len(y):
                check_same_length(x, y)
            sx, sy = sum(x), sum(y)
            if sx == sy:
                return vector_apply(x, y)
            return sx < sy

        if vector_key is not None:

            def key(a: Family):
                return (sum(a), vector_key(a))

            if vector.plan:
                plan = vector.plan + ((sum, False),)

    name = f"graded({scalar.name},{vector.name})"
    return Relation(apply, declared_reflexive=vector.declared_reflexive, name=name, key=key, plan=plan)


# name -> (slice scheme, graded): the eight named orders are the four
# lexicographic orders of families.SCHEMES and their gradings.  Each name is
# spelled out, since "gr" + "revlex" is "grrevlex", not "grevlex".
NAMED_ORDERS = {
    "lex": ("lex", False),
    "colex": ("colex", False),
    "symlex": ("symlex", False),
    "revlex": ("revlex", False),
    "grlex": ("lex", True),
    "grcolex": ("colex", True),
    "grsymlex": ("symlex", True),
    "grevlex": ("revlex", True),
}


def _grade(name: str, r: Relation, monoid: Monoid, eq: Predicate) -> Relation:
    """The graded order `name`: r on the sums, then its scheme's builder on families."""
    v = graded(r, getattr(families, NAMED_ORDERS[name][0])(r, eq), monoid)
    return replace(v, name=f"{name}({r.name})")


def grlex(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    return _grade("grlex", r, monoid, eq)


def grcolex(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    return _grade("grcolex", r, monoid, eq)


def grsymlex(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    return _grade("grsymlex", r, monoid, eq)


def grevlex(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    return _grade("grevlex", r, monoid, eq)


def named_builder(name: str) -> Callable[..., Relation]:
    """The builder of a named order (KeyError for an unknown name).  It is
    looked up on its module at each call, so a builder replaced there after
    import is the one returned."""
    return globals()[name] if NAMED_ORDERS[name][1] else getattr(families, name)


# ---------------------------------------------------------------------------
# recursive variants, for cross-checking against the graded compositions


def _graded_rec(
    name: str, scheme: str, by_sums: bool, r: Relation, monoid: Monoid, eq: Predicate
) -> Relation:
    """The recursion of a graded order over the (down, back) flags of
    SCHEMES[scheme]: differing sums decide with r.  Unless by_sums, the
    component at index 0 (-1 when back) decides next, with r and the
    arguments swapped when down, if it differs under eq.  The family without
    that index is then compared the same way while its length is at least 2;
    otherwise the result is the declared reflexivity of r."""
    down, back = families.SCHEMES[scheme]
    i = -1 if back else 0
    rest = slice(None, -1) if back else slice(1, None)
    base = r.declared_reflexive

    def apply(x: Family, y: Family) -> bool:
        check_same_length(x, y)
        while True:
            sx = family_sum(x, monoid)
            sy = family_sum(y, monoid)
            if not monoid.eq(sx, sy):
                return r.apply(sx, sy)
            if x and not by_sums and not eq(x[i], y[i]):
                return r.apply(y[i], x[i]) if down else r.apply(x[i], y[i])
            if len(x) < 2:
                return base
            x, y = x[rest], y[rest]

    return Relation(apply, declared_reflexive=base, name=f"{name}({r.name})")


def grlex_rec(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    """Inlined recursion for grlex: compare sums, then the first components,
    then recurse on the tails."""
    return _graded_rec("grlex_rec", "lex", False, r, monoid, eq)


def grcolex_rec(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    """Inlined recursion for grcolex: compare sums, then the last components,
    then recurse on the initial segments."""
    return _graded_rec("grcolex_rec", "colex", False, r, monoid, eq)


def grsymlex_full_rec(r: Relation, monoid: Monoid = NAT_ADD, eq: Predicate = operator.eq) -> Relation:
    """Unsimplified recursion for grsymlex: on equal sums, differing first
    components are decided by the scalar relation with swapped arguments,
    equal first components recurse on the tails."""
    return _graded_rec("grsymlex_full_rec", "symlex", False, r, monoid, eq)


def grsymlex_rec(r: Relation, monoid: Monoid = NAT_ADD) -> Relation:
    """Simplified recursion for grsymlex: compare sums, on equal sums drop the
    first component and recurse."""
    return _graded_rec("grsymlex_rec", "symlex", True, r, monoid, operator.eq)


def grevlex_rec(r: Relation, monoid: Monoid = NAT_ADD) -> Relation:
    """Simplified recursion for grevlex: as grsymlex_rec but dropping the
    last component."""
    return _graded_rec("grevlex_rec", "revlex", True, r, monoid, operator.eq)


# ---------------------------------------------------------------------------
# monomial-order property checks over finite carriers


def is_plus_compat_r(r: Relation, monoid: Monoid, c: Carrier) -> bool:
    """Right compatibility with the monoid operation: related elements stay
    related after adding the same element on the right."""
    return plus_compat_r_witness(r, monoid, c) is None


def plus_compat_r_witness(r: Relation, monoid: Monoid, c: Carrier):
    return _plus_compat_r_witness(_Table(r, c), r, monoid)


def _plus_compat_r_witness(t: _Table, r: Relation, monoid: Monoid):
    """First (x, x1, x2) with r(x1, x2) and not r(x1 + x, x2 + x), reading
    r(x1, x2) from the table and adding each element to x once."""
    els, ap, op = t.elements, r.apply, monoid.op
    for x in els:
        sums = [op(y, x) for y in els]
        for x1, s1, row in zip(els, sums, t.rows):
            # r(s1, s2) for the x2 related to x1, asked up to the first False
            kept = map(ap, repeat(s1), compress(sums, row))
            for x2 in compress(compress(els, row), map(operator.not_, kept)):
                return (x, x1, x2)
    return None


def is_plus_reg_r(monoid: Monoid, c: Carrier) -> bool:
    """Right cancellation: equal sums with the same right addend force equal
    left addends."""
    els, op, eq = c.elements, monoid.op, monoid.eq
    for x in els:
        sums = [op(y, x) for y in els]
        for s1, x1 in zip(sums, els):
            for s2, x2 in zip(sums, els):
                if eq(s1, s2) and not eq(x1, x2):
                    return False
    return True


def _is_monomial(order: str, r: Relation, monoid: Monoid, c: Carrier) -> bool:
    t = _Table(r, c)
    return (
        _conjunctive_witness(CONJUNCTIVE_PARTS[order], t) is None
        and _plus_compat_r_witness(t, r, monoid) is None
    )


def is_monomial_order(r: Relation, monoid: Monoid, c: Carrier) -> bool:
    """Strict total order conjoined with right plus-compatibility."""
    return _is_monomial("strict_total_order", r, monoid, c)


def is_monomial_nonstrict_order(r: Relation, monoid: Monoid, c: Carrier) -> bool:
    """Total order conjoined with right plus-compatibility."""
    return _is_monomial("total_order", r, monoid, c)


def zero_least_on_nonzero(r: Relation, monoid: Monoid, c: Carrier) -> bool:
    """The identity is related on the left to every nonzero carrier element."""
    for x in c.elements:
        if not monoid.eq(x, monoid.identity) and not r.apply(monoid.identity, x):
            return False
    return True
