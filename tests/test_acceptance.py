"""Acceptance suite: frozen golden orderings for all eight orders plus the
exhaustive property suites backing the library's claimed identities.

Each criterion has a time budget in the benchmark's nominal seconds: its
wall time scaled, as perfbench/run.py scales request times, by NOMINAL_NS
over the median time of the benchmark's reference work (perfbench/reference.py)
run just before and after it.  So a budget holds the same on a faster, a slower
or a traced machine.  Each test prints one PASS line with both times once
its assertions hold; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import random
from math import comb

from click.testing import CliRunner

from conftest import (
    all_relations,
    box,
    budget,
    family_carrier,
    relation_from_pairs,
    sort_under,
)

from gradedorders import (
    Carrier,
    GE,
    GT,
    LE,
    LT,
    Relation,
    SparsePoly,
    WeightMatrix,
    carrier_range,
    colex,
    complementary,
    converse,
    family_add,
    find_incomparable,
    graded,
    grcolex,
    grevlex,
    grevlex_rec,
    grlex,
    grsymlex,
    grsymlex_full_rec,
    grsymlex_rec,
    leading_term,
    lex,
    matrix_for,
    monomial_mul,
    multi_index_set,
    prepend_ones_column,
    reverse_family,
    revlex,
    symlex,
    weighted_lt,
)
from gradedorders.cli import main as cli_main
from gradedorders.relations import (
    CONJUNCTIVE_PARTS,
    PROPERTY_NAMES,
    is_antisymmetric,
    is_asymmetric,
    is_connected,
    is_strict_total_order,
    is_strict_weak_order,
    is_strongly_connected,
    is_total_order,
    property_witness,
)

A32 = sorted(t for t in box(2, 3) if sum(t) <= 3)
SUM3_SLICE = sorted(t for t in box(3, 3) if sum(t) == 3)

LEX_CHAIN = [
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
    (1, 1), (1, 2), (2, 0), (2, 1), (3, 0),
]
COLEX_CHAIN = [
    (0, 0), (1, 0), (2, 0), (3, 0), (0, 1),
    (1, 1), (2, 1), (0, 2), (1, 2), (0, 3),
]
GRLEX_CHAIN = [
    (0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
    (2, 0), (0, 3), (1, 2), (2, 1), (3, 0),
]
GRSYMLEX_CHAIN = [
    (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
    (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
]

GRLEX_SUM3 = [
    (0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0), (1, 0, 2),
    (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0), (3, 0, 0),
]
GRCOLEX_SUM3 = [
    (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
    (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3),
]
GRSYMLEX_SUM3 = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]
# Derived from the definition (last differing index, greater component first)
# and cross-checked against an independent oracle below.
GREVLEX_SUM3 = [
    (0, 0, 3), (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 1, 1),
    (2, 0, 1), (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0),
]


@budget(1, "criterion 1: 2D lex/colex/symlex/revlex chains")
def test_criterion_01_lex_family_golden_chains():
    assert sort_under(lex(LT), A32) == LEX_CHAIN
    assert sort_under(colex(LT), A32) == COLEX_CHAIN
    # the symlex/revlex chains are the elementwise reversals of lex/colex
    assert sort_under(symlex(LT), A32) == list(reversed(LEX_CHAIN))
    assert sort_under(revlex(LT), A32) == list(reversed(COLEX_CHAIN))


@budget(1, "criterion 2: 2D graded chains and 2D coincidences")
def test_criterion_02_graded_2d_golden_chains():
    assert sort_under(grlex(LT), A32) == GRLEX_CHAIN
    assert sort_under(grsymlex(LT), A32) == GRSYMLEX_CHAIN
    gl, ge = grlex(LT), grevlex(LT)
    gc, gs = grcolex(LT), grsymlex(LT)
    for x in A32:
        for y in A32:
            assert gl.apply(x, y) == ge.apply(x, y)
            assert gc.apply(x, y) == gs.apply(x, y)


@budget(1, "criterion 3: 3D sum-3 graded chains (grevlex derived)")
def test_criterion_03_graded_3d_sum3_chains():
    assert sort_under(grlex(LT), SUM3_SLICE) == GRLEX_SUM3
    assert sort_under(grcolex(LT), SUM3_SLICE) == GRCOLEX_SUM3
    assert sort_under(grsymlex(LT), SUM3_SLICE) == GRSYMLEX_SUM3
    # independent oracle for grevlex on an equal-degree slice: descending
    # lexicographic comparison of the reversed tuples
    oracle = sorted(SUM3_SLICE, key=lambda a: tuple(reversed(a)), reverse=True)
    assert sort_under(grevlex(LT), SUM3_SLICE) == oracle == GREVLEX_SUM3


@budget(1, "criterion 4: canonical term-sorting rows via sort-terms")
def test_criterion_04_term_sorting_golden_rows():
    rows = {
        "grlex": "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3",
        "grcolex": "X^3 + X*Y^2 + Y^3 + X*Y*Z + Z^3",
        "grsymlex": "X^3 + X*Y^2 + X*Y*Z + Y^3 + Z^3",
        "grevlex": "Z^3 + X*Y*Z + Y^3 + X*Y^2 + X^3",
    }
    runner = CliRunner()
    source = "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3"
    for order, expected in rows.items():
        result = runner.invoke(
            cli_main, ["sort-terms", "--d", "3", "--order", order], input=source
        )
        assert result.exit_code == 0
        assert result.stdout.strip() == expected


ELEMENTARY_NAMES = [name for name in PROPERTY_NAMES if name not in CONJUNCTIVE_PARTS]


def _elementary_profile(r, c):
    return {name: property_witness(name, r, c) is None for name in ELEMENTARY_NAMES}


def _check_lemmas_on_carrier(elements):
    c = Carrier(elements)
    comp_flag = {"declared_reflexive": False}
    for pairs in all_relations(elements):
        r = relation_from_pairs(pairs)
        p = _elementary_profile(r, c)
        sto = is_strict_total_order(r, c)
        swo = is_strict_weak_order(r, c)
        to = is_total_order(r, c)

        assert sto == (p["transitive"] and p["irreflexive"] and p["asymmetric"] and p["connected"])
        assert sto == (p["transitive"] and p["irreflexive"] and p["connected"])
        assert sto == (p["transitive"] and p["asymmetric"] and p["connected"])
        assert p["asymmetric"] == (p["irreflexive"] and p["antisymmetric"])
        if p["transitive"]:
            assert p["irreflexive"] == p["asymmetric"]
        assert p["trichotomous"] == (p["asymmetric"] and p["connected"])
        if p["reflexive"] and p["connected"]:
            assert p["strongly_connected"]
        if p["connected"] and p["transitive"]:
            assert p["negatively_transitive"]
        assert sto == (swo and p["connected"])

        conv = converse(r)
        pc = _elementary_profile(conv, c)
        assert pc == p
        assert is_strict_total_order(conv, c) == sto
        assert is_strict_weak_order(conv, c) == swo
        assert is_total_order(conv, c) == to

        comp = complementary(r, **comp_flag)
        assert p["connected"] == is_antisymmetric(comp, c)
        assert p["strongly_connected"] == is_asymmetric(comp, c)


@budget(5, "criterion 5: lemma suite over all small relations")
def test_criterion_05_relation_lemma_suite():
    _check_lemmas_on_carrier((0, 1, 2))  # 512 relations
    _check_lemmas_on_carrier((0, 1))  # 16 relations


ALL_EIGHT = {
    "lex": lex(LT),
    "colex": colex(LT),
    "grlex": grlex(LT),
    "grcolex": grcolex(LT),
    "grsymlex": grsymlex(LT),
    "grevlex": grevlex(LT),
    "symlex": symlex(LT),
    "revlex": revlex(LT),
}


@budget(30, "criterion 6: monomial-order axioms for all eight orders")
def test_criterion_06_monomial_order_suite():
    orders = ALL_EIGHT
    for name, order in orders.items():
        for d in (1, 2, 3):
            items = box(d, 3)
            assert is_strict_total_order(order, family_carrier(items)), (name, d)
            # right plus-compatibility for every translation vector in the box
            # (sums stay within the enclosing bound 6 per component)
            related = [(a, b) for a in items for b in items if order.apply(a, b)]
            for a, b in related:
                for t in items:
                    assert order.apply(family_add(a, t), family_add(b, t)), (name, a, b, t)

    rng = random.Random(20250825)
    names = list(orders)
    for _ in range(10_000):
        name = rng.choice(names)
        order = orders[name]
        d = rng.randint(1, 4)
        a = tuple(rng.randint(0, 50) for _ in range(d))
        b = tuple(rng.randint(0, 50) for _ in range(d))
        t = tuple(rng.randint(0, 50) for _ in range(d))
        ab = order.apply(a, b)
        ba = order.apply(b, a)
        assert (a == b and not ab and not ba) or (a != b and ab != ba), (name, a, b)
        if ab:
            assert order.apply(family_add(a, t), family_add(b, t)), (name, a, b, t)


@budget(10, "criterion 7: grading idempotence incl. named instance")
def test_criterion_07_graded_idempotence():
    scalars = [LT, GT, LE, GE]
    vectors = [lex(LT), colex(LT), symlex(LT), revlex(LT)]
    items = box(3, 3)
    for r1 in scalars:
        for r2 in scalars:
            for rn in vectors:
                collapsed = graded(r1, rn)
                nested = graded(r1, graded(r2, rn))
                for x in items:
                    for y in items:
                        assert nested.apply(x, y) == collapsed.apply(x, y)
    named_left = graded(GT, grcolex(LT))
    named_right = graded(GT, colex(LT))
    for x in items:
        for y in items:
            assert named_left.apply(x, y) == named_right.apply(x, y)


@budget(5, "criterion 8: simplified/full recursions match the gradings")
def test_criterion_08_recursive_form_equivalence():
    items = box(3, 3)
    variants = [
        (grsymlex_rec(LT), grsymlex(LT)),
        (grsymlex_full_rec(LT), grsymlex(LT)),
        (grsymlex_full_rec(LT), grsymlex_rec(LT)),
        (grevlex_rec(LT), grevlex(LT)),
    ]
    for left, right in variants:
        for x in items:
            for y in items:
                assert left.apply(x, y) == right.apply(x, y), (left.name, x, y)


@budget(10, "criterion 9: slice enumeration equals brute force, sorted")
def test_criterion_09_multi_index_sets():
    graded_for_scheme = {"lex": grlex(LT), "colex": grcolex(LT), "symlex": grsymlex(LT)}
    for d in (1, 2, 3, 4):
        for k in (0, 1, 2, 3, 4, 5):
            brute = {t for t in box(d, k) if sum(t) <= k}
            for scheme, order in graded_for_scheme.items():
                entries = multi_index_set(d, k, scheme).entries
                assert set(entries) == brute
                assert len(entries) == len(brute) == comb(d + k, d)
                for a, b in zip(entries, entries[1:]):
                    assert order.apply(a, b)
    assert len(multi_index_set(3, 3)) == 20
    assert len(multi_index_set(2, 3)) == 10


@budget(10, "criterion 10: matrix encodings and (in)comparability witnesses")
def test_criterion_10_weighted_matrices():
    references = {
        "lex": lex(LT),
        "grlex": grlex(LT),
        "grevlex": grevlex(LT),
        "grsymlex": grsymlex(LT),
        "grcolex": grcolex(LT),
    }
    for d in (2, 3):
        items = box(d, 3)
        for name, order in references.items():
            w = matrix_for(name, d)
            for x in items:
                for y in items:
                    assert weighted_lt(w, LT, x, y) == order.apply(x, y), (name, x, y)
        # ones-column prepend is the matrix form of grading
        graded_lex = graded(LT, lex(LT))
        w = prepend_ones_column(matrix_for("lex", d))
        for x in items:
            for y in items:
                assert weighted_lt(w, LT, x, y) == graded_lex.apply(x, y)

    invertible = [
        ((1, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((2, 1), (1, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 1, 1), (1, 1, 0), (1, 0, 0)),
    ]
    singular = [
        ((1, 1), (1, 1)),
        ((1, 2), (2, 4)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ]
    for rows in invertible:
        assert find_incomparable(WeightMatrix(rows), LT, 3) is None
    for rows in singular:
        assert find_incomparable(WeightMatrix(rows), LT, 3) is not None


@budget(2, "criterion 11: nonstrict lex closure and reversal identities")
def test_criterion_11_le_lt_and_reversal_identities():
    lex_lt, lex_le = lex(LT), lex(LE)
    sym, rev = symlex(LT), revlex(LT)
    for d, bound in ((2, 3), (3, 2)):
        items = box(d, bound)
        for x in items:
            for y in items:
                assert lex_le.apply(x, y) == (x == y or lex_lt.apply(x, y))
                xr, yr = reverse_family(x), reverse_family(y)
                assert sym.apply(xr, yr) == rev.apply(x, y)
                assert rev.apply(xr, yr) == sym.apply(x, y)


@budget(5, "criterion 12: leading term commutes with monomial shifts")
def test_criterion_12_leading_term_morphism():
    rng = random.Random(424242)
    orders = [grlex(LT), grcolex(LT), grsymlex(LT), grevlex(LT)]
    checked = 0
    while checked < 1000:
        d = rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 8) for _ in range(d))
            c = rng.choice([c for c in range(-9, 10) if c])
            pairs.append((e, c))
        p = SparsePoly.from_pairs(d, pairs)
        if p.is_zero():
            continue
        gamma = tuple(rng.randint(0, 5) for _ in range(d))
        order = rng.choice(orders)
        lead = leading_term(p, order)
        shifted = leading_term(monomial_mul(p, gamma), order)
        assert shifted.exponents == tuple(e + g for e, g in zip(lead.exponents, gamma))
        assert shifted.coefficient == lead.coefficient
        checked += 1
