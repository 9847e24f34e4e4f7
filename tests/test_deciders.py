"""The table-based property deciders against the definitional loops they
replace, and the bound on how often they ask the relation."""

import operator
import random
import sys
import tracemalloc
from collections import Counter
from functools import partial
from itertools import compress, product

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_PAIR_FAILS, all_relations, box, reference_pair_witness, relation_from_pairs

from gradedorders import (
    DIVIDES,
    GE,
    GT,
    LE,
    LT,
    NAT_ADD,
    Carrier,
    Monoid,
    Relation,
    WeightMatrix,
    carrier_range,
    family_add,
    find_incomparable,
    is_monomial_nonstrict_order,
    is_monomial_order,
    is_plus_reg_r,
    weighted_lt,
)
from gradedorders import relations, weighted
from gradedorders.graded import plus_compat_r_witness
from gradedorders.relations import CONJUNCTIVE_PARTS, EMPTY, PROPERTY_NAMES, _Table, _transitive, property_witness
from gradedorders.relations import _PARTS, _conjunctive_witness

# ---------------------------------------------------------------------------
# reference deciders: the compositional definitions, one loop per quantifier


def ref_transitive(r, c):
    ap = r.apply
    for x in c.elements:
        for y in c.elements:
            if ap(x, y):
                for z in c.elements:
                    if ap(y, z) and not ap(x, z):
                        return (x, y, z)
    return None


def ref_negatively_transitive(r, c):
    ap = r.apply
    for x in c.elements:
        for y in c.elements:
            if not ap(x, y):
                for z in c.elements:
                    if not ap(y, z) and ap(x, z):
                        return (x, y, z)
    return None


def ref_reflexive(r, c):
    for x in c.elements:
        if not r.apply(x, x):
            return (x,)
    return None


def ref_irreflexive(r, c):
    for x in c.elements:
        if r.apply(x, x):
            return (x,)
    return None


def ref_antisymmetric(r, c):
    for x in c.elements:
        for y in c.elements:
            if r.apply(x, y) and r.apply(y, x) and not c.eq(x, y):
                return (x, y)
    return None


def ref_asymmetric(r, c):
    for x in c.elements:
        for y in c.elements:
            if r.apply(x, y) and r.apply(y, x):
                return (x, y)
    return None


def ref_connected(r, c):
    for x in c.elements:
        for y in c.elements:
            if not c.eq(x, y) and not r.apply(x, y) and not r.apply(y, x):
                return (x, y)
    return None


def ref_strongly_connected(r, c):
    for x in c.elements:
        for y in c.elements:
            if not r.apply(x, y) and not r.apply(y, x):
                return (x, y)
    return None


def ref_trichotomous(r, c):
    for x in c.elements:
        for y in c.elements:
            xy = r.apply(x, y)
            yx = r.apply(y, x)
            eq = c.eq(x, y)
            if (eq and not xy and not yx) or (not eq and xy and not yx) or (not eq and yx and not xy):
                continue
            return (x, y)
    return None


REF_ELEMENTARY = {
    "transitive": ref_transitive,
    "negatively_transitive": ref_negatively_transitive,
    "reflexive": ref_reflexive,
    "irreflexive": ref_irreflexive,
    "antisymmetric": ref_antisymmetric,
    "asymmetric": ref_asymmetric,
    "connected": ref_connected,
    "strongly_connected": ref_strongly_connected,
    "trichotomous": ref_trichotomous,
}


def ref_property_witness(name, r, c):
    if name in REF_ELEMENTARY:
        w = REF_ELEMENTARY[name](r, c)
        return None if w is None else (name, w)
    for part in CONJUNCTIVE_PARTS[name]:
        w = REF_ELEMENTARY[part](r, c)
        if w is not None:
            return (part, w)
    return None


def ref_plus_compat_r_witness(r, monoid, c):
    for x in c.elements:
        for x1 in c.elements:
            for x2 in c.elements:
                if r.apply(x1, x2) and not r.apply(monoid.op(x1, x), monoid.op(x2, x)):
                    return (x, x1, x2)
    return None


def ref_is_plus_reg_r(monoid, c):
    for x in c.elements:
        for x1 in c.elements:
            for x2 in c.elements:
                if monoid.eq(monoid.op(x1, x), monoid.op(x2, x)) and not monoid.eq(x1, x2):
                    return False
    return True


def ref_find_incomparable(w, k_lt, box_bound):
    box = list(product(range(box_bound + 1), repeat=w.d))
    for i, x in enumerate(box):
        for y in box[i + 1 :]:
            if not weighted_lt(w, k_lt, x, y) and not weighted_lt(w, k_lt, y, x):
                return (x, y)
    return None


def assert_same_witnesses(r, c):
    for name in PROPERTY_NAMES:
        assert property_witness(name, r, c) == ref_property_witness(name, r, c), (name, r.name, c)


# ---------------------------------------------------------------------------
# differential tests of the 14 properties


def test_reference_covers_every_property():
    assert set(REF_ELEMENTARY) | set(CONJUNCTIVE_PARTS) == set(PROPERTY_NAMES)


@pytest.mark.parametrize("elements", [(0, 1), ("a", "b", "c")])
def test_every_relation_on_small_carriers(elements):
    c = Carrier(elements)
    for pairs in all_relations(elements):
        assert_same_witnesses(relation_from_pairs(pairs), c)


def test_random_relations_up_to_eight_elements():
    rng = random.Random(5)
    for n in range(9):
        elements = tuple(f"e{i}" for i in rng.sample(range(20), n))
        c = Carrier(elements)
        for density in (0.1, 0.5, 0.9):
            for _ in range(12):
                pairs = {(x, y) for x in elements for y in elements if rng.random() < density}
                assert_same_witnesses(relation_from_pairs(pairs), c)


def edge_relations(rng, n):
    """Pairs of carrier positions 0..n-1 for the transitivity scans: random
    ones, sparse to dense; the preorder x // 2 <= y // 2 under a random
    ranking, dense and no tournament, which passes both scans, alone and
    with one pair flipped; and, for each z at a byte or word edge, the full
    relation less (0, z) and the empty one with (0, z), which fail the scan
    and the negated scan with z as the witness's last element."""
    pairs = [(x, y) for x in range(n) for y in range(n)]
    rank = rng.sample(range(n), n)
    preorder = {(x, y) for x, y in pairs if rank[x] // 2 <= rank[y] // 2}
    cases = [{p for p in pairs if rng.random() < density} for density in (0.05, 0.5, 0.95, 0.99)]
    cases += [preorder] + [preorder ^ {rng.choice(pairs)} for _ in range(4 * bool(n))]
    for z in {7, 8, 9, 31, 32, 63, 64, n - 2, n - 1} & set(range(2, n)):
        cases += [set(pairs) - {(0, z)}, {(0, z)}]
    return cases


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_transitivity_scans_match_the_triple_loop_at_byte_and_word_edges(n):
    """Both transitivity conjuncts give the definitional loop's verdict and
    witness on the tables of edge_relations, on a carrier of range(n) in a
    random order, so that the bit of each carrier position in a row mask is
    pinned across byte and machine-word edges."""
    rng = random.Random(n)
    els = rng.sample(range(n), n)
    c = Carrier(tuple(els))
    for pairs in edge_relations(rng, n):
        r = relation_from_pairs((els[x], els[y]) for x, y in pairs)
        for name, ref in (("transitive", ref_transitive), ("negatively_transitive", ref_negatively_transitive)):
            w = ref(r, c)
            assert property_witness(name, r, c) == (w and (name, w)), (n, name, sorted(pairs))


@pytest.mark.parametrize("r", [LT, LE, GT, GE, DIVIDES, EMPTY], ids=lambda r: r.name)
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 7), (1, 12), (-3, 5)])
def test_named_relations_on_ranges(r, lo, hi):
    assert_same_witnesses(r, carrier_range(lo, hi))


def test_custom_eq_carrier():
    c = Carrier((0, 1, 2, 4), eq=lambda a, b: a % 5 == b % 5)
    for r in (
        LT,
        LE,
        Relation(lambda a, b: a % 3 <= b % 3, name="mod3 le"),
        Relation(lambda a, b: a % 3 < b % 3, name="mod3 lt"),
    ):
        assert_same_witnesses(r, c)


def test_empty_carrier():
    for r in (LT, LE, EMPTY):
        assert_same_witnesses(r, Carrier(()))
        assert all(property_witness(name, r, Carrier(())) is None for name in PROPERTY_NAMES)


def test_relations_returning_non_bool_values():
    for r in (
        Relation(lambda x, y: y - x, name="y - x"),
        Relation(lambda x, y: 0, name="0"),
        Relation(lambda x, y: (x * y) % 3, name="xy mod 3"),
        Relation(lambda x, y: [x] if x <= y else [], name="list if le"),
    ):
        assert_same_witnesses(r, carrier_range(-2, 4))


INT_PREDICATES = (LT, LE, GT, GE, DIVIDES)
# ranges through 0 and the negatives (divides), shuffled ints, one element
# and none
INT_CARRIERS = [
    carrier_range(-4, 4),
    carrier_range(0, 9),
    carrier_range(-9, -1),
    Carrier(tuple(random.Random(3).sample(range(-12, 40), 14))),
    Carrier(tuple(random.Random(4).sample(range(-5, 6), 11))),
    # divides' backward rows that hold 0, whole and among chosen y
    carrier_range(-30, 30),
    Carrier((6, -4, -9, 3, -2, 0, 12, -6, 1, 9, 4)),
    Carrier((0,)),
    Carrier((7,)),
    Carrier(()),
]
# carriers that hold a bool or another number beside ints
MIXED_CARRIERS = [Carrier((0, True, 2, 3)), Carrier((-1, Fraction(1, 2), 0, 2, 4))]


def _wrapped(r):
    """r with the same answers, as a relation the library does not know."""
    return Relation(lambda x, y: r.apply(x, y), declared_reflexive=r.declared_reflexive, name=f"wrapped({r.name})")


def _witnesses_and_cells(monkeypatch, r, c):
    """Each property's witness of r on c, and how often a table made for it
    called relations._cells."""
    calls = []
    cells = relations._cells
    monkeypatch.setattr(relations, "_cells", lambda answers: calls.append(1) or cells(answers))
    found = []
    for name in PROPERTY_NAMES:
        before = len(calls)
        found.append((property_witness(name, r, c), len(calls) - before))
    monkeypatch.setattr(relations, "_cells", cells)
    return found


@pytest.mark.parametrize("r", INT_PREDICATES, ids=lambda r: r.name)
@pytest.mark.parametrize("c", INT_CARRIERS, ids=lambda c: str(c.elements))
def test_integer_predicates_store_their_rows_as_bytes(monkeypatch, r, c):
    """On a carrier of ints the five predicates take no _cells: the rows
    of divides are its own expressions, and the four comparisons, on
    distinct ints, build no row; the same answers from a relation the
    library does not know take _cells, and every property gives the same
    verdict and witness."""
    fast = _witnesses_and_cells(monkeypatch, r, c)
    general = _witnesses_and_cells(monkeypatch, _wrapped(r), c)
    assert [w for w, _ in fast] == [w for w, _ in general] == [ref_property_witness(n, r, c) for n in PROPERTY_NAMES]
    assert sum(k for _, k in fast) == 0
    assert bool(sum(k for _, k in general)) == bool(c.elements)


@pytest.mark.parametrize("r", INT_PREDICATES, ids=lambda r: r.name)
@pytest.mark.parametrize("c", MIXED_CARRIERS, ids=lambda c: str(c.elements))
def test_a_carrier_with_a_bool_or_a_fraction_keeps_cells(monkeypatch, r, c):
    found = _witnesses_and_cells(monkeypatch, r, c)
    assert found == _witnesses_and_cells(monkeypatch, _wrapped(r), c)
    assert [w for w, _ in found] == [ref_property_witness(n, r, c) for n in PROPERTY_NAMES]
    assert sum(k for _, k in found) > 0


COMPARISONS = (LT, LE, GT, GE)
# distinct ints beside INT_CARRIERS: ranges that step down or by more than
# one, ints beyond the machine word, one element
DISTINCT_INTS = [
    Carrier(range(9, -9, -2)),
    Carrier(range(0, 40, 7)),
    Carrier((2**64, -(2**70), 3, 2**63, -(2**63) - 1, 0)),
    Carrier((5,)),
]
# ints that a custom eq keeps apart although they repeat, and carriers that
# hold a bool or a Fraction: none is known to be a linear order
UNKNOWN_CARRIERS = [Carrier((1, 1, 2), eq=lambda a, b: False), *MIXED_CARRIERS]


@pytest.mark.parametrize("r", COMPARISONS, ids=lambda r: r.name)
@pytest.mark.parametrize("c", INT_CARRIERS + DISTINCT_INTS + UNKNOWN_CARRIERS, ids=lambda c: str(c.elements))
def test_comparisons_on_distinct_ints_are_known_ordered(r, c):
    """lt, le, gt and ge on non-empty distinct ints give a table preset
    ordered, which answers every property with the scan's verdict and
    witness and never builds its cells or masks; any other carrier keeps
    the scan."""
    known = bool(c.elements) and not any(c is u for u in UNKNOWN_CARRIERS)
    for name in PROPERTY_NAMES:
        t = _Table(r, c)
        assert ("ordered" in vars(t)) == known, name
        expected = ref_property_witness(name, r, c)
        assert _conjunctive_witness(_PARTS[name], t) == expected, name
        assert property_witness(name, _wrapped(r), c) == expected, name
        if known:
            assert "cells" not in vars(t) and "masks" not in vars(t), name


def _divides_calls(name, r, c):
    """The witness of r on c and the (a, b) of every call of
    relations._divides made for it, seen by a profile hook: DIVIDES.apply
    is the function itself, so it cannot be patched."""
    code, calls = relations._divides.__code__, []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append((frame.f_locals["a"], frame.f_locals["b"]))

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        witness = property_witness(name, r, c)
    finally:
        sys.setprofile(before)
    return witness, calls


@pytest.mark.parametrize("c", INT_CARRIERS, ids=lambda c: str(c.elements))
def test_divides_asks_itself_only_on_the_diagonal_and_rows_with_a_zero_divisor(c):
    """On a carrier of ints the rows of divides are its expressions mapped
    over the row; _divides itself answers r(x, x) and, in a row r(y, x)
    whose y hold 0, each y of that row, after x in carrier order."""
    table = _Table(DIVIDES, c)
    assert (table.forward, table.backward) == (relations._divides_row, relations._divided_row)
    position = {x: i for i, x in enumerate(c.elements)}
    for name in PROPERTY_NAMES:
        _, calls = _divides_calls(name, DIVIDES, c)
        for a, b in calls:
            if a != b:
                assert (0, b) in calls and position[a] > position[b] and position[0] > position[b], (name, a, b)
    if 0 in c.elements[1:]:
        assert any(a != b for a, b in _divides_calls("antisymmetric", DIVIDES, c)[1])


def test_divides_on_positive_ranges_makes_no_call_per_pair():
    assert _divides_calls("antisymmetric", DIVIDES, carrier_range(1, 60)) == (None, [])
    # a lone diagonal property asks before any row is built
    assert _divides_calls("reflexive", DIVIDES, carrier_range(1, 60)) == (None, [(x, x) for x in range(1, 61)])
    assert _divides_calls("partial_order", DIVIDES, carrier_range(1, 60)) == (None, [])


PER_CALL_DIVIDES = [*((DIVIDES, c) for c in MIXED_CARRIERS), (_wrapped(DIVIDES), carrier_range(-4, 4))]


@pytest.mark.parametrize("r, c", PER_CALL_DIVIDES, ids=lambda x: getattr(x, "name", None) or str(x.elements))
def test_divides_on_a_bool_or_a_fraction_and_wrapped_divides_ask_each_pair(r, c):
    table = _Table(r, c)
    assert relations._divides_row is not table.forward and relations._divided_row is not table.backward
    witness, calls = _divides_calls("partial_order", r, c)
    assert witness == ref_property_witness("partial_order", r, c)
    # transitive reads the table first: each ordered pair once
    assert sorted(calls, key=repr) == sorted(product(c.elements, repeat=2), key=repr)


@pytest.mark.parametrize("r", INT_PREDICATES, ids=lambda r: r.name)
@pytest.mark.parametrize("lo, hi", [(-30, 30), (-6, 6), (0, 12), (1, 60)])
def test_a_range_carrier_and_its_tuple_give_the_same_witnesses(r, lo, hi):
    given, listed = carrier_range(lo, hi), Carrier(tuple(range(lo, hi + 1)))
    assert [property_witness(name, r, given) for name in PROPERTY_NAMES] == [
        property_witness(name, r, listed) for name in PROPERTY_NAMES
    ]


# answers of every type the deciders read: bools, ints 0 and 1, other ints,
# and values that are no int at all
ANSWERS = (False, True, 0, 1, 7, 300, None, [], [0])


@st.composite
def answered_carriers(draw):
    """A carrier of 0-9 integers in shuffled order and an answer for each
    ordered pair, drawn from a few of ANSWERS."""
    elements = draw(st.lists(st.integers(-5, 20), unique=True, max_size=9))
    kinds = draw(st.lists(st.sampled_from(ANSWERS), min_size=1, max_size=3))
    n = len(elements)
    cells = draw(st.lists(st.sampled_from(kinds), min_size=n * n, max_size=n * n))
    pairs = [(x, y) for x in elements for y in elements]
    return Carrier(tuple(elements)), dict(zip(pairs, cells))


def _reference_pair_property_witness(name, r, c):
    """The first failing conjunct and its witness, the pair conjuncts by the
    whole-row scan of reference_pair_witness."""
    for part in CONJUNCTIVE_PARTS.get(name, (name,)):
        if part in REFERENCE_PAIR_FAILS:
            w = reference_pair_witness(part, r, c)
        else:
            w = REF_ELEMENTARY[part](r, c)
        if w is not None:
            return (part, w)
    return None


@settings(max_examples=300, deadline=None)
@given(answered_carriers())
def test_pair_deciders_match_the_whole_row_scan(case):
    """Every property, lone (before the table is built) and in a conjunction
    (after), gives the reference's verdict and witness and asks no pair
    twice."""
    c, answers = case
    reference = Relation(lambda x, y: answers[x, y], name="answers")
    for name in PROPERTY_NAMES:
        asked = Counter()

        def apply(x, y):
            asked[x, y] += 1
            return answers[x, y]

        got = property_witness(name, Relation(apply, name="answers"), c)
        assert got == _reference_pair_property_witness(name, reference, c), name
        assert sum(asked.values()) <= len(c.elements) ** 2, name
        assert max(asked.values(), default=0) <= 1, name


@st.composite
def switching_relations(draw):
    """A carrier of up to 80 integers and an answer for each ordered pair,
    made so that the direction that settles most pairs of a row changes from
    row to row: an order (strict or not, with or without ties) on a carrier
    that runs up on one part and down on the rest or is shuffled, or rows of
    random answers each biased to one side; a few answers may be flipped."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(("up-down", "shuffled", "biased")))
    elements = list(range(n))
    if kind == "up-down":
        cut = draw(st.integers(0, n))
        elements = elements[:cut] + elements[cut:][::-1]
    else:
        rng.shuffle(elements)
    if kind == "biased":
        answers = {}
        for x in elements:
            p = rng.choice((0.03, 0.5, 0.97))
            answers.update(((x, y), rng.random() < p) for y in elements)
    else:
        op = draw(st.sampled_from((operator.lt, operator.le, operator.gt, operator.ge)))
        ties = draw(st.sampled_from((1, 3)))  # x // 3 makes a weak order
        answers = {(x, y): op(x // ties, y // ties) for x in elements for y in elements}
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        pair = (rng.choice(elements), rng.choice(elements))
        answers[pair] = not answers[pair]
    return Carrier(tuple(elements)), answers


@settings(max_examples=60, deadline=None)
@given(switching_relations())
def test_pair_deciders_read_either_direction_first(case):
    """Every property, lone (each row asks the relation in the direction it
    reads first) and in a conjunction (each row slices the built table),
    gives the definitional verdict and witness, in at most n^2 calls with no
    pair asked twice."""
    c, answers = case
    reference = Relation(lambda x, y: answers[x, y], name="answers")
    elementary = {part: ref(reference, c) for part, ref in REF_ELEMENTARY.items()}
    for name in PROPERTY_NAMES:
        expected = next(
            ((part, elementary[part]) for part in CONJUNCTIVE_PARTS.get(name, (name,)) if elementary[part]), None
        )
        asked = Counter()

        def apply(x, y):
            asked[x, y] += 1
            return answers[x, y]

        assert property_witness(name, Relation(apply, name="answers"), c) == expected, name
        assert sum(asked.values()) <= len(c.elements) ** 2, name
        assert max(asked.values(), default=0) <= 1, name


# ---------------------------------------------------------------------------
# the score test of transitivity against the mask scan


def scan_transitive(r, c, negated=False):
    """The mask scan that decides transitivity on any table, negated on the
    complemented one: the first (x, y, z) with r(x, y), r(y, z) and not
    r(x, z)."""
    els = c.elements
    rows = [bytes(bool(r.apply(x, y)) ^ negated for y in els) for x in els]
    masks = [int.from_bytes(row, "little") for row in rows]
    for i, (row, related) in enumerate(zip(masks, rows)):
        outside = ~row
        for j in compress(range(len(els)), related):
            bad = masks[j] & outside
            if bad:
                return (els[i], els[j], els[((bad & -bad).bit_length() - 1) >> 3])
    return None


SCANNED = {"transitive": scan_transitive, "negatively_transitive": partial(scan_transitive, negated=True)}


def tournaments(rng, n, diagonal):
    """Pair sets on range(n) with r(x, x) == diagonal for every x: the
    transitive tournament of a random ranking, a random tournament, and the
    transitive one with one pair reversed, one diagonal cell flipped, one
    pair related both ways, or one pair related both ways and another in
    neither, which keeps the row counts."""
    rank = rng.sample(range(n), n)
    loops = {(x, x) for x in range(n)} if diagonal else set()
    ordered = {(x, y) for x in range(n) for y in range(n) if rank[x] < rank[y]} | loops
    cases = {
        "transitive": ordered,
        "random": {(x, y) if rng.random() < 0.5 else (y, x) for x in range(n) for y in range(x)} | loops,
    }
    if n >= 2:
        x, y = rng.choice(sorted(ordered - loops))
        cases["reversed pair"] = ordered - {(x, y)} | {(y, x)}
        cases["both ways"] = ordered | {(y, x)}
    if n >= 3:
        by_rank = sorted(range(n), key=rank.__getitem__)
        i = rng.randrange(1, n - 1)
        x, y, z = by_rank[rng.randrange(i)], by_rank[i], by_rank[rng.randrange(i + 1, n)]
        cases["same scores"] = (ordered | {(y, x)}) - {(y, z)}
    if n >= 1:
        z = rng.randrange(n)
        cases["flipped diagonal"] = ordered ^ {(z, z)}
    return cases


@pytest.mark.parametrize("diagonal", [False, True], ids=["strict", "reflexive"])
def test_score_test_matches_the_scan_on_tournaments(diagonal):
    """On tournaments and near-tournaments of 0-40 elements, carried in a
    random order, the transitivity conjuncts and the total orders give the
    scan's verdict and witness; the score test certifies exactly the
    ordered tournaments, and the scan runs on every other table."""
    rng = random.Random(23 + diagonal)
    for n in range(41):
        for kind, pairs in tournaments(rng, n, diagonal).items():
            r = relation_from_pairs(pairs)
            c = Carrier(tuple(rng.sample(range(n), n)))
            for name in ("transitive", "negatively_transitive", "total_order", "strict_total_order"):
                expected = next(
                    (
                        (part, w)
                        for part in CONJUNCTIVE_PARTS.get(name, (name,))
                        for w in [SCANNED.get(part, REF_ELEMENTARY[part])(r, c)]
                        if w is not None
                    ),
                    None,
                )
                assert property_witness(name, r, c) == expected, (n, kind, name)
            tournament = all(((x, y) in pairs) != ((y, x) in pairs) for x in range(n) for y in range(x))
            one_diagonal = len({(x, x) in pairs for x in range(n)}) == 1
            ordered = tournament and one_diagonal and scan_transitive(r, c) is None
            t = _Table(r, c)
            assert _transitive(t) == scan_transitive(r, c), (n, kind)
            assert t.ordered == ordered, (n, kind)
            # the scan builds the row masks
            assert ("masks" in vars(t)) != ordered, (n, kind)
            if kind == "transitive":
                assert ordered == (n > 0), n


def test_total_order_asks_each_pair_once():
    counted, calls = _counted(LE)
    assert property_witness("total_order", counted, carrier_range(0, 89)) is None
    assert calls[0] == 90 * 90


# ---------------------------------------------------------------------------
# differential tests of the monomial and matrix checks

MONOIDS = [
    NAT_ADD,
    Monoid(0, max, name="max"),
    Monoid(0, lambda a, b: (a + b) % 4, name="Z/4"),
    Monoid(1, operator.mul, name="mul"),
    Monoid(0, lambda a, b: a + b, eq=lambda a, b: a % 3 == b % 3, name="sum mod 3"),
    # not commutative, so that the order of the operands is pinned as well
    Monoid(0, lambda a, b: 2 * a + b, name="2a + b"),
    Monoid(0, lambda a, b: a, name="left projection"),
]


def _scrambled(seed):
    return Relation(lambda a, b: (a * 7 + b * 13 + seed) % 5 < 2, name=f"scrambled{seed}")


# family addition on boxes, whose carriers are random subsets of the box
BOX_MONOIDS = [Monoid((0,) * d, family_add, name=f"N^{d}") for d in (2, 3)]


def _plus_compat_cases(monoid):
    """(r, c) pairs: on numbers, ready-made and scrambled relations on a few
    carriers; on a box, on random subsets of it, a weighted sum compared by
    < and by <= (which pass), the < with one pair of sums flipped late in
    the scan, random pair sets (which fail), and EMPTY."""
    if monoid not in BOX_MONOIDS:
        for r in [LT, LE, GT, DIVIDES, EMPTY] + [_scrambled(seed) for seed in range(6)]:
            for c in (carrier_range(0, 5), carrier_range(1, 4), Carrier((3, 0, 2)), Carrier(())):
                yield r, c
        return
    d = len(monoid.identity)
    rng = random.Random(d)
    points = box(d, 4 if d == 2 else 2)
    for n in (1, 2, 5, 9, 14):
        c = Carrier(tuple(rng.sample(points, n)))
        weights = [rng.randrange(1, 4) for _ in range(d)]

        def weight(a, weights=weights):
            return sum(map(operator.mul, weights, a))

        x, x1, x2 = c.elements[-1], c.elements[0], c.elements[n // 2]
        flipped = {(family_add(x1, x), family_add(x2, x)), (family_add(x2, x), family_add(x1, x))}
        pairs = list(product(c.elements, repeat=2))
        yield Relation(lambda a, b, w=weight: w(a) < w(b), name="w<"), c
        yield Relation(lambda a, b, w=weight: w(a) <= w(b), declared_reflexive=True, name="w<="), c
        yield Relation(lambda a, b, w=weight, f=flipped: (w(a) < w(b)) != ((a, b) in f), name="w< flipped"), c
        yield relation_from_pairs(rng.sample(pairs, len(pairs) // 2)), c
        yield EMPTY, c


def ref_plus_compat_calls(r, monoid, c):
    """The pairs the definitional loop asks r about once r(x1, x2) is known:
    by addend x, then by x1 and x2 in carrier order over the related pairs,
    up to the first False."""
    calls = []
    for x in c.elements:
        for x1 in c.elements:
            for x2 in c.elements:
                if r.apply(x1, x2):
                    calls.append((monoid.op(x1, x), monoid.op(x2, x)))
                    if not r.apply(*calls[-1]):
                        return calls
    return calls


@pytest.mark.parametrize("monoid", MONOIDS + BOX_MONOIDS, ids=lambda m: m.name)
def test_plus_compat_r_witness_matches_reference(monoid):
    for r, c in _plus_compat_cases(monoid):
        log = []
        recording = Relation(lambda x, y: log.append((x, y)) or r.apply(x, y), r.declared_reflexive, r.name)
        assert plus_compat_r_witness(recording, monoid, c) == ref_plus_compat_r_witness(r, monoid, c)
        # the table asks each pair once, row by row; the scan then asks
        # what the definitional loop asks, in its order
        n = len(c.elements)
        assert log[: n * n] == list(product(c.elements, repeat=2)), (r.name, c)
        assert log[n * n :] == ref_plus_compat_calls(r, monoid, c), (r.name, c)
        assert is_monomial_order(r, monoid, c) == (
            ref_property_witness("strict_total_order", r, c) is None
            and ref_plus_compat_r_witness(r, monoid, c) is None
        )
        assert is_monomial_nonstrict_order(r, monoid, c) == (
            ref_property_witness("total_order", r, c) is None
            and ref_plus_compat_r_witness(r, monoid, c) is None
        )


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
def test_is_plus_reg_r_matches_reference(monoid):
    for c in (carrier_range(0, 5), carrier_range(1, 3), Carrier((4, 1)), Carrier(())):
        assert is_plus_reg_r(monoid, c) == ref_is_plus_reg_r(monoid, c)


# LT takes the key path; the others have no key and ask the connected decider
@pytest.mark.parametrize("k_lt", [LT, GT, LE, DIVIDES], ids=lambda r: r.name)
def test_find_incomparable_matches_reference(k_lt):
    rng = random.Random(11)
    later_groups = 0  # boxes where a tie group other than the earliest could answer
    for _ in range(60):
        d, m = rng.randint(1, 3), rng.randint(1, 3)
        w = WeightMatrix(tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(d)))
        for bound in (1, 2, 3):
            box = list(product(range(bound + 1), repeat=d))
            expected = ref_find_incomparable(w, k_lt, bound)
            found = find_incomparable(w, k_lt, bound)
            assert found == expected, (w, bound)
            order = weighted.weighted_relation(w, k_lt)
            failure = property_witness("connected", order, Carrier(box))
            assert failure == (None if found is None else ("connected", found)), (w, bound)
            if order.key is not None:
                ties = Counter(map(order.key, box))
                later_groups += sum(count > 1 for count in ties.values()) > 1
    assert later_groups > 0 or k_lt is not LT


# ---------------------------------------------------------------------------
# how often the relation is asked


def _counted(r):
    calls = [0]

    def apply(x, y):
        calls[0] += 1
        return r.apply(x, y)

    return Relation(apply, declared_reflexive=r.declared_reflexive, name=r.name), calls


@pytest.mark.parametrize("r", [LT, LE, DIVIDES, EMPTY], ids=lambda r: r.name)
def test_every_decider_asks_each_pair_at_most_once(r):
    c = carrier_range(0, 39)
    for name in PROPERTY_NAMES:
        counted, calls = _counted(r)
        property_witness(name, counted, c)
        assert calls[0] <= 40 * 40, name


HALF = 600 * 601 // 2

PAIR_CALL_BOUNDS = [
    # property, relation, calls on 0..599: a row asks the second direction
    # only where the first leaves the pair open, and the next row reads
    # first the direction that settled more pairs, so one direction settles
    # nearly every pair whichever it is
    *((name, r, HALF + 600) for name in ("antisymmetric", "connected") for r in (LT, LE, GT, GE)),
    ("asymmetric", LT, HALF + 600),
    ("asymmetric", GT, HALF + 600),
    ("strongly_connected", LE, HALF + 600),
    ("strongly_connected", GE, HALF + 600),
    # no answer settles a pair of trichotomy: both directions are asked
    ("trichotomous", LT, 600 * 600),
]


@pytest.mark.parametrize(
    "name, r, bound", PAIR_CALL_BOUNDS, ids=[f"{name}-{r.name}" for name, r, _ in PAIR_CALL_BOUNDS]
)
def test_pair_property_asks_the_converse_only_where_it_can_fail(name, r, bound):
    counted, calls = _counted(r)
    assert property_witness(name, counted, carrier_range(0, 599)) is None
    assert calls[0] <= bound


# a tournament true on about half of each row: x before y when they have the
# same parity, y before x otherwise, so a row asks the second direction for
# (n - 1 - i) / 2 of its y, rounded down or up by the direction it reads
# first, and the switch threshold decides the rows where that is exactly half
HALF_ROWS = Relation(lambda x, y: x != y and (x < y) == ((x ^ y) & 1 == 0), name="half")

PAIR_CALLS = [
    # property, relation, exact calls on 0..99
    ("antisymmetric", LT, 5049),
    ("antisymmetric", LE, 5049),
    ("antisymmetric", HALF_ROWS, 7400),
    ("asymmetric", LT, 5149),
    ("asymmetric", LE, 1),
    ("asymmetric", HALF_ROWS, 7500),
    ("connected", LT, 4950),
    ("connected", LE, 4950),
    ("connected", HALF_ROWS, 7401),
]


@pytest.mark.parametrize(
    "name, r, expected", PAIR_CALLS, ids=[f"{name}-{r.name}" for name, r, _ in PAIR_CALLS]
)
def test_pair_property_switches_direction_at_more_than_half(name, r, expected):
    counted, calls = _counted(r)
    property_witness(name, counted, carrier_range(0, 99))
    assert calls[0] == expected


def test_transitive_and_total_order_bound():
    for name in ("transitive", "total_order"):
        counted, calls = _counted(LE)
        assert property_witness(name, counted, carrier_range(0, 39)) is None
        assert calls[0] <= 1600


FULL = Relation(lambda x, y: True, declared_reflexive=True, name="full")

EARLY_FAILURES = [
    # property, relation, witness, calls per carrier element
    ("asymmetric", LE, (0, 0), 2),
    ("trichotomous", LE, (0, 0), 2),
    ("strongly_connected", EMPTY, (0, 0), 2),
    ("connected", EMPTY, (0, 1), 2),
    ("antisymmetric", FULL, (0, 1), 2),
    ("reflexive", LT, (0,), 1),
    ("irreflexive", LE, (0,), 1),
]


@pytest.mark.parametrize(
    "name, r, witness, calls_per_element",
    EARLY_FAILURES,
    ids=[f"{name}-{r.name}" for name, r, _, _ in EARLY_FAILURES],
)
def test_early_failure_stays_early(name, r, witness, calls_per_element):
    counted, calls = _counted(r)
    assert property_witness(name, counted, carrier_range(0, 599)) == (name, witness)
    assert calls[0] <= calls_per_element * 600


# ---------------------------------------------------------------------------
# the pair properties of a table found ordered


def near_tournaments(rng, n, diagonal):
    """The transitive tournament of a random ranking of range(n), with
    r(x, x) == diagonal for every x; and, where n allows, the same with one
    pair of ranks two or more apart flipped, or one pair related both ways,
    which the score test refuses."""
    rank = rng.sample(range(n), n)
    by_rank = sorted(range(n), key=rank.__getitem__)
    loops = {(x, x) for x in range(n)} if diagonal else set()
    ordered = {(x, y) for x in range(n) for y in range(n) if rank[x] < rank[y]} | loops
    cases = {"ordered": ordered}
    if n >= 2:
        x, y = rng.choice(sorted(ordered - loops))
        cases["both ways"] = ordered | {(y, x)}
    if n >= 3:
        i = rng.randrange(n - 2)
        x, y = by_rank[i], by_rank[rng.randrange(i + 2, n)]
        cases["flipped"] = ordered - {(x, y)} | {(y, x)}
    return cases


@pytest.mark.parametrize("diagonal", [False, True], ids=["strict", "reflexive"])
def test_ordered_table_answers_every_property_as_the_reference(diagonal):
    """On ordered tournaments of 1-30 elements, carried in a random order,
    and on near-tournaments that fail the score test, every property gives
    the definitional loops' witness: through property_witness, and on one
    table whose ``ordered`` was read first, so that a lone pair property
    takes the tournament answer too.  The pair properties agree with the
    whole-row reference of conftest as well."""
    rng = random.Random(71 + diagonal)
    for n in range(1, 31):
        for kind, pairs in near_tournaments(rng, n, diagonal).items():
            r = relation_from_pairs(pairs)
            c = Carrier(tuple(rng.sample(range(n), n)))
            t = _Table(r, c)
            assert t.ordered == (kind == "ordered"), (n, kind)
            for name in PROPERTY_NAMES:
                expected = ref_property_witness(name, r, c)
                assert property_witness(name, r, c) == expected, (n, kind, name)
                assert _conjunctive_witness(_PARTS[name], t) == expected, (n, kind, name)
                if name in REFERENCE_PAIR_FAILS:
                    assert reference_pair_witness(name, r, c) == (expected and expected[1]), (n, kind, name)


def test_table_build_holds_each_answer_once():
    # a preorder that is no tournament on 0..999: the cells, 10^6 bytes,
    # are all the build keeps, and a row at a time is all it holds besides
    n = 1000
    t = _Table(Relation(lambda x, y: x // 2 <= y // 2, declared_reflexive=True), carrier_range(0, n - 1))
    tracemalloc.start()
    try:
        t.cells
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n
    # the conjuncts read the buffer as it was built
    assert _conjunctive_witness(_PARTS["preorder"], t) is None
    assert _conjunctive_witness(_PARTS["strict_weak_order"], t) == ("irreflexive", (0,))


# a strict weak order that is no tournament: x // 2 ties pairs
HALVES = Relation(lambda x, y: x // 2 < y // 2, name="halves")

ORDERED_CONJUNCTIONS = [
    # conjunction, relations whose table is ordered and reaches every pair
    # conjunct, a relation whose table is not ordered and reaches one
    ("total_order", (LE, GE), DIVIDES),
    ("strict_total_order", (LT, GT), HALVES),
    ("strict_weak_order", (LT, GT), HALVES),
]


@pytest.mark.parametrize(
    "name, ordered, other", ORDERED_CONJUNCTIONS, ids=[name for name, _, _ in ORDERED_CONJUNCTIONS]
)
def test_pair_conjuncts_of_an_ordered_table_read_no_line(monkeypatch, name, ordered, other):
    read = []
    line = _Table.line
    monkeypatch.setattr(_Table, "line", lambda t, *args: read.append(args) or line(t, *args))
    c = carrier_range(-3, 60)
    for r in ordered:
        assert property_witness(name, r, c) is None
    assert read == []
    assert property_witness(name, other, c) == ref_property_witness(name, other, c)
    assert read
