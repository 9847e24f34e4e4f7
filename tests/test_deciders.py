"""The table-based property deciders against the definitional loops they
replace, and the bound on how often they ask the relation."""

import operator
import random
import sys
from collections import Counter
from functools import partial
from itertools import compress, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_PAIR_FAILS, all_relations, reference_pair_witness, relation_from_pairs

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
    find_incomparable,
    is_monomial_nonstrict_order,
    is_monomial_order,
    is_plus_reg_r,
    matrix_for,
    weighted_lt,
)
from gradedorders import weighted
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


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
def test_plus_compat_r_witness_matches_reference(monoid):
    for r in [LT, LE, GT, DIVIDES, EMPTY] + [_scrambled(seed) for seed in range(6)]:
        for c in (carrier_range(0, 5), carrier_range(1, 4), Carrier((3, 0, 2)), Carrier(())):
            assert plus_compat_r_witness(r, monoid, c) == ref_plus_compat_r_witness(r, monoid, c)
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


def test_matrix_for_rejects_a_wrong_candidate(monkeypatch):
    right = weighted._candidate_columns

    def wrong(order_name, d):
        return right(order_name, d)[::-1]

    monkeypatch.setattr(weighted, "_candidate_columns", wrong)
    for name in ("grlex", "grevlex", "grsymlex", "grcolex"):
        for d in (2, 3):
            with pytest.raises(AssertionError, match=f"candidate matrix for {name} disagrees"):
                matrix_for(name, d)


GRADED_MATRIX_NAMES = ("grlex", "grevlex", "grsymlex", "grcolex")


def _reversed_candidates(monkeypatch):
    right = weighted._candidate_columns
    monkeypatch.setattr(weighted, "_candidate_columns", lambda order_name, d: right(order_name, d)[::-1])


def test_matrix_for_validates_a_changed_candidate_after_a_pass(monkeypatch):
    for name in GRADED_MATRIX_NAMES:
        for d in (2, 3):
            matrix_for(name, d)
    _reversed_candidates(monkeypatch)
    for name in GRADED_MATRIX_NAMES:
        for d in (2, 3):
            with pytest.raises(AssertionError, match=f"candidate matrix for {name} disagrees"):
                matrix_for(name, d)


def test_matrix_for_rejects_a_wrong_candidate_on_every_call(monkeypatch):
    _reversed_candidates(monkeypatch)
    for _ in range(2):
        with pytest.raises(AssertionError, match="candidate matrix for grlex disagrees"):
            matrix_for("grlex", 2)


# grlex and grevlex agree on two variables: on equal sums a larger first
# component is a smaller last one
@pytest.mark.parametrize("d, other", [(2, "grcolex"), (3, "grevlex")])
def test_matrix_for_validates_against_a_replaced_builder(monkeypatch, d, other):
    matrix_for("grlex", d)
    # the package attribute `graded` is the grading function, not the module
    module = sys.modules["gradedorders.graded"]
    monkeypatch.setattr(module, "grlex", getattr(module, other))
    with pytest.raises(AssertionError, match="candidate matrix for grlex disagrees"):
        matrix_for("grlex", d)


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
