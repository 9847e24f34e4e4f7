"""Tests of the benchmark's oracles and checkers.

    python3 -m pytest -q perfbench/test_oracles.py

The oracles must agree with the program where the program is right, and each
checker must reject output that is mis-ordered, truncated or duplicated.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gradedorders  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from gradedorders.cli import main  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

FIXTURES = HERE / "fixtures"


def cli_output(*argv, stdin=None):
    result = CliRunner().invoke(main, list(argv), input=stdin)
    return result.exit_code, result.output.splitlines()


def feed_all(checker, lines):
    for line in lines:
        checker.feed(line)
    checker.finish()


@pytest.mark.parametrize("name", oracles.ORDER_NAMES)
def test_order_key_agrees_with_apply(name):
    order = getattr(gradedorders, name)(gradedorders.LT)
    key = oracles.ORDER_KEYS[name]
    for d in (1, 2, 3):
        box = list(product(range(4), repeat=d))
        for x in box:
            for y in box:
                assert order.apply(x, y) == (key(x) < key(y)), (name, x, y)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.txt")), ids=lambda p: p.name)
def test_matrix_key_agrees_with_weighted_apply(path):
    rows = oracles.read_fixture(path)
    order = gradedorders.weighted_relation(gradedorders.load_matrix(path), gradedorders.LT)
    key = oracles.matrix_key(rows)
    rng = random.Random(path.name)
    for _ in range(400):
        x = tuple(rng.randrange(4) for _ in rows)
        y = tuple(rng.randrange(4) for _ in rows)
        assert order.apply(x, y) == (key(x) < key(y)), (x, y)


def test_set_size_is_the_count_of_the_set():
    for d in (1, 2, 3, 4):
        for k in range(5):
            assert oracles.set_size(d, k) == sum(1 for a in product(range(k + 1), repeat=d) if sum(a) <= k)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("order", ["grlex", "grcolex", "grsymlex", "grevlex"])
def test_enumerate_checker(order, fmt):
    argv = ["enumerate", "--d", "3", "--k", "3", "--order", order, "--format", fmt, "--allow-sort-fallback"]
    code, lines = cli_output(*argv)
    assert code == 0
    lines = [line for line in lines if not line.startswith("note:")]
    make = lambda: oracles.EnumerateChecker(oracles.ORDER_KEYS[order], 3, 3, fmt)  # noqa: E731
    feed_all(make(), lines)
    body = 1 if fmt == "csv" else 0
    swapped = lines[: body + 4] + [lines[body + 5], lines[body + 4]] + lines[body + 6:]
    truncated = lines[:-1]
    duplicated = lines[: body + 4] + [lines[body + 4]] + lines[body + 4:]
    for bad in (swapped, truncated, duplicated):
        with pytest.raises(CheckFailed):
            feed_all(make(), bad)


def test_enumerate_checker_rejects_wrong_fields():
    checker = oracles.EnumerateChecker(oracles.ORDER_KEYS["grlex"], 2, 1, "csv")
    checker.feed("i0,i1,sum,rank")
    with pytest.raises(CheckFailed):
        checker.feed("0,0,0,1")  # rank 1 for the first entry
    with pytest.raises(CheckFailed):
        oracles.EnumerateChecker(oracles.ORDER_KEYS["grlex"], 2, 1, "jsonl").feed('{"index": [0, 0], "sum": 1, "rank": 0}')


@pytest.mark.parametrize("order", list(oracles.ORDER_NAMES) + ["weighted"])
def test_sorted_terms_checker(order):
    d = 3
    if order == "weighted":
        order = f"weighted:{FIXTURES / 'w3.txt'}"
    text, terms = workloads.make_poly(7, d, 12)
    code, lines = cli_output("sort-terms", "--d", str(d), "--order", order, stdin=text)
    assert code == 0 and len(lines) == 1
    key = oracles.order_key(order)
    make = lambda: oracles.SortedTermsChecker(key, terms, d)  # noqa: E731
    feed_all(make(), lines)
    written = list(oracles.read_poly(lines[0], d))
    swapped = written[:3] + [written[4], written[3]] + written[5:]
    for bad in (swapped, written[:-1], written[:5] + [written[5]] + written[5:]):
        with pytest.raises(CheckFailed):
            feed_all(make(), [oracles.write_poly(bad, d, alias=True)])
    with pytest.raises(CheckFailed):
        feed_all(make(), [])


def test_poly_text_round_trip():
    for d in (2, 3, 5, 8):
        text, terms = workloads.make_poly(d, d, 40)
        assert dict(oracles.read_poly(text, d)) == terms
        assert gradedorders.parse_poly(text, d).terms == terms
        assert oracles.write_poly([((0,) * d, Fraction(-1))], d, alias=False) == "-1"


@pytest.mark.parametrize("prop", oracles.PROPERTY_NAMES)
@pytest.mark.parametrize("relation", list(oracles.RELATIONS))
def test_property_oracle_matches_check(prop, relation):
    code, lines = cli_output("check", "--property", prop, "--relation", relation, "--carrier", "0..7")
    oracles.check_check_output(lines[0], prop, relation, 0, 7, code)


def test_check_checker_rejects_wrong_verdicts_and_witnesses():
    with pytest.raises(CheckFailed):  # lt is transitive
        oracles.check_check_output("FAIL transitive(lt) on 0..4: transitive fails at (0, 1, 2)", "transitive", "lt", 0, 4, 1)
    with pytest.raises(CheckFailed):  # le is not irreflexive
        oracles.check_check_output("PASS irreflexive(le) on 0..4", "irreflexive", "le", 0, 4, 0)
    with pytest.raises(CheckFailed):  # (1, 2) does not violate connectedness of divides
        oracles.check_check_output("FAIL connected(divides) on 1..4: connected fails at (1, 2)", "connected", "divides", 1, 4, 1)
    with pytest.raises(CheckFailed):  # reflexive is no conjunct of a strict order
        oracles.check_check_output("FAIL strict_total_order(le) on 0..4: reflexive fails at (0,)",
                                   "strict_total_order", "le", 0, 4, 1)
    with pytest.raises(CheckFailed):  # truncated
        oracles.check_check_output("FAIL irreflexive(le) on 0..4", "irreflexive", "le", 0, 4, 1)


def test_cubic_property_oracle_against_brute_force():
    rng = random.Random(3)
    elems = range(5)
    for _ in range(300):
        pairs = {(x, y) for x in elems for y in elems if rng.random() < 0.5}
        r = lambda x, y: (x, y) in pairs  # noqa: E731
        for prop in oracles.CUBIC:
            _, bad = oracles.VIOLATES[prop]
            brute = not any(bad(r, x, y, z) for x in elems for y in elems for z in elems)
            assert oracles._holds(prop, r, elems) == brute


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_requests_repeat_on_a_seed_and_come_in_whole_rounds(workload):
    make = workloads.WORKLOADS[workload]
    first = [(r.kind, r.items) for r in make(5, 4)]
    assert first == [(r.kind, r.items) for r in make(5, 4)]
    once = Counter({"enumerate-peak": 1}) if workload == "enumerate" else Counter()
    per_round = Counter(kind for kind, _ in first) - once
    assert Counter(r.kind for r in make(6, 8)) == Counter({k: 2 * n for k, n in per_round.items()}) + once
