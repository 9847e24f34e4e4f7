"""The three workloads: seeded request lists, and how each request is run and
checked.

A run replays a fixed list of requests, one at a time.  The list is made of
whole rounds: every round holds one request of each kind of its workload, so
the mix, and the share of requests that fail, is the same in every run.
Sizes are spread log-uniformly over each kind's range, stratified: the i-th
request of a kind takes its size from the middle of the i-th of n equal
slices, and its dimension from a fixed cycle.  The set of request sizes is
therefore nearly the same on every seed and latencies spread smoothly; the
seed draws the contents (terms, coefficients, pairs, carriers), the small
jitter of each size, and the order of the requests.  Inputs are built just
before each request and dropped after it, so the benchmark holds no more
than one request's data.
"""

from __future__ import annotations

import io
import math
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from time import perf_counter_ns
from typing import Callable, Optional

import click

import oracles
from oracles import CheckFailed, expect

FIXTURES = "perfbench/fixtures"
DIMS = (2, 3, 4, 5, 6, 7, 8)
ORDERS = oracles.ORDER_NAMES
SLICE_ORDERS = ("grlex", "grcolex", "grsymlex")
FALLBACK_ORDERS = ("lex", "colex", "symlex", "revlex", "grevlex")
FORMATS = ("plain", "csv", "jsonl")
RELATIONS = tuple(oracles.RELATIONS)
CUBIC_PROPERTIES = tuple(p for p, parts in oracles.DEFINITIONS.items() if set(parts) & set(oracles.CUBIC))
# A d=3 matrix against families of length 2: documented as exit 2 with one
# line, the same on every seed.
WRONG_DIMENSION = ["compare", "--order", f"weighted:{FIXTURES}/w3.txt", "1,2", "3,4"]
# The largest enumeration of a run, the same on every seed, so that peak
# memory is set by the entries the command holds and not by the draw.
PEAK_ENUMERATION = (8, 13, "grlex", "plain")


@dataclass
class Request:
    kind: str
    items: int
    make: Callable  # (Runner) -> Outcome; runs the request and checks it


@dataclass
class Outcome:
    ns: int
    items: int
    failed: bool
    error: Optional[str] = None


def weighted_fixture(kind: str, d: int) -> str:
    return f"weighted:{FIXTURES}/{kind}{d}.txt"


def _sizes(rng, n, lo, hi):
    """n log-uniform sizes in [lo, hi], the i-th from the middle fifth of the
    i-th of n equal slices."""
    span = math.log(hi / lo)
    return [lo * math.exp((i + 0.4 + 0.2 * rng.random()) / n * span) for i in range(n)]


def _closest_k(d, target):
    """k whose set size comb(d+k, d) is closest to target on a log scale."""
    k = 0
    while oracles.set_size(d, k + 1) <= target:
        k += 1
    below, above = oracles.set_size(d, k), oracles.set_size(d, k + 1)
    return k if math.log(target / below) <= math.log(above / target) else k + 1


def _stratified(rng, rounds, lo, hi, offset, dims=DIMS):
    """(size, d) for round i of one kind: every stretch of sizes gets every
    dimension in turn, starting at a fixed offset per kind."""
    return [(size, dims[(i + offset) % len(dims)]) for i, size in enumerate(_sizes(rng, rounds, lo, hi))]


def make_poly(seed, d, n):
    """n distinct terms of total degree <= D in d variables, with D the least
    degree whose monomial count is at least 3n; nonzero integer and rational
    coefficients (ints or Fractions); written in a shuffled order."""
    rng = random.Random(seed)
    degree = 0
    while oracles.set_size(d, degree) < 3 * n:
        degree += 1
    terms = {}
    draw = rng.random
    while len(terms) < n:
        total = int(draw() * (degree + 1))
        parts = sorted(int(draw() * (total + 1)) for _ in range(d - 1))
        exps = tuple(b - a for a, b in zip([0] + parts, parts + [total]))
        if exps in terms:
            continue
        num = (1 + int(draw() * 9)) * (1 if draw() < 0.5 else -1)
        den = (1, 1, 1, 2, 3, 7)[int(draw() * 6)]
        terms[exps] = Fraction(num, den) if den > 1 else num
    items = list(terms.items())
    rng.shuffle(items)
    return oracles.write_poly(items, d, alias=rng.random() < 0.5), terms


class LineSink(io.TextIOBase):
    """Stdout for the CLI: splits text into lines and feeds a checker.  It
    keeps no more than the current partial line, and times its own work so
    the request's latency can leave it out."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.start(None)

    def start(self, checker):
        self.checker = checker
        self.partial = ""
        self.check_ns = 0
        self.first_ns = None
        self.error = None
        self.lines = 0

    @property
    def encoding(self):
        return "utf-8"

    def writable(self):
        return True

    def write(self, text):
        if not isinstance(text, str):
            raise TypeError("LineSink takes text")
        now = perf_counter_ns()
        if self.first_ns is None and text:
            self.first_ns = now
        lines = (self.partial + text).split("\n")
        self.partial = lines.pop()
        self.lines += len(lines)
        if self.checker is not None and self.error is None:
            try:
                for line in lines:
                    self.checker.feed(line)
            except (CheckFailed, ValueError, KeyError, IndexError) as exc:
                self.error = f"{type(exc).__name__}: {exc}"
        took = perf_counter_ns() - now
        self.check_ns += took
        if self.tracer is not None:
            self.tracer.exclude(took)
        return len(text)

    def finish(self):
        if self.partial:
            self.write("\n")
        if self.checker is not None and self.error is None:
            try:
                self.checker.finish()
            except CheckFailed as exc:
                self.error = f"CheckFailed: {exc}"


class LastLine:
    """Keeps the last line of a short output (one verdict line)."""

    line = None

    def feed(self, line):
        self.line = line

    def finish(self):
        expect(self.line is not None, "no output line")


class Runner:
    """Runs requests against the CLI's `main`, in this process, one at a time."""

    def __init__(self, lib, main, tracer=None):
        self.lib, self.main, self.tracer = lib, main, tracer
        self.out = LineSink(tracer)
        self.err = LineSink(tracer)
        self.cli_requests = 0

    def cli(self, argv, checker, stdin=None):
        """Invoke the CLI; return (ns excluding checker time, exit code,
        error text)."""
        out, err = self.out, self.err
        out.start(checker)
        err.start(None)
        saved = sys.stdout, sys.stderr, sys.stdin
        sys.stdout, sys.stderr = out, err
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        code, message = 0, None
        start = perf_counter_ns()
        try:
            if self.tracer is not None:
                self.tracer.span("cli", "main", self.main.main, args=argv, standalone_mode=False)
            else:
                self.main.main(args=argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            code, message = exc.exit_code, exc.format_message()
        except Exception:  # what the CLI process would die of: exit 1, traceback
            code, message = 1, traceback.format_exc()
        finally:
            took = perf_counter_ns() - start
            sys.stdout, sys.stderr, sys.stdin = saved
        self.cli_requests += 1
        if self.tracer is not None and out.first_ns is not None:
            self.tracer.first_line_ns.append(out.first_ns - start)
        took -= out.check_ns + err.check_ns
        out.finish()
        return took, code, message

    def cli_checked(self, argv, checker, stdin=None):
        took, code, message = self.cli(argv, checker, stdin)
        expect(self.out.error is None, f"{' '.join(argv)}: {self.out.error}")
        expect(code == 0, f"{' '.join(argv)}: exit {code}: {message}")
        return took

    def run(self, request: Request) -> Outcome:
        try:
            return request.make(self)
        except Exception as exc:  # a check failed, or a library call raised
            return Outcome(0, request.items, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# enumerate


def _enumerate(d, k, order, fmt, fallback=False, kind=None):
    argv = ["enumerate", "--d", str(d), "--k", str(k), "--order", order, "--format", fmt]
    if fallback:
        argv.append("--allow-sort-fallback")
    items = oracles.set_size(d, k)

    def make(runner):
        checker = oracles.EnumerateChecker(oracles.order_key(order), d, k, fmt)
        return Outcome(runner.cli_checked(argv, checker), items, False)

    return Request(kind or ("fallback" if fallback else "enumerate"), items, make)


def enumerate_requests(seed, rounds):
    rng = random.Random(f"enumerate:{seed}")
    requests = []
    for j, (order, fmt) in enumerate(product(SLICE_ORDERS, FORMATS)):
        for size, d in _stratified(rng, rounds, 300, 20000, offset=j):
            requests.append(_enumerate(d, _closest_k(d, size), order, fmt))
    rng.shuffle(requests)
    requests.append(_enumerate(*PEAK_ENUMERATION, kind="enumerate-peak"))
    return requests


# ---------------------------------------------------------------------------
# polysort


def _sort_terms(order, d, n, seed):
    def make(runner):
        text, terms = make_poly(seed, d, n)
        checker = oracles.SortedTermsChecker(oracles.order_key(order), terms, d)
        return Outcome(runner.cli_checked(["sort-terms", "--d", str(d), "--order", order], checker, text), n, False)

    return Request("sort-terms", n, make)


def build_order(lib, order):
    if order.startswith("weighted:"):
        return lib.weighted_relation(lib.load_matrix(order.split(":", 1)[1]), lib.LT)
    return getattr(lib, order)(lib.LT)


def _poly_library(order, d, n, seed):
    """parse_poly, leading_term and monomial_mul through the library."""

    def make(runner):
        lib = runner.lib
        text, terms = make_poly(seed, d, n)
        gamma = tuple(random.Random(seed + 1).randrange(4) for _ in range(d))
        start = perf_counter_ns()
        p = lib.parse_poly(text, d)
        lead = lib.leading_term(p, build_order(lib, order))
        shifted = lib.monomial_mul(p, gamma)
        took = perf_counter_ns() - start
        expect(p.terms == terms, f"parse_poly of {n} terms in d={d} differs from the generated terms")
        key = oracles.order_key(order)
        top = max(terms, key=key)
        expect((lead.exponents, lead.coefficient) == (top, terms[top]),
               f"leading term under {order} is {lead.exponents}, expected {top}")
        expect(shifted.terms == {tuple(e + g for e, g in zip(exps, gamma)): c for exps, c in terms.items()},
               f"monomial_mul by {gamma} does not shift every exponent")
        return Outcome(took, n, False)

    return Request("poly-library", n, make)


def polysort_requests(seed, rounds):
    rng = random.Random(f"polysort:{seed}")
    orders = list(ORDERS) + ["weighted"]
    requests = []
    for j, o in enumerate(orders):
        for n, d in _stratified(rng, rounds, 30, 1200, offset=j):
            order = weighted_fixture("w", d) if o == "weighted" else o
            requests.append(_sort_terms(order, d, round(n), rng.randrange(1 << 30)))
    for j, o in enumerate(FALLBACK_ORDERS):
        for i, (size, d) in enumerate(_stratified(rng, rounds, 60, 2000, offset=j, dims=(2, 3, 4, 5, 6))):
            requests.append(_enumerate(d, _closest_k(d, size), o, FORMATS[(i + j) % len(FORMATS)], fallback=True))
    for j in range(2):
        for i, (n, d) in enumerate(_stratified(rng, rounds, 30, 1200, offset=3 * j)):
            o = orders[(2 * i + j) % len(orders)]
            order = weighted_fixture("w", d) if o == "weighted" else o
            requests.append(_poly_library(order, d, round(n), rng.randrange(1 << 30)))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# decide


def _compare_batch(order, queries):
    argvs = [["compare", "--order", order, ",".join(map(str, x)), ",".join(map(str, y))] for x, y in queries]

    def make(runner):
        key = oracles.order_key(order)
        took = 0
        for argv, (x, y) in zip(argvs, queries):
            line = LastLine()
            took += runner.cli_checked(argv, line)
            want = oracles.verdict(key, x, y)
            expect(line.line == want, f"compare {order} {x} {y}: got {line.line}, expected {want}")
        return Outcome(took, len(queries), False)

    return Request("compare", len(queries), make)


def _wrong_dimension():
    def make(runner):
        took, code, message = runner.cli(WRONG_DIMENSION, None)
        ok = code == 2 and message is not None and len(message.strip().splitlines()) == 1
        return Outcome(took, 1, not ok, None if ok else f"{' '.join(WRONG_DIMENSION)}: exit {code}, expected 2 with one line")

    return Request("compare-wrong-dimension", 1, make)


def _check(prop, lo, hi):
    """CLI `check` of one property for each relation on one carrier."""
    argvs = [["check", "--property", prop, "--relation", relation, "--carrier", f"{lo}..{hi}"]
             for relation in RELATIONS]

    def make(runner):
        took = 0
        for argv, relation in zip(argvs, RELATIONS):
            line = LastLine()
            ns, code, message = runner.cli(argv, line)
            expect(runner.out.error is None and line.line is not None, f"{' '.join(argv)}: exit {code}: {message}")
            oracles.check_check_output(line.line, prop, relation, lo, hi, code)
            took += ns
        return Outcome(took, len(RELATIONS), False)

    return Request("check", len(RELATIONS), make)


def _order_library(order, d, carrier, fixture, bound):
    """is_monomial_order with the order's apply over a carrier of the box,
    matrix_for, and find_incomparable on a fixture matrix."""

    def make(runner):
        lib = runner.lib
        start = perf_counter_ns()
        relation = lib.Relation(build_order(lib, order).apply, name=order)
        monoid = lib.Monoid((0,) * d, lib.family_add)
        monomial = lib.is_monomial_order(relation, monoid, lib.Carrier(carrier))
        try:
            matrix = lib.matrix_for(order, d)
        except ValueError:  # no matrix encoding for this order
            matrix = None
        pair = lib.find_incomparable(lib.load_matrix(fixture), lib.LT, bound)
        took = perf_counter_ns() - start
        expect(monomial, f"is_monomial_order({order}) is False on {len(carrier)} elements in d={d}")
        if matrix is not None:
            mkey, okey = oracles.matrix_key(matrix.rows), oracles.ORDER_KEYS[order]
            box = list(product(range(3), repeat=d))
            expect(all((mkey(x) < mkey(y)) == (okey(x) < okey(y)) for x in box for y in box),
                   f"matrix_for({order}, {d}) orders [0..2]^{d} differently")
        key = oracles.matrix_key(oracles.read_fixture(fixture))
        if pair is None:
            seen = {}
            for x in product(range(bound + 1), repeat=d):
                expect(seen.setdefault(key(x), x) == x, f"find_incomparable({fixture}) missed {seen.get(key(x))}, {x}")
        else:
            x, y = pair
            expect(x != y and key(x) == key(y) and max(x + y) <= bound,
                   f"find_incomparable({fixture}) returned the comparable pair {x}, {y}")
        return Outcome(took, 3, False)

    return Request("order-library", 3, make)


def _queries(rng, d, count):
    """Pairs in [0..5]^d: a tenth equal, three tenths of equal degree."""
    queries = []
    for _ in range(count):
        x = tuple(rng.randrange(6) for _ in range(d))
        draw = rng.random()
        if draw < 0.1:
            y = x
        elif draw < 0.4:
            y = tuple(rng.sample(x, d))
        else:
            y = tuple(rng.randrange(6) for _ in range(d))
        queries.append((x, y))
    return queries


def decide_requests(seed, rounds):
    rng = random.Random(f"decide:{seed}")
    requests = [_wrong_dimension() for _ in range(rounds)]
    for j, o in enumerate(list(ORDERS) + ["w", "flat"]):
        for size, d in _stratified(rng, rounds, 6, 80, offset=j):
            order = weighted_fixture(o, d) if o in ("w", "flat") else o
            requests.append(_compare_batch(order, _queries(rng, d, round(size))))
    for prop in oracles.PROPERTY_NAMES:
        lo, hi = (15, 90) if prop in CUBIC_PROPERTIES else (100, 600)
        for size in _sizes(rng, rounds, lo, hi):
            start = rng.randrange(3)
            requests.append(_check(prop, start, start + round(size) - 1))
    for j, o in enumerate(ORDERS):
        for i, (n, d) in enumerate(_stratified(rng, rounds, 8, 22, offset=j, dims=(2, 3))):
            bound = 4 if d == 2 else 2
            box = list(product(range(bound + 1), repeat=d))
            fixture = f"{FIXTURES}/{'w' if i % 2 else 'flat'}{d}.txt"
            requests.append(_order_library(o, d, tuple(rng.sample(box, round(n))), fixture, bound + i % 2))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "enumerate": enumerate_requests,
    "polysort": polysort_requests,
    "decide": decide_requests,
}
