"""Checking oracles for the benchmark, written apart from the program.

Nothing here imports `gradedorders`.  Every order on N^d that the program
names is the lexicographic comparison of a linear key vector (its weight
matrix, after Robbiano, "Term orderings on the polynomial ring", EUROCAL
1985; Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, 2.2), so each
order is checked through a sort key.  Relation properties are checked by
evaluating their textbook definitions.

The streaming checkers take the program's stdout one line at a time and keep
only what the next line needs (the previous key, a count), never the output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Sequence, Tuple

Key = Callable[[Sequence[int]], tuple]


class CheckFailed(AssertionError):
    """The program's output disagrees with an oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# order keys from the weight-matrix forms


def _grade(inner: Key) -> Key:
    return lambda a: (sum(a),) + inner(a)


_LEX: Key = lambda a: tuple(a)
_COLEX: Key = lambda a: tuple(a[::-1])
_SYMLEX: Key = lambda a: tuple(-c for c in a)
_REVLEX: Key = lambda a: tuple(-c for c in a[::-1])

ORDER_KEYS: Dict[str, Key] = {
    "lex": _LEX,
    "colex": _COLEX,
    "symlex": _SYMLEX,
    "revlex": _REVLEX,
    "grlex": _grade(_LEX),
    "grcolex": _grade(_COLEX),
    "grsymlex": _grade(_SYMLEX),
    "grevlex": _grade(_REVLEX),
}
ORDER_NAMES = tuple(ORDER_KEYS)


def read_fixture(path) -> Tuple[Tuple[int, ...], ...]:
    """Rows of a weight-matrix fixture: header 'd m', then d rows of m ints."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.split() for line in handle if line.strip()]
    d, m = int(lines[0][0]), int(lines[0][1])
    rows = tuple(tuple(int(tok) for tok in line) for line in lines[1:])
    if len(rows) != d or any(len(row) != m for row in rows):
        raise ValueError(f"malformed fixture {path}")
    return rows


def matrix_key(rows: Sequence[Sequence[int]]) -> Key:
    """The tuple of column dot products."""
    columns = tuple(zip(*rows))

    def key(a):
        return tuple(sum(x * w for x, w in zip(a, col)) for col in columns)

    return key


def order_key(name: str) -> Key:
    """Key for a named order or for 'weighted:FILE'."""
    if name.startswith("weighted:"):
        return matrix_key(read_fixture(name.split(":", 1)[1]))
    return ORDER_KEYS[name]


def verdict(key: Key, x, y) -> str:
    """LT / GT / EQ / INCOMPARABLE as the key order decides it."""
    if tuple(x) == tuple(y):
        return "EQ"
    kx, ky = key(x), key(y)
    if kx < ky:
        return "LT"
    if kx > ky:
        return "GT"
    return "INCOMPARABLE"


def set_size(d: int, k: int) -> int:
    """|{a in N^d : |a| <= k}| by stars and bars."""
    return comb(d + k, d)


# ---------------------------------------------------------------------------
# enumerate


class EnumerateChecker:
    """Checks the stdout of `enumerate` line by line: length, naturals, sum
    bound, the csv/jsonl `sum` and `rank` fields, strict ascent under the
    oracle key, and the count."""

    def __init__(self, key: Key, d: int, k: int, fmt: str):
        self.key, self.d, self.k, self.fmt = key, d, k, fmt
        self.count = 0
        self.prev = None
        self.header = fmt != "csv"

    def feed(self, line: str) -> None:
        if not self.header:
            expect(line == ",".join([f"i{j}" for j in range(self.d)] + ["sum", "rank"]),
                   f"bad csv header {line!r}")
            self.header = True
            return
        if self.fmt == "jsonl":
            record = json.loads(line)
            entry = tuple(record["index"])
            fields = (record["sum"], record["rank"])
        else:
            values = tuple(map(int, line.split(",")))
            entry = values[: self.d]
            fields = values[self.d:]
        total = sum(entry)
        # Plain conditions first: a failing check builds its message only then.
        if (len(entry) != self.d or min(entry) < 0 or total > self.k
                or (self.fmt != "plain" and fields != (total, self.count))
                or (self.fmt == "plain" and fields)):
            raise CheckFailed(f"entry {self.count} {line!r}: wrong length, negative part, sum above {self.k}"
                              f" or wrong sum/rank fields")
        key = self.key(entry)
        if self.prev is not None and not self.prev < key:
            raise CheckFailed(f"entry {self.count} {entry} is not above its predecessor")
        self.prev = key
        self.count += 1

    def finish(self) -> None:
        expect(self.header, "missing csv header")
        want = set_size(self.d, self.k)
        expect(self.count == want, f"{self.count} entries, expected comb(d+k, d) = {want}")


# ---------------------------------------------------------------------------
# polynomial text, written and read independently of the program's parser

_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")
_FACTOR_RE = re.compile(r"^(?:(X\d*|Y|Z)(?:\^(\d+))?|(\d+(?:/\d+)?))$")


def var_name(i: int, d: int, alias: bool) -> str:
    return "XYZ"[i] if alias and d <= 3 else f"X{i}"


def write_poly(terms: Sequence[Tuple[Tuple[int, ...], Fraction]], d: int, alias: bool) -> str:
    """Render terms in the given order, e.g. '3*X0^2*X1 - 1/2*X2 + 7'."""
    parts = []
    for exps, coef in terms:
        factors = [str(abs(coef))] if abs(coef) != 1 or not any(exps) else []
        for i, e in enumerate(exps):
            if e:
                name = var_name(i, d, alias)
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(("- " if coef < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def read_poly(text: str, d: int):
    """Yield (exponents, coefficient) pairs of a rendered polynomial, in the
    order written; coefficients are ints or Fractions."""
    aliases = {"X": 0, "Y": 1, "Z": 2} if d <= 3 else {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None:
            raise CheckFailed(f"unreadable polynomial at {pos}: {text[pos:pos + 20]!r}")
        coef = -1 if match.group(1) == "-" else 1
        exps = [0] * d
        for factor in match.group(2).strip().split("*"):
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise CheckFailed(f"unreadable factor {factor!r}")
            if m.group(3):
                num, _, den = m.group(3).partition("/")
                coef *= Fraction(int(num), int(den)) if den else int(num)
            else:
                name = m.group(1)
                index = aliases[name] if name in aliases else int(name[1:])
                exps[index] += int(m.group(2) or 1)
        yield tuple(exps), coef
        pos = match.end()


class SortedTermsChecker:
    """Checks a `sort-terms` output line: a permutation of the expected terms
    with their coefficients, strictly ascending under the oracle key.  Strict
    ascent rules out repeats, so with the count it makes a permutation."""

    def __init__(self, key: Key, expected: Dict[Tuple[int, ...], Fraction], d: int):
        self.key, self.expected, self.d = key, expected, d
        self.lines = 0

    def feed(self, line: str) -> None:
        self.lines += 1
        expect(self.lines == 1, "sort-terms printed more than one line")
        count = 0
        prev = None
        for exps, coef in read_poly(line, self.d):
            if self.expected.get(exps) != coef:
                raise CheckFailed(f"term {exps} with coefficient {coef} is not expected")
            key = self.key(exps)
            if prev is not None and not prev < key:
                raise CheckFailed(f"term {exps} is not above its predecessor")
            prev = key
            count += 1
        expect(count == len(self.expected), f"{count} terms, expected {len(self.expected)}")

    def finish(self) -> None:
        expect(self.lines == 1, "sort-terms printed no line")


# ---------------------------------------------------------------------------
# relations and their properties, by definition

RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "lt": lambda x, y: x < y,
    "le": lambda x, y: x <= y,
    "gt": lambda x, y: x > y,
    "ge": lambda x, y: x >= y,
    "divides": lambda x, y: y == 0 if x == 0 else y % x == 0,
}

# Each elementary property as "does this tuple violate it?"
VIOLATES: Dict[str, Tuple[int, Callable]] = {
    "reflexive": (1, lambda r, x: not r(x, x)),
    "irreflexive": (1, lambda r, x: r(x, x)),
    "transitive": (3, lambda r, x, y, z: r(x, y) and r(y, z) and not r(x, z)),
    "negatively_transitive": (3, lambda r, x, y, z: not r(x, y) and not r(y, z) and r(x, z)),
    "antisymmetric": (2, lambda r, x, y: r(x, y) and r(y, x) and x != y),
    "asymmetric": (2, lambda r, x, y: r(x, y) and r(y, x)),
    "connected": (2, lambda r, x, y: x != y and not r(x, y) and not r(y, x)),
    "strongly_connected": (2, lambda r, x, y: not r(x, y) and not r(y, x)),
    "trichotomous": (2, lambda r, x, y: (r(x, y) + r(y, x) + (x == y)) != 1),
}
CUBIC = ("transitive", "negatively_transitive")

# The defining conjuncts of each compound property.
DEFINITIONS: Dict[str, Tuple[str, ...]] = {
    **{name: (name,) for name in VIOLATES},
    "preorder": ("reflexive", "transitive"),
    "partial_order": ("reflexive", "transitive", "antisymmetric"),
    "total_order": ("reflexive", "transitive", "antisymmetric", "strongly_connected"),
    "strict_weak_order": ("irreflexive", "transitive", "negatively_transitive"),
    "strict_total_order": ("irreflexive", "transitive", "connected"),
}

# Elementary properties every relation with the compound property has; a
# counterexample to any of them refutes the compound property.
IMPLIED: Dict[str, Tuple[str, ...]] = {
    **DEFINITIONS,
    "total_order": DEFINITIONS["total_order"] + ("connected", "negatively_transitive"),
    "strict_weak_order": DEFINITIONS["strict_weak_order"] + ("asymmetric", "antisymmetric"),
    "strict_total_order": DEFINITIONS["strict_total_order"]
    + ("asymmetric", "antisymmetric", "negatively_transitive", "trichotomous"),
}
PROPERTY_NAMES = tuple(DEFINITIONS)


def _holds(prop: str, r, elems) -> bool:
    arity, bad = VIOLATES[prop]
    if arity == 1:
        return not any(bad(r, x) for x in elems)
    if arity == 2:
        return not any(bad(r, x, y) for x in elems for y in elems)
    # Cubic: as relation composition on successor bitmasks, S(x) the set of y
    # with r(x, y).  Transitive iff S(y) is inside S(x) whenever y is in S(x).
    # Negative transitivity is transitivity of the complement.
    neg = prop == "negatively_transitive"
    masks = []
    for x in elems:
        mask = 0
        for j, y in enumerate(elems):
            if r(x, y) != neg:
                mask |= 1 << j
        masks.append(mask)
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            if masks[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
    return True


def property_holds(prop: str, relation: str, lo: int, hi: int) -> bool:
    r = RELATIONS[relation]
    elems = range(lo, hi + 1)
    return all(_holds(part, r, elems) for part in DEFINITIONS[prop])


_CHECK_RE = re.compile(r"^(PASS|FAIL) (\w+)\((\w+)\) on (-?\d+)\.\.(-?\d+)(?:: (\w+) fails at \(([^)]*)\))?$")


def check_check_output(line: str, prop: str, relation: str, lo: int, hi: int, exit_code: int) -> None:
    """A `check` verdict line: the verdict and exit code agree with the
    definition; a FAIL names a conjunct of the property and a witness from
    the carrier that violates it."""
    m = _CHECK_RE.match(line)
    expect(m is not None, f"unreadable check output {line!r}")
    expect((m.group(2), m.group(3), int(m.group(4)), int(m.group(5))) == (prop, relation, lo, hi),
           f"check output {line!r} names the wrong query")
    holds = property_holds(prop, relation, lo, hi)
    expect((m.group(1) == "PASS") == holds, f"{prop}({relation}) on {lo}..{hi} is {holds}, got {line!r}")
    expect(exit_code == (0 if holds else 1), f"exit code {exit_code} for {line!r}")
    if not holds:
        conjunct = m.group(6)
        expect(conjunct in IMPLIED[prop], f"{conjunct!r} is not a conjunct of {prop}")
        witness = tuple(int(tok) for tok in m.group(7).replace(",", " ").split())
        arity, bad = VIOLATES[conjunct]
        expect(len(witness) == arity and all(lo <= w <= hi for w in witness),
               f"witness {witness} is not an {arity}-tuple of the carrier")
        expect(bad(RELATIONS[relation], *witness), f"witness {witness} does not violate {conjunct}")
