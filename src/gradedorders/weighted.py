"""Matrix-defined orders: comparison by successive weighted projections.

A weight matrix has one row per vector component and one column per weight
vector.  Two vectors are compared by their dot products against the columns,
left to right; the first column with differing projections decides via the
scalar order, equal projections fall through to the next column, and running
out of columns yields False.

All arithmetic is exact (integers, or Fractions); equality of projections
must be exact for the column recursion to make sense, so no floats are
accepted.

matrix_for builds the matrices of the named orders from the same scheme
flags and grading bit that define their combinators.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Optional, Tuple

from .families import SCHEMES, Family, LengthMismatchError, is_strict_less
from .graded import NAMED_ORDERS
from .relations import LT, Carrier, Relation, property_witness

_EXACT_TYPES = (int, Fraction)


@dataclass(frozen=True)
class WeightMatrix:
    """Rectangular exact-entry matrix; rows index vector components, columns
    index weight vectors."""

    rows: Tuple[Tuple, ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("weight matrix needs at least one row")
        if len(set(map(len, rows))) != 1:
            raise ValueError("weight matrix rows have inconsistent lengths")
        for row in rows:
            for entry in row:
                if not isinstance(entry, _EXACT_TYPES):
                    raise TypeError(f"inexact matrix entry {entry!r}")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> Tuple:
        return tuple(row[j] for row in self.rows)

    def scale_column(self, j: int, factor) -> "WeightMatrix":
        return WeightMatrix(
            tuple(
                tuple(entry * factor if i == j else entry for i, entry in enumerate(row))
                for row in self.rows
            )
        )


def prepend_ones_column(w: WeightMatrix) -> WeightMatrix:
    """The matrix counterpart of grading: a leading all-ones column compares
    component sums first."""
    return WeightMatrix(tuple((1,) + row for row in w.rows))


def weighted_lt(w: WeightMatrix, k_lt: Relation, x: Family, y: Family) -> bool:
    if len(x) != w.d or len(y) != w.d:
        raise LengthMismatchError(
            f"expected families of length {w.d}, got {len(x)} and {len(y)}"
        )
    d = w.d
    for j in range(w.m):
        px = sum(x[i] * w.rows[i][j] for i in range(d))
        py = sum(y[i] * w.rows[i][j] for i in range(d))
        if px == py:
            continue
        return k_lt.apply(px, py)
    return False


def weighted_relation(w: WeightMatrix, k_lt: Relation = LT) -> Relation:
    """The matrix order as a vector relation: weighted_lt, with the sums of
    products taken over precomputed columns; under the strict ``<`` its key
    is the tuple of column dot products, in which a unit column (one entry 1,
    the others 0) is the component at its 1, read through one itemgetter."""
    columns = list(zip(*w.rows))
    d, m = w.d, w.m
    mul = operator.mul
    k_apply = k_lt.apply

    def apply(x: Family, y: Family) -> bool:
        if len(x) != d or len(y) != d:
            return weighted_lt(w, k_lt, x, y)  # raises LengthMismatchError
        for column in columns:
            px, py = sum(map(mul, x, column)), sum(map(mul, y, column))
            if px != py:
                return k_apply(px, py)
        return False

    key = None
    if is_strict_less(k_lt):
        # the key picks unit columns' components from a, the other columns' dot
        # products after them (no unit for one column: itemgetter(i) is no tuple)
        units = [m > 1 and column.count(0) == d - 1 and 1 in column for column in columns]
        dense, others = [column for column, unit in zip(columns, units) if not unit], count(d)
        positions = [column.index(1) if unit else next(others) for column, unit in zip(columns, units)]
        pick = operator.itemgetter(*positions) if any(units) else None

        def key(a: Family):
            if len(a) != d:
                raise LengthMismatchError(f"expected families of length {d}, got {len(a)}")
            values = [sum(map(mul, a, column)) for column in dense]
            return tuple(values) if pick is None else pick((*a, *values))

    # running out of columns gives False, so two equal families are unrelated
    return Relation(apply, declared_reflexive=False, name=f"weighted[{w.d}x{w.m}]", key=key)


# ---------------------------------------------------------------------------
# matrix encodings of the named orders


def _unit(d: int, i: int, sign: int = 1) -> Tuple[int, ...]:
    return tuple(sign if j == i else 0 for j in range(d))


def matrix_for(order_name: str, d: int) -> WeightMatrix:
    """Weight matrix whose order is the named order under strict integer
    comparison, built from the order's flags: down negates the unit columns,
    back takes them from the last component, and grading puts the all-ones
    column first and drops the last unit."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if order_name not in NAMED_ORDERS:
        raise ValueError(f"unknown order name {order_name!r}")
    scheme, is_graded = NAMED_ORDERS[order_name]
    down, back = SCHEMES[scheme]
    components = range(d - 1, -1, -1) if back else range(d)
    columns = [_unit(d, i, -1 if down else 1) for i in components]
    if is_graded:
        columns = [(1,) * d] + columns[:-1]
    return WeightMatrix(tuple(zip(*columns)))


def find_incomparable(w: WeightMatrix, k_lt: Relation, box_bound: int) -> Optional[Tuple[Family, Family]]:
    """The first pair (x, y), x before y in box order, of distinct vectors
    in [0..box_bound]^d that the matrix order relates in neither direction,
    or None: the witness that the order is not connected on the box."""
    box = list(product(range(box_bound + 1), repeat=w.d))
    order = weighted_relation(w, k_lt)
    if order.key is None:
        failure = property_witness("connected", order, Carrier(box))
        return None if failure is None else failure[1]
    # under < two vectors are incomparable exactly when their keys are
    # equal; the first pair is the first two of the group that starts earliest
    groups = {}
    for x in box:
        groups.setdefault(order.key(x), []).append(x)
    return next(((g[0], g[1]) for g in groups.values() if len(g) > 1), None)


# ---------------------------------------------------------------------------
# plain-text fixture format: first line "d m", then d rows of m integers


_ENTRY = r"-?\d+"
_INTEGER = re.compile(rf"\s*{_ENTRY}\s*")
# a fixture row: entries with blanks between them
_ROW = re.compile(rf"\s*(?:{_ENTRY}\s+)*{_ENTRY}\s*")


def _integer(text: str) -> int:
    """The int that text writes as an optional minus and a run of digits,
    with blanks around them, as a fixture entry and the CLI's indices and
    carrier bounds are read; ValueError for anything else, such as the "_"
    and "+" that int() alone reads."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_matrix(text: str) -> WeightMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix fixture")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}; expected 'd m'")
    d, m = map(_integer, header)
    if len(lines) - 1 != d:
        raise ValueError(f"expected {d} matrix rows, got {len(lines) - 1}")
    # one match reads the body; only a body it refuses is read by _integer, to name the bad entry
    read = int if _ROW.fullmatch(" ".join(lines[1:])) else _integer
    rows = []
    for line in lines[1:]:
        entries = tuple(map(read, line.split()))
        if len(entries) != m:
            raise ValueError(f"expected {m} entries per row, got {len(entries)} in {line!r}")
        rows.append(entries)
    return WeightMatrix(tuple(rows))


def format_matrix(w: WeightMatrix) -> str:
    lines = [f"{w.d} {w.m}"]
    lines.extend(" ".join(str(entry) for entry in row) for row in w.rows)
    return "\n".join(lines) + "\n"


def load_matrix(path) -> WeightMatrix:
    # decoded bytes: no text wrapper per load, and splitlines reads any line end
    with open(path, "rb") as handle:
        return parse_matrix(handle.read().decode("utf-8"))
