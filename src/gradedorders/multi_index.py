"""Enumeration of multi-indices by one slice walk.

A slice holds the multi-indices of dimension d with a fixed component sum l;
the full set of sum <= k is the concatenation of slices l = 0..k.  The walk
fixes one component per level, from the front or from the back of the
index, and lets it run up from 0 or down from the sum that is left; the last
two components of every group then follow from that sum.  Each of the four
schemes is one pair of flags (down, back) and emits a slice already sorted
under one of the lexicographic orders, so the concatenation comes out sorted
under the corresponding graded order with no sorting step:

    lex scheme    (up, front)   -> slices by lex(<),    set by grlex(<)
    colex scheme  (up, back)    -> slices by colex(<),  set by grcolex(<)
    symlex scheme (down, front) -> slices by symlex(<), set by grsymlex(<)
    revlex scheme (down, back)  -> slices by revlex(<), set by grevlex(<)

The symlex scheme lists monomial exponents by decreasing exponents on the
successive variables within each degree.

The same walk lists the set under the lexicographic orders themselves.  The
map a -> (a, k - |a|) is a bijection from the set of sum <= k in dimension d
onto the slice of sum k in dimension d + 1; the extra component is the
slack.  It goes last for the front schemes (lex, symlex) and first for the
back schemes (colex, revlex): the end the comparison reaches last.  Two
distinct entries differ in a component of a before that, so the slack, a
function of a, never decides.  The scheme's walk of that one slice,
with the slack dropped, is therefore the set sorted by lex(<), colex(<),
symlex(<) or revlex(<) (Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 2 §2).

The walk keeps an explicit stack, one level per fixed component, so d is
not bounded by Python's recursion limit.  It yields runs: the components it
fixed, joined once per level, and the two sequences that list the m
components left.  The tuple API below turns runs into tuples with m = 2, the
last two components as ranges.  `_text_runs` joins the fixed components as
text, which lets a caller render every entry of a run with one
comprehension; given a table from `_table`, it fixes only d - m components
and takes the last m of each run from the table's row for the sum left.

Memory: the walk holds its stack of d - m levels and, for d >= 3, a list of
the l + 1 numbers of the slice as text, which has at least
(l + 1)(l + 2) / 2 entries; with m = 2 a run is two slices of that list
(ranges for the tuple API and for d = 2).  The table lists the slices of
dimension m and sums 0..k, C(k + m, m) entries of m components, made once
per call by the same walk at dimension m.  m is the largest m < d whose
table holds at most a given number of components (the CLI gives its chunk
size, 4096); when no m >= 3 fits, m = 2 and there is no table.  Nothing
holds a whole slice, so a consumer that takes entries in chunks, as the CLI
does, stays bounded by one chunk, plus a table of at most one chunk's
components, however large the set or its largest slice.

Generators are the primary interface; callers may consume a prefix without
materializing the whole set, which grows as binomial(d + k, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Tuple

from .families import SCHEMES, Family


@dataclass(frozen=True)
class MultiIndexList:
    """A materialized, ordered list of multi-indices of one dimension."""

    d: int
    entries: Tuple[Family, ...]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _check_args(d: int, scheme: str) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")


def _runs(d, l, scheme, cells, piece, head, tail, table=None):
    """The slice (d >= 2, l >= 0) as runs (head, (firsts, seconds), tail).
    cells[i] stands for the number i, for i in 0..l.  The walk fixes d - m
    components and joins each fixed component c onto head (front schemes)
    or tail (back schemes) as piece(cells[c]).  (firsts, seconds) lists the
    m components left, in the scheme's order, when their sum is r, each
    entry split in two: the entries of a run are head, a, b and tail for
    (a, b) in zip(firsts, seconds).  With no table m = 2, and firsts and
    seconds are slices of cells; a table (m, rows) from `_table`, whose k
    is at least l, gives them as rows[r]."""
    down, back = SCHEMES[scheme]
    if table is None:
        m = 2
        rev = cells[::-1]
        # the first of the last two components is ascending exactly when
        # down == back
        if down == back:
            def block(r):
                return cells[: r + 1], rev[l - r :]
        else:
            def block(r):
                return rev[l - r :], cells[: r + 1]
    else:
        m, rows = table
        block = rows.__getitem__
    depth = d - m
    if depth == 0:
        yield head, block(l), tail
        return
    pieces = list(map(piece, cells))
    # the component fixed next runs over values(r)
    values = (lambda r: range(r, -1, -1)) if down else (lambda r: range(r + 1))
    stack = [(tail if back else head, l, iter(values(l)))]
    while stack:
        fixed, r, it = stack[-1]
        deeper = len(stack) < depth
        for c in it:
            more = pieces[c] + fixed if back else fixed + pieces[c]
            if deeper:
                if c < r:
                    stack.append((more, r - c, iter(values(r - c))))
                    break
                # no sum left: the components still to fix are all 0
                zeros = pieces[0] * (depth - len(stack))
                more = zeros + more if back else more + zeros
            if back:
                yield head, block(r - c), more
            else:
                yield more, block(r - c), tail
        else:
            stack.pop()


def _slice(d: int, l: int, scheme: str) -> Iterator[Family]:
    if d == 1:
        yield (l,)
        return
    for head, (firsts, seconds), tail in _runs(d, l, scheme, range(l + 1), lambda c: (c,), (), ()):
        for pair in zip(firsts, seconds):
            yield head + pair + tail


def _text_runs(d: int, l: int, scheme: str, sep: str, head: str, tail: str, table=None):
    """The slice (d >= 2, l >= 0) as runs (head, (firsts, seconds), tail)
    of text: its entries, in order, read f"{head}{a}{sep}{b}{tail}" for
    (a, b) in zip(firsts, seconds).  The given head and tail open and close
    every entry; the components the walk fixes are written once per run,
    with sep between them.  For d >= 3 the numbers 0..l are written once
    per slice, and a and b are text: slices of those numbers, or, with a
    table from `_table(d, k, scheme, sep, limit)` (k >= l), the rows of the
    last m components, so that a run holds an m-component slice.  A d = 2
    slice is a single run, and there a and b are ints from ranges, so that
    nothing grows with l."""
    if d == 2:
        return _runs(d, l, scheme, range(l + 1), None, head, tail)
    back = SCHEMES[scheme][1]
    piece = (lambda c: sep + c) if back else (lambda c: c + sep)
    return _runs(d, l, scheme, list(map(str, range(l + 1))), piece, head, tail, table)


def _table(d: int, k: int, scheme: str, sep: str, limit: int):
    """The table that `_text_runs` takes for the slices of dimension d and
    sum at most k: (m, rows), or None when m = 2.  m is the largest m < d
    with m * C(k + m, m) <= limit, which is the number of components the
    table holds, so it never holds more than limit of them; when no m >= 3
    fits, m = 2.  rows[r], for r = 0..k, is the slice of dimension m and
    sum r as text, made by the walk at dimension m and split where
    `_text_runs` puts sep: (firsts, seconds) with each entry
    f"{a}{sep}{b}", a holding the first component for a back scheme and
    the first m - 1 for a front scheme.  Each entry is one new string."""
    m = 2
    while m + 1 < d and (m + 1) * comb(k + m + 1, m + 1) <= limit:
        m += 1
    if m == 2:
        return None
    back = SCHEMES[scheme][1]
    rows = []
    for r in range(k + 1):
        firsts, seconds = [], []
        for head, (a, b), tail in _text_runs(m, r, scheme, sep, "", ""):
            if back:
                firsts += a
                seconds += [s + tail for s in b]
            else:
                firsts += [head + s for s in a]
                seconds += b
        rows.append((firsts, seconds))
    return m, rows


def iter_slice(d: int, l: int, scheme: str = "symlex") -> Iterator[Family]:
    """Multi-indices of dimension d with component sum exactly l, in the
    order induced by the scheme; none when l is negative."""
    _check_args(d, scheme)
    if l >= 0:
        yield from _slice(d, l, scheme)


def iter_multi_index_set(d: int, k: int, scheme: str = "symlex") -> Iterator[Family]:
    """Multi-indices of dimension d with component sum at most k, by slices
    of increasing sum."""
    _check_args(d, scheme)
    for l in range(k + 1):
        yield from _slice(d, l, scheme)


def degree_slice(d: int, l: int, scheme: str = "symlex") -> MultiIndexList:
    return MultiIndexList(d, tuple(iter_slice(d, l, scheme)))


def multi_index_set(d: int, k: int, scheme: str = "symlex") -> MultiIndexList:
    return MultiIndexList(d, tuple(iter_multi_index_set(d, k, scheme)))
