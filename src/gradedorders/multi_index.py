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
not bounded by Python's recursion limit.  It fixes d - m components and
yields runs: the components it fixed, joined once per level, and a block of
the m components left, as two sequences.  The tuple API below takes m = 2,
the last two components as ranges.  `_text_walk`, made once per call,
writes the fixed components as text, which lets a caller render every entry
of a run with one comprehension, and takes m >= 3 where a table of the last
m components fits in a given number of components.  It builds that table
with no walk, from the two-component rows up, by the recurrence of
compositions: the entries of dimension j and sum r are each value c of the
component fixed first, then the entries of dimension j - 1 and sum r - c.

Memory: the walk holds its stack of d - m levels, each with the length of
its prefix of the components fixed so far, and one prefix, the deepest
made, from which a level cuts its own when it resumes: O(d) in all; for
d >= 3, the l + 1 numbers of the slice as text, while the slice has at
least (l + 1)(l + 2) / 2 entries; and the table, at most a given number of
components (the CLI gives its chunk size, 4096).  Nothing holds a whole
slice, so a consumer that takes entries in chunks, as the CLI does, stays
bounded by one chunk beyond these, however large the set or its largest
slice.

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


def _runs(d, l, scheme, pieces, head, tail, m, block):
    """The slice (d >= m >= 2, l >= 0) as runs (head, (firsts, seconds), tail).
    The walk fixes d - m components and joins each fixed component c onto
    head (front schemes) or tail (back schemes) as pieces[c].  block(r)
    lists the m components left, in the scheme's order, when their sum is
    r, each entry split in two, (firsts, seconds): the entries of a run are
    head, a, b and tail for (a, b) in zip(firsts, seconds)."""
    down, back = SCHEMES[scheme]
    depth = d - m
    if depth == 0:
        yield head, block(l), tail
        return
    # the component fixed next runs over values(r)
    values = (lambda r: range(r, -1, -1)) if down else (lambda r: range(r + 1))
    # a level keeps the length n of its prefix, which the deepest prefix
    # made, more, starts with (ends with, for a back scheme)
    more = tail if back else head
    stack = [(len(more), l, iter(values(l)))]
    while stack:
        n, r, it = stack[-1]
        fixed = more[len(more) - n :] if back else more[:n]
        deeper = len(stack) < depth
        for c in it:
            more = pieces[c] + fixed if back else fixed + pieces[c]
            if deeper:
                if c < r:
                    stack.append((len(more), r - c, iter(values(r - c))))
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


def _pairs(scheme, numbers):
    """The block of m = 2 from numbers, whose entry i stands for the number
    i: the last two components with sum r are two slices of it."""
    down, back = SCHEMES[scheme]
    # the first of the two is ascending exactly when down == back
    if down == back:
        return lambda r: (numbers[: r + 1], numbers[r::-1])
    return lambda r: (numbers[r::-1], numbers[: r + 1])


def _slice(d: int, l: int, scheme: str) -> Iterator[Family]:
    if d == 1:
        yield (l,)
        return
    cells = range(l + 1)
    pieces = [(c,) for c in cells] if d > 2 else ()  # d = 2 fixes none, so nothing grows with l
    for head, (firsts, seconds), tail in _runs(d, l, scheme, pieces, (), (), 2, _pairs(scheme, cells)):
        for pair in zip(firsts, seconds):
            yield head + pair + tail


def _text_walk(d: int, k: int, scheme: str, sep: str, limit: int):
    """The slices of dimension d >= 2 and sum at most k as text, by one
    function runs(l, head, tail): the slice of sum l <= k as runs (head,
    (firsts, seconds), tail) whose entries, in order, read
    f"{head}{a}{sep}{b}{tail}" for (a, b) in zip(firsts, seconds).  The
    given head and tail open and close every entry; the fixed components
    are written once per run, with sep between them.  m is the largest
    m < d with m * C(k + m, m) <= limit, or 2 when no m >= 3 fits.  With
    m = 2 the block is two slices of the numbers 0..l: a range at d = 2, so
    that nothing grows with l, and their texts, made per slice, at d >= 3.
    With m >= 3 it is a table of m * C(k + m, m) components, made here with
    no walk: rows[r] is the slice of dimension m and sum r, each entry split
    where sep goes, after the first component for a back scheme and after
    the first m - 1 for a front one.  The rows of m = 2 are the block above
    for the numbers 0..k, and each further dimension extends every row by
    one component, fixed where the walk fixes it."""
    if d == 2:
        return lambda l, head, tail: _runs(2, l, scheme, (), head, tail, 2, _pairs(scheme, range(l + 1)))
    down, back = SCHEMES[scheme]

    def joined(numbers):  # the texts of fixed components, sep toward the rest
        return [sep + c for c in numbers] if back else [c + sep for c in numbers]

    m = 2
    while m + 1 < d and (m + 1) * comb(k + m + 1, m + 1) <= limit:
        m += 1
    block = None
    if m > 2:
        numbers = list(map(str, range(k + 1)))
        pieces = joined(numbers)
        rows = list(map(_pairs(scheme, numbers), range(k + 1)))
        # the rows of dimension j from those of j - 1 below: the j-part
        # compositions of r are each c, in the walk's order, then those of
        # r - c in j - 1 parts (Knuth, TAOCP 4A, 7.2.1.3)
        for _ in range(m - 2):
            below, rows = rows, []
            for r in range(k + 1):
                firsts, seconds = [], []
                for c in range(r, -1, -1) if down else range(r + 1):
                    a, b = below[r - c]
                    piece = pieces[c]
                    if back:
                        firsts += a
                        seconds += [s + piece for s in b]
                    else:
                        firsts += [piece + f for f in a]
                        seconds += b
                rows.append((firsts, seconds))
        block = rows.__getitem__

    def runs(l, head, tail):
        # sized at once, so that a sum no list can hold raises here, before
        # memory fills
        numbers = [""] * (l + 1)
        numbers[:] = map(str, range(l + 1))
        return _runs(d, l, scheme, joined(numbers), head, tail, m, block or _pairs(scheme, numbers))

    return runs


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
