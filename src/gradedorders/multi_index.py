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
fixed, joined once per level, and the two sequences the last two components
take.  The tuple API below turns runs into tuples; `_text_runs` joins the
fixed components as text, which lets a caller render every entry of a run
with one comprehension.

Memory: the walk holds its stack of d - 2 levels and, for d >= 3, tables of
the l + 1 numbers of the slice, which has at least (l + 1)(l + 2) / 2
entries; a run is two slices of such a table (ranges for the tuple API and
for d = 2).  Nothing holds a whole slice, so a consumer that takes entries
in chunks, as the CLI does, stays bounded by one chunk however large the
set or its largest slice.

Generators are the primary interface; callers may consume a prefix without
materializing the whole set, which grows as binomial(d + k, d).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _runs(d, l, scheme, cells, piece, head, tail):
    """The slice (d >= 2, l >= 0) as runs (head, (firsts, seconds), tail).
    cells[i] stands for the number i, for i in 0..l; the entries of the
    slice, in order, are head + (a, b) + tail for (a, b) in zip(firsts,
    seconds), where firsts and seconds are slices of cells.  The fixed
    components are joined onto head (front schemes) or tail (back schemes)
    as piece(cells[c]) for each component c."""
    down, back = SCHEMES[scheme]
    rev = cells[::-1]
    # the last two components of a run with sum r left; the first of them
    # is ascending exactly when down == back
    if down == back:
        def pair(r):
            return cells[: r + 1], rev[l - r :]
    else:
        def pair(r):
            return rev[l - r :], cells[: r + 1]
    if d == 2:
        yield head, pair(l), tail
        return
    pieces = list(map(piece, cells))
    # the component fixed next runs over values(r)
    values = (lambda r: range(r, -1, -1)) if down else (lambda r: range(r + 1))
    depth = d - 2
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
                yield head, pair(r - c), more
            else:
                yield more, pair(r - c), tail
        else:
            stack.pop()


def _slice(d: int, l: int, scheme: str) -> Iterator[Family]:
    if d == 1:
        yield (l,)
        return
    for head, (firsts, seconds), tail in _runs(d, l, scheme, range(l + 1), lambda c: (c,), (), ()):
        for pair in zip(firsts, seconds):
            yield head + pair + tail


def _text_runs(d: int, l: int, scheme: str, sep: str, head: str, tail: str):
    """The slice (d >= 2, l >= 0) as runs (head, (firsts, seconds), tail)
    of text: its entries, in order, read f"{head}{a}{sep}{b}{tail}" for
    (a, b) in zip(firsts, seconds).  The given head and tail open and close
    every entry; the components the walk fixes are written once per run,
    with sep between them.  For d >= 3 the numbers 0..l are written once
    per slice and a and b are text; a d = 2 slice is a single run, and
    there a and b are ints from ranges, so that nothing grows with l."""
    if d == 2:
        return _runs(d, l, scheme, range(l + 1), None, head, tail)
    back = SCHEMES[scheme][1]
    piece = (lambda c: sep + c) if back else (lambda c: c + sep)
    return _runs(d, l, scheme, list(map(str, range(l + 1))), piece, head, tail)


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
