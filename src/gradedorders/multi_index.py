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
not bounded by Python's recursion limit, and holds O(d) in all.  The tuple
API below takes the last two components of a run as two ranges.

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


def _runs(d, l, scheme, piece, head, tail, m):
    """The slice (d >= m >= 2, l >= 0) as runs (head, r, tail).  The walk
    fixes d - m components and joins each fixed component c onto head (front
    schemes) or tail (back schemes) as piece(c), made when the walk fixes
    it; r is the sum left to the m components that follow: the entries of a
    run are head, each entry of the slice of dimension m and sum r in the
    scheme's order, and tail."""
    down, back = SCHEMES[scheme]
    depth = d - m
    if depth == 0:
        yield head, l, tail
        return
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
            more = piece(c) + fixed if back else fixed + piece(c)
            if deeper:
                if c < r:
                    stack.append((len(more), r - c, iter(values(r - c))))
                    break
                # no sum left: the components still to fix are all 0
                zeros = piece(0) * (depth - len(stack))
                more = zeros + more if back else more + zeros
            if back:
                yield head, r - c, more
            else:
                yield more, r - c, tail
        else:
            stack.pop()


def _pairs(scheme, numbers):
    """The slice of dimension 2 from numbers, whose entry i stands for the
    number i: the entries with sum r are (a, b) for a, b in zip(*pairs(r)),
    two slices of numbers."""
    down, back = SCHEMES[scheme]
    if down == back:
        return lambda r: (numbers[: r + 1], numbers[r::-1])
    return lambda r: (numbers[r::-1], numbers[: r + 1])


def _slice(d: int, l: int, scheme: str) -> Iterator[Family]:
    if d == 1:
        yield (l,)
        return
    pairs = _pairs(scheme, range(l + 1))
    for head, r, tail in _runs(d, l, scheme, lambda c: (c,), (), (), 2):
        for pair in zip(*pairs(r)):
            yield head + pair + tail


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
