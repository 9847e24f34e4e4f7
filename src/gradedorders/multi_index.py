"""Enumeration of multi-index sets by slice recursion.

A slice holds the multi-indices of dimension d with a fixed component sum l;
the full set of sum <= k is the concatenation of slices l = 0..k.  Each of
the three recursion schemes emits a slice already sorted under one of the
lexicographic orders, so the concatenation comes out sorted under the
corresponding graded order with no sorting step:

    lex scheme    -> slices sorted by lex(<),    full set by grlex(<)
    colex scheme  -> slices sorted by colex(<),  full set by grcolex(<)
    symlex scheme -> slices sorted by symlex(<), full set by grsymlex(<)

The symlex scheme lists monomial exponents by decreasing exponents on the
successive variables within each degree.

Generators are the primary interface; callers may consume a prefix without
materializing the whole set, which grows as binomial(d + k, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from .families import Family

SCHEMES = ("lex", "colex", "symlex")


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
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def iter_slice(d: int, l: int, scheme: str = "symlex") -> Iterator[Family]:
    """Multi-indices of dimension d with component sum exactly l, in the
    order induced by the scheme; none when l is negative."""
    _check_args(d, scheme)
    if l >= 0:
        yield from _slice(d, l, scheme)


def _slice(d: int, l: int, scheme: str) -> Iterator[Family]:
    if d == 1:
        yield (l,)
        return
    if scheme == "lex":
        for i in range(l + 1):
            for rest in _slice(d - 1, l - i, scheme):
                yield (i,) + rest
    elif scheme == "colex":
        for i in range(l + 1):
            for rest in _slice(d - 1, l - i, scheme):
                yield rest + (i,)
    else:  # symlex: first component decreasing from l
        for i in range(l + 1):
            for rest in _slice(d - 1, i, scheme):
                yield (l - i,) + rest


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
