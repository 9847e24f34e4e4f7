from itertools import combinations, islice, product
from math import comb

import pytest

from conftest import box, reference_slice, sort_under

from gradedorders import (
    LT,
    degree_slice,
    grcolex,
    grevlex,
    grlex,
    grsymlex,
    iter_multi_index_set,
    iter_slice,
    multi_index_set,
)
from gradedorders import cli, families
from gradedorders.families import SCHEMES as SCHEME_FLAGS, sorted_total

GRADED_FOR_SCHEME = {
    "lex": grlex(LT),
    "colex": grcolex(LT),
    "symlex": grsymlex(LT),
    "revlex": grevlex(LT),
}
SCHEMES = tuple(GRADED_FOR_SCHEME)
LEXICOGRAPHIC_FOR_SCHEME = {scheme: getattr(families, scheme)(LT) for scheme in SCHEMES}


def brute_set(d, k):
    return {t for t in box(d, k) if sum(t) <= k}


def test_symlex_slice_333():
    assert degree_slice(3, 3, "symlex").entries == (
        (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
        (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    )


@pytest.mark.parametrize("scheme", ["lex", "colex", "symlex"])
def test_slice_zero_degree(scheme):
    assert degree_slice(4, 0, scheme).entries == ((0, 0, 0, 0),)


def test_lex_slice_23():
    assert degree_slice(2, 3, "lex").entries == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_multi_index_set_symlex_23():
    assert multi_index_set(2, 3, "symlex").entries == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
        (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
    )


def test_multi_index_set_lex_23_matches_grlex_chain():
    assert multi_index_set(2, 3, "lex").entries == (
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
        (2, 0), (0, 3), (1, 2), (2, 1), (3, 0),
    )
    # a MultiIndexList iterates over its entries
    assert list(multi_index_set(2, 1, "lex")) == [(0, 0), (0, 1), (1, 0)]


def test_counts():
    assert len(multi_index_set(3, 3)) == 20
    assert len(multi_index_set(2, 3)) == 10


def test_dimension_zero_rejected():
    with pytest.raises(ValueError):
        multi_index_set(0, 2)
    with pytest.raises(ValueError):
        list(iter_slice(0, 1))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        list(iter_slice(2, 2, "deglex"))


@pytest.mark.parametrize("scheme", ["lex", "colex", "symlex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_negative_sum_slices_are_empty(scheme, d):
    for l in (-1, -3):
        assert list(iter_slice(d, l, scheme)) == []
        assert degree_slice(d, l, scheme).entries == ()
    assert list(iter_multi_index_set(d, -1, scheme)) == []


def test_streaming_prefix():
    prefix = list(islice(iter_multi_index_set(3, 40, "symlex"), 4))
    assert prefix == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("scheme", ["lex", "colex", "symlex", "revlex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_set_correctness_and_sortedness(scheme, d, k):
    entries = multi_index_set(d, k, scheme).entries
    assert len(set(entries)) == len(entries)
    assert set(entries) == brute_set(d, k)
    order = GRADED_FOR_SCHEME[scheme]
    for a, b in zip(entries, entries[1:]):
        assert order.apply(a, b)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 2, 4, 6])
def test_slice_partition_and_cardinalities(d, k):
    entries = []
    for l in range(k + 1):
        s = degree_slice(d, l).entries
        assert all(sum(a) == l for a in s)
        assert len(s) == comb(d + l - 1, d - 1)
        entries.extend(s)
    assert tuple(entries) == multi_index_set(d, k).entries
    assert len(entries) == comb(d + k, d)


def compositions(d, l):
    """The slice (d, l) by stars and bars, in no particular order."""
    for bars in combinations(range(l + d - 1), d - 1):
        edges = (-1,) + bars + (l + d - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", range(1, 9))
def test_slice_walk_matches_its_definitions(scheme, d):
    k = 6 if d <= 4 else 4
    expected_set = []
    for l in range(k + 1):
        by_sort = sort_under(GRADED_FOR_SCHEME[scheme], compositions(d, l))
        walked = list(iter_slice(d, l, scheme))
        if scheme != "revlex":  # the reference has no revlex branch
            assert walked == list(reference_slice(d, l, scheme))
        assert walked == by_sort
        assert degree_slice(d, l, scheme).entries == tuple(by_sort)
        expected_set += by_sort
    assert list(iter_multi_index_set(d, k, scheme)) == expected_set
    assert multi_index_set(d, k, scheme).entries == tuple(expected_set)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", range(1, 6))
def test_slice_with_slack_dropped_is_the_set_sorted_by_the_scheme(scheme, d):
    # a -> (a, k - |a|) maps the set onto the slice k of dimension d + 1; the
    # slack goes last for a front scheme and first for a back scheme
    order = LEXICOGRAPHIC_FOR_SCHEME[scheme]
    drop = slice(1, None) if SCHEME_FLAGS[scheme][1] else slice(None, -1)
    for k in range(7):
        walked = [e[drop] for e in iter_slice(d + 1, k, scheme)]
        assert walked == sorted_total(brute_set(d, k), order)
        assert len(walked) == comb(d + k, d)


def unit_vectors(d):
    zeros = (0,) * d
    return [zeros[:i] + (1,) + zeros[i + 1 :] for i in range(d)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_deep_dimensions_do_not_recurse(scheme):
    d = 1100
    units = sorted(unit_vectors(d), key=GRADED_FOR_SCHEME[scheme].key)
    assert list(iter_multi_index_set(d, 1, scheme)) == [(0,) * d] + units
    assert degree_slice(d, 1, scheme).entries == tuple(units)


def walked_rows(m, k, scheme, sep, slack=None):
    """The text table of dimension m from the tuple walk, the definition
    that the table's extension replaces: a line holds an entry's components
    with sep between them; with slack, the slack (last for a front scheme,
    first for a back one) is dropped and slack % (k - slack) closes the
    line, after the end mark for a back scheme."""
    back = SCHEME_FLAGS[scheme][1]
    end = cli._END if back and slack is not None else ""
    rows = []
    for r in range(k + 1):
        lines = []
        for entry in iter_slice(m, r, scheme):
            if slack is None:
                lines.append(sep.join(map(str, entry)) + end)
            else:
                s, shown = (entry[0], entry[1:]) if back else (entry[-1], entry[:-1])
                lines.append(sep.join(map(str, shown)) + end + (slack and slack % (k - s)))
        rows.append(("\n".join(lines), len(lines)))
    return rows


# each m up to the largest k whose table of m components holds 4096 of them,
# and a deep table at k = 1 and k = 0
TABLE_SHAPES = [
    (m, k) for m in range(2, 9) for k in range(4096) if m * comb(k + m, m) <= 4096
] + [(63, 1), (4096, 0)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("sep", [",", ", "])
def test_extended_table_matches_the_walked_table(scheme, sep):
    for m, k in TABLE_SHAPES:
        assert cli._table(m, k, scheme, sep) == walked_rows(m, k, scheme, sep), (m, k)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("slack", ["", ",%d,", '], "sum": %d, "rank": '])
def test_slack_table_matches_the_walked_table(scheme, slack):
    sep = ", " if "rank" in slack else ","
    for m, k in TABLE_SHAPES[::3]:
        assert cli._table(m, k, scheme, sep, slack) == walked_rows(m, k, scheme, sep, slack), (m, k)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_runs_fill_trailing_zeros_at_once(scheme):
    """A prefix whose sum is spent gets its trailing zeros from one piece(0),
    not one call per component: at most 3 piece calls per run at d = 300."""
    calls = []

    def piece(c):
        calls.append(c)
        return str(c)

    runs = 0
    for l in range(3):
        runs += sum(1 for _ in cli.multi_index._runs(300, l, scheme, piece, "", "", 2))
    assert runs == 1 + 299 + comb(300, 2)
    assert len(calls) <= 3 * runs
