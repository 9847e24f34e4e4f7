import csv
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from functools import lru_cache
from itertools import islice, product
from math import comb
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from conftest import box, budget, sort_under

from gradedorders import (
    LT,
    colex,
    format_matrix,
    grcolex,
    grevlex,
    grlex,
    grsymlex,
    iter_slice,
    lex,
    matrix_for,
    revlex,
    symlex,
)
from gradedorders import cli
from gradedorders.cli import main
from gradedorders.families import SCHEMES, sorted_total
from gradedorders.graded import NAMED_ORDERS, named_builder
from gradedorders.relations import PROPERTY_NAMES


@pytest.fixture
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_grsymlex(runner):
    result = runner.invoke(main, ["enumerate", "--d", "2", "--k", "3", "--order", "grsymlex"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 10
    assert lines[:3] == ["0,0", "1,0", "0,1"]


def test_enumerate_grlex(runner):
    result = runner.invoke(main, ["enumerate", "--d", "2", "--k", "3", "--order", "grlex"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 10
    assert lines[-1] == "3,0"


def test_enumerate_degenerate(runner):
    result = runner.invoke(main, ["enumerate", "--d", "1", "--k", "0", "--order", "grlex"])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == ["0"]


def test_enumerate_invalid_args(runner):
    assert runner.invoke(main, ["enumerate", "--d", "0", "--k", "3"]).exit_code == 2
    assert runner.invoke(main, ["enumerate", "--d", "2", "--k", "-1"]).exit_code == 2
    assert runner.invoke(main, ["enumerate", "--d", "x", "--k", "1"]).exit_code == 2


def test_enumerate_fallback_requires_flag(runner, tmp_path):
    path = tmp_path / "grlex2.txt"
    path.write_text(format_matrix(matrix_for("grlex", 2)))
    result = runner.invoke(main, ["enumerate", "--d", "2", "--k", "2", "--order", f"weighted:{path}"])
    assert result.exit_code == 3
    assert result.stdout == ""
    # lex streams: the flag is accepted and changes nothing
    expected = ["0,0", "0,1", "0,2", "0,3", "1,0", "1,1", "1,2", "2,0", "2,1", "3,0"]
    for flag in ([], ["--allow-sort-fallback"]):
        result = runner.invoke(main, ["enumerate", "--d", "2", "--k", "3", "--order", "lex"] + flag)
        assert result.exit_code == 0
        assert result.stdout.splitlines() == expected
        assert "fallback" not in result.output


def test_enumerate_grevlex_ignores_the_fallback_flag_and_equals_grlex_in_2d(runner):
    grlex_out = runner.invoke(main, ["enumerate", "--d", "2", "--k", "3", "--order", "grlex"])
    grevlex_out = runner.invoke(
        main,
        ["enumerate", "--d", "2", "--k", "3", "--order", "grevlex", "--allow-sort-fallback"],
    )
    assert grevlex_out.exit_code == 0
    assert grevlex_out.stdout == grlex_out.stdout


def test_resolve_order_builds_with_the_builders_on_their_modules(monkeypatch):
    # A tracer replaces the builders on families and graded after the package
    # is imported and skips the builds made from inside those modules, so
    # resolve_order must look each builder up when called and call it itself.
    calls = []

    def patched(name, build):
        def builder(*args):
            calls.append((name, sys._getframe(1).f_globals["__name__"]))
            return build(*args)

        return builder

    for name, (_, graded) in NAMED_ORDERS.items():
        # the package attribute `graded` is the grading function, not the module
        module = sys.modules["gradedorders.graded" if graded else "gradedorders.families"]
        monkeypatch.setattr(module, name, patched(name, getattr(module, name)))
    assert cli.resolve_order("grlex", 2).name == "grlex(lt)"
    assert cli.resolve_order("lex", 2).name == "lex(lt)"
    assert calls == [("grlex", "gradedorders.cli"), ("lex", "gradedorders.graded"), ("lex", "gradedorders.cli")]
    for name in NAMED_ORDERS:
        calls.clear()
        assert cli.resolve_order(name, 2).name == f"{name}(lt)"
        assert [call for call in calls if call[1] == "gradedorders.cli"] == [(name, "gradedorders.cli")]


def test_enumerate_formats_carry_identical_content(runner):
    plain = runner.invoke(main, ["enumerate", "--d", "2", "--k", "2"]).stdout.splitlines()
    csv_out = runner.invoke(
        main, ["enumerate", "--d", "2", "--k", "2", "--format", "csv"]
    ).output.splitlines()
    jsonl = runner.invoke(
        main, ["enumerate", "--d", "2", "--k", "2", "--format", "jsonl"]
    ).output.splitlines()

    assert csv_out[0] == "i0,i1,sum,rank"
    for rank, line in enumerate(plain):
        index = [int(tok) for tok in line.split(",")]
        assert csv_out[rank + 1] == f"{line},{sum(index)},{rank}"
        record = json.loads(jsonl[rank])
        assert record == {"index": index, "sum": sum(index), "rank": rank}


def test_enumerate_deterministic(runner):
    args = ["enumerate", "--d", "3", "--k", "3", "--format", "jsonl"]
    assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout


REFERENCE_ORDERS = {
    "grlex": grlex,
    "grcolex": grcolex,
    "grsymlex": grsymlex,
    "grevlex": grevlex,
    "lex": lex,
    "colex": colex,
    "symlex": symlex,
    "revlex": revlex,
    "weighted:grevlex": grevlex,
}


@lru_cache(maxsize=None)
def _reference_entries(order_name, d, k):
    """The set by brute force, sorted by pairwise comparison under the order."""
    items = [a for a in box(d, k) if sum(a) <= k]
    return sort_under(REFERENCE_ORDERS[order_name](LT), items)


def _reference_output(order_name, d, k, fmt):
    entries = _reference_entries(order_name, d, k)
    out = io.StringIO()
    if fmt == "plain":
        for entry in entries:
            out.write(",".join(str(c) for c in entry) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f"i{j}" for j in range(d)] + ["sum", "rank"])
        for rank, entry in enumerate(entries):
            writer.writerow(list(entry) + [sum(entry), rank])
    else:
        for rank, entry in enumerate(entries):
            out.write(json.dumps({"index": list(entry), "sum": sum(entry), "rank": rank}) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
@pytest.mark.parametrize("order_name", list(REFERENCE_ORDERS))
def test_enumerate_output_matches_csv_and_json_rendering(runner, tmp_path, order_name, fmt):
    # d = 1, d = 2 and deeper take different base cases of the slice walk,
    # which a lexicographic order runs in d + 1; a grevlex matrix takes the
    # sort fallback, which renders tuples
    fallback = [] if order_name in NAMED_ORDERS else ["--allow-sort-fallback"]
    for d in range(1, 9):
        order = order_name
        if order_name == "weighted:grevlex":
            path = tmp_path / f"grevlex{d}.txt"
            path.write_text(format_matrix(matrix_for("grevlex", d)))
            order = f"weighted:{path}"
        for k in range(6 if d <= 4 else 4):
            args = ["enumerate", "--d", str(d), "--k", str(k), "--order", order, "--format", fmt]
            result = runner.invoke(main, args + fallback)
            assert result.exit_code == 0, result.output
            assert result.stdout == _reference_output(order_name, d, k, fmt), args


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
def test_enumerate_streams_before_the_set_is_exhausted(monkeypatch, fmt):
    # a run of m components with sum r holds C(r + m - 1, m - 1) lines
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    runs = cli.multi_index._runs
    pulled, written_before_last = [0], []

    def watched(d, l, scheme, piece, head, tail, m):
        for run in runs(d, l, scheme, piece, head, tail, m):
            pulled[0] += comb(run[1] + m - 1, m - 1)
            if pulled[0] == 5456:
                written_before_last.append(out.getvalue().count("\n"))
            yield run

    monkeypatch.setattr(cli.multi_index, "_runs", watched)
    main.main(["enumerate", "--d", "3", "--k", "30", "--format", fmt], standalone_mode=False)
    header = 1 if fmt == "csv" else 0
    assert pulled == [5456]
    assert written_before_last == [header + cli.CHUNK_LINES]
    assert out.getvalue().count("\n") == header + 5456


class _WriteCounter(io.TextIOBase):
    """Stdout that keeps the line count of each write and no text."""

    def __init__(self, on_write):
        self.on_write = on_write

    def write(self, text):
        if not isinstance(text, str):  # the commands write text, never bytes
            raise TypeError("a text stream")
        if text:  # an empty write holds no line
            self.on_write(text.count("\n"))
        return len(text)


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
def test_enumerate_cuts_a_slice_longer_than_a_chunk(monkeypatch, fmt):
    # At d = 2 a slice is a single run of l + 1 lines.  Only the last slice
    # of k = 20000 (20001 lines, about five chunks) is let through, which
    # keeps the test fast.
    d, k = 2, 20000
    runs = cli.multi_index._runs
    finished, writes = [], []

    def last_slice_only(d, l, *args):
        if l == k:
            yield from runs(d, l, *args)
            finished.append(l)

    monkeypatch.setattr(cli.multi_index, "_runs", last_slice_only)
    monkeypatch.setattr(sys, "stdout", _WriteCounter(lambda lines: writes.append((lines, list(finished)))))
    main.main(["enumerate", "--d", str(d), "--k", str(k), "--format", fmt], standalone_mode=False)
    header = 1 if fmt == "csv" else 0
    body = [lines for lines, _ in writes[header:]]
    assert sum(body) == k + 1
    assert max(body) <= cli.CHUNK_LINES
    assert writes[header] == (cli.CHUNK_LINES, [])  # written before the slice is finished
    assert finished == [k]


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
@pytest.mark.parametrize("order_name", ["lex", "colex", "symlex", "revlex"])
def test_enumerate_lexicographic_set_is_written_in_chunks(monkeypatch, order_name, fmt):
    # The set of d = 3, k = 30 has 5456 entries, more than a chunk, and a
    # lexicographic order walks it as the one slice k = 30 of dimension 4.
    runs = cli.multi_index._runs
    finished, writes = [], []

    def watched(d, l, *args):
        yield from runs(d, l, *args)
        finished.append((d, l))

    monkeypatch.setattr(cli.multi_index, "_runs", watched)
    monkeypatch.setattr(sys, "stdout", _WriteCounter(lambda lines: writes.append((lines, list(finished)))))
    main.main(["enumerate", "--d", "3", "--k", "30", "--order", order_name, "--format", fmt], standalone_mode=False)
    header = 1 if fmt == "csv" else 0
    body = [lines for lines, _ in writes[header:]]
    assert sum(body) == 5456
    assert max(body) <= cli.CHUNK_LINES
    assert writes[header] == (cli.CHUNK_LINES, [])  # written before the walk is exhausted
    assert finished == [(4, 30)]


def _first_chunk_peak(d, k, scheme, graded, fmt):
    """The tracemalloc peak while the first chunk of lines is made."""
    tracemalloc.start()
    try:
        chunk = next(cli._slice_lines(d, k, scheme, graded, fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk.count("\n") == min(cli.CHUNK_LINES, comb(d + k, d))
    return peak


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    "d, graded, scheme",
    [(1, False, "lex"), (1, True, "lex"), (3, True, "lex"), (5, True, "lex")]
    + [(d, False, scheme) for scheme in ("lex", "colex") for d in (2, 3)],
    ids=["1-False", "1-True", "3-True", "5-True", "2-lex", "3-lex", "2-colex", "3-colex"],
)
def test_first_chunk_of_a_large_k_holds_nothing_of_size_k(fmt, d, graded, scheme):
    # With no table a run's last two components are ranges of ints and the
    # ranked lines write their sum from the slack; a fixed component's text
    # is made when the walk fixes it, so neither a graded walk nor the slack
    # walk of the one slice of sum k makes anything of size k before the
    # first line.  The slack walk at d >= 2 fixes components of 0..k, and
    # these csv and jsonl cases also check that no sum is made for all k + 1
    # slacks.
    assert _first_chunk_peak(d, 10**6, scheme, graded, fmt) < 4 * 2**20


@pytest.mark.parametrize("scheme", ["lex", "colex"])
def test_first_line_of_a_deep_slack_walk_holds_one_prefix(scheme):
    # At k = 1 the sum left stays above 0 for about d levels of the walk's
    # stack; each level keeps the length of its prefix, not a prefix of its
    # own, so memory to the first line grows as d, not d squared.  The walk
    # of d + 1 components with m = 2 fixes d - 1 of them and leaves the
    # slack and one shown component, which follows the slack under a back
    # scheme and precedes it otherwise.
    d = 4000
    back = SCHEMES[scheme][1]
    pieces = [",0", ",1"] if back else ["0,", "1,"]
    tracemalloc.start()
    try:
        head, r, tail = next(cli.multi_index._runs(d + 1, 1, scheme, pieces.__getitem__, "", "", 2))
        first = next(iter_slice(2, r, scheme))
        line = head + str(first[back]) + tail
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 1
    assert len(line) == 2 * d - 1
    assert peak < 2 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("graded", [True, False])
@pytest.mark.parametrize("scheme", ["lex", "colex"])
@pytest.mark.parametrize("d, k", [(8, 6), (4, 20), (5, 13), (3, 45)])
def test_first_chunk_with_the_largest_tables_stays_bounded(d, k, scheme, graded, fmt):
    # the shapes whose tables come nearest the character bound: a graded
    # walk takes m = d at (8, 6) and (4, 20), so its table holds the whole
    # set, and the slack walk of d + 1 takes m = d or d - 1
    assert _first_chunk_peak(d, k, scheme, graded, fmt) < 4 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("d, k, scheme", [(1, 9000, "colex"), (1, 9000, "revlex"), (2, 5000, "colex")])
def test_ranked_run_longer_than_a_chunk_is_cut_at_the_chunks(d, k, scheme, fmt):
    # A back scheme's slack walk with no table: at d = 1 the set is one run
    # of k + 1 lines, and at d = 2 colex first fixes the last component at
    # 0, a run of k + 1 lines.  The first two chunks cut that run, and the
    # second holds its end and the start of the next.
    chunks = list(islice(cli._slice_lines(d, k, scheme, False, fmt), 2))
    entries = [entry[1:] for entry in islice(iter_slice(d + 1, k, scheme), 2 * cli.CHUNK_LINES)]
    assert [chunk.count("\n") for chunk in chunks] == [cli.CHUNK_LINES] * 2
    assert "".join(chunks) == "".join(line + "\n" for line in cli._lines(entries, fmt))


def _table_chars(m, k, sep=",", extra=0):
    """The characters that the tables of 2..m components at sum k may hold
    together: C(k + j, j) lines of j components for each j, a component of
    at most len(str(k)) digits with a separator or a newline, and extra
    characters per line (a back scheme's end mark, the slack walk's sum)."""
    return sum(comb(k + j, j) * (j * (len(str(k)) + len(sep)) + extra) for j in range(2, m + 1))


# the largest m that a table holds at k = 1, the least k that takes a table
LARGEST_M = max(m for m in range(2, 200) if _table_chars(m, 1) <= cli.TABLE_CHARS)


def _largest_k(m):
    """The largest k at which a walk of more than m components takes m of
    them from its table, with "," between them."""
    k = 1
    while _table_chars(m, k + 1) <= cli.TABLE_CHARS:
        k += 1
    return k


# every set of at most 5000 entries with d >= 2, at d = 1 (where no block
# is taken) the sums up to 98 and the largest, and for each m the largest k
# that takes it, at the least d that walks m components by the table: d = m
# for a graded order, and a lexicographic order walks d + 1
BLOCK_SHAPES = sorted(
    {(d, k) for d in range(2, 13) for k in range(99) if comb(d + k, d) <= 5000}
    | {(1, k) for k in [*range(99), 4999]}
    | {(m, _largest_k(m)) for m in [*range(3, 11), *range(11, LARGEST_M + 1, 7), LARGEST_M]}
)


@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
def test_block_walk_matches_the_sorted_set(order_name):
    builder = named_builder(order_name)
    for d, k in BLOCK_SHAPES:
        entries = sorted_total(cli.multi_index.iter_multi_index_set(d, k, "lex"), builder(LT))
        for fmt in ("plain", "csv", "jsonl"):
            chunks = list(cli._slice_lines(d, k, *NAMED_ORDERS[order_name], fmt))
            assert "".join(chunks) == "".join(line + "\n" for line in cli._lines(entries, fmt)), (d, k, fmt)
            assert [chunk.count("\n") for chunk in chunks[:-1]] == [cli.CHUNK_LINES] * (len(chunks) - 1)


@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
@pytest.mark.parametrize("d, k", [(2, 120), (3, 30), (4, 16), (5, 12)])
def test_walk_with_no_table_matches_the_sorted_set(monkeypatch, d, k, order_name):
    # with no table every run's lines are "%d" fields filled from ranges;
    # each of these sets spans more than one chunk
    monkeypatch.setattr(cli, "TABLE_CHARS", 0)
    entries = sorted_total(cli.multi_index.iter_multi_index_set(d, k, "lex"), named_builder(order_name)(LT))
    for fmt in ("plain", "csv", "jsonl"):
        chunks = list(cli._slice_lines(d, k, *NAMED_ORDERS[order_name], fmt))
        assert len(chunks) > 1
        assert "".join(chunks) == "".join(line + "\n" for line in cli._lines(entries, fmt)), fmt
        assert [chunk.count("\n") for chunk in chunks[:-1]] == [cli.CHUNK_LINES] * (len(chunks) - 1)


def _walk_m(d, k, slack=None):
    """The m of the runs of the plain walk of dimension d and sums up to k:
    grlex's, or with slack the slack walk of lex, of the set in d - 1."""
    runs, taken = cli.multi_index._runs, []

    def recorded(d, l, scheme, piece, head, tail, m):
        taken.append(m)
        return runs(d, l, scheme, piece, head, tail, m)

    graded = slack is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.multi_index, "_runs", recorded)
        next(cli._slice_lines(d if graded else d - 1, k, "lex", graded, "plain"))
    return taken[-1]


def test_block_shapes_take_every_m():
    # a graded walk of d components takes m = d at the largest k of m, and
    # the slack walk of d + 1 takes the same m; one more in k takes less
    assert 60 < LARGEST_M < 100
    ms = range(3, LARGEST_M + 1)
    assert [_walk_m(m, _largest_k(m)) for m in ms] == list(ms)
    assert [_walk_m(m + 1, _largest_k(m), "") for m in ms] == list(ms)
    assert all(_walk_m(m, _largest_k(m) + 1) < m for m in ms)
    # a set of one entry takes no table, nor the slack walk of dimension 2
    assert _walk_m(4097, 0) == 2
    assert _walk_m(2, 5, "") == 2


@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
def test_every_m_of_a_walk_matches_the_sorted_set(monkeypatch, order_name):
    # TABLE_CHARS set to the characters of the tables of 2..m components
    # makes a walk take that m: each m from 2 to d, a graded walk of m = d
    # making its last component per slice, on sets of more than one chunk,
    # so that the chunks cut runs, blocks and rows
    scheme, graded = NAMED_ORDERS[order_name]
    runs, taken = cli.multi_index._runs, []

    def recorded(d, l, scheme, piece, head, tail, m):
        taken.append(m)
        return runs(d, l, scheme, piece, head, tail, m)

    monkeypatch.setattr(cli.multi_index, "_runs", recorded)
    for d, k in [(3, 30), (5, 12), (6, 9)]:
        entries = sorted_total(cli.multi_index.iter_multi_index_set(d, k, "lex"), named_builder(order_name)(LT))
        for fmt, (sep, _, before_sum, before_rank, _) in cli._FRAMES.items():
            expected = "".join(line + "\n" for line in cli._lines(entries, fmt))
            extra = SCHEMES[scheme][1] + (len(f"{before_sum}{k}{before_rank}") if not graded and fmt != "plain" else 0)
            for m in range(2, d + 1):
                monkeypatch.setattr(cli, "TABLE_CHARS", _table_chars(m, k, sep, extra))
                taken.clear()
                chunks = list(cli._slice_lines(d, k, scheme, graded, fmt))
                assert set(taken) == {m}, (d, k, fmt, m)
                assert "".join(chunks) == expected, (d, k, fmt, m)
                assert [chunk.count("\n") for chunk in chunks] == [cli.CHUNK_LINES, len(entries) - cli.CHUNK_LINES]


def test_a_graded_walk_of_d_components_holds_no_rows_of_d():
    # At d = 5, k = 10 the walk takes m = 5 = d: its table keeps the rows
    # of 4 components and makes the last component per slice, so what the
    # walk holds once its one chunk is made is less than the rows of 5
    # components would be alone
    d, k = 5, 10
    assert _walk_m(d, k) == d
    level = sum(len(text) for text, _ in cli._table(d, k, "lex", ","))
    tracemalloc.start()
    try:
        lines = cli._slice_lines(d, k, "lex", True, "csv")
        chunk = next(lines)
        held = tracemalloc.get_traced_memory()[0] - sys.getsizeof(chunk)
    finally:
        tracemalloc.stop()
    assert chunk.count("\n") == comb(d + k, d)
    assert held < level


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 60),
    st.sampled_from(list(NAMED_ORDERS)),
    st.sampled_from(list(cli._FRAMES)),
)
def test_block_table_holds_at_most_its_characters_and_is_built_once(d, k, order_name, fmt):
    scheme, graded = NAMED_ORDERS[order_name]
    walked_scheme, slack_walk = ("lex", True) if graded and d == 1 else (scheme, not graded)
    sep, _, before_sum, before_rank, _ = cli._FRAMES[fmt]
    # the slack walk of d + 1 components takes a table of at most d
    dimension = d + 1 if slack_walk else d
    # what a line of the table holds beyond its components: a back scheme's
    # end mark, and the sum of the slack walk when the format writes it
    extra = SCHEMES[walked_scheme][1] + (len(f"{before_sum}{k}{before_rank}") if slack_walk and fmt != "plain" else 0)
    walks, tables, used = [], [], []
    table, runs = cli._table, cli.multi_index._runs

    def built(*args):
        rows = table(*args)
        tables.append((args, rows))
        return rows

    def watched(d, l, scheme, piece, head, tail, m):
        walks.append(d)
        used.append(m)
        return runs(d, l, scheme, piece, head, tail, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_table", built)
        patch.setattr(cli.multi_index, "_runs", watched)
        chunk = next(cli._slice_lines(d, k, scheme, graded, fmt))
    with pytest.MonkeyPatch.context() as patch:  # the same lines with no table
        patch.setattr(cli, "TABLE_CHARS", 0)
        assert chunk == next(cli._slice_lines(d, k, scheme, graded, fmt))
    # every run of the call walks one dimension, and at most one table is
    # built, with no second walk
    assert set(walks) == {dimension}
    m = used[0]
    assert set(used) == {m}
    fits = [j for j in range(2, d + 1) if k and _table_chars(j, k, sep, extra) <= cli.TABLE_CHARS]
    if not fits:
        assert m == 2 and tables == []
        return
    # a graded walk of m = d > 2 components makes the last of them per
    # slice, from a table of m - 1
    [((m_built, k_built, *_), rows)] = tables
    assert m == max(fits) and k_built == k
    assert m_built == (m - 1 if not slack_walk and 2 < m == d else m)
    assert len(rows) == k + 1
    assert sum(len(text) for text, _ in rows) <= cli.TABLE_CHARS
    assert all(n == text.count("\n") + 1 == comb(r + m_built - 1, m_built - 1) for r, (text, n) in enumerate(rows))


@pytest.mark.parametrize("fmt", ["plain", "csv"])
@pytest.mark.parametrize("d, k", [(8, 13), (4, 40), (3, 150)])
def test_a_row_cut_at_the_chunks_is_split_once(d, k, fmt):
    # Tables of m = 5, 3 and 2 under grlex, whose rows the chunks cut.  Each
    # run counts the splits of its row's text: a row cut into several
    # pieces is split once, and no run is walked with its row split before.
    per_run = []
    table, runs = cli._table, cli.multi_index._runs

    class Row(str):
        def split(self, *args):
            per_run[-1] += 1
            return super().split(*args)

    def counted(*args):
        return [(Row(text), n) for text, n in table(*args)]

    def watched(*args):
        for run in runs(*args):
            per_run.append(0)
            yield run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_table", counted)
        patch.setattr(cli.multi_index, "_runs", watched)
        text = "".join(cli._slice_lines(d, k, "lex", True, fmt))
    assert text == "".join(cli._slice_lines(d, k, "lex", True, fmt))
    assert max(per_run) == 1


def _str_filled(parts, ranks):
    """The chunk as a str %-format fills it."""
    text = "".join(parts)
    parts.clear()
    return text % tuple(ranks) if ranks else text


@pytest.mark.parametrize("start", [0, 2**31 - 1, sys.maxsize - 5])
@pytest.mark.parametrize("fmt", list(cli._FRAMES))
def test_bytes_fill_matches_str_formatting(fmt, start):
    # the lines of every frame with a "%d" for the rank, ranks that pass 32
    # bits and come to sys.maxsize, which no walk reaches, and the fill of
    # no ranks, which joins the parts alone
    sep, opening, before_sum, before_rank, closing = cli._FRAMES[fmt]
    entries = list(islice(iter_slice(3, 12, "lex"), 40))
    parts = [f"{opening}{sep.join(map(str, e))}{before_sum}{sum(e)}{before_rank}%d{closing}\n" for e in entries]
    ranks = range(start, start + len(parts))
    given = list(parts)
    filled = cli._filled(given, ranks)
    assert given == []
    assert type(filled) is str
    assert filled == _str_filled(list(parts), ranks)
    assert filled.endswith(f"{before_rank}{start + len(parts) - 1}{closing}\n")
    for ranks in (range(0), False):
        assert cli._filled(list(parts), ranks) == "".join(parts)


def test_bytes_fill_of_a_chunk_holds_no_more_than_a_str_fill():
    # A full jsonl chunk of 4096 lines, 214 KiB: the bytes fill holds the
    # joined text only as its bytes and rebinds them to the filled ones, so
    # its peak is no higher than the str fill's; holding the joined str
    # beside its bytes would add a third copy
    fill, taken = cli._filled, []

    def first(parts, ranks):
        if not taken:
            taken.append((list(parts), ranks))
        return fill(parts, ranks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_filled", first)
        next(cli._slice_lines(6, 9, "lex", True, "jsonl"))
    [(parts, ranks)] = taken
    assert ranks == range(cli.CHUNK_LINES)

    def peak(filled):
        given = list(parts)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            text = filled(given, ranks)
            return tracemalloc.get_traced_memory()[1] - held, text
        finally:
            tracemalloc.stop()

    (bytes_peak, text), (str_peak, expected) = peak(cli._filled), peak(_str_filled)
    assert text == expected
    assert text.count("\n") == cli.CHUNK_LINES
    assert bytes_peak <= str_peak


# enumerate's stdout, one row per call: digest|line count|arguments|last line
# (empty: not checked).  In order: the block walk at the benchmark's peak
# size; a table of m = 5 with a back scheme's slack swap; tables of m = 5..7
# under colex and symlex, graded and by the slack walk; small shapes (d = 2
# from a table, d = 3 and 4 from tables that hold the whole set, the slack
# walk of d = 2 with no table); and shapes whose tables would pass 256 Ki
# characters, every line "%d" fields filled from ranges, each many chunks long
ENUMERATE_CALLS = """\
b7164987cb06095d248013daee68cefffd4895db8a30dd1c7410c3ab740de44b|203491|--d 8 --k 13 --order grlex --format csv|13,0,0,0,0,0,0,0,13,203489
145155bcfdd1e96efdfa294c68839d9c38b1dd5fb5eed8b49266b716637338f7|1716|--d 6 --k 7 --order revlex --format jsonl|{"index": [0, 0, 0, 0, 0, 0], "sum": 0, "rank": 1715}
3478fb335b258c6ea483f8a00cf92594359872da73e1ab443d7f42465afd5f00|463|--d 5 --k 6 --order colex --format csv|
d6428cea6b9a6c979408d4a42dbced57683305c606cf9e853d7111b18f19d822|495|--d 8 --k 4 --order grcolex --format jsonl|
f34db707dc31ddfaf48ea2415d063f307eaccb680322854bbf8f44d1591304da|462|--d 6 --k 5 --order symlex --format jsonl|
f41fd70db4c19b59b9a649c71a6b4b9bd99d37c489ce8dd0035716433d7903c8|792|--d 7 --k 5 --order grsymlex --format plain|0,0,0,0,0,0,5
a73f3ace7d11630d6995d7e058901bbecba413fd2a896890b5a90f9700c744fd|7381|--d 2 --k 120 --order grcolex --format plain|
593f5361db4fdc6e4ed17b0a379456e3d718faa7a9772860a28bc0a5088c6d87|3277|--d 3 --k 25 --order grsymlex --format csv|
3c39a23a816c428f57bab4852286b2a4d111f2443a5235be62edb9c8b08b1df3|10626|--d 4 --k 20 --order grlex --format jsonl|
3eb6e6f9c7af2f0fd5c0f9f9e935ad3864ce843a8a7001e489eb768cf6086cbd|45452|--d 2 --k 300 --order lex --format csv|
a37530134c91ea6e4194091235c06a0fea70138ac3ae10daa484ab9b7a381381|80601|--d 2 --k 400 --order grevlex --format jsonl|
c98ed70808d88d976cae2494d647342e450f2909552ea5c2ea560639e4287c82|45452|--d 2 --k 300 --order grsymlex --format csv|
c22721a987accc691930117fab6059580ad65401b200f25bd9eb23b12718e376|20001|--d 1 --k 20000 --order colex --format jsonl|
"""


@pytest.mark.parametrize("row", ENUMERATE_CALLS.splitlines(), ids=lambda row: row.split("|")[2])
def test_enumerate_stdout_digests(monkeypatch, row):
    digest, lines, args, last = row.split("|")
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    main.main(["enumerate", *args.split()], standalone_mode=False)
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert text.count("\n") == int(lines)
    if last:
        assert text.splitlines()[-1] == last


# the sha256 of the text of _slice_lines over every case below, in order:
# orders in NAMED_ORDERS order, then plain, csv and jsonl, then the shapes
# d = 1..9, k = 0..13 with C(d + k, d) <= 60,000, then (1, 20000),
# (3, 150), (64, 1), (12, 3) and (5000, 0); each case's own digest is in
# enumerate_digests.txt
ENUMERATE_DIGEST = "df7b1000193e18d38cb9906d99d9ee0ceb8b7f75e9634891c03d1ef4dd319ce4"
ENUMERATE_SHAPES = [(d, k) for d in range(1, 10) for k in range(14) if comb(d + k, d) <= 60000] + [
    (1, 20000), (3, 150), (64, 1), (12, 3), (5000, 0)
]


def test_enumerate_text_of_every_case_keeps_its_digest():
    recorded = Path(__file__).with_name("enumerate_digests.txt").read_text().splitlines()
    recorded = [line for line in recorded if not line.startswith("#")]
    cases = [(o, fmt, d, k) for o in NAMED_ORDERS for fmt in cli._FRAMES for d, k in ENUMERATE_SHAPES]
    assert len(cases) == len(recorded) == 2952
    total = hashlib.sha256()
    for (order_name, fmt, d, k), line in zip(cases, recorded):
        case = hashlib.sha256()
        for chunk in cli._slice_lines(d, k, *NAMED_ORDERS[order_name], fmt):
            data = chunk.encode()
            case.update(data)
            total.update(data)
        assert f"{order_name} {fmt} {d} {k} {case.hexdigest()[:12]}" == line
    assert total.hexdigest() == ENUMERATE_DIGEST


@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
@pytest.mark.parametrize("d, k", [(1100, 1), (5000, 0)])
@budget(1, "enumerate at d = 1100, k = 1 or d = 5000, k = 0")
def test_deep_enumerate_within_a_second(runner, d, k, order_name):
    # a table bounded in entries alone takes far longer here; the table of
    # m = 4096 at k = 0, extended one component at a time, copies about 17M
    # characters
    result = runner.invoke(main, ["enumerate", "--d", str(d), "--k", str(k), "--order", order_name])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == d + 1 if k else 1


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
def test_enumerate_never_sorts_a_named_order(runner, monkeypatch, fmt):
    def refuse(*args):
        raise AssertionError("sorted_total called")

    monkeypatch.setattr(cli, "sorted_total", refuse)
    for order_name in NAMED_ORDERS:
        for d, k in [(1, 3), (2, 3), (4, 2)]:
            argv = ["enumerate", "--d", str(d), "--k", str(k), "--order", order_name, "--format", fmt]
            result = runner.invoke(main, argv + ["--allow-sort-fallback"])
            assert result.exit_code == 0, (argv, result.output)
            assert result.stdout == _reference_output(order_name, d, k, fmt), argv
            assert result.stderr == ""


@lru_cache(maxsize=None)
def _deep_entries(order_name, d):
    entries = tuple(sorted_total(cli.multi_index.iter_multi_index_set(d, 1, "lex"), named_builder(order_name)(LT)))
    return entries, [",".join(map(str, e)) for e in entries]


@pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
@pytest.mark.parametrize("order_name", list(NAMED_ORDERS))
def test_enumerate_deep_dimension(runner, order_name, fmt):
    d = 1100
    result = runner.invoke(main, ["enumerate", "--d", str(d), "--k", "1", "--order", order_name, "--format", fmt])
    assert result.exit_code == 0, result.output[-300:]
    lines = result.stdout.splitlines()
    entries, plain = _deep_entries(order_name, d)
    assert len(entries) == d + 1
    if fmt == "plain":
        assert lines == plain
    elif fmt == "csv":
        assert lines[1:] == [f"{p},{sum(e)},{r}" for r, (p, e) in enumerate(zip(plain, entries))]
    else:
        records = [json.loads(line) for line in lines]
        assert tuple(tuple(rec["index"]) for rec in records) == entries
        assert [(rec["sum"], rec["rank"]) for rec in records] == [(sum(e), r) for r, e in enumerate(entries)]


def test_enumerate_grevlex_streams(runner):
    result = runner.invoke(main, ["enumerate", "--d", "3", "--k", "2", "--order", "grevlex"])
    assert result.exit_code == 0
    assert "fallback" not in result.output
    assert result.stdout.splitlines() == [
        "0,0,0", "0,0,1", "0,1,0", "1,0,0", "0,0,2", "0,1,1", "1,0,1", "0,2,0", "1,1,0", "2,0,0",
    ]


def _wrong_dimension_matrix(tmp_path):
    path = tmp_path / "w3.txt"
    path.write_text(format_matrix(matrix_for("grlex", 3)))
    return f"weighted:{path}"


def _one_line_usage_error(result):
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: expected families of length 3, got 2")
    assert "Traceback" not in result.output


def test_enumerate_wrong_dimension_order_is_a_usage_error(runner, tmp_path):
    order = _wrong_dimension_matrix(tmp_path)
    result = runner.invoke(
        main, ["enumerate", "--d", "2", "--k", "2", "--order", order, "--allow-sort-fallback"]
    )
    _one_line_usage_error(result)


@pytest.mark.parametrize("flag", [[], ["--allow-sort-fallback"]], ids=["no-flag", "fallback"])
def test_enumerate_refuses_a_wrong_dimension_matrix_before_the_fallback(runner, flag):
    # the matrix is checked where it is loaded: before the missing flag's
    # exit 3 and before the fallback's note
    order = f"weighted:{FIXTURES / 'w3.txt'}"
    result = runner.invoke(main, ["enumerate", "--d", "1", "--k", "2", "--order", order] + flag)
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert [line for line in lines if line.startswith("Error:")] == ["Error: expected families of length 3, got 1"]
    assert not [line for line in lines if line.startswith("note:")]


# ---------------------------------------------------------------------------
# compare


def test_compare_verdicts(runner):
    assert runner.invoke(main, ["compare", "--order", "lex", "0,3", "1,0"]).stdout.strip() == "LT"
    assert runner.invoke(main, ["compare", "--order", "grlex", "0,8", "1,2"]).stdout.strip() == "GT"
    assert runner.invoke(main, ["compare", "--order", "lex", "2,2", "2,2"]).stdout.strip() == "EQ"


def test_compare_antisymmetry(runner):
    swap = {"LT": "GT", "GT": "LT", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}
    for a, b in [("0,3", "1,0"), ("1,2", "1,2"), ("2,0,1", "1,1,1")]:
        fwd = runner.invoke(main, ["compare", "--order", "grevlex", a, b]).stdout.strip()
        rev = runner.invoke(main, ["compare", "--order", "grevlex", b, a]).stdout.strip()
        assert rev == swap[fwd]


def test_compare_errors(runner):
    assert runner.invoke(main, ["compare", "0,1", "0,1,2"]).exit_code == 2
    assert runner.invoke(main, ["compare", "0,a", "0,1"]).exit_code == 2
    assert runner.invoke(main, ["compare", "--order", "nope", "0", "1"]).exit_code == 2
    result = runner.invoke(main, ["compare", "--order", "grlex", "1,-2", "0,1"])
    assert result.exit_code == 2
    assert "multi-index components must be naturals" in result.output


@pytest.mark.parametrize(
    "a, error",
    [
        ("1_0", "cannot parse multi-index '1_0'"),
        ("+1", "cannot parse multi-index '+1'"),
        ("1,2_0", "cannot parse multi-index '1,2_0'"),
        ("1,-0", "multi-index components must be naturals: '1,-0'"),
    ],
)
def test_compare_reads_components_as_digit_runs(runner, a, error):
    # int() alone reads 1_0 as 10, +1 as 1 and -0 as 0
    result = runner.invoke(main, ["compare", "--order", "lex", a, "2"])
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [f"Error: {error}"]


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["enumerate", "--d", "1_0", "--k", "0"], "--d", "1_0"),
        (["enumerate", "--d", "+2", "--k", "1"], "--d", "+2"),
        (["enumerate", "--d", "2", "--k", "1_0"], "--k", "1_0"),
        (["sort-terms", "--d", "0_2"], "--d", "0_2"),
    ],
)
def test_options_read_numbers_as_digit_runs(runner, argv, option, value):
    # click's int alone reads 1_0 as 10, +2 as 2 and 0_2 as 2
    result = runner.invoke(main, argv, input="X0")
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: Invalid value for '{option}': {value!r} is not a valid integer."]
    assert result.stdout == ""


@pytest.mark.parametrize("value", ["x", "1.5", "", "0x1", "1e3", "1 0", "٣x", "1" * 5000])
@pytest.mark.parametrize(
    "argv", [["enumerate", "--d", "{}", "--k", "1"], ["enumerate", "--d", "1", "--k", "{}"], ["sort-terms", "--d", "{}"]]
)
def test_options_refuse_what_click_refuses_with_its_message(runner, argv, value):
    with pytest.raises(click.BadParameter) as refused:
        click.INT.convert(value, None, None)
    option = argv[argv.index("{}") - 1]
    result = runner.invoke(main, [arg.format(value) for arg in argv], input="X0")
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: Invalid value for '{option}': {refused.value.message}"]


def test_compare_allows_blanks_around_components(runner):
    result = runner.invoke(main, ["compare", "--order", "lex", " 1 , 2 ", "1,3"])
    assert (result.exit_code, result.stdout) == (0, "LT\n")


def _index_by_entry(text):
    """A multi-index read entry by entry, as weighted._integer reads a
    number, then refused if it has a minus: its tuple or its Error: line."""
    try:
        items = tuple(map(cli._integer, text.split(",")))
    except ValueError:
        return f"cannot parse multi-index {text!r}"
    if "-" in text:
        return f"multi-index components must be naturals: {text!r}"
    return items


# ASCII digits, a non-ASCII decimal digit, blanks (\x1c is one that int()
# does not strip), the signs and separator int() alone reads, and commas
INDEX_CHARS = st.sampled_from([*"0123456789", "\u0661", " ", "\t", "\xa0", "\u3000", "\x1c", "-", "+", "_", ","])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.text(INDEX_CHARS, max_size=5), min_size=1, max_size=4).map(",".join))
@example("1,,2")
@example("1,2,")
@example("1," + "9" * 5000)
@example(" 1 , \u0661 ")
def test_multi_index_is_read_as_entry_by_entry(text):
    # one match of the list pattern, then int() per entry
    try:
        got = cli._parse_index(text)
    except click.UsageError as exc:
        got = exc.format_message()
    assert got == _index_by_entry(text)


@pytest.mark.parametrize("carrier", ["1_0..20", "+1..3", "1..2_0", "0x1..3", "1 0..20"])
def test_check_reads_carrier_bounds_as_digit_runs(runner, carrier):
    result = runner.invoke(main, ["check", "--property", "reflexive", "--relation", "le", "--carrier", carrier])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: cannot parse carrier {carrier!r}; expected 'a..b'"]


def test_check_allows_a_minus_and_blanks_around_carrier_bounds(runner):
    result = runner.invoke(main, ["check", "--property", "reflexive", "--relation", "le", "--carrier", " -2 .. 3 "])
    assert (result.exit_code, result.stdout) == (0, "PASS reflexive(le) on  -2 .. 3 \n")


def test_compare_weighted_order(runner, tmp_path):
    path = tmp_path / "grlex.txt"
    path.write_text(format_matrix(matrix_for("grlex", 2)))
    result = runner.invoke(main, ["compare", "--order", f"weighted:{path}", "0,8", "1,2"])
    assert result.stdout.strip() == "GT"
    # single ones column: sums equal, no tiebreaker
    path2 = tmp_path / "ones.txt"
    path2.write_text("2 1\n1\n1\n")
    result = runner.invoke(main, ["compare", "--order", f"weighted:{path2}", "1,0", "0,1"])
    assert result.stdout.strip() == "INCOMPARABLE"


@pytest.mark.parametrize("fixture", ["2 2\n1_0 0\n0 1\n", "2 2\n+1 0\n0 1\n", "+2 2\n1 0\n0 1\n"])
def test_compare_reads_fixture_numbers_as_digit_runs(runner, tmp_path, fixture):
    # int() alone loads these as the grlex-like matrix ((10, 0), (0, 1)) or
    # the identity, and compare would answer
    path = tmp_path / "w.txt"
    path.write_text(fixture)
    result = runner.invoke(main, ["compare", "--order", f"weighted:{path}", "1,0", "0,1"])
    _one_error_line(result, "not an integer")
    assert result.stdout == ""


def test_compare_wrong_dimension_order_is_a_usage_error(runner, tmp_path):
    order = _wrong_dimension_matrix(tmp_path)
    _one_line_usage_error(runner.invoke(main, ["compare", "--order", order, "1,2", "3,4"]))
    _one_line_usage_error(runner.invoke(main, ["compare", "--order", order, "1,2", "1,2"]))
    assert runner.invoke(main, ["compare", "--order", order, "1,2,0", "1,2,0"]).stdout == "EQ\n"


# the verdict of compare under the eight named orders and two weight
# matrices on fixed pairs in d = 3: an equal pair, four that the orders split
# differently, and one that flat3 does not separate; one line per order
COMPARE_PAIRS = [("1,0,2", "1,0,2"), ("1,2,0", "0,1,2"), ("2,0,1", "0,3,0"), ("0,0,5", "1,1,1"), ("1,0,0", "0,0,1"),
                 ("2,0,0", "0,1,0")]
COMPARE_VERDICTS = """\
lex EQ GT GT LT GT GT
colex EQ LT GT GT LT LT
symlex EQ LT LT GT LT LT
revlex EQ GT LT LT GT GT
grlex EQ GT GT GT GT GT
grcolex EQ LT GT GT LT GT
grsymlex EQ LT LT GT LT GT
grevlex EQ GT LT GT GT GT
weighted:w3.txt EQ LT LT GT LT GT
weighted:flat3.txt EQ LT LT GT LT INCOMPARABLE
"""


def test_compare_verdicts_and_number_list_errors(runner, tmp_path):
    for line in COMPARE_VERDICTS.splitlines():
        order, *expected = line.split()
        order = order.replace("weighted:", f"weighted:{FIXTURES}/")
        got = [runner.invoke(main, ["compare", "--order", order, a, b]).stdout.strip() for a, b in COMPARE_PAIRS]
        assert got == expected, order
    # a multi-index is read with one match of the integer pattern between
    # commas, a fixture's rows with one match of it between blanks, and the
    # errors are the per-entry reader's: a bad piece, then a minus, then the
    # entry a row names
    assert runner.invoke(main, ["compare", "--order", "lex", " 1 , 2", "3,4"]).stdout == "LT\n"
    fixture = tmp_path / "bad-entry.txt"
    fixture.write_text("2 2\n1 x\n0 1\n")
    for order, a, b, error in [
        *[("lex", index, "3,4", f"cannot parse multi-index '{index}'") for index in ["1,,2", "1,2,", "1_0,1"]],
        ("lex", "1,-0", "3,4", "multi-index components must be naturals: '1,-0'"),
        (f"weighted:{fixture}", "1,0", "0,1", f"cannot load weight matrix '{fixture}': not an integer: 'x'"),
    ]:
        result = runner.invoke(main, ["compare", "--order", order, a, b])
        assert result.exit_code == 2
        assert [line for line in result.stderr.splitlines() if line.startswith("Error:")] == [f"Error: {error}"]


def test_mode_option_is_gone(runner):
    assert runner.invoke(main, ["compare", "--mode", "strict", "0,1", "1,0"]).exit_code == 2
    result = runner.invoke(main, ["sort-terms", "--d", "2", "--mode", "strict"], input="X + Y")
    assert result.exit_code == 2


def test_compare_missing_matrix_file(runner, tmp_path):
    assert runner.invoke(main, ["compare", "--order", "weighted:/no/such", "0", "1"]).exit_code == 2
    path = tmp_path / "bad.txt"
    path.write_text("2\n1\n1\n")
    _one_error_line(runner.invoke(main, ["compare", "--order", f"weighted:{path}", "1,0", "0,1"]), "bad matrix header")


# ---------------------------------------------------------------------------
# sort-terms

TABLE_INPUT = "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3"


def test_sort_terms_table_rows(runner):
    rows = {
        "grlex": "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3",
        "grcolex": "X^3 + X*Y^2 + Y^3 + X*Y*Z + Z^3",
        "grsymlex": "X^3 + X*Y^2 + X*Y*Z + Y^3 + Z^3",
        "grevlex": "Z^3 + X*Y*Z + Y^3 + X*Y^2 + X^3",
    }
    for order, expected in rows.items():
        result = runner.invoke(
            main, ["sort-terms", "--d", "3", "--order", order], input=TABLE_INPUT
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.strip() == expected


def test_sort_terms_single_monomial(runner):
    result = runner.invoke(main, ["sort-terms", "--d", "3", "--order", "grlex"], input="X*Y^2")
    assert result.stdout.strip() == "X*Y^2"


def test_sort_terms_parse_error_reports_position(runner):
    result = runner.invoke(main, ["sort-terms", "--d", "2"], input="X0 + $")
    assert result.exit_code == 2
    assert "position" in result.output
    result = runner.invoke(main, ["sort-terms", "--d", "0"], input="X")
    assert result.exit_code == 2
    assert "--d must be >= 1" in result.output


def test_sort_terms_wrong_dimension_order_is_a_usage_error(runner, tmp_path):
    order = _wrong_dimension_matrix(tmp_path)
    _one_line_usage_error(runner.invoke(main, ["sort-terms", "--d", "2", "--order", order], input="X + Y"))


def test_sort_terms_zero_denominator_is_a_usage_error(runner):
    result = runner.invoke(main, ["sort-terms", "--d", "2"], input="1/0*X")
    assert result.exit_code == 2
    assert "zero denominator (at position 0)" in result.output
    assert "Traceback" not in result.output


def _one_error_line(result, message):
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert message in errors[0]
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "text", ["{}*X", "1/{}*X", "X^{}"], ids=["coefficient", "denominator", "exponent"]
)
def test_sort_terms_number_past_the_int_digit_limit_is_a_usage_error(runner, text):
    result = runner.invoke(main, ["sort-terms", "--d", "1"], input=text.format("9" * 5000))
    _one_error_line(result, "digits (at position ")


def test_sort_terms_result_past_the_int_digit_limit_is_a_usage_error(runner):
    # each coefficient parses; their product has too many digits to print
    result = runner.invoke(main, ["sort-terms", "--d", "1"], input="{0}*{0}*X".format("9" * 3000))
    _one_error_line(result, "the result has a number of more than")


def test_sort_terms_non_utf8_stdin_is_a_usage_error(runner):
    result = runner.invoke(main, ["sort-terms", "--d", "1"], input=b"X\xff")
    _one_error_line(result, "cannot read <stdin>: 'utf-8' codec can't decode byte 0xff")


def test_sort_terms_non_utf8_file_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"X\xff")
    result = runner.invoke(main, ["sort-terms", "--d", "1", str(path)])
    _one_error_line(result, f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_sort_terms_from_file(runner, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("X1^2 + X0^3")
    result = runner.invoke(
        main, ["sort-terms", "--d", "2", "--order", "grlex", str(path)]
    )
    assert result.stdout.strip() == "Y^2 + X^3"


# 600 terms on the 243 monomials of [0..2]^5, with products, rationals, zero
# coefficients and like terms that cancel, as one line
MONOMIALS = list(product(range(3), repeat=5))
SORT_TERMS_POLY = " ".join(
    "+-"[i % 2] + " " + ["", "2*", "1/2*", "3*2/3*", "0*", "7/3*"][i % 243 % 6]
    + "X0^%d*X1^%d*X2^%d*X3^%d*X4^%d" % MONOMIALS[i * 7 % 243]
    for i in range(600)
) + "\n"
# the sha256 of sort-terms' stdout on it under each named order and the w5
# fixture's weight matrix
SORT_TERMS_DIGESTS = """\
lex 331d2e964a324caac3bd929a463b7fa9856c3c2c5e3298d9774c00b948db5f1e
colex 195b3f7e106c1657d08316a4e3d6e38bd4c8cf4b0cd61d40986f344451c5d70f
symlex 86f56e512fe6f3769801f4c00c71821804129f84d33f6c171932a767e6ad19f2
revlex 8aab075e7c327ba50361b76752ce6e0cd2caf2a4a8aa4e9562768b483996f201
grlex 413636fd243a45f7ef13a5048c0354ea9995a00a27e032692125f78935957239
grcolex 5e7c0dfe47b26344f824dc6baaf23f458458e8b84d869b9c6656555d76fe6798
grsymlex de6e0a6ea11f3aa4ff3ff4a169904a7d19e822a46ad6f250bb513c07a1fb8a39
grevlex 8867e27df633e286bea7ab2b38e96475ce255154490f798040bc897adedd0b53
w5 428c409f9b9a7a2406ab3d0f02bfe8883ac8556d4f608038773c0ebd8cb39d24
"""


@pytest.mark.parametrize("row", SORT_TERMS_DIGESTS.splitlines(), ids=lambda row: row.split()[0])
def test_sort_terms_stdout_digests(monkeypatch, row):
    order, digest = row.split()
    if order == "w5":
        order = f"weighted:{FIXTURES / 'w5.txt'}"
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(SORT_TERMS_POLY))
    monkeypatch.setattr(sys, "stdout", out)
    main.main(["sort-terms", "--d", "5", "--order", order], standalone_mode=False)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# sorting refuses orders that are not total


def _ones_matrix(tmp_path):
    path = tmp_path / "ones.txt"
    path.write_text("2 1\n1\n1\n")
    return f"weighted:{path}"


def _tie_error(result, pair):
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].endswith(f"is not total: it ties {pair}")
    assert "Traceback" not in result.output


def test_sort_terms_refuses_a_non_total_order(runner, tmp_path):
    order = _ones_matrix(tmp_path)
    argv = ["sort-terms", "--d", "2", "--order", order]
    result = runner.invoke(main, argv, input="X + Y + X^2 + X*Y")
    _tie_error(result, "1,0 and 0,1")
    assert result.stdout == ""


def test_enumerate_fallback_refuses_a_non_total_order(runner, tmp_path):
    order = _ones_matrix(tmp_path)
    result = runner.invoke(
        main, ["enumerate", "--d", "2", "--k", "1", "--order", order, "--allow-sort-fallback"]
    )
    _tie_error(result, "0,1 and 1,0")
    assert result.stdout == ""


def test_total_orders_sort_as_before(runner, tmp_path):
    path = tmp_path / "grlex3.txt"
    path.write_text(format_matrix(matrix_for("grlex", 3)))
    for order in ("grlex", f"weighted:{path}"):
        argv = ["sort-terms", "--d", "3", "--order", order]
        result = runner.invoke(main, argv, input=TABLE_INPUT)
        assert result.exit_code == 0, result.output
        assert result.stdout.strip() == "Z^3 + Y^3 + X*Y*Z + X*Y^2 + X^3"
        result = runner.invoke(
            main, ["enumerate", "--d", "3", "--k", "3", "--order", order, "--allow-sort-fallback"]
        )
        assert result.exit_code == 0, result.output
        expected = [",".join(map(str, e)) for e in sort_under(grlex(LT), box(3, 3)) if sum(e) <= 3]
        assert result.stdout.splitlines() == expected


# ---------------------------------------------------------------------------
# check


def test_check_pass(runner):
    result = runner.invoke(
        main,
        ["check", "--property", "strict_total_order", "--relation", "lt", "--carrier", "0..4"],
    )
    assert result.exit_code == 0
    assert result.output.startswith("PASS")


def test_check_fail_with_witness(runner):
    result = runner.invoke(
        main,
        ["check", "--property", "connected", "--relation", "divides", "--carrier", "1..6"],
    )
    assert result.exit_code == 1
    assert result.output.startswith("FAIL")
    assert "connected" in result.output


def test_check_divides_is_reflexive_at_zero(runner):
    result = runner.invoke(main, ["check", "--property", "reflexive", "--relation", "divides", "--carrier", "0..5"])
    assert result.exit_code == 0
    assert result.output == "PASS reflexive(divides) on 0..5\n"


def test_check_trivial_pass(runner):
    result = runner.invoke(
        main, ["check", "--property", "reflexive", "--relation", "le", "--carrier", "0..0"]
    )
    assert result.exit_code == 0


def test_check_empty_carrier_is_a_usage_error(runner):
    result = runner.invoke(
        main, ["check", "--property", "reflexive", "--relation", "le", "--carrier", "5..1"]
    )
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: empty carrier '5..1'; expected 'a..b' with a <= b"]
    assert "PASS" not in result.output


def test_check_unknown_names(runner):
    assert (
        runner.invoke(
            main, ["check", "--property", "nope", "--relation", "lt", "--carrier", "0..2"]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(
            main, ["check", "--property", "reflexive", "--relation", "nope", "--carrier", "0..2"]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(
            main, ["check", "--property", "reflexive", "--relation", "lt", "--carrier", "bad"]
        ).exit_code
        == 2
    )


# check's stdout line and exit code: the four comparisons pass as linear
# orders known without a table, divides by the scan, and on 400 elements,
# being no tournament, by the scan over the table's row masks
CHECK_LINES = [
    ("total_order", "le", "0..300", 0, "PASS total_order(le) on 0..300"),
    ("strict_total_order", "gt", "0..200", 0, "PASS strict_total_order(gt) on 0..200"),
    ("transitive", "divides", "1..60", 0, "PASS transitive(divides) on 1..60"),
    (
        "negatively_transitive", "divides", "1..12", 1,
        "FAIL negatively_transitive(divides) on 1..12: negatively_transitive fails at (2, 3, 2)",
    ),
    ("partial_order", "divides", "1..400", 0, "PASS partial_order(divides) on 1..400"),
    ("partial_order", "divides", "-3..3", 1, "FAIL partial_order(divides) on -3..3: antisymmetric fails at (-3, 3)"),
    ("reflexive", "divides", "-3..3", 0, "PASS reflexive(divides) on -3..3"),
    ("strict_total_order", "lt", "-50..50", 0, "PASS strict_total_order(lt) on -50..50"),
    ("trichotomous", "gt", "-7..7", 0, "PASS trichotomous(gt) on -7..7"),
    ("strict_weak_order", "le", "-2..2", 1, "FAIL strict_weak_order(le) on -2..2: irreflexive fails at (-2,)"),
    # divides through 0 and the negatives, where a row's divisor may be 0
    ("antisymmetric", "divides", "-6..6", 1, "FAIL antisymmetric(divides) on -6..6: antisymmetric fails at (-6, 6)"),
    ("transitive", "divides", "-4..9", 0, "PASS transitive(divides) on -4..9"),
    ("asymmetric", "divides", "-2..2", 1, "FAIL asymmetric(divides) on -2..2: asymmetric fails at (-2, -2)"),
    ("strongly_connected", "divides", "-1..1", 0, "PASS strongly_connected(divides) on -1..1"),
    (
        "negatively_transitive", "divides", "0..12", 1,
        "FAIL negatively_transitive(divides) on 0..12: negatively_transitive fails at (2, 3, 2)",
    ),
    ("preorder", "divides", "-5..5", 0, "PASS preorder(divides) on -5..5"),
    ("antisymmetric", "divides", "1..300", 0, "PASS antisymmetric(divides) on 1..300"),
]


def _check_ids(rows):
    """property-relation, with the carrier after it where the pair came before"""
    seen, ids = set(), []
    for prop, relation, carrier, *_ in rows:
        ids.append(f"{prop}-{relation}" + (f"-{carrier}" if (prop, relation) in seen else ""))
        seen.add((prop, relation))
    return ids


@pytest.mark.parametrize("prop, relation, carrier, code, line", CHECK_LINES, ids=_check_ids(CHECK_LINES))
def test_check_stdout_lines(monkeypatch, prop, relation, carrier, code, line):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["check", "--property", prop, "--relation", relation, "--carrier", carrier]
    if code:
        with pytest.raises(SystemExit) as exit:
            main.main(argv, standalone_mode=False)
        assert exit.value.code == code
    else:
        main.main(argv, standalone_mode=False)
    assert out.getvalue() == line + "\n"


# ---------------------------------------------------------------------------
# the exit-code contract


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


# argv -> exit code and the one `Error:` line on stderr, as click wrote them;
# {tmp} is a directory that holds no none.txt.  None leaves the line unpinned:
# click names only the first character of an unknown short option.
USAGE_CONTRACT = [
    (["enumerate", "--k", "1"], 2, "Error: Missing option '--d'."),
    (["enumerate", "--k", "1", "--d"], 2, "Error: Option '--d' requires an argument."),
    (
        ["enumerate", "--d", "2", "--k", "1", "--format", "xml"],
        2,
        "Error: Invalid value for '--format': 'xml' is not one of 'plain', 'csv', 'jsonl'.",
    ),
    (
        ["check", "--property", "nope", "--relation", "lt", "--carrier", "0..2"],
        2,
        "Error: Invalid value for '--property': 'nope' is not one of 'transitive', 'negatively_transitive', "
        "'reflexive', 'irreflexive', 'antisymmetric', 'asymmetric', 'connected', 'strongly_connected', "
        "'trichotomous', 'total_order', 'strict_total_order', 'strict_weak_order', 'preorder', 'partial_order'.",
    ),
    (["nope", "--d", "1"], 2, "Error: No such command 'nope'."),
    (["compare", "1,2"], 2, "Error: Missing argument 'B'."),
    (["compare", "1,2", "3,4", "5"], 2, "Error: Got unexpected extra argument (5)"),
    (["compare", "--bogus", "1", "2"], 2, "Error: No such option '--bogus'."),
    (
        ["enumerate", "--d", "2", "--k", "1", "--allow-sort-fallback=1"],
        2,
        "Error: Option '--allow-sort-fallback' does not take a value.",
    ),
    (["enumerate", "--d=2", "--k=1"], 0, None),
    # the options given are read in the order given, before the others
    (["enumerate", "--k", "x", "--d", "y"], 2, "Error: Invalid value for '--k': 'x' is not a valid integer."),
    (
        ["enumerate", "--format", "xml", "--k", "1"],
        2,
        "Error: Invalid value for '--format': 'xml' is not one of 'plain', 'csv', 'jsonl'.",
    ),
    (["compare", "--", "-1", "2"], 2, "Error: multi-index components must be naturals: '-1'"),
    (["compare", "-1,2", "2"], 2, None),
    (
        ["sort-terms", "--d", "1", "{tmp}/none.txt"],
        2,
        "Error: Invalid value for '[SOURCE]': '{tmp}/none.txt': No such file or directory",
    ),
    (["sort-terms", "--d", "1", "{tmp}"], 2, "Error: Invalid value for '[SOURCE]': '{tmp}': Is a directory"),
]


@pytest.mark.parametrize("argv, code, error", USAGE_CONTRACT, ids=[" ".join(argv) for argv, _, _ in USAGE_CONTRACT])
def test_usage_errors_keep_their_exit_code_and_line(runner, tmp_path, argv, code, error):
    result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in argv], input="X0")
    assert result.exit_code == code, result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    if code == 0:
        assert (errors, result.stdout) == ([], "0,0\n1,0\n0,1\n")
    else:
        assert len(errors) == 1 and result.stdout == ""
        assert error is None or errors == [error.format(tmp=tmp_path)]


# 10**19 is past a C ssize_t and 2**62 is past the length of any tuple; both
# are refused before anything is allocated, and a set of more than
# sys.maxsize entries, under any order, before any entry is made, named by
# the larger of --d and --k
@pytest.mark.parametrize("size", ["10000000000000000000", str(2**62)])
@pytest.mark.parametrize(
    "argv, stdin, error",
    [
        (["enumerate", "--d", "{}", "--k", "0"], None, "--d {}"),
        (["enumerate", "--d", "{}", "--k", "0", "--format", "csv"], None, "--d {}"),
        (["enumerate", "--d", "{}", "--k", "1"], None, "--d {}"),
        (["enumerate", "--d", "2", "--k", "{}", "--order", "lex"], None, "--k {}"),
        (
            ["enumerate", "--d", "2", "--k", "{}", "--order", f"weighted:{FIXTURES}/w2.txt", "--allow-sort-fallback"],
            None,
            "--k {}",
        ),
        (["sort-terms", "--d", "{}"], "X0", "--d {}"),
        (["check", "--property", "reflexive", "--relation", "lt", "--carrier", "0..{}"], None, "carrier '0..{}'"),
    ],
    ids=["enumerate", "enumerate-csv", "enumerate-d", "enumerate-k", "enumerate-fallback", "sort-terms", "check"],
)
def test_sizes_no_tuple_can_hold_are_usage_errors(runner, argv, stdin, error, size):
    result = runner.invoke(main, [arg.format(size) for arg in argv], input=stdin)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {error.format(size)} is too large"]
    assert "Traceback" not in result.output
    assert "Exception ignored" not in result.output


# the smallest sets past sys.maxsize entries at d = 1, d = 2 and d = k
# (test_module_entry streams the largest sets inside it), and sets whose
# min(d, k) is 34, 64 or 65: C(68, 34) is the first C(2n, n) past the bound
@pytest.mark.parametrize(
    "d, k",
    [(1, 2**63 - 1), (2, 2**32 - 1), (33, 34), (34, 33), (34, 34), (64, 64), (65, 65), (10**19, 65)],
)
def test_sets_past_sys_maxsize_entries_are_usage_errors(runner, d, k):
    result = runner.invoke(main, ["enumerate", "--d", str(d), "--k", str(k)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: --d {d} is too large" if d > k else f"Error: --k {k} is too large"]
    assert result.stdout == ""


def test_enumerate_fallback_out_of_memory_is_a_usage_error(runner, monkeypatch):
    # a set under sys.maxsize entries that memory cannot hold: the list the
    # sort fallback makes of it fails, named by the larger of --d and --k
    def filling(d, k, scheme):
        yield (0,) * d
        raise MemoryError

    monkeypatch.setattr(cli.multi_index, "iter_multi_index_set", filling)
    for d, k in [(2, 3037000498), (3, 2)]:
        argv = ["enumerate", "--d", str(d), "--k", str(k), "--order", f"weighted:{FIXTURES}/w{d}.txt"]
        result = runner.invoke(main, argv + ["--allow-sort-fallback"])
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: --d {d} is too large" if d > k else f"Error: --k {k} is too large"]
        assert (result.stdout, "Traceback" in result.output) == ("", False)


# per command: each option, with the default its --help shows (None for a
# required option or a flag); and the choices of each choice option
HELP_OPTIONS = {
    "enumerate": {"--d": None, "--k": None, "--order": "grsymlex", "--format": "plain", "--allow-sort-fallback": None},
    "compare": {"--order": "grsymlex"},
    "sort-terms": {"--d": None, "--order": "grlex"},
    "check": {"--property": None, "--relation": None, "--carrier": None},
}
HELP_CHOICES = {
    "--format": ["plain", "csv", "jsonl"],
    "--property": PROPERTY_NAMES,
    "--relation": ["lt", "le", "gt", "ge", "divides"],
}


@pytest.mark.parametrize("command", [None, *HELP_OPTIONS])
def test_help_lists_every_option_default_and_choice(runner, command):
    result = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert result.exit_code == 0, result.output
    text = result.stdout
    options = HELP_OPTIONS.get(command, {})
    for option in ["--help", *options]:
        assert re.search(rf"^  {option}(\s|$)", text, re.M), option
    for default in filter(None, options.values()):
        assert f"[default: {default}]" in text
    for option in options:
        for choice in HELP_CHOICES.get(option, []):
            assert re.search(rf"(?<!\w){choice}(?!\w)", text), choice
    if command is None:
        assert all(re.search(rf"^  {name} ", text, re.M) for name in HELP_OPTIONS)
        bare = runner.invoke(main, [])
        assert (bare.exit_code, bare.stdout) == (2, "")
        assert bare.stderr.startswith("Usage:")


def _mostly(valid, *junk):
    """A valid value, or in about one draw of eight a junk one."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else st.sampled_from(junk))


# small sizes only: a large --k streams without end, a wide carrier costs n**3
SIZES = _mostly(st.integers(0, 6).map(str), "-1", "-7", "x", "1.5", "", "--k")
FIXTURE_ORDERS = [f"weighted:{FIXTURES / name}" for name in ("w2.txt", "flat2.txt", "w3.txt")]
ORDERS = _mostly(
    st.sampled_from([*NAMED_ORDERS, *FIXTURE_ORDERS]), "nope", "weighted:", f"weighted:{FIXTURES}/none.txt"
)
INDICES = _mostly(st.builds("{},{}".format, st.integers(0, 3), st.integers(0, 3)), "1,2,3", "-1,2", "x", "")
CARRIERS = _mostly(
    st.builds(lambda lo, n: f"{lo}..{lo + n}", st.integers(-3, 3), st.integers(0, 12)), "2..1", "bad", "1..", ""
)
POLYS = _mostly(
    st.sampled_from(["X0 + X1^2", "3*X*Y - Y^2 + 1/2", "X^2 + Y^2 + X*Y", "7"]), "X0^", "1/0*X", "X9", "X + + Y", ""
)
# per command: its options (None for a flag) and a strategy for its arguments
COMMANDS = {
    "enumerate": (
        {
            "--d": SIZES,
            "--k": SIZES,
            "--order": ORDERS,
            "--format": _mostly(st.sampled_from(["plain", "csv", "jsonl"]), "xml"),
            "--allow-sort-fallback": None,
        },
        st.just([]),
    ),
    "compare": ({"--order": ORDERS}, st.lists(INDICES, min_size=2, max_size=2)),
    "sort-terms": ({"--d": SIZES, "--order": ORDERS}, _mostly(st.just(["-"]), [f"{FIXTURES}/none.txt"])),
    "check": (
        {
            "--property": _mostly(st.sampled_from(PROPERTY_NAMES), "nope"),
            "--relation": _mostly(st.sampled_from(tuple(cli.CLI_RELATIONS)), "nope"),
            "--carrier": CARRIERS,
        },
        st.just([]),
    ),
}


@st.composite
def cli_calls(draw):
    """argv over the four commands and an unknown one, each option left out,
    given a value as `--opt value` or `--opt=value`, or cut off at the end of
    argv; the arguments after `--` or not; now and then an unknown option or
    --help anywhere in argv; and a text for stdin."""
    command = draw(_mostly(st.sampled_from(sorted(COMMANDS)), "nope"))
    options, arguments = COMMANDS.get(command, ({}, st.just([])))
    argv = [command]
    for option, values in draw(st.permutations(list(options.items()))):
        if values is None:  # a flag
            argv += draw(st.sampled_from([[], [option]]))
        elif draw(st.integers(0, 7)):  # most calls give most options
            value = draw(values)
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    argv += draw(st.sampled_from([[], ["--"]])) + draw(arguments)
    for stray in ("--bogus", "--help"):
        if draw(st.integers(0, 15)) == 0:
            argv.insert(draw(st.integers(1, len(argv))), stray)
    if draw(st.integers(0, 9)) == 0:
        argv.pop()  # a missing value or argument
    return argv, draw(POLYS)


@settings(max_examples=400, deadline=None)
@given(cli_calls())
def test_every_call_keeps_the_exit_contract(call):
    argv, stdin = call
    result = CliRunner().invoke(main, argv, input=stdin)
    assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exc_info)


# ---------------------------------------------------------------------------
# agreement across commands


AGREEMENT_CASES = [(name, d, []) for name in NAMED_ORDERS for d in range(1, 5)] + [
    (f"weighted:{FIXTURES / f'w{d}.txt'}", d, ["--allow-sort-fallback"]) for d in (3, 4)
]


@pytest.mark.parametrize("order, d, flags", AGREEMENT_CASES, ids=[f"{Path(o).name}-{d}" for o, d, _ in AGREEMENT_CASES])
def test_enumerate_sort_terms_and_compare_agree(runner, order, d, flags):
    # through the CLI alone: the polynomial of enumerate's lines, shuffled,
    # each coefficient naming its line, comes back from sort-terms in
    # enumerate's order, and compare puts each line before the next
    rng = random.Random(d)
    for k in range(4):
        result = runner.invoke(main, ["enumerate", "--d", str(d), "--k", str(k), "--order", order, *flags])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert len(lines) == comb(d + k, d)
        terms = [
            "*".join([str(rank + 2)] + [f"X{i}^{e}" for i, e in enumerate(line.split(","))])
            for rank, line in enumerate(lines)
        ]
        rng.shuffle(terms)
        result = runner.invoke(main, ["sort-terms", "--d", str(d), "--order", order], input=" + ".join(terms))
        assert result.exit_code == 0, result.output
        names = [int(term.split("*")[0]) for term in result.stdout.strip().split(" + ")]
        assert names == list(range(2, len(lines) + 2)), (order, d, k)
        for a, b in zip(lines, lines[1:]):
            result = runner.invoke(main, ["compare", "--order", order, a, b])
            assert result.stdout == "LT\n", (order, a, b, result.output)
