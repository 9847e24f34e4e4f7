"""Command-line front door: enumerate multi-indices, compare families, sort
polynomial terms, and check relation properties on finite carriers.

Exit codes: 0 success / property PASS, 1 property FAIL, 2 usage or parse
error, 3 requested capability unavailable (e.g. enumerate under a weighted:
order, which has no slice scheme, when --allow-sort-fallback is not given).

One table, _COMMANDS, gives each command its function, options and
arguments: one loop over argv fills the function's parameters from it, as
click read them, and --help is written from it.  A usage error is a
click.UsageError with click's text, written to stderr as one `Error:` line
like the notes, and a closed stdout pipe exits 1 with nothing on stderr;
click is imported only for these two.
Stdout takes the text of a command as it is made, written to the
sys.stdout of the moment and flushed each time so that a pipe streams:
enumerate's a chunk of lines at a time, the other commands' one line.
Under a named order enumerate writes each line once, in one str.replace
over a row of text that puts in its frame and the components the walk
fixed, and fills the ranks of a chunk with one bytes %-format per chunk,
decoded once (_slice_lines).
Every number, of an option, an index or a carrier bound, is read as
weight-matrix fixtures read them: an optional minus and a run of digits,
with blanks around, the pattern of weighted._integer.  A multi-index is read
with one match of that pattern between commas, as the rows of a fixture are,
all together, with one match of it between blanks, then int() per number;
the error lines are those of reading it number by number.
"""

from __future__ import annotations

import errno
import io
import re
import sys
from itertools import chain, islice, pairwise
from math import comb
from operator import add

from . import multi_index, poly, weighted
from .families import SCHEMES, IncomparableError, LengthMismatchError, sorted_total
from .graded import NAMED_ORDERS, named_builder
from .relations import (
    DIVIDES,
    GE,
    GT,
    LE,
    LT,
    PROPERTY_NAMES,
    Relation,
    carrier_range,
    property_witness,
)
from .weighted import _INTEGER, _integer

CLI_RELATIONS = {r.name: r for r in (LT, LE, GT, GE, DIVIDES)}

# lines per write of enumerate's output, which bounds its memory on the
# slice path
CHUNK_LINES = 4096

# characters of the table that enumerate's slice walk takes the last
# components of its runs from
TABLE_CHARS = 2**18

# what CPython raises, before it allocates, for a tuple, list or string
# longer than it can hold: the CLI's answer to a --d or carrier of that size
TOO_LARGE = (OverflowError, MemoryError)


def _usage(message: str) -> Exception:
    """click.UsageError, which CliRunner and callers of main.main catch."""
    import click

    return click.UsageError(message)


def resolve_order(name: str, d: int) -> Relation:
    """Strict vector relation for an order name on families of length d;
    'weighted:FILE' loads a weight matrix fixture, which must have d rows."""
    if name.startswith("weighted:"):
        path = name.split(":", 1)[1]
        try:
            matrix = weighted.load_matrix(path)
        except (OSError, ValueError) as exc:
            raise _usage(f"cannot load weight matrix {path!r}: {exc}")
        if matrix.d != d:
            raise _usage(f"expected families of length {matrix.d}, got {d}")
        return weighted.weighted_relation(matrix, LT)
    try:
        builder = named_builder(name)
    except KeyError:
        raise _usage(f"unknown order {name!r}")
    return builder(LT)


def _write(text: str) -> None:
    out = sys.stdout
    out.write(text)
    out.flush()


def _not_total(order_name: str, exc: IncomparableError) -> Exception:
    x, y = (",".join(map(str, e)) for e in exc.pair)
    return _usage(f"order {order_name!r} is not total: it ties {x} and {y}")


# a multi-index: numbers as weighted._integer reads them, between commas
_INDEX = re.compile(r"(?:{0},)*{0}".format(_INTEGER.pattern))


def _parse_index(text: str):
    try:
        if _INDEX.fullmatch(text) is None:
            raise ValueError
        # int() refuses what the pattern lets by: \x1c-\x1f around a
        # number, and more digits than the int limit
        items = tuple(map(int, text.split(",")))
    except ValueError:
        raise _usage(f"cannot parse multi-index {text!r}")
    if "-" in text:  # -0 as well
        raise _usage(f"multi-index components must be naturals: {text!r}")
    return items


# The lines of enumerate are those csv.writer and json.dumps would give.
# Per format: the separator of the components, and the text that opens a
# line, comes before its sum, before its rank and closes it.  A plain line
# is the components alone.
_FRAMES = {
    "plain": (",", "", "", "", ""),
    "csv": (",", "", ",", ",", ""),
    "jsonl": (", ", '{"index": [', '], "sum": ', ', "rank": ', "}"),
}


def cmd_enumerate(d, k, order_name, fmt, allow_sort_fallback):
    """List the multi-indices of dimension D with sum <= K, ascending."""
    if d < 1:
        raise _usage(f"--d must be >= 1, got {d}")
    if k < 0:
        raise _usage(f"--k must be >= 0, got {k}")
    order = None if order_name in NAMED_ORDERS else resolve_order(order_name, d)
    if order is not None and not allow_sort_fallback:
        sys.stderr.write(f"order {order_name!r} has no slice scheme; pass --allow-sort-fallback\n")
        sys.exit(3)
    # a set of more than sys.maxsize entries, C(d + k, d), is refused before
    # any is made, named by the larger of d and k; C(68, 34) is already past
    # it, so no binomial of more than 64 factors is taken
    small, too_large = min(d, k), f"--d {d} is too large" if d > k else f"--k {k} is too large"
    if small > 64 or comb(d + k, small) > sys.maxsize:
        raise _usage(too_large)
    if order is None:
        chunks = _slice_lines(d, k, *NAMED_ORDERS[order_name], fmt)
    else:
        sys.stderr.write(f"note: generate-then-sort fallback for order {order_name!r}\n")
        try:
            entries = sorted_total(multi_index.iter_multi_index_set(d, k, "lex"), order)
        except IncomparableError as exc:
            raise _not_total(order_name, exc)
        except TOO_LARGE:  # a set that memory cannot hold
            raise _usage(too_large)
        lines = _lines(entries, fmt)
        chunks = ("\n".join(chunk) + "\n" for chunk in iter(lambda: list(islice(lines, CHUNK_LINES)), []))

    # the text is made lazily and written a chunk of CHUNK_LINES lines at a
    # time; the first chunk comes before the csv header, which is d long too
    try:
        chunk = next(chunks, "")
    except TOO_LARGE:
        raise _usage(f"--d {d} is too large")
    if fmt == "csv":
        _write(",".join([f"i{j}" for j in range(d)] + ["sum", "rank"]) + "\n")
    if chunk:
        _write(chunk)
    for chunk in chunks:
        _write(chunk)


# where a line of a back scheme's slack walk ends its components: the
# components fixed for a run go there, before the text of its sum
_END = "\0"


def _table(m, k, scheme, sep, slack=None):
    """The slices of dimension m >= 2 and sum r = 0..k as text rows (text,
    n): the n entries of the slice in the scheme's order, each with sep
    between its components, joined by newlines.  With slack, a format with
    one "%d" or an empty text, the rows are those of the slack walk: the
    slack, the component the walk reaches last, is left out, and each line
    ends with slack % (k - s) for its slack s, after _END for a back scheme.
    The rows of m = 2 are one slice each of two lists of texts of 0..k,
    joined per row; each further dimension extends the rows below it by one
    component, fixed where the walk fixes it: the j-part compositions of r
    are each c, in the walk's order, then those of r - c in j - 1 parts
    (Knuth, TAOCP 4A, 7.2.1.3).  An extension is one str.replace per row
    below it, which writes the new component at every line: at its
    newlines, or at _END."""
    down, back = SCHEMES[scheme]
    end = _END if back and slack is not None else ""
    numbers = list(map(str, range(k + 1)))
    pieces = [sep + c for c in numbers] if back else [c + sep for c in numbers]
    # a line of m = 2 is firsts[a] + lasts[b] for a pair (a, b) of the row,
    # taken as (b, a) where the slack comes first
    if slack is None:
        firsts, lasts = (numbers, pieces) if back else (pieces, numbers)
    else:
        firsts, lasts = numbers, [end + (slack and slack % (k - s)) for s in range(k + 1)]
    # the pairs of sum r, in the scheme's order, are (a, r - a) with a from 0
    # up to r or from r down (multi_index._pairs): the same slice of firsts
    # and the opposite one of lasts
    if (down == back) != (slack is not None and back):
        pairs = ((firsts[: r + 1], lasts[r::-1]) for r in range(k + 1))
    else:
        pairs = ((firsts[r::-1], lasts[: r + 1]) for r in range(k + 1))
    # where slack is "" the lines end alike
    rows = [((end + "\n").join(a) + end if slack == "" else "\n".join(map(add, a, b)), len(a)) for a, b in pairs]
    for _ in range(m - 2):
        below, rows = rows, []
        for r in range(k + 1):
            texts, n = [], 0
            for c in range(r, -1, -1) if down else range(r + 1):
                text, count = below[r - c]
                piece = pieces[c]
                if not back:
                    text = piece + text.replace("\n", "\n" + piece)
                elif end:
                    text = text.replace(end, piece + end)
                else:
                    text = text.replace("\n", piece + "\n") + piece
                texts.append(text)
                n += count
            rows.append(("\n".join(texts), n))
    return rows


def _filled(parts, ranks):
    """The text of a chunk: its parts joined, and its "%d" fields filled
    from ranks unless they are empty, with one bytes %-format per chunk,
    decoded once; parts is emptied.  The text is ASCII, and bytes fill a
    "%d" faster than str does.  The joined text is held only as its bytes,
    and those are rebound to the filled ones, so at most two copies of the
    chunk are alive at once, as with a str fill."""
    if not ranks:
        text = "".join(parts)
        parts.clear()
        return text
    data = "".join(parts).encode()
    parts.clear()
    data %= tuple(ranks)
    return data.decode()


def _slice_lines(d, k, scheme, graded, fmt):
    """The lines of the set under a named order, as text: one string per
    chunk of CHUNK_LINES lines, the last one shorter, each line closed by a
    newline.  A graded order walks the slices l = 0..k of dimension d, and
    a line's sum is its slice's l.  An order that is not graded walks the
    one slice k of dimension d + 1 and drops the slack from each line (see
    multi_index): the slack walk, where a line's sum is k minus its slack.

    A run of multi_index._runs has its fixed components as text, each made
    by joined, and its last m components as row r of one _table, where m is
    the largest m <= d whose tables of 2..m components hold at most
    TABLE_CHARS characters together.  A graded walk of m = d > 2 keeps the
    table of d - 1 components and makes each slice l of d components here,
    never held whole: a block per value c of the component that the walk
    fixes first, in the walk's order, which is the row l - c with c put at
    every line.  When k = 0 or no table fits, m = 2 and a line has a "%d"
    field per component left, filled from the two ranges of
    multi_index._pairs.  A run or a block is cut where it fills a chunk,
    its row split into lines once.  Each piece of a row is written with one
    str.replace at its newlines, which puts at every line the fixed
    components, the end of the line's frame with a "%d" for its rank, and
    the start of the next line's frame; in the slack walk of a back scheme
    a replace at _END puts the fixed components first.  One bytes %-format
    per chunk, decoded once, then fills the ranks (_filled).  With no table
    a piece is a line repeated, its components and ranks filled by one
    bytes %-format, decoded once.

    Memory: the walk's stack, O(d); the table, at most TABLE_CHARS
    characters; and one chunk, however large k, the set or its largest
    slice."""
    sep, opening, before_sum, before_rank, closing = _FRAMES[fmt]
    ranked = fmt != "plain"
    if graded and d == 1:  # a graded order of N^1 is lex(<), which needs no slices
        scheme, graded = "lex", False
    down, back = SCHEMES[scheme]
    # the dimension walked, the sums of its slices, and what the slack walk
    # writes after the components of a line
    if graded:
        dimension, slices, slack = d, range(k + 1), None
    else:
        dimension, slices, slack = d + 1, (k,), f"{before_sum}%d{before_rank}" if ranked else ""
    joined = (sep + "%d").__mod__ if back else ("%d" + sep).__mod__
    # written bounds the characters of the tables of 2..m components: a line
    # of j components has at most j * width, then the slack walk's sum and,
    # for a back scheme, one character: the slack walk's end mark; a graded
    # back walk writes no end mark, and its character is counted only so
    # that each shape takes the m it took when its rows carried one
    width, extra = len(str(k)) + len(sep), back + len(slack % k if slack else "")
    m, written = 1, 0
    while k and m < d:
        written += comb(k + m + 1, m + 1) * ((m + 1) * width + extra)
        if written > TABLE_CHARS:
            break
        m += 1
    made = graded and 2 < m == d  # the rows of d components are made per slice
    marked = back and slack is not None
    if m > 1:
        rows = _table(m - made, k, scheme, sep, slack)
        pieces = list(map(joined, range(k + 1))) if made else ()
    else:
        m, rows = 2, ()
        line = "%d" if slack is not None else "%d" + sep + "%d"
        pairs = multi_index._pairs(scheme, range(k + 1))
    # with a table the ranks of a chunk are filled once it is complete, with
    # none each piece is filled as it is made
    filled = ranked and bool(rows)
    rank, chunk = 0, []
    for l in slices:
        if not ranked:
            close = "\n"
        elif graded:
            close = f"{before_sum}{l}{before_rank}%d{closing}\n"
        else:
            close = f"%d{closing}\n"
        runs = multi_index._runs(dimension, l, scheme, joined, opening, "", m)
        if made:  # the slice's one run, as a block per value c of the component
            [(head, r, tail)] = runs
            cs = range(r, -1, -1) if down else range(r + 1)
            # a slice within the chunk writes its blocks whole, with none of
            # the run loop's work per block, which d = 3 slices of short
            # blocks would pay on every few lines
            n = comb(l + d - 1, d - 1)
            if n < CHUNK_LINES - rank % CHUNK_LINES:
                if back:
                    for c in cs:
                        after = pieces[c] + close
                        chunk += head, rows[r - c][0].replace("\n", after + head), after
                else:
                    for c in cs:
                        start = head + pieces[c]
                        chunk += start, rows[r - c][0].replace("\n", close + start), close
                rank += n
                continue
            runs = [(head, r - c, pieces[c] + tail) for c in cs] if back else [(head + pieces[c], r - c, tail) for c in cs]
        for head, r, tail in runs:
            text, n = rows[r] if rows else (line, r + 1)
            after = close if marked else tail + close
            room = CHUNK_LINES - rank % CHUNK_LINES
            if n < room:
                spans = ((0, n),)
            else:
                spans = pairwise(chain((0,), range(room, n, CHUNK_LINES), (n,)))
                lines = text.split("\n")
            for i, j in spans:
                if not rows:
                    firsts, seconds = pairs(r)
                    firsts, seconds = firsts[i:j], seconds[i:j]
                    if slack is None:
                        columns = firsts, seconds
                    else:
                        shown, slacks = (seconds, firsts) if back else (firsts, seconds)
                        columns = (shown, range(k - slacks.start, k - slacks.stop, -slacks.step)) if slack else (shown,)
                    if ranked:
                        columns += (range(rank, rank + j - i),)
                    piece = (head + text + tail + (slack or "") + close).encode() * (j - i)
                    if len(columns) == 1:
                        piece %= tuple(columns[0])
                    else:
                        fields = [0] * ((j - i) * len(columns))
                        for c, column in enumerate(columns):
                            fields[c :: len(columns)] = column
                        piece %= tuple(fields)
                    chunk.append(piece.decode())
                else:
                    piece = text if j - i == n else "\n".join(lines[i:j])
                    if marked:
                        piece = piece.replace(_END, tail)
                    chunk += head, piece.replace("\n", after + head), after
                rank += j - i
                if rank % CHUNK_LINES == 0:
                    yield _filled(chunk, filled and range(rank - CHUNK_LINES, rank))
    if chunk:
        yield _filled(chunk, filled and range(rank - rank % CHUNK_LINES, rank))


def _lines(entries, fmt):
    """The lines of entries (tuples) in the format."""
    sep, opening, before_sum, before_rank, closing = _FRAMES[fmt]
    if fmt == "plain":
        return (sep.join(map(str, e)) for e in entries)
    return (
        f"{opening}{sep.join(map(str, e))}{before_sum}{sum(e)}{before_rank}{r}{closing}"
        for r, e in enumerate(entries)
    )


def cmd_compare(order_name, a, b):
    """Print LT / GT / EQ / INCOMPARABLE for two multi-indices."""
    x = _parse_index(a)
    y = _parse_index(b)
    strict = resolve_order(order_name, len(x))
    try:
        less = strict.apply(x, y)
    except LengthMismatchError as exc:
        raise _usage(str(exc))
    if x == y:
        verdict = "EQ"
    elif less:
        verdict = "LT"
    elif strict.apply(y, x):
        verdict = "GT"
    else:
        verdict = "INCOMPARABLE"
    _write(verdict + "\n")


def cmd_sort_terms(d, order_name, source):
    """Print the terms of a polynomial, from SOURCE or stdin, ascending."""
    if d < 1:
        raise _usage(f"--d must be >= 1, got {d}")
    order = resolve_order(order_name, d)
    name, read = source
    try:
        text = read()
    except UnicodeDecodeError as exc:
        raise _usage(f"cannot read {name}: {exc}")
    try:
        # a named order sorts packed monomials; weighted: orders, and text
        # that the packed reader declines, sort the polynomial's tuples
        packed = order_name in NAMED_ORDERS and poly._sort_packed(text, d, *NAMED_ORDERS[order_name])
        if not packed:
            p = poly.parse_poly(text, d)
            exponents = sorted_total(p.terms, order)
    except poly.PolyParseError as exc:
        raise _usage(str(exc))
    except IncomparableError as exc:
        raise _not_total(order_name, exc)
    except TOO_LARGE:
        raise _usage(f"--d {d} is too large")
    try:
        if packed:
            line = poly._write_packed(*packed)
        else:  # the sorted terms as pairs of the polynomial's own entries, no Term made
            line = poly._format_pairs(zip(exponents, map(p.terms.__getitem__, exponents)), d)
    except ValueError:  # str() of an int past the limit, which a product of coefficients can reach
        raise _usage(f"the result has a number of more than {sys.get_int_max_str_digits()} digits")
    _write(line + "\n")


def cmd_check(property_name, relation_name, carrier_spec):
    """Decide a relation property by brute force over a finite carrier."""
    try:
        lo_text, hi_text = carrier_spec.split("..")
        lo, hi = _integer(lo_text), _integer(hi_text)
    except ValueError:
        raise _usage(f"cannot parse carrier {carrier_spec!r}; expected 'a..b'")
    if lo > hi:
        raise _usage(f"empty carrier {carrier_spec!r}; expected 'a..b' with a <= b")
    try:
        carrier = carrier_range(lo, hi)
    except TOO_LARGE:
        raise _usage(f"carrier {carrier_spec!r} is too large")
    failure = property_witness(property_name, CLI_RELATIONS[relation_name], carrier)
    if failure is None:
        _write(f"PASS {property_name}({relation_name}) on {carrier_spec}\n")
        return
    conjunct, witness = failure
    _write(f"FAIL {property_name}({relation_name}) on {carrier_spec}: {conjunct} fails at {witness}\n")
    sys.exit(1)


def _number(text):
    """An option's number, read by weighted._integer."""
    try:
        return _integer(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _source(path):
    """SOURCE as (name, read): '-' is stdin, read as UTF-8 whatever the
    locale; a file is read here and closed, so that a missing one is refused
    before the command runs."""
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)  # None under an io.StringIO
        return "<stdin>", sys.stdin.read if buffer is None else lambda: buffer.read().decode("utf-8")
    try:
        with open(path, "rb") as file:
            return path, io.TextIOWrapper(io.BytesIO(file.read()), encoding="utf-8").read
    except OSError as exc:
        raise ValueError(f"'{path}': {exc.strerror}") from None


# Per command: its function, and its parameters in the function's order as
# (name, reader, default, help).  An option's name starts with "--".  A reader
# raises ValueError for a text it refuses; a tuple reader is the choices, and
# None marks a flag.  A default of None marks the parameter required.
_COMMANDS = {
    "enumerate": (cmd_enumerate, (
        ("--d", _number, None, "Dimension (>= 1)."),
        ("--k", _number, None, "Maximum component sum (>= 0)."),
        ("--order", str, "grsymlex", ""),
        ("--format", tuple(_FRAMES), "plain", ""),
        ("--allow-sort-fallback", None, False,
         "Permit generate-then-sort for orders without a slice scheme (weighted: orders only)."),
    )),
    "compare": (cmd_compare, (("--order", str, "grsymlex", ""), ("A", str, None, ""), ("B", str, None, ""))),
    "sort-terms": (cmd_sort_terms, (
        ("--d", _number, None, "Number of variables."),
        ("--order", str, "grlex", ""),
        ("SOURCE", _source, "-", ""),
    )),
    "check": (cmd_check, (
        ("--property", PROPERTY_NAMES, None, ""),
        ("--relation", tuple(CLI_RELATIONS), None, ""),
        ("--carrier", str, None, "Integer range 'a..b'."),
    )),
}


# Per command, what its argv is read by: per parameter by name, its reader if
# a function but str, its choices if any, and its default; whether each
# option (and --help) is a flag; and the names of its arguments in order.
_SPECS = {
    command: (
        {name: (reader if callable(reader) and reader is not str else None,
                reader if isinstance(reader, tuple) else None, default) for name, reader, default, _ in params},
        {name: reader is None for name, reader, _, _ in params if name[:2] == "--"} | {"--help": True},
        [name for name, *_ in params if name[:2] != "--"],
    )
    for command, (_, params) in _COMMANDS.items()
}


def _values(command, argv):
    """The values of the command's parameters read from argv, in their
    order, or None for --help.  As click did, argv is split first, then the
    options given are read in the order given, then the arguments, then the
    other options."""
    spec, flags, arguments = _SPECS[command]
    given, positional, rest = {}, [], iter(argv)
    for arg in rest:
        name, eq, value = arg.partition("=")
        if arg == "--":
            positional += rest
        elif arg[:1] != "-" or arg == "-":
            positional.append(arg)
        elif name not in flags:
            raise _usage(f"No such option {name!r}.")
        elif flags[name] and eq:
            raise _usage(f"Option {name!r} does not take a value.")
        else:
            if not (flags[name] or eq):
                value = next(rest, None)
                if value is None:
                    raise _usage(f"Option {name!r} requires an argument.")
            given[name] = flags[name] or value
    if "--help" in given:
        return None
    given |= zip(arguments, positional)
    values = {}
    for name in given | spec:  # the names given, then the others in order
        read, choices, default = spec[name]
        text = given.get(name, default)
        try:
            if text is None or choices and text not in choices:
                raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices or ()))}.")
            values[name] = text if read is None else read(text)
        except ValueError as exc:  # only an error needs the label
            label = f"[{name}]" if name in arguments and default is not None else name
            if text is None:
                listed = " Choose from:" + ",".join("\n\t" + c for c in choices) if choices else ""
                raise _usage(f"Missing {'argument' if name in arguments else 'option'} {label!r}.{listed}") from None
            raise _usage(f"Invalid value for {label!r}: {exc}") from None
    extra = positional[len(arguments) :]
    if extra:
        raise _usage(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
    return [values[name] for name in spec]


def _help(prog, command=None):
    """The --help text of main, or of a command, from _COMMANDS."""
    import textwrap

    usage, params = "[OPTIONS] COMMAND [ARGS]...", ()
    about = "Lexicographic and graded monomial orders on multi-indices."
    if command is not None:
        function, params = _COMMANDS[command]
        arguments = [name if default is None else f"[{name}]" for name, _, default, _ in params if name[:2] != "--"]
        usage, about = " ".join([command, "[OPTIONS]", *arguments]), function.__doc__
    lines = [f"Usage: {prog} {usage}", "", "  " + about, "", "Options:"]
    for name, reader, default, text in (*params, ("--help", None, False, "Show this message and exit.")):
        if name[:2] != "--":
            continue
        if reader is not None:
            choices = f"One of {', '.join(reader)}." if isinstance(reader, tuple) else ""
            mark = "[required]" if default is None else f"[default: {default}]"
            name, text = f"{name} {name[2:].upper()}", " ".join(filter(None, (choices, text, mark)))
        lines += ["  " + name, *textwrap.wrap(text, 79, initial_indent=" " * 6, subsequent_indent=" " * 6)]
    if command is None:
        lines += ["", "Commands:", *(f"  {name:12}{function.__doc__}" for name, (function, _) in _COMMANDS.items())]
    return "\n".join(lines) + "\n"


class _Main:
    """The front door, called as click's group was: by the console script and
    by CliRunner and the benchmark through main()."""

    name = "gradedorders"

    def __call__(self, *args, **kwargs):
        return self.main(*args, **kwargs)

    def main(self, args=None, prog_name=None, standalone_mode=True, **extra):
        """Run the command of args (sys.argv[1:] when None); a usage error
        is raised when not standalone_mode, else it exits 2."""
        argv, prog = sys.argv[1:] if args is None else list(args), prog_name or self.name
        try:
            if not argv:
                sys.stderr.write(_help(prog))
                sys.exit(2)
            command = argv[0]
            if command == "--help":
                sys.stdout.write(_help(prog))
                return 0
            if command not in _COMMANDS:
                if command[:1] == "-" and command != "-":
                    raise _usage(f"No such option {command.partition('=')[0]!r}.")
                raise _usage(f"No such command {command!r}.")
            values = _values(command, argv[1:])
            if values is None:
                sys.stdout.write(_help(prog, command))
                return 0
            return _COMMANDS[command][0](*values)
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            sys.stderr.write("\nAborted!\n")
            sys.exit(1)
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise
            from click.utils import PacifyFlushWrapper

            # so that the interpreter's last flush of the closed pipe is quiet
            sys.stdout, sys.stderr = PacifyFlushWrapper(sys.stdout), PacifyFlushWrapper(sys.stderr)
            sys.exit(1)
        except Exception as exc:
            # a usage error exists only once _usage has imported click
            click = sys.modules.get("click")
            if standalone_mode and click and isinstance(exc, click.UsageError):
                sys.stderr.write(f"Error: {exc.format_message()}\n")
                sys.exit(exc.exit_code)
            raise


main = _Main()

if __name__ == "__main__":
    main()
