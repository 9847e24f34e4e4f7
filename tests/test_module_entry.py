"""The CLI run as a module, the way README documents it: a new interpreter
with the source tree on its path, and, for check at carrier scale, this
process."""

import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from gradedorders import relations

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC.parent / "perfbench" / "fixtures"


def _module(*args):
    # the source tree first, then the caller's path, where click may live
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "gradedorders.cli", *args], {**os.environ, "PYTHONPATH": path}


def run_module(*args, input=None):
    argv, env = _module(*args)
    return subprocess.run(argv, input=input, capture_output=True, text=True, env=env, timeout=60)


def test_enumerate_through_the_module_entry():
    result = run_module("enumerate", "--d", "2", "--k", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0,0", "1,0", "0,1"]


def test_importing_the_cli_loads_neither_click_nor_textwrap():
    # click comes in with the first usage error or a closed pipe, textwrap
    # with --help
    argv, env = _module()
    code = "import sys, gradedorders.cli; print(sorted({'click', 'textwrap'} & set(sys.modules)))"
    result = subprocess.run([argv[0], "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.stdout == "[]\n", result.stderr


def test_usage_error_through_the_module_entry():
    result = run_module("enumerate", "--d", "0", "--k", "1")
    assert result.returncode == 2
    assert "Error: --d must be >= 1, got 0" in result.stderr


# The exit-code contract through the module entry: 1 for a failing property,
# 2 for a usage error, 3 for a missing capability; a weight matrix of the
# wrong dimension is a usage error on any input, and so is a number that is
# no run of digits.  Each case is argv, stdin and the exit code.
EXIT_CODES = [
    (("check", "--property", "reflexive", "--relation", "lt", "--carrier", "0..3"), None, 1),
    (("check", "--property", "nope", "--relation", "lt", "--carrier", "0..3"), None, 2),
    (("enumerate", "--d", "2", "--k", "2", "--order", f"weighted:{FIXTURES / 'w2.txt'}"), None, 3),
    (("sort-terms", "--d", "1", "--order", f"weighted:{FIXTURES / 'w3.txt'}"), "0\n", 2),
    (("enumerate", "--d", "1_0", "--k", "1"), None, 2),
]


@pytest.mark.parametrize("args, stdin, code", EXIT_CODES, ids=["fail", "property", "capability", "dimension", "digits"])
def test_exit_codes_through_the_module_entry(args, stdin, code):
    assert run_module(*args, input=stdin).returncode == code


def test_usage_through_the_module_entry():
    # help lists check's property names, --opt=value reads as --opt value,
    # -- ends the options so that a minus reaches the index check, and a
    # bare call is a usage error
    assert "strict_weak_order" in run_module("check", "--help").stdout
    assert run_module("enumerate", "--d=2", "--k=1").stdout == "0,0\n1,0\n0,1\n"
    result = run_module("compare", "--order", "lex", "--", "1,-2", "0,1")
    assert result.returncode == 2
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: multi-index components must be naturals: '1,-2'"]
    assert run_module().returncode == 2


def test_stdin_is_read_as_utf8_whatever_the_locale():
    # the byte 0xff is a letter in latin-1, which a stdin of that encoding
    # would hand to the parser
    argv, env = _module("sort-terms", "--d", "1")
    env["PYTHONIOENCODING"] = "latin-1"
    result = subprocess.run(argv, input=b"\xff", capture_output=True, env=env, timeout=60)
    assert result.returncode == 2
    errors = [line for line in result.stderr.decode("latin-1").splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: cannot read <stdin>: 'utf-8' codec can't decode byte 0xff")
    assert result.stdout == b""

def _into_a_closed_pipe(*args, lines):
    """The first lines of the module's stdout, read before the pipe is
    closed as `head` closes it, its stderr and its exit code."""
    argv, env = _module(*args)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        try:
            first = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a writer still running after the timeout
    return first, err, proc.returncode


def test_enumerate_into_a_closed_pipe():
    # The output has 203,491 lines; the reader takes two and closes the
    # pipe, as `head -n 2` does.  The writer exits 1 with nothing on stderr.
    lines, err, code = _into_a_closed_pipe("enumerate", "--d", "8", "--k", "13", "--format", "csv", lines=2)
    assert lines == ["i0,i1,i2,i3,i4,i5,i6,i7,sum,rank\n", "0,0,0,0,0,0,0,0,0,0\n"]
    assert err == ""
    assert code == 1


@pytest.mark.parametrize("d, k", [(1, 2**63 - 2), (2, 2**32 - 2), (33, 33)])
def test_the_largest_sets_within_sys_maxsize_entries_stream(d, k):
    # C(d + k, d) is sys.maxsize, 2**63 - 2**31 and C(66, 33): one more in
    # k or d is refused (test_cli), these stream until the pipe closes
    lines, err, code = _into_a_closed_pipe("enumerate", "--d", str(d), "--k", str(k), lines=1)
    assert lines == [",".join(["0"] * d) + "\n"]
    assert (err, code) == ("", 1)


def test_enumerate_at_a_large_k_streams_and_a_set_past_sys_maxsize_is_refused():
    # the slack walk at k = 10**6 with no table, cut off after two lines,
    # and a set of more than sys.maxsize entries under the sort fallback,
    # which exits 2 with one error line before any entry is made
    args = "enumerate", "--d", "2", "--k", "1000000", "--order", "lex", "--format", "csv"
    lines, err, code = _into_a_closed_pipe(*args, lines=2)
    assert lines == ["i0,i1,sum,rank\n", "0,0,0,0\n"]
    assert (err, code) == ("", 1)
    fixture = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "w2.txt"
    k = "4611686018427387904"
    result = run_module("enumerate", "--d", "2", "--k", k, "--order", f"weighted:{fixture}", "--allow-sort-fallback")
    assert result.returncode == 2
    assert [line for line in result.stderr.splitlines() if line.startswith("Error:")] == [f"Error: --k {k} is too large"]
    assert result.stdout == ""


# lt, le, gt and ge on a range are linear orders, known without a table, so
# that a million-element carrier answers at once; divides keeps its n^2 scan
MILLION = [
    ("strict_total_order", "lt"),
    ("total_order", "le"),
    ("trichotomous", "gt"),
    ("connected", "ge"),
]


@pytest.mark.parametrize("prop, relation", MILLION, ids=[f"{p}-{r}" for p, r in MILLION])
def test_comparisons_on_a_million_ints_build_no_table(monkeypatch, prop, relation):
    """python -m gradedorders.cli, run in this process, passes each linear
    order on 0..1000000 with the PASS line, and no table is built."""

    def unbuilt(table):
        raise AssertionError("a relation table was built")

    monkeypatch.setattr(relations._Table, "cells", property(unbuilt))
    # runpy warns of a package module it is asked to run again
    monkeypatch.delitem(sys.modules, "gradedorders.cli", raising=False)
    monkeypatch.setattr(sys, "argv", ["gradedorders", "check", "--property", prop, "--relation", relation,
                                      "--carrier", "0..1000000"])
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    runpy.run_module("gradedorders.cli", run_name="__main__")
    assert out.getvalue() == f"PASS {prop}({relation}) on 0..1000000\n"
