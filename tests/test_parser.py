"""The flat command-line parser against the subparser oracle, and the
argv reader in front of it against the flat parser alone."""

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradealg import cli
from gradealg.cli import _HANDLERS, _build_parser, _parse_args, _read_argv, main
from tests.subparser_oracle import _build_parser as oracle_parser

FIELDS = ("command", "input", "field", "window", "json", "allow_linear", "module")

VALID = [
    *[[command, "--input", "p.json"] for command in _HANDLERS],
    ["check-iso", "--input", "p.json", "--allow-linear", "--json", "out.json"],
    ["check-iso", "--input=p.json", "--field=GF(3)", "--json=out.json"],
    ["presentation", "--field", "Q", "--input", "p.json"],
    ["hilbert", "--input", "p.json", "--window", "0:4"],
    ["cohomology", "--input", "p.json", "--module", "R", "--window=-10:2"],
    ["cohomology", "--input", "p.json", "--module=A", "--field", "GF(2)"],
    ["cohomology", "--input", "p.json", "--mod", "R"],
    ["cohomology", "--inp", "p.json", "--allow-linear", "--window=-4:1"],
    ["gencm", "--input", "p.json", "--window=-3:0", "--json", "r.json"],
    ["dim", "--allow-linear", "--input", "p.json"],
]

REJECTED = [
    ["frobnicate", "--input", "p.json"],
    ["dim"],
    ["cohomology"],
    ["dim", "--input", "p.json", "--module", "R"],
    ["gencm", "--input", "p.json", "--module", "A"],
    ["cohomology", "--input", "p.json", "--module", "X"],
    ["cohomology", "--input", "p.json", "--window", "-10:2"],
    ["dim", "--input", "p.json", "--frobnicate"],
    ["dim", "--input"],
    [],
]


def _fields(namespace) -> tuple:
    return tuple(getattr(namespace, name, None) for name in FIELDS)


@pytest.mark.parametrize("argv", VALID)
def test_flat_parser_reads_what_the_subparsers_read(argv):
    expected = oracle_parser().parse_args(argv)
    assert _fields(_parse_args(argv)) == _fields(expected)


@pytest.mark.parametrize("argv", REJECTED)
def test_flat_parser_rejects_what_the_subparsers_reject(argv, capsys):
    with pytest.raises(SystemExit) as oracle:
        oracle_parser().parse_args(argv)
    assert oracle.value.code == 1
    with pytest.raises(SystemExit) as flat:
        main(argv)
    assert flat.value.code == 1
    assert capsys.readouterr().out == ""


def test_help_exits_zero_and_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gradealg ")
    for command in _HANDLERS:
        assert f"\n  {command} " in out
    assert "--module {A,R}" in out


PATH_JSON = Path(__file__).parent / "data" / "path.json"
OPTIONS = ["--input", "--field", "--window", "--json", "--module"]
ABBREVIATIONS = ["--inp", "--fie", "--win", "--js", "--mod", "--allow", "--allow-lin"]
# path.json is a copy in the working directory of each run
VALUES = [
    "path.json", "p.json", "-3:0", "0:4", "-5", "", "X", "a=b", "A", "R", "GF(2)", "Q", "out.json"
]
# argv pieces: an exact option with its value, in either form, or --allow-linear
OPTION_VALUES = st.one_of(st.sampled_from(["A", "R"]), st.sampled_from(VALUES))
PLAIN_PIECES = st.one_of(
    st.builds(lambda o, v: [o, v], st.sampled_from(OPTIONS), OPTION_VALUES),
    st.builds(lambda o, v: [f"{o}={v}"], st.sampled_from(OPTIONS), OPTION_VALUES),
    st.just(["--allow-linear"]),
)
# and the pieces the reader leaves to argparse, or that make a usage error
PIECES = st.one_of(
    PLAIN_PIECES,
    st.sampled_from([[name] for name in _HANDLERS]),
    st.builds(lambda o, v: [o, v], st.sampled_from(ABBREVIATIONS), OPTION_VALUES),
    st.builds(lambda o, v: [f"{o}={v}"], st.sampled_from(ABBREVIATIONS), OPTION_VALUES),
    st.sampled_from([["--allow-linear=1"], ["--"], ["-h"], ["--help"]]),
    st.sampled_from([[o] for o in OPTIONS] + [[v] for v in VALUES]),
)
# a command and --input, in some order among mostly plain pieces, so that
# the reader accepts often enough to be tested
ARGVS = st.one_of(
    st.lists(PIECES, max_size=6),
    st.tuples(
        st.sampled_from(list(_HANDLERS)),
        st.sampled_from(VALUES),
        st.lists(PLAIN_PIECES, max_size=3),
        st.lists(PIECES, max_size=1),
    ).flatmap(lambda t: st.permutations([[t[0]], ["--input", t[1]], *t[2], *t[3]])),
).map(lambda pieces: [token for piece in pieces for token in piece])


def _run(argv) -> tuple:
    """``main``'s exit code, stdout and stderr, in a fresh working directory
    holding a copy of ``path.json`` (``--json`` may write over it)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            shutil.copy(PATH_JSON, "path.json")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(ARGVS)
@example(["cohomology", "--module=X", "--module", "A", "--input", "p.json"])
@example(["dim", "--input", "path.json", "--module", "R"])
@example(["dim", "--input", "path.json", "--allow-linear=1"])
def test_reader_agrees_with_argparse(argv):
    accepted = _read_argv(argv)
    if accepted is not None:
        # argparse must accept too (a usage error raises SystemExit here)
        assert _fields(_build_parser().parse_args(argv)) == _fields(accepted)
    # the argparse-only route: the reader refuses every argv
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        expected = _run(argv)
    assert _run(argv) == expected
