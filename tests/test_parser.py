"""The flat command-line parser against the subparser oracle."""

import pytest

from gradealg.cli import _HANDLERS, _parse_args, main
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
