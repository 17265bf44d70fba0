"""jsonschema and argparse stay off the import path and the accept path,
and so do dataclasses and inspect, which nothing in the package needs.

Each test runs a fresh interpreter, since this process has long imported
jsonschema and argparse for the oracle tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gradealg.schemas import INPUT_SCHEMA

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"

# the modules neither importing the CLI nor an accepted request may load;
# of these, only a rejection, --help or a usage error loads the first four
_LAZY = ("jsonschema", "argparse", "gettext", "locale", "dataclasses", "inspect")
# prints the loaded ones of _LAZY, space-separated on one line, and exits with `code`
_LOADED = f"print(*(m for m in {_LAZY!r} if m in sys.modules)); sys.exit(code)"
# runs the CLI, then prints on its last stdout line which of _LAZY are loaded;
# --help and usage errors exit through SystemExit
_MAIN = (
    "import sys; from gradealg.cli import main\n"
    "try: code = main(sys.argv[1:])\n"
    "except SystemExit as exc: code = exc.code\n" + _LOADED
)


def _python(*args) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_import_cli_leaves_jsonschema_and_argparse_unloaded():
    proc = _python("-c", "import sys, gradealg.cli; code = 0; " + _LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_accepted_request_leaves_jsonschema_and_argparse_unloaded():
    proc = _python("-c", _MAIN, "dim", "--input", str(DATA / "path.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["dim", "--input", str(DATA / "path.json"), "--module", "R"], 1),
    ],
)
def test_help_and_usage_errors_load_argparse(argv, code):
    proc = _python("-c", _MAIN, *argv)
    assert proc.returncode == code, proc.stderr
    assert "argparse" in proc.stdout.splitlines()[-1].split()


def test_rejected_request_loads_jsonschema_for_its_message():
    spec = json.loads((DATA / "missing_i.json").read_text(encoding="utf-8"))
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.Draft202012Validator(INPUT_SCHEMA).validate(spec)
    proc = _python("-c", _MAIN, "dim", "--input", str(DATA / "missing_i.json"))
    assert proc.returncode == 1
    # a rejection prints nothing but the marker line on stdout
    (marker,) = proc.stdout.splitlines()
    loaded = marker.split()
    assert "jsonschema" in loaded and "argparse" not in loaded
    assert proc.stderr == f"error: invalid problem description: {exc.value.message}\n"
