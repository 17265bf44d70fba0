"""jsonschema stays off the import path and the accept path.

Each test runs a fresh interpreter, since this process has long imported
jsonschema for the oracle tests.
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

# runs the CLI, then prints on its last stdout line whether jsonschema is loaded
_MAIN = (
    "import sys; from gradealg.cli import main; code = main(sys.argv[1:]); "
    "print('jsonschema' in sys.modules); sys.exit(code)"
)


def _python(*args) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_import_cli_leaves_jsonschema_unloaded():
    proc = _python("-c", "import sys, gradealg.cli; print('jsonschema' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_accepted_request_leaves_jsonschema_unloaded():
    proc = _python("-c", _MAIN, "dim", "--input", str(DATA / "path.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert proc.stderr == ""


def test_rejected_request_loads_jsonschema_for_its_message():
    spec = json.loads((DATA / "missing_i.json").read_text(encoding="utf-8"))
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.Draft202012Validator(INPUT_SCHEMA).validate(spec)
    proc = _python("-c", _MAIN, "dim", "--input", str(DATA / "missing_i.json"))
    assert proc.returncode == 1
    assert proc.stdout == "True\n"
    assert proc.stderr == f"error: invalid problem description: {exc.value.message}\n"
