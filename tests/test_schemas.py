"""The compiled schema predicates against jsonschema as the oracle.

A predicate is one-sided: whenever it accepts an instance, jsonschema
accepts it too. Every verdict and message of ``validate_input`` and
``validate_output`` is jsonschema's.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradealg import schemas
from gradealg.blowup import MAX_DEGREE_BOUND, MAX_LEVEL_BOUND
from gradealg.cli import main
from gradealg.errors import InternalError
from gradealg.schemas import INPUT_SCHEMA, OUTPUT_SCHEMAS
from tests.test_cli import GOLDEN_RUNS

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

INPUT_ORACLE = jsonschema.Draft202012Validator(INPUT_SCHEMA)
OUTPUT_ORACLES = {c: jsonschema.Draft202012Validator(s) for c, s in OUTPUT_SCHEMAS.items()}

INPUTS = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
GOLDEN_REPORTS = [json.loads((GOLDEN / run[3]).read_text()) for run in GOLDEN_RUNS]
# every command on every small input, so that each report schema sees more
# than its one golden
SMALL_INPUTS = ["edge.json", "notsplit.json", "path.json", "split.json", "twopoints.json"]


def _cli_reports(tmp_dir: Path) -> list:
    reports = []
    for command in OUTPUT_SCHEMAS:
        for name in SMALL_INPUTS:
            out = tmp_dir / f"{command}-{name}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main([command, "--input", str(DATA / name), "--json", str(out)])
            if out.exists():
                reports.append(json.loads(out.read_text()))
    return reports


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    return _cli_reports(tmp_path_factory.mktemp("reports"))


def test_every_data_input_gets_the_oracle_verdict():
    for name, spec in INPUTS.items():
        valid = INPUT_ORACLE.is_valid(spec)
        assert schemas._INPUT_CHECK(spec) == valid, name
        assert valid == (name != "missing_i.json"), name


def test_every_report_is_accepted_by_both(cli_reports):
    assert {r["command"] for r in cli_reports} == set(OUTPUT_SCHEMAS)
    for report in GOLDEN_REPORTS + cli_reports:
        command = report["command"]
        assert OUTPUT_ORACLES[command].is_valid(report)
        assert schemas._OUTPUT_CHECKS[command](report)
        schemas.validate_output(command, report)


# ---------------------------------------------------------------------------
# mutations


def _nodes(obj, path=()):
    """(path, value) of every node, the root first."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _nodes(value, path + (index,))


def _set(obj, path, value):
    if not path:
        return value
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def _mutate(data, obj):
    """One schema-relevant mutation of ``obj``, drawn from ``data``."""
    kinds = ["drop_key", "add_key", "bool_for_int", "float_for_int", "bad_name", "retype"]
    is_input = isinstance(obj, dict) and "command" not in obj
    if is_input:
        kinds += ["repeat_vertex", "j_and_facets", "neither", "bound", "window"]
    kind = data.draw(st.sampled_from(kinds))
    nodes = dict(_nodes(obj))
    targets = {
        "drop_key": [p for p, v in nodes.items() if type(v) is dict and v],
        "add_key": [p for p, v in nodes.items() if type(v) is dict],
        "bool_for_int": [p for p, v in nodes.items() if type(v) is int],
        "bad_name": [p for p, v in nodes.items() if type(v) is str],
        "retype": list(nodes),
    }
    targets["float_for_int"] = targets["bool_for_int"]
    if kind in targets:
        if not targets[kind]:
            return obj
        path = data.draw(st.sampled_from(targets[kind]))
        value = nodes[path]
    if kind == "drop_key":
        del value[data.draw(st.sampled_from(sorted(value)))]
    elif kind == "add_key":
        value[data.draw(st.sampled_from(["extra", "Y1", "j"]))] = 0
    elif kind == "bool_for_int":
        obj = _set(obj, path, bool(value % 2))
    elif kind == "float_for_int":
        obj = _set(obj, path, float(value))
    elif kind == "bad_name":
        name = data.draw(st.sampled_from(["x1\n", "1x", "x 1", "", "Q\n", "GF(0)", "none", "A"]))
        obj = _set(obj, path, name)
    elif kind == "retype":
        value = data.draw(st.sampled_from([None, 0, -1, "x1", [], {}, True, 1.5, [1, 1]]))
        obj = _set(obj, path, value)
    elif kind == "repeat_vertex":
        facets = obj.get("facets")
        facets = [f for f in facets if type(f) is list and f] if type(facets) is list else []
        if facets:
            facet = data.draw(st.sampled_from(facets))
            facet.append(facet[0])
    elif kind == "j_and_facets":
        obj.setdefault("J", [])
        obj.setdefault("facets", [[1]])
    elif kind == "neither":
        obj.pop("J", None)
        obj.pop("facets", None)
    elif kind in ("bound", "window") and type(obj.setdefault("options", {})) is dict:
        if kind == "bound":
            key = data.draw(st.sampled_from(["level_bound", "degree_bound"]))
            top = MAX_LEVEL_BOUND if key == "level_bound" else MAX_DEGREE_BOUND
            obj["options"][key] = data.draw(st.sampled_from([-1, 0, top, top + 1, 10**30]))
        else:
            obj["options"]["window"] = data.draw(
                st.sampled_from([[0], [-1, 0], [-1, 0, 1], [0, "1"]])
            )
    return obj


def _mutated(data, bases):
    obj = copy.deepcopy(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
    return obj


def _message(validator, obj):
    try:
        validator.validate(obj)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def _check_input(spec, tmp_dir: Path):
    """The predicate is one-sided, and ``validate_input`` and the CLI give
    jsonschema's verdict and message."""
    if schemas._INPUT_CHECK(spec):
        assert INPUT_ORACLE.is_valid(spec)
    expected = _message(INPUT_ORACLE, spec)
    if expected is None:
        schemas.validate_input(spec)
    else:
        with pytest.raises(jsonschema.ValidationError) as exc:
            schemas.validate_input(spec)
        assert exc.value.message == expected
    # through the CLI, after a round trip through a JSON file
    path = tmp_dir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    expected = _message(INPUT_ORACLE, json.loads(path.read_text()))
    if expected is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["dim", "--input", str(path)]) == 1
    assert err.getvalue() == f"error: invalid problem description: {expected}\n"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_inputs_get_the_oracles_verdict(data, tmp_path_factory):
    _check_input(_mutated(data, list(INPUTS.values())), tmp_path_factory.mktemp("spec"))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_reports_get_the_oracles_verdict(data):
    report = _mutated(data, GOLDEN_REPORTS)
    # mostly the report's own schema, sometimes another one
    commands = sorted(OUTPUT_SCHEMAS)
    own = report.get("command") if isinstance(report, dict) else None
    if isinstance(own, str) and own in OUTPUT_SCHEMAS:
        commands += [own] * 6
    command = data.draw(st.sampled_from(commands))
    oracle = OUTPUT_ORACLES[command]
    if schemas._OUTPUT_CHECKS[command](report):
        assert oracle.is_valid(report)
    expected = _message(oracle, report)
    if expected is None:
        schemas.validate_output(command, report)
        return
    with pytest.raises(InternalError) as exc:
        schemas.validate_output(command, report)
    assert str(exc.value) == f"{command} report fails its schema: {expected}"


@pytest.mark.parametrize(
    "spec",
    [
        {"J": [], "I": ["x1"], "variables": ["x1\n"]},
        {"J": [], "I": ["x1"], "variables": ["x1"], "field": "Q\n"},
        {"J": [], "I": ["x1"], "variables": ["1x"]},
        {"J": [], "I": ["x1"], "variables": ["x1"], "options": {"level_bound": 1.0}},
        {"J": [], "I": ["x1"], "variables": ["x1"], "options": {"degree_bound": True}},
        {"J": [], "I": ["x1"], "variables": ["x1"], "options": {"degree_bound": 21}},
        {"facets": [[1, 1]], "I": ["x1"], "variables": ["x1"]},
        {"facets": [[1.0, 1]], "I": ["x1"], "variables": ["x1"]},
        {"facets": [[True, 1]], "I": ["x1"], "variables": ["x1"]},
        {"J": [], "facets": [[1]], "I": ["x1"], "variables": ["x1"]},
        {"I": ["x1"], "variables": ["x1"]},
        {"J": [], "I": ["x1"], "variables": ("x1",)},
        {"J": [], "I": ["x1"], "variables": ["x1"], "options": {"window": [0, 1.5]}},
    ],
)
def test_hand_picked_inputs_get_the_oracles_verdict(spec, tmp_path):
    _check_input(spec, tmp_path)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "date"},
        {"type": "number"},
        {"properties": {"a": {"$ref": "#/x"}}},
        {"additionalProperties": {"type": "string"}},
        {"oneOf": [{"type": "string"}, {"type": "null"}]},
        {"enum": [[1], 2]},
        {"const": {"a": 1}},
        {"items": {"not": {"type": "null"}}},
    ],
)
def test_unsupported_keyword_raises_at_compile_time(schema):
    with pytest.raises(ValueError):
        schemas._compile(schema)


def test_pattern_uses_search_like_jsonschema():
    check = schemas._compile({"type": "string", "pattern": "^x[0-9]$"})
    oracle = jsonschema.Draft202012Validator({"type": "string", "pattern": "^x[0-9]$"})
    for name in ["x1", "x1\n", "x12", "1x", "ax1"]:
        assert check(name) == oracle.is_valid(name), name


def test_bounds_with_infinite_defaults():
    check = schemas._compile({"type": "integer", "minimum": 0})
    assert check(10**400) and not check(-1) and not check(math.inf)
