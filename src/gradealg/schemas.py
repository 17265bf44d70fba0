"""JSON schemas for CLI problem descriptions and command reports.

Every report the CLI emits is validated against its schema first, so the
published schema files in docs/schemas stay honest: a report that drifts
from its schema raises ``InternalError`` (exit 4), not a silent format change.

Each schema dict is compiled once, at import, into a nested Python predicate
(``_compile``). The predicate is one-sided: when it accepts an instance,
jsonschema accepts it too. It may refuse an instance jsonschema would accept
(``1.0`` for an integer, a bool in an enum, a tuple for an array); only then
is jsonschema imported and the schema's ``Draft202012Validator`` built (once,
on its first refusal), which raises with jsonschema's own message or passes.
So every verdict and every message is jsonschema's, and an accepted instance
never loads jsonschema. ``ValidationError`` is jsonschema's class, resolved
on first access. The compiler knows only the keywords these schemas use and
raises on any other.
"""

from __future__ import annotations

import functools
import math
import re

from .blowup import MAX_DEGREE_BOUND, MAX_LEVEL_BOUND
from .errors import InternalError

_SCHEMA_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_NAME_PATTERN = "^[A-Za-z][A-Za-z0-9_]*$"

_VARIABLES = {
    "type": "array",
    "items": {"type": "string", "pattern": _NAME_PATTERN},
    "minItems": 1,
    "uniqueItems": True,
}

_STRING_LIST = {"type": "array", "items": {"type": "string"}}

_NULLABLE_STRING_LIST = {
    "anyOf": [{"type": "null"}, {"type": "array", "items": {"type": "string"}}]
}

_WINDOW = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": 2,
    "maxItems": 2,
}

# rows (index-or-level, degree, dimension); integer triples avoid relying
# on the lexicographic ordering of stringified numeric object keys
_ENTRIES = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {"type": "integer"},
        "minItems": 3,
        "maxItems": 3,
    },
}

_FLAGS = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "index": {"type": "integer"},
            "is_zero": {"type": "boolean"},
            "finite_length": {"type": "boolean"},
            "vanishes_below_minus_one": {"type": "boolean"},
        },
        "required": ["index", "is_zero", "finite_length", "vanishes_below_minus_one"],
        "additionalProperties": False,
    },
}

_SR_INVARIANTS = {
    "type": "object",
    "properties": {
        "dim_A": {"type": "integer"},
        "depth_A": {"type": "integer"},
        "a_invariant": {"type": "integer"},
        "cm": {"type": "boolean"},
        "gencm": {"type": "boolean"},
    },
    "required": ["dim_A", "depth_A", "a_invariant", "cm", "gencm"],
    "additionalProperties": False,
}

INPUT_SCHEMA = {
    "$schema": _SCHEMA_DIALECT,
    "title": "gradealg problem description",
    "type": "object",
    "properties": {
        "field": {"type": "string", "pattern": "^(Q|GF\\([1-9][0-9]*\\))$"},
        "variables": _VARIABLES,
        "J": _STRING_LIST,
        "facets": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "uniqueItems": True,
            },
        },
        "I": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "options": {
            "type": "object",
            "properties": {
                "window": _WINDOW,
                "level_bound": {"type": "integer", "minimum": 0, "maximum": MAX_LEVEL_BOUND},
                "degree_bound": {"type": "integer", "minimum": 0, "maximum": MAX_DEGREE_BOUND},
            },
            "additionalProperties": False,
        },
    },
    "required": ["variables", "I"],
    "oneOf": [{"required": ["J"]}, {"required": ["facets"]}],
    "additionalProperties": False,
}


def _envelope(command: str, payload: dict) -> dict:
    """The report schema of ``command``: every field it lists is required."""
    properties = {
        "command": {"const": command},
        "field": {"type": "string"},
        "variables": _VARIABLES,
    }
    properties.update(payload)
    return {
        "$schema": _SCHEMA_DIALECT,
        "title": f"gradealg {command} report",
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


_PRESENTATION_BLOCK = {
    "type": "object",
    "properties": {
        "x_variables": _STRING_LIST,
        "y_variables": _STRING_LIST,
        "y_degrees": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "generators": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "poly": {"type": "string"},
                    "y_weight": {"type": "integer", "minimum": 0},
                    "internal_degree": {"type": "integer", "minimum": 0},
                },
                "required": ["poly", "y_weight", "internal_degree"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["x_variables", "y_variables", "y_degrees", "generators"],
    "additionalProperties": False,
}

OUTPUT_SCHEMAS = {
    "check-iso": _envelope(
        "check-iso",
        {
            "isomorphic": {"type": "boolean"},
            "verified": {"type": "boolean"},
            "reason": {"enum": [None, "not-variable-generated", "not-split"]},
            "B": _NULLABLE_STRING_LIST,
            "C": _NULLABLE_STRING_LIST,
            "JB": _NULLABLE_STRING_LIST,
            "JC": _NULLABLE_STRING_LIST,
            "kernel_generators": _NULLABLE_STRING_LIST,
        },
    ),
    "presentation": _envelope(
        "presentation",
        {"rees": _PRESENTATION_BLOCK, "assoc_graded": _PRESENTATION_BLOCK},
    ),
    "hilbert": _envelope(
        "hilbert",
        {
            "level_bound": {"type": "integer"},
            "degree_bound": {"type": "integer"},
            "entries": _ENTRIES,
        },
    ),
    "cohomology": _envelope(
        "cohomology",
        {
            "module": {"enum": ["A", "R"]},
            "window": _WINDOW,
            "entries": _ENTRIES,
            "flags": _FLAGS,
            "invariants": _SR_INVARIANTS,
            "dim_R": {"type": ["integer", "null"]},
            "adic_a_invariant": {"type": ["integer", "null"]},
            "cm_R": {"type": ["boolean", "null"]},
        },
    ),
    "gencm": _envelope(
        "gencm",
        {
            "gencm": {"type": "boolean"},
            "case": {
                "enum": [
                    "case1-contained",
                    "case2-dimA2-zero",
                    "case3-vanishing",
                    "none",
                ]
            },
            "dim_R": {"type": "integer"},
            "cm_R": {"type": "boolean"},
            "precondition_A_gencm": {"type": "boolean"},
            "B": _STRING_LIST,
            "C": _STRING_LIST,
            "evidence": {
                "type": "object",
                "properties": {
                    "I_in_all_top_primes": {"type": "boolean"},
                    "dimA2_zero": {"type": "boolean"},
                    "a_A1_negative": {"type": "boolean"},
                    "H_d1_minus_1_A1_below_minus_2_zero": {"type": "boolean"},
                    "H_d2_minus_1_A2_zero": {"type": "boolean"},
                    "A1_gencm": {"type": "boolean"},
                    "A2_gencm": {"type": "boolean"},
                    "factors_gencm_consistent": {"type": "boolean"},
                    "dim_A": {"type": "integer"},
                    "dim_A1": {"type": "integer"},
                    "dim_A2": {"type": "integer"},
                    "field": {"type": "string"},
                },
                "required": [
                    "I_in_all_top_primes",
                    "dimA2_zero",
                    "a_A1_negative",
                    "H_d1_minus_1_A1_below_minus_2_zero",
                    "H_d2_minus_1_A2_zero",
                ],
                "additionalProperties": False,
            },
            "windows": {
                "type": "object",
                "properties": {
                    "window": _WINDOW,
                    "A": _ENTRIES,
                    "R": _ENTRIES,
                },
                "required": ["window", "A", "R"],
                "additionalProperties": False,
            },
        },
    ),
    "dim": _envelope(
        "dim",
        {
            "dim_A": {"type": "integer"},
            "dim_R": {"type": "integer"},
            "depth_A": {"type": "integer"},
            "a_invariant": {"type": "integer"},
        },
    ),
}


# the keywords _compile knows, and the two annotations it skips
_KEYWORDS = set(
    "type properties additionalProperties required items minItems maxItems uniqueItems"
    " pattern minimum maximum enum const anyOf oneOf $schema title".split()
)
_JSON_TYPES = dict(object=dict, array=list, string=str, integer=int, boolean=bool, null=type(None))


def _compile(schema: dict):
    """A predicate that accepts an instance only if jsonschema accepts it.

    Types are matched exactly (``type(x) is int`` refuses bools and floats),
    and each keyword that jsonschema applies to one type only also demands
    that type, so the predicate never accepts more than the schema does.
    """
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not compiled")
    checks = []
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not _JSON_TYPES.keys() >= set(names):
            raise ValueError(f"schema types {names} are not compiled")
        types = frozenset(map(_JSON_TYPES.get, names))
        checks.append(lambda x: type(x) in types)
    if schema.keys() & {"properties", "additionalProperties", "required"}:
        checks.append(_object_check(schema))
    if schema.keys() & {"items", "minItems", "maxItems", "uniqueItems"}:
        checks.append(_array_check(schema))
    if "pattern" in schema:
        search = re.compile(schema["pattern"]).search
        checks.append(lambda x: type(x) is str and search(x) is not None)
    if schema.keys() & {"minimum", "maximum"}:
        lo, hi = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
        checks.append(lambda x: type(x) is int and lo <= x <= hi)
    if schema.keys() & {"enum", "const"}:
        values = schema["enum"] if "enum" in schema else [schema["const"]]
        if any(type(v) not in (str, int, bool, type(None)) for v in values):
            raise ValueError("enum and const values must be strings, integers, booleans or null")
        members = frozenset((type(v), v) for v in values)
        kinds = frozenset(type(v) for v in values)
        checks.append(lambda x: type(x) in kinds and (type(x), x) in members)
    if "anyOf" in schema:
        branches = [_compile(s) for s in schema["anyOf"]]
        checks.append(lambda x: any(b(x) for b in branches))
    if "oneOf" in schema:
        # "exactly one" needs exact branch verdicts, and `required` on a dict
        # is the one check compiled exactly
        if any(s.keys() != {"required"} for s in schema["oneOf"]):
            raise ValueError("oneOf branches must be required-only schemas")
        needs = [frozenset(s["required"]) for s in schema["oneOf"]]
        checks.append(lambda x: type(x) is dict and sum(x.keys() >= r for r in needs) == 1)
    if len(checks) == 1:
        return checks[0]
    return lambda x: all(c(x) for c in checks)


def _object_check(schema: dict):
    properties = {k: _compile(s) for k, s in schema.get("properties", {}).items()}
    closed = schema.get("additionalProperties", True)
    if closed is not True and closed is not False:
        raise ValueError("additionalProperties must be true or false")
    required = frozenset(schema.get("required", ()))

    def check(x):
        if type(x) is not dict or not x.keys() >= required:
            return False
        for key, value in x.items():
            p = properties.get(key)
            if p is None:
                if not closed:
                    return False
            elif not p(value):
                return False
        return True

    return check


def _array_check(schema: dict):
    item = _compile(schema["items"]) if "items" in schema else None
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    unique = schema.get("uniqueItems", False)

    def check(x):
        if type(x) is not list or not lo <= len(x) <= hi:
            return False
        if item is not None and not all(map(item, x)):
            return False
        # a set compares ints and strings as jsonschema does; bools, floats
        # and containers are refused
        return not unique or (
            all(type(v) is int or type(v) is str for v in x) and len(set(x)) == len(x)
        )

    return check


# Built once: neither a predicate nor a validator holds state between calls.
_INPUT_CHECK = _compile(INPUT_SCHEMA)
_OUTPUT_CHECKS = {command: _compile(schema) for command, schema in OUTPUT_SCHEMAS.items()}


@functools.cache
def _validator(command: str | None):
    """jsonschema's validator for a command's report schema, or for the input
    schema when ``command`` is None, built on the first refusal."""
    import jsonschema

    return jsonschema.Draft202012Validator(
        INPUT_SCHEMA if command is None else OUTPUT_SCHEMAS[command]
    )


def __getattr__(name: str):
    # PEP 562: ``schemas.ValidationError`` imports jsonschema on first access
    if name == "ValidationError":
        import jsonschema

        return jsonschema.ValidationError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def validate_input(obj) -> None:
    if not _INPUT_CHECK(obj):
        _validator(None).validate(obj)


def validate_output(command: str, obj) -> None:
    if _OUTPUT_CHECKS[command](obj):
        return
    import jsonschema

    try:
        _validator(command).validate(obj)
    except jsonschema.ValidationError as exc:
        raise InternalError(f"{command} report fails its schema: {exc.message}") from exc
