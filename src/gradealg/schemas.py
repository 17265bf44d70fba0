"""JSON schemas for CLI problem descriptions and command reports.

Every report the CLI emits is validated against its schema first, so the
published schema files in docs/schemas stay honest: a report that drifts
from its schema is a crash, not a silent format change.
"""

from __future__ import annotations

import jsonschema

from .blowup import MAX_DEGREE_BOUND, MAX_LEVEL_BOUND

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


def _envelope(command: str, payload: dict, required: list) -> dict:
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
        "required": ["command", "field", "variables"] + required,
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
        ["isomorphic", "verified", "reason", "B", "C", "JB", "JC", "kernel_generators"],
    ),
    "presentation": _envelope(
        "presentation",
        {"rees": _PRESENTATION_BLOCK, "assoc_graded": _PRESENTATION_BLOCK},
        ["rees", "assoc_graded"],
    ),
    "hilbert": _envelope(
        "hilbert",
        {
            "level_bound": {"type": "integer"},
            "degree_bound": {"type": "integer"},
            "entries": _ENTRIES,
        },
        ["level_bound", "degree_bound", "entries"],
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
        [
            "module",
            "window",
            "entries",
            "flags",
            "invariants",
            "dim_R",
            "adic_a_invariant",
            "cm_R",
        ],
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
        [
            "gencm",
            "case",
            "dim_R",
            "cm_R",
            "precondition_A_gencm",
            "B",
            "C",
            "evidence",
            "windows",
        ],
    ),
    "dim": _envelope(
        "dim",
        {
            "dim_A": {"type": "integer"},
            "dim_R": {"type": "integer"},
            "depth_A": {"type": "integer"},
            "a_invariant": {"type": "integer"},
        },
        ["dim_A", "dim_R", "depth_A", "a_invariant"],
    ),
}


# Built once: a validator holds no state between calls.
_INPUT_VALIDATOR = jsonschema.Draft202012Validator(INPUT_SCHEMA)
_OUTPUT_VALIDATORS = {
    command: jsonschema.Draft202012Validator(schema)
    for command, schema in OUTPUT_SCHEMAS.items()
}


def validate_input(obj) -> None:
    _INPUT_VALIDATOR.validate(obj)


def validate_output(command: str, obj) -> None:
    _OUTPUT_VALIDATORS[command].validate(obj)
