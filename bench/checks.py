"""Result checks against references captured from a known-good build.

Every reference holds the request's exit code and a label-free summary of
its report. At seed 0 the reference also holds the SHA-256 digests of the
report and stdout bytes, which must match exactly. At any other seed the
labels differ, so only the label-free summary is compared: exit codes,
cohomology and Hilbert tables, verdicts, flags, and for polynomial lists
an invariant that forgets variable names and positions.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Optional

_TERM_SPLIT = re.compile(r" ([+-]) ")


def digest(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _term_shape(term: str) -> tuple:
    """(coefficient, sorted exponents) of one printed term, names dropped."""
    factors = term.split("*")
    coeff = "1"
    if factors[0][:1].isdigit():
        coeff = factors.pop(0)
    exps = []
    for f in factors:
        _, _, e = f.partition("^")
        exps.append(int(e) if e else 1)
    return coeff, tuple(sorted(exps))


def poly_invariant(text: str) -> list:
    """Label-free invariant of a printed polynomial.

    The multiset of (signed coefficient, sorted exponent list) over its
    terms. It does not change when variables are renamed or permuted.
    """
    text = text.strip()
    sign = "+"
    if text.startswith("-"):
        sign, text = "-", text[1:]
    parts = _TERM_SPLIT.split(text)
    terms = [(sign, parts[0])] + list(zip(parts[1::2], parts[2::2]))
    shapes = []
    for s, term in terms:
        coeff, exps = _term_shape(term)
        shapes.append([("-" if s == "-" else "") + coeff, list(exps)])
    return sorted(shapes)


def polys_invariant(texts) -> Optional[list]:
    if texts is None:
        return None
    return sorted(poly_invariant(t) for t in texts)


def _presentation_block(block: dict) -> dict:
    return {
        "x_count": len(block["x_variables"]),
        "y_degrees": sorted(block["y_degrees"]),
        "generators": sorted(
            [g["y_weight"], g["internal_degree"], poly_invariant(g["poly"])]
            for g in block["generators"]
        ),
    }


def _count(names) -> Optional[int]:
    return None if names is None else len(names)


def summarize(command: str, report: Optional[dict]) -> Optional[dict]:
    """The label-free content of a report (None when there is none)."""
    if report is None:
        return None
    if command == "groebner_basis":
        return {"basis": polys_invariant(report["basis"])}
    if command == "local_cohomology_window":
        return {"contributions": report["contributions"]}
    out = {"field": report["field"], "nvars": len(report["variables"])}
    if command == "cohomology":
        keys = ("module", "window", "entries", "flags", "invariants", "dim_R", "adic_a_invariant", "cm_R")
        out.update({k: report[k] for k in keys})
    elif command == "gencm":
        keys = ("gencm", "case", "dim_R", "cm_R", "precondition_A_gencm", "evidence", "windows")
        out.update({k: report[k] for k in keys})
        out.update(B=_count(report["B"]), C=_count(report["C"]))
    elif command == "dim":
        out.update({k: report[k] for k in ("dim_A", "dim_R", "depth_A", "a_invariant")})
    elif command == "hilbert":
        out.update({k: report[k] for k in ("level_bound", "degree_bound", "entries")})
    elif command == "check-iso":
        out.update({k: report[k] for k in ("isomorphic", "verified", "reason")})
        out.update(B=_count(report["B"]), C=_count(report["C"]))
        for key in ("JB", "JC", "kernel_generators"):
            out[key] = polys_invariant(report[key])
    elif command == "presentation":
        out["rees"] = _presentation_block(report["rees"])
        out["assoc_graded"] = _presentation_block(report["assoc_graded"])
    else:
        raise ValueError(f"no summary for command {command!r}")
    # Normalize tuples to lists so a summary compares equal after a JSON
    # round trip.
    return json.loads(json.dumps(out))


def reference_entry(command: str, outcome) -> dict:
    """What a reference records for one request, from its outcome."""
    report = json.loads(outcome.report) if outcome.report is not None else None
    return {
        "exit_code": outcome.exit_code,
        "summary": summarize(command, report),
        "report_sha256": digest(outcome.report),
        "stdout_sha256": digest(outcome.stdout),
    }


def check(request, outcome, reference: dict, exact: bool) -> Optional[str]:
    """Why the outcome does not match its reference, or None when it does.

    ``exact`` also compares the report and stdout digests (seed 0).
    """
    if outcome.killed:
        return "killed at the request limit"
    if outcome.exit_code != reference["exit_code"]:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {outcome.exit_code}, expected {reference['exit_code']} {tail}"
    try:
        report = json.loads(outcome.report) if outcome.report is not None else None
        summary = summarize(request.command, report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if summary != reference["summary"]:
        return "label-free content differs from the reference"
    if exact:
        if digest(outcome.report) != reference["report_sha256"]:
            return "report bytes differ from the reference"
        stdout = reference["stdout_sha256"]
        if stdout is not None and digest(outcome.stdout) != stdout:
            return "stdout bytes differ from the reference"
    return None
