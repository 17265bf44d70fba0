"""Batch command-line interface.

Reads a JSON problem description, dispatches to the library, prints a
plain-text summary to stdout and optionally writes a JSON report. Exit
codes are stable across commands: 0 for success or an affirmative
decision, 3 for a negative decision, 1 for input errors, 2 when an
internal limit is exceeded, 4 when an internal self-check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import jsonschema

from .blowup import (
    DEGREE_BOUND,
    LEVEL_BOUND,
    assoc_graded_presentation,
    bigraded_hilbert,
    rees_presentation,
)
from .criterion import decide_and_verify, variable_subset_basis
from .errors import InternalError, LimitExceeded, ParseError
from .fields import parse_field
from .groebner import Ideal
from .polynomials import GREVLEX, PolyRing
from .rees_cohomology import (
    SplitSRData,
    adic_a_invariant,
    assemble_rees_cohomology,
    decide_cm_rees,
    decide_gencm,
    dim_rees,
    window_table,
)
from .schemas import validate_input, validate_output
from .simplicial import (
    DEFAULT_WINDOW,
    SimplicialComplex,
    local_cohomology_window,
    sr_invariants,
)


def _normalize_field_label(text: str) -> str:
    s = text.strip()
    if s in ("Q", "QQ"):
        return "Q"
    m = re.fullmatch(r"GF\(?([0-9]+)\)?", s)
    if m:
        return f"GF({m.group(1)})"
    raise ValueError(f"unknown field {text!r}; expected Q or GF(p)")


def _parse_window_text(text: str) -> tuple:
    m = re.fullmatch(r"(-?[0-9]+):(-?[0-9]+)", text.strip())
    if not m:
        raise ValueError(f"bad window {text!r}; expected lo:hi")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty window {text!r}")
    return lo, hi


def _load_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    validate_input(spec)
    return spec


def _field_for(spec: dict, args) -> object:
    label = args.field if args.field else spec.get("field", "Q")
    return parse_field(_normalize_field_label(label))


def _window_for(spec: dict, args) -> tuple:
    if args.window:
        return _parse_window_text(args.window)
    opts = spec.get("options", {})
    if "window" in opts:
        lo, hi = opts["window"]
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        return lo, hi
    return DEFAULT_WINDOW


def _complex_from_facets(ring: PolyRing, facets) -> SimplicialComplex:
    n = ring.nvars
    zero_based = []
    for f in facets:
        for v in f:
            if v > n:
                raise ValueError(f"facet vertex {v} exceeds variable count {n}")
        zero_based.append([v - 1 for v in f])
    return SimplicialComplex(range(n), zero_based)


def _minimal_nonface_ideal(ring: PolyRing, complex: SimplicialComplex) -> Ideal:
    """Monomials of the minimal non-faces, by size, then lexicographically."""
    n = ring.nvars
    faces = {tuple(sorted(f)) for f in complex.faces()}
    gens = []
    for size in range(1, n + 1):
        # a minimal non-face is a face one vertex smaller plus a later vertex
        candidates = {
            f + (v,)
            for f in faces
            if len(f) == size - 1
            for v in range(f[-1] + 1 if f else 0, n)
        }
        for s in sorted(candidates):
            if s not in faces and all(s[:k] + s[k + 1 :] in faces for k in range(size)):
                exps = [0] * n
                for i in s:
                    exps[i] = 1
                gens.append(ring.monomial(tuple(exps)))
    return Ideal(ring, gens)


def _problem(spec: dict, field):
    ring = PolyRing(tuple(spec["variables"]), field)
    if "J" in spec:
        J = Ideal.parse(ring, spec["J"])
        complex_builder = lambda: SimplicialComplex.from_ideal(J)
    else:
        cx = _complex_from_facets(ring, spec["facets"])
        J = _minimal_nonface_ideal(ring, cx)
        complex_builder = lambda: cx
    i_polys = [ring.parse(t) for t in spec["I"]]
    return ring, J, i_polys, complex_builder


def _require_sr_window(window: tuple) -> tuple:
    lo, hi = window
    if not lo <= 0 <= hi:
        raise ValueError(f"cohomology window [{lo}, {hi}] must contain 0")
    return lo, hi


def _window_entries(table: dict) -> list:
    """``window_table`` output flattened to ``[index, degree, dim]`` rows."""
    return [[i, j, v] for i, row in table.items() for j, v in row.items()]


def _flag_rows(window_obj) -> list:
    rows = []
    for i in window_obj.indices():
        fl = window_obj.flag(i)
        rows.append(
            {
                "index": i,
                "is_zero": fl.is_zero,
                "finite_length": fl.finite_length,
                "vanishes_below_minus_one": fl.vanishes_below_minus_one,
            }
        )
    return rows


def _variable_basis(complex: SimplicialComplex, i_polys, J) -> tuple:
    b = variable_subset_basis(i_polys, J)
    if b is None:
        raise ValueError("I is not generated by variable images modulo J")
    if not any(complex.has_face((v,)) for v in b):
        raise ValueError("I is zero in A; the blowup pipeline needs a nonzero ideal")
    return b


def _split_data(complex: SimplicialComplex, ring, J, i_polys) -> SplitSRData:
    return SplitSRData.from_split(complex, _variable_basis(complex, i_polys, J))


def _emit(command: str, report: dict, args) -> None:
    validate_output(command, report)
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        Path(args.json).write_text(text, encoding="utf-8")


def _presentation_block(pres) -> dict:
    gens = []
    for g in pres.defining.generators:
        weight, internal = pres.monomial_bidegree(g.leading_monomial(GREVLEX))
        gens.append({"poly": str(g), "y_weight": weight, "internal_degree": internal})
    return {
        "x_variables": list(pres.x_names),
        "y_variables": list(pres.y_names),
        "y_degrees": list(pres.y_degrees),
        "generators": gens,
    }


def _names(ring: PolyRing, indices) -> list:
    return [ring.variables[i] for i in indices]


def _cmd_check_iso(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, _ = _problem(spec, field)
    decision = decide_and_verify(J, i_polys, allow_linear=args.allow_linear)
    report = {
        "command": "check-iso",
        "field": field.name,
        "variables": list(ring.variables),
        "isomorphic": decision.isomorphic,
        "verified": decision.verified,
        "reason": decision.failure_reason,
        "B": None,
        "C": None,
        "JB": None,
        "JC": None,
        "kernel_generators": None,
    }
    if decision.isomorphic:
        w = decision.witness
        pres = assoc_graded_presentation(J, [ring.var(i) for i in w.b])
        report.update(
            {
                "B": _names(ring, w.b),
                "C": _names(ring, w.c),
                "JB": [str(g) for g in w.jb.generators],
                "JC": [str(g) for g in w.jc.generators],
                "kernel_generators": [str(g) for g in pres.defining.generators],
            }
        )
    _emit("check-iso", report, args)
    print(f"isomorphic: {str(decision.isomorphic).lower()}")
    if decision.isomorphic:
        print(f"verified: {str(decision.verified).lower()}")
        print("B:", ", ".join(report["B"]) if report["B"] else "(empty)")
        print("C:", ", ".join(report["C"]) if report["C"] else "(empty)")
        print("kernel:", ", ".join(report["kernel_generators"]) or "(0)")
    else:
        print(f"reason: {decision.failure_reason}")
    return 0 if decision.isomorphic else 3


def _cmd_presentation(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, _ = _problem(spec, field)
    rees = rees_presentation(J, i_polys)
    assoc = assoc_graded_presentation(J, i_polys)
    report = {
        "command": "presentation",
        "field": field.name,
        "variables": list(ring.variables),
        "rees": _presentation_block(rees),
        "assoc_graded": _presentation_block(assoc),
    }
    _emit("presentation", report, args)
    for label, block in (("Rees", report["rees"]), ("assoc graded", report["assoc_graded"])):
        print(f"{label} defining ideal:")
        if not block["generators"]:
            print("  (0)")
        for g in block["generators"]:
            print(
                f"  {g['poly']}  [weight {g['y_weight']}, degree {g['internal_degree']}]"
            )
    return 0


def _cmd_hilbert(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, _ = _problem(spec, field)
    opts = spec.get("options", {})
    level_bound = opts.get("level_bound", LEVEL_BOUND)
    degree_bound = opts.get("degree_bound", DEGREE_BOUND)
    table = bigraded_hilbert(J, i_polys, level_bound, degree_bound)
    entries = [[n, d, v] for (n, d), v in sorted(table.dims.items())]
    report = {
        "command": "hilbert",
        "field": field.name,
        "variables": list(ring.variables),
        "level_bound": level_bound,
        "degree_bound": degree_bound,
        "entries": entries,
    }
    _emit("hilbert", report, args)
    print("adic level, internal degree -> dimension")
    for n, d, v in entries:
        print(f"  ({n}, {d}) -> {v}")
    return 0


def _cmd_cohomology(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, complex_builder = _problem(spec, field)
    lo, hi = _require_sr_window(_window_for(spec, args))
    complex = complex_builder()
    inv = sr_invariants(complex, field)
    invariants = {
        "dim_A": inv.dim,
        "depth_A": inv.depth,
        "a_invariant": inv.a_invariant,
        "cm": inv.cm,
        "gencm": inv.gencm,
    }
    if args.module == "A":
        window = local_cohomology_window(complex, field, lo, hi)
        dim_r = adic = cm_r = None
    else:
        data = _split_data(complex, ring, J, i_polys)
        window = assemble_rees_cohomology(data, field, lo, hi)
        dim_r = dim_rees(complex, data.b)
        adic = adic_a_invariant(complex, data.b, field)
        cm_r = decide_cm_rees(data, field).cm_rees
    table = window_table(window, lo, hi)
    report = {
        "command": "cohomology",
        "field": field.name,
        "variables": list(ring.variables),
        "module": args.module,
        "window": [lo, hi],
        "entries": _window_entries(table),
        "flags": _flag_rows(window),
        "invariants": invariants,
        "dim_R": dim_r,
        "adic_a_invariant": adic,
        "cm_R": cm_r,
    }
    _emit("cohomology", report, args)
    print(f"module {args.module}, window [{lo}, {hi}]")
    for i, row in table.items():
        cells = [f"{j} -> {v}" for j, v in row.items()]
        print(f"H^{i}:", "; ".join(cells) if cells else "0 on window")
    if args.module == "A":
        print(
            "dim_A = {dim_A}, depth_A = {depth_A}, a_invariant = {a_invariant}, "
            "cm = {cm}, gencm = {gencm}".format(**invariants)
        )
    else:
        print(f"dim_R = {dim_r}, adic_a_invariant = {adic}, cm_R = {str(cm_r).lower()}")
    return 0


def _cmd_gencm(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, complex_builder = _problem(spec, field)
    lo, hi = _require_sr_window(_window_for(spec, args))
    complex = complex_builder()
    data = _split_data(complex, ring, J, i_polys)
    verdict = decide_gencm(data, field)
    window_a = local_cohomology_window(complex, field, lo, hi)
    window_r = assemble_rees_cohomology(data, field, lo, hi)
    report = {
        "command": "gencm",
        "field": field.name,
        "variables": list(ring.variables),
        "gencm": verdict.gencm,
        "case": verdict.case,
        "dim_R": verdict.dim_R,
        "cm_R": verdict.cm_R,
        "precondition_A_gencm": verdict.precondition_A_gencm,
        "B": _names(ring, data.b),
        "C": _names(ring, data.c),
        "evidence": dict(verdict.evidence),
        "windows": {
            "window": [lo, hi],
            "A": _window_entries(window_table(window_a, lo, hi)),
            "R": _window_entries(window_table(window_r, lo, hi)),
        },
    }
    _emit("gencm", report, args)
    print(f"gencm: {str(verdict.gencm).lower()}")
    print(f"case: {verdict.case}")
    print(f"dim_R: {verdict.dim_R}")
    print(f"cm_R: {str(verdict.cm_R).lower()}")
    print(f"precondition_A_gencm: {str(verdict.precondition_A_gencm).lower()}")
    for key in sorted(verdict.evidence):
        print(f"  {key}: {verdict.evidence[key]}")
    return 0 if verdict.gencm else 3


def _cmd_dim(spec: dict, args) -> int:
    field = _field_for(spec, args)
    ring, J, i_polys, complex_builder = _problem(spec, field)
    complex = complex_builder()
    b = _variable_basis(complex, i_polys, J)
    inv = sr_invariants(complex, field)
    report = {
        "command": "dim",
        "field": field.name,
        "variables": list(ring.variables),
        "dim_A": inv.dim,
        "dim_R": dim_rees(complex, b),
        "depth_A": inv.depth,
        "a_invariant": inv.a_invariant,
    }
    _emit("dim", report, args)
    for key in ("dim_A", "dim_R", "depth_A", "a_invariant"):
        print(f"{key} = {report[key]}")
    return 0


_HANDLERS = {
    "check-iso": _cmd_check_iso,
    "presentation": _cmd_presentation,
    "hilbert": _cmd_hilbert,
    "cohomology": _cmd_cohomology,
    "gencm": _cmd_gencm,
    "dim": _cmd_dim,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gradealg",
        description="Associated graded rings, Rees algebras and their local cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check-iso", "decide whether the associated graded ring is isomorphic to A"),
        ("presentation", "defining ideals of the Rees algebra and associated graded ring"),
        ("hilbert", "bigraded Hilbert table of the associated graded ring"),
        ("cohomology", "graded local cohomology tables (module A or R)"),
        ("gencm", "decide generalized Cohen-Macaulayness of the Rees ring"),
        ("dim", "dimension, depth and a-invariant data"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem description JSON file")
        p.add_argument("--field", help="override the field: Q or GF(p)")
        p.add_argument(
            "--window",
            help="degree window lo:hi (write --window=-10:2 for negative bounds)",
        )
        p.add_argument("--json", help="write the JSON report to this file")
        p.add_argument(
            "--allow-linear",
            action="store_true",
            help="accept degree-1 generators in the defining ideal",
        )
        if name == "cohomology":
            p.add_argument(
                "--module",
                choices=["A", "R"],
                default="A",
                help="which module to report on (default A)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args.input)
        return _HANDLERS[args.command](spec, args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except jsonschema.ValidationError as exc:
        print(f"error: invalid problem description: {exc.message}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
