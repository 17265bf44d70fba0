"""Batch command-line interface.

Reads a JSON problem description, dispatches to the library, prints a
plain-text summary to stdout and optionally writes a JSON report. Exit
codes are stable across commands: 0 for success or an affirmative
decision, 3 for a negative decision, 1 for input errors, 2 when an
internal limit is exceeded, 4 when an internal self-check fails.

``main`` runs every request: it loads and validates the problem
description, parses the field, builds the ``_Problem`` and calls the
command's handler in ``_COMMANDS`` with the problem, the description and
the parsed arguments. The handler returns ``(fields, lines, code)``: the
report fields past the ``command``/``field``/``variables`` envelope, the
stdout lines and the exit code. ``main`` adds the envelope, validates the
report against its output schema, writes ``--json`` and prints the lines.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import schemas
from .blowup import (
    DEGREE_BOUND,
    LEVEL_BOUND,
    _assoc_graded_from_rees,
    bigraded_hilbert,
    rees_presentation,
)
from .criterion import _verify_iso_witness, decide_iso, variable_subset_basis
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
from .simplicial import (
    DEFAULT_WINDOW,
    SimplicialComplex,
    local_cohomology_window,
    sr_invariants,
)


def _window_for(spec: dict, args) -> tuple:
    """The cohomology window, which must contain 0: ``--window``, else the
    file's, else the default."""
    if args.window:
        m = re.fullmatch(r"(-?[0-9]+):(-?[0-9]+)", args.window.strip())
        if not m:
            raise ValueError(f"bad window {args.window!r}; expected lo:hi")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValueError(f"empty window {args.window!r}")
    else:
        lo, hi = spec.get("options", {}).get("window", DEFAULT_WINDOW)
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
    if not lo <= 0 <= hi:
        raise ValueError(f"cohomology window [{lo}, {hi}] must contain 0")
    return lo, hi


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
    return Ideal(
        ring,
        [
            ring.monomial(tuple(int(i in s) for i in range(n)))
            for s in complex.minimal_nonfaces()
        ],
    )


class _Problem(NamedTuple):
    """A problem's ring, J and I; its complex is built only where needed."""

    ring: PolyRing
    J: Ideal
    i_polys: list
    complex_builder: Callable[[], SimplicialComplex]


def _problem(spec: dict, field) -> _Problem:
    ring = PolyRing(tuple(spec["variables"]), field)
    if "J" in spec:
        J = Ideal.parse(ring, spec["J"])
        complex_builder = lambda: SimplicialComplex.from_ideal(J)
    else:
        cx = _complex_from_facets(ring, spec["facets"])
        J = _minimal_nonface_ideal(ring, cx)
        complex_builder = lambda: cx
    i_polys = [ring.parse(t) for t in spec["I"]]
    return _Problem(ring, J, i_polys, complex_builder)


def _window_entries(table: dict) -> list:
    """``window_table`` output flattened to ``[index, degree, dim]`` rows."""
    return [[i, j, v] for i, row in table.items() for j, v in row.items()]


def _flag_rows(window_obj) -> list:
    return [{"index": i, **window_obj.flag(i)._asdict()} for i in window_obj.indices()]


def _variable_basis(problem: _Problem, complex: SimplicialComplex) -> tuple:
    b = variable_subset_basis(problem.i_polys, problem.J)
    if b is None:
        raise ValueError("I is not generated by variable images modulo J")
    if not any(complex.has_face((v,)) for v in b):
        raise ValueError("I is zero in A; the blowup pipeline needs a nonzero ideal")
    return b


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


def _cmd_check_iso(problem: _Problem, spec: dict, args) -> tuple:
    decision = decide_iso(problem.J, problem.i_polys, args.allow_linear)
    report = {
        "isomorphic": decision.isomorphic,
        "verified": False,
        "reason": decision.failure_reason,
        "B": None,
        "C": None,
        "JB": None,
        "JC": None,
        "kernel_generators": None,
    }
    if not decision.isomorphic:
        return report, ["isomorphic: false", f"reason: {decision.failure_reason}"], 3
    w = decision.witness
    verified, pres = _verify_iso_witness(problem.J, w)
    report.update(
        verified=verified,
        B=_names(problem.ring, w.b),
        C=_names(problem.ring, w.c),
        JB=[str(g) for g in w.jb.generators],
        JC=[str(g) for g in w.jc.generators],
        kernel_generators=[str(g) for g in pres.defining.generators],
    )
    lines = [
        "isomorphic: true",
        f"verified: {str(verified).lower()}",
        "B: " + (", ".join(report["B"]) or "(empty)"),
        "C: " + (", ".join(report["C"]) or "(empty)"),
        "kernel: " + (", ".join(report["kernel_generators"]) or "(0)"),
    ]
    return report, lines, 0


def _cmd_presentation(problem: _Problem, spec: dict, args) -> tuple:
    rees = rees_presentation(problem.J, problem.i_polys)
    assoc = _assoc_graded_from_rees(rees)
    report = {
        "rees": _presentation_block(rees),
        "assoc_graded": _presentation_block(assoc),
    }
    lines = []
    for label, block in (("Rees", report["rees"]), ("assoc graded", report["assoc_graded"])):
        lines.append(f"{label} defining ideal:")
        lines += [
            f"  {g['poly']}  [weight {g['y_weight']}, degree {g['internal_degree']}]"
            for g in block["generators"]
        ] or ["  (0)"]
    return report, lines, 0


def _cmd_hilbert(problem: _Problem, spec: dict, args) -> tuple:
    opts = spec.get("options", {})
    level_bound = opts.get("level_bound", LEVEL_BOUND)
    degree_bound = opts.get("degree_bound", DEGREE_BOUND)
    table = bigraded_hilbert(problem.J, problem.i_polys, level_bound, degree_bound)
    entries = [[n, d, v] for (n, d), v in sorted(table.dims.items())]
    report = {
        "level_bound": level_bound,
        "degree_bound": degree_bound,
        "entries": entries,
    }
    lines = ["adic level, internal degree -> dimension"]
    lines += [f"  ({n}, {d}) -> {v}" for n, d, v in entries]
    return report, lines, 0


def _cmd_cohomology(problem: _Problem, spec: dict, args) -> tuple:
    field = problem.ring.field
    lo, hi = _window_for(spec, args)
    complex = problem.complex_builder()
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
        data = SplitSRData.from_split(complex, _variable_basis(problem, complex))
        window = assemble_rees_cohomology(data, field, lo, hi)
        dim_r = dim_rees(complex, data.b)
        adic = adic_a_invariant(complex, data.b, field)
        cm_r = decide_cm_rees(data, field).cm_rees
    table = window_table(window, lo, hi)
    report = {
        "module": args.module,
        "window": [lo, hi],
        "entries": _window_entries(table),
        "flags": _flag_rows(window),
        "invariants": invariants,
        "dim_R": dim_r,
        "adic_a_invariant": adic,
        "cm_R": cm_r,
    }
    lines = [f"module {args.module}, window [{lo}, {hi}]"]
    for i, row in table.items():
        cells = [f"{j} -> {v}" for j, v in row.items()]
        lines.append(f"H^{i}: " + ("; ".join(cells) if cells else "0 on window"))
    if args.module == "A":
        lines.append(
            "dim_A = {dim_A}, depth_A = {depth_A}, a_invariant = {a_invariant}, "
            "cm = {cm}, gencm = {gencm}".format(**invariants)
        )
    else:
        lines.append(f"dim_R = {dim_r}, adic_a_invariant = {adic}, cm_R = {str(cm_r).lower()}")
    return report, lines, 0


def _cmd_gencm(problem: _Problem, spec: dict, args) -> tuple:
    field = problem.ring.field
    lo, hi = _window_for(spec, args)
    complex = problem.complex_builder()
    data = SplitSRData.from_split(complex, _variable_basis(problem, complex))
    verdict = decide_gencm(data, field)
    window_a = local_cohomology_window(complex, field, lo, hi)
    window_r = assemble_rees_cohomology(data, field, lo, hi)
    report = {
        "gencm": verdict.gencm,
        "case": verdict.case,
        "dim_R": verdict.dim_R,
        "cm_R": verdict.cm_R,
        "precondition_A_gencm": verdict.precondition_A_gencm,
        "B": _names(problem.ring, data.b),
        "C": _names(problem.ring, data.c),
        "evidence": dict(verdict.evidence),
        "windows": {
            "window": [lo, hi],
            "A": _window_entries(window_table(window_a, lo, hi)),
            "R": _window_entries(window_table(window_r, lo, hi)),
        },
    }
    lines = [
        f"gencm: {str(verdict.gencm).lower()}",
        f"case: {verdict.case}",
        f"dim_R: {verdict.dim_R}",
        f"cm_R: {str(verdict.cm_R).lower()}",
        f"precondition_A_gencm: {str(verdict.precondition_A_gencm).lower()}",
    ]
    lines += [f"  {key}: {verdict.evidence[key]}" for key in sorted(verdict.evidence)]
    return report, lines, 0 if verdict.gencm else 3


def _cmd_dim(problem: _Problem, spec: dict, args) -> tuple:
    complex = problem.complex_builder()
    b = _variable_basis(problem, complex)
    inv = sr_invariants(complex, problem.ring.field)
    report = {
        "dim_A": inv.dim,
        "dim_R": dim_rees(complex, b),
        "depth_A": inv.depth,
        "a_invariant": inv.a_invariant,
    }
    lines = [f"{key} = {report[key]}" for key in ("dim_A", "dim_R", "depth_A", "a_invariant")]
    return report, lines, 0


# command name -> (handler, one-line help for the --help epilog)
_COMMANDS = {
    "check-iso": (_cmd_check_iso, "decide whether the associated graded ring is isomorphic to A"),
    "presentation": (_cmd_presentation, "defining ideals of the Rees algebra and associated graded ring"),
    "hilbert": (_cmd_hilbert, "bigraded Hilbert table of the associated graded ring"),
    "cohomology": (_cmd_cohomology, "graded local cohomology tables (module A or R)"),
    "gencm": (_cmd_gencm, "decide generalized Cohen-Macaulayness of the Rees ring"),
    "dim": (_cmd_dim, "dimension, depth and a-invariant data"),
}
_HANDLERS = {name: handler for name, (handler, _) in _COMMANDS.items()}


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
        epilog="commands:\n"
        + "".join(f"  {name:<12}  {summary}\n" for name, (_, summary) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_HANDLERS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--input", required=True, help="problem description JSON file")
    parser.add_argument("--field", help="override the field: Q or GF(p)")
    parser.add_argument(
        "--window",
        help="degree window lo:hi (write --window=-10:2 for negative bounds)",
    )
    parser.add_argument("--json", help="write the JSON report to this file")
    parser.add_argument(
        "--allow-linear",
        action="store_true",
        help="accept degree-1 generators in the defining ideal",
    )
    parser.add_argument(
        "--module",
        choices=["A", "R"],
        help="cohomology only: which module to report on (default A)",
    )
    return parser


def _parse_args(argv):
    """Parsed argv; ``--module`` defaults to A for cohomology only."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "cohomology":
        args.module = args.module or "A"
    elif args.module is not None:
        parser.error("--module applies to the cohomology command only")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            spec = json.load(fh)
        schemas.validate_input(spec)
        field = parse_field(args.field or spec.get("field", "Q"))
        problem = _problem(spec, field)
        fields, lines, code = _HANDLERS[args.command](problem, spec, args)
        report = {
            "command": args.command,
            "field": field.name,
            "variables": list(problem.ring.variables),
            **fields,
        }
        schemas.validate_output(args.command, report)
        if args.json:
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            Path(args.json).write_text(text, encoding="utf-8")
        print("\n".join(lines))
        return code
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except schemas.ValidationError as exc:
        # resolved only for an exception the clauses above let through; for
        # a schema rejection jsonschema is loaded by then
        print(f"error: invalid problem description: {exc.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
