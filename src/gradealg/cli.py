"""Batch command-line interface.

Reads a JSON problem description, dispatches to the library, prints a
plain-text summary to stdout and optionally writes a JSON report. Exit
codes are stable across commands: 0 for success or an affirmative
decision, 3 for a negative decision, 1 for input errors, 2 when an
internal limit is exceeded, 4 when an internal self-check fails.

``main`` runs every request: it loads and validates the problem
description, parses the field, builds the ``_Problem``, the one place a
spec turns into a ring, I, and J or a complex, and calls the command's
handler in ``_COMMANDS`` with the problem, the description and the parsed
arguments. ``_COMMANDS`` is the one command table: dispatch, both argv
readers and the ``--help`` epilog read it. The handler returns
``(fields, lines, code)``: the report fields past the
``command``/``field``/``variables`` envelope, the stdout lines and the exit
code. ``main`` adds the envelope, validates the report against its output
schema, writes ``--json`` and prints the lines.

``_parse_args`` reads argv with ``_read_argv`` first. Both it and the
argparse parser of ``_build_parser`` take their options from ``_OPTIONS``.
The reader accepts only one command of ``_COMMANDS``; the exact long
options that take a value, each written as ``--opt value`` or
``--opt=value``; and ``--allow-linear``. It returns a namespace only where
argparse would accept the argv and return the same fields: a repeated
option keeps its last value, and every value of an option with choices
must be one of them. Anything else returns ``None``, and argparse reads
the argv instead: ``-h`` and ``--help``, abbreviations, a ``--opt value``
whose value starts with ``-``, an unknown option, ``--``, a second
positional, and a missing ``--input`` or command. After either route
``_parse_args`` rejects ``--module`` on a command other than
``cohomology`` through argparse's ``error``. So ``--help``, every usage
error and its message are argparse's own, and argparse is imported only to
produce them.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

from . import schemas
from .blowup import (
    DEGREE_BOUND,
    LEVEL_BOUND,
    _assoc_graded,
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
    _cm_rees,
    assemble_rees_cohomology,
    decide_gencm,
    dim_rees,
    window_table,
)
from .simplicial import SimplicialComplex, local_cohomology_window, sr_invariants

DEFAULT_WINDOW = (-10, 2)


def _window_for(spec: dict, args) -> tuple:
    """The cohomology window, which must contain 0: ``--window``, else the
    file's, else the default."""
    if args.window is not None:
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


class _Problem:
    """A spec's ring, I, and the J or complex it gives; the other of the two
    is built on its first read.

    A ``J`` spec parses J and builds its complex only for ``dim``,
    ``cohomology`` and ``gencm``. A ``facets`` spec builds the complex and
    its minimal non-faces at once, so the face budget is met before I is
    parsed on every command; its J, the minimal non-face ideal, is read
    only by ``check-iso``, ``presentation``, ``hilbert`` and the B of a
    non-monomial I: ``dim``, ``cohomology`` and ``gencm`` read B off the
    complex (``_variable_basis``) and never build J as polynomials.
    """

    def __init__(self, spec: dict, field):
        self.ring = ring = PolyRing(tuple(spec["variables"]), field)
        if "J" in spec:
            self.J = Ideal.parse(ring, spec["J"])
        else:
            self.complex = _complex_from_facets(ring, spec["facets"])
            self.complex.minimal_nonfaces()  # the face budget, before I
        self.i_polys = [ring.parse(t) for t in spec["I"]]

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex.from_ideal(self.J)

    @cached_property
    def J(self) -> Ideal:
        return _minimal_nonface_ideal(self.ring, self.complex)


def _window_entries(table: dict) -> list:
    """``window_table`` output flattened to ``[index, degree, dim]`` rows."""
    return [[i, j, v] for i, row in table.items() for j, v in row.items()]


def _flag_rows(window_obj) -> list:
    return [{"index": i, **window_obj.flag(i)._asdict()} for i in window_obj.indices()]


def _monomial_variable_basis(monomials: list, complex: SimplicialComplex):
    """``variable_subset_basis`` for a monomial I on the face ring of the
    complex, read off its minimal non-faces by the divisibility rule of
    docs/math-notes.md §10 (stated for B in §2). x_i lies in I + J exactly
    when a generator of I divides it or {i} is a minimal non-face, and a
    generator lies in (x_B) + J exactly when its support meets B or
    contains a minimal non-face. ``monomials`` are the exponent vectors of
    I's nonzero generators."""
    nonfaces = complex.minimal_nonfaces()
    unit = any(not any(m) for m in monomials)  # a constant divides every x_i
    divides = {m.index(1) for m in monomials if sum(m) == 1}
    divides.update(s[0] for s in nonfaces if len(s) == 1)
    b = tuple(i for i in complex.vertices if unit or i in divides)
    for m in monomials:
        support = {i for i, e in enumerate(m) if e}
        if support.isdisjoint(b) and not any(support.issuperset(s) for s in nonfaces):
            return None
    return b


def _variable_basis(problem: _Problem, complex: SimplicialComplex) -> tuple:
    if all(len(g.terms) <= 1 for g in problem.i_polys):
        monomials = [m for g in problem.i_polys for m in g.terms]
        b = _monomial_variable_basis(monomials, complex)
    else:
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
    assoc = _assoc_graded(problem.J, rees.f)
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
    complex = problem.complex
    inv = sr_invariants(complex, field)
    invariants = {
        "dim_A": inv.dim,
        "depth_A": inv.depth,
        "a_invariant": inv.a_invariant,
        "cm": inv.cm,
        "gencm": inv.gencm,
    }
    if args.module == "A":
        window = local_cohomology_window(complex, field)
        dim_r = adic = cm_r = None
    else:
        data = SplitSRData.from_split(complex, _variable_basis(problem, complex))
        window = assemble_rees_cohomology(data, field)
        verdict = _cm_rees(data, field, inv, sr_invariants(data.factor_b, field))
        dim_r, adic, cm_r = verdict.dim_rees, verdict.a_adic, verdict.cm_rees
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
    complex = problem.complex
    data = SplitSRData.from_split(complex, _variable_basis(problem, complex))
    verdict = decide_gencm(data, field)
    window_a = local_cohomology_window(complex, field)
    window_r = assemble_rees_cohomology(data, field)
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
    complex = problem.complex
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


# long option -> (help, choices), in --help order; both parsers read this
# table. --allow-linear is the only flag, --input the only required option.
_OPTIONS = {
    "--input": ("problem description JSON file", None),
    "--field": ("override the field: Q or GF(p)", None),
    "--window": ("degree window lo:hi (write --window=-10:2 for negative bounds)", None),
    "--json": ("write the JSON report to this file", None),
    "--allow-linear": ("accept degree-1 generators in the defining ideal", None),
    "--module": ("cohomology only: which module to report on (default A)", ("A", "R")),
}


def _read_argv(argv) -> SimpleNamespace | None:
    """The fields argparse would read from ``argv``, or ``None`` where the
    argv is outside the plain forms this reader knows (module docstring)."""
    fields = {"command": None, **{name[2:].replace("-", "_"): None for name in _OPTIONS}}
    fields["allow_linear"] = False
    tokens = iter(argv)
    for token in tokens:
        if token == "--allow-linear":
            fields["allow_linear"] = True
        elif not token.startswith("-"):
            if fields["command"] is not None or token not in _COMMANDS:
                return None
            fields["command"] = token
        else:
            name, eq, value = token.partition("=")
            if name not in _OPTIONS or name == "--allow-linear":
                return None
            if not eq:
                value = next(tokens, None)
                # argparse reads some values that start with "-" as options
                if value is None or value.startswith("-"):
                    return None
            # argparse checks the choice on every occurrence, not the last
            choices = _OPTIONS[name][1]
            if choices is not None and value not in choices:
                return None
            fields[name[2:]] = value
    if fields["command"] is None or fields["input"] is None:
        return None
    return SimpleNamespace(**fields)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser whose usage errors exit with the input-error code."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(
        prog="gradealg",
        description="Associated graded rings, Rees algebras and their local cohomology.",
        epilog="commands:\n"
        + "".join(f"  {name:<12}  {summary}\n" for name, (_, summary) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    for name, (summary, choices) in _OPTIONS.items():
        if name == "--allow-linear":
            parser.add_argument(name, action="store_true", help=summary)
        else:
            parser.add_argument(name, required=name == "--input", choices=choices, help=summary)
    return parser


def _parse_args(argv):
    """Parsed argv; ``--module`` defaults to A for cohomology only."""
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    if args.command != "cohomology" and args.module is not None:
        _build_parser().error("--module applies to the cohomology command only")
    if args.command == "cohomology":
        args.module = args.module or "A"
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            spec = json.load(fh)
        schemas.validate_input(spec)
        field = parse_field(spec.get("field", "Q") if args.field is None else args.field)
        problem = _Problem(spec, field)
        fields, lines, code = _COMMANDS[args.command][0](problem, spec, args)
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
