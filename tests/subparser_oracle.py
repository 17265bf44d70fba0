"""The command-line parser as six argparse subparsers, one per command.

It is the oracle for ``gradealg.cli._parse_args``, whose single flat
parser must read every valid argv the same way and reject what this one
rejects with the same exit code. It has its own parser class, so it
shares no code with the parser under test.
"""

import argparse
import sys


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, the CLI's input-error code."""

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
