"""Shared exception types.

Input-domain problems are ValueErrors so callers can treat them uniformly;
resource ceilings and internal invariant failures each get their own class
because the CLI maps them to distinct exit codes.
"""


class ParseError(ValueError):
    """Malformed polynomial expression or unknown variable."""


class AmbientMismatch(ValueError):
    """Operands live in different polynomial rings."""


class LimitExceeded(RuntimeError):
    """A configured budget was exceeded: ``POWER_BOUND``, ``VERTEX_BOUND``,
    the level/degree bounds of a Rees presentation, ``MAX_STANDARD_MONOMIALS``
    or ``MAX_REDUCTION_WORK``."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug, not a bad input or a limit."""
