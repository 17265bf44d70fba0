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
    """A configured bound (power exponent, window size) was exceeded."""


class WindowUnderflow(LimitExceeded):
    """A cohomology window is too narrow for a requested exact value."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug, not a bad input or a limit."""
