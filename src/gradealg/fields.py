"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational arithmetic is stdlib ``fractions.Fraction`` (always lowest terms,
positive denominator). A GF(p) element is a plain int residue in [0, p):
the field descriptor maps an int or a ``Fraction`` to its residue, and the
polynomial layer reduces the results of int arithmetic mod p. So the parser,
``Polynomial`` and the Groebner kernel all hold the same ints. Both fields
reject any other value, a float above all, with ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _is_prime(n: int) -> bool:
    """Trial division by 2 and the odd q <= isqrt(n): exact, and about
    23,000 divisions at the largest characteristic, 2^31 - 1."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, isqrt(n) + 1, 2))


class RationalField:
    """Descriptor for the field of rationals."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{type(value).__name__} is not a rational coefficient")
        return Fraction(value)

    def from_fraction(self, numer: int, denom: int = 1) -> Fraction:
        return Fraction(numer, denom)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Descriptor for GF(p), p prime, p < 2**31."""

    characteristic: int
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"prime field characteristic out of range: {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    def __call__(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        raise TypeError(f"{type(value).__name__} is not a GF({self.p}) coefficient")

    def from_fraction(self, numer: int, denom: int = 1) -> int:
        if denom % self.p == 0:
            raise ZeroDivisionError(f"denominator {denom} vanishes in GF({self.p})")
        return numer * pow(denom, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(text: str):
    """Parse a field label: Q or QQ, or GF(p) with optional parentheses."""
    s = text.strip()
    if s in ("Q", "QQ"):
        return QQ
    if s.startswith("GF"):
        try:
            p = int(s[2:].removeprefix("(").removesuffix(")"))
        except ValueError:
            pass
        else:
            return PrimeField(p)
    raise ValueError(f"unknown field {text!r}; expected Q or GF(p)")
