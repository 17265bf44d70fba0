"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational arithmetic is stdlib ``fractions.Fraction`` (always lowest terms,
positive denominator). GF(p) elements are residues in [0, p) wrapping modular
arithmetic behind the same operator surface, so polynomial code never needs to
know which field it is working over.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin below 3.2e9, covers p < 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFElement:
    """A residue in GF(p). Supports +, -, *, /, ** and is falsy when zero."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "GFElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return GFElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return GFElement(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class RationalField:
    """Descriptor for the field of rationals."""

    name = "Q"
    characteristic = 0

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

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

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"prime field characteristic out of range: {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    def __call__(self, value) -> GFElement:
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise ValueError(f"element of GF({value.p}) used in GF({self.p})")
            return value
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        return GFElement(int(value), self.p)

    @property
    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    @property
    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def from_fraction(self, numer: int, denom: int = 1) -> GFElement:
        if denom % self.p == 0:
            raise ZeroDivisionError(f"denominator {denom} vanishes in GF({self.p})")
        return GFElement(numer, self.p) / GFElement(denom, self.p)

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
