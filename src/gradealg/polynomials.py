"""Sparse multivariate polynomials over an exact field.

A monomial is a tuple of exponents, one slot per ring variable. A polynomial
is a map monomial -> nonzero coefficient: a ``Fraction`` over Q, a plain int
residue in [0, p) over GF(p). ``Polynomial.__init__`` is the one place a
coefficient is normalised: it reduces each one mod p over GF(p), maps a
``Fraction`` there to its residue, refuses any type but ``int`` and
``Fraction`` with the field's ``TypeError`` and drops zeros over both
fields, so arithmetic only accumulates. Rings are lightweight
descriptors (variable names + field); all values are immutable once built,
which is what lets Groebner results be cached by value elsewhere.

Monomial orders are key objects defined by one key: ``order.desc_key(mon)``
is a flat tuple of ints that sorts descending in the order, so
``min(terms, key=order.desc_key)`` is the leading monomial and a min-heap of
them pops the largest monomial first. Each entry of ``desc_key`` is plus or
minus a sum of exponents, or minus a positive weighted sum of them for
``WeightOrder``, so ``desc_key`` is linear in the monomial: the Groebner
kernel packs it, from the keys of the unit vectors, into one int per
monomial. grevlex, lex, block orders (for elimination) and
weight-then-grevlex orders are provided.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import AmbientMismatch, ParseError
from .fields import PrimeField, RationalField

Monomial = tuple
Field = Union[RationalField, PrimeField]


# ---------------------------------------------------------------------------
# monomial helpers

def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# monomial orders

class _Order:
    """An order given by ``desc_key``; equal when class and ``params`` agree."""

    params = ()

    def __eq__(self, other):
        return type(other) is type(self) and other.params == self.params

    def __hash__(self):
        return hash((type(self).__name__, self.params))


class GrevlexOrder(_Order):
    """Graded reverse lexicographic."""

    def desc_key(self, mon: Monomial):
        return (-sum(mon),) + mon[::-1]

    def __repr__(self):
        return "grevlex"


class LexOrder(_Order):
    """Pure lexicographic, first variable strongest."""

    def desc_key(self, mon: Monomial):
        return tuple(-e for e in mon)

    def __repr__(self):
        return "lex"


class BlockOrder(_Order):
    """Compare variable blocks left to right, grevlex inside each block.

    With the eliminated variables in the front block this is an elimination
    order: any monomial touching the front block beats every monomial that
    does not.
    """

    def __init__(self, blocks: Sequence[Sequence[int]]):
        blocks = tuple(tuple(b) for b in blocks)
        seen = [i for b in blocks for i in b]
        if len(set(seen)) != len(seen):
            raise ValueError("order blocks overlap")
        self.blocks = self.params = blocks

    def desc_key(self, mon: Monomial):
        out = []
        for b in self.blocks:
            out.append(-sum(mon[i] for i in b))
            out.extend(mon[i] for i in reversed(b))
        return tuple(out)

    def __repr__(self):
        return f"block{self.blocks}"


class WeightOrder(_Order):
    """A positive integer weight per variable first, grevlex to break ties.

    The monomial of the larger weighted degree is the larger one. It refines
    the weight as an order must for the initial forms of its Groebner bases
    to generate the weight's initial ideal (docs/math-notes.md §11).
    """

    def __init__(self, weights: Sequence[int]):
        weights = tuple(weights)
        if not all(isinstance(w, int) and w > 0 for w in weights):
            raise ValueError("weights must be positive integers")
        self.weights = self.params = weights

    def weight(self, mon: Monomial) -> int:
        return sum(map(mul, self.weights, mon))

    def desc_key(self, mon: Monomial):
        return (-self.weight(mon), -sum(mon)) + mon[::-1]

    def __repr__(self):
        return f"weight{self.weights}"


GREVLEX = GrevlexOrder()
LEX = LexOrder()


def elimination_order(front: Iterable[int], nvars: int) -> BlockOrder:
    """Block order putting ``front`` variables above the rest."""
    front = tuple(sorted(front))
    rest = tuple(i for i in range(nvars) if i not in set(front))
    return BlockOrder((front, rest))


# ---------------------------------------------------------------------------
# rings and polynomials

class PolyRing:
    """k[x1, ..., xn] for an exact field k: variable names plus the field."""

    def __init__(self, variables: Sequence[str], field: Field):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not (v.isascii() and v.isidentifier()):  # [A-Za-z_][A-Za-z0-9_]*
                raise ValueError(f"bad variable name {v!r}")
        self.variables = variables
        self.field = field
        self.nvars = len(variables)
        self._index = {v: i for i, v in enumerate(variables)}

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}") from None

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field(value)})

    def var(self, i: int) -> "Polynomial":
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial(self, {tuple(exp): self.field.one})

    def monomial(self, mon: Monomial, coeff=None) -> "Polynomial":
        c = self.field.one if coeff is None else self.field(coeff)
        return Polynomial(self, {tuple(mon): c})

    def parse(self, text: str) -> "Polynomial":
        return _parse(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.variables == self.variables
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.variables)}]"


_RESIDUE = frozenset((int,))
_RATIONAL = frozenset((int, Fraction))


class Polynomial:
    """Immutable sparse polynomial. Arithmetic via operators.

    ``terms`` maps monomials to coefficients of the ring's field: ints or
    ``Fraction``s, each mapped as the field maps it (over GF(p) an int is
    reduced mod p, a ``Fraction`` sent to its residue); zero coefficients
    are dropped. Any other coefficient raises the field's ``TypeError``.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        field = ring.field
        p = field.characteristic
        # one set of exact types: the kernel builds every basis through here
        if not (_RESIDUE if p else _RATIONAL).issuperset(map(type, terms.values())):
            terms = {m: field(c) for m, c in terms.items()}
        if p:
            self.terms = {m: r for m, c in terms.items() if (r := c % p)}
        else:
            self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise AmbientMismatch(
                    f"operands in {self.ring!r} and {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = self.ring.field(other)
            return Polynomial(self.ring, {m: c * c0 for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- leading data -------------------------------------------------------

    def leading_monomial(self, order) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=order.desc_key)

    def leading_coeff(self, order):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order) -> "Polynomial":
        return self * self.ring.field.from_fraction(1, self.leading_coeff(order))

    # -- structure ----------------------------------------------------------

    def rename_into(self, target: PolyRing, name_map: Optional[dict] = None) -> "Polynomial":
        """Move to another ring matching variables by name (or by name_map)."""
        name_map = name_map or {}
        index = [target.var_index(name_map.get(v, v)) for v in self.ring.variables]
        if target.field != self.ring.field:
            raise AmbientMismatch("ring map must preserve the field")
        terms = {}
        for m, c in self.terms.items():
            mon = [0] * target.nvars
            for i, e in zip(index, m):
                mon[i] += e
            mon = tuple(mon)
            terms[mon] = terms.get(mon, 0) + c
        return Polynomial(target, terms)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- printing -----------------------------------------------------------

    def sorted_terms(self, order=GREVLEX) -> list:
        return sorted(self.terms.items(), key=lambda mc: order.desc_key(mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        pieces = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            negative = c < 0  # never over GF(p)
            mag = -c if negative else c
            if not mono:
                body = str(mag)
            elif mag == self.ring.field.one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


# ---------------------------------------------------------------------------
# parser
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom [('^' | '**') INT]
#   atom   := '(' expr ')' | NAME | INT ['/' INT]

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at position {pos}: {text[pos:pos+10]!r}")
        pos = m.end()
        if m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        elif m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        else:
            op = m.group("op")
            tokens.append(("pow" if op in ("^", "**") else op, op))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}")
        return tok

    def expr(self) -> Polynomial:
        negate = False
        if self.peek() == "-":
            self.next()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "pow":
            self.next()
            e = self.expect("int")[1]
            base = base ** e
        return base

    def atom(self) -> Polynomial:
        kind, value = self.next()
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            return self.ring.var(self.ring.var_index(value))
        if kind == "int":
            numer = value
            if self.peek() == "/":
                self.next()
                denom = self.expect("int")[1]
                if denom == 0:
                    raise ParseError("zero denominator")
                try:
                    return self.ring.constant(
                        self.ring.field.from_fraction(numer, denom)
                    )
                except ZeroDivisionError as e:
                    raise ParseError(str(e)) from None
            return self.ring.constant(numer)
        raise ParseError(f"unexpected token {value!r}")


def _parse(text: str, ring: PolyRing) -> Polynomial:
    if not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(text), ring)
    poly = parser.expr()
    if parser.peek() != "end":
        raise ParseError(f"trailing input: {parser.tokens[parser.i][1]!r}")
    return poly

