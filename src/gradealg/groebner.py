"""Buchberger engine and ideal-level operations.

The engine is the classical algorithm with the two standard pair-discarding
criteria (coprime leading monomials, chain criterion) and the normal selection
strategy: pick the pending pair with the smallest lcm degree, break ties
lexicographically on the pair indices. Output is always the reduced basis,
monic, sorted with the largest leading monomial first. Input generators are
canonically sorted before the run, so two runs on shuffled generator lists
produce identical results.

Inside a run, and inside ``GroebnerBasis.normal_form``, a polynomial is a
list of (monomial, coefficient) terms with plain coefficients: ints in
[0, p) over GF(p), ``Fraction`` over Q. Each monomial's order key is
computed once per run, negated so that a heap pops the largest monomial
first. Division reduces into one mutable dict with such a heap; pending
pairs sit in a heap keyed by (lcm degree, i, j). Only the returned basis is
built back into ``Polynomial`` objects. The kernel is exact: it uses field
operations only (no floats, no reduction mod a prime over Q), and since a
reduced basis is unique it returns exactly what a ``Polynomial``-level
engine returns (``tests/slow_groebner.py`` is that engine, kept as oracle).

Reduced bases are cached per (generator set, order) in a bounded LRU cache
of ``GB_CACHE_SIZE`` entries. What the cache holds is immutable, except that
a basis keeps its plain-term tails once a normal form has needed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from operator import add, le, sub
from typing import Sequence

from .errors import AmbientMismatch, LimitExceeded
from .fields import GFElement
from .polynomials import GREVLEX, PolyRing, Polynomial, elimination_order

POWER_BOUND = 12
GB_CACHE_SIZE = 256
# Work budget of ``count_standard_monomials``: the most monomials one call
# counts. Every Hilbert function and bigraded Hilbert table goes through it.
MAX_STANDARD_MONOMIALS = 10**6


class Ideal:
    """An ideal of a polynomial ring, held by a finite generator list."""

    __slots__ = ("ring", "generators", "homogeneous", "_hash")

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        gens = {}  # insertion-ordered: drops repeats, keeps the first order
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be polynomials")
            if g.ring != ring:
                raise AmbientMismatch("generator outside the ambient ring")
            if g:
                gens[g] = None
        self.ring = ring
        self.generators = tuple(gens)
        self.homogeneous = all(g.is_homogeneous() for g in gens)
        self._hash = None

    @classmethod
    def parse(cls, ring: PolyRing, texts: Sequence[str]) -> "Ideal":
        return cls(ring, [ring.parse(t) for t in texts])

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and frozenset(other.generators) == frozenset(self.generators)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.generators)))
        return self._hash

    def __repr__(self):
        return f"({', '.join(str(g) for g in self.generators) or '0'})"


def _canon_key(g: Polynomial, order):
    terms = g.sorted_terms(order)
    return (
        order.key(terms[0][0]),
        tuple(order.key(m) for m, _ in terms),
        str(g),
    )


def _negated(key):
    """Reverse a key's order: negate every int of a fixed-shape nested tuple."""
    return tuple(map(_negated, key)) if isinstance(key, tuple) else -key


def _plain(f: Polynomial) -> dict:
    """f's terms with plain coefficients: ints in [0, p), or ``Fraction``."""
    field = f.ring.field
    if field.characteristic:
        return {m: field(c).value for m, c in f.terms.items()}
    return {m: field(c) for m, c in f.terms.items()}


def _polynomial(ring: PolyRing, terms) -> Polynomial:
    p = ring.field.characteristic
    return Polynomial(ring, {m: GFElement(c, p) for m, c in terms} if p else dict(terms))


class _Reducer:
    """Full division by monic reducers on plain terms, one per run.

    A reducer is its leading monomial and its tail, a list of (monomial,
    coeff) pairs; reducers are tried in list order. ``keys`` memoizes the
    negated order key of each monomial met, so a heap of them pops the
    largest; ``first`` memoizes the first reducer dividing a monomial, which
    stays valid while reducers are only appended.
    """

    def __init__(self, ring: PolyRing, order, lms=None, tails=None):
        self.p = ring.field.characteristic
        self.order = order
        self.lms = [] if lms is None else lms
        self.tails = [] if tails is None else tails
        self.keys = {}
        self.first = {}

    def nkey(self, m):
        k = self.keys.get(m)
        if k is None:
            k = self.keys[m] = _negated(self.order.key(m))
        return k

    def add_monic(self, terms: list) -> None:
        """Append the monic multiple of a term list, largest term first."""
        p, c = self.p, terms[0][1]
        if p:
            inv = pow(c, p - 2, p)
            tail = [(m, a * inv % p) for m, a in terms[1:]]
        else:
            tail = [(m, a / c) for m, a in terms[1:]]
        self.lms.append(terms[0][0])
        self.tails.append(tail)

    def divisor(self, m) -> int:
        i, start = self.first.get(m, (-1, 0))
        if i >= 0:
            return i
        lms = self.lms
        for i in range(start, len(lms)):
            if all(map(le, lms[i], m)):
                self.first[m] = (i, 0)
                return i
        self.first[m] = (-1, len(lms))
        return -1

    def reduce(self, h: dict) -> list:
        """Remainder of the polynomial in the accumulator ``h`` (monomial ->
        coeff, emptied on the way), as a term list, largest term first."""
        p, lms, tails, divisor, nkey = self.p, self.lms, self.tails, self.divisor, self.nkey
        heap = [(nkey(m), m) for m in h]
        heapify(heap)
        rem = []
        while heap:
            m = heappop(heap)[1]
            c = h.pop(m)
            if p:
                c %= p  # the updates below skip the modulus
            if not c:
                continue
            i = divisor(m)
            if i < 0:
                rem.append((m, c))
                continue
            t = tuple(map(sub, m, lms[i]))
            for gm, a in tails[i]:
                mm = tuple(map(add, gm, t))
                v = h.get(mm)
                if v is None:
                    h[mm] = -c * a
                    heappush(heap, (nkey(mm), mm))
                else:
                    h[mm] = v - c * a
        return rem


def buchberger(generators: Sequence[Polynomial], order=GREVLEX) -> list:
    """Reduced Groebner basis of the given generators, as a sorted list."""
    gens = [g for g in generators if g]
    if not gens:
        return []
    ring = gens[0].ring
    work = sorted(set(g.monic(order) for g in gens), key=lambda g: _canon_key(g, order))

    red = _Reducer(ring, order)
    lms, tails, nkey = red.lms, red.tails, red.nkey
    for g in work:
        red.add_monic(sorted(_plain(g).items(), key=lambda mc: nkey(mc[0])))
    pending = {}  # pair -> lcm of the two leading monomials
    pairs = []  # heap of (lcm degree, i, j): the normal selection

    def add_pairs(new: int):
        for k in range(new):
            lcm = tuple(map(max, lms[k], lms[new]))
            pending[(k, new)] = lcm
            heappush(pairs, (sum(lcm), k, new))

    for new in range(1, len(lms)):
        add_pairs(new)
    while pairs:
        _, i, j = heappop(pairs)
        lcm = pending.pop((i, j))
        if lcm == tuple(map(add, lms[i], lms[j])):
            continue  # coprime leading monomials
        if any(
            k != i
            and k != j
            and all(map(le, lms[k], lcm))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(lms))
        ):
            continue  # chain criterion
        # S-polynomial: the leading terms cancel, so only the tails enter
        ti, tj = tuple(map(sub, lcm, lms[i])), tuple(map(sub, lcm, lms[j]))
        h = {tuple(map(add, m, ti)): a for m, a in tails[i]}
        for m, a in tails[j]:
            m = tuple(map(add, m, tj))
            h[m] = h.get(m, 0) - a
        r = red.reduce(h)
        if r:
            red.add_monic(r)
            add_pairs(len(lms) - 1)

    # minimal basis: visit by ascending leading monomial, keep an element only
    # if no kept leading monomial divides its own (equal ones keep the first)
    keep = []
    for i in sorted(range(len(lms)), key=lambda i: nkey(lms[i]), reverse=True):
        if not any(all(map(le, lms[j], lms[i])) for j in keep):
            keep.append(i)
    # the reducers form a Groebner basis and a remainder modulo a basis is
    # unique, so reducing each kept tail once gives the reduced basis
    one = 1 if red.p else ring.field.one
    return [
        _polynomial(ring, [(lms[i], one)] + red.reduce(dict(tails[i])))
        for i in reversed(keep)
    ]


class GroebnerBasis:
    """A reduced Groebner basis frozen together with its order."""

    __slots__ = ("ring", "order", "polys", "lms", "_tails")

    def __init__(self, ring: PolyRing, order, polys: Sequence[Polynomial]):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.lms = tuple(g.leading_monomial(order) for g in self.polys)
        self._tails = None

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise AmbientMismatch("polynomial outside the basis ring")
        if self._tails is None:
            self._tails = tuple(
                [mc for mc in _plain(g).items() if mc[0] != lm]
                for lm, g in zip(self.lms, self.polys)
            )
        red = _Reducer(self.ring, self.order, self.lms, self._tails)
        return _polynomial(self.ring, red.reduce(_plain(f)))

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)

    def is_unit(self) -> bool:
        return any(sum(lm) == 0 for lm in self.lms)

    def leading_monomials(self) -> tuple:
        return self.lms

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis[{self.order!r}]({', '.join(map(str, self.polys))})"


@lru_cache(maxsize=GB_CACHE_SIZE)
def _cached_gb(ideal: Ideal, order) -> GroebnerBasis:
    return GroebnerBasis(ideal.ring, order, buchberger(ideal.generators, order))


def groebner_basis(ideal: Ideal, order=GREVLEX) -> GroebnerBasis:
    return _cached_gb(ideal, order)


def normal_form(f: Polynomial, ideal: Ideal, order=GREVLEX) -> Polynomial:
    """Canonical remainder of f modulo the ideal (zero iff f is a member)."""
    return groebner_basis(ideal, order).normal_form(f)


def ideal_member(f: Polynomial, ideal: Ideal, order=GREVLEX) -> bool:
    return not normal_form(f, ideal, order)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    if a.ring != b.ring:
        raise AmbientMismatch("ideals in different rings")
    return all(ideal_member(g, b) for g in a.generators) and all(
        ideal_member(g, a) for g in b.generators
    )


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise AmbientMismatch("ideals in different rings")
    return Ideal(a.ring, a.generators + b.generators)


def ideal_power(ideal: Ideal, n: int, bound: int = POWER_BOUND) -> Ideal:
    """The n-th power, generated by all n-fold products of the generators."""
    if n < 0:
        raise ValueError("negative ideal power")
    if n > bound:
        raise LimitExceeded(f"ideal power {n} exceeds bound {bound}")
    if n == 0:
        return Ideal(ideal.ring, [ideal.ring.one])
    gens = []
    for combo in combinations_with_replacement(ideal.generators, n):
        g = ideal.ring.one
        for f in combo:
            g = g * f
        gens.append(g)
    return Ideal(ideal.ring, gens)  # drops zeros and repeats, keeps the order


def elimination_ideal(ideal: Ideal, keep: Sequence[int]) -> Ideal:
    """Intersection with the subring on the kept variables.

    Computed with a block order that puts the eliminated variables above the
    kept ones; the basis elements free of eliminated variables generate the
    intersection.
    """
    keep = sorted(set(keep))
    ring = ideal.ring
    if any(i < 0 or i >= ring.nvars for i in keep):
        raise ValueError("keep indices outside the ring")
    front = [i for i in range(ring.nvars) if i not in set(keep)]
    if not front:
        gb = groebner_basis(ideal)
        return Ideal(ring, list(gb))
    order = elimination_order(front, ring.nvars)
    gb = groebner_basis(ideal, order)
    kept = [
        g for g in gb if all(all(m[i] == 0 for i in front) for m in g.terms)
    ]
    return Ideal(ring, kept)


# ---------------------------------------------------------------------------
# numerical invariants of the quotient ring

@dataclass(frozen=True)
class GradedHilbert:
    """Dimension of each graded piece of ring/ideal up to a degree bound."""

    dims: tuple
    degree_bound: int

    def __getitem__(self, d: int) -> int:
        if not 0 <= d <= self.degree_bound:
            raise IndexError(f"degree {d} outside [0, {self.degree_bound}]")
        return self.dims[d]

    def as_dict(self) -> dict:
        return {d: v for d, v in enumerate(self.dims)}


def count_standard_monomials(lms, weights, degrees, level_bound: int, degree_bound: int) -> dict:
    """Monomials divisible by none of ``lms``, tallied by (weight, degree).

    Variable i has weight ``weights[i]`` >= 0 and degree ``degrees[i]`` >= 1.
    Only monomials of weight <= ``level_bound`` and degree <= ``degree_bound``
    are counted; the result maps each (weight, degree) to its nonzero count.

    Exponents are fixed variable by variable. ``by_last[i]`` holds the
    monomials whose last variable is i; those dividing the fixed prefix cap
    the exponent of i, and the last variable's exponents are tallied in one
    run. Every node is a standard monomial (its prefix padded with zeros), so
    the work is at most nvars nodes per monomial counted. Past
    ``MAX_STANDARD_MONOMIALS`` monomials counted it raises ``LimitExceeded``.
    """
    by_last = [[] for _ in degrees]
    for lm in lms:
        support = [i for i, e in enumerate(lm) if e]
        if not support:
            return {}  # the unit ideal: nothing is standard
        last = support[-1]
        by_last[last].append((lm[:last], lm[last]))
    if not degrees:
        return {(0, 0): 1}
    n = len(degrees)
    counts = {}
    exp = [0] * n
    left = MAX_STANDARD_MONOMIALS

    def rec(pos: int, weight: int, degree: int):
        nonlocal left
        w, d = weights[pos], degrees[pos]
        top = (degree_bound - degree) // d
        if w:
            top = min(top, (level_bound - weight) // w)
        for prefix, e in by_last[pos]:
            if e <= top and all(map(le, prefix, exp)):
                top = e - 1
        if pos == n - 1:
            left -= top + 1
            if left < 0:
                raise LimitExceeded(
                    f"more than {MAX_STANDARD_MONOMIALS} standard monomials to count"
                )
            for e in range(top + 1):
                key = (weight + e * w, degree + e * d)
                counts[key] = counts.get(key, 0) + 1
            return
        for e in range(top + 1):
            exp[pos] = e
            rec(pos + 1, weight + e * w, degree + e * d)
        exp[pos] = 0

    rec(0, 0, 0)
    return counts


def hilbert_function(ideal: Ideal, degree_bound: int) -> GradedHilbert:
    """Graded dimensions of ring/ideal for degrees 0..degree_bound."""
    if not ideal.homogeneous:
        raise ValueError("Hilbert function needs a homogeneous ideal")
    if degree_bound < 0:
        raise ValueError("negative degree bound")
    n = ideal.ring.nvars
    counts = count_standard_monomials(
        groebner_basis(ideal).leading_monomials(), [0] * n, [1] * n, 0, degree_bound
    )
    return GradedHilbert(
        tuple(counts.get((0, d), 0) for d in range(degree_bound + 1)), degree_bound
    )


def krull_dim(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal.

    Equals the largest number of variables forming a set independent modulo
    the initial ideal: no leading monomial of the reduced basis lives entirely
    on the set. This is insensitive to the order used, so grevlex is fixed.
    """
    gb = groebner_basis(ideal)
    if gb.is_unit():
        raise ValueError("unit ideal has no Krull dimension")
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.lms]
    n = ideal.ring.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(supp <= s for supp in supports):
                return size
    raise AssertionError("unreachable: empty set is independent for proper ideals")
