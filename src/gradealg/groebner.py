"""Buchberger engine and ideal-level operations.

The engine is the classical algorithm with the two standard pair-discarding
criteria (coprime leading monomials, chain criterion) and the sugar selection
strategy: pick the pending pair with the smallest sugar, then the smallest lcm
degree, break ties lexicographically on the pair indices; on homogeneous input
this is the normal selection. Output is always the reduced basis,
monic, sorted with the largest leading monomial first. Input generators are
canonically sorted before the run, so two runs on shuffled generator lists
produce identical results.

Inside a run, and inside ``GroebnerBasis.normal_form``, a polynomial is a
list of (monomial, coefficient) terms with plain int coefficients: residues
in [0, p) over GF(p), and over Q an integer multiple of the polynomial, so
no ``Fraction`` enters the run. Division is fraction-free over Q: reducers
are primitive integer polynomials, and a reduction step multiplies the
accumulator by a nonzero integer before it subtracts an integer multiple of
a reducer (see ``_Reducer``). Input denominators are cleared once, and the
returned basis is made monic once, at the end. A monomial is one int
(``_Packing``): the fields of ``order.desc_key`` above the exponents, so
that a product is ``+``, a quotient ``-``, a smaller int is a larger
monomial and a divisibility test a few int operations. Monomials are
packed once, as the input terms are read, and unpacked only in the returned
basis and in nonzero remainders; pair bookkeeping (lcm, sugar) stays on
exponent tuples. The fields are sized from the input; a run whose exponents
outgrow them restarts with wider ones and takes the same steps. Division
reduces into one mutable dict with a heap of packed monomials; pending pairs
sit in a heap keyed by (sugar, lcm degree, i, j). Only the returned basis is
built back into ``Polynomial`` objects. The kernel is exact: no floats, no
reduction mod a prime over Q; and since a reduced basis is unique it returns
exactly what a ``Polynomial``-level engine returns (``tests/slow_groebner.py``
is that engine, kept as oracle).

Reduction work is counted deterministically; one Buchberger run, or one
normal form, that exceeds ``MAX_REDUCTION_WORK`` raises ``LimitExceeded``.

Reduced bases are cached per (generator set, order) in a bounded LRU cache
of ``GB_CACHE_SIZE`` entries. What the cache holds is immutable, except that
a basis keeps its integer reducers once a normal form has needed them.

Hilbert tables and ``krull_dim`` are read off the numerator of the Hilbert
series of in(I) (of its radical for ``krull_dim``), graded by a (weight,
degree) per variable and computed by Bigatti's pivot recursion (``_numerator``),
at a cost set by the generators and the window, not by the counts (math-notes §9).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations_with_replacement
from math import gcd
from operator import add, le, mul
from typing import NamedTuple, Sequence

from .errors import AmbientMismatch, LimitExceeded
from .fields import GFElement
from .polynomials import GREVLEX, PolyRing, Polynomial, elimination_order

POWER_BOUND = 12
GB_CACHE_SIZE = 256
# The most standard monomials a Hilbert window may hold: ``count_standard_monomials``.
MAX_STANDARD_MONOMIALS = 10**6
# Work budget of one Buchberger run and of one normal form: the most
# reduction work ``_Reducer`` does (tail terms subtracted, weighted by
# coefficient size over Q; see ``_Reducer``).
MAX_REDUCTION_WORK = 10**7


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


class _Overflow(Exception):
    """An exponent too wide for the packed fields: the run restarts with
    wider ones."""


class _Packing:
    """Monomials of ``nvars`` variables as single ints, for one order and width.

    The low ``nvars * width`` bits hold the exponents, variable i in the
    ``width``-bit field at bit ``width * i``, whose top bit is a guard that
    every exponent leaves clear. The bits above hold the fields of
    ``order.desc_key``, the first the most significant. Each field of the
    key is plus or minus a sum of exponents, so packing is linear:
    ``pack(m)`` is the dot product of m with the packed unit vectors, a
    product of two monomials is the sum of their ints and a quotient the
    difference. A key field below the first gets the bits of its range over
    exponents below the guard, so ints compare as the keys do: the smaller
    int is the larger monomial. A monomial divides another iff no guard bit
    is lost in ``(m | guard) - lm``. See math-notes §8, "Packed monomials".

    Input exponents stay below ``room``, a quarter of the guard, which
    leaves room for the growth of a typical run.
    """

    __slots__ = ("width", "guard", "room", "units", "_low", "_nbytes")

    def __init__(self, order, nvars: int, width: int):
        # a key field lies in [-nvars * top, nvars * top], top < 2^(width-1)
        # the largest exponent below the guard: ``bits`` bits keep it apart
        bits = width + nvars.bit_length()
        # the packed unit vectors' key parts, from one key: linearity makes
        # the key of (X^0, ..., X^(n-1)), packed, the sum of their X^i, and
        # X = 2^step exceeds twice each of them, so they are its signed
        # base-X digits
        step = bits * len(order.desc_key((0,) * nvars)) + 1
        packed = 0
        for f in order.desc_key(tuple(1 << step * i for i in range(nvars))):
            packed = (packed << bits) + f
        low = nvars * width
        units = []
        for i in range(nvars):
            digit = packed & ((1 << step) - 1)
            if digit >> (step - 1):
                digit -= 1 << step
            packed = (packed - digit) >> step
            units.append((digit << low) + (1 << width * i))
        self.width = width
        self.units = units
        self._low = (1 << low) - 1
        self._nbytes = low // 8
        self.guard = self._low // ((1 << width) - 1) << (width - 1)
        self.room = 1 << (width - 3)

    def pack(self, m) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, m: int) -> tuple:
        data = (m & self._low).to_bytes(self._nbytes, "little")
        if self.width == 8:
            return tuple(data)
        step = self.width // 8
        return tuple(int.from_bytes(data[k:k + step], "little") for k in range(0, len(data), step))


@lru_cache(maxsize=64)
def _packing(order, nvars: int, width: int) -> _Packing:
    return _Packing(order, nvars, width)


def _plain(f: Polynomial, packing: _Packing) -> tuple:
    """(d, terms): the terms of d*f with plain int coefficients and packed
    monomials. Over GF(p) d is 1 and the coefficients are residues in
    [0, p); over Q d is the lcm of f's denominators. An exponent past
    ``packing.room`` raises ``_Overflow``."""
    units = packing.units
    if units and f.terms and max(map(max, f.terms)) >= packing.room:
        raise _Overflow
    field = f.ring.field
    if field.characteristic:
        return 1, {sum(map(mul, m, units)): field(c).value for m, c in f.terms.items()}
    d = math.lcm(*(c.denominator for c in f.terms.values()))
    return d, {
        sum(map(mul, m, units)): c.numerator * (d // c.denominator) for m, c in f.terms.items()
    }


def _polynomial(ring: PolyRing, terms, d: int, unpack) -> Polynomial:
    """The polynomial of plain int terms divided by d (1 over GF(p)), each
    packed monomial unpacked by ``unpack``."""
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, {unpack(m): GFElement(c, p) for m, c in terms})
    return Polynomial(ring, {unpack(m): Fraction(c, d) for m, c in terms})


def _normalized(terms: list, p: int) -> list:
    """A nonzero term list, largest term first, made monic over GF(p) and
    primitive with a positive leading coefficient over Q (p = 0)."""
    c = terms[0][1]
    if p:
        inv = pow(c, p - 2, p)
        return [(m, a * inv % p) for m, a in terms]
    g = gcd(*(a for _, a in terms))
    return [(m, a // g) for m, a in terms] if c > 0 else [(m, -a // g) for m, a in terms]


class _Reducer:
    """Fraction-free full division on plain int terms, one per run.

    Monomials are packed ints (``_Packing``), so a min-heap of them pops the
    largest. A reducer is its leading monomial, its leading coefficient and
    its tail, a list of (monomial, coeff) pairs; reducers are tried in list
    order. Over GF(p) a reducer is monic. Over Q it is a primitive integer
    polynomial with a positive leading coefficient, so no denominators
    appear. ``first`` memoizes the first reducer dividing a monomial, which
    stays valid while reducers are only appended. A product that reaches a
    guard bit raises ``_Overflow``.

    ``work`` counts reduction work, one step at a time: the tail terms each
    step subtracts, plus the accumulator terms it rescales over Q, each
    weighted by 1 + the step's accumulator coefficient's bit length // 256
    (1 over GF(p)), about the cost of one small-int term operation. It
    depends only on the input, never on the host or the field width. Past
    ``MAX_REDUCTION_WORK`` the run raises ``LimitExceeded``.
    """

    def __init__(self, ring: PolyRing, packing: _Packing, reducers=None):
        self.p = ring.field.characteristic
        self.packing = packing
        self.lms, self.lcs, self.tails = reducers or ([], [], [])
        self.first = {}
        self.work = 0

    def add(self, terms) -> None:
        """Append a reducer given by its ``_normalized`` term list."""
        self.lms.append(terms[0][0])
        self.lcs.append(terms[0][1])
        self.tails.append(terms[1:])

    def divisor(self, m: int) -> int:
        i, start = self.first.get(m, (-1, 0))
        if i >= 0:
            return i
        lms, guard = self.lms, self.packing.guard
        raised = m | guard
        for i in range(start, len(lms)):
            if (raised - lms[i]) & guard == guard:
                self.first[m] = (i, 0)
                return i
        self.first[m] = (-1, len(lms))
        return -1

    def reduce(self, h: dict) -> tuple:
        """(rem, scale) for the polynomial in the accumulator ``h`` (monomial
        -> int coeff, emptied on the way): ``rem`` is the remainder times the
        positive int ``scale`` (1 over GF(p)), as a term list, largest first.

        To cancel c*m by a reducer with leading coefficient b, the
        accumulator is multiplied by b/g and (c/g)*t*tail subtracted, with
        g = gcd(c, b). Terms already in ``rem`` missed the later factors;
        they get them at the end.
        """
        p, lms, lcs, tails, divisor, guard = (
            self.p, self.lms, self.lcs, self.tails, self.divisor, self.packing.guard
        )
        heap = list(h)
        heapify(heap)
        rem, marks, work = [], [], self.work
        while heap:
            m = heappop(heap)
            c = h.pop(m)
            if p:
                c %= p  # the updates below skip the modulus
            if not c:
                continue
            i = divisor(m)
            if i < 0:
                rem.append((m, c))
                continue
            tail, b = tails[i], lcs[i]
            weight = 1 + (c.bit_length() >> 8)
            work += len(tail) * weight
            if b != 1:  # never over GF(p)
                g = gcd(c, b)
                c //= g
                if b != g:
                    s = b // g
                    for mm in h:
                        h[mm] *= s
                    marks.append((len(rem), s))
                    work += len(h) * weight
            if work > MAX_REDUCTION_WORK:
                raise LimitExceeded(
                    f"Groebner basis reduction work {work} exceeds {MAX_REDUCTION_WORK}"
                )
            t = m - lms[i]
            for gm, a in tail:
                mm = gm + t
                v = h.get(mm)
                if v is None:
                    if mm & guard:
                        raise _Overflow
                    h[mm] = -c * a
                    heappush(heap, mm)
                else:
                    h[mm] = v - c * a
        self.work = work
        # a term emitted before a rescaling missed its factor s: walking the
        # marks back, rem[n:end] needs the product f of the later factors,
        # and in the end f is the product of them all, the scale
        f, end = 1, len(rem)
        for n, s in reversed([(0, 1)] + marks):
            if f != 1:
                rem[n:end] = [(m, a * f) for m, a in rem[n:end]]
            f, end = f * s, n
        return rem, f


def buchberger(generators: Sequence[Polynomial], order=GREVLEX) -> list:
    """Reduced Groebner basis of the given generators, as a sorted list."""
    gens = [g for g in generators if g]
    if not gens:
        return []
    ring = gens[0].ring
    width = 8
    while True:
        try:
            return _buchberger(ring, gens, _packing(order, ring.nvars, width))
        except _Overflow:
            # the run so far is a prefix of the run at any wider width, so
            # a restart repeats its steps and its work exactly
            width *= 2


def _buchberger(ring: PolyRing, gens: list, packing: _Packing) -> list:
    red = _Reducer(ring, packing)
    p, lms, lcs, tails = red.p, red.lms, red.lcs, red.tails
    guard, unpack = packing.guard, packing.unpack
    # the generators' normalized multiples, repeats dropped, each with its
    # total degree, in a canonical order, so that shuffled generator lists
    # give the same run: ascending in the order term by term (a prefix
    # first, as ``last`` sorts after every packed monomial), then by
    # coefficients
    normal = {
        tuple(_normalized(sorted(_plain(g, packing)[1].items()), p)): max(map(sum, g.terms))
        for g in gens
    }
    last = math.inf
    canonical = sorted(
        normal, key=lambda t: ([m for m, _ in t] + [last], [c for _, c in t]), reverse=True
    )
    for terms in canonical:
        red.add(terms)
    # pair bookkeeping is on exponent tuples: the leading monomials unpacked
    exps = [unpack(lm) for lm in lms]
    # sugar (Giovini et al., ISSAC 1991): a generator's is its total degree, a
    # pair's the larger of sugar_i + deg t_i and sugar_j + deg t_j, and a new
    # reducer takes its pair's. Kept as each reducer's excess of sugar over
    # its leading degree, so a pair's sugar is its lcm degree plus the larger
    # excess; on homogeneous input every excess is 0.
    excess = [normal[terms] - sum(e) for terms, e in zip(canonical, exps)]
    pending = {}  # pair -> lcm of the two leading monomials
    pairs = []  # heap of (sugar, lcm degree, i, j)

    def add_pairs(new: int):
        # two monomials have S-polynomial 0: such a pair is never queued, and
        # counts as treated for the chain criterion
        monomial = not tails[new]
        lm, e = exps[new], excess[new]
        for k in range(new):
            if monomial and not tails[k]:
                continue
            lcm = tuple(map(max, exps[k], lm))
            pending[(k, new)] = lcm
            degree = sum(lcm)
            heappush(pairs, (degree + max(excess[k], e), degree, k, new))

    for new in range(1, len(lms)):
        add_pairs(new)
    while pairs:
        pair_sugar, _, i, j = heappop(pairs)
        lcm = pending.pop((i, j))
        if lcm == tuple(map(add, exps[i], exps[j])):
            continue  # coprime leading monomials
        lcm = packing.pack(lcm)
        raised = lcm | guard
        if any(
            k != i
            and k != j
            and (raised - lms[k]) & guard == guard
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(lms))
        ):
            continue  # chain criterion
        # S-polynomial (lc_j/g)*t_i*g_i - (lc_i/g)*t_j*g_j: the leading terms
        # cancel, so only the tails enter
        g = gcd(lcs[i], lcs[j])
        ui, uj = lcs[j] // g, lcs[i] // g
        ti, tj = lcm - lms[i], lcm - lms[j]
        h = {m + ti: ui * a for m, a in tails[i]}
        for m, a in tails[j]:
            m += tj
            h[m] = h.get(m, 0) - uj * a
        if any(m & guard for m in h):
            raise _Overflow
        r = red.reduce(h)[0]
        if r:
            red.add(_normalized(r, p))
            exps.append(unpack(lms[-1]))
            excess.append(pair_sugar - sum(exps[-1]))
            add_pairs(len(lms) - 1)

    # minimal basis: visit by ascending leading monomial, keep an element only
    # if no kept leading monomial divides its own (equal ones keep the first)
    keep = []
    for i in sorted(range(len(lms)), key=lms.__getitem__, reverse=True):
        raised = lms[i] | guard
        if not any((raised - lms[j]) & guard == guard for j in keep):
            keep.append(i)
    # the reducers form a Groebner basis and a remainder modulo a basis is
    # unique, so reducing each kept tail once gives the reduced basis; it is
    # made monic here, the only division over Q
    basis = []
    for i in reversed(keep):
        rem, scale = red.reduce(dict(tails[i]))
        d = scale * lcs[i]
        basis.append(_polynomial(ring, [(lms[i], d)] + rem, d, unpack))
    return basis


class GroebnerBasis:
    """A reduced Groebner basis frozen together with its order."""

    __slots__ = ("ring", "order", "polys", "lms", "_reducers")

    def __init__(self, ring: PolyRing, order, polys: Sequence[Polynomial]):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.lms = tuple(g.leading_monomial(order) for g in self.polys)
        self._reducers = None  # (packing, (lms, lcs, tails)) once a normal form needs them

    def _reducer(self, width: int) -> _Reducer:
        """A fresh ``_Reducer`` over the basis, packed at least ``width`` wide."""
        if self._reducers is None or self._reducers[0].width < width:
            red = _Reducer(self.ring, _packing(self.order, self.ring.nvars, width))
            for g in self.polys:
                terms = _plain(g, red.packing)[1]
                lm = min(terms)  # the smallest int is the leading monomial
                red.add(_normalized([(lm, terms.pop(lm))] + list(terms.items()), red.p))
            self._reducers = (red.packing, (red.lms, red.lcs, red.tails))
        return _Reducer(self.ring, *self._reducers)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise AmbientMismatch("polynomial outside the basis ring")
        width = self._reducers[0].width if self._reducers else 8
        while True:
            try:
                red = self._reducer(width)
                d, h = _plain(f, red.packing)
                rem, scale = red.reduce(h)
            except _Overflow:
                width *= 2
                continue
            return _polynomial(self.ring, rem, scale * d, red.packing.unpack)


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

class GradedHilbert(NamedTuple):
    """Dimension of each graded piece of ring/ideal up to a degree bound."""

    dims: tuple
    degree_bound: int

    def __getitem__(self, d: int) -> int:
        if not 0 <= d <= self.degree_bound:
            raise IndexError(f"degree {d} outside [0, {self.degree_bound}]")
        return self.dims[d]


def _numerator(lms, weights, degrees, level_bound: int, degree_bound: int) -> dict:
    """Numerator N of the Hilbert series N / prod(1 - s^w_i t^d_i) of S/(lms),
    (a, b) -> coefficient of s^a t^b, for a <= level_bound, b <= degree_bound.
    For p = x_i^e of bidegree (a, b), N(M) = N(M + (p)) + s^a t^b N(M : p);
    a generator coprime to the others factors off as 1 - s^a t^b."""
    n = len(weights)

    def bideg(m):
        return sum(map(mul, m, weights)), sum(map(mul, m, degrees))

    def add_shifted(N, terms, a, b, sign, L, D):  # N += sign s^a t^b terms
        for (u, v), c in terms:
            if u + a <= L and v + b <= D:
                N[u + a, v + b] = N.get((u + a, v + b), 0) + sign * c

    def rec(gens, L, D) -> dict:
        kept = []  # minimal generators in the window; one outside has no multiple in it
        for m in sorted(set(gens), key=sum):
            if all(map(le, bideg(m), (L, D))) and not any(all(map(le, k, m)) for k in kept):
                kept.append(m)
        occ = [sum(1 for g in kept if g[i]) for i in range(n)]
        rest = [g for g in kept if any(occ[i] > 1 for i, e in enumerate(g) if e)]
        N = {(0, 0): 1}
        if rest:  # x_i in the most generators, e its median exponent in mixed ones
            i = max(range(n), key=occ.__getitem__)
            mixed = sorted(g[i] for g in rest if 0 < g[i] < sum(g))
            e = mixed[len(mixed) // 2]
            a, b = e * weights[i], e * degrees[i]
            N = rec([g for g in rest if g[i] < e] + [(0,) * i + (e,) + (0,) * (n - i - 1)], L, D)
            if a <= L and b <= D:
                quotient = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in rest]
                add_shifted(N, rec(quotient, L - a, D - b).items(), a, b, 1, L, D)
        for g in set(kept).difference(rest):
            add_shifted(N, list(N.items()), *bideg(g), -1, L, D)
        return N

    return rec(lms, level_bound, degree_bound)


def count_standard_monomials(lms, weights, degrees, level_bound: int, degree_bound: int) -> dict:
    """Monomials divisible by none of ``lms``, tallied by (weight, degree).

    Variable i has weight ``weights[i]`` >= 0 and degree ``degrees[i]`` >= 1.
    Only monomials of weight <= ``level_bound`` and degree <= ``degree_bound``
    are counted; the result maps each (weight, degree) to its nonzero count:
    the window of ``_numerator`` / prod(1 - s^w t^d), one prefix-sum pass per
    variable. More than ``MAX_STANDARD_MONOMIALS`` in all raises ``LimitExceeded``.
    """
    table = [[0] * (degree_bound + 1) for _ in range(level_bound + 1)]
    for (a, b), c in _numerator(lms, weights, degrees, level_bound, degree_bound).items():
        table[a][b] = c
    for w, d in zip(weights, degrees):
        for a in range(w, level_bound + 1):
            row, low = table[a], table[a - w]
            for b in range(d, degree_bound + 1):
                row[b] += low[b - d]
    if sum(map(sum, table)) > MAX_STANDARD_MONOMIALS:
        raise LimitExceeded(f"more than {MAX_STANDARD_MONOMIALS} standard monomials to count")
    return {(a, b): c for a, row in enumerate(table) for b, c in enumerate(row) if c}


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
    """Krull dimension of ring/ideal: the order of the pole at t = 1 of the
    Hilbert series N(t) / (1 - t)^n of S/rad(in(ideal)), which has the same
    dimension (Bruns & Herzog §4.1); squarefree, N has no term past degree n."""
    gb = groebner_basis(ideal)
    if gb.is_unit():
        raise ValueError("unit ideal has no Krull dimension")
    n = ideal.ring.nvars
    radical = [tuple(min(e, 1) for e in m) for m in gb.lms]
    numerator = _numerator(radical, [0] * n, [1] * n, 0, n)
    coeffs = [numerator.get((0, b), 0) for b in range(n + 1)]
    while not sum(coeffs):  # N(1) = 0: exact division by 1 - t, by prefix sums
        coeffs = list(accumulate(coeffs))[:-1]
        n -= 1
    return n
