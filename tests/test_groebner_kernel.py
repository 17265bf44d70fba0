"""Differential tests: the packed-monomial Buchberger kernel against the
``Polynomial``-object engine in ``tests/slow_groebner.py``."""

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradealg import groebner
from gradealg.errors import LimitExceeded
from gradealg.fields import GF, QQ
from gradealg.groebner import GroebnerBasis, buchberger, groebner_basis
from gradealg.polynomials import (
    GREVLEX,
    LEX,
    BlockOrder,
    Polynomial,
    PolyRing,
    WeightOrder,
    elimination_order,
)
from tests import slow_groebner

FIELDS = (QQ, GF(2), GF(32003))
ORDERS = (GREVLEX, LEX, elimination_order([1], 3), WeightOrder((7, 300, 2)))


def _poly(ring, terms) -> Polynomial:
    out = ring.zero
    for mon, coeff in terms:
        out = out + ring.monomial(mon, coeff)
    return out


_TERMS = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.integers(-9, 9).filter(bool),
    ),
    min_size=1,
    max_size=3,
)


# Two pairs on which the normal selection swelled coefficients over Q past
# the reduction work budget (10^7): the lex pair took the kernel 38 s and the
# block-order pair 6.3 s with the budget lifted. Sugar selection reaches the
# same reduced bases, pinned here, with work below 10^4.
SWELL_PAIRS = [
    (
        LEX,
        [[((0, 0, 0), 1), ((0, 1, 3), -4), ((2, 1, 0), 1)],
         [((0, 3, 3), -3), ((1, 1, 2), 1), ((3, 0, 0), 6)]],
        [
            "128*y^8*z^15 - 512/9*y^4*z^16 - 8192/3*y^3*z^17 - 32768*y^2*z^18 + 4*y^8*z^11"
            " + 32*y^7*z^12 - 16/9*y^4*z^12 - 256/3*y^3*z^13 - 1024/3*y^2*z^14 + 16384*y*z^15"
            " + 1/72*y^8*z^7 + 2/3*y^7*z^8 + 8*y^6*z^9 - 1/162*y^4*z^8 - 4/27*y^3*z^9"
            " + 224/9*y^2*z^10 + 1792/3*y*z^11 - 2048*z^12 + 1/12*y^6*z^5 + 2*y^5*z^6"
            " + 1/648*y^3*z^5 + 5/27*y^2*z^6 + 8/3*y*z^7 - 256/3*z^8 + 1/2*y^4*z^3"
            " - 1/108*y*z^3 - 2/3*z^4 + x",
            "y^9*z^6 - 4/9*y^5*z^7 - 64/3*y^4*z^8 - 256*y^3*z^9 + 1/9*y^4*z^4 + 32/3*y^3*z^5"
            " + 192*y^2*z^6 - 4/3*y^2*z^2 - 48*y*z^3 + 4",
        ],
    ),
    (
        elimination_order([1], 3),
        [[((0, 0, 0), 1), ((1, 2, 3), 31), ((2, 2, 2), 1)],
         [((0, 1, 1), 1), ((0, 2, 1), 1), ((3, 0, 0), 1)]],
        [
            "x^13*z - 4617605*x^9*z^5 - 114516604*x^8*z^6 - x^8 + 93*x^7*z - 1922*x^6*z^2"
            " + 59582*x^5*z^3 + 7388168*x^4*z^4 + x^5*z - 31*x^4*z^2 + 961*x^3*z^3"
            " - 29791*x^2*z^4 - 3694084*x*z^5 - 62*x^2 + 2883*x*z - 119164*z^2 + y + 1",
            "x^10*z^2 + 62*x^9*z^3 + 961*x^8*z^4 - 2*x^5*z - 62*x^4*z^2 + x^2*z^2"
            " + 31*x*z^3 + 1",
        ],
    ),
]


@pytest.mark.parametrize("order,gens,basis", SWELL_PAIRS)
def test_swell_pairs_reach_their_reduced_bases(monkeypatch, order, gens, basis):
    from gradealg import groebner

    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 10**5)
    ring = PolyRing(("x", "y", "z"), QQ)
    gens = [_poly(ring, t) for t in gens]
    assert list(map(str, buchberger(gens, order))) == basis
    assert list(map(str, slow_groebner.buchberger(gens, order))) == basis


@settings(max_examples=200, deadline=None)
@example(field=QQ, order=SWELL_PAIRS[0][0], gens=SWELL_PAIRS[0][1], probes=[[((1, 1, 1), 1)]])
@example(field=QQ, order=SWELL_PAIRS[1][0], gens=SWELL_PAIRS[1][1], probes=[[((1, 1, 1), 1)]])
@given(
    field=st.sampled_from(FIELDS),
    order=st.sampled_from(ORDERS),
    gens=st.lists(_TERMS, min_size=1, max_size=3),
    probes=st.lists(_TERMS, min_size=1, max_size=3),
)
def test_kernel_matches_polynomial_engine(field, order, gens, probes):
    ring = PolyRing(("x", "y", "z"), field)
    # three random generators make a zero-dimensional system whose lex basis
    # can take minutes; two keep the elimination orders fast
    gens = [_poly(ring, t) for t in gens[: 3 if order == GREVLEX else 2]]
    basis = buchberger(gens, order)
    expected = slow_groebner.buchberger(gens, order)
    assert basis == expected
    assert list(map(str, basis)) == list(map(str, expected))
    frozen = GroebnerBasis(ring, order, basis)
    for f in [_poly(ring, t) for t in probes] + gens:
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis, order)


# Rationals with numerators up to 10^12 and denominators up to 10^6: the
# leading coefficients are almost never 1, so the kernel's integer scaling,
# content removal and final division by scale and denominators are all
# exercised, which small integers rarely do. Two generators with exponents
# below 3: with such coefficients, larger systems can grow intermediate
# coefficients to thousands of digits (one block-order pair of degree 6
# took the parent's Fraction kernel 22 s), which takes the Fraction oracle
# minutes and exhausts the kernel's reduction work budget.
_HARD_TERMS = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 2)] * 3),
        st.builds(
            Fraction, st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**6)
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(
    order=st.sampled_from(ORDERS),
    gens=st.lists(_HARD_TERMS, min_size=1, max_size=2),
    probes=st.lists(_HARD_TERMS, min_size=1, max_size=3),
)
def test_kernel_matches_on_hard_rational_coefficients(order, gens, probes):
    ring = PolyRing(("x", "y", "z"), QQ)
    gens = [_poly(ring, t) for t in gens]
    basis = buchberger(gens, order)
    expected = slow_groebner.buchberger(gens, order)
    assert list(map(str, basis)) == list(map(str, expected))
    frozen = GroebnerBasis(ring, order, basis)
    for f in [_poly(ring, t) for t in probes] + gens:
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis, order)


def test_kernel_matches_on_a_larger_system():
    # homogenized katsura-3 over Q and GF(32003): many S-pairs and tails
    for field in (QQ, GF(32003)):
        ring = PolyRing(("u0", "u1", "u2", "u3", "h"), field)
        gens = [
            ring.parse(t)
            for t in (
                "u0 + 2*u1 + 2*u2 + 2*u3 - h",
                "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0*h",
                "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1*h",
                "2*u0*u2 + u1^2 + 2*u1*u3 - u2*h",
            )
        ]
        basis = buchberger(gens)
        assert basis == slow_groebner.buchberger(gens)
        frozen = GroebnerBasis(ring, GREVLEX, basis)
        f = ring.parse("u0^3*u3 - 7*u1*u2*h^2 + u3^4")
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis)


def test_monomial_ideals_match_polynomial_engine():
    # pairs of two monomials are never queued; the chain criterion still
    # sees them as treated, so the bases are unchanged
    rng = random.Random(1010)
    for _ in range(60):
        field = rng.choice(FIELDS)
        ring = PolyRing(("x", "y", "z", "w"), field)
        gens = [
            ring.monomial(tuple(rng.randrange(0, 4) for _ in range(4)), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 8))
        ]
        # a binomial or two among the monomials mixes both kinds of pairs
        gens += [_poly(ring, [((rng.randrange(3), 1, 0, rng.randrange(2)), 1), ((0, 0, 2, 1), -1)])
                 for _ in range(rng.randrange(0, 3))]
        for order in ORDERS[:2] + (elimination_order([1], 4),):
            basis = buchberger(gens, order)
            assert list(map(str, basis)) == list(map(str, slow_groebner.buchberger(gens, order)))


@st.composite
def _orders(draw, nvars: int):
    """grevlex, lex, or a block order of 2 or 3 blocks, each block a set of
    variables anywhere in the ring, as ``elimination_order`` builds them."""
    kind = draw(st.sampled_from(["grevlex", "lex", "block"] if nvars > 1 else ["grevlex", "lex"]))
    if kind != "block":
        return GREVLEX if kind == "grevlex" else LEX
    perm = draw(st.permutations(range(nvars)))
    count = draw(st.integers(2, min(3, nvars)))
    cuts = sorted(draw(st.sets(st.integers(1, nvars - 1), min_size=count - 1, max_size=count - 1)))
    return BlockOrder([sorted(perm[a:b]) for a, b in zip([0] + cuts, cuts + [nvars])])


_COEFFS = st.integers(-9, 8).map(lambda c: c + (c >= 0))  # -9..9 without 0


def _sparse_terms(nvars: int):
    """1 to 3 terms, each in at most two variables with exponents up to 40."""
    monomial = st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 40), max_size=2).map(
        lambda exps: tuple(exps.get(i, 0) for i in range(nvars))
    )
    return st.lists(st.tuples(monomial, _COEFFS), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_on_wide_rings_and_block_orders(data):
    # 1 to 8 variables, exponents up to 40: past the room of the narrowest
    # fields, so both the input check and mid-run guard hits restart runs
    nvars = data.draw(st.integers(1, 8), label="nvars")
    order = data.draw(_orders(nvars), label="order")
    field = data.draw(st.sampled_from(FIELDS), label="field")
    ring = PolyRing(tuple(f"v{i}" for i in range(nvars)), field)
    gens = [_poly(ring, t) for t in data.draw(st.lists(_sparse_terms(nvars), min_size=1, max_size=2))]
    probes = [_poly(ring, t) for t in data.draw(st.lists(_sparse_terms(nvars), min_size=1, max_size=2))]
    # members have remainder 0: the generators times a small polynomial
    small = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), _COEFFS)
    factor = _poly(ring, data.draw(st.lists(small, min_size=1, max_size=2)))
    members = [factor * g for g in gens]
    # a few such systems, or their normal forms, take the slow engine
    # minutes; they are skipped. The slow engine's time grows with the basis
    # it builds: past 100 terms it took seconds to minutes, where the
    # kernel, whose signature criteria spare it most of the slow engine's
    # reductions, can stay within its work budget. Such a basis is not
    # compared with the slow engine's, but its members still reduce to 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "MAX_REDUCTION_WORK", 2 * 10**4)
        try:
            basis = buchberger(gens, order)
            frozen = GroebnerBasis(ring, order, basis)
            remainders = [frozen.normal_form(f) for f in probes + members]
        except LimitExceeded:
            assume(False)
    if sum(len(g.terms) for g in basis) <= 100:
        assert list(map(str, basis)) == list(map(str, slow_groebner.buchberger(gens, order)))
        for f, r in zip(probes + members, remainders):
            assert r == slow_groebner.normal_form(f, basis, order)
    assert not any(remainders[len(probes):])


def _counted_reducers(monkeypatch) -> list:
    """Patch ``groebner._Reducer`` so that every one made is appended to the
    returned list."""
    reducers = []

    class Counting(groebner._Reducer):
        def __init__(self, *args):
            super().__init__(*args)
            reducers.append(self)

    monkeypatch.setattr(groebner, "_Reducer", Counting)
    return reducers


# Exponents at and past 2^31, 2^63 and 2^64: the fields widen from 8 bits
# until the input fits, and a guard hit in the middle of a run restarts it
# wider (lex ``x - y^20``, ``y - z^30`` reaches z^600 after one reduction
# step at 8 bits; lex ``x^10`` reduces to a y-power past 2^63; in the last
# system an S-polynomial reaches past 127 under lex, the block and the weight
# order). Each row gives the reduction work of the run under grevlex, lex,
# the block order and the weight order, as a run that starts at width 256
# counts it.
_WIDE = [
    (["x^1099511627776 - y"], (0, 0, 0, 0)),
    (["x^2147483648*y - z^3"], (0, 0, 0, 0)),
    (["x^1099511627776 - y", "x^2147483648 - z^3"], (511, 511, 512, 511)),
    (["x^2147483648*y - z^3", "y^2 - z"], (0, 0, 0, 0)),
    (["x - y^20", "y - z^30"], (0, 21, 1, 1)),
    (["x^2 - y^2305843009213693951", "x^10 - z"], (0, 1, 0, 0)),
    (["x^1180591620717411303424 - y*z", "y^3 - z"], (0, 0, 1, 0)),
    (["-x^2*y^16 - x^17", "x^17*z^6 + x^18", "-y^28*z^31 + x^26*y^13"], (9, 294, 12, 12)),
]
_WIDE_ORDERS = [GREVLEX, LEX, elimination_order([1], 3), WeightOrder((7, 300, 2))]


@pytest.mark.parametrize("column, order", enumerate(_WIDE_ORDERS), ids=repr)
@pytest.mark.parametrize("texts, works", _WIDE, ids=[", ".join(t) for t, _ in _WIDE])
def test_exponents_past_the_field_width(monkeypatch, column, order, texts, works):
    # a restart takes the steps of the run that starts wide: with the budget
    # at that run's work, no run raises LimitExceeded, and the last one does
    # exactly that work
    work = works[column]
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", work)
    reducers = _counted_reducers(monkeypatch)
    ring = PolyRing(("x", "y", "z"), QQ)
    gens = [ring.parse(t) for t in texts]
    basis = buchberger(gens, order)
    assert reducers[-1].work == work
    assert list(map(str, basis)) == list(map(str, slow_groebner.buchberger(gens, order)))
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 10**4)
    frozen = GroebnerBasis(ring, order, basis)
    members = [g * ring.parse("x*y*z - 2") for g in gens]
    for f in gens + members + [ring.parse("x^10*y^3 + z^5")]:
        assert frozen.normal_form(f) == slow_groebner.normal_form(f, basis, order)
    assert not any(frozen.normal_form(f) for f in members)


def test_weight_order_starts_wide_with_the_same_work(monkeypatch):
    # the weight order's column of ``_WIDE``: a run wide enough never to
    # restart does that work too
    reducers = _counted_reducers(monkeypatch)
    ring = PolyRing(("x", "y", "z"), QQ)
    packing = groebner._packing(_WIDE_ORDERS[3], 3, 256)
    for texts, works in _WIDE:
        groebner._buchberger(ring, [ring.parse(t) for t in texts], packing)
        assert reducers[-1].work == works[3]


@pytest.mark.parametrize("column, order", list(enumerate(_WIDE_ORDERS))[:3], ids=repr)
def test_other_orders_start_wide_with_the_same_work(monkeypatch, column, order):
    # the other columns of ``_WIDE`` likewise
    reducers = _counted_reducers(monkeypatch)
    ring = PolyRing(("x", "y", "z"), QQ)
    packing = groebner._packing(order, 3, 256)
    for texts, works in _WIDE:
        groebner._buchberger(ring, [ring.parse(t) for t in texts], packing)
        assert reducers[-1].work == works[column]


class _DegreeThenWeight:
    """Degree, then a weight, then grevlex: a weighted key field below the top."""

    def __init__(self, weights):
        self.weights = weights

    def key(self, mon):
        return (sum(mon), sum(map(mul, self.weights, mon)), tuple(-e for e in reversed(mon)))

    def desc_key(self, mon):
        return (-sum(mon), -sum(map(mul, self.weights, mon))) + mon[::-1]

    def __eq__(self, other):
        return isinstance(other, _DegreeThenWeight) and other.weights == self.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"degree_weight{self.weights}"


@pytest.mark.parametrize(
    "order",
    [WeightOrder((7, 300, 2)), _DegreeThenWeight((7, 300, 2)), _DegreeThenWeight((1, 1, 1))],
    ids=repr,
)
@pytest.mark.parametrize("width", [8, 16])
def test_weighted_key_field_at_the_top_of_its_range(order, width):
    # exponents at 0, 1 and the largest the field holds, where a key field
    # with weights spans its whole range: packed ints compare as the keys
    # do, and the guard bits divide as the exponent tuples do
    packing = groebner._packing(order, 3, width)
    top = (1 << (width - 1)) - 1
    mons = list(product((0, 1, top - 1, top), repeat=3))
    packed = {m: packing.pack(m) for m in mons}
    assert all(packing.unpack(packed[m]) == m for m in mons)
    for a, b in product(mons, repeat=2):
        above = slow_groebner.oracle_key(order, a) > slow_groebner.oracle_key(order, b)
        assert (packed[a] < packed[b]) == above
        guarded = ((packed[b] | packing.guard) - packed[a]) & packing.guard == packing.guard
        assert guarded == all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_cached_basis_keeps_its_packed_reducers(monkeypatch, field):
    # a basis packs its elements on its first normal form, once, and keeps
    # them: a later normal form packs only its input
    variables, texts = _katsura(3)
    ring = PolyRing(variables, field)
    basis = groebner_basis(groebner.Ideal.parse(ring, texts))
    packed = []
    plain = groebner._plain

    def counting(f, packing):
        packed.append(f)
        return plain(f, packing)

    monkeypatch.setattr(groebner, "_plain", counting)
    probe = ring.parse("u0^3 + 2*u1*u2*h - u3^2*h")
    remainder = basis.normal_form(probe)
    assert remainder == slow_groebner.normal_form(probe, list(basis), GREVLEX)
    assert packed == list(basis) + [probe]
    assert basis.normal_form(probe) == remainder
    assert packed == list(basis) + [probe, probe]


def _katsura(n: int) -> tuple:
    """Homogenized katsura-n: variables u0..un plus h, and generators."""
    u = [f"u{i}" for i in range(n + 1)]

    def at(i):
        return u[abs(i)] if abs(i) <= n else None

    gens = [
        " + ".join(f"{at(l)}*{at(m - l)}" for l in range(-n, n + 1) if at(l) and at(m - l))
        + f" - {u[m]}*h"
        for m in range(n)
    ]
    gens.append(" + ".join([u[0]] + [f"2*{x}" for x in u[1:]]) + " - h")
    return u + ["h"], gens


def _cyclic(n: int) -> tuple:
    """Homogenized cyclic-n: variables x1..xn plus h, and generators."""
    v = [f"x{i}" for i in range(1, n + 1)]
    gens = [
        " + ".join("*".join(v[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    gens.append("*".join(v) + f" - h^{n}")
    return v + ["h"], gens


# Reduction work of one Buchberger run: a change to the steps of a run shows
# here.
PINNED_WORK = {
    ("katsura4", "Q"): 2397,
    ("katsura4", "GF(32003)"): 1605,
    ("cyclic5", "Q"): 5692,
    ("cyclic5", "GF(32003)"): 4029,
}


def test_kernel_steps_are_pinned(monkeypatch):
    reducers = _counted_reducers(monkeypatch)
    work = {}
    for name, (variables, texts) in (("katsura4", _katsura(4)), ("cyclic5", _cyclic(5))):
        for field in (QQ, GF(32003)):
            reducers.clear()
            ring = PolyRing(variables, field)
            buchberger([ring.parse(t) for t in texts])
            work[name, field.name] = sum(r.work for r in reducers)
    assert work == PINNED_WORK


def _counted_zero_reductions(monkeypatch) -> list:
    """Patch ``groebner._Reducer`` so that every S-polynomial the run reduces
    to 0 appends its signature to the returned list. The run reduces
    S-polynomials with their signature; the final tail reductions, without
    one, are not counted."""
    zeros = []

    class Counting(groebner._Reducer):
        def reduce(self, h, sig=None):
            rem = super().reduce(h, sig)
            if sig is not None and not rem[0]:
                zeros.append(sig)
            return rem

    monkeypatch.setattr(groebner, "_Reducer", Counting)
    return zeros


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
@pytest.mark.parametrize("n", [4, 5])
def test_homogenized_katsura_makes_no_zero_reduction(monkeypatch, field, n):
    # homogenized katsura-n is a regular sequence: every syzygy of it is a
    # combination of Koszul syzygies, whose signatures the run skips. The
    # kernel with the chain criterion and no signatures reduced 18 pairs to
    # 0 on katsura-4 and 48 on katsura-5
    zeros = _counted_zero_reductions(monkeypatch)
    variables, texts = _katsura(n)
    ring = PolyRing(variables, field)
    gens = [ring.parse(t) for t in texts]
    assert list(map(str, buchberger(gens))) == list(map(str, slow_groebner.buchberger(gens)))
    assert zeros == []


def _form(rng, ring, degree: int, terms: int) -> Polynomial:
    """A homogeneous polynomial of the degree with up to ``terms`` terms and
    coefficients in -4..4 (zero terms drop)."""
    n = ring.nvars
    out = ring.zero
    for _ in range(terms):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(n - 1))
        mon = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        out = out + ring.monomial(mon, rng.randrange(-4, 5))
    return out


def _regular_forms(rng, ring) -> list:
    """Homogeneous forms whose grevlex leading monomials are pairwise
    coprime: a regular sequence, since their initial forms are one."""
    while True:
        gens = [_form(rng, ring, rng.randrange(1, 4), rng.randrange(2, 5)) for _ in range(rng.randrange(2, 4))]
        lms = [g.leading_monomial(GREVLEX) for g in gens if g]
        if len(lms) == len(gens) and all(
            not any(a and b for a, b in zip(x, y)) for i, x in enumerate(lms) for y in lms[:i]
        ):
            return gens


def test_homogeneous_draws_match_the_polynomial_engine(monkeypatch):
    # seeded draws of homogeneous systems in 3 and 4 variables, half of them
    # regular sequences, over Q, GF(2) and GF(32003), under grevlex, lex, a
    # block order and a weight order: the kernel's reduced basis is the
    # slow engine's, and on a regular sequence no pair reduces to 0
    zeros = _counted_zero_reductions(monkeypatch)
    rng = random.Random(2505)
    for draw in range(160):
        nvars = rng.choice((3, 4))
        field = rng.choice(FIELDS)
        order = rng.choice(
            [GREVLEX, LEX, elimination_order([1], nvars), WeightOrder((3, 1, 2, 5)[:nvars])]
        )
        ring = PolyRing(("x", "y", "z", "w")[:nvars], field)
        regular = draw % 2 == 0
        if regular:
            gens = _regular_forms(rng, ring)
        else:
            gens = [_form(rng, ring, rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(rng.randrange(2, 4))]
        zeros.clear()
        basis = buchberger(gens, order)
        assert list(map(str, basis)) == list(map(str, slow_groebner.buchberger(gens, order))), (
            field, order, gens,
        )
        if regular:
            assert zeros == [], (field, order, gens)
