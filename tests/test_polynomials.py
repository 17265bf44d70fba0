"""Sparse polynomials: parsing, printing, orders, renaming; the bidegree and
ring-map helpers of the ``tests/graded_relation.py`` oracle."""

import random
import re
from fractions import Fraction

import pytest

from gradealg.errors import AmbientMismatch, ParseError
from gradealg.fields import GF, QQ
from gradealg.polynomials import (
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    WeightOrder,
    elimination_order,
)
from tests.graded_relation import Bidegree, bidegree, map_into
from tests.slow_groebner import oracle_key


def ring(names="x,y,z", field=QQ):
    return PolyRing(tuple(names.split(",")), field)


def test_parse_basics():
    R = ring()
    p = R.parse("x^2 + 2*x*y - 3")
    assert p.terms == {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(2),
        (0, 0, 0): Fraction(-3),
    }
    assert R.parse("x**2") == R.parse("x^2")
    assert R.parse("(x + y)^2") == R.parse("x^2 + 2*x*y + y^2")
    assert R.parse("1/2*x - x") == R.parse("-1/2*x")
    assert R.parse("0") == R.zero


def test_parse_rejects_garbage():
    R = ring()
    for bad in ("", "x +", "w", "x^y", "x 2", "1/0", "x..y", "(x", "x)"):
        with pytest.raises(ParseError):
            R.parse(bad)


def test_parse_gf_denominator():
    F = GF(5)
    R = ring(field=F)
    assert R.parse("1/2") == R.constant(3)
    with pytest.raises(ParseError):
        R.parse("1/5")


def test_print_canonical():
    R = ring()
    assert str(R.parse("y + x")) == "x + y"
    assert str(R.parse("-x^2 + y*z - 1/3")) == "-x^2 + y*z - 1/3"
    assert str(R.zero) == "0"
    assert str(R.one) == "1"
    # grevlex descending: degree first, then the tie-break
    assert str(R.parse("x + y^2")) == "y^2 + x"


def _above(order, a, b):
    """``a`` is above ``b`` in ``order`` by the reference key and by ``desc_key``."""
    by_oracle = oracle_key(order, a) > oracle_key(order, b)
    assert by_oracle == (order.desc_key(a) < order.desc_key(b))
    return by_oracle


def test_grevlex_vs_lex():
    # classic separating example: x*z vs y^2 agree on degree
    assert _above(GREVLEX, (0, 2, 0), (1, 0, 1))
    assert _above(LEX, (1, 0, 1), (0, 2, 0))
    # degree dominates in grevlex but not lex
    assert _above(GREVLEX, (3, 0, 0), (0, 1, 1))
    assert _above(LEX, (1, 0, 0), (0, 5, 5))


def test_elimination_order_blocks():
    order = elimination_order([0], 3)
    # any monomial containing x beats any x-free monomial
    assert _above(order, (1, 0, 0), (0, 9, 9))
    assert _above(order, (1, 0, 9), (0, 9, 0))
    # within the x-free block the tail order is grevlex: y^2 above y*z
    assert _above(order, (0, 2, 0), (0, 1, 1))
    assert _above(order, (0, 0, 3), (0, 2, 0))


def test_desc_key_sorts_descending():
    rng = random.Random(7)
    mons = {tuple(rng.randrange(4) for _ in range(4)) for _ in range(200)}
    orders = (GREVLEX, LEX, elimination_order([1, 3], 4), elimination_order([0], 4))
    for order in orders + (WeightOrder((3, 1, 1, 5)),):
        expected = sorted(mons, key=lambda m: oracle_key(order, m), reverse=True)
        assert sorted(mons, key=order.desc_key) == expected


def test_weight_order():
    order = WeightOrder((2, 2, 1))
    # the weight decides first, whatever the degree; grevlex breaks ties
    assert _above(order, (1, 0, 0), (0, 0, 1))
    assert _above(order, (0, 0, 3), (1, 0, 0))
    assert _above(order, (1, 0, 0), (0, 1, 0))
    assert order.weight((1, 2, 3)) == 9
    assert WeightOrder((2, 2, 1)) == order and hash(WeightOrder([2, 2, 1])) == hash(order)
    with pytest.raises(ValueError):
        WeightOrder((1, 0))


def test_constructor_maps_or_refuses_coefficients():
    # the fields' rules: over GF(p) a Fraction becomes its residue, and
    # neither field takes a float
    R7 = ring("x", GF(7))
    half = Polynomial(R7, {(1,): Fraction(1, 2)})
    assert half.terms == {(1,): 4} and type(half.terms[(1,)]) is int
    assert str(half) == "4*x" and half == R7.parse("1/2*x")
    assert not Polynomial(R7, {(1,): Fraction(7, 3)})
    with pytest.raises(ZeroDivisionError):
        Polynomial(R7, {(1,): Fraction(1, 7)})
    with pytest.raises(TypeError, match=r"^float is not a GF\(7\) coefficient$"):
        Polynomial(R7, {(1,): 2.5, (0,): 1})
    RQ = ring("x", QQ)
    with pytest.raises(TypeError, match="^float is not a rational coefficient$"):
        Polynomial(RQ, {(1,): 2.5})
    with pytest.raises(TypeError, match="^str is not a rational coefficient$"):
        Polynomial(RQ, {(1,): Fraction(1, 2), (0,): "1"})
    assert Polynomial(RQ, {(1,): Fraction(1, 2), (0,): 3}) == RQ.parse("1/2*x + 3")


def random_poly(rng, R, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mon = tuple(rng.randrange(0, max_exp) for _ in range(R.nvars))
        coeff = R.field(rng.randrange(-9, 10))
        if coeff:
            terms[mon] = coeff
    from gradealg.polynomials import Polynomial

    return Polynomial(R, terms)


def test_parse_print_round_trip_100():
    rng = random.Random(7)
    rings = [ring(), ring("a,b", GF(7)), ring("x1,x2,x3,x4", QQ), ring("u,v", GF(2))]
    done = 0
    while done < 100:
        R = rng.choice(rings)
        p = random_poly(rng, R)
        if p.is_zero():
            continue
        assert R.parse(str(p)) == p
        done += 1


def test_arithmetic_properties():
    rng = random.Random(3)
    R = ring("x,y", QQ)
    for _ in range(40):
        p = random_poly(rng, R)
        q = random_poly(rng, R)
        r = random_poly(rng, R)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
    assert (R.parse("x + y") ** 3) == R.parse(
        "x^3 + 3*x^2*y + 3*x*y^2 + y^3"
    )


def test_ambient_mismatch():
    p = ring("x,y").parse("x")
    q = ring("x,z").parse("x")
    with pytest.raises(AmbientMismatch):
        p + q


def test_leading_monomial_and_monic():
    R = ring()
    p = R.parse("2*x*z + y^2")
    assert p.leading_monomial(GREVLEX) == (0, 2, 0)
    assert p.leading_monomial(LEX) == (1, 0, 1)
    assert p.monic(GREVLEX).leading_coeff(GREVLEX) == QQ.one


def test_degrees_and_homogeneity():
    R = ring()
    assert R.parse("x*y + z^2").is_homogeneous()
    assert not R.parse("x + 1").is_homogeneous()
    assert R.parse("x*y^3").total_degree() == 4
    assert R.zero.total_degree() is None


def test_bidegree():
    R = ring("x,y,Y1,Y2")
    p = R.parse("x*Y1 + y*Y2")
    assert bidegree(p, [0, 1], [2, 3]) == Bidegree(1, 1)
    assert bidegree(R.parse("x*Y1 + Y2"), [0, 1], [2, 3]) is None
    with pytest.raises(ValueError):
        bidegree(p, [0], [2, 3])


def test_map_into_and_rename():
    R = ring("x,y")
    S = ring("u,v,w")
    p = R.parse("x^2 - y")
    image = map_into(p, S, [S.parse("u + v"), S.parse("w")])
    assert image == S.parse("(u + v)^2 - w")
    q = R.parse("x*y").rename_into(S, {"x": "u", "y": "w"})
    assert q == S.parse("u*w")


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_rename_into_equals_map_into_onto_variables(field):
    rng = random.Random(11)
    R = ring("x,y,z", field)
    S = ring("a,b,c,d,e", field)
    for _ in range(30):
        p = random_poly(rng, R)
        # an injective renaming, and one that sends two variables to one
        for targets in (rng.sample(S.variables, 3), [rng.choice(S.variables)] * 2 + ["e"]):
            name_map = dict(zip(R.variables, targets))
            images = [S.var(S.var_index(name_map[v])) for v in R.variables]
            assert p.rename_into(S, name_map) == map_into(p, S, images)
    T = ring("z,y,x,w", field)
    p = random_poly(rng, R)
    assert p.rename_into(T) == map_into(p, T, [T.var(2), T.var(1), T.var(0)])


def test_rename_into_errors():
    R = ring("x,y")
    with pytest.raises(ParseError):
        R.parse("x").rename_into(ring("x,z"))
    with pytest.raises(ParseError):
        R.parse("x").rename_into(ring("u,v"), {"x": "u", "y": "q"})
    with pytest.raises(AmbientMismatch):
        R.parse("x").rename_into(ring("x,y", GF(5)))


def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        PolyRing(("x", "x"), QQ)
    with pytest.raises(ValueError):
        PolyRing(("2x",), QQ)


@pytest.mark.parametrize(
    "name, ok",
    [("_x", True), ("x1", True), ("X_2", True), ("1x", False), ("x-y", False), ("é", False),
     ("", False), ("x\n", False), ("x y", False)],
)
def test_variable_names_are_ascii_identifiers(name, ok):
    # the accepted set is exactly [A-Za-z_][A-Za-z0-9_]*
    assert ok == bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name))
    if ok:
        assert PolyRing((name,), QQ).variables == (name,)
    else:
        with pytest.raises(ValueError, match=f"^bad variable name {re.escape(repr(name))}$"):
            PolyRing((name,), QQ)
