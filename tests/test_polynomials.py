"""Sparse polynomials: parsing, printing, orders, bidegrees."""

import random
from fractions import Fraction

import pytest

from gradealg.errors import AmbientMismatch, ParseError
from gradealg.fields import GF, QQ
from gradealg.polynomials import (
    GREVLEX,
    LEX,
    Bidegree,
    PolyRing,
    elimination_order,
    monomials_of_degree,
)


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


def test_grevlex_vs_lex():
    # classic separating example: x*z vs y^2 agree on degree
    assert GREVLEX.key((1, 0, 1)) < GREVLEX.key((0, 2, 0))
    assert LEX.key((1, 0, 1)) > LEX.key((0, 2, 0))
    # degree dominates in grevlex but not lex
    assert GREVLEX.key((3, 0, 0)) > GREVLEX.key((0, 1, 1))
    assert LEX.key((1, 0, 0)) > LEX.key((0, 5, 5))


def test_elimination_order_blocks():
    order = elimination_order([0], 3)
    # any monomial containing x beats any x-free monomial
    assert order.key((1, 0, 0)) > order.key((0, 9, 9))
    # within the x-free block the tail order is grevlex
    assert order.key((0, 1, 1)) > order.key((0, 2, 0)) or order.key(
        (0, 2, 0)
    ) > order.key((0, 1, 1))


def test_desc_key_sorts_descending():
    rng = random.Random(7)
    mons = {tuple(rng.randrange(4) for _ in range(4)) for _ in range(200)}
    for order in (GREVLEX, LEX, elimination_order([1, 3], 4), elimination_order([0], 4)):
        assert sorted(mons, key=order.desc_key) == sorted(mons, key=order.key, reverse=True)


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
    assert p.bidegree([0, 1], [2, 3]) == Bidegree(1, 1)
    assert R.parse("x*Y1 + Y2").bidegree([0, 1], [2, 3]) is None
    with pytest.raises(ValueError):
        p.bidegree([0], [2, 3])


def test_map_into_and_rename():
    R = ring("x,y")
    S = ring("u,v,w")
    p = R.parse("x^2 - y")
    image = p.map_into(S, [S.parse("u + v"), S.parse("w")])
    assert image == S.parse("(u + v)^2 - w")
    q = R.parse("x*y").rename_into(S, {"x": "u", "y": "w"})
    assert q == S.parse("u*w")


def test_monomials_of_degree():
    mons = list(monomials_of_degree(3, 2))
    assert len(mons) == 6
    assert all(sum(m) == 2 for m in mons)
    assert len(set(mons)) == 6


def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        PolyRing(("x", "x"), QQ)
    with pytest.raises(ValueError):
        PolyRing(("2x",), QQ)
