"""Exact field arithmetic."""

import random
from fractions import Fraction

import pytest

from gradealg.fields import GF, QQ, GFElement, parse_field


def test_rational_basics():
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ(3) / QQ(6) == Fraction(1, 2)
    assert QQ.from_fraction(-4, 6) == Fraction(-2, 3)
    assert QQ.name == "Q"
    assert QQ.characteristic == 0


def test_gf_basics():
    F = GF(7)
    assert F.name == "GF(7)"
    assert F.characteristic == 7
    assert F(10) == F(3)
    assert F(3) + F(5) == F(1)
    assert F(3) * F(5) == F(1)
    assert F(1) / F(3) == F(5)
    assert -F(2) == F(5)
    assert (F(3) ** 6) == F.one
    assert not F.zero
    assert F.one


def test_gf_rejects_nonprime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(-5)


def test_gf_large_prime_accepted():
    F = GF(2147483647)
    assert F(2) ** 40 == F(pow(2, 40, 2147483647))


def test_gf_zero_division():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F.from_fraction(1, 10)


def test_gf_mixed_characteristic_rejected():
    with pytest.raises(ValueError):
        GFElement(1, 3) + GFElement(1, 5)


def test_field_axioms_random():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(50):
            a = field(rng.randrange(-40, 40))
            b = field(rng.randrange(-40, 40))
            c = field(rng.randrange(-40, 40))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero == a
            assert a * field.one == a
            assert a - a == field.zero
            if b != field.zero:
                assert (a / b) * b == a


def test_fraction_coercion_into_gf():
    F = GF(7)
    assert F(Fraction(1, 2)) == F(4)
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 7))


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("QQ") is QQ
    assert parse_field("GF(5)") == GF(5)
    with pytest.raises(ValueError):
        parse_field("R")
    with pytest.raises(ValueError):
        parse_field("GF(four)")
    with pytest.raises(ValueError):
        parse_field("GF(8)")


@pytest.mark.parametrize("label", ["Q", "QQ", " Q "])
def test_parse_field_accepts_rational_labels(label):
    assert parse_field(label) is QQ


@pytest.mark.parametrize("label", ["GF(7)", "GF7", "GF(7", "GF7)", " GF(7) ", "GF( 7 )"])
def test_parse_field_accepts_prime_labels(label):
    assert parse_field(label) == GF(7)


@pytest.mark.parametrize(
    "label,message",
    [
        ("R", "unknown field 'R'; expected Q or GF(p)"),
        ("GF(four)", "unknown field 'GF(four)'; expected Q or GF(p)"),
        ("GF", "unknown field 'GF'; expected Q or GF(p)"),
        ("GF(8)", "8 is not prime"),
    ],
)
def test_parse_field_rejects(label, message):
    with pytest.raises(ValueError) as exc:
        parse_field(label)
    assert str(exc.value) == message


def test_field_equality_and_hash():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert hash(GF(5)) == hash(GF(5))
    assert QQ == parse_field("Q")
