"""Exact fields: labels, primes, coefficient coercion, and the GF(p)
coefficient as a plain int residue in every layer."""

import random
from fractions import Fraction

import pytest

from gradealg.errors import AmbientMismatch
from gradealg.fields import GF, QQ, _is_prime, parse_field
from gradealg.groebner import Ideal, groebner_basis
from gradealg.polynomials import GREVLEX, PolyRing
from tests.slow_groebner import monic


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
    assert (F.zero, F.one) == (0, 1)
    assert F(10) == 3 and type(F(10)) is int
    assert F(-2) == 5
    assert F.from_fraction(1, 3) == 5
    R = PolyRing(("x",), F)
    c = R.constant
    assert c(10) == c(3)
    assert c(3) + c(5) == c(1)
    assert c(3) * c(5) == c(1)
    assert c(1) * F.from_fraction(1, 3) == c(5)
    assert -c(2) == c(5)
    assert c(3) ** 6 == R.one
    assert monic(c(3), GREVLEX) == R.one
    assert not c(7)
    assert R.one


def test_gf_rejects_nonprime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(-5)


def test_primality_by_trial_division_matches_sympy():
    # every n below 10^5, seeded 31-bit draws, the largest characteristic
    # and strong pseudoprimes to the bases 2 (2047 and up) and 2, 3, 5
    # (25326001)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    draws = [rng.randrange(2**30, 2**31) for _ in range(300)]
    pseudoprimes = [2047, 3277, 4033, 4681, 8321, 25326001]
    for n in [*range(10**5), *draws, 2**31 - 1, *pseudoprimes]:
        assert _is_prime(n) == sympy.isprime(n), n


def test_gf_large_prime_accepted():
    p = 2147483647
    R = PolyRing(("x",), GF(p))
    power = R.constant(2) ** 40
    assert power == R.constant(pow(2, 40, p))
    assert power.terms == {(0,): pow(2, 40, p)}


def test_gf_zero_division():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F.from_fraction(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.from_fraction(1, 10)


def test_mixed_characteristic_rejected_at_the_ring():
    x3 = PolyRing(("x",), GF(3)).parse("x")
    x5 = PolyRing(("x",), GF(5)).parse("x")
    with pytest.raises(AmbientMismatch):
        x3 + x5
    with pytest.raises(AmbientMismatch):
        x3.rename_into(x5.ring)


def test_field_axioms_random():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3), GF(101)):
        R = PolyRing(("x",), field)
        for _ in range(50):
            u, v, w = (rng.randrange(-40, 40) for _ in range(3))
            a, b, c = R.constant(u), R.constant(v), R.constant(w)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + R.zero == a
            assert a * R.one == a
            assert a - a == R.zero
            if b:
                assert a * field.from_fraction(1, v) * b == a


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


def test_floats_are_rejected():
    for field in (QQ, GF(7)):
        R = PolyRing(("x",), field)
        with pytest.raises(TypeError):
            field(2.5)
        with pytest.raises(TypeError):
            field(0.1)
        with pytest.raises(TypeError):
            R.constant(2.9)
        with pytest.raises(TypeError):
            R.monomial((1,), 3.7)
        with pytest.raises(TypeError):
            R.parse("x") * 2.5
        with pytest.raises(TypeError):
            field("3")


def _random_text(rng, names) -> str:
    """A polynomial with integer coefficients of either sign, as text."""
    pieces = []
    for _ in range(rng.randint(1, 5)):
        mono = "*".join(f"{v}^{e}" for v in names if (e := rng.randrange(3)))
        pieces.append(f"{rng.randint(-50, 50)}" + (f"*{mono}" if mono else ""))
    return " + ".join(pieces).replace("+ -", "- ")


def _assert_residues(f, p) -> None:
    assert all(type(c) is int and 0 < c < p for c in f.terms.values()), f.terms


def test_gf_arithmetic_matches_reduced_rational_arithmetic():
    rng = random.Random(22)
    names = ("x", "y", "z")
    rational = PolyRing(names, QQ)
    for p in (2, 3, 32003):
        ring = PolyRing(names, GF(p))
        wider = PolyRing(("w",) + names, GF(p))
        for _ in range(30):
            texts = [_random_text(rng, names) for _ in range(3)]
            f, g, h = (ring.parse(t) for t in texts)
            for poly in (f, g, h):
                _assert_residues(poly, p)
            result = f * g + h - f**2
            _assert_residues(result, p)
            fq, gq, hq = (rational.parse(t) for t in texts)
            expected = {m: c.numerator % p for m, c in (fq * gq + hq - fq**2).terms.items()}
            assert result.terms == {m: c for m, c in expected.items() if c}
            _assert_residues(result.rename_into(wider), p)
            if result:
                normed = monic(result, GREVLEX)
                _assert_residues(normed, p)
                assert normed.terms[normed.leading_monomial(GREVLEX)] == 1
        basis = groebner_basis(Ideal(ring, [f, g]))
        for b in basis:
            _assert_residues(b, p)
        _assert_residues(basis.normal_form(h), p)
