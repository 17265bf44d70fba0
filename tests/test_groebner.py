"""Buchberger engine: reduced bases, membership, elimination, invariants."""

import random

import pytest

from gradealg.errors import AmbientMismatch, LimitExceeded
from gradealg.fields import GF, QQ
from gradealg.groebner import (
    Ideal,
    buchberger,
    elimination_ideal,
    groebner_basis,
    hilbert_function,
    ideal_equal,
    ideal_member,
    ideal_power,
    ideal_sum,
    krull_dim,
    normal_form,
)
from gradealg.polynomials import GREVLEX, PolyRing


def ring(names="x,y,z", field=QQ):
    return PolyRing(tuple(names.split(",")), field)


def gb_strings(ideal, order=GREVLEX):
    return sorted(str(g) for g in groebner_basis(ideal, order))


def test_reduced_gb_frozen_fixtures():
    R = ring()
    # oracle-verified reduced grevlex bases
    assert gb_strings(Ideal.parse(R, ["x^2 - y", "x^3 - z"])) == [
        "x*y - z",
        "x^2 - y",
        "y^2 - x*z",
    ]
    assert gb_strings(
        Ideal.parse(R, ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"])
    ) == ["x + y + z", "y^2 + y*z + z^2", "z^3 - 1"]
    assert gb_strings(Ideal.parse(R, ["x^2", "x*y"])) == ["x*y", "x^2"]


def test_unit_ideal_detected():
    R = ring("x,y")
    gb = groebner_basis(Ideal.parse(R, ["x*y - 1", "x^2"]))
    assert gb.is_unit()
    assert [str(g) for g in gb] == ["1"]


def test_basis_elements_are_monic_and_reduced():
    R = ring()
    gb = groebner_basis(Ideal.parse(R, ["2*x^2 - 2*y", "3*x^3 - 3*z"]))
    for g in gb:
        assert g.leading_coeff(GREVLEX) == QQ.one
        # no term of g is divisible by another element's leading monomial
        for h in gb:
            if h is g:
                continue
            lm = h.leading_monomial(GREVLEX)
            assert all(
                any(m[i] < lm[i] for i in range(3)) for m in g.terms
            )


def test_normal_form_idempotent_and_linear():
    rng = random.Random(19)
    R = ring()
    I = Ideal.parse(R, ["x^2 - y*z", "y^3 - z"])
    from tests.test_polynomials import random_poly

    for _ in range(30):
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        nf = normal_form(f, I)
        assert normal_form(nf, I) == nf
        assert normal_form(f + g, I) == normal_form(nf + normal_form(g, I), I)
        # f - NF(f) is always a member
        assert ideal_member(f - nf, I)


def test_membership_soundness():
    R = ring("x,y")
    I = Ideal.parse(R, ["x^2 + y", "x*y"])
    assert ideal_member(R.parse("x^3"), I)  # x*(x^2+y) - (x*y)
    assert ideal_member(R.parse("y^2 + x^2*y"), I)
    assert not ideal_member(R.parse("x"), I)
    assert not ideal_member(R.parse("y"), I)


def test_determinism_under_shuffling():
    rng = random.Random(5)
    R = ring()
    gens = [
        R.parse("x^2*y - z^2"),
        R.parse("x*z - y"),
        R.parse("y^3 - x"),
        R.parse("z^4 - x*y"),
    ]
    reference = buchberger(gens)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * rng.choice([1, 2, 3, -1]) for g in shuffled]
        assert buchberger(scaled) == reference


def test_elimination_twisted_cubic():
    R = ring("t,x,y")
    I = Ideal.parse(R, ["x - t^2", "y - t^3"])
    E = elimination_ideal(I, keep=[1, 2])
    assert [str(g) for g in E.generators] == ["x^3 - y^2"]


def test_elimination_keep_all_and_none():
    R = ring("x,y")
    I = Ideal.parse(R, ["x^2 - y"])
    assert ideal_equal(elimination_ideal(I, [0, 1]), I)
    Z = elimination_ideal(I, [])
    assert Z.generators == ()


def test_elimination_of_middle_variable():
    R = ring()
    I = Ideal.parse(R, ["y - x^2", "z - x^3"])
    E = elimination_ideal(I, keep=[0, 2])
    assert ideal_equal(E, Ideal.parse(R, ["z - x^3"]))


def test_ideal_sum_and_equality():
    R = ring("x,y")
    a = Ideal.parse(R, ["x"])
    b = Ideal.parse(R, ["y"])
    assert ideal_equal(ideal_sum(a, b), Ideal.parse(R, ["x", "y"]))
    assert ideal_equal(Ideal.parse(R, ["x^2 - y^2"]), Ideal.parse(R, ["(x-y)*(x+y)"]))
    assert not ideal_equal(a, b)


def test_ideal_power():
    R = ring("x,y")
    I = Ideal.parse(R, ["x", "y"])
    sq = ideal_power(I, 2)
    assert ideal_equal(sq, Ideal.parse(R, ["x^2", "x*y", "y^2"]))
    one = ideal_power(I, 0)
    assert groebner_basis(one).is_unit()
    with pytest.raises(LimitExceeded):
        ideal_power(I, 40)


def test_ideal_drops_zeros_and_repeats_keeping_the_first_order():
    R = ring("x,y")
    x, y = R.parse("x"), R.parse("y")
    I = Ideal(R, [y, x, R.zero, y, x * y, x, R.parse("2*y - y")])
    assert [str(g) for g in I.generators] == ["y", "x", "x*y"]
    # x^2 * y^2 and (x*y)^2 are one generator of the square
    sq = ideal_power(Ideal.parse(R, ["x^2", "x*y", "y^2"]), 2)
    assert [str(g) for g in sq.generators] == ["x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"]


def test_hilbert_function_values():
    R = ring("x,y")
    h = hilbert_function(Ideal.parse(R, ["x^2", "x*y"]), 5)
    assert list(h.dims) == [1, 2, 1, 1, 1, 1]
    free = hilbert_function(Ideal(R, []), 4)
    assert list(free.dims) == [1, 2, 3, 4, 5]
    assert list(hilbert_function(Ideal(PolyRing((), QQ), []), 2).dims) == [1, 0, 0]
    with pytest.raises(ValueError):
        hilbert_function(Ideal.parse(R, ["x - 1"]), 3)


def test_krull_dim():
    R = ring()
    assert krull_dim(Ideal(R, [])) == 3
    assert krull_dim(Ideal.parse(R, ["x*y", "x*z"])) == 2
    assert krull_dim(Ideal.parse(R, ["x", "y", "z"])) == 0
    assert krull_dim(Ideal.parse(R, ["x^2 - y"])) == 2
    with pytest.raises(ValueError):
        krull_dim(Ideal.parse(ring("x,y"), ["x*y - 1", "x^2"]))


def test_gf_coefficients():
    R = ring("x,y", GF(2))
    gb = groebner_basis(Ideal.parse(R, ["x^2 + y", "x*y + x"]))
    for g in gb:
        assert ideal_member(g, Ideal.parse(R, ["x^2 + y", "x*y + x"]))
    # over GF(2), x^2+y and (x+1)*y generate y^2+y via x*(x y + x) + y(x^2+y)
    assert ideal_member(R.parse("y^2 + y"), Ideal.parse(R, ["x^2 + y", "x*y + x"]))


def test_cross_ring_guard():
    a = Ideal.parse(ring("x,y"), ["x"])
    f = ring("x,z").parse("x")
    with pytest.raises(AmbientMismatch):
        normal_form(f, a)
    with pytest.raises(AmbientMismatch):
        ideal_equal(a, Ideal.parse(ring("x,z"), ["x"]))


def test_ideal_hash_and_cache_consistency():
    R = ring("x,y")
    a = Ideal.parse(R, ["x^2 - y"])
    b = Ideal.parse(R, ["x^2 - y"])
    assert a == b and hash(a) == hash(b)
    assert groebner_basis(a) is groebner_basis(b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_membership_roundtrip(seed):
    # h in I for h built as a random combination of the generators
    rng = random.Random(seed)
    R = ring()
    from tests.test_polynomials import random_poly

    gens = [random_poly(rng, R, max_terms=3, max_exp=3) for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()] or [R.parse("x")]
    I = Ideal(R, gens)
    for _ in range(10):
        h = R.zero
        for g in gens:
            h = h + random_poly(rng, R, max_terms=2, max_exp=2) * g
        assert ideal_member(h, I)


def test_sympy_cross_check():
    pytest.importorskip("sympy")
    for field in (QQ, GF(32003)):
        _sympy_cross_check(field)


def _sympy_cross_check(field):
    import sympy

    rng = random.Random(23)
    names = ("x", "y", "z")
    R = ring(field=field)
    syms = sympy.symbols(names)
    options = {"modulus": field.p} if field.characteristic else {}
    from tests.test_polynomials import random_poly

    for _ in range(15):
        gens = [random_poly(rng, R, max_terms=3, max_exp=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = buchberger(gens)
        theirs = sympy.groebner(
            [sympy.sympify(str(g).replace("^", "**")) for g in gens],
            *syms,
            order="grevlex",
            **options,
        )
        expected = sorted(str(e).replace("**", "^").replace(" ", "") for e in theirs.exprs)
        got = sorted(str(g).replace(" ", "") for g in ours)
        # sympy scales to integer content (and prints residues in the
        # symmetric range mod p); compare monic normal forms instead
        theirs_polys = [R.parse(str(e).replace("**", "^")) for e in theirs.exprs]
        theirs_monic = sorted(str(p.monic(GREVLEX)) for p in theirs_polys)
        ours_monic = sorted(str(p) for p in ours)
        assert ours_monic == theirs_monic, (expected, got)


def test_basis_cache_is_bounded():
    from gradealg.groebner import GB_CACHE_SIZE, _cached_gb

    assert _cached_gb.cache_info().maxsize == GB_CACHE_SIZE
    assert 0 < GB_CACHE_SIZE < float("inf")


def _katsura3(field):
    r = ring("u0,u1,u2,u3,h", field)
    return Ideal.parse(r, [
        "u0 + 2*u1 + 2*u2 + 2*u3 - h",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0*h",
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1*h",
        "2*u0*u2 + u1^2 + 2*u1*u3 - u2*h",
    ])


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_reduction_work_budget(monkeypatch, field):
    from gradealg import groebner

    ideal = _katsura3(field)
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 50)
    messages = []
    for _ in range(2):
        groebner._cached_gb.cache_clear()
        with pytest.raises(LimitExceeded, match="reduction work") as exc:
            groebner_basis(ideal)
        messages.append(str(exc.value))
    # the count is deterministic: two runs stop at the same work
    assert messages[0] == messages[1]
    assert int(messages[0].split("work ")[1].split()[0]) > 50
    groebner._cached_gb.cache_clear()
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 10**7)
    assert len(groebner_basis(ideal)) > 0


def test_reduction_work_budget_exits_2(monkeypatch, capsys):
    from pathlib import Path

    from gradealg import cli, groebner

    spec = str(Path(__file__).parent / "data" / "cyclic6_q.json")
    monkeypatch.setattr(groebner, "MAX_REDUCTION_WORK", 1000)
    errors = []
    for _ in range(2):
        groebner._cached_gb.cache_clear()
        assert cli.main(["presentation", "--input", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert "reduction work" in errors[0]
    assert errors[0] == errors[1]
