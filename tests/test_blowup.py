"""Rees and associated graded presentations via elimination."""

import random
import time

import pytest

from gradealg.blowup import (
    assoc_graded_presentation,
    bigraded_hilbert,
    is_graded_relation,
    presentation_bigraded_hilbert,
    rees_presentation,
)
from gradealg import blowup, groebner
from gradealg.errors import LimitExceeded
from gradealg.fields import GF, QQ
from gradealg.groebner import Ideal, count_standard_monomials, hilbert_function, ideal_member
from gradealg.polynomials import GREVLEX, PolyRing, Polynomial, elimination_order
from tests import slow_groebner
from tests.downstairs_hilbert import downstairs_bigraded_hilbert


def setup(names, j_texts, i_texts, field=QQ):
    R = PolyRing(tuple(names.split(",")), field)
    J = Ideal.parse(R, j_texts)
    f = [R.parse(t) for t in i_texts]
    return R, J, f


def gens(pres):
    return [str(g) for g in pres.defining.generators]


def test_koszul_rees():
    R, J, f = setup("x1,x2", [], ["x1", "x2"])
    pres = rees_presentation(J, f)
    assert gens(pres) == ["x2*Y1 - x1*Y2"]
    assert pres.y_degrees == (1, 1)
    assert pres.target == "rees"


def test_maximal_ideal_assoc_kernel():
    R, J, f = setup("x1,x2", [], ["x1", "x2"])
    pres = assoc_graded_presentation(J, f)
    assert gens(pres) == ["x1", "x2"]


def test_principal_on_monomial_quotient():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1"])
    pres = rees_presentation(J, f)
    assert gens(pres) == ["x1*x2", "x2*Y1"]
    # x1*x2 is absorbed once x1 joins the ideal; reduced basis drops it
    assoc = assoc_graded_presentation(J, f)
    assert gens(assoc) == ["x2*Y1", "x1"]


def test_principal_power_generator():
    R, J, f = setup("x", [], ["x^2"])
    pres = rees_presentation(J, f)
    assert gens(pres) == []
    assert pres.y_degrees == (2,)
    assoc = assoc_graded_presentation(J, f)
    assert gens(assoc) == ["x^2"]


def test_two_points_full_blowup():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1", "x2"])
    pres = rees_presentation(J, f)
    assert gens(pres) == ["x1*x2", "x2*Y1", "x1*Y2", "Y1*Y2"]
    assoc = assoc_graded_presentation(J, f)
    assert gens(assoc) == ["Y1*Y2", "x1", "x2"]


def test_custom_y_names_and_t_clash():
    R, J, f = setup("t,u", [], ["t"])
    pres = rees_presentation(J, f, y_names=["T"])
    assert pres.y_names == ("T",)
    assert pres.ring.variables == ("t", "u", "T")
    # default Y names collide with base variables
    R2, J2, f2 = setup("Y1,x", [], ["x"])
    with pytest.raises(ValueError):
        rees_presentation(J2, f2)
    ok = rees_presentation(J2, f2, y_names=["Z"])
    assert ok.ring.variables == ("Y1", "x", "Z")


def test_input_validation():
    R, J, f = setup("x,y", ["x^2"], ["x"])
    with pytest.raises(ValueError):
        rees_presentation(J, [])
    with pytest.raises(ValueError):
        rees_presentation(J, [R.parse("x + 1")])
    with pytest.raises(ValueError):
        rees_presentation(J, [R.one])
    with pytest.raises(ValueError):
        rees_presentation(Ideal.parse(R, ["x - 1"]), [R.parse("y")])
    with pytest.raises(ValueError):
        rees_presentation(Ideal.parse(R, ["x"]), [R.parse("x")])


def test_defining_generators_are_bihomogeneous():
    for names, jt, it in (
        ("x1,x2", ["x1*x2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"]),
        ("x,y", [], ["x^2", "x*y"]),
    ):
        R, J, f = setup(names, jt, it)
        for pres in (rees_presentation(J, f), assoc_graded_presentation(J, f)):
            for g in pres.defining.generators:
                weights = {pres.monomial_bidegree(m) for m in g.terms}
                assert len(weights) == 1, (str(g), weights)


def test_assoc_generators_pass_membership_check():
    for names, jt, it in (
        ("x1,x2", ["x1*x2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2*x3"], ["x1"]),
        ("x,y", [], ["x^2", "x*y"]),
    ):
        R, J, f = setup(names, jt, it)
        pres = assoc_graded_presentation(J, f)
        for g in pres.defining.generators:
            assert is_graded_relation(g, J, f), str(g)


def test_graded_relation_rejects_non_relations():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1"])
    pres = assoc_graded_presentation(J, f)
    xy = pres.ring
    assert not is_graded_relation(xy.parse("x2"), J, f)
    assert not is_graded_relation(xy.parse("Y1"), J, f)
    with pytest.raises(ValueError):
        is_graded_relation(xy.parse("x1 + Y1"), J, f)


def test_bigraded_hilbert_two_points():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1", "x2"])
    table = bigraded_hilbert(J, f, 4, 4)
    # I^n/I^(n+1) is spanned by x1^n and x2^n for n >= 1
    assert table[0, 0] == 1
    for n in range(1, 5):
        assert table[n, n] == 2
        for d in range(5):
            if d != n:
                assert table[n, d] == 0
    with pytest.raises(IndexError):
        table[5, 0]


def test_telescoping_sums():
    for names, jt, it in (
        ("x1,x2", ["x1*x2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"]),
        ("x,y", [], ["x^2", "x*y"]),
    ):
        R, J, f = setup(names, jt, it)
        table = bigraded_hilbert(J, f, 8, 8)
        base = hilbert_function(J, 8)
        for d in range(9):
            assert sum(table[n, d] for n in range(9)) == base[d], (names, d)


def test_presentation_hilbert_matches_quotient_route():
    for names, jt, it in (
        ("x1,x2", ["x1*x2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2", "x3^2"], ["x1", "x2"]),
        ("x1,x2,x3", ["x1*x2*x3"], ["x1"]),
    ):
        R, J, f = setup(names, jt, it)
        pres = assoc_graded_presentation(J, f)
        upstairs = presentation_bigraded_hilbert(pres, 6, 6)
        downstairs = downstairs_bigraded_hilbert(J, f, 6, 6)
        assert upstairs.dims == downstairs.dims, names


def test_gf_presentation():
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1", "x2"], field=GF(5))
    pres = rees_presentation(J, f)
    assert gens(pres) == ["x1*x2", "x2*Y1", "x1*Y2", "Y1*Y2"]


def test_bound_guards():
    R, J, f = setup("x,y", [], ["x"])
    with pytest.raises(LimitExceeded):
        bigraded_hilbert(J, f, 17, 4)
    with pytest.raises(LimitExceeded):
        bigraded_hilbert(J, f, 4, 21)


def _random_homogeneous(R, rng, degree):
    """A nonzero homogeneous polynomial of the given degree, 1 to 3 terms."""
    while True:
        g = R.zero
        for _ in range(rng.randrange(1, 4)):
            mon = [0] * R.nvars
            for _ in range(degree):
                mon[rng.randrange(R.nvars)] += 1
            g = g + R.monomial(tuple(mon), rng.choice([1, 2, -1, 3]))
        if g:
            return g


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "GF32003"])
def test_bigraded_hilbert_matches_downstairs_oracle(field):
    rng = random.Random(20041)
    checked = 0
    while checked < 40:
        R = PolyRing(tuple(f"x{i}" for i in range(1, rng.randrange(2, 6))), field)
        J = Ideal(R, [_random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(0, 3))])
        f = [_random_homogeneous(R, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        if any(ideal_member(g, J) for g in f):
            continue  # degenerate generators are rejected as input errors
        level_bound, degree_bound = rng.randrange(1, 4), rng.randrange(2, 6)
        table = bigraded_hilbert(J, f, level_bound, degree_bound)
        oracle = downstairs_bigraded_hilbert(J, f, level_bound, degree_bound)
        assert table.dims == oracle.dims, (J, f, level_bound, degree_bound)
        checked += 1


def test_eight_variables_at_default_bounds_is_fast_and_telescopes():
    R, J, f = setup(",".join(f"x{i}" for i in range(1, 9)), ["x1*x2", "x3*x4 - x5*x6"], ["x1", "x2", "x3"])
    start = time.perf_counter()
    table = bigraded_hilbert(J, f)
    assert time.perf_counter() - start < 1.0
    base = hilbert_function(J, 8)
    for d in range(9):
        assert sum(table[n, d] for n in range(9)) == base[d], d


def test_standard_monomial_budget_is_exact(monkeypatch):
    lms = [(1, 1, 0)]
    total = sum(count_standard_monomials(lms, [0, 0, 0], [1, 1, 1], 0, 6).values())
    monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", total)
    count_standard_monomials(lms, [0, 0, 0], [1, 1, 1], 0, 6)
    monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", total - 1)
    with pytest.raises(LimitExceeded):
        count_standard_monomials(lms, [0, 0, 0], [1, 1, 1], 0, 6)


def test_budget_refuses_no_request_under_it(monkeypatch):
    # L = 2, D = (L+1) * min deg f = 3: the pre-check counts A only up to
    # degree 2, as degree 3 already meets I^3; a budget of exactly the
    # table's total must pass
    R, J, f = setup("x1,x2", ["x1*x2"], ["x1", "x2"])
    total = sum(bigraded_hilbert(J, f, 2, 3).dims.values())
    monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", total)
    assert sum(bigraded_hilbert(J, f, 2, 3).dims.values()) == total
    monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", total - 1)
    with pytest.raises(LimitExceeded):
        bigraded_hilbert(J, f, 2, 3)


def test_budget_stops_before_the_presentation(monkeypatch):
    # 12 variables, I = m: the window holds all of A up to degree 16, far
    # more than the budget, so the pre-check must refuse before any
    # Groebner basis past J's own
    names = ",".join(f"x{i}" for i in range(1, 13))
    R, J, f = setup(names, ["x1*x2"], names.split(","))

    def unreachable(*args, **kwargs):
        raise AssertionError("presentation built past the budget")

    monkeypatch.setattr(blowup, "_rees_presentation", unreachable)
    with pytest.raises(LimitExceeded):
        bigraded_hilbert(J, f, 16, 20)


def test_bigraded_hilbert_validates_its_input_once(monkeypatch):
    # one membership normal form per generator of I, for the table and for
    # each public presentation called directly
    R, J, f = setup("x1,x2,x3", ["x1*x2"], ["x1", "x2", "x3^2"])
    calls = []

    def counting(g, ideal):
        calls.append(g)
        return ideal_member(g, ideal)

    monkeypatch.setattr(blowup, "ideal_member", counting)
    for build in (
        lambda: bigraded_hilbert(J, f, 2, 3),
        lambda: rees_presentation(J, f),
        lambda: assoc_graded_presentation(J, f),
    ):
        calls.clear()
        build()
        assert calls == f


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_rees_basis_is_the_reduced_grevlex_basis_of_the_oracle(field):
    # the t-free part of the block-order basis, used as it stands, equals
    # what a second grevlex run of the slow engine makes of it (math-notes §8)
    rng = random.Random(3301)
    checked = 0
    while checked < 20:
        R = PolyRing(tuple(f"x{i}" for i in range(1, rng.randrange(2, 4))), field)
        J = Ideal(R, [_random_homogeneous(R, rng, 2) for _ in range(rng.randrange(0, 2))])
        f = [_random_homogeneous(R, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        if any(ideal_member(g, J) for g in f):
            continue
        pres = rees_presentation(J, f)
        big = PolyRing(pres.ring.variables + ("t",), field)
        t = big.var(big.nvars - 1)
        gens = [g.rename_into(big) for g in J.generators]
        gens += [big.var(R.nvars + j) - g.rename_into(big) * t for j, g in enumerate(f)]
        block = slow_groebner.buchberger(gens, elimination_order([big.nvars - 1], big.nvars))
        kept = [
            Polynomial(pres.ring, {m[:-1]: c for m, c in g.terms.items()})
            for g in block
            if all(m[-1] == 0 for m in g.terms)
        ]
        expected = slow_groebner.buchberger(kept, GREVLEX)
        assert list(map(str, pres.defining.generators)) == list(map(str, expected)), (J, f)
        checked += 1
