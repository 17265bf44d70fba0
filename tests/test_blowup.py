"""Rees presentations via elimination, associated graded presentations
and hilbert tables via one weighted basis."""

import random
import time
import warnings

import pytest

from gradealg.blowup import (
    assoc_graded_presentation,
    bigraded_hilbert,
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
from tests.graded_relation import is_graded_relation
from tests.rees_oracle import assoc_graded_from_rees, slow_assoc_graded
from tests.test_criterion import decide_and_verify


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


def test_y_names_and_t_avoid_base_variables():
    R, J, f = setup("t,u", [], ["t"])
    pres = rees_presentation(J, f)
    assert pres.y_names == ("Y1",)
    assert pres.ring.variables == ("t", "u", "Y1")
    # a Y-name taken by a base variable gets "_" until it is free
    R2, J2, f2 = setup("Y1,Y1_,x", [], ["x", "Y1"])
    for pres in (rees_presentation(J2, f2), assoc_graded_presentation(J2, f2)):
        assert pres.y_names == ("Y1__", "Y2")
        assert pres.ring.variables == ("Y1", "Y1_", "x", "Y1__", "Y2")


_R = PolyRing(("x1", "x2"), QQ)
_OTHER = PolyRing(("y1", "y2"), QQ)


# one row per rejection message no other test reaches
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: rees_presentation(Ideal.parse(_R, ["x1*x2"]), [_OTHER.parse("y1")]),
         "ideal generators must live in the base ring"),
        (lambda: is_graded_relation(_R.parse("x1"), Ideal.parse(_R, ["x1*x2"]), [_R.parse("x1")]),
         "relation must live in the presentation ring"),
    ],
)
def test_rejection_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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

    monkeypatch.setattr(blowup, "_weighted_basis", unreachable)
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


def _draw_generators(R, rng, kind):
    """Generators of I for one draw: variables in any order, at times one
    scaled or one repeated; forms of one degree; or forms of two degrees."""
    if kind == "variables":
        f = [R.var(i) for i in rng.sample(range(R.nvars), rng.randrange(1, R.nvars + 1))]
        if R.field.characteristic != 2 and rng.random() < 0.3:
            f[0] = f[0] * 2
        if rng.random() < 0.3:
            f.append(rng.choice(f))
        return f
    if kind == "equigenerated":
        degree = rng.randrange(1, 3)
        return [_random_homogeneous(R, rng, degree) for _ in range(rng.randrange(1, 3))]
    return [_random_homogeneous(R, rng, d) for d in rng.sample([1, 2, 3], 2)]


# the edge cases: a scaled variable, a repeated generator, a variable of B
# that lies in J (as the check-iso certificate builds G under
# --allow-linear), and one of C that does
_EDGE_CASES = [
    ("x1,x2,x3", ["x1^2 - x2*x3", "x2^3"], ["2*x1", "x3"]),
    ("x1,x2,x3", ["x1*x2 - x3^2"], ["x1", "x1", "x2"]),
    ("x1,x2", ["x2"], ["x1", "x2"]),
    ("x1,x2,x3", ["x3", "x2^2"], ["x1"]),
]


def _weighted_draws(field) -> tuple:
    """The edge cases and 36 seeded (J, I) draws, with the generator
    stream that continues past them."""
    rng = random.Random(2311)
    # 2*x1 is 0 over GF(2), which no command takes
    draws = [(J, f) for J, f in (setup(*case, field)[1:] for case in _EDGE_CASES) if all(f)]
    for kind in ("variables", "equigenerated", "mixed") * 12:
        R = PolyRing(tuple(f"x{i}" for i in range(1, rng.randrange(3, 5))), field)
        j_gens = [_random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(3))]
        draws.append((Ideal(R, j_gens), _draw_generators(R, rng, kind)))
    return draws, rng


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=["Q", "GF2", "GF32003"])
def test_weighted_route_matches_the_rees_oracles(field):
    # G's presentation read off the weighted basis equals the Rees route's,
    # on the production engine and on the slow one, and so do the hilbert
    # tables counted on the two bases (math-notes §11)
    draws, rng = _weighted_draws(field)
    for J, f in draws:
        f = tuple(f)
        pres = blowup._assoc_graded(J, f)
        oracle = assoc_graded_from_rees(blowup._rees_presentation(J, f))
        assert pres == oracle and gens(pres) == gens(oracle), (J, f)
        assert gens(pres) == list(map(str, slow_assoc_graded(J, f))), (J, f)
        if any(ideal_member(g, J) for g in f):
            continue  # the hilbert command refuses a generator that is zero in A
        level_bound, degree_bound = rng.randrange(1, 4), rng.randrange(2, 6)
        counted = count_standard_monomials(
            [g.leading_monomial(GREVLEX) for g in oracle.defining.generators],
            [0] * J.ring.nvars + [1] * len(f),
            [1] * J.ring.nvars + list(oracle.y_degrees),
            level_bound,
            degree_bound,
        )
        assert bigraded_hilbert(J, f, level_bound, degree_bound).dims == counted, (J, f)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=["Q", "GF2", "GF32003"])
def test_certificate_verifies_on_the_weighted_draws(field):
    # each positive decision among the draws is certified by dividing each
    # generator list by the other
    verified = 0
    for J, f in _weighted_draws(field)[0]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                decision, ok = decide_and_verify(J, f, allow_linear=True)
        except ValueError:
            continue  # an input the decision refuses
        if decision.isomorphic:
            assert ok, (J, f)
            verified += 1
    assert verified >= 5
