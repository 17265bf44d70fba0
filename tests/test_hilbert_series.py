"""The numerator route of ``count_standard_monomials`` and ``krull_dim``
against the enumerating oracles of ``tests/enumeration_oracles.py``."""

import json
import random

import pytest

from gradealg import groebner
from gradealg.blowup import assoc_graded_presentation, rees_presentation
from gradealg.cli import main
from gradealg.errors import LimitExceeded
from gradealg.fields import GF, QQ
from gradealg.groebner import Ideal, count_standard_monomials, ideal_member, krull_dim
from gradealg.polynomials import PolyRing
from tests import enumeration_oracles as oracle
from tests.downstairs_hilbert import downstairs_bigraded_hilbert
from tests.test_blowup import _random_homogeneous
from tests.test_polynomials import random_poly


def _random_lms(rng, n):
    """Up to 6 random monomials; the unit monomial in about 1 list of 20."""
    lms = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(rng.randrange(0, 7))]
    return [m for m in lms if any(m)] + ([(0,) * n] if rng.random() < 0.05 else [])


@pytest.mark.parametrize(
    "lms, weights, degrees, level_bound, degree_bound",
    [
        ([], [], [], 2, 3),  # no variables, zero ideal
        ([()], [], [], 2, 3),  # no variables, unit ideal
        ([], [0, 0, 0], [1, 1, 1], 0, 6),  # zero ideal
        ([(0, 0, 0), (1, 1, 0)], [0, 0, 0], [1, 1, 1], 0, 6),  # unit ideal
        ([(0, 0)], [0, 1], [1, 2], 3, 5),  # unit ideal, bigraded
        ([(2, 1, 0), (1, 1, 1), (0, 3, 0)], [0, 0, 1], [1, 1, 2], 0, 8),  # weight 0 only
        ([(1, 0, 1, 0), (0, 2, 0, 1)], [0, 0, 1, 1], [1, 1, 2, 2], 4, 9),  # degree-2 Y's
        ([(1, 1)], [0, 0], [1, 1], 0, 0),  # the smallest window
        ([(3, 0), (0, 3)], [2, 3], [2, 1], 1, 7),  # coprime pure powers
        ([(1, 1, 1), (2, 2, 0), (2, 1, 1)], [1, 1, 1], [1, 1, 1], 5, 5),  # non-minimal
    ],
)
def test_numerator_route_matches_enumerator_on_edge_cases(lms, weights, degrees, level_bound, degree_bound):
    expected = oracle.count_standard_monomials(lms, weights, degrees, level_bound, degree_bound)
    assert count_standard_monomials(lms, weights, degrees, level_bound, degree_bound) == expected


def test_numerator_route_matches_enumerator_single_graded():
    rng = random.Random(9001)
    for _ in range(400):
        n = rng.randrange(0, 6)
        lms, bound = _random_lms(rng, n), rng.randrange(0, 10)
        args = (lms, [0] * n, [1] * n, 0, bound)
        assert count_standard_monomials(*args) == oracle.count_standard_monomials(*args), args


def test_numerator_route_matches_enumerator_bigraded():
    rng = random.Random(9002)
    for _ in range(600):
        n = rng.randrange(0, 6)
        weights = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
        degrees = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
        args = (_random_lms(rng, n), weights, degrees, rng.randrange(0, 5), rng.randrange(0, 9))
        assert count_standard_monomials(*args) == oracle.count_standard_monomials(*args), args


def test_numerator_route_refuses_exactly_where_the_enumerator_does(monkeypatch):
    rng = random.Random(9003)
    for _ in range(150):
        n = rng.randrange(1, 5)
        weights = [rng.choice((0, 1)) for _ in range(n)]
        args = (_random_lms(rng, n), weights, [1] * n, rng.randrange(0, 4), rng.randrange(0, 7))
        monkeypatch.undo()  # the oracle obeys the budget too
        total = sum(oracle.count_standard_monomials(*args).values())
        for budget in (max(total - 1, 0), total, rng.randrange(0, total + 2)):
            monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", budget)
            outcomes = []
            for count in (count_standard_monomials, oracle.count_standard_monomials):
                try:
                    outcomes.append(count(*args))
                except LimitExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (args, budget)
            assert (outcomes[0] == f"more than {budget} standard monomials to count") == (total > budget)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_krull_dim_matches_subset_scan_on_random_ideals(field):
    rng = random.Random(9004)
    units = 0
    for _ in range(120):
        R = PolyRing(tuple(f"x{i}" for i in range(rng.randrange(0, 6))), field)
        ideal = Ideal(R, [random_poly(rng, R, max_terms=3, max_exp=3) for _ in range(rng.randrange(0, 4))])
        try:
            expected = oracle.krull_dim(ideal)
        except ValueError:
            units += 1
            with pytest.raises(ValueError):
                krull_dim(ideal)
            continue
        assert krull_dim(ideal) == expected, ideal
    assert units  # the unit ideal is among the cases


def test_krull_dim_matches_subset_scan_on_rees_presentations():
    rng = random.Random(9005)
    checked = 0
    while checked < 25:
        R = PolyRing(tuple(f"x{i}" for i in range(1, rng.randrange(2, 5))), QQ)
        J = Ideal(R, [_random_homogeneous(R, rng, 2) for _ in range(rng.randrange(0, 2))])
        f = [_random_homogeneous(R, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        if any(ideal_member(g, J) for g in f):
            continue
        for pres in (rees_presentation(J, f), assoc_graded_presentation(J, f)):
            assert krull_dim(pres.defining) == oracle.krull_dim(pres.defining), (J, f)
        checked += 1


def test_hilbert_cli_exits_two_exactly_over_the_budget(tmp_path, monkeypatch, capsys):
    rng = random.Random(9006)
    checked = 0
    while checked < 8:
        R = PolyRing(tuple(f"x{i}" for i in range(1, rng.randrange(2, 5))), QQ)
        J = Ideal(R, [_random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(0, 2))])
        f = [_random_homogeneous(R, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        if any(ideal_member(g, J) for g in f):
            continue
        level_bound, degree_bound = rng.randrange(1, 4), rng.randrange(2, 6)
        monkeypatch.undo()  # the oracle obeys the budget too
        total = sum(downstairs_bigraded_hilbert(J, f, level_bound, degree_bound).dims.values())
        spec = {"variables": list(R.variables), "J": [str(g) for g in J.generators],
                "I": [str(g) for g in f],
                "options": {"level_bound": level_bound, "degree_bound": degree_bound}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for budget in (total - 1, total, rng.randrange(0, total)):
            monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", budget)
            code = main(["hilbert", "--input", str(path)])
            out, err = capsys.readouterr()
            if total > budget:
                assert (code, out) == (2, "")
                assert err == f"error: more than {budget} standard monomials to count\n"
            else:
                assert (code, err) == (0, "")
        checked += 1
