"""Differential tests: the profile through the finest join decomposition
against one link homology per face of the whole complex, and the join
product against the tensor product of windows."""

import random
from functools import reduce
from itertools import combinations

import pytest

from gradealg import (
    GF,
    QQ,
    SimplicialComplex,
    TensorWindow,
    local_cohomology_window,
    restrict_complex,
)
from gradealg import simplicial
from gradealg.simplicial import _join_factors, _profile
from tests.direct_profile import direct_profile
from tests.test_simplicial import RP2_FACETS

FIELDS = (QQ, GF(2), GF(3))
RP2 = SimplicialComplex(range(6), RP2_FACETS)
CONE_RP2 = SimplicialComplex(range(7), [f + (6,) for f in RP2_FACETS])
C4 = SimplicialComplex([6, 7, 8, 9], [(6, 7), (7, 8), (8, 9), (6, 9)])


def _random_complex(rng: random.Random, labels: list) -> SimplicialComplex:
    """Random facets on a subset of the labels; the rest are ghost vertices."""
    used = rng.sample(labels, rng.randint(0, len(labels)))
    facets = [
        rng.sample(used, rng.randint(1, min(4, len(used))))
        for _ in range(rng.randint(1, 5) if used else 0)
    ]
    return SimplicialComplex(labels, facets)


def _ordered(contrib: dict) -> list:
    """The profile as nested item lists, so that comparing it compares the
    order of every dict as well as the values."""
    return [(i, list(row.items())) for i, row in contrib.items()]


def _assert_profile_matches_oracle(complex: SimplicialComplex) -> None:
    for field in FIELDS:
        assert _ordered(_profile(complex, field)) == _ordered(direct_profile(complex, field)), (
            complex,
            field,
        )


def _random_cases(seed: int) -> list:
    rng = random.Random(seed)
    singles = [_random_complex(rng, list(range(rng.randint(1, 7)))) for _ in range(25)]
    joins = []
    for _ in range(15):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        first = _random_complex(rng, list(range(a)))
        second = _random_complex(rng, list(range(a, a + b)))
        joins.append(first.join(second))
    triples = []
    for _ in range(5):
        parts = [_random_complex(rng, [3 * k, 3 * k + 1, 3 * k + 2]) for k in range(3)]
        triples.append(reduce(SimplicialComplex.join, parts))
    cones = [
        c.join(SimplicialComplex([7], [(7,)])) for c in singles[:10]
    ]
    return singles + joins + triples + cones


@pytest.mark.parametrize("complex", _random_cases(2026), ids=repr)
def test_profile_matches_oracle_on_random_complexes_joins_and_cones(complex):
    _assert_profile_matches_oracle(complex)


@pytest.mark.parametrize(
    "complex",
    [
        RP2,
        CONE_RP2,
        RP2.join(C4),
        SimplicialComplex(range(4), [(0, 1), (1, 2)]),  # vertex 3 is a ghost
        SimplicialComplex(range(3), []),  # {empty} on three ghost vertices
        SimplicialComplex([], []),  # no vertices
        SimplicialComplex([0], [(0,)]),  # a point: one cone point
        SimplicialComplex(range(6), [
            (a, b) for a in (0, 1, 2) for b in (3, 4, 5)
        ]),  # three points joined with three points: ranks 2 * 2 = 4
        SimplicialComplex(range(8), [
            (a, b, c, d) for a in (0, 1) for b in (2, 3) for c in (4, 5) for d in (6, 7)
        ]),  # the cross-polytope on four antipodal pairs
    ],
    ids=repr,
)
def test_profile_matches_oracle_on_fixed_complexes(complex):
    _assert_profile_matches_oracle(complex)


@pytest.mark.parametrize("complex", _random_cases(7), ids=repr)
def test_join_factors_are_prime_and_rebuild_the_complex(complex):
    factors = _join_factors(complex)
    blocks = [set(f.vertices) for f in factors]
    assert sorted(v for b in blocks for v in b) == list(complex.vertices)
    rebuilt = reduce(SimplicialComplex.join, factors, SimplicialComplex([], []))
    assert rebuilt == complex
    for factor in factors:
        assert _join_factors(factor) == [factor]
        assert factor == restrict_complex(complex, factor.vertices)


def test_join_factors_of_cones_and_ghosts():
    factors = _join_factors(CONE_RP2)
    assert sorted(factors, key=lambda f: f.vertices) == [
        RP2,
        SimplicialComplex([6], [(6,)]),
    ]
    ghost = SimplicialComplex(range(3), [(0, 1)])
    assert sorted(_join_factors(ghost), key=lambda f: f.vertices) == [
        SimplicialComplex([0], [(0,)]),
        SimplicialComplex([1], [(1,)]),
        SimplicialComplex([2], []),
    ]
    assert _join_factors(SimplicialComplex([], [])) == []


def _nonfaces_by_enumeration(complex: SimplicialComplex) -> list:
    out = []
    for size in range(1, len(complex.vertices) + 1):
        for s in combinations(complex.vertices, size):
            if not complex.has_face(s) and all(
                complex.has_face(s[:k] + s[k + 1 :]) for k in range(size)
            ):
                out.append(s)
    return out


def test_minimal_nonfaces_on_sparse_labels():
    rng = random.Random(11)
    for _ in range(40):
        labels = sorted(rng.sample(range(20), rng.randint(0, 7)))
        complex = _random_complex(rng, labels)
        assert complex.minimal_nonfaces() == _nonfaces_by_enumeration(complex)


def test_link_table_cache_is_bounded():
    assert simplicial._factor_profile.cache_info().maxsize == simplicial.PROFILE_CACHE_SIZE


def _random_join_pairs(seed: int) -> list:
    rng = random.Random(seed)
    pairs = []
    for _ in range(30):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        pairs.append(
            (_random_complex(rng, list(range(a))), _random_complex(rng, list(range(a, a + b))))
        )
    return pairs


@pytest.mark.parametrize(
    "first,second", _random_join_pairs(18) + [(RP2, C4)], ids=repr
)
def test_tensor_window_of_factors_is_the_window_of_the_join(first, second):
    # k[K * L] = k[K] (x) k[L]: one product serves both
    joined = first.join(second)
    for field in FIELDS:
        tensor = TensorWindow(
            local_cohomology_window(first, field), local_cohomology_window(second, field)
        )
        window = local_cohomology_window(joined, field)
        assert tensor.max_index == window.max_index
        assert _ordered(tensor.contrib) == _ordered(window.contrib), (joined, field)
