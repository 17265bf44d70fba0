"""Differential tests: the sparse boundary rank against dense elimination."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradealg import GF, QQ, SimplicialComplex, reduced_homology_ranks
from gradealg.simplicial import _rank
from tests.dense_rank import boundary_matrices, dense_homology_ranks, field_rank
from tests.test_simplicial import RP2_FACETS

FIELDS = (QQ, GF(2), GF(3), GF(32003))
RP2 = SimplicialComplex(range(6), RP2_FACETS)
CONE_RP2 = SimplicialComplex(range(7), [f + (6,) for f in RP2_FACETS])


def _sparse(rows: list) -> list:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _assert_ranks_agree(rows: list) -> None:
    for field in FIELDS:
        dense = field_rank([[field(v) for v in row] for row in rows], field)
        assert _rank(_sparse(rows), field.characteristic) == dense, field


def _random_complexes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        facets = [
            tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 6))
        ]
        out.append(SimplicialComplex(range(n), facets))
    return out


def test_boundary_ranks_of_random_complexes():
    for c in _random_complexes(41, 30):
        for rows in boundary_matrices(c).values():
            _assert_ranks_agree(rows)


def test_every_link_of_rp2_and_its_cone():
    for c in (RP2, CONE_RP2):
        for face in c.faces():
            link = c.link(face)
            for rows in boundary_matrices(link).values():
                _assert_ranks_agree(rows)
            for field in FIELDS:
                assert reduced_homology_ranks(link, field) == dense_homology_ranks(link, field)


def test_torsion_shows_only_in_characteristic_two():
    for field in FIELDS:
        torsion = int(field.characteristic == 2)
        expected = {-1: 0, 0: 0, 1: torsion, 2: torsion}
        assert reduced_homology_ranks(RP2, field) == expected
        assert dense_homology_ranks(RP2, field) == expected


_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
        min_size=0,
        max_size=7,
    )
)


@settings(max_examples=300, deadline=None)
@given(_matrices)
@example([[2, 4], [3, 6]])
@example([[2, 0], [0, 3]])
@example([[6, 4, 2], [3, 2, 1], [9, 6, 4]])
def test_integer_matrices_beyond_unit_entries(rows):
    _assert_ranks_agree(rows)


def test_rank_leaves_its_input_rows_alone():
    rows = [{0: 2, 1: 4}, {0: 3, 2: 5}]
    before = [dict(r) for r in rows]
    assert _rank(rows, 0) == 2
    assert _rank(rows, 2) == 1
    assert rows == before


def _random_graph(rng) -> SimplicialComplex:
    """A graph on up to seven vertices, cycles likely, with isolated and
    ghost vertices."""
    n = rng.randint(1, 7)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 9)) if n > 1]
    points = [(v,) for v in range(n) if rng.random() < 0.4]
    return SimplicialComplex(range(n + rng.randint(0, 1)), edges + points)


def _differential_complexes(seed: int) -> list:
    """Random complexes, cones over them, graphs, point sets, {empty} and
    the links of RP2 and its cone (RP2 itself, the link of the empty face,
    among them): each shortcut of reduced_homology_ranks and the
    elimination it keeps, which alone tells GF(2) from Q on RP2."""
    rng = random.Random(seed)
    out = _random_complexes(seed, 30)
    out += [
        SimplicialComplex(range(len(c.vertices) + 1), [f | {len(c.vertices)} for f in c.facets])
        for c in out[:15]
    ]
    out += [_random_graph(rng) for _ in range(30)]
    out += [SimplicialComplex(range(n), [(v,) for v in range(n)]) for n in range(1, 5)]
    out += [SimplicialComplex(range(n), []) for n in range(3)]
    out += [c.link(face) for c in (RP2, CONE_RP2) for face in c.faces()]
    return out


def test_homology_shortcuts_match_dense_boundary_ranks():
    for c in _differential_complexes(43):
        for field in FIELDS:
            assert reduced_homology_ranks(c, field) == dense_homology_ranks(c, field), (c, field)
