"""Tests for simplicial complexes, reduced homology, and monomial cohomology."""

import random
from itertools import combinations
from math import comb

import pytest

from gradealg import (
    GF,
    QQ,
    Ideal,
    LimitExceeded,
    PolyRing,
    SimplicialComplex,
    local_cohomology_window,
    reduced_homology_ranks,
    sr_invariants,
    window_table,
)
from gradealg.simplicial import FACE_BUDGET, VERTEX_BOUND

# Minimal 6-vertex triangulation of the real projective plane. Ten
# triangles, all fifteen edges of K6, Euler characteristic 1.
RP2_FACETS = [
    (0, 1, 3),
    (0, 1, 5),
    (0, 2, 3),
    (0, 2, 4),
    (0, 4, 5),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 4),
    (2, 3, 5),
    (3, 4, 5),
]


def random_complex(rng, vertices):
    """A complex on the given vertices with one to four random facets of
    at most three vertices each; vertices in no facet are ghosts."""
    vertices = list(vertices)
    facets = [tuple(rng.sample(vertices, rng.randint(1, min(3, len(vertices)))))
              for _ in range(rng.randint(1, 4))]
    return SimplicialComplex(vertices, facets)


def test_constructor_keeps_maximal_faces_only():
    c = SimplicialComplex(range(3), [(0, 1), (0,), (1, 2), (2,)])
    assert c.facets == (frozenset({0, 1}), frozenset({1, 2}))
    assert c.dim == 1
    assert c.has_face((0,))
    assert c.has_face(())
    assert not c.has_face((0, 2))


def test_constructor_ghost_vertices_and_empty_complex():
    c = SimplicialComplex(range(4), [(1,)])
    assert c.vertices == (0, 1, 2, 3)
    assert not c.has_face((0,))
    assert c.has_face((1,))

    empty = SimplicialComplex(range(2), [])
    assert empty.facets == (frozenset(),)
    assert empty.dim == -1
    assert empty.has_face(())


def test_constructor_rejects_unknown_vertices():
    with pytest.raises(ValueError):
        SimplicialComplex(range(2), [(0, 5)])


def test_from_ideal_two_points():
    R = PolyRing(["x1", "x2"], QQ)
    c = SimplicialComplex.from_ideal(Ideal.parse(R, ["x1*x2"]))
    assert c.facets == (frozenset({0}), frozenset({1}))


def test_from_ideal_rejects_bad_generators():
    R = PolyRing(["x", "y"], QQ)
    with pytest.raises(ValueError):
        SimplicialComplex.from_ideal(Ideal.parse(R, ["x + y"]))
    with pytest.raises(ValueError):
        SimplicialComplex.from_ideal(Ideal.parse(R, ["x^2"]))
    # a unit J gives A = 0, not the face ring {empty} of k
    with pytest.raises(ValueError, match="unit"):
        SimplicialComplex.from_ideal(Ideal.parse(R, ["1"]))


class _Recording(SimplicialComplex):
    """Keeps the face list its constructor was last given."""

    __slots__ = ()
    given = None

    def __init__(self, vertices, faces):
        _Recording.given = set(faces)
        super().__init__(vertices, _Recording.given)


def test_from_ideal_inverts_the_minimal_nonface_ideal():
    from gradealg.cli import _minimal_nonface_ideal

    rng = random.Random(59)
    for _ in range(150):
        n = rng.randint(1, 8)
        facets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
        c = SimplicialComplex(range(n), facets)
        R = PolyRing([f"x{i}" for i in range(1, n + 1)], QQ)
        back = _Recording.from_ideal(_minimal_nonface_ideal(R, c))
        assert (back.vertices, back.facets) == (c.vertices, c.facets), facets
        # only the facets reach the constructor's maximality scan
        assert _Recording.given == set(c.facets)


def test_from_ideal_vertex_bound():
    R = PolyRing([f"x{i}" for i in range(1, 14)], QQ)
    with pytest.raises(LimitExceeded):
        SimplicialComplex.from_ideal(Ideal.parse(R, ["x1*x2"]))


def test_face_budget_admits_every_complex_within_the_vertex_bound():
    # the antichain with the largest sum of 2^|F| on 12 vertices
    widest = SimplicialComplex(range(VERTEX_BOUND), combinations(range(VERTEX_BOUND), 8))
    assert sum(1 << len(f) for f in widest.facets) == 126720 <= FACE_BUDGET
    assert widest.minimal_nonfaces() == list(combinations(range(VERTEX_BOUND), 9))
    # one facet on 21 vertices has 2^21 subsets: rejected before any is visited
    with pytest.raises(LimitExceeded, match="face budget"):
        SimplicialComplex(range(21), [range(21)]).minimal_nonfaces()


def test_minimal_nonfaces_are_kept_outside_equality():
    path = SimplicialComplex(range(3), [(0, 2), (1, 2)])
    fresh = SimplicialComplex(range(3), [(0, 2), (1, 2)])
    assert path.minimal_nonfaces() is path.minimal_nonfaces()
    assert path == fresh and hash(path) == hash(fresh)


def test_link_and_join():
    path = SimplicialComplex(range(3), [(0, 2), (1, 2)])
    link = path.link((2,))
    assert link.facets == (frozenset({0}), frozenset({1}))
    assert path.link((0, 2)).facets == (frozenset(),)
    with pytest.raises(ValueError):
        path.link((0, 1))

    pt = SimplicialComplex([5], [(5,)])
    two = SimplicialComplex([0, 1], [(0,), (1,)])
    j = pt.join(two)
    assert sorted(sorted(f) for f in j.facets) == [[0, 5], [1, 5]]
    with pytest.raises(ValueError):
        pt.join(pt)


def test_constructor_keeps_the_maximal_facets_of_any_list():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(0, 6)
        facets = [frozenset(rng.sample(range(n), rng.randint(0, n)))
                  for _ in range(rng.randint(0, 8))]
        maximal = {f for f in facets if not any(f < g for g in facets)} or {frozenset()}
        c = SimplicialComplex(range(n), facets)
        assert c.facets == tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))


def test_link_facets_match_the_constructor():
    # a link takes the F - s of the facets F containing s as they are
    rng = random.Random(47)
    for _ in range(40):
        c = random_complex(rng, range(rng.randint(1, 6)))
        for face in c.faces():
            link = c.link(face)
            rebuilt = SimplicialComplex(
                set(c.vertices) - face, [f - face for f in c.facets if face <= f]
            )
            assert (link.vertices, link.facets) == (rebuilt.vertices, rebuilt.facets)


def test_reduced_homology_point_and_simplex():
    pt = SimplicialComplex([0], [(0,)])
    assert all(r == 0 for r in reduced_homology_ranks(pt, QQ).values())
    simplex = SimplicialComplex(range(3), [(0, 1, 2)])
    assert all(r == 0 for r in reduced_homology_ranks(simplex, QQ).values())


def test_reduced_homology_spheres_and_empty():
    two_pts = SimplicialComplex(range(2), [(0,), (1,)])
    assert reduced_homology_ranks(two_pts, QQ) == {-1: 0, 0: 1}

    circle = SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)])
    assert reduced_homology_ranks(circle, QQ) == {-1: 0, 0: 0, 1: 1}

    sphere = SimplicialComplex(range(4), [f for f in
                                          [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]])
    ranks = reduced_homology_ranks(sphere, QQ)
    assert ranks == {-1: 0, 0: 0, 1: 0, 2: 1}

    empty = SimplicialComplex(range(2), [])
    assert reduced_homology_ranks(empty, QQ) == {-1: 1}


def test_reduced_homology_projective_plane_field_dependence():
    rp2 = SimplicialComplex(range(6), RP2_FACETS)
    over_q = reduced_homology_ranks(rp2, QQ)
    assert over_q == {-1: 0, 0: 0, 1: 0, 2: 0}
    over_f2 = reduced_homology_ranks(rp2, GF(2))
    assert over_f2 == {-1: 0, 0: 0, 1: 1, 2: 1}
    over_f3 = reduced_homology_ranks(rp2, GF(3))
    assert over_f3 == over_q


def test_euler_characteristic_matches_rank_alternation():
    rng = random.Random(29)
    for _ in range(12):
        n = rng.randint(2, 6)
        pool = list(range(n))
        facets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, min(3, n))
            facets.append(tuple(rng.sample(pool, size)))
        c = SimplicialComplex(range(n), facets)
        faces = c.faces()
        chi = sum((-1) ** (len(f) - 1) for f in faces)
        for field in (QQ, GF(2), GF(5)):
            ranks = reduced_homology_ranks(c, field)
            assert chi == sum((-1) ** i * r for i, r in ranks.items())


def test_window_two_points():
    two_pts = SimplicialComplex(range(2), [(0,), (1,)])
    w = local_cohomology_window(two_pts, QQ)
    assert w.max_index == 1
    table = window_table(w, -4, 1)
    assert table[0] == {}
    t1 = table[1]
    assert t1[0] == 1
    assert all(t1[j] == 2 for j in range(-4, 0))
    assert w.dim_at(1, -40) == 2
    f = w.flag(1)
    assert not f.is_zero and not f.finite_length and not f.vanishes_below_minus_one


def test_window_full_simplex_matches_polynomial_ring():
    for n in (1, 2, 3):
        simplex = SimplicialComplex(range(n), [tuple(range(n))])
        w = local_cohomology_window(simplex, QQ)
        for i in range(0, n):
            assert w.flag(i).is_zero
        for a in range(-6, 1):
            expected = comb(-a - 1, n - 1) if a <= -1 else 0
            assert w.dim_at(n, a) == expected
        assert w.dim_at(n, -25) == comb(24, n - 1)


def test_window_agrees_with_cech_oracle():
    from tests.cech_oracle import local_cohomology_dim

    for n in (1, 2, 3):
        simplex = SimplicialComplex(range(n), [tuple(range(n))])
        w = local_cohomology_window(simplex, QQ)
        for i in range(0, n + 1):
            for a in range(-5, 1):
                assert w.dim_at(i, a) == local_cohomology_dim(n, i, a)


def test_window_flags_are_exact():
    path = SimplicialComplex(range(3), [(0, 2), (1, 2)])
    w = local_cohomology_window(path, QQ)
    assert w.flag(0).is_zero and w.flag(1).is_zero
    assert not w.flag(2).is_zero

    rp2 = SimplicialComplex(range(6), RP2_FACETS)
    wq = local_cohomology_window(rp2, QQ)
    assert wq.flag(2).is_zero
    w2 = local_cohomology_window(rp2, GF(2))
    assert not w2.flag(2).is_zero
    assert w2.flag(2).finite_length
    assert w2.dim_at(2, 0) == 1
    assert w2.dim_at(2, -1) == 0


def test_window_rejects_bad_bounds():
    two_pts = SimplicialComplex(range(2), [(0,), (1,)])
    w = local_cohomology_window(two_pts, QQ)
    with pytest.raises(ValueError):
        window_table(w, 1, -1)


def test_invariants_simplex_and_two_points():
    for n in (1, 2, 3, 4):
        simplex = SimplicialComplex(range(n), [tuple(range(n))])
        inv = sr_invariants(simplex, QQ)
        assert (inv.dim, inv.depth, inv.a_invariant) == (n, n, -n)
        assert inv.cm and inv.gencm

    two_pts = SimplicialComplex(range(2), [(0,), (1,)])
    inv = sr_invariants(two_pts, QQ)
    assert (inv.dim, inv.depth, inv.a_invariant) == (1, 1, 0)
    assert inv.cm


def test_invariants_path_and_circle():
    path = SimplicialComplex(range(3), [(0, 2), (1, 2)])
    inv = sr_invariants(path, QQ)
    assert (inv.dim, inv.depth, inv.a_invariant) == (2, 2, -1)

    circle = SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)])
    inv = sr_invariants(circle, QQ)
    assert (inv.dim, inv.depth, inv.a_invariant) == (2, 2, 0)


def test_invariants_projective_plane():
    rp2 = SimplicialComplex(range(6), RP2_FACETS)
    inv_q = sr_invariants(rp2, QQ)
    assert (inv_q.dim, inv_q.depth) == (3, 3)
    assert inv_q.cm and inv_q.a_invariant == -1

    inv_2 = sr_invariants(rp2, GF(2))
    assert (inv_2.dim, inv_2.depth) == (3, 2)
    assert not inv_2.cm
    assert inv_2.gencm
    assert inv_2.a_invariant == 0


def test_invariants_disjoint_edges_not_gencm():
    c = SimplicialComplex(range(4), [(0, 1), (2, 3)])
    inv = sr_invariants(c, QQ)
    assert inv.dim == 2 and inv.depth == 1
    assert not inv.cm
    assert inv.gencm

    mixed = SimplicialComplex(range(3), [(0,), (1, 2)])
    inv = sr_invariants(mixed, QQ)
    assert not inv.gencm


def test_cm_matches_link_acyclicity():
    rng = random.Random(31)
    corpus = [
        SimplicialComplex(range(3), [(0, 2), (1, 2)]),
        SimplicialComplex(range(4), [(0, 1), (2, 3)]),
        SimplicialComplex(range(3), [(0,), (1, 2)]),
        SimplicialComplex(range(6), RP2_FACETS),
        SimplicialComplex(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    ]
    for _ in range(8):
        corpus.append(random_complex(rng, range(rng.randint(2, 5))))

    for c in corpus:
        if c.dim < 0:
            continue
        field = QQ
        reisner = True
        for face in c.faces():
            link = c.link(tuple(face))
            ranks = reduced_homology_ranks(link, field)
            if any(r != 0 for i, r in ranks.items() if i < link.dim):
                reisner = False
                break
        assert sr_invariants(c, field).cm == reisner


# -- the cached contribution profile ----------------------------------------

def test_profile_cache_is_bounded():
    from gradealg import simplicial

    assert simplicial._profile.cache_info().maxsize == simplicial.PROFILE_CACHE_SIZE
    assert isinstance(simplicial.PROFILE_CACHE_SIZE, int)


def test_mutating_a_window_leaves_later_windows_alone():
    from gradealg import simplicial

    simplicial._profile.cache_clear()
    rp2 = SimplicialComplex(range(6), RP2_FACETS)
    first = local_cohomology_window(rp2, GF(2))
    snapshot = {i: dict(c) for i, c in first.contrib.items()}
    first.contrib[3][0] = 99
    first.contrib[2].clear()
    second = local_cohomology_window(rp2, GF(2))
    assert second.contrib == snapshot
    assert sr_invariants(rp2, GF(2)).depth == 2
