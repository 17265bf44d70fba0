"""Acceptance suite: one test per published claim, one line each in -v runs.

Each test is independent and exercises the library end to end, mixing
randomized properties with frozen oracle values. The Cech oracle lives in
tests/cech_oracle.py and is computed from scratch on every run.
"""

import json
import random
from math import comb

from gradealg import (
    GF,
    QQ,
    BandWindow,
    Ideal,
    PolyRing,
    SimplicialComplex,
    SplitSRData,
    assemble_rees_cohomology,
    assoc_graded_presentation,
    bigraded_hilbert,
    decide_cm_rees,
    decide_gencm,
    dim_rees,
    groebner_basis,
    hilbert_function,
    ideal_equal,
    ideal_member,
    local_cohomology_window,
    normal_form,
    rees_presentation,
    sr_invariants,
    window_table,
)
from gradealg.cli import main
from gradealg.criterion import decide_and_verify
from tests.cech_oracle import local_cohomology_dim
from tests.enumeration_oracles import krull_dim
from tests.graded_relation import is_graded_relation
from tests.test_polynomials import random_poly
from tests.test_rees_cohomology import DIM_FIXTURES, sr_ideal
from tests.test_simplicial import RP2_FACETS


def _ring(names):
    return PolyRing(names, QQ)


def _fixture(names, j_texts, i_texts):
    ring = _ring(names)
    J = Ideal.parse(ring, j_texts)
    I = [ring.parse(t) for t in i_texts]
    return ring, J, I


# shared (J, I) corpus: the three decision fixtures plus monomial blowups
CORPUS = [
    _fixture(["x1", "x2", "x3"], ["x1*x2", "x3^2"], ["x1", "x2"]),
    _fixture(["x1", "x2"], ["x1*x2"], ["x1"]),
    _fixture(["x1"], ["x1^3"], ["x1"]),
    _fixture(["x1", "x2"], ["x1*x2"], ["x1", "x2"]),
    _fixture(["x1", "x2"], [], ["x1", "x2"]),
    _fixture(["x1", "x2", "x3"], ["x1*x2*x3"], ["x1", "x2", "x3"]),
    _fixture(["x1", "x2", "x3"], ["x1*x2", "x2*x3"], ["x2"]),
]


def test_criterion_01_maximal_ideal_isomorphisms(tmp_path):
    rng = random.Random(101)
    for k in range(10):
        nvars = rng.randint(2, 6)
        names = [f"x{i}" for i in range(1, nvars + 1)]
        ring = _ring(names)
        gens = set()
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, min(3, nvars))
            gens.add("*".join(names[i] for i in sorted(rng.sample(range(nvars), size))))
        spec = {"field": "Q", "variables": names, "J": sorted(gens), "I": names}
        spec_path = tmp_path / f"case{k}.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / f"out{k}.json"
        code = main(["check-iso", "--input", str(spec_path), "--json", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["isomorphic"] is True
        assert report["verified"] is True


def test_criterion_02_decision_fixtures():
    ring, J, I = CORPUS[0]
    d = decide_and_verify(J, I)
    assert d.isomorphic and d.verified
    pres = assoc_graded_presentation(J, I)
    certificate = Ideal.parse(pres.ring, ["x1", "x2", "Y1*Y2", "x3^2"])
    assert ideal_equal(pres.defining, certificate)

    ring, J, I = CORPUS[1]
    d = decide_and_verify(J, I)
    assert not d.isomorphic
    assert d.failure_reason == "not-split"

    ring, J, I = CORPUS[2]
    d = decide_and_verify(J, I)
    assert d.isomorphic and d.verified
    pres = assoc_graded_presentation(J, I)
    assert ideal_equal(pres.defining, Ideal.parse(pres.ring, ["x1", "Y1^3"]))


def test_criterion_03_every_kernel_generator_is_a_relation():
    for ring, J, I in CORPUS:
        pres = assoc_graded_presentation(J, I)
        for g in pres.defining.generators:
            assert is_graded_relation(g, J, I), f"{g} fails for J={J.generators}"


def test_criterion_04_telescoping_invariant():
    for ring, J, I in CORPUS:
        table = bigraded_hilbert(J, I, level_bound=8, degree_bound=8)
        ambient = hilbert_function(J, 8)
        for d in range(9):
            total = sum(table[n, d] for n in range(9))
            assert total == ambient[d], f"degree {d} mismatch for J={J.generators}"


def test_criterion_05_band_window_matches_bivariate_cech():
    point = SimplicialComplex([0], [(0,)])
    data = SplitSRData.from_split(point, (0,))
    assembled = assemble_rees_cohomology(data, QQ)
    assert [assembled.dim_at(2, a) for a in (-2, -3, -4)] == [1, 2, 3]
    assert assembled.dim_at(2, -1) == 0
    for i in range(0, 3):
        for a in range(-6, 1):
            assert assembled.dim_at(i, a) == local_cohomology_dim(2, i, a)


def test_criterion_06_assembly_degenerates_to_band():
    fixtures = [
        (SimplicialComplex([0], [(0,)]), QQ),
        (SimplicialComplex(range(2), [(0,), (1,)]), QQ),
        (SimplicialComplex(range(3), [(0, 2), (1, 2)]), QQ),
        (SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)]), QQ),
        (SimplicialComplex(range(3), [(0, 1, 2)]), QQ),
        (SimplicialComplex(range(6), RP2_FACETS), QQ),
        (SimplicialComplex(range(6), RP2_FACETS), GF(2)),
    ]
    for complex, field in fixtures:
        data = SplitSRData.from_split(complex, complex.vertices)
        assert data.c == ()
        assembled = assemble_rees_cohomology(data, field)
        band = BandWindow(local_cohomology_window(complex, field))
        for level in range(0, assembled.max_index + 1):
            for a in range(-10, 3):
                assert assembled.dim_at(level, a) == band.dim_at(level, a)


def test_criterion_07_trivariate_cech_oracle():
    edge = SimplicialComplex(range(2), [(0, 1)])
    data = SplitSRData.from_split(edge, (0,))
    assembled = assemble_rees_cohomology(data, QQ)
    for a in range(-8, -2):
        expected = ((-a - 1) * (-a - 2)) // 2
        assert assembled.dim_at(3, a) == expected
        assert expected == comb(-a - 1, 2)
    for a in range(-5, -2):
        assert assembled.dim_at(3, a) == local_cohomology_dim(3, 3, a)


def test_criterion_08_hochster_fixtures():
    two_points = SimplicialComplex(range(2), [(0,), (1,)])
    w = local_cohomology_window(two_points, QQ)
    table = window_table(w, -5, 0)[1]
    assert table[0] == 1
    assert all(table[j] == 2 for j in range(-5, 0))
    inv = sr_invariants(two_points, QQ)
    assert inv.depth == 1 and inv.a_invariant == 0

    rp2 = SimplicialComplex(range(6), RP2_FACETS)
    inv_q = sr_invariants(rp2, QQ)
    inv_2 = sr_invariants(rp2, GF(2))
    assert inv_q.cm and inv_q.depth == 3
    assert not inv_2.cm and inv_2.depth == 2


def test_criterion_09_dimension_formula_vs_presentation():
    seen_branches = set()
    for complex, b, expected in DIM_FIXTURES:
        ring, J = sr_ideal(complex)
        pres = rees_presentation(J, [ring.var(i) for i in b])
        assert krull_dim(pres.defining) == expected
        assert dim_rees(complex, b) == expected
        d = complex.dim + 1
        meets = any(len(f) == d and f & set(b) for f in complex.facets)
        seen_branches.add("dim A + 1" if meets else "dim A")
    assert seen_branches == {"dim A", "dim A + 1"}
    assert len(DIM_FIXTURES) >= 5


def test_criterion_10_gencm_fixtures_and_consistency():
    two_points = SimplicialComplex(range(2), [(0,), (1,)])
    case2 = decide_gencm(SplitSRData.from_split(two_points, (0, 1)), QQ)
    assert case2.gencm and case2.case == "case2-dimA2-zero"

    simplex_times_cycle = SimplicialComplex(
        range(5), [(0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 2, 4)]
    )
    case3 = decide_gencm(SplitSRData.from_split(simplex_times_cycle, (0, 1)), QQ)
    assert case3.gencm and case3.case == "case3-vanishing"

    simplex_times_disjoint = SimplicialComplex(
        range(6), [(0, 1, 2, 3), (0, 1, 4, 5)]
    )
    negative = decide_gencm(SplitSRData.from_split(simplex_times_disjoint, (0, 1)), QQ)
    assert not negative.gencm and negative.case == "none"

    corpus = [
        (two_points, (0, 1)),
        (simplex_times_cycle, (0, 1)),
        (simplex_times_disjoint, (0, 1)),
        (SimplicialComplex(range(3), [(0, 2), (1, 2)]), (0, 1)),
        (SimplicialComplex(range(2), [(0, 1)]), (0,)),
        (SimplicialComplex(range(3), [(0, 1, 2)]), (0, 1)),
        (SimplicialComplex(range(6), RP2_FACETS), tuple(range(6))),
    ]
    for complex, b in corpus:
        for field in (QQ, GF(2)):
            data = SplitSRData.from_split(complex, b)
            if decide_cm_rees(data, field).cm_rees:
                assert decide_gencm(data, field).gencm


def test_criterion_11_groebner_engine_properties():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        nv = rng.randint(2, 3)
        field = QQ if rng.random() < 0.7 else GF(rng.choice([2, 5, 7]))
        R = PolyRing([f"x{i}" for i in range(1, nv + 1)], field)
        gens = [g for g in (random_poly(rng, R, max_terms=3, max_exp=3)
                            for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        I = Ideal(R, gens)
        f = random_poly(rng, R, max_terms=3, max_exp=3)
        nf = normal_form(f, I)
        assert normal_form(nf, I) == nf
        assert ideal_member(f - nf, I)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert tuple(groebner_basis(I)) == tuple(groebner_basis(Ideal(R, shuffled)))
        checked += 1
    assert checked == 200
