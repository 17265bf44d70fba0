"""Tests for blowup cohomology: band transform, tensor assembly, verdicts."""

import random
from itertools import combinations
from math import comb

import pytest

from gradealg import (
    GF,
    QQ,
    BandWindow,
    CohomologyWindow,
    Ideal,
    PolyRing,
    SimplicialComplex,
    SplitSRData,
    assemble_rees_cohomology,
    decide_cm_rees,
    decide_gencm,
    dim_rees,
    local_cohomology_window,
    rees_presentation,
    restrict_complex,
    sr_invariants,
    window_table,
)
from tests import convolution_oracle as oracle
from tests.cech_oracle import local_cohomology_dim
from tests.direct_profile import adic_a_invariant
from tests.enumeration_oracles import krull_dim
from tests.test_simplicial import RP2_FACETS, join, random_complex

TWO_POINTS = SimplicialComplex(range(2), [(0,), (1,)])
EDGE = SimplicialComplex(range(2), [(0, 1)])
PATH = SimplicialComplex(range(3), [(0, 2), (1, 2)])
CIRCLE = SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)])
RP2 = SimplicialComplex(range(6), RP2_FACETS)
CONE_RP2 = SimplicialComplex(range(7), [f + (6,) for f in RP2_FACETS])


def sr_ideal(complex, field=QQ, prefix="x"):
    """Stanley-Reisner ideal of a complex, generated by minimal non-faces."""
    verts = complex.vertices
    ring = PolyRing([f"{prefix}{v + 1}" for v in verts], field)
    gens = []
    for size in range(1, len(verts) + 1):
        for sub in combinations(verts, size):
            if complex.has_face(sub):
                continue
            if all(complex.has_face(tuple(u for u in sub if u != v)) for v in sub):
                gens.append("*".join(ring.variables[v] for v in sub))
    return ring, Ideal.parse(ring, gens)


def test_restrict_complex():
    sub = restrict_complex(PATH, [0, 1])
    assert sub == SimplicialComplex([0, 1], [(0,), (1,)])
    assert restrict_complex(PATH, []).facets == (frozenset(),)
    with pytest.raises(ValueError):
        restrict_complex(PATH, [5])


def test_from_split_accepts_joins_and_rejects_others():
    data = SplitSRData.from_split(PATH, (0, 1))
    assert data.b == (0, 1) and data.c == (2,)
    assert data.factor_b == TWO_POINTS
    with pytest.raises(ValueError):
        SplitSRData.from_split(PATH, (0,))
    with pytest.raises(ValueError):
        SplitSRData.from_split(PATH, (7,))
    trivial = SplitSRData.from_split(CIRCLE, ())
    assert trivial.factor_c == CIRCLE


def test_from_split_accepts_exactly_the_joins_of_the_restrictions():
    # the minimal non-face rule of ``from_split`` against the join of the
    # two full subcomplexes, on random complexes of up to 7 vertices: half
    # of them built as joins, split at random or along the join
    rng = random.Random(2700)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 7)
        k = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.5 else 0
        if k:
            complex = join(random_complex(rng, range(k)), random_complex(rng, range(k, n)))
        else:
            complex = random_complex(rng, range(n))
        b = range(k) if k and rng.random() < 0.5 else [v for v in range(n) if rng.random() < 0.5]
        c = set(range(n)).difference(b)
        joins = join(restrict_complex(complex, b), restrict_complex(complex, c)) == complex
        try:
            SplitSRData.from_split(complex, b)
        except ValueError as exc:
            assert str(exc) == "complex does not split as a join along B"
            assert not joins, (complex, b)
        else:
            assert joins, (complex, b)
        verdicts.add(joins)
    assert verdicts == {True, False}


def test_band_matches_bivariate_cech():
    pt = SimplicialComplex([0], [(0,)])
    band = BandWindow(local_cohomology_window(pt, QQ))
    assert band.max_index == 2
    for i in range(0, 3):
        for a in range(-6, 1):
            assert band.dim_at(i, a) == local_cohomology_dim(2, i, a)
    assert band.dim_at(2, -1) == 0
    assert [band.dim_at(2, a) for a in (-2, -3, -4)] == [1, 2, 3]


def test_band_flags_for_polynomial_base():
    pt = SimplicialComplex([0], [(0,)])
    band = BandWindow(local_cohomology_window(pt, QQ))
    assert band.flag(0).is_zero and band.flag(1).is_zero
    top = band.flag(2)
    assert not top.is_zero and not top.finite_length


def test_band_keeps_degree_zero_of_base():
    w = local_cohomology_window(CIRCLE, QQ)
    band = BandWindow(w)
    assert w.dim_at(2, 0) == 1
    assert band.dim_at(2, 0) == 1
    assert band.dim_at(2, 1) == 0
    assert band.dim_at(3, -2) == w.dim_at(2, -2)


def test_trivariate_assembly_matches_cech():
    data = SplitSRData.from_split(EDGE, (0,))
    tw = assemble_rees_cohomology(data, QQ)
    assert tw.max_index == 3
    for a in range(-8, 1):
        expected = comb(-a - 1, 2) if a <= -1 else 0
        assert tw.dim_at(3, a) == expected
    for i in range(0, 4):
        for a in range(-4, 1):
            assert tw.dim_at(i, a) == local_cohomology_dim(3, i, a)


def test_assembly_reduces_to_band_when_c_empty():
    fixtures = [TWO_POINTS, PATH, CIRCLE, RP2]
    for complex in fixtures:
        for field in (QQ, GF(2)):
            data = SplitSRData.from_split(complex, complex.vertices)
            assembled = assemble_rees_cohomology(data, field)
            band = BandWindow(local_cohomology_window(complex, field))
            assert assembled.max_index == band.max_index
            for q in assembled.indices():
                for a in range(-6, 1):
                    assert assembled.dim_at(q, a) == band.dim_at(q, a)
                af, bf = assembled.flag(q), band.flag(q)
                assert af.is_zero == bf.is_zero
                assert af.finite_length == bf.finite_length


def _check_flags_against_dims(window, n, seen):
    """Each flag of the window against its dimensions over [-(n+2), 0];
    ``seen`` collects the flags met, by window class."""
    for q in window.indices():
        dims = {a: window.dim_at(q, a) for a in range(-(n + 2), 1)}
        flag = window.flag(q)
        assert flag.is_zero == (not any(dims.values()))
        assert flag.finite_length == (not any(v for a, v in dims.items() if a <= -1))
        assert flag.vanishes_below_minus_one == (not any(v for a, v in dims.items() if a <= -2))
        seen.add((type(window).__name__, flag))


def test_flags_agree_with_dimensions_on_random_splits():
    rng = random.Random(37)
    splits = []
    for _ in range(40):
        nb, nc = rng.randint(1, 4), rng.randint(1, 4)
        complex = join(random_complex(rng, range(nb)), random_complex(rng, range(nb, nb + nc)))
        splits.append(SplitSRData.from_split(complex, range(nb)))
    # over GF(2), H^2 of k[RP2] is nonzero of finite length, and so are
    # H^3 of its band and of the assembly
    splits.append(SplitSRData.from_split(RP2, RP2.vertices))
    seen = set()
    for data in splits:
        n = len(data.complex.vertices)
        for field in (QQ, GF(2)):
            assembled = assemble_rees_cohomology(data, field)
            for window in (
                local_cohomology_window(data.complex, field),
                assembled.first.base,
                assembled.second,
                assembled.first,
                assembled,
            ):
                _check_flags_against_dims(window, n, seen)
    kinds = {(False, False, False), (False, True, True), (True, True, True)}
    for name in ("CohomologyWindow", "BandWindow", "TensorWindow"):
        assert {tuple(flag) for cls, flag in seen if cls == name} == kinds


class _Stub:
    """Minimal window: explicit nonpositive-degree table, everything else 0."""

    def __init__(self, entries):
        self.entries = dict(entries)
        self.max_index = max((i for i, _ in self.entries), default=0)

    def indices(self):
        return range(0, self.max_index + 1)

    def dim_at(self, i, a):
        return self.entries.get((i, a), 0)


def test_tensor_assembly_is_the_degreewise_convolution():
    first = _Stub({(1, -1): 2, (1, -2): 1, (2, 0): 3})
    second = _Stub({(0, 0): 1, (1, -1): 3})
    tw = oracle.TensorWindow(first, second)
    for q in range(0, 4):
        for a in range(-4, 1):
            expected = 0
            for i in range(0, q + 1):
                for alpha in range(a, 1):
                    expected += first.dim_at(i, alpha) * second.dim_at(
                        q - i, a - alpha
                    )
            assert tw.dim_at(q, a) == expected
    assert tw.dim_at(2, -2) == 2 * 3 + 0
    doubled = oracle.TensorWindow(first, _Stub({(0, 0): 1, (1, -1): 6}))
    assert doubled.dim_at(2, -2) - tw.dim_at(2, -2) == 2 * 3
    assert doubled.dim_at(1, -1) == tw.dim_at(1, -1)


def _assert_same_window(window, expected, n):
    assert window.max_index == expected.max_index
    assert window_table(window, -(n + 4), 3) == window_table(expected, -(n + 4), 3)
    for q in range(-1, expected.max_index + 2):
        assert window.flag(q) == expected.flag(q)


def test_profile_windows_match_convolution_oracle():
    rng = random.Random(41)
    splits = [
        SplitSRData.from_split(RP2, RP2.vertices),
        SplitSRData.from_split(RP2, ()),
        SplitSRData.from_split(CONE_RP2, (6,)),
    ]
    for _ in range(300):
        nb, nc = rng.randint(1, 4), rng.randint(0, 3)
        complex = random_complex(rng, range(nb))
        if nc:
            complex = join(complex, random_complex(rng, range(nb, nb + nc)))
        splits.append(SplitSRData.from_split(complex, range(nb)))
    for data in splits:
        n = len(data.complex.vertices)
        for field in (QQ, GF(2), GF(3)):
            assembled = assemble_rees_cohomology(data, field)
            band = oracle.BandWindow(assembled.first.base)
            _assert_same_window(assembled.first, band, n)
            _assert_same_window(assembled, oracle.TensorWindow(band, assembled.second), n)


def test_wide_window_reads_no_factor_cells(monkeypatch):
    calls = []
    dim_at = CohomologyWindow.dim_at

    def counted(self, i, a):
        calls.append((i, a))
        return dim_at(self, i, a)

    monkeypatch.setattr(CohomologyWindow, "dim_at", counted)
    window = assemble_rees_cohomology(SplitSRData.from_split(PATH, (0, 1)), QQ)
    table = window_table(window, -2000, 0)
    assert calls == []
    assert (table[2][-2000], table[3][-2000]) == (1, 2 * comb(1999, 2))
    expected = oracle.TensorWindow(oracle.BandWindow(window.first.base), window.second)
    narrow = {i: {a: v for a, v in row.items() if a >= -60} for i, row in table.items()}
    assert narrow == window_table(expected, -60, 0)


def test_window_table_shape():
    band = BandWindow(local_cohomology_window(TWO_POINTS, QQ))
    table = window_table(band, -3, 0)
    assert set(table) == {0, 1, 2}
    assert table[2] == {-2: 2, -3: 4}
    assert table[0] == {}


DIM_FIXTURES = [
    (TWO_POINTS, (0,), 2),
    (SimplicialComplex(range(3), [(0,), (1, 2)]), (0,), 2),
    (PATH, (0, 1), 3),
    (SimplicialComplex(range(4), [(0,), (1, 2, 3)]), (0,), 3),
    (SimplicialComplex(range(4), [(0, 1), (2, 3)]), (0,), 3),
    (EDGE, (0,), 3),
]


def test_dim_rees_both_branches():
    assert dim_rees(TWO_POINTS, (0,)) == 2
    assert dim_rees(SimplicialComplex(range(3), [(0,), (1, 2)]), (0,)) == 2
    assert dim_rees(PATH, (0, 1)) == 3
    assert dim_rees(PATH, ()) == 2


def test_dim_rees_matches_krull_dimension_of_presentation():
    for complex, b, expected in DIM_FIXTURES:
        ring, J = sr_ideal(complex)
        pres = rees_presentation(J, [ring.var(i) for i in b])
        assert krull_dim(pres.defining) == expected
        assert dim_rees(complex, b) == expected


def test_adic_a_invariant_fixtures():
    assert adic_a_invariant(TWO_POINTS, (0,), QQ) == 0
    assert adic_a_invariant(TWO_POINTS, (0, 1), QQ) == 0
    assert adic_a_invariant(EDGE, (0,), QQ) == -1
    assert adic_a_invariant(EDGE, (), QQ) == 0
    simplex3 = SimplicialComplex(range(3), [(0, 1, 2)])
    assert adic_a_invariant(simplex3, (0, 1), QQ) == -2
    assert adic_a_invariant(PATH, (0, 1), QQ) == 0


def test_a_adic_matches_face_weighted_oracle_on_random_splits():
    # decide_cm_rees reads a(A1) off the B-factor; the oracle weights every
    # face of top cohomology of the whole complex by its size in B
    rng = random.Random(61)
    fields = (QQ, GF(2), GF(3))
    for k in range(300):
        nb, nc = rng.randint(1, 4), rng.randint(1, 4)
        complex = join(random_complex(rng, range(nb)), random_complex(rng, range(nb, nb + nc)))
        # every fifth split puts all vertices in B, leaving C empty
        data = SplitSRData.from_split(complex, complex.vertices if k % 5 == 0 else range(nb))
        field = fields[k % 3]
        expected = adic_a_invariant(complex, data.b, field)
        assert decide_cm_rees(data, field).a_adic == expected, (complex, field)
    for b in ((), (0,), (0, 1)):
        data = SplitSRData.from_split(EDGE, b)
        assert decide_cm_rees(data, QQ).a_adic == adic_a_invariant(EDGE, b, QQ)


def test_path_rees_not_cm_despite_cm_base():
    data = SplitSRData.from_split(PATH, (0, 1))
    v = decide_cm_rees(data, QQ)
    base = sr_invariants(data.complex, QQ)
    assert base.cm
    assert base.a_invariant == -1
    assert v.a_adic == 0
    assert not v.cm_rees
    assert (base.dim, v.dim_rees) == (2, 3)


def test_edge_rees_is_cm():
    data = SplitSRData.from_split(EDGE, (0,))
    v = decide_cm_rees(data, QQ)
    assert v.cm_rees and sr_invariants(data.complex, QQ).cm
    assert v.a_adic == -1
    g = decide_gencm(data, QQ)
    assert g.gencm and g.case == "case3-vanishing"
    assert g.cm_R


def test_gencm_path_fails_on_a_invariant():
    data = SplitSRData.from_split(PATH, (0, 1))
    g = decide_gencm(data, QQ)
    assert not g.gencm and g.case == "none"
    assert g.precondition_A_gencm
    assert not g.evidence["a_A1_negative"]
    assert g.evidence["dim_A1"] == 1 and g.evidence["dim_A2"] == 1
    assert g.dim_R == 3 and not g.cm_R


def test_gencm_case1_with_zero_ideal():
    data = SplitSRData.from_split(TWO_POINTS, ())
    g = decide_gencm(data, QQ)
    assert g.gencm and g.case == "case1-contained"
    assert g.evidence["I_in_all_top_primes"]
    assert g.dim_R == 1


def test_gencm_case2_zero_dimensional_complement():
    data = SplitSRData.from_split(CIRCLE, CIRCLE.vertices)
    g = decide_gencm(data, QQ)
    assert g.gencm and g.case == "case2-dimA2-zero"
    assert g.evidence["dimA2_zero"]
    assert not g.cm_R

    simplex = SimplicialComplex(range(3), [(0, 1, 2)])
    data = SplitSRData.from_split(simplex, simplex.vertices)
    g = decide_gencm(data, QQ)
    assert g.gencm and g.case == "case2-dimA2-zero"
    assert g.cm_R


def test_cone_over_projective_plane_depends_on_field():
    data = SplitSRData.from_split(CONE_RP2, (6,))
    over_q = decide_cm_rees(data, QQ)
    assert over_q.cm_rees and over_q.a_adic == -1
    g_q = decide_gencm(data, QQ)
    assert g_q.gencm and g_q.case == "case3-vanishing"

    over_2 = decide_cm_rees(data, GF(2))
    assert not sr_invariants(data.complex, GF(2)).cm and not over_2.cm_rees
    g_2 = decide_gencm(data, GF(2))
    assert not g_2.gencm and g_2.case == "none"
    assert not g_2.precondition_A_gencm


def test_cm_rees_implies_gencm_across_corpus():
    corpus = [
        (TWO_POINTS, (0, 1)),
        (TWO_POINTS, ()),
        (PATH, (0, 1)),
        (PATH, (2,)),
        (EDGE, (0,)),
        (EDGE, (0, 1)),
        (SimplicialComplex(range(3), [(0, 1, 2)]), (0, 1)),
        (CIRCLE, CIRCLE.vertices),
        (RP2, RP2.vertices),
        (CONE_RP2, (6,)),
    ]
    for complex, b in corpus:
        for field in (QQ, GF(2)):
            data = SplitSRData.from_split(complex, b)
            cm = decide_cm_rees(data, field).cm_rees
            g = decide_gencm(data, field)
            assert g.cm_R == cm
            if cm:
                assert g.gencm
