"""Graded local cohomology of Rees rings of variable ideals in face rings.

Scope: A = k[D] for a complex D that splits as a join D = D1 * D2, with D1
on the vertex set B and D2 on the complement, and I the ideal generated by
the B-variables. Then A = A1 (x) A2 and the Rees ring R = A[It] factors as
R(A1; m1) (x) A2, where m1 is the maximal graded ideal of A1 = k[D1].

Every window of R is a view of a contribution profile, as a face-ring
window is: index i maps to {size s: rank r}, and the dimension in degree
a < 0 is sum r * C(-a-1, s-1) (in degree 0, the size-0 rank). Two building
blocks compute the profile of H(R) once, from the factor profiles:

* a band transform producing H(R(A1; m1)) from H(A1) in the internal
  grading (the adjoined variables keep the degree of the elements they
  multiply by, t itself carries degree zero):

      dim H^i(R(A1;m1))_a = (a+1) * dim H^i(A1)_a        for a >= 0,
                            0                            for a = -1,
                            (-a-1) * dim H^(i-1)(A1)_a   for a <= -2;

  with n = -a-1, n * C(n, s-1) = s * C(n, s) + (s-1) * C(n, s-1), so the
  band moves each size-s entry of index i-1 to sizes s+1 and s of index i;

* a tensor assembly for modules whose cohomology vanishes in positive
  degrees, where the degree-a piece is the finite convolution over splits
  a = alpha + beta with alpha, beta in [a, 0]:

      dim H^q(M (x) N)_a = sum_(i+j=q) sum_(alpha+beta=a)
                               dim H^i(M)_alpha * dim H^j(N)_beta;

  as sum_m C(m, s-1) * C(N-m, t-1) = C(N+1, s+t-1), the product profile
  is the product of the factor profiles, with sizes and indices adding.
  It is the rule that builds a face-ring profile from its join factors,
  and one function, ``simplicial._profile_product``, serves both.

All ranks are positive, so no entry cancels. Both windows are
``CohomologyWindow`` subclasses that only build their profile: dimensions
and vanishing flags are read off it by the one rule of the base class.

Whether R is Cohen-Macaulay is NOT visible from the standard grading of
H^dim(A) alone: R is CM exactly when A is CM and a(A1) < 0
(docs/math-notes.md §6), and a(A1) is the ideal-adic top degree reported
as ``a_adic``. The two-facet path with facets {0,2} and {1,2} and
B = {0,1} separates the readings: A is CM with standard top degree -1,
but A1 is two points with a(A1) = 0, so R fails to be CM.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .errors import InternalError
from .simplicial import (
    CohomologyWindow,
    SimplicialComplex,
    SRInvariants,
    _profile_product,
    local_cohomology_window,
    restrict_complex,
    sr_invariants,
)


class SplitSRData(NamedTuple):
    """A join decomposition D = D1 * D2 along a vertex split (B, C)."""

    complex: SimplicialComplex
    b: Tuple[int, ...]
    c: Tuple[int, ...]
    factor_b: SimplicialComplex
    factor_c: SimplicialComplex

    @classmethod
    def from_split(cls, complex: SimplicialComplex, b: Iterable[int]) -> "SplitSRData":
        b = tuple(sorted(set(b)))
        bs, vs = set(b), set(complex.vertices)
        if not bs <= vs:
            raise ValueError("B must be a subset of the vertex set")
        c = tuple(sorted(vs - bs))
        # D = D|B * D|C iff no minimal non-face meets both B and C (math-notes §2)
        if any(not bs.isdisjoint(s) and not bs.issuperset(s) for s in complex.minimal_nonfaces()):
            raise ValueError("complex does not split as a join along B")
        return cls(complex, b, c, restrict_complex(complex, b), restrict_complex(complex, c))


class BandWindow(CohomologyWindow):
    """Cohomology window of R(A1; m1), its profile derived once from that of A1.

    A size-s entry (s >= 1) of index i-1 of the base becomes sizes s+1 and
    s of index i, ranks s*r and (s-1)*r; the size-0 entry of index i stays.
    """

    def __init__(self, base: CohomologyWindow):
        self.base = base
        contrib: dict = {}
        for i in range(0, base.max_index + 2):
            row = {s: r for s, r in base.contrib.get(i, {}).items() if s == 0}
            for s, r in base.contrib.get(i - 1, {}).items():
                if s >= 1:
                    row[s + 1] = row.get(s + 1, 0) + s * r
                if s >= 2:
                    row[s] = row.get(s, 0) + (s - 1) * r
            if row:
                contrib[i] = row
        super().__init__(base.max_index + 1, contrib)

    # bench/tracing.py wraps vars(BandWindow)["dim_at"]; an inherited
    # method would not be in this class's own namespace
    dim_at = CohomologyWindow.dim_at


class TensorWindow(CohomologyWindow):
    """Cohomology window of M (x) N for factors vanishing in positive degrees.

    Its profile is the product of the factor profiles as polynomials in the
    size: indices add, sizes add, ranks multiply.
    """

    def __init__(self, first: CohomologyWindow, second: CohomologyWindow):
        self.first = first
        self.second = second
        contrib = _profile_product(first.contrib, second.contrib)
        super().__init__(first.max_index + second.max_index, contrib)

    # looked up in vars(TensorWindow) by bench/tracing.py, as on BandWindow
    dim_at = CohomologyWindow.dim_at


def assemble_rees_cohomology(data: SplitSRData, field) -> TensorWindow:
    """Window of H(R) for R = R(A1; m1) (x) A2 in the internal grading."""
    w1 = local_cohomology_window(data.factor_b, field)
    w2 = local_cohomology_window(data.factor_c, field)
    return TensorWindow(BandWindow(w1), w2)


def window_table(window, lo: int, hi: int) -> Dict[int, Dict[int, int]]:
    """Nonzero dimensions over [lo, hi] for every index of a window."""
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    out: Dict[int, Dict[int, int]] = {}
    for i in window.indices():
        row = {}
        for a in range(lo, hi + 1):
            v = window.dim_at(i, a)
            if v:
                row[a] = v
        out[i] = row
    return out


def dim_rees(complex: SimplicialComplex, b: Iterable[int]) -> int:
    """Krull dimension of the Rees ring of the B-variable ideal.

    It is dim A + 1 when some top-dimensional facet meets B (the ideal
    escapes a minimal prime of maximal dimension) and dim A otherwise.
    """
    b = frozenset(b)
    d = complex.dim + 1
    top_meets = any(len(f) == d and f & b for f in complex.facets)
    return d + 1 if top_meets else d


class CMReesVerdict(NamedTuple):
    """Cohen-Macaulayness of the Rees ring, with the invariants that decide it."""

    cm_rees: bool
    a_adic: Optional[int]
    dim_rees: int


def decide_cm_rees(data: SplitSRData, field) -> CMReesVerdict:
    """R is CM exactly when A is CM and a(A1) < 0; ``a_adic`` is a(A1)."""
    return _cm_rees(data, sr_invariants(data.complex, field), sr_invariants(data.factor_b, field))


def _cm_rees(data: SplitSRData, inv: SRInvariants, inv1: SRInvariants) -> CMReesVerdict:
    """``decide_cm_rees`` from the invariants of A (inv) and of A1 (inv1)."""
    a_adic = inv1.a_invariant
    return CMReesVerdict(
        cm_rees=inv.cm and a_adic is not None and a_adic < 0,
        a_adic=a_adic,
        dim_rees=dim_rees(data.complex, data.b),
    )


class GenCMVerdict(NamedTuple):
    """Generalized Cohen-Macaulayness of the Rees ring.

    ``case`` names the branch that settled a positive answer:

    * "case1-contained": every top facet misses B, so the ideal sits in
      every top-dimensional minimal prime;
    * "case2-dimA2-zero": the complement factor is zero-dimensional;
    * "case3-vanishing": both factors positive-dimensional, a(A1) < 0,
      H^(d1-1)(A1) vanishes below degree -1 and H^(d2-1)(A2) = 0;
    * "none": no branch applies (or the precondition on the base fails),
      and R is not generalized CM.

    The branch conditions are mutually exclusive by construction and all
    evidence booleans are reported whichever branch fires first. When
    ``precondition_A_gencm`` is false the verdict is out of the scope of
    the positive branches; the reported ``gencm`` is still correct, since
    each branch analysis shows R generalized CM forces the base to be.
    """

    gencm: bool
    case: str
    dim_R: int
    cm_R: bool
    precondition_A_gencm: bool
    evidence: Dict[str, object]


def decide_gencm(data: SplitSRData, field) -> GenCMVerdict:
    assembled = assemble_rees_cohomology(data, field)
    inv_a = sr_invariants(data.complex, field)
    inv1 = sr_invariants(data.factor_b, field)
    inv2 = sr_invariants(data.factor_c, field)
    d1, d2 = inv1.dim, inv2.dim
    rees_cm = _cm_rees(data, inv_a, inv1)
    d_rees, cm = rees_cm.dim_rees, rees_cm.cm_rees
    precondition = inv_a.gencm

    # every top facet misses B exactly when R has the dimension of A
    contained = d_rees == inv_a.dim
    a1_negative = inv1.a_invariant is not None and inv1.a_invariant < 0
    below1 = assembled.first.base.flag(d1 - 1).vanishes_below_minus_one
    zero2 = assembled.second.flag(d2 - 1).is_zero

    evidence: Dict[str, object] = {
        "I_in_all_top_primes": contained,
        "dimA2_zero": d2 == 0,
        "a_A1_negative": a1_negative,
        "H_d1_minus_1_A1_below_minus_2_zero": below1,
        "H_d2_minus_1_A2_zero": zero2,
        "A1_gencm": inv1.gencm,
        "A2_gencm": inv2.gencm,
        "factors_gencm_consistent": (not precondition) or (inv1.gencm and inv2.gencm),
        "dim_A": inv_a.dim,
        "dim_A1": d1,
        "dim_A2": d2,
        "field": field.name,
    }

    if contained:
        case = "case1-contained"
    elif d2 == 0:
        case = "case2-dimA2-zero"
    elif a1_negative and below1 and zero2:
        case = "case3-vanishing"
    else:
        case = "none"
    if not precondition:
        case = "none"
    verdict = case != "none"

    direct = all(assembled.flag(q).finite_length for q in range(0, d_rees))
    if direct != verdict:
        raise InternalError(
            "case analysis disagrees with assembled vanishing flags; "
            f"case={case} verdict={verdict} direct={direct}"
        )

    if cm and not verdict:
        raise InternalError("Cohen-Macaulay verdict without generalized CM")
    return GenCMVerdict(
        gencm=verdict,
        case=case,
        dim_R=d_rees,
        cm_R=cm,
        precondition_A_gencm=precondition,
        evidence=evidence,
    )
