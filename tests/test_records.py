"""The public result records: repr, equality and hash are pinned.

Each record is a ``typing.NamedTuple``. Its repr lists every field by name,
two records of one class are equal exactly when their fields are, and a
record hashes as the tuple of its fields (unhashable when a field is a
dict).
"""

import pytest

from gradealg.blowup import bigraded_hilbert, rees_presentation
from gradealg.criterion import decide_iso
from gradealg.fields import QQ
from gradealg.groebner import Ideal, hilbert_function
from gradealg.polynomials import PolyRing
from gradealg.rees_cohomology import SplitSRData, decide_cm_rees, decide_gencm
from gradealg.simplicial import SimplicialComplex, sr_invariants

R = PolyRing(("x1", "x2", "x3"), QQ)
PATH = SimplicialComplex(range(3), [{0, 2}, {1, 2}])
SPLIT = SplitSRData.from_split(PATH, [2])


def _decision():
    return decide_iso(Ideal.parse(R, ["x1*x2", "x3^2"]), [R.parse("x1"), R.parse("x2")])


# (builder, repr, hashable)
RECORDS = [
    (
        lambda: sr_invariants(PATH, QQ),
        "SRInvariants(dim=2, depth=2, a_invariant=-1, cm=True, gencm=True, field_name='Q')",
        True,
    ),
    (
        lambda: SPLIT,
        "SplitSRData(complex=SimplicialComplex[{0,2}, {1,2}], b=(2,), c=(0, 1), "
        "factor_b=SimplicialComplex[{2}], factor_c=SimplicialComplex[{0}, {1}])",
        True,
    ),
    (
        lambda: decide_cm_rees(SPLIT, QQ),
        "CMReesVerdict(cm_rees=True, cm_base=True, a_adic=-1, a_standard=-1, "
        "dim_base=2, dim_rees=3, field_name='Q')",
        True,
    ),
    (
        lambda: decide_gencm(SPLIT, QQ),
        "GenCMVerdict(gencm=True, case='case3-vanishing', dim_R=3, cm_R=True, "
        "precondition_A_gencm=True, evidence={'I_in_all_top_primes': False, "
        "'dimA2_zero': False, 'a_A1_negative': True, "
        "'H_d1_minus_1_A1_below_minus_2_zero': True, 'H_d2_minus_1_A2_zero': True, "
        "'A1_gencm': True, 'A2_gencm': True, 'factors_gencm_consistent': True, "
        "'dim_A': 2, 'dim_A1': 1, 'dim_A2': 1, 'field': 'Q'})",
        False,
    ),
    (
        lambda: _decision().witness,
        "SplitWitness(b=(0, 1), c=(2,), jb=(x1*x2), jc=(x3^2), "
        "sigma={'x1': 'Y1', 'x2': 'Y2'})",
        False,
    ),
    (
        _decision,
        "IsoDecision(isomorphic=True, witness=SplitWitness(b=(0, 1), c=(2,), "
        "jb=(x1*x2), jc=(x3^2), sigma={'x1': 'Y1', 'x2': 'Y2'}), "
        "failure_reason=None, verified=False)",
        False,
    ),
    (
        lambda: rees_presentation(Ideal.parse(R, ["x1*x2"]), [R.parse("x1")]),
        "ReesPresentation(ring=Q[x1, x2, x3, Y1], base_ring=Q[x1, x2, x3], "
        "x_names=('x1', 'x2', 'x3'), y_names=('Y1',), y_degrees=(1,), "
        "f=(<x1 in Q[x1, x2, x3]>,), defining=(x1*x2, x2*Y1), target='rees')",
        True,
    ),
    (
        lambda: bigraded_hilbert(Ideal.parse(R, ["x1*x2"]), [R.parse("x1")], 1, 2),
        "BigradedHilbert(dims={(0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 1): 1, "
        "(1, 2): 1}, level_bound=1, degree_bound=2)",
        False,
    ),
    (
        lambda: hilbert_function(Ideal.parse(R, ["x1*x2", "x3^2"]), 3),
        "GradedHilbert(dims=(1, 3, 4, 4), degree_bound=3)",
        True,
    ),
]


@pytest.mark.parametrize(
    "build, text, hashable", RECORDS, ids=[r.split("(")[0] for _, r, _ in RECORDS]
)
def test_record_repr_equality_and_hash(build, text, hashable):
    record = build()
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in record._fields)
    again = type(record)(*fields)
    assert again == record and again is not record
    assert record._replace(**{record._fields[0]: object()}) != record
    if hashable:
        assert hash(record) == hash(again) == hash(fields)
    else:
        with pytest.raises(TypeError):
            hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
