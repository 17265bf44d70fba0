"""Exact computations with associated graded rings and Rees algebras."""

from .blowup import (
    BigradedHilbert,
    ReesPresentation,
    assoc_graded_presentation,
    bigraded_hilbert,
    presentation_bigraded_hilbert,
    rees_presentation,
)
from .criterion import (
    IsoDecision,
    SplitWitness,
    decide_iso,
    split_check,
    variable_subset_basis,
    verify_iso_witness,
)
from .errors import AmbientMismatch, InternalError, LimitExceeded, ParseError
from .fields import GF, QQ, parse_field
from .groebner import (
    GradedHilbert,
    GroebnerBasis,
    Ideal,
    buchberger,
    elimination_ideal,
    groebner_basis,
    hilbert_function,
    ideal_member,
    ideal_power,
    ideal_sum,
    normal_form,
)
from .polynomials import (
    GREVLEX,
    LEX,
    BlockOrder,
    PolyRing,
    Polynomial,
    WeightOrder,
    elimination_order,
)
from .rees_cohomology import (
    BandWindow,
    CMReesVerdict,
    GenCMVerdict,
    SplitSRData,
    TensorWindow,
    assemble_rees_cohomology,
    decide_cm_rees,
    decide_gencm,
    dim_rees,
    window_table,
)
from .simplicial import (
    CohomologyWindow,
    IndexFlags,
    SimplicialComplex,
    SRInvariants,
    local_cohomology_window,
    reduced_homology_ranks,
    restrict_complex,
    sr_invariants,
)

__version__ = "0.1.0"
