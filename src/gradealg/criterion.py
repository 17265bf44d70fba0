"""Deciding whether the associated graded ring is isomorphic to the base ring.

Everything here works with presentations: A = S/J with S a polynomial ring,
I given by homogeneous lifts. The decision is constructive both ways.

The criterion: A and its associated graded ring along I are isomorphic
(as graded quotients of the same kind of polynomial ring) when

  (1) modulo J, I is generated by a set of variables x_i (i in B), and
  (2) J can be regenerated so that every generator lies entirely in the
      B-variables or entirely in the complementary C-variables.

Only this direction is proved (docs/math-notes.md §1), so only a positive
decision is certified. A negative one names the condition that failed and
no more: for J = (x1*x2) and I = (x1), J does not split along B = {x1},
yet G = k[x1, x2, Y1]/(x1, x2*Y1) is isomorphic to A through Y1 -> x1.

For (1) the candidate B is forced: with J generated in degrees >= 2, the set
B = {i : x_i in I + J} is the only possible variable support, because the
degree-one part of (X_B') + J is spanned by the B'-variables themselves;
since (X_B) + J lies in I + J by this choice, only I in (X_B) + J is tested.
For (2) no regrouping is searched: J splits along B exactly when every
element of its reduced grevlex basis lies in k[X_B] or in k[X_C], and then
the two parts are the reduced bases of JB = J restricted to the B-variables
and JC = J restricted to the C-variables (docs/math-notes.md §1). So the
decision reads J's one cached basis; a constant, which only the unit
ideal's basis holds, lies in both parts.

A positive decision can be certified: the associated graded presentation on
Y-variables (one per element of B) must equal (X_B) + JB-renamed + JC, where
the renaming sends the B-variable x_i to its Y-partner. ``verify_iso_witness``
checks that ideal equality exactly: each side's generators must leave
remainder zero on division by the other side's list, which is a reduced
grevlex basis already, so the check runs no Buchberger of its own. It
reads G off the weighted basis of J with B renamed to the Y-variables
(``blowup``, docs/math-notes.md §11), a different basis in a different
order from the grevlex basis of J that the decision reads.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Optional, Sequence

from . import blowup
from .groebner import GroebnerBasis, Ideal, _divisible, groebner_basis, ideal_member, ideal_sum
from .polynomials import GREVLEX


class SplitWitness(NamedTuple):
    """Certificate that J splits across a variable subset B."""

    b: tuple  # variable indices generating I modulo J
    c: tuple  # the complement
    jb: Ideal  # J restricted to the B-variables
    jc: Ideal  # J restricted to the C-variables
    sigma: dict  # renaming on variable names certifying the isomorphism


class IsoDecision(NamedTuple):
    isomorphic: bool
    witness: Optional[SplitWitness]
    failure_reason: Optional[str]  # "not-variable-generated" | "not-split"


def _as_ideal(J: Ideal, i_gens) -> Ideal:
    if isinstance(i_gens, Ideal):
        if i_gens.ring != J.ring:
            raise ValueError("I and J must share the ambient ring")
        return i_gens
    return Ideal(J.ring, list(i_gens))


def variable_subset_basis(i_gens, J: Ideal) -> Optional[tuple]:
    """The full set B of variables lying in I + J, if it generates I there.

    Returns sorted variable indices, or None when I + J is not generated by
    variables together with J. B is canonical: with J generated in degrees
    >= 2 no other variable subset can work, so no search is needed.
    """
    I = _as_ideal(J, i_gens)
    S = J.ring
    total = ideal_sum(I, J)
    b = tuple(i for i in range(S.nvars) if ideal_member(S.var(i), total))
    xb_j = ideal_sum(Ideal(S, [S.var(i) for i in b]), J)
    if all(ideal_member(g, xb_j) for g in I.generators):
        return b
    return None


def split_check(J: Ideal, b: Sequence[int]) -> Optional[SplitWitness]:
    """Split J's reduced grevlex basis into B-pure and C-pure parts, if it splits."""
    S = J.ring
    b = tuple(sorted(set(b)))
    if any(i < 0 or i >= S.nvars for i in b):
        raise ValueError("B indices outside the ring")
    c = tuple(i for i in range(S.nvars) if i not in set(b))
    basis = [(g, {i for m in g.terms for i, e in enumerate(m) if e}) for g in groebner_basis(J)]
    if not all(used.isdisjoint(b) or used.isdisjoint(c) for _, used in basis):
        return None
    jb = Ideal(S, [g for g, used in basis if used.isdisjoint(c)])
    jc = Ideal(S, [g for g, used in basis if used.isdisjoint(b)])
    sigma = dict(zip((S.variables[i] for i in b), blowup._y_variables(S, len(b))))
    return SplitWitness(b=b, c=c, jb=jb, jc=jc, sigma=sigma)


def _validate_problem(J: Ideal, I: Ideal, allow_linear: bool):
    """Syntactic checks first, then the two that need a Groebner basis."""
    if not J.homogeneous:
        raise ValueError("J must be homogeneous")
    for g in I.generators:
        if not g.is_homogeneous() or g.total_degree() == 0:
            raise ValueError("I needs homogeneous generators of positive degree")
    if not I.generators:
        raise ValueError("I must be nonzero")
    linear = [g for g in J.generators if g.total_degree() == 1]
    message = (
        f"J has degree-1 generators ({', '.join(map(str, linear))}); "
        "the variable count is not reduced automatically and the "
        "canonical B may lose uniqueness"
    )
    if linear and not allow_linear:
        raise ValueError(message + " (pass allow_linear=True to proceed)")
    if ideal_member(J.ring.one, ideal_sum(I, J)):
        raise ValueError("I is the unit ideal modulo J")
    if all(ideal_member(g, J) for g in I.generators):
        raise ValueError("I is zero modulo J")
    if linear:
        warnings.warn(message)


def decide_iso(J: Ideal, i_gens, allow_linear: bool = False) -> IsoDecision:
    """Decide whether the associated graded ring along I is the base ring."""
    I = _as_ideal(J, i_gens)
    _validate_problem(J, I, allow_linear)
    b = variable_subset_basis(I, J)
    if b is None:
        return IsoDecision(False, None, "not-variable-generated")
    witness = split_check(J, b)
    if witness is None:
        return IsoDecision(False, None, "not-split")
    return IsoDecision(True, witness, None)


def verify_iso_witness(J: Ideal, witness: SplitWitness) -> bool:
    """Certify a positive decision on the presentation level.

    Computes the full associated graded presentation for I = (x_i : i in B)
    and checks its defining ideal equals (X_B) + sigma(JB) + JC.
    """
    return _verify_iso_witness(J, witness)[0]


def _verify_iso_witness(J: Ideal, witness: SplitWitness) -> tuple:
    """``verify_iso_witness`` with the presentation it checked: ``(ok, pres)``."""
    S = J.ring
    f = tuple(S.var(i) for i in witness.b)
    # decide_iso has validated I; a variable of B may lie in J, which the
    # validating assoc_graded_presentation would refuse
    pres = blowup._assoc_graded(J, f)
    xy = pres.ring
    expected = Ideal(
        xy,
        [xy.var(xy.var_index(S.variables[i])) for i in witness.b]
        + [g.rename_into(xy, witness.sigma) for g in witness.jb.generators]
        + [g.rename_into(xy) for g in witness.jc.generators],
    )
    ok = _divides(pres.defining, expected) and _divides(expected, pres.defining)
    return ok, pres


def _divides(divisors: Ideal, ideal: Ideal) -> bool:
    """Whether every generator of ``ideal`` leaves remainder zero on
    division by the generator list of ``divisors``.

    A zero remainder proves membership whatever the list, so no Buchberger
    run is needed; both lists of the certificate are reduced grevlex bases
    already, so a member leaves zero. A list of monomials divides by the
    rule of docs/math-notes.md §10, as ``ideal_member`` does, read off
    their exponents once."""
    if all(len(g.terms) == 1 for g in divisors.generators):
        exponents = [next(iter(g.terms)) for g in divisors.generators]
        return all(_divisible(g, exponents) for g in ideal.generators)
    basis = GroebnerBasis(divisors.ring, GREVLEX, divisors.generators)
    return not any(basis.normal_form(g) for g in ideal.generators)

