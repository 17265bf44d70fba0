"""Presentations of Rees algebras and associated graded rings.

For a homogeneous ideal I = (f_1..f_m) of A = S/J the Rees algebra A[It] is
presented on S-variables plus one new variable Y_i per generator. Its
defining ideal is computed by adjoining Y_i - f_i*t and eliminating t with a
block order. The associated graded ring is the Rees presentation plus the
ideal (f_1..f_m) itself. Defining ideals are stored as reduced grevlex bases,
so generator lists are canonical and absorbed relations disappear.

The bigrading on the presentation ring: an S-variable has bidegree
(internal degree 1, weight 0); Y_i has (deg f_i, 1). Weight counts the adic
level I^n/I^(n+1); internal degree is the one inherited from S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import LimitExceeded
from .groebner import (
    Ideal,
    POWER_BOUND,
    count_standard_monomials,
    elimination_ideal,
    groebner_basis,
    hilbert_function,
    ideal_member,
    ideal_power,
    ideal_sum,
)
from .polynomials import PolyRing, Polynomial

LEVEL_BOUND = 8
DEGREE_BOUND = 8
MAX_LEVEL_BOUND = 16
MAX_DEGREE_BOUND = 20


def _default_y_names(base: PolyRing, m: int) -> tuple:
    names = tuple(f"Y{i + 1}" for i in range(m))
    clash = set(names) & set(base.variables)
    if clash:
        raise ValueError(f"variable names {sorted(clash)} collide with Y-variables")
    return names


def _fresh_name(taken, stem: str) -> str:
    name = stem
    while name in taken:
        name += "_"
    return name


@dataclass(frozen=True)
class ReesPresentation:
    """A presentation ring k[X-vars, Y-vars] with its defining ideal."""

    ring: PolyRing
    base_ring: PolyRing
    x_names: tuple
    y_names: tuple
    y_degrees: tuple
    f: tuple
    defining: Ideal
    target: str  # "rees" or "assoc_graded"

    def monomial_bidegree(self, mon) -> tuple:
        """(weight, internal degree) of a presentation-ring monomial."""
        n = len(self.x_names)
        weight = sum(mon[n:])
        internal = sum(mon[:n]) + sum(
            e * d for e, d in zip(mon[n:], self.y_degrees)
        )
        return (weight, internal)


def _validated_input(J: Ideal, f: Sequence[Polynomial]):
    S = J.ring
    f = tuple(f)
    if not f:
        raise ValueError("need at least one ideal generator")
    if not J.homogeneous:
        raise ValueError("defining ideal must be homogeneous")
    for g in f:
        if g.ring != S:
            raise ValueError("ideal generators must live in the base ring")
        if not g or not g.is_homogeneous() or g.total_degree() == 0:
            raise ValueError("ideal generators must be homogeneous of positive degree")
        if ideal_member(g, J):
            raise ValueError(f"degenerate generator {g}: already zero in the quotient")
    return S, f


def rees_presentation(
    J: Ideal, f: Sequence[Polynomial], y_names: Optional[Sequence[str]] = None
) -> ReesPresentation:
    """Defining ideal of the Rees algebra (S/J)[It], I = (f)."""
    _, f = _validated_input(J, f)
    return _rees_presentation(J, f, y_names)


def _rees_presentation(J: Ideal, f: tuple, y_names) -> ReesPresentation:
    """``rees_presentation`` on generators already validated against J."""
    S = J.ring
    m = len(f)
    y_names = tuple(y_names) if y_names else _default_y_names(S, m)
    if len(y_names) != m:
        raise ValueError("need one Y-name per generator")

    t_name = _fresh_name(set(S.variables) | set(y_names), "t")
    big = PolyRing(S.variables + y_names + (t_name,), S.field)
    t = big.var(big.nvars - 1)
    n = S.nvars

    gens = [g.rename_into(big) for g in J.generators]
    for j, fj in enumerate(f):
        gens.append(big.var(n + j) - fj.rename_into(big) * t)

    kept = elimination_ideal(Ideal(big, gens), range(big.nvars - 1)).generators
    # t is the last variable and absent from kept: drop its exponent. The
    # block order is grevlex on X, Y, so kept is already the reduced grevlex
    # basis of the defining ideal, in its order (math-notes §8)
    xy = PolyRing(S.variables + y_names, S.field)
    defining = Ideal(xy, [Polynomial(xy, {m[:-1]: c for m, c in g.terms.items()}) for g in kept])

    return ReesPresentation(
        ring=xy,
        base_ring=S,
        x_names=S.variables,
        y_names=y_names,
        y_degrees=tuple(g.total_degree() for g in f),
        f=f,
        defining=defining,
        target="rees",
    )


def assoc_graded_presentation(
    J: Ideal, f: Sequence[Polynomial], y_names: Optional[Sequence[str]] = None
) -> ReesPresentation:
    """Defining ideal of the associated graded ring of I = (f) on S/J."""
    _, f = _validated_input(J, f)
    return _assoc_graded_from_rees(_rees_presentation(J, f, y_names))


def _assoc_graded_from_rees(rees: ReesPresentation) -> ReesPresentation:
    """The associated graded presentation of the ideal a Rees presentation
    was built for: its defining ideal plus the generators themselves."""
    xy = rees.ring
    gens = list(rees.defining.generators) + [g.rename_into(xy) for g in rees.f]
    defining = Ideal(xy, list(groebner_basis(Ideal(xy, gens))))
    return ReesPresentation(
        ring=xy,
        base_ring=rees.base_ring,
        x_names=rees.x_names,
        y_names=rees.y_names,
        y_degrees=rees.y_degrees,
        f=rees.f,
        defining=defining,
        target="assoc_graded",
    )


def is_graded_relation(
    g: Polynomial,
    J: Ideal,
    f: Sequence[Polynomial],
    power_bound: int = POWER_BOUND,
) -> bool:
    """Check that g names a genuine relation of the associated graded ring.

    g lives in the presentation ring on X- and Y-variables and must be
    bihomogeneous there. With d its Y-weight, the test substitutes Y_i -> f_i
    and asks whether the result falls one adic level deeper, i.e. into
    I^(d+1) + J. Relations of weight zero land in I + J.
    """
    S, f = _validated_input(J, f)
    n, m = S.nvars, len(f)
    if g.ring.nvars != n + m:
        raise ValueError("relation must live in the presentation ring")
    x_idx, y_idx = tuple(range(n)), tuple(range(n, n + m))
    bideg = g.bidegree(x_idx, y_idx)
    if bideg is None:
        raise ValueError(f"{g} is not bihomogeneous in the variable split")
    d = bideg.y_degree
    images = [S.var(i) for i in range(n)] + list(f)
    substituted = g.map_into(S, images)
    target = ideal_sum(ideal_power(Ideal(S, f), d + 1, bound=max(power_bound, d + 1)), J)
    return ideal_member(substituted, target)


@dataclass(frozen=True)
class BigradedHilbert:
    """Nonzero dimensions of adic slices I^n/I^(n+1) by internal degree."""

    dims: dict
    level_bound: int
    degree_bound: int

    def __getitem__(self, key) -> int:
        n, d = key
        if not (0 <= n <= self.level_bound and 0 <= d <= self.degree_bound):
            raise IndexError(f"({n}, {d}) outside the computed window")
        return self.dims.get((n, d), 0)


def _check_bounds(level_bound: int, degree_bound: int):
    if not 0 <= level_bound <= MAX_LEVEL_BOUND:
        raise LimitExceeded(f"level bound {level_bound} outside [0, {MAX_LEVEL_BOUND}]")
    if not 0 <= degree_bound <= MAX_DEGREE_BOUND:
        raise LimitExceeded(f"degree bound {degree_bound} outside [0, {MAX_DEGREE_BOUND}]")


def bigraded_hilbert(
    J: Ideal,
    f: Sequence[Polynomial],
    level_bound: int = LEVEL_BOUND,
    degree_bound: int = DEGREE_BOUND,
) -> BigradedHilbert:
    """dim of (I^n/I^(n+1))_d for n <= level_bound, d <= degree_bound.

    Counted upstairs, on the associated graded presentation (fresh Y-names,
    so any base variable names work). Before any Groebner basis past J's
    own, the standard monomials of in(J) below degree
    (level_bound + 1) * min deg f are counted under the same budget:
    I^(level_bound+1) has nothing there, so the window holds all of A in
    those degrees and their count is a lower bound of the upstairs count
    (docs/math-notes.md §9).
    """
    S, f = _validated_input(J, f)
    _check_bounds(level_bound, degree_bound)
    low = min(g.total_degree() for g in f)
    hilbert_function(J, min(degree_bound, (level_bound + 1) * low - 1))
    taken = set(S.variables)
    y_names = [_fresh_name(taken, f"Y{i + 1}") for i in range(len(f))]
    pres = _assoc_graded_from_rees(_rees_presentation(J, f, y_names))
    return presentation_bigraded_hilbert(pres, level_bound, degree_bound)


def presentation_bigraded_hilbert(
    pres: ReesPresentation,
    level_bound: int = LEVEL_BOUND,
    degree_bound: int = DEGREE_BOUND,
) -> BigradedHilbert:
    """Bigraded dimensions of the presentation quotient, counted upstairs.

    Counts standard monomials of the defining ideal's initial ideal, tallied
    by (weight, internal degree). For an associated-graded presentation this
    is the table of ``bigraded_hilbert``.
    """
    _check_bounds(level_bound, degree_bound)
    n_x, n_y = len(pres.x_names), len(pres.y_names)
    dims = count_standard_monomials(
        groebner_basis(pres.defining).leading_monomials(),
        [0] * n_x + [1] * n_y,
        [1] * n_x + list(pres.y_degrees),
        level_bound,
        degree_bound,
    )
    return BigradedHilbert(dims, level_bound, degree_bound)
