"""Presentations of Rees algebras and associated graded rings.

For a homogeneous ideal I = (f_1..f_m) of A = S/J both rings are presented
on the S-variables X plus one new variable Y_i of degree deg f_i per
generator. Defining ideals are stored as reduced grevlex bases, so
generator lists are canonical and absorbed relations disappear.

The Rees algebra A[It]: its defining ideal is computed by adjoining
Y_i - f_i*t and eliminating t with a block order.

The associated graded ring G needs no elimination. A = k[X, Y]/J' with
J' = J + (Y_i - f_i), and I becomes (Y). For the weight v = 2 on each x and
2*deg f_i - 1 on Y_i, the terms of largest weight of a homogeneous element
are its terms of lowest Y-degree, so G = k[X, Y]/in_v(J'); and the initial
forms of the reduced basis of J' for v then grevlex (``WeightOrder``) are the
reduced grevlex basis of in_v(J'). A generator f_i = c*x_b on a base variable
not substituted yet is substituted away first: x_b - Y_i/c leads under v and
has initial form x_b. The ``hilbert`` table counts the standard monomials of
the same basis. See docs/math-notes.md §11.

The bigrading on the presentation ring: an S-variable has bidegree
(internal degree 1, weight 0); Y_i has (deg f_i, 1). Weight counts the adic
level I^n/I^(n+1); internal degree is the one inherited from S.

Every presentation names its variables by one rule: Y_i is "Y<i>" with "_"
appended until no base variable has that name (``_y_variables``), and the
eliminated variable is "t" extended the same way past both.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import LimitExceeded
from .groebner import (
    Ideal,
    count_standard_monomials,
    elimination_ideal,
    groebner_basis,
    hilbert_function,
    ideal_member,
)
from .polynomials import GREVLEX, PolyRing, Polynomial, WeightOrder

LEVEL_BOUND = 8
DEGREE_BOUND = 8
MAX_LEVEL_BOUND = 16
MAX_DEGREE_BOUND = 20


def _fresh_name(taken, stem: str) -> str:
    name = stem
    while name in taken:
        name += "_"
    return name


def _y_variables(base: PolyRing, m: int) -> tuple:
    """The names of the m Y-variables of a presentation over ``base``."""
    taken = set(base.variables)
    return tuple(_fresh_name(taken, f"Y{i + 1}") for i in range(m))


class ReesPresentation(NamedTuple):
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


def _validated_input(J: Ideal, f: Sequence[Polynomial]) -> tuple:
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
    return f


def rees_presentation(J: Ideal, f: Sequence[Polynomial]) -> ReesPresentation:
    """Defining ideal of the Rees algebra (S/J)[It], I = (f)."""
    f = _validated_input(J, f)
    return _rees_presentation(J, f)


def _rees_presentation(J: Ideal, f: tuple) -> ReesPresentation:
    """``rees_presentation`` on generators already validated against J."""
    S = J.ring
    ys = _y_variables(S, len(f))
    t_name = _fresh_name(set(S.variables) | set(ys), "t")
    big = PolyRing(S.variables + ys + (t_name,), S.field)
    t = big.var(big.nvars - 1)
    n = S.nvars

    gens = [g.rename_into(big) for g in J.generators]
    for j, fj in enumerate(f):
        gens.append(big.var(n + j) - fj.rename_into(big) * t)

    kept = elimination_ideal(Ideal(big, gens), range(big.nvars - 1)).generators
    # t is the last variable and absent from kept: drop its exponent. The
    # block order is grevlex on X, Y, so kept is already the reduced grevlex
    # basis of the defining ideal, in its order (math-notes §8)
    xy = PolyRing(S.variables + ys, S.field)
    defining = Ideal(xy, [Polynomial(xy, {m[:-1]: c for m, c in g.terms.items()}) for g in kept])

    return ReesPresentation(
        ring=xy,
        base_ring=S,
        x_names=S.variables,
        y_names=ys,
        y_degrees=tuple(g.total_degree() for g in f),
        f=f,
        defining=defining,
        target="rees",
    )


def assoc_graded_presentation(J: Ideal, f: Sequence[Polynomial]) -> ReesPresentation:
    """Defining ideal of the associated graded ring of I = (f) on S/J."""
    f = _validated_input(J, f)
    return _assoc_graded(J, f)


def _weighted_basis(J: Ideal, f: tuple) -> tuple:
    """``(ring, y_names, linear, basis)`` for J' = J + (Y_i - f_i) (module docstring).

    ``linear`` holds the base variables x_b substituted away, in order,
    and ``basis`` is the reduced ``WeightOrder`` basis of the rest of J',
    which does not involve them; with the x_b - Y_i/c the two make a
    Groebner basis of J' for that order.
    """
    S = J.ring
    n = S.nvars
    ys = _y_variables(S, len(f))
    xy = PolyRing(S.variables + ys, S.field)
    images, kept = {}, []  # base variable index -> (Y index, 1/c); the other f_i
    for i, g in enumerate(f):
        (m, c), *more = g.terms.items()
        if not more and sum(m) == 1 and m.index(1) not in images:
            images[m.index(1)] = (n + i, S.field.from_fraction(1, c))
        else:
            kept.append(i)

    def substituted(g: Polynomial) -> Polynomial:
        terms = {}
        for m, c in g.terms.items():
            mon = list(m) + [0] * len(f)
            for b, (y, s) in images.items():
                if m[b]:
                    mon[b], mon[y] = 0, m[b]
                    c *= s ** m[b]
            terms[tuple(mon)] = c
        return Polynomial(xy, terms)

    rest = [substituted(g) for g in J.generators]
    rest += [xy.var(n + i) - substituted(f[i]) for i in kept]
    order = WeightOrder([2] * n + [2 * g.total_degree() - 1 for g in f])
    return xy, ys, [xy.var(b) for b in sorted(images)], groebner_basis(Ideal(xy, rest), order)


def _assoc_graded(J: Ideal, f: tuple) -> ReesPresentation:
    """``assoc_graded_presentation`` on generators already validated against J."""
    xy, ys, linear, basis = _weighted_basis(J, f)
    weight = basis.order.weight
    # x_b and the initial forms, each led by its weighted leading monomial
    # under grevlex too: the reduced grevlex basis, largest first
    forms = [(next(iter(x.terms)), x) for x in linear]
    for lm, g in zip(basis.lms, basis):
        top = weight(lm)
        forms.append((lm, Polynomial(xy, {m: c for m, c in g.terms.items() if weight(m) == top})))
    forms.sort(key=lambda form: GREVLEX.desc_key(form[0]))
    return ReesPresentation(
        ring=xy,
        base_ring=J.ring,
        x_names=J.ring.variables,
        y_names=ys,
        y_degrees=tuple(g.total_degree() for g in f),
        f=f,
        defining=Ideal(xy, [g for _, g in forms]),
        target="assoc_graded",
    )


class BigradedHilbert(NamedTuple):
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

    Counted upstairs, as the standard monomials of the weighted basis of
    J' that the associated graded presentation is read off, whose leading
    monomials generate the initial ideal of G's defining ideal. Before any
    Groebner basis past J's own, the standard monomials of in(J) below
    degree (level_bound + 1) * min deg f are counted under the same budget:
    I^(level_bound+1) has nothing there, so the window holds all of A in
    those degrees and their count is a lower bound of the upstairs count
    (docs/math-notes.md §9).
    """
    f = _validated_input(J, f)
    _check_bounds(level_bound, degree_bound)
    low = min(g.total_degree() for g in f)
    hilbert_function(J, min(degree_bound, (level_bound + 1) * low - 1))
    _, _, linear, basis = _weighted_basis(J, f)
    lms = [next(iter(x.terms)) for x in linear] + list(basis.lms)
    degrees = tuple(g.total_degree() for g in f)
    return _table(lms, J.ring.nvars, degrees, level_bound, degree_bound)


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
    lms = groebner_basis(pres.defining).leading_monomials()
    return _table(lms, len(pres.x_names), pres.y_degrees, level_bound, degree_bound)


def _table(lms, n_x: int, y_degrees: tuple, level_bound: int, degree_bound: int) -> BigradedHilbert:
    """The standard monomials of ``lms`` in k[X, Y], by (Y-degree, degree)."""
    dims = count_standard_monomials(
        lms,
        [0] * n_x + [1] * len(y_degrees),
        [1] * n_x + list(y_degrees),
        level_bound,
        degree_bound,
    )
    return BigradedHilbert(dims, level_bound, degree_bound)
