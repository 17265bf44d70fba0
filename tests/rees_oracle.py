"""The associated graded ring through the Rees algebra, kept as an oracle.

G = A[It]/I·A[It], so G's defining ideal is the Rees ideal plus the
generators f themselves: eliminate t from J + (Y_i - f_i*t) in k[X, Y, t],
add f, and take the reduced grevlex basis. ``gradealg.blowup`` used this
route until G was read off one weighted basis of J + (Y_i - f_i); the two
share no step but the Groebner engine. ``assoc_graded_from_rees`` runs on the
production engine, from a Rees presentation; ``slow_assoc_graded`` runs the
whole route on ``tests/slow_groebner.py``.
"""

from gradealg.blowup import ReesPresentation, _y_variables
from gradealg.groebner import Ideal, groebner_basis
from gradealg.polynomials import GREVLEX, PolyRing, Polynomial, elimination_order
from tests import slow_groebner


def assoc_graded_from_rees(rees: ReesPresentation) -> ReesPresentation:
    """The associated graded presentation of the ideal a Rees presentation
    was built for: its defining ideal plus the generators themselves."""
    xy = rees.ring
    gens = list(rees.defining.generators) + [g.rename_into(xy) for g in rees.f]
    defining = Ideal(xy, list(groebner_basis(Ideal(xy, gens))))
    return rees._replace(defining=defining, target="assoc_graded")


def slow_assoc_graded(J: Ideal, f) -> list:
    """G's reduced grevlex basis in k[X, Y], every basis from the slow engine."""
    S = J.ring
    xy = PolyRing(S.variables + _y_variables(S, len(f)), S.field)
    big = PolyRing(xy.variables + ("t",), S.field)
    t = big.var(big.nvars - 1)
    gens = [g.rename_into(big) for g in J.generators]
    gens += [big.var(S.nvars + j) - g.rename_into(big) * t for j, g in enumerate(f)]
    block = slow_groebner.buchberger(gens, elimination_order([big.nvars - 1], big.nvars))
    rees = [
        Polynomial(xy, {m[:-1]: c for m, c in g.terms.items()})
        for g in block
        if all(m[-1] == 0 for m in g.terms)
    ]
    return slow_groebner.buchberger(rees + [g.rename_into(xy) for g in f], GREVLEX)
