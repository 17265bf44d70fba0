"""The downstairs bigraded Hilbert route, kept as an oracle.

dim (I^n/I^(n+1))_d is the difference of the Hilbert functions of
S/(I^(n+1) + J) and S/(I^n + J), one Groebner basis per power, all inside
the base ring. It shares no code with the upstairs count of
``gradealg.blowup.bigraded_hilbert`` beyond the Groebner engine: it counts
each Hilbert function with the enumerating oracle, not with the numerator
route it checks. It is only fast at small bounds.
"""

from gradealg.blowup import BigradedHilbert
from gradealg.groebner import Ideal, groebner_basis, ideal_power, ideal_sum

from tests.enumeration_oracles import count_standard_monomials


def downstairs_bigraded_hilbert(J: Ideal, f, level_bound: int, degree_bound: int) -> BigradedHilbert:
    I = Ideal(J.ring, f)

    def quotient_dims(n: int):
        power = ideal_power(I, n, bound=level_bound + 1)
        lms = groebner_basis(ideal_sum(power, J)).leading_monomials()
        nvars = J.ring.nvars
        counts = count_standard_monomials(lms, [0] * nvars, [1] * nvars, 0, degree_bound)
        return [counts.get((0, d), 0) for d in range(degree_bound + 1)]

    dims = {}
    prev = quotient_dims(0)  # zero ring: I^0 + J = (1)
    for n in range(level_bound + 1):
        cur = quotient_dims(n + 1)
        for d in range(degree_bound + 1):
            if cur[d] - prev[d]:
                dims[(n, d)] = cur[d] - prev[d]
        prev = cur
    return BigradedHilbert(dims, level_bound, degree_bound)
