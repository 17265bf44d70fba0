"""The enumerating Hilbert counter and the subset-scan Krull dimension,
kept as oracles of the numerator route in ``gradealg.groebner``.

``count_standard_monomials`` visits every standard monomial it counts, so
its work grows with the answer; it obeys the same budget, read from
``groebner.MAX_STANDARD_MONOMIALS`` at call time. ``krull_dim`` scans up to
2^n variable subsets.
"""

from itertools import combinations
from operator import le

from gradealg import groebner
from gradealg.errors import LimitExceeded
from gradealg.groebner import Ideal, groebner_basis


def count_standard_monomials(lms, weights, degrees, level_bound: int, degree_bound: int) -> dict:
    """Monomials divisible by none of ``lms``, tallied by (weight, degree).

    Variable i has weight ``weights[i]`` >= 0 and degree ``degrees[i]`` >= 1.
    Only monomials of weight <= ``level_bound`` and degree <= ``degree_bound``
    are counted; the result maps each (weight, degree) to its nonzero count.

    Exponents are fixed variable by variable. ``by_last[i]`` holds the
    monomials whose last variable is i; those dividing the fixed prefix cap
    the exponent of i, and the last variable's exponents are tallied in one
    run. Every node is a standard monomial (its prefix padded with zeros), so
    the work is at most nvars nodes per monomial counted. Past
    ``MAX_STANDARD_MONOMIALS`` monomials counted it raises ``LimitExceeded``.
    """
    by_last = [[] for _ in degrees]
    for lm in lms:
        support = [i for i, e in enumerate(lm) if e]
        if not support:
            return {}  # the unit ideal: nothing is standard
        last = support[-1]
        by_last[last].append((lm[:last], lm[last]))
    if not degrees:
        return {(0, 0): 1}
    n = len(degrees)
    counts = {}
    exp = [0] * n
    left = groebner.MAX_STANDARD_MONOMIALS

    def rec(pos: int, weight: int, degree: int):
        nonlocal left
        w, d = weights[pos], degrees[pos]
        top = (degree_bound - degree) // d
        if w:
            top = min(top, (level_bound - weight) // w)
        for prefix, e in by_last[pos]:
            if e <= top and all(map(le, prefix, exp)):
                top = e - 1
        if pos == n - 1:
            left -= top + 1
            if left < 0:
                raise LimitExceeded(
                    f"more than {groebner.MAX_STANDARD_MONOMIALS} standard monomials to count"
                )
            for e in range(top + 1):
                key = (weight + e * w, degree + e * d)
                counts[key] = counts.get(key, 0) + 1
            return
        for e in range(top + 1):
            exp[pos] = e
            rec(pos + 1, weight + e * w, degree + e * d)
        exp[pos] = 0

    rec(0, 0, 0)
    return counts


def krull_dim(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal.

    Equals the largest number of variables forming a set independent modulo
    the initial ideal: no leading monomial of the reduced basis lives entirely
    on the set. This is insensitive to the order used, so grevlex is fixed.
    """
    gb = groebner_basis(ideal)
    if (0,) * ideal.ring.nvars in gb.lms:
        raise ValueError("unit ideal has no Krull dimension")
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in gb.lms]
    n = ideal.ring.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(supp <= s for supp in supports):
                return size
    raise AssertionError("unreachable: empty set is independent for proper ideals")
