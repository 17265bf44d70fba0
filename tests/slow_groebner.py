"""The Buchberger engine on ``Polynomial`` objects, kept as a test oracle.

This is the engine ``gradealg.groebner`` used before its term-list kernel:
the same pair criteria (coprime leading monomials, chain criterion) and
sugar selection, but every division step builds a new ``Polynomial`` and
every comparison recomputes ``oracle_key``, each order's key written from its
definition rather than derived from the ``desc_key`` the kernel packs.
Reduced bases are unique, so the kernel must return exactly what this
returns.
"""

from itertools import combinations
from operator import mul

from gradealg.polynomials import (
    GREVLEX,
    BlockOrder,
    GrevlexOrder,
    LexOrder,
    Monomial,
    Polynomial,
    WeightOrder,
    mon_mul,
)


def oracle_key(order, mon: Monomial):
    """A tuple that sorts ``mon`` ascending in ``order``.

    Written out per order class; an order defined in a test brings its own
    ``key``.
    """
    grevlex = (sum(mon), tuple(-e for e in reversed(mon)))
    if isinstance(order, GrevlexOrder):
        return grevlex
    if isinstance(order, LexOrder):
        return mon
    if isinstance(order, BlockOrder):
        return tuple(
            (sum(mon[i] for i in b), tuple(-mon[i] for i in reversed(b)))
            for b in order.blocks
        )
    if isinstance(order, WeightOrder):
        return (sum(map(mul, order.weights, mon)),) + grevlex
    return order.key(mon)


def leading_monomial(f: Polynomial, order) -> Monomial:
    return max(f.terms, key=lambda m: oracle_key(order, m))


def monic(f: Polynomial, order) -> Polynomial:
    return f * f.ring.field.from_fraction(1, f.terms[leading_monomial(f, order)])


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial:
    # caller guarantees b | a
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mon_degree(a: Monomial) -> int:
    return sum(a)


def _canon_key(g: Polynomial, order):
    keys = sorted((oracle_key(order, m) for m in g.terms), reverse=True)
    return (keys[0], tuple(keys), str(g))


def reduce_full(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of f under full division by ``basis``, a list of
    (leading monomial, monic polynomial) pairs tried in list order."""
    ring = f.ring
    remainder: dict = {}
    h = f
    while h.terms:
        lm = leading_monomial(h, order)
        lc = h.terms[lm]
        for glm, g in basis:
            if mon_divides(glm, lm):
                h = h - g * ring.monomial(mon_div(lm, glm), lc)
                break
        else:
            remainder[lm] = lc
            h = h - ring.monomial(lm, lc)
    return Polynomial(ring, remainder)


def spoly(f: Polynomial, g: Polynomial, order) -> Polynomial:
    # f, g monic
    lmf, lmg = leading_monomial(f, order), leading_monomial(g, order)
    lcm = mon_lcm(lmf, lmg)
    ring = f.ring
    return f * ring.monomial(mon_div(lcm, lmf)) - g * ring.monomial(mon_div(lcm, lmg))


def buchberger(generators, order=GREVLEX) -> list:
    """Reduced Groebner basis of the given generators, as a sorted list."""
    gens = [g for g in generators if g]
    if not gens:
        return []
    work = []
    for g in gens:
        gm = monic(g, order)
        if gm not in work:
            work.append(gm)
    work.sort(key=lambda g: _canon_key(g, order))

    lms = [leading_monomial(g, order) for g in work]
    # sugar: a generator's is its total degree, a pair's the larger of
    # sugar_i + deg t_i and sugar_j + deg t_j, a new element takes its pair's
    sugar = [g.total_degree() for g in work]
    pending = {}  # pair -> (sugar, lcm)

    def queue(i: int, j: int):
        lcm = mon_lcm(lms[i], lms[j])
        s = max(sugar[k] + mon_degree(lcm) - mon_degree(lms[k]) for k in (i, j))
        pending[(i, j)] = (s, lcm)

    for i, j in combinations(range(len(work)), 2):
        queue(i, j)

    def pair_of(a: int, b: int):
        return (a, b) if a < b else (b, a)

    while pending:
        (i, j) = min(pending, key=lambda p: (pending[p][0], mon_degree(pending[p][1]), p))
        sugar_ij, lcm_ij = pending.pop((i, j))
        if lcm_ij == mon_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        chain = any(
            k not in (i, j)
            and mon_divides(lms[k], lcm_ij)
            and pair_of(i, k) not in pending
            and pair_of(j, k) not in pending
            for k in range(len(work))
        )
        if chain:
            continue
        s = spoly(work[i], work[j], order)
        r = reduce_full(s, list(zip(lms, work)), order)
        if r:
            r = monic(r, order)
            new = len(work)
            work.append(r)
            lms.append(leading_monomial(r, order))
            sugar.append(sugar_ij)
            for k in range(new):
                queue(k, new)

    # minimal basis: visit by ascending leading monomial, keep an element only
    # if no kept leading monomial divides its own (equal ones keep the first)
    keep = []
    for i in sorted(range(len(work)), key=lambda i: oracle_key(order, lms[i])):
        if not any(mon_divides(lms[j], lms[i]) for j in keep):
            keep.append(i)
    reduced = [work[i] for i in keep]

    # tail reduction to a fixpoint; leading monomials are pairwise
    # non-divisible now, so reduction can only rewrite tails
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced)):
            others = [
                (leading_monomial(g, order), g)
                for j, g in enumerate(reduced)
                if j != i
            ]
            r = monic(reduce_full(reduced[i], others, order), order)
            if r != reduced[i]:
                reduced[i] = r
                changed = True
    reduced.sort(key=lambda g: oracle_key(order, leading_monomial(g, order)), reverse=True)
    return reduced


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Remainder of f modulo a reduced basis (a list of monic polynomials)."""
    return reduce_full(f, [(leading_monomial(g, order), g) for g in basis], order)
