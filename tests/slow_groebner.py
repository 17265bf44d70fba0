"""The Buchberger engine on ``Polynomial`` objects, kept as a test oracle.

This is the engine ``gradealg.groebner`` used before its term-list kernel:
the same pair criteria (coprime leading monomials, chain criterion) and
normal selection, but every division step builds a new ``Polynomial`` and
every comparison recomputes ``order.key``. Reduced bases are unique, so the
kernel must return exactly what this returns.
"""

from itertools import combinations

from gradealg.polynomials import GREVLEX, Polynomial, mon_div, mon_divides, mon_lcm, mon_mul


def _canon_key(g: Polynomial, order):
    terms = g.sorted_terms(order)
    return (
        order.key(terms[0][0]),
        tuple(order.key(m) for m, _ in terms),
        str(g),
    )


def reduce_full(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of f under full division by ``basis``, a list of
    (leading monomial, monic polynomial) pairs tried in list order."""
    ring = f.ring
    remainder: dict = {}
    h = f
    while h.terms:
        lm = h.leading_monomial(order)
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
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
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
        gm = g.monic(order)
        if gm not in work:
            work.append(gm)
    work.sort(key=lambda g: _canon_key(g, order))

    lms = [g.leading_monomial(order) for g in work]
    pending = {}
    for i, j in combinations(range(len(work)), 2):
        pending[(i, j)] = mon_lcm(lms[i], lms[j])

    def pair_of(a: int, b: int):
        return (a, b) if a < b else (b, a)

    while pending:
        (i, j) = min(pending, key=lambda p: (sum(pending[p]), p))
        lcm_ij = pending.pop((i, j))
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
            r = r.monic(order)
            new = len(work)
            work.append(r)
            lms.append(r.leading_monomial(order))
            for k in range(new):
                pending[(k, new)] = mon_lcm(lms[k], lms[new])

    # minimal basis: visit by ascending leading monomial, keep an element only
    # if no kept leading monomial divides its own (equal ones keep the first)
    keep = []
    for i in sorted(range(len(work)), key=lambda i: order.key(lms[i])):
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
                (g.leading_monomial(order), g)
                for j, g in enumerate(reduced)
                if j != i
            ]
            r = reduce_full(reduced[i], others, order).monic(order)
            if r != reduced[i]:
                reduced[i] = r
                changed = True
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return reduced


def normal_form(f: Polynomial, basis, order=GREVLEX) -> Polynomial:
    """Remainder of f modulo a reduced basis (a list of monic polynomials)."""
    return reduce_full(f, [(g.leading_monomial(order), g) for g in basis], order)
