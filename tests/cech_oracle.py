"""Truncated Cech complex for small polynomial rings.

Independent oracle for graded local cohomology of k[x1..xn] at the
maximal ideal, n <= 3. The Cech complex on the variables is truncated
by an exponent floor -N on inverted variables; for a fixed internal
degree the reported dimension stabilizes once N is large enough, and
callers assert stability against N+1.

Everything is exact integer arithmetic; no project code is imported. The
spaces and the differential ranks are cached per (n, p, degree, floor):
the rank of C^p -> C^(p+1) serves both H^p and H^(p+1).
"""

from functools import lru_cache
from itertools import combinations


def _rank(rows):
    """Rank over Q of integer rows given as ``{column: entry}`` dicts.

    Fraction-free forward elimination: a row whose leading column already
    holds a pivot row becomes ``b * row - a * pivot``, with ``a`` and ``b``
    the two leading entries, until it vanishes or becomes a pivot itself.
    Rows are only scaled by nonzero integers, so the span over Q, and the
    rank, is exact.
    """
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = row[lead], pivot[lead]
            row = {c: b * row.get(c, 0) - a * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
            row = {c: v for c, v in row.items() if v}
    return len(pivots)


def _exponent_vectors(n, degree, lower):
    """All integer vectors of length n with the given sum and per-slot floor."""
    out = []

    def rec(i, acc, remaining):
        if i == n - 1:
            if remaining >= lower[i]:
                out.append(tuple(acc + [remaining]))
            return
        hi = remaining - sum(lower[i + 1 :])
        e = lower[i]
        while e <= hi:
            rec(i + 1, acc + [e], remaining - e)
            e += 1

    rec(0, [], degree)
    return out


def _module_basis(n, T, degree, floor):
    lower = [-floor if i in T else 0 for i in range(n)]
    return _exponent_vectors(n, degree, lower)


@lru_cache(maxsize=None)
def _cech_spaces(n, degree, floor):
    """Basis of each C^p in one degree: lists of (T, exponent vector)."""
    spaces = {}
    for p in range(n + 1):
        basis = []
        for T in combinations(range(n), p):
            for e in _module_basis(n, set(T), degree, floor):
                basis.append((T, e))
        spaces[p] = basis
    return spaces


def _differential(spaces, p):
    """Matrix of C^p -> C^(p+1) as sparse rows indexed by C^p basis."""
    source, target = spaces[p], spaces.get(p + 1, [])
    index = {key: k for k, key in enumerate(target)}
    rows = []
    for T, e in source:
        row = {}
        for j in range(len(e)):
            if j in T:
                continue
            T2 = tuple(sorted(T + (j,)))
            key = (T2, e)
            if key in index:
                row[index[key]] = (-1) ** T2.index(j)
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _differential_rank(n, p, degree, floor):
    """Rank of C^p -> C^(p+1) in one degree; zero outside 0 <= p < n."""
    if not 0 <= p < n:
        return 0
    return _rank(_differential(_cech_spaces(n, degree, floor), p))


def cech_dim(n, p, degree, floor):
    """dim H^p of the truncated complex in one internal degree."""
    size = len(_cech_spaces(n, degree, floor)[p])
    d_p = _differential_rank(n, p, degree, floor)
    d_prev = _differential_rank(n, p - 1, degree, floor)
    return size - d_p - d_prev


def local_cohomology_dim(n, p, degree):
    """Stabilized dim H^p_m(k[x1..xn]) in one degree, asserted stable."""
    floor = max(4, -degree + n + 2)
    a = cech_dim(n, p, degree, floor)
    b = cech_dim(n, p, degree, floor + 1)
    assert a == b, f"Cech truncation unstable: n={n} p={p} degree={degree}"
    return a
