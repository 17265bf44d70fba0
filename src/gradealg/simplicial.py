"""Simplicial complexes and graded local cohomology of their face rings.

The graded pieces of local cohomology of a face ring k[D] are assembled from
reduced homology of face links: a face s with link homology rank r in
(cohomological) index i = |s| + 1 + (homology index) contributes

    r * C(-j-1, |s|-1)   to dimension at every internal degree j <= -|s|,

while the empty face contributes its rank at degree 0 only. Homology ranks
come from sparse elimination on the boundary matrices, on ints mod p over
GF(p) and fraction-free over the integers for Q, so everything downstream
of this module is exact as well. The per-index contribution profile does
not depend on any degree window: it is computed once per (complex, field),
and a ``CohomologyWindow`` is a view of it that answers dimension queries
at any degree.

Vanishing flags fall out of the same profile. A nonempty contributing face
of size s forces nonzero dimensions at every degree <= -s, and size-1 faces
reach degree -2; so for a face ring, "finite length", "concentrated in
degree 0" and "zero in all degrees <= -2" are all equivalent to "only the
empty face contributes".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, gcd
from typing import Iterable, NamedTuple, Optional

from .errors import LimitExceeded
from .groebner import Ideal

VERTEX_BOUND = 12
PROFILE_CACHE_SIZE = 128


class SimplicialComplex:
    """A finite simplicial complex held by its facets.

    ``vertices`` is the ambient vertex set (sorted labels); facets are
    frozensets of labels. The complex whose only face is the empty set is
    allowed (give no facets); the void complex with no faces at all is not
    representable. A label missing from every facet is an ambient vertex
    whose singleton is a non-face.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: Iterable[int], facets: Iterable[Iterable[int]]):
        vertices = tuple(sorted(set(vertices)))
        vset = set(vertices)
        cleaned = set()
        for f in facets:
            f = frozenset(f)
            if not f <= vset:
                raise ValueError(f"facet {sorted(f)} outside the vertex set")
            cleaned.add(f)
        maximal = [
            f for f in cleaned if not any(f < g for g in cleaned)
        ]
        if not maximal:
            maximal = [frozenset()]
        self.vertices = vertices
        self.facets = tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))

    @classmethod
    def from_ideal(cls, J: Ideal) -> "SimplicialComplex":
        """Complex whose non-faces are the generator supports of J.

        J must be generated by squarefree monomials; the vertex labels are
        the variable indices of its ring.
        """
        n = J.ring.nvars
        if n > VERTEX_BOUND:
            raise LimitExceeded(f"{n} vertices exceed the bound {VERTEX_BOUND}")
        supports = []
        for g in J.generators:
            if len(g.terms) != 1:
                raise ValueError(f"{g} is not a monomial")
            (mon,) = g.terms
            if any(e > 1 for e in mon):
                raise ValueError(f"{g} is not squarefree")
            supports.append(frozenset(i for i, e in enumerate(mon) if e))
        faces = [
            s
            for size in range(n + 1)
            for s in map(frozenset, combinations(range(n), size))
            if not any(ns <= s for ns in supports)
        ]
        return cls(range(n), faces)

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def faces(self) -> set:
        out = set()
        for f in self.facets:
            for size in range(len(f) + 1):
                out.update(map(frozenset, combinations(sorted(f), size)))
        return out

    def minimal_nonfaces(self) -> list:
        """Minimal non-faces as sorted label tuples, by size, then
        lexicographically.

        Faces are bitmasks over vertex positions. A minimal non-face is a
        face plus one vertex past its largest whose other one-smaller
        subsets are faces too, so each is found once, from its face
        without the largest vertex.
        """
        pos = {v: k for k, v in enumerate(self.vertices)}
        faces = set()
        for f in self.facets:
            mask = sub = sum(1 << pos[v] for v in f)
            while True:
                faces.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & mask
        found = []
        for f in faces:
            for k in range(f.bit_length(), len(self.vertices)):
                s = f | (1 << k)
                if s in faces:
                    continue
                rest = f  # the vertices whose removal from s is left to check
                while rest and s ^ (rest & -rest) in faces:
                    rest &= rest - 1
                if not rest:
                    found.append(tuple(v for i, v in enumerate(self.vertices) if s >> i & 1))
        return sorted(found, key=lambda s: (len(s), s))

    def has_face(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets)

    def link(self, s: Iterable[int]) -> "SimplicialComplex":
        s = frozenset(s)
        if not self.has_face(s):
            raise ValueError(f"{sorted(s)} is not a face")
        return SimplicialComplex(
            set(self.vertices) - s, [f - s for f in self.facets if s <= f]
        )

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        if set(self.vertices) & set(other.vertices):
            raise ValueError("join needs disjoint vertex sets")
        return SimplicialComplex(
            self.vertices + other.vertices,
            [f | g for f in self.facets for g in other.facets],
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and other.vertices == self.vertices
            and set(other.facets) == set(self.facets)
        )

    def __hash__(self):
        return hash((self.vertices, frozenset(self.facets)))

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex[{body}]"


def _rank(rows: Iterable[dict], p: int) -> int:
    """Rank of a sparse integer matrix over GF(p), or over Q when p == 0.

    Rows are ``{column: int}`` dicts. Each row is reduced against pivot
    rows, kept by leading column, until it vanishes or becomes a new
    pivot. Over GF(p) entries are ints mod p and pivots lead with 1. Over
    Q elimination is fraction-free: ``row = b*row - a*pivot`` with ``b``
    the pivot's leading entry, then the row is divided by the gcd of its
    entries. A row is only ever scaled by nonzero integers, so the row
    space over Q, and with it the rank, is exact.
    """
    pivots: dict = {}
    for row in rows:
        row = {c: v % p if p else v for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[lead] = row
                break
            a, b = row[lead], pivot[lead]
            if b != 1:
                row = {c: b * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - a * v
                if p:
                    x %= p
                if x:
                    row[c] = x
                else:
                    del row[c]
            if not p and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
    return len(pivots)


def reduced_homology_ranks(complex: SimplicialComplex, field) -> dict:
    """Ranks of reduced homology over the field, indexed -1..dim.

    Uses the augmented chain complex, so the empty complex has rank one in
    index -1 and any nonempty complex has rank zero there.
    """
    by_dim: dict = {}
    for f in complex.facets:
        f = sorted(f)
        for size in range(len(f) + 1):
            by_dim.setdefault(size - 1, set()).update(combinations(f, size))
    faces_by_dim = {i: sorted(fs) for i, fs in by_dim.items()}
    top = complex.dim

    boundary_rank: dict = {}
    for i in range(0, top + 1):
        cols = {f: k for k, f in enumerate(faces_by_dim.get(i - 1, []))}
        rows = (
            {cols[f[:k] + f[k + 1 :]]: (-1) ** k for k in range(len(f))}
            for f in faces_by_dim.get(i, [])
        )
        boundary_rank[i] = _rank(rows, field.characteristic)

    ranks = {}
    for i in range(-1, top + 1):
        dim_ci = len(faces_by_dim.get(i, []))
        ranks[i] = dim_ci - boundary_rank.get(i, 0) - boundary_rank.get(i + 1, 0)
    return ranks


class IndexFlags(NamedTuple):
    is_zero: bool
    finite_length: bool
    vanishes_below_minus_one: bool


class CohomologyWindow:
    """Graded dimensions of local cohomology, read off a per-index
    contribution profile: ``contrib[i]`` maps a face size s to a positive
    rank r, and ``contrib_faces[i]`` lists the contributing faces with their
    ranks. The window keeps its own copies of both.

    ``dim_at`` and ``flag`` are exact at every degree; ``window_table``
    renders a band of degrees.
    """

    def __init__(self, max_index: int, contrib: dict, contrib_faces: dict = {}):
        self.max_index = max_index
        self.contrib = {i: dict(c) for i, c in contrib.items()}
        self.contrib_faces = {i: tuple(fs) for i, fs in contrib_faces.items()}

    def indices(self) -> range:
        return range(0, self.max_index + 1)

    def dim_at(self, i: int, j: int) -> int:
        """Dimension of index i in degree j: the size-0 rank in degree 0,
        and the sum of r * C(-j-1, s-1) over sizes s >= 1 below it."""
        if j > 0:
            return 0
        profile = self.contrib.get(i, {})
        if j == 0:
            return profile.get(0, 0)
        return sum(r * comb(-j - 1, s - 1) for s, r in profile.items() if s >= 1)

    def flag(self, i: int) -> IndexFlags:
        """All ranks are positive, so index i vanishes iff its profile is
        empty, and it is finite length, as well as zero below degree -1,
        iff only size 0 occurs."""
        profile = self.contrib.get(i, {})
        only_size_zero = all(s == 0 for s in profile)
        return IndexFlags(
            is_zero=not profile,
            finite_length=only_size_zero,
            vanishes_below_minus_one=only_size_zero,
        )


def restrict_complex(complex: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Full subcomplex on the given vertex subset."""
    vs = frozenset(vertices)
    if not vs <= set(complex.vertices):
        raise ValueError("restriction vertices must lie in the complex")
    if len(vs) == len(complex.vertices):
        return complex
    return SimplicialComplex(vs, [f & vs for f in complex.facets])


def _join_factors(complex: SimplicialComplex) -> list:
    """The finest join decomposition, as full subcomplexes.

    Its vertex blocks are the connected components of the graph joining two
    vertices that lie in a common minimal non-face. A vertex in none is a
    cone point and a block of its own, as is a ghost vertex (a one-vertex
    minimal non-face); the complex with no vertices has no factors.
    """
    blocks: list = []
    for s in complex.minimal_nonfaces() + [(v,) for v in complex.vertices]:
        block = set(s)
        for other in [b for b in blocks if b & block]:
            blocks.remove(other)
            block |= other
        blocks.append(block)
    return [restrict_complex(complex, b) for b in blocks]


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _link_table(complex: SimplicialComplex, field) -> tuple:
    """``(face, {e: rank})`` for every face with nonzero link homology,
    ``e`` the homology index plus one. Cached per (complex, field) so a
    join factor shared by several complexes is computed once."""
    table = []
    for s in complex.faces():
        link_ranks = reduced_homology_ranks(complex.link(s), field)
        ranks = {h + 1: r for h, r in link_ranks.items() if r > 0}
        if ranks:
            table.append((s, ranks))
    return tuple(table)


def _join_tables(first, second) -> list:
    """The link table of a join from those of its two factors: faces are
    unions, and for each pair of entries ``e`` adds and ranks multiply."""
    table = []
    for s, a in first:
        for t, b in second:
            ranks: dict = {}
            for e1, r1 in a.items():
                for e2, r2 in b.items():
                    ranks[e1 + e2] = ranks.get(e1 + e2, 0) + r1 * r2
            table.append((s | t, ranks))
    return table


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _profile(complex: SimplicialComplex, field) -> tuple:
    """The window-independent contribution profile ``(contrib, contrib_faces)``.

    ``contrib[i][s]`` sums the link homology ranks of size-s faces
    contributing to index i; ``contrib_faces[i]`` lists those faces with
    their ranks, by size, then lexicographically. Link homology is computed
    on the finest join factors only: a face of a join K * L is s | t with
    link lk s * lk t, whose reduced homology over a field is the shifted
    tensor product of the two (docs/math-notes.md §4). Cached per
    (complex, field): callers only read it, and windows copy it.
    """
    if len(complex.vertices) > VERTEX_BOUND:
        raise LimitExceeded(
            f"{len(complex.vertices)} vertices exceed the bound {VERTEX_BOUND}"
        )
    tables = [_link_table(factor, field) for factor in _join_factors(complex)]
    # with no vertices, the complex is {empty}, the unit of the join
    table = reduce(_join_tables, tables) if tables else [(frozenset(), {0: 1})]
    contrib: dict = {}
    contrib_faces: dict = {}
    for s, ranks in sorted(table, key=lambda item: (len(item[0]), sorted(item[0]))):
        for e, rank in sorted(ranks.items()):
            i = e + len(s)
            contrib.setdefault(i, {})
            contrib[i][len(s)] = contrib[i].get(len(s), 0) + rank
            contrib_faces.setdefault(i, []).append((s, rank))
    return contrib, contrib_faces


def local_cohomology_window(complex: SimplicialComplex, field) -> CohomologyWindow:
    """Graded local cohomology of the face ring, as a window on its cached
    contribution profile."""
    contrib, contrib_faces = _profile(complex, field)
    return CohomologyWindow(complex.dim + 1, contrib, contrib_faces)


@dataclass(frozen=True)
class SRInvariants:
    """Homological invariants of a face ring over a given field."""

    dim: int
    depth: int
    a_invariant: Optional[int]  # None would mean vanishing top cohomology
    cm: bool
    gencm: bool
    field_name: str


def sr_invariants(complex: SimplicialComplex, field) -> SRInvariants:
    contrib, _ = _profile(complex, field)
    d = complex.dim + 1
    nonzero = [i for i in range(0, d + 1) if contrib.get(i)]
    depth = min(nonzero) if nonzero else d
    profile_top = contrib.get(d, {})
    if not profile_top:
        a_inv = None
    elif 0 in profile_top:
        a_inv = 0
    else:
        a_inv = -min(s for s in profile_top if s >= 1)
    gencm = all(s == 0 for i in range(0, d) for s in contrib.get(i, {}))
    return SRInvariants(
        dim=d,
        depth=depth,
        a_invariant=a_inv,
        cm=depth == d,
        gencm=gencm,
        field_name=field.name,
    )


def top_minimal_primes(complex: SimplicialComplex) -> list:
    """For each top-dimensional facet F, the variable set off F.

    These index the minimal primes of top dimension of the face ring: the
    prime of F is generated by the variables not in F.
    """
    top = complex.dim + 1
    out = []
    for f in complex.facets:
        if len(f) == top:
            out.append(tuple(sorted(set(complex.vertices) - f)))
    return out
