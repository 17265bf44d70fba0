"""Simplicial complexes and graded local cohomology of their face rings.

The graded pieces of local cohomology of a face ring k[D] are assembled from
reduced homology of face links: a face s with link homology rank r in
(cohomological) index i = |s| + 1 + (homology index) contributes

    r * C(-j-1, |s|-1)   to dimension at every internal degree j <= -|s|,

while the empty face contributes its rank at degree 0 only. A link's
facets are the F - s of the facets F containing s, so a link is built with
no facet comparison. Homology ranks need no matrix for a cone (acyclic) or
below dimension 2 (the rank of the boundary from edges to vertices is the
vertex count less the number of components); the boundary matrices from
dimension 2 up go through sparse elimination, on ints mod p over GF(p)
and fraction-free over the integers for Q, so everything downstream of
this module is exact as well. The per-index contribution profile
``{index: {face size: rank}}`` does not depend on any degree window: it is
computed once per (complex, field), and a ``CohomologyWindow`` is a view of
it that answers dimension queries at any degree. Link homology is computed
on the finest join factors only, and the profile of a join is the product
of its factors' profiles (indices add, sizes add, ranks multiply): the same
product that gives the profile of a tensor product of modules in
``rees_cohomology``.

Vanishing flags fall out of the same profile. A nonempty contributing face
of size s forces nonzero dimensions at every degree <= -s, and size-1 faces
reach degree -2; so for a face ring, "finite length", "concentrated in
degree 0" and "zero in all degrees <= -2" are all equivalent to "only the
empty face contributes".
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import comb, gcd
from typing import Iterable, NamedTuple, Optional

from .errors import LimitExceeded
from .groebner import Ideal

VERTEX_BOUND = 12
PROFILE_CACHE_SIZE = 128
# The most facet subsets ``minimal_nonfaces`` may visit, the sum of 2^|F|
# over the facets F. Every complex on VERTEX_BOUND vertices fits: by the LYM
# inequality the sum is at most C(12, 8) * 2^8 = 126,720.
FACE_BUDGET = 2**20


class SimplicialComplex:
    """A finite simplicial complex held by its facets.

    ``vertices`` is the ambient vertex set (sorted labels); facets are
    frozensets of labels. The complex whose only face is the empty set is
    allowed (give no facets); the void complex with no faces at all is not
    representable. A label missing from every facet is an ambient vertex
    whose singleton is a non-face. The minimal non-faces are computed
    on the first call of ``minimal_nonfaces`` and kept; equality and the
    hash read only the vertices and facets.
    """

    __slots__ = ("vertices", "facets", "_nonfaces")

    def __init__(self, vertices: Iterable[int], facets: Iterable[Iterable[int]]):
        vertices = tuple(sorted(set(vertices)))
        vset = set(vertices)
        cleaned = set()
        for f in facets:
            f = frozenset(f)
            if not f <= vset:
                raise ValueError(f"facet {sorted(f)} outside the vertex set")
            cleaned.add(f)
        # a facet is kept unless it lies in a larger kept one
        maximal: list = []
        for f in sorted(cleaned, key=len, reverse=True):
            if not any(f < g for g in maximal):
                maximal.append(f)
        self._set(vertices, maximal or [frozenset()])

    def _set(self, vertices: tuple, maximal: list) -> None:
        """Hold these sorted vertices and maximal facets, the facets sorted
        by size, then lexicographically."""
        self.vertices = vertices
        self.facets = tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))
        self._nonfaces = None

    @classmethod
    def from_ideal(cls, J: Ideal) -> "SimplicialComplex":
        """Complex whose non-faces are the generator supports of J.

        J must be generated by nonconstant squarefree monomials: a constant
        generator makes J the unit ideal and A = 0, which is no face ring.
        The vertex labels are the variable indices of J's ring.
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
            if not any(mon):
                raise ValueError(f"J contains the unit {g}, so A = 0")
            supports.append(frozenset(i for i, e in enumerate(mon) if e))
        faces = {
            s
            for size in range(n + 1)
            for s in map(frozenset, combinations(range(n), size))
            if not any(ns <= s for ns in supports)
        }
        # faces are closed under subsets, so a face is a facet exactly when
        # no one vertex extends it; only those reach __init__'s scan
        facets = [s for s in faces if all(s | {v} not in faces for v in set(range(n)) - s)]
        return cls(range(n), facets)

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
        lexicographically (``_minimal_nonfaces``). Computed on the first
        call and kept; callers only read the list."""
        if self._nonfaces is None:
            self._nonfaces = _minimal_nonfaces(self.vertices, self.facets)
        return self._nonfaces

    def has_face(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets)

    def link(self, s: Iterable[int]) -> "SimplicialComplex":
        """The link of a face s. Its facets are the F - s for the facets
        F containing s, maximal already, so no facet is compared."""
        s = frozenset(s)
        facets = [f - s for f in self.facets if s <= f]
        if not facets:
            raise ValueError(f"{sorted(s)} is not a face")
        link = SimplicialComplex.__new__(SimplicialComplex)
        link._set(tuple(v for v in self.vertices if v not in s), facets)
        return link

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


def _minimal_nonfaces(vertices: tuple, facets: tuple) -> list:
    """The minimal non-faces of the complex with these vertices and facets.

    Faces are bitmasks over vertex positions. A minimal non-face is a face
    plus one vertex past its largest whose other one-smaller subsets are
    faces too, so each is found once, from its face without the largest
    vertex. Facets with more than ``FACE_BUDGET`` subsets in all raise
    ``LimitExceeded`` before any is visited.
    """
    visits = sum(1 << len(f) for f in facets)
    if visits > FACE_BUDGET:
        raise LimitExceeded(f"{visits} facet subsets exceed the face budget {FACE_BUDGET}")
    pos = {v: k for k, v in enumerate(vertices)}
    faces = set()
    for f in facets:
        mask = sub = sum(1 << pos[v] for v in f)
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    found = []
    for f in faces:
        for k in range(f.bit_length(), len(vertices)):
            s = f | (1 << k)
            if s in faces:
                continue
            rest = f  # the vertices whose removal from s is left to check
            while rest and s ^ (rest & -rest) in faces:
                rest &= rest - 1
            if not rest:
                found.append(tuple(v for i, v in enumerate(vertices) if s >> i & 1))
    return sorted(found, key=lambda s: (len(s), s))


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
    index -1 and any nonempty complex has rank zero there. Only the
    boundary maps from dimension 2 up are eliminated (docs/math-notes.md
    §2): a cone, whose facets share a vertex, is acyclic; the augmentation
    has rank one on a nonempty complex; and the rank of the boundary from
    edges to vertices is the number of vertices less the number of
    connected components, counted here as the edges that join two
    components.
    """
    top = complex.dim
    if top >= 0 and frozenset.intersection(*complex.facets):
        return dict.fromkeys(range(-1, top + 1), 0)
    by_dim: dict = {}
    for f in complex.facets:
        f = sorted(f)
        for size in range(len(f) + 1):
            by_dim.setdefault(size - 1, set()).update(combinations(f, size))

    root = {v: v for (v,) in by_dim.get(0, ())}
    joins = 0
    for edge in by_dim.get(1, ()):
        u, v = (_root(root, x) for x in edge)
        if u != v:
            root[u] = v
            joins += 1
    boundary_rank = {0: int(bool(root)), 1: joins}
    for i in range(2, top + 1):
        cols = {f: k for k, f in enumerate(sorted(by_dim[i - 1]))}
        rows = (
            {cols[f[:k] + f[k + 1 :]]: (-1) ** k for k in range(len(f))}
            for f in sorted(by_dim[i])
        )
        boundary_rank[i] = _rank(rows, field.characteristic)

    return {
        i: len(by_dim.get(i, ())) - boundary_rank.get(i, 0) - boundary_rank.get(i + 1, 0)
        for i in range(-1, top + 1)
    }


def _root(root: dict, v):
    """The representative of v's component, halving the path to it."""
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


class IndexFlags(NamedTuple):
    is_zero: bool
    finite_length: bool
    vanishes_below_minus_one: bool


class CohomologyWindow:
    """Graded dimensions of local cohomology, read off a per-index
    contribution profile: ``contrib[i]`` maps a face size s to a positive
    rank r. The window keeps its own copy of it.

    ``dim_at`` and ``flag`` are exact at every degree; ``window_table``
    renders a band of degrees.
    """

    def __init__(self, max_index: int, contrib: dict):
        self.max_index = max_index
        self.contrib = {i: dict(c) for i, c in contrib.items()}

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
def _factor_profile(complex: SimplicialComplex, field) -> dict:
    """The contribution profile of one join factor, by one link homology
    per face: a face s with link homology rank r in index h adds r to size
    |s| of index |s| + h + 1. Cached per (complex, field) so a join factor
    shared by several complexes is computed once."""
    contrib: dict = {}
    for s in complex.faces():
        for h, r in reduced_homology_ranks(complex.link(s), field).items():
            if r > 0:
                row = contrib.setdefault(len(s) + h + 1, {})
                row[len(s)] = row.get(len(s), 0) + r
    return contrib


def _profile_product(first: dict, second: dict) -> dict:
    """The profile of a join K * L, or of a tensor product M (x) N, from
    the profiles of its two factors: indices add, sizes add, ranks multiply
    (docs/math-notes.md §4). Indices ascend, and sizes ascend within an
    index."""
    product: dict = {}
    for i, left in first.items():
        for j, right in second.items():
            row = product.setdefault(i + j, {})
            for s, r in left.items():
                for t, u in right.items():
                    row[s + t] = row.get(s + t, 0) + r * u
    return {i: dict(sorted(row.items())) for i, row in sorted(product.items())}


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _profile(complex: SimplicialComplex, field) -> dict:
    """The window-independent contribution profile: ``contrib[i][s]`` sums
    the link homology ranks of size-s faces contributing to index i.

    Link homology is computed on the finest join factors only: a face of a
    join K * L is s | t with link lk s * lk t, whose reduced homology over
    a field is the shifted tensor product of the two (docs/math-notes.md
    §4), so the profile is the product of the factor profiles. Its unit,
    the profile of the complex {empty} with no vertices, is one size-0 rank
    in index 0. Cached per (complex, field): callers only read it, and
    windows copy it.
    """
    if len(complex.vertices) > VERTEX_BOUND:
        raise LimitExceeded(
            f"{len(complex.vertices)} vertices exceed the bound {VERTEX_BOUND}"
        )
    factors = (_factor_profile(factor, field) for factor in _join_factors(complex))
    return reduce(_profile_product, factors, {0: {0: 1}})


def local_cohomology_window(complex: SimplicialComplex, field) -> CohomologyWindow:
    """Graded local cohomology of the face ring, as a window on its cached
    contribution profile."""
    return CohomologyWindow(complex.dim + 1, _profile(complex, field))


class SRInvariants(NamedTuple):
    """Homological invariants of a face ring over a given field."""

    dim: int
    depth: int
    a_invariant: Optional[int]  # None would mean vanishing top cohomology
    cm: bool
    gencm: bool


def sr_invariants(complex: SimplicialComplex, field) -> SRInvariants:
    """Depth and generalized CM read off the window's vanishing flags; the
    a-invariant is the top degree of its top index."""
    window = local_cohomology_window(complex, field)
    d = window.max_index
    depth = next((i for i in window.indices() if not window.flag(i).is_zero), d)
    # a size-s entry reaches degree -s, the size-0 entry degree 0
    profile_top = window.contrib.get(d)
    a_inv = -min(profile_top) if profile_top else None
    gencm = all(window.flag(i).finite_length for i in range(0, d))
    return SRInvariants(
        dim=d,
        depth=depth,
        a_invariant=a_inv,
        cm=depth == d,
        gencm=gencm,
    )

