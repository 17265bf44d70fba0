"""Face-by-face oracles for the face-ring contribution profile.

``direct_profile`` is the oracle for ``gradealg.simplicial._profile``,
which computes link homology on the finest join factors only and
multiplies their profiles: this is the per-face loop over the whole
complex that it replaced. ``adic_a_invariant`` is the oracle for the
``a_adic`` of ``decide_cm_rees``, which reads a(A1) off the B-factor: it
weights the faces of the whole complex instead (docs/math-notes.md §6).
"""

from gradealg.simplicial import reduced_homology_ranks


def _contributions(complex, field):
    """``(index, face, rank)`` for every face with nonzero link homology,
    faces by size, then lexicographically."""
    for s in sorted(complex.faces(), key=lambda f: (len(f), sorted(f))):
        link_ranks = reduced_homology_ranks(complex.link(s), field)
        for hom_index, rank in link_ranks.items():
            if rank > 0:
                yield hom_index + len(s) + 1, s, rank


def direct_profile(complex, field) -> dict:
    """``contrib`` from the link of every face, in the canonical order:
    indices ascending, and sizes ascending within an index."""
    contrib: dict = {}
    for i, s, rank in _contributions(complex, field):
        row = contrib.setdefault(i, {})
        row[len(s)] = row.get(len(s), 0) + rank
    return {i: dict(sorted(row.items())) for i, row in sorted(contrib.items())}


def adic_a_invariant(complex, b, field):
    """Top t-degree of the ideal-adic weighting on top local cohomology.

    Each face contributing to H^dim(A) is weighted by the size of its
    intersection with B; the invariant is minus the least weight, and it
    is negative exactly when every contributing face meets B. None when
    the top cohomology vanishes (impossible for a face ring).
    """
    b = frozenset(b)
    top = complex.dim + 1
    weights = [len(s & b) for i, s, _ in _contributions(complex, field) if i == top]
    return -min(weights) if weights else None
