"""The face-ring contribution profile, one link homology per face.

The oracle for ``gradealg.simplicial._profile``, which computes link
homology on the finest join factors only and combines their tables: this
is the per-face loop over the whole complex that it replaced.
"""

from gradealg.simplicial import reduced_homology_ranks


def direct_profile(complex, field) -> tuple:
    """``(contrib, contrib_faces)`` from the link of every face."""
    contrib: dict = {}
    contrib_faces: dict = {}
    for s in sorted(complex.faces(), key=lambda f: (len(f), sorted(f))):
        link_ranks = reduced_homology_ranks(complex.link(s), field)
        for hom_index, rank in link_ranks.items():
            if rank <= 0:
                continue
            i = hom_index + len(s) + 1
            contrib.setdefault(i, {})
            contrib[i][len(s)] = contrib[i].get(len(s), 0) + rank
            contrib_faces.setdefault(i, []).append((s, rank))
    return contrib, contrib_faces
