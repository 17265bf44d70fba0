"""The relation check on associated graded presentations, kept as an oracle.

``is_graded_relation`` decides, downstairs in the base ring, whether a
bihomogeneous polynomial of the presentation ring is a relation of the
associated graded ring: it substitutes Y_i -> f_i with ``map_into``, a
general ring map, and tests membership one adic level deeper. It shares
no code with the elimination route of ``gradealg.blowup`` beyond the
Groebner engine, so it checks every generator that route produces.
"""

from typing import NamedTuple, Optional, Sequence

from gradealg.errors import AmbientMismatch
from gradealg.groebner import Ideal, ideal_member, ideal_power, ideal_sum
from gradealg.polynomials import PolyRing, Polynomial


class Bidegree(NamedTuple):
    x_degree: int
    y_degree: int


def bidegree(p: Polynomial, x_indices, y_indices) -> Optional[Bidegree]:
    """Bidegree w.r.t. a variable split, or None if not bihomogeneous.

    x_indices and y_indices must partition the ring's variables.
    """
    xs, ys = set(x_indices), set(y_indices)
    if xs & ys or xs | ys != set(range(p.ring.nvars)):
        raise ValueError("variable split must partition the ring variables")
    if not p.terms:
        return None
    pairs = {(sum(m[i] for i in xs), sum(m[i] for i in ys)) for m in p.terms}
    if len(pairs) != 1:
        return None
    return Bidegree(*pairs.pop())


def map_into(p: Polynomial, target: PolyRing, images: Sequence[Polynomial]) -> Polynomial:
    """Ring map sending variable i to images[i] (a target polynomial)."""
    if len(images) != p.ring.nvars:
        raise ValueError("need one image per variable")
    if target.field != p.ring.field:
        raise AmbientMismatch("ring map must preserve the field")
    out = target.zero
    for m, c in p.terms.items():
        piece = target.constant(c)
        for i, e in enumerate(m):
            if e:
                piece = piece * images[i] ** e
        out = out + piece
    return out


def is_graded_relation(g: Polynomial, J: Ideal, f: Sequence[Polynomial]) -> bool:
    """Check that g names a genuine relation of the associated graded ring.

    g lives in the presentation ring on X- and Y-variables and must be
    bihomogeneous there. With d its Y-weight, the test substitutes Y_i -> f_i
    and asks whether the result falls one adic level deeper, i.e. into
    I^(d+1) + J. Relations of weight zero land in I + J.
    """
    S, f = J.ring, tuple(f)
    n, m = S.nvars, len(f)
    if g.ring.nvars != n + m:
        raise ValueError("relation must live in the presentation ring")
    bideg = bidegree(g, range(n), range(n, n + m))
    if bideg is None:
        raise ValueError(f"{g} is not bihomogeneous in the variable split")
    d = bideg.y_degree
    substituted = map_into(g, S, [S.var(i) for i in range(n)] + list(f))
    target = ideal_sum(ideal_power(Ideal(S, f), d + 1, bound=d + 1), J)
    return ideal_member(substituted, target)
