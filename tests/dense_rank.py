"""Dense Gaussian elimination over an exact field.

The oracle for the sparse boundary rank in ``gradealg.simplicial``: row
lists of field elements (``Fraction`` over Q, int residues over GF(p)),
reduced to echelon form column by column. Each pivot is inverted through
``field.from_fraction`` and each new entry reduced through ``field(...)``,
so the route shares no elimination code with ``simplicial._rank``.
"""


def field_rank(rows: list, field) -> int:
    """Rank of a dense matrix (list of row lists) over an exact field."""
    if not rows or not rows[0]:
        return 0
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.from_fraction(1, rows[rank][col])
        rows[rank] = [field(x * inv) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [field(a - factor * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def boundary_matrices(complex) -> dict:
    """Integer boundary matrices of the augmented chain complex.

    ``out[i]`` maps i-faces to (i-1)-faces as a dense list of rows, one row
    per i-face, both sides in sorted order.
    """
    by_dim: dict = {}
    for f in complex.faces():
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for fs in by_dim.values():
        fs.sort()
    out = {}
    for i in range(0, complex.dim + 1):
        index = {g: k for k, g in enumerate(by_dim.get(i - 1, []))}
        mat = []
        for f in by_dim.get(i, []):
            row = [0] * len(index)
            for k in range(len(f)):
                row[index[f[:k] + f[k + 1 :]]] = (-1) ** k
            mat.append(row)
        out[i] = mat
    return out


def dense_homology_ranks(complex, field) -> dict:
    """Reduced homology ranks, indexed -1..dim, by dense elimination."""
    mats = boundary_matrices(complex)
    ranks = {
        i: field_rank([[field(v) for v in row] for row in mat], field)
        for i, mat in mats.items()
    }
    chains = {}
    for f in complex.faces():
        chains[len(f) - 1] = chains.get(len(f) - 1, 0) + 1
    return {
        i: chains.get(i, 0) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in range(-1, complex.dim + 1)
    }
