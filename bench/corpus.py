"""The benchmark's request corpus and its seeded relabelling.

Each workload is a fixed list of base requests. A seed relabels it and
shuffles it, so work stays the same from seed to seed while the inputs
the program sees change:

* variable names, which name the vertices of a complex given by facets,
  are permuted among the ring positions. Positions stay fixed, so every
  monomial order and face order, and with them every reduced basis and
  every boundary matrix, are the same up to the renaming. (Permuting the
  vertex positions instead changed the cost of one exact rank over Q by
  up to a quarter, with the labels alone.)
* ``J`` generators, library generators, facets, facet members and, for
  complexes, ``I`` generators are shuffled;
* the request order of the whole pass is shuffled.

Seed 0 keeps every label and generator order of the base corpus, so its
reports can be compared byte for byte with the captured references.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

# Minimal 6-vertex triangulation of the real projective plane (1-based).
RP2 = (
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
)
CYCLE4 = ((7, 8), (8, 9), (9, 10), (7, 10))
GF_P = "GF(32003)"
WORKLOADS = ("face_ring", "rees_split", "blowup_algebra")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Request:
    """One request of a pass.

    ``key`` names the base request and its reference; it is the same at
    every seed. ``kind`` is ``cli`` (``gradealg.cli.main``) or ``lib`` (a
    public library call). ``spec`` is the problem description the program
    receives; ``flags`` are extra command-line arguments.
    """

    key: str
    kind: str
    command: str
    spec: dict
    flags: tuple = ()


def xs(n: int) -> list:
    return [f"x{i}" for i in range(1, n + 1)]


def cross_polytope(k: int) -> list:
    """Facets of the boundary of the k-dimensional cross-polytope.

    Vertices i and i + k form the i-th antipodal pair (1-based).
    """
    return [
        [i + 1 + k * b for i, b in enumerate(bits)]
        for bits in itertools.product((0, 1), repeat=k)
    ]


def pairs(k: int, count: int) -> list:
    """Variables of the first ``count`` antipodal pairs of a cross-polytope."""
    return [f"x{v}" for i in range(1, count + 1) for v in (i, i + k)]


def facets_spec(n: int, facets, I, field: str = "Q", **options) -> dict:
    spec = {"field": field, "variables": xs(n), "facets": [list(f) for f in facets], "I": list(I)}
    if options:
        spec["options"] = options
    return spec


def poly_spec(variables, J, I, field: str = "Q", **options) -> dict:
    spec = {"field": field, "variables": list(variables), "J": list(J), "I": list(I)}
    if options:
        spec["options"] = options
    return spec


def minors(top, bottom) -> list:
    """2x2 minors of the 2-row matrix with the given rows of names."""
    return [
        f"{top[a]}*{bottom[b]} - {top[b]}*{bottom[a]}"
        for a, b in itertools.combinations(range(len(top)), 2)
    ]


def cyclic(n: int) -> tuple:
    """Homogenized cyclic-n: variables and generators."""
    v = xs(n)
    gens = [
        " + ".join("*".join(v[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    gens.append("*".join(v) + f" - h^{n}")
    return v + ["h"], gens


def katsura(n: int) -> tuple:
    """Homogenized katsura-n: variables u0..un plus h, and generators."""
    u = [f"u{i}" for i in range(n + 1)]

    def at(i):
        return u[abs(i)] if abs(i) <= n else None

    gens = []
    for m in range(n):
        terms = [
            f"{at(l)}*{at(m - l)}"
            for l in range(-n, n + 1)
            if at(l) and at(m - l)
        ]
        gens.append(" + ".join(terms) + f" - {u[m]}*h")
    gens.append(" + ".join([u[0]] + [f"2*{x}" for x in u[1:]]) + " - h")
    return u + ["h"], gens


def _cli(key, command, spec, *flags, copies=1):
    return [(Request(key, "cli", command, spec, tuple(flags)), copies)]


def _face_ring() -> list:
    complexes = [
        ("cross6", 6, cross_polytope(3), ("Q", "GF(2)"), 3),
        ("cross8", 8, cross_polytope(4), ("Q", "GF(2)", "GF(3)"), 3),
        ("cross10", 10, cross_polytope(5), ("Q", "GF(2)", "GF(3)"), 2),
        ("rp2", 6, RP2, ("Q", "GF(2)", "GF(3)"), 3),
        ("cone_rp2", 7, [f + (7,) for f in RP2], ("Q", "GF(2)", "GF(3)"), 3),
        ("path", 3, [(1, 3), (2, 3)], ("Q", "GF(2)"), 3),
        ("edge", 2, [(1, 2)], ("Q", "GF(3)"), 3),
    ]
    # The 90th percentile falls among these requests; more copies of them
    # steady it.
    extra_dim = {("cross10", "GF(2)"): 2, ("cross10", "GF(3)"): 2}
    out = []
    for name, n, facets, fields, copies in complexes:
        for field in fields:
            spec = facets_spec(n, facets, xs(n), field)
            out += _cli(f"{name}.cohomology_A.{field}", "cohomology", spec, "--module", "A", copies=copies)
            dim_copies = copies + extra_dim.get((name, field), 0)
            out += _cli(f"{name}.dim.{field}", "dim", spec, copies=dim_copies)
    return out


def _rees_split() -> list:
    join = [f + e for f in RP2 for e in CYCLE4]
    out = []
    for field in ("GF(2)", "GF(3)"):
        # B = the RP2 vertices for the cohomology; the split decision is
        # made with B = the cycle, as B = RP2 takes seconds to eliminate.
        spec = facets_spec(10, join, xs(6), field)
        out += _cli(f"rp2_join_c4.gencm.{field}", "gencm", spec)
        out += _cli(f"rp2_join_c4.cohomology_R.{field}", "cohomology", spec, "--module", "R")
        spec = facets_spec(10, join, xs(10)[6:], field)
        out += _cli(f"rp2_join_c4.check_iso_cycle.{field}", "check-iso", spec, copies=2)
    for k, count, fields, copies in (
        (3, 1, ("Q", "GF(2)"), 3),
        (3, 2, ("Q", "GF(2)"), 3),
        (4, 1, ("Q", "GF(2)"), 2),
        (4, 2, ("Q", "GF(2)"), 2),
        (5, 1, ("GF(2)", "GF(3)"), 1),
    ):
        for field in fields:
            spec = facets_spec(2 * k, cross_polytope(k), pairs(k, count), field)
            key = f"cross{2 * k}_pairs{count}"
            out += _cli(f"{key}.gencm.{field}", "gencm", spec, copies=copies)
            out += _cli(f"{key}.cohomology_R.{field}", "cohomology", spec, "--module", "R", copies=copies)
            out += _cli(f"{key}.check_iso.{field}", "check-iso", spec, copies=copies)
    for field in ("Q", "GF(2)"):
        path = facets_spec(3, [(1, 3), (2, 3)], ["x1", "x2"], field)
        edge = facets_spec(2, [(1, 2)], ["x1"], field)
        for name, spec in (("path", path), ("edge", edge)):
            out += _cli(f"{name}.gencm.{field}", "gencm", spec, copies=3)
            out += _cli(f"{name}.cohomology_R.{field}", "cohomology", spec, "--module", "R", copies=3)
            out += _cli(f"{name}.check_iso.{field}", "check-iso", spec, copies=3)
        split = poly_spec(xs(3), ["x1*x2", "x3^2"], ["x1", "x2"], field)
        out += _cli(f"split.check_iso.{field}", "check-iso", split, copies=3)
    return out


def _blowup_algebra() -> list:
    v4, v5, v6, v8 = xs(4), xs(5), xs(6), xs(8)
    cubic = minors(v4[:3], v4[1:])
    quartic = minors(v5[:4], v5[1:])
    m23 = minors(v6[:3], v6[3:])
    m24 = minors(v8[:4], v8[4:])
    six = ["x1*x2", "x3*x4 - x5*x6"]
    out = []
    # The 90th percentile falls among the twisted cubic hilbert and the
    # katsura-4 requests; they have copies enough to steady it.
    for field in ("Q", GF_P):
        tc = poly_spec(v4, cubic, v4, field, level_bound=3, degree_bound=4)
        out += _cli(f"twisted_cubic.presentation.{field}", "presentation", tc, copies=2)
        out += _cli(f"twisted_cubic.check_iso.{field}", "check-iso", tc, copies=2)
        out += _cli(f"twisted_cubic.hilbert.{field}", "hilbert", tc, copies=4)
        m23_row = poly_spec(v6, m23, v6[:3], field, level_bound=3, degree_bound=4)
        out += _cli(f"minors23_row.presentation.{field}", "presentation", m23_row, copies=3)
        out += _cli(f"minors23_row.hilbert.{field}", "hilbert", m23_row, copies=2)
        out += _cli(f"minors23_row.check_iso.{field}", "check-iso", m23_row, copies=2)
        m24_row = poly_spec(v8, m24, v8[:4], field, level_bound=3, degree_bound=4)
        out += _cli(f"minors24_row.presentation.{field}", "presentation", m24_row)
        out += _cli(f"minors24_row.check_iso.{field}", "check-iso", m24_row, copies=2)
        sixv = poly_spec(v6, six, ["x1", "x2", "x3"], field, level_bound=5, degree_bound=5)
        out += _cli(f"six.presentation.{field}", "presentation", sixv, copies=4)
        out += _cli(f"six.check_iso.{field}", "check-iso", sixv, copies=2)
        two = poly_spec(["x1", "x2"], ["x1*x2"], ["x1", "x2"], field, level_bound=5, degree_bound=5)
        split = poly_spec(xs(3), ["x1*x2", "x3^2"], ["x1", "x2"], field)
        notsplit = poly_spec(["x1", "x2"], ["x1*x2"], ["x1"], field)
        for name, spec in (("twopoints", two), ("split", split), ("notsplit", notsplit)):
            out += _cli(f"{name}.presentation.{field}", "presentation", spec, copies=7)
            out += _cli(f"{name}.check_iso.{field}", "check-iso", spec, copies=7)
        out += _cli(f"twopoints.hilbert.{field}", "hilbert", two, copies=5)
    out += _cli("rational_quartic.presentation.Q", "presentation", poly_spec(v5, quartic, v5))
    out += _cli(f"rational_quartic.check_iso.{GF_P}", "check-iso", poly_spec(v5, quartic, v5, GF_P))
    out += _cli("minors23.presentation.Q", "presentation", poly_spec(v6, m23, v6))
    out += _cli("six.hilbert.Q", "hilbert", poly_spec(v6, six, ["x1", "x2", "x3"], level_bound=5, degree_bound=5))
    for name, (variables, gens), fields, copies in (
        ("cyclic5", cyclic(5), ("Q", GF_P), 1),
        ("katsura4", katsura(4), ("Q", GF_P), 4),
        ("katsura5", katsura(5), (GF_P,), 1),
    ):
        for field in fields:
            spec = {"field": field, "variables": variables, "generators": gens}
            out.append((Request(f"{name}.groebner_basis.{field}", "lib", "groebner_basis", spec), copies))
    # Budget probes: valid inputs that must stop with exit 2 under a work
    # budget. Neither does at present, so each runs into the request limit.
    v12 = xs(12)
    out += _cli(
        "probe.hilbert_budget", "hilbert",
        poly_spec(v12, ["x1*x2"], v12, level_bound=16, degree_bound=20),
    )
    out += _cli(
        "probe.parser_power", "dim",
        poly_spec(["x", "y", "z", "w", "v"], ["(x + y + z + w + v)^60"], ["x"]),
    )
    return out


_BUILDERS = {
    "face_ring": _face_ring,
    "rees_split": _rees_split,
    "blowup_algebra": _blowup_algebra,
}


def base_corpus(workload: str) -> list:
    """The workload's base requests, each with its copy count in a pass."""
    return _BUILDERS[workload]()


def _rename(text: str, names: dict) -> str:
    return _NAME.sub(lambda m: names.get(m.group(0), m.group(0)), text)


def relabel(request: Request, rng: random.Random) -> Request:
    """The request with names permuted and generators shuffled by ``rng``."""
    spec = dict(request.spec)
    variables = list(spec["variables"])
    shuffled = list(variables)
    rng.shuffle(shuffled)
    names = dict(zip(variables, shuffled))
    spec["variables"] = shuffled
    for field in ("J", "I", "generators"):
        if field in spec:
            spec[field] = [_rename(t, names) for t in spec[field]]
    for field in ("J", "generators"):
        if field in spec:
            rng.shuffle(spec[field])
    if "facets" in spec:
        facets = [rng.sample(f, len(f)) for f in spec["facets"]]
        rng.shuffle(facets)
        spec["facets"] = facets
        rng.shuffle(spec["I"])  # B is the sorted variable set of I
    return Request(request.key, request.kind, request.command, spec, request.flags)


def build_pass(workload: str, seed: int) -> list:
    """The seeded request list of one pass over the workload."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for request, copies in base_corpus(workload):
        request = request if seed == 0 else relabel(request, rng)
        out += [request] * copies
    rng.shuffle(out)
    return out
