"""Single-request rows for the ROADMAP baseline table, from traced runs.

``python3 bench/run.py --baseline`` runs each row once in a traced child,
as the benchmark runs any request, and writes ``bench/baseline.json``
with the row's latency, its largest self times and its work counts, next
to the figure the ROADMAP gives. It also repeats two requests untraced to
record how much one request's latency spreads on this machine.
"""

from __future__ import annotations

import json
import platform
import time

import corpus
import runner
import tracing
from corpus import Request, cross_polytope, facets_spec, pairs, xs

ROW_LIMIT_S = 120.0
SPREAD_REPEATS = 8


def _cyclic5(field: str) -> Request:
    variables, gens = corpus.cyclic(5)
    spec = {"field": field, "variables": variables, "generators": gens}
    return Request(f"cyclic5.groebner_basis.{field}", "lib", "groebner_basis", spec)


def _cross12_window(field: str) -> Request:
    spec = facets_spec(12, cross_polytope(6), xs(12), field)
    return Request(f"cross12.local_cohomology_window.{field}", "lib", "local_cohomology_window", spec)


# (ROADMAP row, what the ROADMAP measured, request)
ROWS = (
    (
        "local_cohomology_window, 12-vertex cross-polytope, Q",
        "6.8-8.7 s; ~90% in Fraction ops inside dense _field_rank",
        _cross12_window("Q"),
    ),
    (
        "local_cohomology_window, 12-vertex cross-polytope, GF(2)",
        "1.7-1.9 s; GFElement ops in dense _field_rank",
        _cross12_window("GF(2)"),
    ),
    ("buchberger, homogenized cyclic-5, Q", "0.6 s", _cyclic5("Q")),
    ("buchberger, homogenized cyclic-5, GF(32003)", "0.5 s", _cyclic5(corpus.GF_P)),
    (
        "gencm, 8-vertex cross-polytope, B = 2 vertex pairs",
        "0.23 s; 12 window builds, 396 link-homology runs, 99 distinct complexes",
        Request(
            "cross8_pairs2.gencm.Q", "cli", "gencm",
            facets_spec(8, cross_polytope(4), pairs(4, 2)),
        ),
    ),
    (
        "Rees algebra of the twisted cubic at I = m",
        "not in the table (ROADMAP item 1 corpus)",
        Request(
            "twisted_cubic.presentation.Q", "cli", "presentation",
            corpus.poly_spec(xs(4), corpus.minors(xs(4)[:3], xs(4)[1:]), xs(4)),
        ),
    ),
)

# Requests repeated untraced to measure one request's latency spread.
SPREAD = (
    Request(
        "cross10.cohomology_A.Q", "cli", "cohomology",
        facets_spec(10, cross_polytope(5), xs(10)), ("--module", "A"),
    ),
    Request("rp2.cohomology_A.Q", "cli", "cohomology", facets_spec(6, corpus.RP2, xs(6)), ("--module", "A")),
)

_COUNTS = (
    "simplicial.window_calls",
    "simplicial.homology_calls",
    "simplicial.homology_distinct",
    "groebner.gb_calls",
    "groebner.buchberger_calls",
    "groebner.basis_polys",
    "groebner.normal_form_calls",
)


def _row(workdir, label: str, roadmap: str, request: Request) -> dict:
    (paths,) = workdir.prepare([request])
    outcome = runner.run(request, paths, ROW_LIMIT_S, tracing.Tracer())
    if outcome.killed or outcome.exit_code not in (0, 3):
        raise RuntimeError(f"{request.key} did not finish cleanly")
    layers = tracing.layer_metrics([(outcome.latency_s, outcome.spans["spans"])])
    own = sorted(
        ((k, v) for k, v in layers.items() if k.endswith("_s") and "." in k and v > 0),
        key=lambda kv: -kv[1],
    )
    return {
        "row": label,
        "request": request.key,
        "roadmap": roadmap,
        "traced_latency_s": round(outcome.latency_s, 4),
        "top_self_times_s": {k: round(v, 4) for k, v in own[:4]},
        "counts": {k: layers[k] for k in _COUNTS if layers[k]},
    }


def _spread(workdir, request: Request) -> dict:
    (paths,) = workdir.prepare([request])
    times = []
    for _ in range(SPREAD_REPEATS):
        outcome = runner.run(request, paths, ROW_LIMIT_S)
        times.append(outcome.latency_s)
    times.sort()
    median = (times[len(times) // 2 - 1] + times[len(times) // 2]) / 2
    return {
        "request": request.key,
        "repeats": len(times),
        "min_s": round(times[0], 4),
        "median_s": round(median, 4),
        "max_s": round(times[-1], 4),
        "range_over_median": round((times[-1] - times[0]) / median, 4),
    }


def main(path, workdir_factory) -> int:
    """Measure every row and the spread, and write them to ``path``."""
    workdir = workdir_factory()
    try:
        rows = []
        for label, roadmap, request in ROWS:
            rows.append(_row(workdir, label, roadmap, request))
            print(json.dumps(rows[-1]))
        spread = [_spread(workdir, r) for r in SPREAD]
        for s in spread:
            print(json.dumps(s))
    finally:
        workdir.close()
    out = {
        "measured": time.strftime("%Y-%m-%d"),
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "rows": rows,
        "per_request_spread": spread,
    }
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0
