"""Fast tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gradealg  # noqa: E402
import gradealg.cli  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402


# -- corpus -----------------------------------------------------------------

@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_the_same_pass(workload):
    for seed in (0, 7):
        assert corpus.build_pass(workload, seed) == corpus.build_pass(workload, seed)
    assert corpus.build_pass(workload, 7) != corpus.build_pass(workload, 8)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_seeds_keep_the_work(workload):
    base = sorted(r.key for r in corpus.build_pass(workload, 0))
    for seed in (1, 2):
        assert sorted(r.key for r in corpus.build_pass(workload, seed)) == base


def test_seed_zero_keeps_base_labels():
    base = {r.key: r for r, _ in corpus.base_corpus("blowup_algebra")}
    for request in corpus.build_pass("blowup_algebra", 0):
        assert request == base[request.key]


def test_relabel_renames_vertices_and_keeps_the_complex():
    (path, _), = [rc for rc in corpus.base_corpus("rees_split") if rc[0].key == "path.gencm.Q"]
    moved = corpus.relabel(path, random.Random(4))
    assert moved.spec["variables"] != path.spec["variables"]
    assert {frozenset(f) for f in moved.spec["facets"]} == {frozenset(f) for f in path.spec["facets"]}
    names = dict(zip(path.spec["variables"], moved.spec["variables"]))
    assert sorted(moved.spec["I"]) == sorted(names[v] for v in path.spec["I"])


def test_relabel_renames_polynomial_variables():
    spec = corpus.poly_spec(["a", "b", "c"], ["a*b - c^2"], ["a"])
    request = corpus.Request("k", "cli", "presentation", spec)
    moved = corpus.relabel(request, random.Random(1))
    assert moved.spec["variables"] != spec["variables"]
    assert sorted(moved.spec["variables"]) == ["a", "b", "c"]
    names = dict(zip(spec["variables"], moved.spec["variables"]))
    assert moved.spec["J"] == [corpus._rename("a*b - c^2", names)]


# -- label-free checks ------------------------------------------------------

def test_poly_invariant_forgets_names():
    a = checks.poly_invariant("-3/2*x1^2*Y1 + x2*x3 - 5")
    b = checks.poly_invariant("-3/2*x7^2*Y4 + x1*x9 - 5")
    assert a == b
    assert a != checks.poly_invariant("3/2*x1^2*Y1 + x2*x3 - 5")
    assert a != checks.poly_invariant("-3/2*x1^3*Y1 + x2*x3 - 5")


def _run(request, tmp_path, index, limit_s=60.0, tracer=None):
    paths = runner.paths_for(tmp_path, index)
    runner.write_spec(request, paths)
    return runner.run(request, paths, limit_s, tracer)


SMALL = ("twopoints.presentation.Q", "notsplit.check_iso.Q", "twopoints.hilbert.Q")


@pytest.mark.parametrize("key", SMALL)
def test_label_free_summary_survives_relabelling(key, tmp_path):
    (request,) = [r for r, _ in corpus.base_corpus("blowup_algebra") if r.key == key]
    base = _run(request, tmp_path, 0)
    summary = checks.summarize(request.command, json.loads(base.report))
    reference = checks.reference_entry(request.command, base)
    for index, seed in enumerate((1, 2, 5), start=1):
        moved = corpus.relabel(request, random.Random(seed))
        outcome = _run(moved, tmp_path, index)
        assert checks.summarize(moved.command, json.loads(outcome.report)) == summary
        assert checks.check(moved, outcome, reference, exact=False) is None


def test_relabelled_complex_keeps_cohomology(tmp_path):
    (request,) = [r for r, _ in corpus.base_corpus("face_ring") if r.key == "rp2.cohomology_A.GF(2)"]
    reference = checks.reference_entry(request.command, _run(request, tmp_path, 0))
    moved = corpus.relabel(request, random.Random(4))
    assert moved.spec["variables"] != request.spec["variables"]
    outcome = _run(moved, tmp_path, 1)
    assert checks.check(moved, outcome, reference, exact=False) is None


# -- tracing ----------------------------------------------------------------

def _snapshot() -> dict:
    state = {}
    for name, module in tracing.gradealg_modules():
        for key, value in vars(module).items():
            state[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    state[(name, key, attr)] = member
    return state


def test_install_and_uninstall_restore_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gradealg.cli.local_cohomology_window is not before[("gradealg.cli", "local_cohomology_window")]
        assert gradealg.groebner_basis is not before[("gradealg", "groebner_basis")]
        assert gradealg.cli.local_cohomology_window.__wrapped__ is before[("gradealg.cli", "local_cohomology_window")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, None, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_traced_request_repeats_its_work_and_bytes(tmp_path):
    (request,) = [r for r, _ in corpus.base_corpus("blowup_algebra") if r.key == "twisted_cubic.check_iso.Q"]
    first = _run(request, tmp_path, 0, tracer=tracing.Tracer())
    second = _run(request, tmp_path, 1, tracer=tracing.Tracer())
    plain = _run(request, tmp_path, 2)
    counts = tracing.request_counts(first.spans["spans"])
    assert counts["calls:groebner.buchberger"] > 0
    assert counts == tracing.request_counts(second.spans["spans"])
    assert first.report == second.report == plain.report
    layers = tracing.layer_metrics([(first.latency_s, first.spans["spans"])])
    assert layers["criterion.decide_iso_calls"] == 1
    assert layers["simplicial.homology_calls"] == 0


def test_request_past_its_limit_is_killed_with_partial_spans(tmp_path):
    (request,) = [r for r, _ in corpus.base_corpus("blowup_algebra") if r.key == "probe.parser_power"]
    outcome = _run(request, tmp_path, 0, limit_s=0.5, tracer=tracing.Tracer())
    assert outcome.killed and outcome.exit_code is None
    assert outcome.spans["killed"]
    assert any(span[0] == "polynomials.parse" for span in outcome.spans["spans"])
    reference = {"exit_code": 2, "summary": None, "report_sha256": None, "stdout_sha256": None}
    assert checks.check(request, outcome, reference, exact=True) == "killed at the request limit"


# -- percentiles ------------------------------------------------------------

def test_p90_needs_ten_samples_above_it():
    assert metrics.min_samples(0.9) == 100
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 0.9)
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 0.9) == 90
    assert sum(s > 90 for s in samples) == 10
    assert metrics.percentile(samples, 0.5) == 50


def test_failed_requests_rank_slowest():
    samples = [0.1] * 89 + [math.inf] * 21
    assert metrics.percentile(samples, 0.9) == math.inf
    assert metrics.percentile(samples, 0.5) == 0.1


# -- host-speed scaling -----------------------------------------------------

def test_scale_is_reference_over_mean_calibration():
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == pytest.approx(1.0)
    assert hostspeed.scale(0.01, 0.03) == pytest.approx(hostspeed.REFERENCE_S / 0.02)
    assert hostspeed.calibrate() > 0


def test_pass_scales_times_and_counts_a_kill_as_the_limit():
    done = runner.Outcome("a", 0.2, 0, False, 20.0, b"{}", b"", b"")
    killed = runner.Outcome("b", 3.4, None, True, 20.0, None, b"", b"")
    one = run.Pass([done, killed], [0.5, 2.0], limit_s=3.0)
    assert one.scaled == pytest.approx([0.1, 3.0])
    assert one.wall == pytest.approx(3.1)
    assert one.raw_wall == pytest.approx(3.6)
