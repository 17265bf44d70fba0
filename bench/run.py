"""gradealg request benchmark.

Replays a seeded request corpus as a closed loop: one client, one request
in flight. Every request runs in a child forked from this process, which
has imported ``gradealg.cli`` but never calls into the library, so each
request starts with cold library caches and pays no import cost.

    python3 bench/run.py --workload face_ring --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced
    python3 bench/run.py --capture        # rewrite bench/reference.json
    python3 bench/run.py --baseline       # rewrite bench/baseline.json

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``. See
``bench/README.md`` for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
BASELINE = BENCH / "baseline.json"
SETUP_REPS = 11

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def measure_setup(reps: int = SETUP_REPS) -> float:
    """Median time for a fresh interpreter to import gradealg.cli, scaled
    to reference host speed.

    One untimed start first compiles the bytecode, which a user pays once.
    """
    code = "import gradealg.cli; print('ready', flush=True)"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    before = hostspeed.calibrate()
    for rep in range(reps + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=ROOT, stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("a fresh interpreter could not import gradealg.cli")
        after = hostspeed.calibrate()
        if rep:
            times.append(ready * hostspeed.scale(before, after))
        before = after
    return statistics.median(times)


def load_library() -> None:
    """Import the program under test from the checkout's source tree."""
    sys.path.insert(0, str(SRC))
    import gradealg  # noqa: F401
    import gradealg.cli  # noqa: F401


class Workdir:
    """Request inputs and outputs, kept inside the checkout."""

    def __init__(self):
        self.path = ROOT / ".bench_work" / str(os.getpid())
        self.path.mkdir(parents=True, exist_ok=True)

    def prepare(self, requests) -> list:
        paths = []
        for index, request in enumerate(requests):
            p = runner.paths_for(self.path, index)
            runner.write_spec(request, p)
            paths.append(p)
        return paths

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


class Pass:
    """One pass over the request list, with each request's time scaled to
    reference host speed (``hostspeed``). A killed request counts as the
    limit it ran into, unscaled."""

    def __init__(self, outcomes, scales, limit_s: float):
        self.outcomes = outcomes
        self.scaled = [
            limit_s if o.killed else o.latency_s * s for o, s in zip(outcomes, scales)
        ]
        self.raw_wall = sum(o.latency_s for o in outcomes)
        self.wall = sum(self.scaled)


def run_pass(requests, paths, limit_s: float, traced: bool) -> Pass:
    outcomes, scales = [], []
    before = hostspeed.calibrate()
    for r, p in zip(requests, paths):
        outcomes.append(runner.run(r, p, limit_s, tracing.Tracer() if traced else None))
        after = hostspeed.calibrate()
        scales.append(hostspeed.scale(before, after))
        before = after
    return Pass(outcomes, scales, limit_s)


class Verdicts:
    """Failures and correctness findings of one run."""

    def __init__(self, references: dict, exact: bool):
        self.references = references
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        self.failures: dict = defaultdict(int)
        self.wrong: list = []
        self.seen: dict = {}
        self.counts: dict = {}

    def add(self, request, outcome) -> bool:
        """Check one outcome; True when the request succeeded."""
        self.attempted += 1
        reference = self.references.get(request.key)
        if reference is None:
            raise KeyError(f"no reference for {request.key}; run --capture")
        why = checks.check(request, outcome, reference, self.exact)
        if why is not None:
            self.failed += 1
            self.failures[f"{request.key}: {why}"] += 1
            if not outcome.killed:
                self.wrong.append(f"{request.key}: {why}")
            return False
        result = (outcome.exit_code, checks.digest(outcome.report), checks.digest(outcome.stdout))
        if self.seen.setdefault(request.key, result) != result:
            self.wrong.append(f"{request.key}: repeated runs wrote different bytes")
        if outcome.spans is not None:
            counts = tracing.request_counts(outcome.spans["spans"])
            if self.counts.setdefault(request.key, counts) != counts:
                self.wrong.append(f"{request.key}: repeated traced runs did different work")
        return True

    @property
    def correct(self) -> bool:
        return not self.wrong


def _result_line(verdicts: Verdicts, values: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": verdicts.correct,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }
    )


def _print_findings(verdicts: Verdicts, limit_s: float) -> None:
    for line, count in sorted(verdicts.failures.items()):
        print(f"  failed x{count}: {line} (limit {limit_s:g} s)")
    for line in verdicts.wrong:
        print(f"  WRONG: {line}")


def run_untraced(workload: str, seed: int, seconds: float, limit_s: float, references: dict):
    setup_s = measure_setup()
    requests = corpus.build_pass(workload, seed)
    need = metrics.min_samples(0.9)
    verdicts = Verdicts(references, exact=seed == 0)
    workdir = Workdir()
    try:
        paths = workdir.prepare(requests)
        start = time.perf_counter()
        walls, raw_walls, latencies, rss = [], [], [], []
        while True:
            one = run_pass(requests, paths, limit_s, traced=False)
            walls.append(one.wall)
            raw_walls.append(one.raw_wall)
            for request, outcome, scaled in zip(requests, one.outcomes, one.scaled):
                ok = verdicts.add(request, outcome)
                latencies.append(scaled if ok else math.inf)
                if not outcome.killed:
                    # A killed child's memory shows how far it got by the
                    # limit, which moves with host speed.
                    rss.append(outcome.peak_rss_mb)
            elapsed = time.perf_counter() - start
            if len(latencies) >= need and elapsed * (len(walls) + 1) / len(walls) > seconds:
                break
    finally:
        workdir.close()

    def ms(value: float) -> float:
        # A failed request has no latency; if one sets the percentile,
        # report the limit it ran into.
        return 1000.0 * (limit_s if math.isinf(value) else value)

    values = {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": ms(metrics.percentile(latencies, 0.5)),
        "latency_p90_ms": ms(metrics.percentile(latencies, 0.9)),
        "success_frac": (verdicts.attempted - verdicts.failed) / verdicts.attempted,
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }
    n = len(latencies)
    samples = {
        "wall_s": f"median of {len(walls)} pass(es) of {len(requests)} requests; "
        f"unscaled {statistics.median(raw_walls):.4f} s",
        "latency_p50_ms": f"n={n}",
        "latency_p90_ms": f"n={n}, {n - metrics.rank(0.9, n)} above",
        "success_frac": f"{verdicts.attempted - verdicts.failed}/{verdicts.attempted}, "
        f"failed_frac={verdicts.failed / verdicts.attempted:.4f}",
        "peak_rss_mb": f"max over {len(rss)} requests not killed",
        "setup_s": f"median of {SETUP_REPS} fresh interpreters",
    }
    print(f"{workload} seed={seed} untraced: {len(walls)} pass(es), {n} requests, {verdicts.failed} failed")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<6} {samples[name]}")
    _print_findings(verdicts, limit_s)
    return verdicts, values


def run_traced(workload: str, seed: int, seconds: float, limit_s: float, references: dict):
    requests = corpus.build_pass(workload, seed)
    verdicts = Verdicts(references, exact=seed == 0)
    workdir = Workdir()
    try:
        paths = workdir.prepare(requests)
        start = time.perf_counter()
        untraced = run_pass(requests, paths, limit_s, traced=False)
        untraced_wall = untraced.wall
        for request, outcome in zip(requests, untraced.outcomes):
            verdicts.add(request, outcome)
        traced_walls, per_pass = [], []
        while True:
            one = run_pass(requests, paths, limit_s, traced=True)
            traced_walls.append(one.wall)
            for request, outcome in zip(requests, one.outcomes):
                verdicts.add(request, outcome)
            per_pass.append(
                tracing.layer_metrics(
                    [(o.latency_s, o.spans["spans"]) for o in one.outcomes if o.spans]
                )
            )
            elapsed = time.perf_counter() - start
            if elapsed * (len(traced_walls) + 2) / (len(traced_walls) + 1) > seconds:
                break
    finally:
        workdir.close()
    # Counts repeat exactly from pass to pass; times take the median.
    values = {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)([p[k] for p in per_pass])
        for k, v in per_pass[0].items()
    }
    values["trace.overhead_frac"] = statistics.median(traced_walls) / untraced_wall - 1.0
    units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    print(
        f"{workload} seed={seed} traced: 1 untraced pass {untraced_wall:.2f} s, "
        f"{len(traced_walls)} traced pass(es) {statistics.median(traced_walls):.2f} s, "
        f"{verdicts.attempted} requests, {verdicts.failed} failed"
    )
    for name in units:
        print(f"  {name:<40} {values[name]:>14.6g} {units[name]}")
    _print_findings(verdicts, limit_s)
    return verdicts, values, units


def load_references() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def capture(limit_s: float) -> int:
    """Record every base request's result at seed 0 as the reference.

    A budget probe is recorded as the exit 2 it is specified to give,
    whatever it does now.
    """
    out = {"request_limit_s": limit_s, "workloads": {}}
    workdir = Workdir()
    try:
        for workload in corpus.WORKLOADS:
            entries = {}
            for request, _ in corpus.base_corpus(workload):
                if request.key.startswith("probe."):
                    entries[request.key] = {
                        "exit_code": 2, "summary": None, "report_sha256": None, "stdout_sha256": None,
                    }
                    continue
                (paths,) = workdir.prepare([request])
                outcome = runner.run(request, paths, limit_s)
                if outcome.killed or outcome.exit_code == runner.CRASHED:
                    raise RuntimeError(f"{request.key} did not finish: {outcome.stderr[-500:]!r}")
                entries[request.key] = checks.reference_entry(request.command, outcome)
                print(f"{workload:<15} {request.key:<45} exit {outcome.exit_code} {outcome.latency_s:8.3f} s")
            out["workloads"][workload] = entries
    finally:
        workdir.close()
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process.

    Separate processes keep one run's memory out of the next run's
    ``peak_rss_mb``: a forked child inherits its parent's resident pages.
    """
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                "--request-limit-s", str(args.request_limit_s),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            *lines, last = proc.stdout.strip().splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            for name, metric in result["metrics"].items():
                combined[f"{workload}.{name}"] = metric
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--request-limit-s", type=float, default=3.0)
    parser.add_argument("--capture", action="store_true", help="rewrite the reference results")
    parser.add_argument("--baseline", action="store_true", help="rewrite bench/baseline.json")
    args = parser.parse_args(argv)
    if not (SRC / "gradealg" / "cli.py").is_file():
        print(f"error: no gradealg sources under {SRC}", file=sys.stderr)
        return 1
    if not (args.workload or args.all or args.capture or args.baseline):
        parser.error("give --workload, --all, --capture or --baseline")
    if args.all:
        return run_all(args)
    load_library()
    if args.capture:
        return capture(args.request_limit_s)
    if args.baseline:
        import baseline

        return baseline.main(BASELINE, Workdir)
    refs = load_references()["workloads"][args.workload]
    if args.trace:
        verdicts, values, units = run_traced(args.workload, args.seed, args.seconds, args.request_limit_s, refs)
    else:
        verdicts, values = run_untraced(args.workload, args.seed, args.seconds, args.request_limit_s, refs)
        units = END_TO_END
    print(_result_line(verdicts, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
