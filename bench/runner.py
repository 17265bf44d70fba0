"""Run one request in a child forked from a parent that has imported gradealg.

Forking gives every request cold library caches (the parent never calls
into the library) and keeps import cost out of its latency. The child sees
what a CLI user sees: ``gradealg.cli.main(argv)`` with stdout and stderr
going to files, and the JSON report written with ``--json``. A child that
runs past the request limit is killed; in a traced run it first gets
SIGTERM, so that it can send back the spans it has.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Exit code of a child whose request raised instead of returning.
CRASHED = 70
# Time a traced child gets between SIGTERM and SIGKILL.
TERM_GRACE_S = 2.0


@dataclass
class Outcome:
    key: str
    latency_s: float
    exit_code: Optional[int]  # None when the child was killed
    killed: bool
    peak_rss_mb: float
    report: Optional[bytes]  # the --json report, or the library result
    stdout: bytes
    stderr: bytes
    spans: Optional[dict] = None  # traced runs only


@dataclass(frozen=True)
class Paths:
    spec: Path
    report: Path
    stdout: Path
    stderr: Path
    spans: Path


def paths_for(workdir: Path, index: int) -> Paths:
    stem = workdir / f"r{index:04d}"
    return Paths(
        spec=stem.with_suffix(".in.json"),
        report=stem.with_suffix(".out.json"),
        stdout=stem.with_suffix(".stdout"),
        stderr=stem.with_suffix(".stderr"),
        spans=stem.with_suffix(".spans.json"),
    )


def write_spec(request, paths: Paths) -> None:
    paths.spec.write_text(json.dumps(request.spec, indent=2, sort_keys=True), encoding="utf-8")


def _call_library(request, paths: Paths) -> int:
    import gradealg

    spec = request.spec
    field = gradealg.parse_field(spec["field"])
    if request.command == "groebner_basis":
        ring = gradealg.PolyRing(spec["variables"], field)
        basis = gradealg.groebner_basis(gradealg.Ideal.parse(ring, spec["generators"]))
        result = {"basis": [str(g) for g in basis]}
    elif request.command == "local_cohomology_window":
        facets = [[v - 1 for v in f] for f in spec["facets"]]
        complex = gradealg.SimplicialComplex(range(len(spec["variables"])), facets)
        window = gradealg.local_cohomology_window(complex, field)
        result = {"contributions": sorted([i, s, r] for i, c in window.contrib.items() for s, r in c.items())}
    else:
        raise ValueError(f"unknown library request {request.command!r}")
    text = json.dumps(result, indent=2) + "\n"
    paths.report.write_text(text, encoding="utf-8")
    return 0


def _execute(request, paths: Paths) -> int:
    if request.kind == "lib":
        return _call_library(request, paths)
    cli = sys.modules["gradealg.cli"]
    argv = [request.command, "--input", str(paths.spec), "--json", str(paths.report)]
    return cli.main(argv + list(request.flags))


def _child(request, paths: Paths, tracer) -> None:
    """Body of the forked child. Never returns."""
    code = CRASHED
    try:
        for fd, path in ((1, paths.stdout), (2, paths.stderr)):
            target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        if tracer is not None:
            tracer.install()

            def on_term(signum, frame):
                tracer.dump(paths.spans, killed=True)
                os._exit(128 + signum)

            signal.signal(signal.SIGTERM, on_term)
        try:
            code = _execute(request, paths)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        if tracer is not None:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            tracer.dump(paths.spans, killed=False)
    except BaseException:
        traceback.print_exc()
        code = CRASHED
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code if isinstance(code, int) else CRASHED)


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run(request, paths: Paths, limit_s: float, tracer=None) -> Outcome:
    """Run the request in a forked child and collect what it left behind."""
    for p in (paths.report, paths.stdout, paths.stderr, paths.spans):
        p.unlink(missing_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(request, paths, tracer)
    killed = False
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(limit_s * 1000):
            killed = True
            if tracer is not None:
                signal.pidfd_send_signal(pidfd, signal.SIGTERM)
                if not poller.poll(TERM_GRACE_S * 1000):
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            else:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        latency = time.perf_counter() - start
    except BaseException:
        # Interrupted while the child may still run: stop it and reap it.
        try:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        raise
    finally:
        os.close(pidfd)
    spans = None
    if tracer is not None:
        raw = _read(paths.spans)
        spans = json.loads(raw) if raw else None
    return Outcome(
        key=request.key,
        latency_s=latency,
        exit_code=None if killed else os.waitstatus_to_exitcode(status),
        killed=killed,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        report=_read(paths.report),
        stdout=_read(paths.stdout) or b"",
        stderr=_read(paths.stderr) or b"",
        spans=spans,
    )
