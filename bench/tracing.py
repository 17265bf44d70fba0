"""Spans around the calls into each gradealg module, recorded from outside.

A ``Tracer`` wraps the public entry points listed in ``TARGETS``. A plain
function is replaced on every gradealg module attribute that holds it,
because modules import names directly (``cli`` holds its own reference to
``local_cohomology_window``); a method is replaced on its class. Spans are
``[name, start, end, parent, attrs]`` lists kept in memory and written out
once, when the request ends. Sizes that need looking at arguments or
results (boundary matrix sizes, basis sizes) are computed at that point,
outside every span.

``layer_metrics`` turns the spans of many requests into the per-layer
metrics: call counts, sizes, and self times (a span's duration minus the
durations of its direct children).
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name, what to capture for sizes)
TARGETS = (
    ("gradealg.cli", "main", "cli.main", None),
    ("gradealg.schemas", "validate_input", "schemas.validate_input", None),
    ("gradealg.schemas", "validate_output", "schemas.validate_output", None),
    ("gradealg.polynomials", "PolyRing.parse", "polynomials.parse", None),
    ("gradealg.groebner", "groebner_basis", "groebner.groebner_basis", None),
    ("gradealg.groebner", "buchberger", "groebner.buchberger", "basis"),
    ("gradealg.groebner", "GroebnerBasis.normal_form", "groebner.normal_form", None),
    ("gradealg.groebner", "hilbert_function", "groebner.hilbert_function", None),
    ("gradealg.groebner", "ideal_power", "groebner.ideal_power", "power"),
    ("gradealg.blowup", "bigraded_hilbert", "blowup.bigraded_hilbert", None),
    ("gradealg.blowup", "presentation_bigraded_hilbert", "blowup.presentation_hilbert", None),
    ("gradealg.blowup", "rees_presentation", "blowup.rees_presentation", None),
    ("gradealg.blowup", "assoc_graded_presentation", "blowup.assoc_graded", None),
    ("gradealg.criterion", "decide_iso", "criterion.decide_iso", None),
    ("gradealg.criterion", "variable_subset_basis", "criterion.variable_subset_basis", None),
    ("gradealg.criterion", "split_check", "criterion.split_check", None),
    ("gradealg.criterion", "verify_iso_witness", "criterion.verify_witness", None),
    ("gradealg.simplicial", "reduced_homology_ranks", "simplicial.homology", "complex"),
    ("gradealg.simplicial", "local_cohomology_window", "simplicial.window", "complex"),
    ("gradealg.simplicial", "sr_invariants", "simplicial.sr_invariants", None),
    ("gradealg.rees_cohomology", "decide_gencm", "rees_cohomology.decide_gencm", None),
    ("gradealg.rees_cohomology", "assemble_rees_cohomology", "rees_cohomology.assemble", None),
    ("gradealg.rees_cohomology", "SplitSRData.from_split", "rees_cohomology.from_split", None),
    ("gradealg.rees_cohomology", "BandWindow.dim_at", "rees_cohomology.dim_at", None),
    ("gradealg.rees_cohomology", "TensorWindow.dim_at", "rees_cohomology.dim_at", None),
)


def gradealg_modules() -> list:
    return sorted(
        (name, module)
        for name, module in sys.modules.items()
        if module is not None and (name == "gradealg" or name.startswith("gradealg."))
    )


def _field_class(field) -> str:
    return "Q" if field.name == "Q" else "GFp"


def _complex_attrs(complex, field) -> dict:
    """Identity and boundary-matrix size of a (complex, field) argument."""
    counts = Counter(len(f) - 1 for f in complex.faces())
    top = max(counts)
    ident = f"{complex.vertices}|{complex!r}|{field.name}"
    return {
        "field": _field_class(field),
        "id": hashlib.blake2b(ident.encode(), digest_size=8).hexdigest(),
        "cells": sum(counts[i] * counts[i - 1] for i in range(0, top + 1)),
        "nonzeros": sum((i + 1) * counts[i] for i in range(0, top + 1)),
    }


def _basis_attrs(args, result) -> dict:
    gens = [g for g in args[0] if g]
    attrs = {"field": _field_class(gens[0].ring.field)} if gens else {}
    if result is not None:
        attrs.update(polys=len(result), terms=sum(len(g.terms) for g in result))
    return attrs


def _power_attrs(args, result) -> dict:
    return {} if result is None else {"gens": len(result.generators)}


# Sizes computed when the request ends, from a call's arguments and its
# result (None when the call had not returned).
_CAPTURES = {
    "basis": _basis_attrs,
    "power": _power_attrs,
    "complex": lambda args, result: _complex_attrs(args[0], args[1]),
}


class Tracer:
    """Records spans around ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._captured: list = []
        self._saved: list = []

    def _wrap(self, func, name: str, capture):
        spans, stack, captured = self.spans, self._stack, self._captured
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, None])
            stack.append(index)
            if capture is not None:
                entry = [index, capture, args, None]
                captured.append(entry)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if capture is not None:
                entry[3] = result
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in gradealg_modules()]
        for module_name, path, name, capture in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if outer:  # a method, classmethod or staticmethod on a class
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                func = raw.__func__ if kind else raw
                wrapped = self._wrap(func, name, capture)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                continue
            wrapped = self._wrap(raw, name, capture)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._saved.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, killed: bool) -> None:
        """Write the spans, closing any still open, with their sizes."""
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        for index, capture, args, result in self._captured:
            self.spans[index][4] = _CAPTURES[capture](args, result)
        Path(path).write_text(json.dumps({"killed": killed, "spans": self.spans}), encoding="utf-8")


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "schemas.validate_input_s": ("s", "lower"),
    "schemas.validate_output_s": ("s", "lower"),
    "polynomials.parse_calls": ("count", "lower"),
    "polynomials.parse_s": ("s", "lower"),
    "groebner.gb_calls": ("count", "lower"),
    "groebner.buchberger_calls": ("count", "lower"),
    "groebner.gb_hit_ratio": ("ratio", "higher"),
    "groebner.buchberger_s": ("s", "lower"),
    "groebner.buchberger_s.Q": ("s", "lower"),
    "groebner.buchberger_s.GFp": ("s", "lower"),
    "groebner.basis_polys": ("count", "lower"),
    "groebner.basis_terms": ("count", "lower"),
    "groebner.normal_form_calls": ("count", "lower"),
    "groebner.normal_form_s": ("s", "lower"),
    "groebner.hilbert_function_s": ("s", "lower"),
    "groebner.ideal_power_s": ("s", "lower"),
    "groebner.ideal_power_gens": ("count", "lower"),
    "groebner.time_share": ("ratio", "lower"),
    "blowup.bigraded_hilbert_s": ("s", "lower"),
    "blowup.presentation_hilbert_s": ("s", "lower"),
    "blowup.rees_presentation_calls": ("count", "lower"),
    "blowup.rees_presentation_s": ("s", "lower"),
    "blowup.assoc_graded_calls": ("count", "lower"),
    "blowup.assoc_graded_s": ("s", "lower"),
    "criterion.decide_iso_calls": ("count", "lower"),
    "criterion.decide_iso_s": ("s", "lower"),
    "criterion.variable_subset_basis_calls": ("count", "lower"),
    "criterion.variable_subset_basis_s": ("s", "lower"),
    "criterion.split_check_calls": ("count", "lower"),
    "criterion.split_check_s": ("s", "lower"),
    "criterion.verify_witness_calls": ("count", "lower"),
    "criterion.verify_witness_s": ("s", "lower"),
    "simplicial.homology_calls": ("count", "lower"),
    "simplicial.homology_distinct": ("count", "lower"),
    "simplicial.homology_s": ("s", "lower"),
    "simplicial.homology_s.Q": ("s", "lower"),
    "simplicial.homology_s.GFp": ("s", "lower"),
    "simplicial.boundary_cells": ("count", "lower"),
    "simplicial.boundary_nonzeros": ("count", "lower"),
    "simplicial.window_calls": ("count", "lower"),
    "simplicial.window_distinct": ("count", "lower"),
    "simplicial.window_s": ("s", "lower"),
    "simplicial.sr_invariants_calls": ("count", "lower"),
    "rees_cohomology.decide_gencm_s": ("s", "lower"),
    "rees_cohomology.assemble_s": ("s", "lower"),
    "rees_cohomology.from_split_s": ("s", "lower"),
    "rees_cohomology.dim_at_calls": ("count", "lower"),
    "rees_cohomology.dim_at_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Each span name is reported as <prefix>_calls and <prefix>_s, with the
# span name as the prefix unless it is renamed here.
_PREFIX = {"cli.main": "cli.self", "groebner.groebner_basis": "groebner.gb"}


def request_counts(spans: list) -> dict:
    """Exact work counts of one request: calls per span name plus sizes."""
    counts: Counter = Counter()
    for name, _, _, _, attrs in spans:
        counts[f"calls:{name}"] += 1
        for key, value in (attrs or {}).items():
            if isinstance(value, int):
                counts[f"{name}:{key}"] += value
    for name in ("simplicial.homology", "simplicial.window"):
        ids = {attrs["id"] for n, _, _, _, attrs in spans if n == name and attrs}
        counts[f"distinct:{name}"] = len(ids)
    return dict(counts)


def layer_metrics(traced: list) -> dict:
    """Per-layer metrics summed over traced requests.

    ``traced`` holds ``(latency_s, spans)`` for each traced request; spans
    of a killed request are the ones it had opened by then.
    """
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    split_s: defaultdict = defaultdict(float)
    sizes: Counter = Counter()
    gb_misses = 0
    total_latency = 0.0
    for latency, spans in traced:
        total_latency += latency
        own = self_times(spans)
        for index, (name, _, _, parent, attrs) in enumerate(spans):
            calls[name] += 1
            self_s[name] += own[index]
            if attrs and "field" in attrs:
                split_s[f"{name}.{attrs['field']}"] += own[index]
            if name == "groebner.buchberger" and parent is not None:
                gb_misses += spans[parent][0] == "groebner.groebner_basis"
        counts = request_counts(spans)
        for key, value in counts.items():
            if not key.startswith("calls:"):
                sizes[key] += value
    out = {}
    for _, _, span, _ in TARGETS:
        prefix = _PREFIX.get(span, span)
        out[f"{prefix}_calls"] = calls[span]
        out[f"{prefix}_s"] = self_s[span]
    gb_calls = calls["groebner.groebner_basis"]
    out["groebner.gb_hit_ratio"] = (gb_calls - gb_misses) / gb_calls if gb_calls else 0.0
    out["groebner.buchberger_s.Q"] = split_s["groebner.buchberger.Q"]
    out["groebner.buchberger_s.GFp"] = split_s["groebner.buchberger.GFp"]
    out["simplicial.homology_s.Q"] = split_s["simplicial.homology.Q"]
    out["simplicial.homology_s.GFp"] = split_s["simplicial.homology.GFp"]
    out["groebner.basis_polys"] = sizes["groebner.buchberger:polys"]
    out["groebner.basis_terms"] = sizes["groebner.buchberger:terms"]
    out["groebner.ideal_power_gens"] = sizes["groebner.ideal_power:gens"]
    out["simplicial.boundary_cells"] = sizes["simplicial.homology:cells"]
    out["simplicial.boundary_nonzeros"] = sizes["simplicial.homology:nonzeros"]
    out["simplicial.homology_distinct"] = sizes["distinct:simplicial.homology"]
    out["simplicial.window_distinct"] = sizes["distinct:simplicial.window"]
    groebner_s = sum(v for k, v in self_s.items() if k.startswith("groebner."))
    out["groebner.time_share"] = groebner_s / total_latency if total_latency else 0.0
    return {k: out[k] for k in PER_LAYER if k in out}
