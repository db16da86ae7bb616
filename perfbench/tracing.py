"""Span tracing of uclab's layers from outside the program.

``Tracer.patched()`` replaces the public functions of each layer at the names
their calling module looks up at call time (``uclab.verifier.eigensolve``,
``uclab.carleman.ein``, ...) with wrappers that record one span per call:
name, start, end, parent span, workload item and a few counts taken from the
arguments or the result.  Spans stay in memory until the run ends.  No file
of the program changes; spans inside the program are left for later.

A span's self time is its duration minus the durations of its child spans
(the program is single-threaded at the Python level, so children never
overlap).
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import uclab.spectral


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eigensolve_attrs(args, kwargs, result) -> dict:
    n = _arg(args, kwargs, 0, "op").matrix.shape[0]
    return {"path": "dense" if n <= uclab.spectral.DENSE_CUTOFF else "lanczos",
            "unknowns": n, "residual": result.residual_bound}


def _assemble_attrs(args, kwargs, result) -> dict:
    return {"nnz": int(result.matrix.nnz)}


def _ein_attrs(args, kwargs, result) -> dict:
    return {"points": int(_arg(args, kwargs, 0, "x").size)}


def _mask_attrs(args, kwargs, result) -> dict:
    return {"cells": math.prod(_arg(args, kwargs, 1, "domain").shape)}


# (span name, the module attributes that resolve to the function, counts)
TARGETS = (
    ("constants.log_c_sfuc", ("uclab.verifier.log_c_sfuc",), None),
    ("constants.log_gamma_window", ("uclab.verifier.log_gamma_window",), None),
    ("constants.c_sfuc_exponent", ("uclab.verifier.c_sfuc_exponent",), None),
    ("constants.carleman_constants", ("uclab.carleman.carleman_constants",), None),
    ("fields.constant_spd_field",
     ("uclab.verifier.constant_spd_field", "uclab.carleman.constant_spd_field"), None),
    ("geometry.generate_sequence", ("uclab.verifier.generate_sequence",), None),
    ("geometry.mask", ("uclab.verifier.mask",), _mask_attrs),
    ("discretization.assemble", ("uclab.verifier.assemble",), _assemble_attrs),
    ("discretization.residual_inequality_check",
     ("uclab.verifier.residual_inequality_check",), None),
    ("discretization.apply_operator", ("uclab.carleman.apply_operator",), None),
    ("spectral.eigensolve", ("uclab.verifier.eigensolve",), _eigensolve_attrs),
    ("spectral.projector_sample", ("uclab.verifier.projector_sample",), None),
    ("carleman.ein", ("uclab.carleman.ein",), _ein_attrs),
    ("carleman.annular_bump", ("uclab.carleman.annular_bump",), None),
    ("carleman.check_carleman_inequality",
     ("uclab.carleman.check_carleman_inequality",), None),
    ("carleman.carleman_trial", ("uclab.carleman.carleman_trial",), None),
    ("verifier.benchmark_field", ("uclab.verifier.benchmark_field",), None),
    ("verifier.observability_ratio", ("uclab.verifier.observability_ratio",), None),
    ("verifier.run_trial", ("uclab.verifier.run_trial",), None),
    ("verifier.verify_equidistribution", ("uclab.verifier.verify_equidistribution",), None),
    ("verifier.delta_sweep", ("uclab.verifier.delta_sweep",), None),
)

# Per-layer metrics: (metric, unit, span, statistic, eigensolve path or None).
# Statistic "s" is total span time, "self_s" total self time, "calls" the
# span count, "max:<attr>" a maximum, any other name the sum of that count.
PER_LAYER = (
    ("spectral.eigensolve.lanczos_s", "s", "spectral.eigensolve", "s", "lanczos"),
    ("spectral.eigensolve.lanczos_calls", "count", "spectral.eigensolve", "calls", "lanczos"),
    ("spectral.eigensolve.dense_s", "s", "spectral.eigensolve", "s", "dense"),
    ("spectral.eigensolve.dense_calls", "count", "spectral.eigensolve", "calls", "dense"),
    ("spectral.eigensolve.unknowns", "count", "spectral.eigensolve", "unknowns", None),
    ("spectral.eigensolve.max_residual", "1", "spectral.eigensolve", "max:residual", None),
    ("spectral.projector_sample.s", "s", "spectral.projector_sample", "s", None),
    ("discretization.assemble.s", "s", "discretization.assemble", "s", None),
    ("discretization.assemble.calls", "count", "discretization.assemble", "calls", None),
    ("discretization.assemble.nnz", "count", "discretization.assemble", "nnz", None),
    ("discretization.residual_inequality_check.s", "s",
     "discretization.residual_inequality_check", "s", None),
    ("discretization.apply_operator.s", "s", "discretization.apply_operator", "s", None),
    ("carleman.ein.s", "s", "carleman.ein", "s", None),
    ("carleman.ein.points", "count", "carleman.ein", "points", None),
    ("carleman.check_carleman_inequality.self_s", "s",
     "carleman.check_carleman_inequality", "self_s", None),
    ("carleman.annular_bump.s", "s", "carleman.annular_bump", "s", None),
    ("carleman.carleman_trial.self_s", "s", "carleman.carleman_trial", "self_s", None),
    ("geometry.mask.s", "s", "geometry.mask", "s", None),
    ("geometry.mask.calls", "count", "geometry.mask", "calls", None),
    ("geometry.mask.cells", "count", "geometry.mask", "cells", None),
    ("geometry.generate_sequence.s", "s", "geometry.generate_sequence", "s", None),
    ("verifier.run_trial.self_s", "s", "verifier.run_trial", "self_s", None),
    ("verifier.benchmark_field.s", "s", "verifier.benchmark_field", "s", None),
    ("verifier.observability_ratio.s", "s", "verifier.observability_ratio", "s", None),
    ("verifier.delta_sweep.self_s", "s", "verifier.delta_sweep", "self_s", None),
    ("fields.constant_spd_field.s", "s", "fields.constant_spd_field", "s", None),
    ("constants.log_c_sfuc.s", "s", "constants.log_c_sfuc", "s", None),
    ("constants.log_c_sfuc.calls", "count", "constants.log_c_sfuc", "calls", None),
    ("constants.carleman_constants.s", "s", "constants.carleman_constants", "s", None),
)


class Tracer:
    """In-memory span recorder; ``item`` tags the spans of the running item."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item = None
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, attrs):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "item": self.item, "start": time.perf_counter() - self._t0}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, where, attrs in TARGETS:
                for path in where:
                    module_name, attr = path.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def per_layer(self, batches: int) -> dict:
        """Every PER_LAYER metric, per traced batch (maxima as they are)."""
        self_s = self.self_times()
        metrics = {}
        for metric, unit, span_name, stat, path in PER_LAYER:
            # A span whose call raised has no counts: .get() skips it.
            picked = [(s, own) for s, own in zip(self.spans, self_s)
                      if s["name"] == span_name and (path is None or s.get("path") == path)]
            if stat.startswith("max:"):
                value = max((s.get(stat[4:], 0.0) for s, _ in picked), default=0.0)
            else:
                if stat == "s":
                    total = sum(s["end"] - s["start"] for s, _ in picked)
                elif stat == "self_s":
                    total = sum(own for _, own in picked)
                elif stat == "calls":
                    total = len(picked)
                else:
                    total = sum(s.get(stat, 0) for s, _ in picked)
                value = total / batches
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def top_self(self, n: int = 5) -> list[list]:
        """The n span names with the largest total self time, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            totals[s["name"]] += own
        return [[k, v] for k, v in sorted(totals.items(), key=lambda kv: -kv[1])[:n]]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")
