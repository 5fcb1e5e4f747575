"""Traced runs: wrap foliation_lab's public functions where their callers look
them up, record one span per call, and reduce the spans to per-layer metrics.

Nothing in ``src/`` is edited.  ``Tracer.installed()`` swaps the module and
class attributes for timing wrappers and restores the originals on exit, so
an untraced op in the same process runs the unmodified code.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import foliation_lab
from foliation_lab import (
    _kernels,
    _spectral_diff,
    basic_calculus,
    bounds,
    cli,
    model_spaces,
    operators,
    spectral,
    verify,
)

MODULES = (
    foliation_lab, cli, verify, operators, spectral, model_spaces, _kernels,
    basic_calculus, _spectral_diff, bounds,
)

ASSEMBLERS = (
    "assemble_basic_dirac_spinor", "assemble_basic_dirac_forms", "assemble_basic_laplacian",
    "assemble_lichnerowicz_sides", "codifferential", "twisted_differential",
    "connection_laplacian_spinor",
)
VERIFY_CHECKS = (
    "invariance_check", "kappa_transform_residual", "conjugation_residual",
    "laplacian_dependence", "scal_relation_residual", "lichnerowicz_residual",
    "densities_distinguishable", "random_profile",
)

# (module that defines the function, its name, span name).  Every module
# whose attribute of that name is the function gets the wrapper.
FUNCTION_SPANS = (
    (model_spaces, "torus_metric_sample", "model_spaces.sample"),
    (model_spaces, "torus_geometry", "model_spaces.torus_geometry"),
    (_kernels, "profile_min", "kernels.profile_min"),
    (_kernels, "sample_profile", "kernels.sample_profile"),
    (basic_calculus, "project_basic", "basic_calculus.projection"),
    (basic_calculus, "dlog", "basic_calculus.projection"),
    (_spectral_diff, "differentiation_matrix", "spectral_diff.diff_matrix"),
    (_spectral_diff, "fourier_derivative", "spectral_diff.fourier_derivative"),
    *((operators, name, "operators.assemble") for name in ASSEMBLERS),
    (spectral, "eigenvalues_weighted", "spectral.eigensolve"),
    (spectral, "spectrum_compare", "spectral.compare"),
    *((verify, name, f"verify.{name}") for name in VERIFY_CHECKS),
    (bounds, "minimize_on_interval", "bounds.scan"),
    (bounds, "maximize_on_interval", "bounds.scan"),
    (bounds, "golden_section_min", "bounds.golden"),
    (bounds, "bound_rows_csv", "bounds.report_write"),
)
METHOD_SPANS = (
    (model_spaces.MetricProfile, "min_value", "model_spaces.validate"),
    (model_spaces.MetricProfile, "sample", "model_spaces.sample"),
    (basic_calculus.LeafVolumeDensity, "from_profile", "basic_calculus.density"),
    (operators.WeightedOperator, "symmetry_residual", "operators.symmetry_gate"),
)
# Scalar curvature functions called once per scan point: counted, not spanned.
COUNTED = ("s3_transverse_scal", "s3_kappa_norm", "s3_a_norm_sq")

ROOT_SPAN = "cli"
HOOK_SPAN = "trace.hook"  # the tracer's own work, kept out of every layer's self time

# (metric, unit, better); self_s metrics are read from the spans of that name.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("model_spaces.validate.calls", "count", "lower"),
    ("model_spaces.validate.self_s", "s", "lower"),
    ("model_spaces.sample.self_s", "s", "lower"),
    ("model_spaces.torus_geometry.self_s", "s", "lower"),
    ("kernels.profile_min.self_s", "s", "lower"),
    ("kernels.sample_profile.self_s", "s", "lower"),
    ("kernels.point_terms", "count", "lower"),
    ("kernels.point_terms_per_s", "1/s", "higher"),
    ("basic_calculus.density.calls", "count", "lower"),
    ("basic_calculus.density.self_s", "s", "lower"),
    ("basic_calculus.projection.self_s", "s", "lower"),
    ("spectral_diff.diff_matrix.calls", "count", "lower"),
    ("spectral_diff.diff_matrix.self_s", "s", "lower"),
    ("spectral_diff.fourier_derivative.self_s", "s", "lower"),
    ("operators.assemble.calls", "count", "lower"),
    ("operators.assemble.self_s", "s", "lower"),
    ("operators.symmetry_gate.calls", "count", "lower"),
    ("operators.symmetry_gate.self_s", "s", "lower"),
    ("operators.matrix_dim_max", "rows", "lower"),
    ("spectral.eigensolve.calls", "count", "lower"),
    ("spectral.eigensolve.self_s", "s", "lower"),
    ("spectral.eigensolve.n3_sum", "count", "lower"),
    ("spectral.eigensolve.distinct_ratio", "ratio", "higher"),
    ("spectral.compare.self_s", "s", "lower"),
    *((f"verify.{name}.self_s", "s", "lower") for name in VERIFY_CHECKS),
    ("verify.checks.run", "count", "higher"),
    ("verify.checks.failed", "count", "lower"),
    ("verify.checks.skipped", "count", "lower"),
    ("bounds.scan.self_s", "s", "lower"),
    ("bounds.golden.self_s", "s", "lower"),
    ("bounds.curvature_evals", "count", "lower"),
    ("bounds.report_write.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent index, op id]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(int)
        self.dim_max = 0
        self.solved = set()
        self._patches = []

    # --- span recording ---

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, pre=None, post=None):
        def traced(*args, **kwargs):
            if pre is not None:
                with self.span(HOOK_SPAN):
                    pre(args)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if post is not None:
                with self.span(HOOK_SPAN):
                    post(result)
            return result

        return traced

    def _count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- hooks: counts measured where the work happens ---

    def _point_terms(self, args) -> None:
        m, thetas, ts = args[1], args[6], args[7]
        self.counters["kernels.point_terms"] += m.size * thetas.size * ts.size

    def _solve(self, args) -> None:
        op = args[0]
        n = op.matrix.shape[0]
        self.counters["spectral.eigensolve.n3_sum"] += n**3
        digest = hashlib.blake2b(np.ascontiguousarray(op.matrix).data, digest_size=16)
        digest.update(np.ascontiguousarray(op.weights).data)
        self.solved.add((self.op, digest.hexdigest()))

    def _dims(self, result) -> None:
        for item in result if isinstance(result, tuple) else (result,):
            matrix = getattr(item, "matrix", item)
            self.dim_max = max(self.dim_max, matrix.shape[0])

    # --- installing the wrappers ---

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _hooks(self, name: str):
        if name.startswith("kernels."):
            return self._point_terms, None
        if name == "spectral.eigensolve":
            return self._solve, None
        if name == "operators.assemble":
            return None, self._dims
        return None, None

    @contextmanager
    def installed(self):
        """Run the body with every wrapper in place; restore the originals after."""
        try:
            for home, attr, name in FUNCTION_SPANS:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, *self._hooks(name))
                for module in MODULES:
                    if module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)
            for cls, attr, name in METHOD_SPANS:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
            for attr in COUNTED:
                self._patch(bounds, attr, self._count("bounds.curvature_evals", getattr(bounds, attr)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # --- reduction ---

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time of direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def span_counts(self) -> dict:
        counts = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def metrics(self, checks: dict, overhead_s: float) -> dict:
        """Every per-layer metric; a layer the workload never called reads 0."""
        self_s = self.self_times()
        calls = self.span_counts()
        values = {}
        for metric, unit, _ in PER_LAYER:
            if metric.endswith(".self_s") and metric != "trace.overhead_s":
                values[metric] = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".calls"):
                values[metric] = calls[metric[: -len(".calls")]]
        kernel_s = self_s["kernels.profile_min"] + self_s["kernels.sample_profile"]
        point_terms = self.counters["kernels.point_terms"]
        solves = calls["spectral.eigensolve"]
        values.update(
            {
                "kernels.point_terms": point_terms,
                "kernels.point_terms_per_s": point_terms / kernel_s if kernel_s > 0 else 0.0,
                "operators.matrix_dim_max": self.dim_max,
                "spectral.eigensolve.n3_sum": self.counters["spectral.eigensolve.n3_sum"],
                "spectral.eigensolve.distinct_ratio": len(self.solved) / solves if solves else 0.0,
                "bounds.curvature_evals": self.counters["bounds.curvature_evals"],
                "verify.checks.run": checks["run"],
                "verify.checks.failed": checks["failed"],
                "verify.checks.skipped": checks["skipped"],
                "trace.overhead_s": overhead_s,
            }
        )
        return {metric: {"value": values[metric], "unit": unit} for metric, unit, _ in PER_LAYER}

    def write(self, path, provenance: dict) -> None:
        payload = {
            "provenance": provenance,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
