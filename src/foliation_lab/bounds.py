"""Eigenvalue lower bounds for the basic Dirac operator and their sphere-flow values.

``eval_bound`` evaluates five bound families from infimum/supremum data:

* ``esti``     lambda^2 >= q/(4(q-1)) * inf(transverse scalar curvature)
* ``estima``   lambda^2 >= q/(4(q-1)) * inf(Scal_M - Scal_L + |A|^2 + |T|^2)
* ``estmflot`` lambda^2 >= q/(4(q-1)) * inf(Scal_M + |A|^2 + |kappa|^2)  (flows)
* ``minmax``   lambda^2 >= lambda^2(D_M)/2 - (n/16) * sup(|A|^2)
* ``collapse`` lambda^2 >= (q+1)/(4q) * inf(Scal_M + |A|^2)

``s3_bounds`` evaluates four of them on the sphere flows: ``esti``,
``estmflot``, ``minmax`` and ``collapse``; ``estima`` is reachable only
through ``eval_bound``.  On the sphere flows every quantity is a closed-form
function of s = |z|^2, so the extrema reduce to one-dimensional optimization
over [0, 1]: a uniform scan followed by golden-section refinement around the
best scan point.  Both run for every flow parameter of a call at once: per
bound family, the scan is one array evaluation of shape (R, resolution) for
R flow parameters, and the R refinements advance together on (R, 1)
brackets, one evaluation per step.  The resulting values reproduce the
closed piecewise-in-r references that ``piecewise_reference`` gives for all
four.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model_spaces import (
    S3_SCALAR_CURVATURE,
    s3_a_norm_sq,
    s3_kappa_norm,
    s3_transverse_scal,
)

BOUND_KINDS = ("esti", "estima", "estmflot", "minmax", "collapse")

# First squared Dirac eigenvalue of the unit round 3-sphere: (3/2)^2.
FIRST_DIRAC_EIGENVALUE_SQ_S3 = 2.25

# Codimension and transverse dimension of a flow on a 3-manifold.
S3_FLOW_Q = 2
S3_FLOW_N = 2

_REQUIRED_QUANTITIES = {
    "esti": ("inf_scal_transverse",),
    "estima": ("inf_scal_diff_plus_tensors",),
    "estmflot": ("inf_scal_plus_tensors",),
    "minmax": ("lambda_dm_sq", "sup_a_sq"),
    "collapse": ("inf_scal_plus_a_sq",),
}

# Largest |value - reference| of a sphere-flow bound row that still matches.
BOUND_REFERENCE_TOLERANCE = 1e-6

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class BoundReport:
    """One evaluated lower bound for lambda^2 with its input extrema."""

    kind: str
    value: float
    inputs: dict = field(default_factory=dict)
    r: float | None = None


def eval_bound(kind: str, q: int, n: int, quantities: dict) -> BoundReport:
    """Evaluate one bound formula from the extrema it requires.

    Raises ValueError naming the first missing quantity.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    if q < 2:
        raise ValueError(f"codimension q must be >= 2, got {q}")
    for symbol in _REQUIRED_QUANTITIES[kind]:
        if symbol not in quantities:
            raise ValueError(f"bound {kind!r} requires missing quantity {symbol!r}")
    if kind == "esti":
        value = q / (4.0 * (q - 1.0)) * quantities["inf_scal_transverse"]
    elif kind == "estima":
        value = q / (4.0 * (q - 1.0)) * quantities["inf_scal_diff_plus_tensors"]
    elif kind == "estmflot":
        value = q / (4.0 * (q - 1.0)) * quantities["inf_scal_plus_tensors"]
    elif kind == "minmax":
        value = 0.5 * quantities["lambda_dm_sq"] - (n / 16.0) * quantities["sup_a_sq"]
    else:  # collapse
        value = (q + 1.0) / (4.0 * q) * quantities["inf_scal_plus_a_sq"]
    inputs = dict(quantities)
    inputs["q"] = q
    inputs["n"] = n
    return BoundReport(kind=kind, value=float(value), inputs=inputs)


def golden_section_min(fn, a, b, tol: float = 1e-10):
    """Deterministic golden-section minimizer, elementwise on brackets [a, b].

    ``a`` and ``b`` are floats or arrays of one shape, one search per
    element, and every search shares one ``fn`` call per iteration.  A
    search stops once its bracket is no wider than ``tol`` and keeps the
    bracket it had then, so each element takes exactly the steps of a scalar
    search on its own bracket.  Returns ``(x, fn(x))`` at the bracket
    midpoints.
    """
    inv = 1.0 / GOLDEN_RATIO
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = b - (b - a) * inv
    d = a + (b - a) * inv
    fc = fn(c)
    fd = fn(d)
    active = np.abs(b - a) > tol
    while active.any():
        # A left step shrinks [a, b] to [a, d]: c becomes d and a new c is
        # probed.  A right step shrinks it to [c, b]: d becomes c and a new d
        # is probed.  Searches that have stopped take neither.
        lower = fc < fd
        left, right = active & lower, active & ~lower
        a, b = np.where(right, c, a), np.where(left, d, b)
        probe = np.where(left, b - (b - a) * inv, a + (b - a) * inv)
        f_probe = fn(probe)
        c, d, fc, fd = (
            np.where(left, probe, np.where(right, d, c)),
            np.where(right, probe, np.where(left, c, d)),
            np.where(left, f_probe, np.where(right, fd, fc)),
            np.where(right, f_probe, np.where(left, fc, fd)),
        )
        active = np.abs(b - a) > tol
    x = 0.5 * (a + b)
    return x, fn(x)


def minimize_on_interval(fn, a: float, b: float, resolution: int):
    """Uniform scan (endpoints included) plus golden-section refinement.

    ``fn`` evaluates a batch of R integrands: given points of shape (1, k) or
    (R, k) it returns values of shape (R, k), row i belonging to the i-th
    integrand.  The scan is one call on the ``resolution`` scan points as one
    row; the refinement passes (R, 1) columns.  Returns the arrays
    ``(argmin, min)``, each of shape (R,).
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    xs = np.linspace(a, b, resolution)
    values = fn(xs[np.newaxis, :])
    best = np.argmin(values, axis=1)
    scan_min = np.take_along_axis(values, best[:, np.newaxis], axis=1)[:, 0]
    del values  # the refinement needs no (R, resolution) array
    lo = xs[np.maximum(best - 1, 0)]
    hi = xs[np.minimum(best + 1, resolution - 1)]
    x_ref, f_ref = golden_section_min(fn, lo[:, np.newaxis], hi[:, np.newaxis])
    scan_wins = scan_min < f_ref[:, 0]
    return (np.where(scan_wins, xs[best], x_ref[:, 0]),
            np.where(scan_wins, scan_min, f_ref[:, 0]))


def maximize_on_interval(fn, a: float, b: float, resolution: int):
    """Maximize by minimizing ``-fn``; ``fn`` is batched as in minimize_on_interval."""
    x, negative = minimize_on_interval(lambda s: -fn(s), a, b, resolution)
    return x, -negative


def s3_bounds(r, resolution: int = 1000) -> list[BoundReport]:
    """All four sphere-flow bounds at each flow parameter via numeric extrema in s.

    ``r`` is one flow parameter or a nonempty 1-D sequence of them; every r
    must be finite and positive with a square that does not underflow to 0
    (the references divide by r^2) and with 6 r^2, the transverse scalar
    curvature's largest term, finite; all are checked before any is
    evaluated.  The extrema of every r come from one batched scan and
    refinement per bound family.  Reports are r-major: esti, estmflot,
    minmax, collapse per r.
    """
    r_values = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if r_values.ndim != 1:
        raise ValueError(f"flow parameters must be one number or a 1-D sequence, got shape "
                         f"{r_values.shape}")
    if r_values.size == 0:
        raise ValueError("no flow parameters to evaluate")
    for value in r_values.tolist():
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"flow parameter r must be positive and finite, got {value}")
        if value * value == 0.0:
            raise ValueError(f"flow parameter r = {value} is too small: r*r underflows to 0")
        if not np.isfinite(6.0 * value * value):
            raise ValueError(f"flow parameter r = {value} is too large: 6*r*r overflows")
    # One row per flow parameter, broadcast against the points in s.
    r_col = r_values[:, np.newaxis]

    def scal_transverse(s):
        return s3_transverse_scal(r_col, s)

    def scal_plus_tensors(s):
        kappa = s3_kappa_norm(r_col, s)
        return S3_SCALAR_CURVATURE + s3_a_norm_sq(r_col, s) + kappa * kappa

    def scal_plus_a_sq(s):
        return S3_SCALAR_CURVATURE + s3_a_norm_sq(r_col, s)

    def a_sq(s):
        return s3_a_norm_sq(r_col, s)

    # (kind, fixed inputs, extremum symbol, (argument, extremum) per r)
    families = (
        ("esti", {}, "inf_scal_transverse",
         minimize_on_interval(scal_transverse, 0.0, 1.0, resolution)),
        ("estmflot", {}, "inf_scal_plus_tensors",
         minimize_on_interval(scal_plus_tensors, 0.0, 1.0, resolution)),
        ("minmax", {"lambda_dm_sq": FIRST_DIRAC_EIGENVALUE_SQ_S3}, "sup_a_sq",
         maximize_on_interval(a_sq, 0.0, 1.0, resolution)),
        ("collapse", {}, "inf_scal_plus_a_sq",
         minimize_on_interval(scal_plus_a_sq, 0.0, 1.0, resolution)),
    )
    q, n = S3_FLOW_Q, S3_FLOW_N
    reports = []
    for i, r_i in enumerate(r_values.tolist()):
        for kind, fixed, symbol, (args, extremes) in families:
            report = eval_bound(kind, q, n, {**fixed, symbol: float(extremes[i])})
            inputs = {**report.inputs, "arg_s": float(args[i])}
            reports.append(BoundReport(kind, report.value, inputs, r_i))
    return reports


def piecewise_reference(r: float) -> dict:
    """Closed piecewise-in-r reference values for the sphere-flow bounds.

    At r = 1 both branches agree and the common limit is returned.
    """
    if not r > 0.0:
        raise ValueError(f"flow parameter r must be positive, got {r}")
    if r < 1.0:
        return {
            "esti": 1.0 + 3.0 * r * r,
            "estmflot": r * r + 3.0,
            "minmax": 9.0 / 8.0 - 1.0 / (4.0 * r * r),
            "collapse": 3.0 / 8.0 * (6.0 + 2.0 * r * r),
        }
    return {
        "esti": 4.0,
        "estmflot": 1.0 / (r * r) + 3.0,
        "minmax": 9.0 / 8.0 - r * r / 4.0,
        "collapse": 3.0 / 8.0 * (6.0 + 2.0 / (r * r)),
    }


def reference_error(report: BoundReport) -> tuple[float, float] | None:
    """(reference, |value - reference|) of a row with a closed reference, else None."""
    reference = None if report.r is None else piecewise_reference(report.r).get(report.kind)
    return None if reference is None else (reference, abs(report.value - reference))


def bound_failures(reports: list[BoundReport]) -> list[str]:
    """One line per row with a reference that its value does not match to within
    BOUND_REFERENCE_TOLERANCE; a NaN error fails."""
    failures = []
    for report in reports:
        compared = reference_error(report)
        if compared is not None and not compared[1] <= BOUND_REFERENCE_TOLERANCE:
            failures.append(
                f"failed {report.kind} r={report.r:.17g}: abs_error {compared[1]:.3e} "
                f"> threshold {BOUND_REFERENCE_TOLERANCE:.0e}"
            )
    return failures


def bound_rows_csv(reports: list[BoundReport]) -> str:
    """CSV text: rows kind, r, value, reference_value, abs_error (reference when known)."""
    lines = ["kind,r,value,reference_value,abs_error\n"]
    for report in reports:
        r_text = "" if report.r is None else f"{report.r:.17g}"
        compared = reference_error(report)
        reference_text = "" if compared is None else f"{compared[0]:.17g}"
        error_text = "" if compared is None else f"{compared[1]:.17g}"
        lines.append(f"{report.kind},{r_text},{report.value:.17g},{reference_text},{error_text}\n")
    return "".join(lines)
