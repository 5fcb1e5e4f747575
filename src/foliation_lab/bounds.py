"""Eigenvalue lower bounds for the basic Dirac operator and their sphere-flow values.

``eval_bound`` evaluates four bound families from infimum/supremum data:

* ``esti``     lambda^2 >= q/(4(q-1)) * inf(transverse scalar curvature)
* ``estmflot`` lambda^2 >= q/(4(q-1)) * inf(Scal_M + |A|^2 + |kappa|^2)  (flows)
* ``minmax``   lambda^2 >= lambda^2(D_M)/2 - (n/16) * sup(|A|^2)
* ``collapse`` lambda^2 >= (q+1)/(4q) * inf(Scal_M + |A|^2)

``s3_bounds`` evaluates all four on the sphere flows, where every quantity is
a closed-form function of s = |z|^2, at the best points of one uniform scan
of [0, 1], endpoints included.  The scan misses no extremum: with
D = r^2 s + 1 - s > 0, the s-derivatives of the esti, estmflot, negated
minmax (-|A|^2) and collapse integrands are -6 r^2 (r^2 - 1) / D^2,
-(r^2 - 1)(r^4 s + (1 - s) + 3 r^2) / D^3, 4 r^2 (r^2 - 1) / D^3 and
-4 r^2 (r^2 - 1) / D^3, so each integrand is strictly monotone in s for
r != 1, constant at r = 1, and extreme at s = 0 or 1 (``tests/test_bounds.py``
derives this with sympy).  For R flow parameters the scan evaluates the
curvature once on (R, resolution) points, 400 KB per array at the ``sweep``
defaults (R = 50, resolution 1000), and takes the row minima of the four
family blocks without stacking them.  The values reproduce the closed
piecewise-in-r references of ``piecewise_reference``; every row
``s3_bounds`` returns carries its r, and the report writers compare it with
its reference.
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

BOUND_KINDS = ("esti", "estmflot", "minmax", "collapse")

# First squared Dirac eigenvalue of the unit round 3-sphere: (3/2)^2.
FIRST_DIRAC_EIGENVALUE_SQ_S3 = 2.25

# Codimension and transverse dimension of a flow on a 3-manifold.
S3_FLOW_Q = 2
S3_FLOW_N = 2

_REQUIRED_QUANTITIES = {
    "esti": ("inf_scal_transverse",),
    "estmflot": ("inf_scal_plus_tensors",),
    "minmax": ("lambda_dm_sq", "sup_a_sq"),
    "collapse": ("inf_scal_plus_a_sq",),
}

# Largest |value - reference| of a sphere-flow bound row that still matches.
BOUND_REFERENCE_TOLERANCE = 1e-6

# Round-off a row may carry against its reference, in units of
# np.spacing(|reference|); s3_bounds refuses an r whose reference is so large
# that this many units exceed BOUND_REFERENCE_TOLERANCE.  Only the minmax
# reference grows without bound: 9/8 - P/4 for r >= 1 and 9/8 - 1/(4P) for
# r < 1, with P = fl(r*r) = r^2 (1 + d1).  For r >= 1 the supremum of |A|^2
# is the scan point s = 0, where the integrand is 2P, and (2/16) 2P = P/4
# exactly, so the row is the reference bit for bit.  For r < 1 it is the scan
# point s = 1, where the integrand is 2 fl(fl(r/P)^2), so the row's large term
# fl(fl(r/P)^2)/4 is 1/(4r^2) (1 + d2)^2 (1 + d3) / (1 + d1)^2 against the
# reference's fl(1/(4P)) = 1/(4r^2) (1 + d4) / (1 + d1), every |d| <= u =
# eps/2.  The two differ by at most 5u of their size to first order, and
# subtracting each from 9/8 rounds once more, within u|reference|: under
# 7u|reference|, which is under 7 spacings; the eighth is a spare.
REFERENCE_ROUNDOFF_ULPS = 8

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class BoundReport:
    """One evaluated lower bound for lambda^2 with its input extrema."""

    kind: str
    value: float
    inputs: dict = field(default_factory=dict)
    r: float | None = None


def eval_bound(kind: str, q: int, n: int, quantities: dict, r=None, arg_s=None) -> BoundReport:
    """Evaluate one bound formula from the extrema it requires; a sphere-flow
    row also carries its ``r`` and the point ``arg_s`` of its extremum.

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
    elif kind == "estmflot":
        value = q / (4.0 * (q - 1.0)) * quantities["inf_scal_plus_tensors"]
    elif kind == "minmax":
        value = 0.5 * quantities["lambda_dm_sq"] - (n / 16.0) * quantities["sup_a_sq"]
    else:  # collapse
        value = (q + 1.0) / (4.0 * q) * quantities["inf_scal_plus_a_sq"]
    inputs = {**quantities, "q": q, "n": n}
    if arg_s is not None:
        inputs["arg_s"] = arg_s
    return BoundReport(kind, float(value), inputs, r)


def golden_section_min(fn, a, b, tol: float = 1e-10):
    """Deterministic golden-section minimizer, elementwise on brackets [a, b].
    No command calls it or maximize_on_interval: both stay only because
    perfbench/tracing.py wraps them by name (tests/test_tracing.py).

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
    """Minimum of a uniform scan of [a, b], endpoints included, for a batch of
    R integrands: exact for integrands monotone in the variable, as the
    sphere-flow ones are (module docstring).

    ``fn`` gets the ``resolution`` scan points as one (1, resolution) row and
    returns values of shape (R, resolution), row i belonging to the i-th
    integrand, or a sequence of such row blocks, which are scanned block by
    block and never stacked.  Returns the arrays ``(argmin, min)``, each of
    shape (R,); a tie goes to the first scan point.
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    xs = np.linspace(a, b, resolution)
    values = fn(xs[np.newaxis, :])
    blocks = (values,) if isinstance(values, np.ndarray) else values
    best = [np.argmin(block, axis=1) for block in blocks]
    minima = [block[np.arange(rows.size), rows] for block, rows in zip(blocks, best)]
    return xs[np.concatenate(best)], np.concatenate(minima)


def maximize_on_interval(fn, a: float, b: float, resolution: int):
    """Maximize by minimizing ``-fn``, batched as minimize_on_interval; no command calls it."""
    x, negative = minimize_on_interval(lambda s: -fn(s), a, b, resolution)
    return x, -negative


def s3_bounds(r, resolution: int = 1000) -> list[BoundReport]:
    """All four sphere-flow bounds at each flow parameter via numeric extrema in s.

    ``r`` is one flow parameter or a nonempty 1-D sequence of them; every r
    must be finite and positive with a square that does not underflow to 0
    (the references divide by r^2), with 6 r^2, the transverse scalar
    curvature's largest term, finite, and with references small enough that
    BOUND_REFERENCE_TOLERANCE exceeds REFERENCE_ROUNDOFF_ULPS of them, which
    keeps r between about 1.53e-5 and 65536; all are checked before any is
    evaluated.  The extrema of every r come from one scan over all four
    families.  Reports are r-major: esti, estmflot, minmax, collapse per r.
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
    for value in r_values.tolist():
        reference = piecewise_reference(value)
        kind = max(reference, key=lambda name: abs(reference[name]))
        roundoff = REFERENCE_ROUNDOFF_ULPS * float(np.spacing(abs(reference[kind])))
        if not roundoff <= BOUND_REFERENCE_TOLERANCE:
            raise ValueError(
                f"flow parameter r = {value} is out of range: {REFERENCE_ROUNDOFF_ULPS} ulps "
                f"of its {kind} reference {reference[kind]:.6g} are {roundoff:.3g}, more than "
                f"the reference tolerance {BOUND_REFERENCE_TOLERANCE:.0e}"
            )
    count, r_col = r_values.size, r_values[:, np.newaxis]

    def integrands(s):
        """The four family blocks, (R, k) each, at the (1, k) scan points."""
        kappa = s3_kappa_norm(r_col, s)
        a_sq = s3_a_norm_sq(r_col, s)
        return (s3_transverse_scal(r_col, s), S3_SCALAR_CURVATURE + a_sq + kappa * kappa,
                -a_sq, S3_SCALAR_CURVATURE + a_sq)

    args, extremes = minimize_on_interval(integrands, 0.0, 1.0, resolution)
    q, n = S3_FLOW_Q, S3_FLOW_N
    reports = []
    for r_i, arg_row, (esti, flot, negative_sup, col) in zip(
        r_values.tolist(), args.reshape(len(BOUND_KINDS), count).T.tolist(),
        extremes.reshape(len(BOUND_KINDS), count).T.tolist(),
    ):
        quantities = ({"inf_scal_transverse": esti}, {"inf_scal_plus_tensors": flot},
                      {"lambda_dm_sq": FIRST_DIRAC_EIGENVALUE_SQ_S3, "sup_a_sq": -negative_sup},
                      {"inf_scal_plus_a_sq": col})
        reports += [eval_bound(kind, q, n, values, r_i, arg_s)
                    for kind, values, arg_s in zip(BOUND_KINDS, quantities, arg_row)]
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


def reference_error(report: BoundReport) -> tuple[float, float]:
    """(reference, |value - reference|) of a sphere-flow row, one of ``s3_bounds``."""
    reference = piecewise_reference(report.r)[report.kind]
    return reference, abs(report.value - reference)


def bound_failures(reports: list[BoundReport]) -> list[str]:
    """One line per sphere-flow row whose value does not match its reference to
    within BOUND_REFERENCE_TOLERANCE; a NaN error fails."""
    failures = []
    for report in reports:
        error = reference_error(report)[1]
        if not error <= BOUND_REFERENCE_TOLERANCE:
            failures.append(
                f"failed {report.kind} r={report.r:.17g}: abs_error {error:.3e} "
                f"> threshold {BOUND_REFERENCE_TOLERANCE:.0e}"
            )
    return failures


def bound_rows_csv(reports: list[BoundReport]) -> str:
    """CSV text of sphere-flow rows: kind, r, value, reference_value, abs_error."""
    lines = ["kind,r,value,reference_value,abs_error\n"]
    for report in reports:
        reference, error = reference_error(report)
        lines.append(f"{report.kind},{report.r:.17g},{report.value:.17g},{reference:.17g},"
                     f"{error:.17g}\n")
    return "".join(lines)
