"""Eigenvalue lower bounds for the basic Dirac operator and their sphere-flow values.

``bound_value`` holds the one formula of each of four bound families, on
infimum/supremum data given as floats or arrays alike:

* ``esti``     lambda^2 >= q/(4(q-1)) * inf(transverse scalar curvature)
* ``estmflot`` lambda^2 >= q/(4(q-1)) * inf(Scal_M + |A|^2 + |kappa|^2)  (flows)
* ``minmax``   lambda^2 >= lambda^2(D_M)/2 - (n/16) * sup(|A|^2)
* ``collapse`` lambda^2 >= (q+1)/(4q) * inf(Scal_M + |A|^2)

``s3_bounds`` evaluates all four on the sphere flows, where every quantity is
a closed-form function of s = |z|^2, at the better end of [0, 1].  No
interior point can do better: with D = r^2 s + 1 - s > 0, the s-derivatives
of the esti, estmflot, negated minmax (-|A|^2) and collapse integrands are
-6 r^2 (r^2 - 1) / D^2, -(r^2 - 1)(r^4 s + (1 - s) + 3 r^2) / D^3,
4 r^2 (r^2 - 1) / D^3 and -4 r^2 (r^2 - 1) / D^3, so each integrand is
strictly monotone in s for r != 1, constant at r = 1, and extreme at s = 0
or 1 (``tests/test_bounds.py`` derives this with sympy).  It first validates
every r with array predicates, so a refused r leaves nothing evaluated.  For
R flow parameters the curvature is then evaluated once, on (R, 2) points,
``piecewise_reference`` once on the r column, and each family's formula
once, on the column of its extrema.  The result is a ``BoundTable`` of
columns: r, and per family the value, the closed piecewise-in-r reference,
arg_s and the extremum.  ``bound_rows_csv`` and ``bound_failures`` format
rows, r-major, from those columns and compare value with reference.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Round-off a row may carry against its reference, in units of np.spacing(L),
# L the largest |reference| of its r; s3_bounds refuses an r whose L is so
# large that this many units exceed BOUND_REFERENCE_TOLERANCE.  Only the
# minmax reference grows without bound: 9/8 - P/4 for r >= 1, bit for bit the
# row (at s = 0 the integrand is 2P, and (2/16) 2P = P/4 exactly), and
# 9/8 - B for r < 1, B = fl(1/(4P)), P = fl(r*r).  There the row's large term
# fl(fl(r/P)^2)/4 (s = 1) is within 5uB of B to first order, u = eps/2, and
# each subtraction from 9/8 rounds within u|reference|.  The reference itself
# is no unit: it cancels to 0 near r = sqrt(2)/3, where the error stays
# about uB.  With B <= L + 9/8 the error is under 7uL + 45u/8, so under 8
# spacings of L once L >= 4 and under 4e-15 below that; tests/test_allowances.py
# measures at most 4.
REFERENCE_ROUNDOFF_ULPS = 8

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True, eq=False)
class BoundTable:
    """The sphere-flow bounds as columns.

    ``r`` has one entry per flow parameter, shape (R,).  ``value``,
    ``reference`` (its ``piecewise_reference``), ``arg_s`` (the s of its
    extremum) and ``extremum`` (the infimum or supremum over s its formula
    read, named by ``s3_quantities``) have shape (R, 4): row i belongs to
    ``r[i]`` and column k to family ``BOUND_KINDS[k]``, so the rows of the
    reports, r-major, are these arrays raveled.
    """

    r: np.ndarray
    value: np.ndarray
    reference: np.ndarray
    arg_s: np.ndarray
    extremum: np.ndarray

    def row_labels(self) -> tuple[tuple, list]:
        """The kind and the r of every row, r-major, r as Python floats."""
        return BOUND_KINDS * self.r.size, np.repeat(self.r, len(BOUND_KINDS)).tolist()


def bound_value(kind: str, q: int, n: int, quantities: dict):
    """The one formula of family ``kind``, on the extrema in ``quantities``,
    floats or arrays alike, elementwise; checks nothing."""
    if kind == "esti":
        return q / (4.0 * (q - 1.0)) * quantities["inf_scal_transverse"]
    if kind == "estmflot":
        return q / (4.0 * (q - 1.0)) * quantities["inf_scal_plus_tensors"]
    if kind == "minmax":
        return 0.5 * quantities["lambda_dm_sq"] - (n / 16.0) * quantities["sup_a_sq"]
    return (q + 1.0) / (4.0 * q) * quantities["inf_scal_plus_a_sq"]  # collapse


def s3_quantities(kind: str, extremum) -> dict:
    """The quantities the sphere-flow row of ``kind`` reads: its extremum over
    s, the last quantity ``kind`` requires, as a float or a column, and for
    minmax lambda_1(D_M)^2 of the round 3-sphere."""
    quantities = {_REQUIRED_QUANTITIES[kind][-1]: extremum}
    if kind == "minmax":
        quantities["lambda_dm_sq"] = FIRST_DIRAC_EIGENVALUE_SQ_S3
    return quantities


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


def minimize_on_interval(fn, a: float, b: float):
    """The better endpoint of [a, b] for a batch of R integrands: exact only
    for integrands monotone in the variable, as the sphere-flow ones are
    (``tests/test_bounds.py::TestIntegrandsAreMonotone``).

    ``fn`` gets the endpoints as one (1, 2) row ``[[a, b]]`` and returns
    values of shape (R, 2), row i belonging to the i-th integrand.  Returns
    the arrays ``(argmin, min)``, each of shape (R,); a tie goes to ``a``.
    """
    xs = np.array([a, b], dtype=np.float64)
    values = fn(xs[np.newaxis, :])
    best = np.argmin(values, axis=1)
    return xs[best], values[np.arange(best.size), best]


def maximize_on_interval(fn, a: float, b: float):
    """Maximize by minimizing ``-fn``, batched as minimize_on_interval; no command calls it."""
    x, negative = minimize_on_interval(lambda s: -fn(s), a, b)
    return x, -negative


# What s3_bounds says of the first r that fails each validity condition, in order.
_R_REFUSALS = (
    "flow parameter r must be positive and finite, got {}",
    "flow parameter r = {} is too small: r*r underflows to 0",
    "flow parameter r = {} is too large: 6*r*r overflows",
)


def s3_bounds(r) -> BoundTable:
    """All four sphere-flow bounds at each flow parameter via numeric extrema in s.

    ``r`` is one flow parameter or a nonempty 1-D sequence of them; every r
    must be finite and positive with a square that does not underflow to 0
    (the references divide by r^2), with 6 r^2, the transverse scalar
    curvature's largest term, finite, and with references small enough that
    BOUND_REFERENCE_TOLERANCE exceeds REFERENCE_ROUNDOFF_ULPS of them, which
    keeps r between about 1.53e-5 and 65536.  All are checked, as array
    predicates, before any is evaluated: the error names the first r that
    fails one of the first three conditions and the first it fails, else the
    first r whose reference is too large.  The extrema of every r come from
    one endpoint read over all four families, and each family's formula
    runs once, on the column of its extrema.
    """
    r_values = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if r_values.ndim != 1:
        raise ValueError(f"flow parameters must be one number or a 1-D sequence, got shape "
                         f"{r_values.shape}")
    if r_values.size == 0:
        raise ValueError("no flow parameters to evaluate")
    with np.errstate(over="ignore"):
        refused = np.stack((~(np.isfinite(r_values) & (r_values > 0.0)),
                            r_values * r_values == 0.0,
                            ~np.isfinite(6.0 * r_values * r_values)))
    if refused.any():
        i = int(np.argmax(refused.any(axis=0)))
        raise ValueError(_R_REFUSALS[int(np.argmax(refused[:, i]))].format(float(r_values[i])))
    references = piecewise_reference(r_values)
    reference = np.stack([references[kind] for kind in BOUND_KINDS], axis=1)
    count, rows = r_values.size, np.arange(r_values.size)
    # The largest reference of each r; a tie names the first family in BOUND_KINDS order.
    largest = np.argmax(np.abs(reference), axis=1)
    roundoff = REFERENCE_ROUNDOFF_ULPS * np.spacing(np.abs(reference[rows, largest]))
    unresolved = ~(roundoff <= BOUND_REFERENCE_TOLERANCE)
    if unresolved.any():
        i = int(np.argmax(unresolved))
        k = largest[i]
        raise ValueError(
            f"flow parameter r = {float(r_values[i])} is out of range: {REFERENCE_ROUNDOFF_ULPS} "
            f"ulps of its {BOUND_KINDS[k]} reference {float(reference[i, k]):.6g} are "
            f"{float(roundoff[i]):.3g}, more than the reference tolerance "
            f"{BOUND_REFERENCE_TOLERANCE:.0e}"
        )
    r_col = r_values[:, np.newaxis]

    def integrands(s):
        """The four family blocks, (R, 2) each at the (1, 2) endpoints, stacked."""
        kappa = s3_kappa_norm(r_col, s)
        a_sq = s3_a_norm_sq(r_col, s)
        return np.vstack((s3_transverse_scal(r_col, s), S3_SCALAR_CURVATURE + a_sq + kappa * kappa,
                          -a_sq, S3_SCALAR_CURVATURE + a_sq))

    args, extremes = minimize_on_interval(integrands, 0.0, 1.0)
    esti, flot, negative_sup, col = extremes.reshape(len(BOUND_KINDS), count)
    extremum = np.stack((esti, flot, -negative_sup, col), axis=1)
    value = np.stack([
        bound_value(kind, S3_FLOW_Q, S3_FLOW_N, s3_quantities(kind, extremum[:, k]))
        for k, kind in enumerate(BOUND_KINDS)
    ], axis=1)
    return BoundTable(r_values, value, reference, args.reshape(len(BOUND_KINDS), count).T, extremum)


def piecewise_reference(r) -> dict:
    """Closed piecewise-in-r reference values for the sphere-flow bounds, each
    of the shape of ``r``, a float or an array.

    At r = 1 both branches agree and the common limit is returned.  Both
    branches are evaluated everywhere; a value that overflows is inf.
    """
    r = np.asarray(r, dtype=np.float64)
    if not np.all(r > 0.0):
        raise ValueError(f"flow parameter r must be positive, got {r}")
    below = r < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        return {
            "esti": np.where(below, 1.0 + 3.0 * r * r, 4.0),
            "estmflot": np.where(below, r * r + 3.0, 1.0 / (r * r) + 3.0),
            "minmax": np.where(below, 9.0 / 8.0 - 1.0 / (4.0 * r * r), 9.0 / 8.0 - r * r / 4.0),
            "collapse": np.where(below, 3.0 / 8.0 * (6.0 + 2.0 * r * r),
                                 3.0 / 8.0 * (6.0 + 2.0 / (r * r))),
        }


def bound_failures(table: BoundTable) -> list[str]:
    """One line per sphere-flow row, r-major, whose value does not match its
    reference to within BOUND_REFERENCE_TOLERANCE; a NaN error fails."""
    error = np.abs(table.value - table.reference)
    return [
        f"failed {BOUND_KINDS[k]} r={float(table.r[i]):.17g}: abs_error {float(error[i, k]):.3e} "
        f"> threshold {BOUND_REFERENCE_TOLERANCE:.0e}"
        for i, k in zip(*np.nonzero(~(error <= BOUND_REFERENCE_TOLERANCE)))
    ]


def bound_rows_csv(table: BoundTable) -> str:
    """CSV text of sphere-flow rows, r-major: kind, r, value, reference_value, abs_error."""
    value, reference = table.value.ravel(), table.reference.ravel()
    rows = zip(*table.row_labels(), value.tolist(), reference.tolist(),
               np.abs(value - reference).tolist())
    return "kind,r,value,reference_value,abs_error\n" + "".join(
        "%s,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
