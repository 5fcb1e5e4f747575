"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison.

``eigenvalues_weighted`` solves one operator; ``dirac_spectra`` reads both basic
Dirac spectra, spinor and forms, from one read of an assembled periodic
spinor matrix.  Both go through ``hermitian_spectrum``, block by block along
the operator's translation period.  A ``SpectrumReport`` carries no window:
callers pass one that ``GridSpec.validate_window`` has checked to
``in_window``.

Basic Dirac spectra.  The paper's operator is unitarily equivalent to a
translation-invariant one, and on a circle the nontrivial spin structure
only shifts it by -1/2: an antiperiodic section psi = e^{it/2} phi is
written by its periodic part phi, on which d/dt is D + i/2
(``_spectral_diff``).  So a spinor Dirac matrix, on either spin structure,
records period 1 (``operators``): its symmetrization H is iD, or iD - 1/2,
up to round-off, and its spectrum is read from the circulant projection P
of H: the means of H along its N wrapped diagonals, whose DFT is the
spectrum of P, in O(N^2).  With d = ||H - P||_F, the report's ``distance``,
and eigenvalues in ascending order, Weyl's inequality gives:

* |lambda_k(H) - mu_k(P)| <= ||H - P||_2 <= d;
* with the allowance a below, every eigenvalue of H lies within the
  ``radius`` d + a of the computed mu_k;
* |lambda_k(H_1) - lambda_k(H_2)| <= d_1 + d_2 + |mu_k(P_1) - mu_k(P_2)| for
  two profiles on one grid, and the same for the forms spectra +-spec(H).

Edge rule: when no computed value lies within the radius of an edge
+-(window + WINDOW_EDGE_SLACK), every eigenvalue of H lies on its computed
value's side of the edge, so the windowed count is certified
(``SpectrumReport.window_count``) and the windowed eigenvalues of two
profiles are the same indices k.  Their sorted windowed deviation is then at
most d_1 + d_2 plus that of the computed values, and the squared forms
spectra deviate by at most 2 (window + WINDOW_EDGE_SLACK) times that, since
|a^2 - b^2| = |a - b| |a + b|.  ``verify`` reads these two bounds; the
computed values' own round-off enters the radius, not the bounds.  When a
count is not certified the deviation is math.inf.

The allowance.  Let eps be the machine epsilon and gamma_n = n eps /
(1 - n eps).  The computed values and distance carry these errors:

(i) each diagonal mean is a recursive sum of N entries and a division by
    N, so it errs by at most (gamma_N / N) sum |h|, and the circulant of
    these errors has Frobenius norm at most gamma_N ||H||_F (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Lemma 3.5);
(ii) the N-point FFT errs normwise by at most phi_N = gamma_{7 log2(N)}
    relative (Higham, Theorem 24.2, twiddle factors accurate to eps), on a
    vector of 2-norm ||P||_F <= ||H||_F;
(iii) ``eigvalsh`` returns the real part of each 1 x 1 block: eps ||H||_2;
(iv) the computed d is the norm of H minus the computed means: within
    gamma_N ||H||_F of the exact d by (i), and within gamma_{N^2} d + eps d
    of its own value, as its 2 N^2 squares sum to within gamma_{2 N^2} and
    the root halves that and rounds once; eps d <= eps ||H||_F.

So a = (2 gamma_N + phi_N + 2 eps) ||H||_F + gamma_{N^2} d, with ||H||_F <=
||mu||_2 + d taken at the computed values, a second-order change.  It is
derived, not fitted.  H is projected as it is formed, with no diagonal
scaling before the means, so no other rounding enters the read.  At
N = 256 a is 1.5e-10 (d is 2e-12), and the projected values are within
3.6e-13 to 6.1e-13 of dense ``eigvalsh`` values on either spin structure.

Gram reads.  With T = g^{-1/2} D g^{1/2}, the twisted differential, the
weighted symmetrizations of the basic Laplacians delta d and d delta are
-T (g^{1/2} D g^{-1/2}) and -(g^{1/2} D g^{-1/2}) T: T T^H and T^H T when
D^H = -D, both with eigenvalues sigma_k(T)^2.  A ``GramOperator`` holds
M = iT and projects it along the density's period P
(``operators.block_circulant_projection``); the N/P blocks C_k C_k^H carry
the sigma_k(P(T))^2.  With d = ||M - P(M)||_F, Weyl's inequality for
singular values gives |sigma_k(T) - sigma_k(P(T))| <= ||T - P(T)||_2 <= d,
so |sigma_k(T)^2 - sigma_k(P(T))^2| <= d (2 sigma + d), sigma the largest
computed sigma_k(P(T)): each eigenvalue moves by at most that.  The read is
refused when d (2 sigma + d) / sigma^2, the solved matrix's distance from
T T^H relative to the largest eigenvalue, exceeds SYMMETRIZATION_TOLERANCE,
and when M fails the period-1 Dirac read's gate: M's symmetrization is iD,
so that gate measures D + D^H and refuses a wrong factor such as
g^{1/2} D g^{-1/2}, whose symmetrization i g D g^{-1} is not Hermitian.  At
P = N, d = 0 and the read is the dense Gram product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import GramOperator, WeightedOperator, forms_label

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6


class OperatorSymmetryError(ValueError):
    """The operator failed its weighted-Hermitian invariant; assembly bug."""


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted real spectrum, its grid provenance, the ``distance`` ||X - P||_F of
    the projection it was read from (0 if dense) and whether it is a P = 1 Hermitian read."""

    eigenvalues: np.ndarray
    grid_size: int
    operator_label: str
    distance: float = 0.0
    radius_derived: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.sort(np.asarray(self.eigenvalues, dtype=np.float64))
        )

    def in_window(self, window: float) -> np.ndarray:
        values = self.eigenvalues
        return values[np.abs(values) <= window + WINDOW_EDGE_SLACK]

    @property
    def radius(self) -> float:
        """Distance plus allowance (module docstring) of a P = 1 Hermitian read:
        every eigenvalue of H lies within it of its computed value; ValueError on any other."""
        if not self.radius_derived:
            raise ValueError(f"operator {self.operator_label!r} has no derived radius")
        n, eps = self.eigenvalues.size, np.finfo(np.float64).eps

        def gamma(k):
            return k * eps / (1.0 - k * eps)

        norm = float(np.linalg.norm(self.eigenvalues)) + self.distance
        allowance = (2.0 * gamma(n) + gamma(7.0 * math.log2(n)) + 2.0 * eps) * norm
        return (1.0 + gamma(n * n)) * self.distance + allowance

    def window_count(self, window: float) -> int | None:
        """Eigenvalues of H with |lambda| <= window + WINDOW_EDGE_SLACK, read off
        the computed values; None when one lies within the radius of an edge."""
        edge = window + WINDOW_EDGE_SLACK
        magnitudes = np.abs(self.eigenvalues)
        if np.min(np.abs(magnitudes - edge)) <= self.radius:
            return None
        return int(np.count_nonzero(magnitudes <= edge))


def _require_symmetric(residual: float, label: str) -> None:
    """Refuse an operator whose gate ratio exceeds the tolerance: an assembly bug."""
    if residual > SYMMETRIZATION_TOLERANCE:
        raise OperatorSymmetryError(
            f"operator {label!r} is not symmetric in its weighted metric: "
            f"relative residual {residual:.3e} > {SYMMETRIZATION_TOLERANCE:.0e}"
        )


def eigenvalues_weighted(op: WeightedOperator, out=None) -> SpectrumReport:
    """Full real spectrum of a weighted-Hermitian operator, refused when the
    gate ratio of ``WeightedOperator.hermitian_spectrum`` exceeds the tolerance;
    ``out`` is passed to it."""
    values, residual, distance = op.hermitian_spectrum(out=out)
    _require_symmetric(residual, op.label)
    return SpectrumReport(values, op.n_points, op.label, distance, _radius_derived(op))


def _radius_derived(op: WeightedOperator) -> bool:
    return op.period == 1 and not isinstance(op, GramOperator)


def dirac_spectra(
    spinor: WeightedOperator, out=None
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spinor and forms basic Dirac spectra from one P = 1 read of ``spinor``,
    the periodic matrix ``assemble_basic_dirac_spinor(density, GridSpec(N))``;
    ``out`` is passed to ``hermitian_spectrum``.

    That matrix is iT, T the twisted differential (bitwise: both scale the
    same cached derivative matrix), and the forms operator is
    [[0, -T], [T, 0]], whose spectrum is +-spec(iT); its projection moves it
    by the same 2-norm, so both reports carry the spinor's distance.  The 2N
    matrix's anti-Hermitian part is two copies of that of iT, so sqrt(2)
    times the spinor's gate ratio is never below the ratio of the 2N solve
    ``eigenvalues_weighted(assemble_basic_dirac_forms(...))``: the forms gate
    stays sqrt(2) stricter.  An antiperiodic spinor matrix is iT - 1/2, so
    its second report is +-spec(iT - 1/2), not a forms spectrum (forms are
    periodic); no command asks.  The forms radius is never below the spinor's.
    """
    n, derived = spinor.n_points, _radius_derived(spinor)
    values, residual, distance = spinor.hermitian_spectrum(out=out)
    _require_symmetric(residual, spinor.label)
    _require_symmetric(math.sqrt(2.0) * residual, forms_label(n))
    return (
        SpectrumReport(values, n, spinor.label, distance, derived),
        SpectrumReport(np.concatenate([-values, values]), n, forms_label(n), distance, derived),
    )


def spectrum_compare(a: SpectrumReport, b: SpectrumReport, window: float) -> float:
    """Maximum deviation of the two sorted spectra restricted to [-window, window].

    Returns math.inf as the sentinel when the in-window multiplicity counts
    disagree (a structurally different spectrum, not a numeric deviation).
    """
    values_a, values_b = a.in_window(window), b.in_window(window)
    if values_a.size != values_b.size:
        return math.inf
    return float(np.max(np.abs(values_a - values_b))) if values_a.size else 0.0
