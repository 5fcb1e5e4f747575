"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison.

``eigenvalues_weighted`` solves one operator; ``dirac_spectra`` reads both basic
Dirac spectra, spinor and forms, from one solve of an assembled trivial spinor
matrix, so a caller that reuses that matrix assembles it once.
A ``SpectrumReport`` carries no window: callers pass one that
``GridSpec.validate_window`` has checked to ``in_window``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_spaces import GridSpec
from .operators import WeightedOperator

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6


class OperatorSymmetryError(ValueError):
    """The operator failed its weighted-Hermitian invariant; assembly bug."""


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted real spectrum with its grid provenance."""

    eigenvalues: np.ndarray
    grid_size: int
    operator_label: str

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.sort(np.asarray(self.eigenvalues, dtype=np.float64))
        )

    def in_window(self, window: float) -> np.ndarray:
        values = self.eigenvalues
        return values[np.abs(values) <= window + WINDOW_EDGE_SLACK]


def _gated_report(values, residual: float, n_points: int, label: str) -> SpectrumReport:
    """Spectrum of a solve whose gate ratio passed; a failing ratio is an assembly bug."""
    if residual > SYMMETRIZATION_TOLERANCE:
        raise OperatorSymmetryError(
            f"operator {label!r} is not symmetric in its weighted metric: "
            f"relative residual {residual:.3e} > {SYMMETRIZATION_TOLERANCE:.0e}"
        )
    return SpectrumReport(values, n_points, label)


def eigenvalues_weighted(op: WeightedOperator) -> SpectrumReport:
    """Full real spectrum of a weighted-Hermitian operator, refused when the
    gate ratio of ``WeightedOperator.hermitian_spectrum`` exceeds the tolerance."""
    values, residual = op.hermitian_spectrum()
    return _gated_report(values, residual, op.n_points, op.label)


def dirac_spectra(
    spinor: WeightedOperator, grid: GridSpec
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spinor and forms basic Dirac spectra from one N x N solve of ``spinor``,
    the matrix ``assemble_basic_dirac_spinor(density, grid)``.

    On the trivial spin structure the spinor Dirac matrix is iT, T the twisted
    differential (bitwise: both scale the same cached derivative matrix), and
    the forms operator is [[0, -T], [T, 0]], whose spectrum is +-spec(iT).  The
    2N matrix's anti-Hermitian part is two copies of that of iT, so sqrt(2)
    times the spinor gate ratio is exactly the ratio of the 2N solve
    ``eigenvalues_weighted(assemble_basic_dirac_forms(...))``: the forms gate
    stays sqrt(2) stricter.  Antiperiodic sections break the identity, so a
    nontrivial grid is refused.
    """
    if grid.spin_structure != "trivial":
        raise ValueError(
            f"dirac_spectra needs the trivial spin structure, got {grid.spin_structure!r}"
        )
    n = grid.n_points
    values, residual = spinor.hermitian_spectrum()
    forms_values = np.concatenate([-values, values])
    return (
        _gated_report(values, residual, n, spinor.label),
        _gated_report(forms_values, math.sqrt(2.0) * residual, n, f"dirac_forms[N={n}]"),
    )


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Maximum |a - b| of two sorted value arrays; math.inf when their sizes differ."""
    if a.size != b.size:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def spectrum_compare(a: SpectrumReport, b: SpectrumReport, window: float) -> float:
    """Maximum deviation of the two sorted spectra restricted to [-window, window].

    Returns math.inf as the sentinel when the in-window multiplicity counts
    disagree (a structurally different spectrum, not a numeric deviation).
    """
    return max_deviation(a.in_window(window), b.in_window(window))
