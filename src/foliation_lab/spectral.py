"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .basic_calculus import LeafVolumeDensity
from .model_spaces import GridSpec
from .operators import WeightedOperator, quadrature_weights, twisted_differential

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6


class OperatorSymmetryError(ValueError):
    """The operator failed its weighted-Hermitian invariant; assembly bug."""


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted real spectrum with the trusted window and grid provenance."""

    eigenvalues: np.ndarray
    window: float
    grid_size: int
    operator_label: str

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.sort(np.asarray(self.eigenvalues, dtype=np.float64))
        )

    def in_window(self, window: float | None = None) -> np.ndarray:
        limit = self.window if window is None else window
        values = self.eigenvalues
        return values[np.abs(values) <= limit + WINDOW_EDGE_SLACK]

    def to_csv(self, path, window: float | None = None) -> None:
        """One trusted eigenvalue per row, preceded by a comment header."""
        values = self.in_window(window)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(
                f"# operator={self.operator_label},grid={self.grid_size},"
                f"window={self.window if window is None else window:.17g},tag=inv\n"
            )
            handle.write("eigenvalue\n")
            for value in values:
                handle.write(f"{value:.17g}\n")

    def to_json(self, path, window: float | None = None) -> None:
        values = self.in_window(window)
        payload = {
            "operator_label": self.operator_label,
            "grid_size": self.grid_size,
            "window": self.window if window is None else window,
            "tag": "inv",
            "n_total": int(self.eigenvalues.size),
            "eigenvalues": [float(v) for v in values],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _gated_report(values, residual: float, n_points: int, label: str) -> SpectrumReport:
    """Spectrum of a solve whose gate ratio passed; a failing ratio is an assembly bug."""
    if residual > SYMMETRIZATION_TOLERANCE:
        raise OperatorSymmetryError(
            f"operator {label!r} is not symmetric in its weighted metric: "
            f"relative residual {residual:.3e} > {SYMMETRIZATION_TOLERANCE:.0e}"
        )
    return SpectrumReport(values, n_points / 8.0, n_points, label)


def eigenvalues_weighted(op: WeightedOperator) -> SpectrumReport:
    """Full real spectrum of a weighted-Hermitian operator, refused when the
    gate ratio of ``WeightedOperator.hermitian_spectrum`` exceeds the tolerance."""
    values, residual = op.hermitian_spectrum()
    return _gated_report(values, residual, op.n_points, op.label)


def forms_dirac_spectrum(density: LeafVolumeDensity, grid: GridSpec) -> SpectrumReport:
    """Spectrum of the basic forms Dirac operator [[0, -T], [T, 0]] from one N x N solve.

    T, the twisted differential, is anti-Hermitian in the weighted metric, so the
    spectrum is +-spec(iT).  The 2N matrix's anti-Hermitian part is two copies of
    that of iT, so sqrt(2) times the gate ratio of iT is exactly the ratio of the
    2N solve ``eigenvalues_weighted(assemble_basic_dirac_forms(...))``.
    """
    n, label = grid.n_points, f"dirac_forms[N={grid.n_points}]"
    weights = quadrature_weights(density)
    half = WeightedOperator(1j * twisted_differential(density, grid), weights, label, n)
    values, residual = half.hermitian_spectrum()
    return _gated_report(np.concatenate([-values, values]), math.sqrt(2.0) * residual, n, label)


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
