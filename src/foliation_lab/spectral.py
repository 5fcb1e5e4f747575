"""Eigenvalue extraction for weighted-Hermitian operators, spectrum comparison,
and the lattice certificate that replaces the basic Dirac solves in ``verify``.

``eigenvalues_weighted`` solves one operator; ``dirac_spectra`` reads both basic
Dirac spectra, spinor and forms, from one solve of an assembled trivial spinor
matrix.  Both solve through ``WeightedOperator.hermitian_spectrum``: block by
block along the translation period the operator records, dense when it
records none, and gated on the distance of H from its block-circulant
projection as well as on its asymmetry.  ``lattice_certificate`` bounds that
same spectrum without solving it.  A ``SpectrumReport`` carries no window:
callers pass one that ``GridSpec.validate_window`` has checked to
``in_window``.

The certificate.  The symmetrization H = (S + S^H)/2 of a trivial spinor Dirac
matrix (``WeightedOperator.symmetrized``, the matrix ``hermitian_spectrum``
solves) is, up to round-off, iD = 1j * differentiation_matrix(N, "trivial"),
whose spectrum is the integer lattice -wavenumbers(N) = {-N/2, ..., N/2 - 1}.
With eps = ||H - iD||_F, Weyl's inequality for ordered eigenvalues gives:

* |lambda_k(H_1) - lambda_k(H_2)| <= ||H_1 - H_2||_2 <= eps_1 + eps_2 for two
  profiles on one grid;
* |lambda_k(H) - lattice_k| <= eps + lattice_round_off(N) =: radius, where the
  second term bounds the distance of the computed iD from the exact lattice
  operator (see ``lattice_round_off``).

Edge rule: when no lattice point lies within the radius of an edge
+-(window + WINDOW_EDGE_SLACK), every eigenvalue sits on its lattice point's
side of the edge, so the windowed count is the lattice's and the windowed
eigenvalues of two profiles are the same indices k.  Their sorted windowed
deviation is then at most eps_1 + eps_2, and so is that of the forms spectra
+-spec(H) (sorting minimizes the largest deviation of any pairing), while the
squared forms spectra deviate by at most 2 (window + WINDOW_EDGE_SLACK)
(eps_1 + eps_2), since |a^2 - b^2| = |a - b| |a + b|.  When a lattice point is
within the radius of an edge the count is not certified and the deviation is
math.inf.  These bounds concern the exact spectra of the assembled matrices H;
eigenvalues computed by ``eigvalsh`` carry a further backward error of order
N * eps_machine * ||H||_2, and a blocked solve a further ||H - P(H)||_F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spectral_diff import differentiation_matrix, wavenumbers
from .model_spaces import GridSpec
from .operators import WeightedOperator, forms_label

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
    values, residual = op.hermitian_spectrum(out=out)
    _require_symmetric(residual, op.label)
    return SpectrumReport(values, op.n_points, op.label)


def _require_trivial(grid: GridSpec, caller: str) -> None:
    if grid.spin_structure != "trivial":
        raise ValueError(
            f"{caller} needs the trivial spin structure, got {grid.spin_structure!r}"
        )


def dirac_spectra(
    spinor: WeightedOperator, grid: GridSpec
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spinor and forms basic Dirac spectra from one N x N solve of ``spinor``,
    the matrix ``assemble_basic_dirac_spinor(density, grid)``.

    On the trivial spin structure the spinor Dirac matrix is iT, T the twisted
    differential (bitwise: both scale the same cached derivative matrix), and
    the forms operator is [[0, -T], [T, 0]], whose spectrum is +-spec(iT).  The
    2N matrix's anti-Hermitian part is two copies of that of iT, so sqrt(2)
    times the dense spinor gate ratio is exactly the ratio of the 2N solve
    ``eigenvalues_weighted(assemble_basic_dirac_forms(...))``: the forms gate
    stays sqrt(2) stricter.  A blocked spinor solve (a density with a
    translation period) only adds its projection term to that ratio.
    Antiperiodic sections break the identity, so a nontrivial grid is refused.
    """
    _require_trivial(grid, "dirac_spectra")
    n = grid.n_points
    values, residual = spinor.hermitian_spectrum()
    _require_symmetric(residual, spinor.label)
    _require_symmetric(math.sqrt(2.0) * residual, forms_label(n))
    return (
        SpectrumReport(values, n, spinor.label),
        SpectrumReport(np.concatenate([-values, values]), n, forms_label(n)),
    )


def lattice_round_off(n_points: int) -> float:
    """Bound on ||iD - L||_2, iD the computed matrix and L the exact operator
    with spectrum -wavenumbers(N): N * eps_machine * ||L||_2 = N * eps * N/2.

    D is the inverse FFT of ik times the FFT of the identity; FFT round-off is
    of order log2(N) * eps relative per column, so the Frobenius error is of
    order sqrt(N) * log2(N) * eps * N/2, below the bound for N >= 16.  Against
    a long-double closed form (cot entries plus the +N/2 mode) it measures
    4.7e-14, 1.8e-13, 6.9e-13 and 2.7e-12 at N = 64, 128, 256 and 512, about a
    tenth of the bound at each.
    """
    return n_points * np.finfo(np.float64).eps * (n_points / 2)


@dataclass(frozen=True)
class LatticeCertificate:
    """Weyl certificate of one trivial spinor Dirac matrix (module docstring):
    ``distance`` = ||H - iD||_F, and every ordered eigenvalue of H lies within
    ``radius`` = distance + lattice_round_off(N) of its lattice point.
    ``gate_ratio`` is ||S - S^H||_F / (N/2 - radius), never below the ratio of
    the dense solve of H, ||S - S^H||_F / max|lambda(H)|, since
    max|lambda(H)| >= N/2 - radius.  The certificate bounds the spectrum of H
    itself, so the projection term of a blocked solve does not enter it."""

    distance: float
    radius: float
    gate_ratio: float
    n_points: int

    def window_count(self, window: float) -> int | None:
        """Eigenvalues of H with |lambda| <= window + WINDOW_EDGE_SLACK, read off
        the lattice; None when a lattice point lies within the radius of an edge."""
        edge = window + WINDOW_EDGE_SLACK
        magnitudes = np.abs(wavenumbers(self.n_points))
        if np.min(np.abs(magnitudes - edge)) <= self.radius:
            return None
        return int(np.count_nonzero(magnitudes <= edge))


def lattice_certificate(
    spinor: WeightedOperator, grid: GridSpec, out=None
) -> LatticeCertificate:
    """Certify ``spinor`` = ``assemble_basic_dirac_spinor(density, grid)`` against
    the lattice without an eigensolve: O(N^2), one N x N matrix held, in the
    H array of ``out`` when it is given (``WeightedOperator.symmetrized``).

    Refused, as by ``dirac_spectra``, on a nontrivial grid, or with
    OperatorSymmetryError when the gate ratio (spinor) or sqrt(2) times it
    (forms) exceeds the tolerance; a radius of N/2 or more makes the ratio
    infinite.  iD is subtracted in place on the float64 view:
    Re(H - iD) = Re H + Im D and Im(H - iD) = Im H - Re D.
    """
    _require_trivial(grid, "lattice_certificate")
    n = grid.n_points
    hermitian, asymmetry = spinor.symmetrized(out=out)
    view = hermitian.view(np.float64)
    derivative = differentiation_matrix(n, "trivial").view(np.float64)
    view[:, 0::2] += derivative[:, 1::2]
    view[:, 1::2] -= derivative[:, 0::2]
    distance = float(np.linalg.norm(view))
    radius = distance + lattice_round_off(n)
    floor = n / 2 - radius
    gate_ratio = asymmetry / floor if floor > 0.0 else math.inf
    _require_symmetric(gate_ratio, spinor.label)
    _require_symmetric(math.sqrt(2.0) * gate_ratio, forms_label(n))
    return LatticeCertificate(distance, radius, gate_ratio, n)


def certified_deviation(
    cert_1: LatticeCertificate, cert_2: LatticeCertificate, window: float
) -> float:
    """Bound eps_1 + eps_2 on the sorted windowed deviation of the two spinor
    spectra and of the two forms spectra; math.inf when either window count
    is not certified (the edge rule)."""
    if cert_1.window_count(window) is None or cert_2.window_count(window) is None:
        return math.inf
    return cert_1.distance + cert_2.distance


def spectrum_compare(a: SpectrumReport, b: SpectrumReport, window: float) -> float:
    """Maximum deviation of the two sorted spectra restricted to [-window, window].

    Returns math.inf as the sentinel when the in-window multiplicity counts
    disagree (a structurally different spectrum, not a numeric deviation).
    """
    values_a, values_b = a.in_window(window), b.in_window(window)
    if values_a.size != values_b.size:
        return math.inf
    return float(np.max(np.abs(values_a - values_b))) if values_a.size else 0.0
