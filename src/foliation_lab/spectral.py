"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison.

``eigenvalues_weighted`` solves one assembled operator.  ``dirac_spectra``
reads both basic Dirac spectra of a density from the operator's O(N) data,
and for ``spectrum`` the function Laplacian's by a Gram read of the
assembled periodic spinor matrix.  ``function_laplacian`` reads it for the
pair battery from the density's Fourier coefficients where that is the
cheaper read or the density is constant, else by the Gram read.  A
``SpectrumReport`` carries no window: callers pass one that
``GridSpec.validate_window`` has checked to ``in_window``.

Basic Dirac spectra.  The paper's operator is unitarily equivalent to a
translation-invariant one, and on a circle the nontrivial spin structure
only shifts it by -1/2: an antiperiodic section psi = e^{it/2} phi is
written by its periodic part phi, on which d/dt is D + i/2
(``_spectral_diff``).  The operator read is the one built from the computed
weights, M = i w^{-1} C w in the weights W, with (w, W) from
``operators.dirac_factors`` and C the circulant of D_s's column c =
ifft(ik), k = ``wavenumbers(N)``, plus i/2 in c_0 on the nontrivial
structure, made exactly skew-Hermitian by c_m -> (c_m - conj(c_{-m})) / 2,
which moves it by round-off, so that A = iC is Hermitian.  Its
symmetrization S = W^{1/2} M W^{-1/2} = diag(q) A diag(q)^{-1}, with
q = W^{1/2} / w constant in exact arithmetic, and H = (S + S^H) / 2 has the
entries A_jk h_jk, h_jk = (q_j / q_k + conj(q_k / q_j)) / 2.  A's
eigenvalues mu = Re fft(ic) are computed once per (N, spin structure)
(``circulant_spectrum``), with F = ||A||_F = N^{1/2} ||c||_2.

The bounds, for real or complex q (a non-constant phase is the wrong-frame
defect).  With a = |q| and delta = max |q_j - q_k|:
2 q_k conj(q_j) (h_jk - 1) = |q_j - q_k|^2 - 2i Im((q_k - q_j) conj(q_j)),
so |h_jk - 1| <= s = delta^2 / (2 a_min^2) + delta / a_min, whose second
term is 0 for real q: then h_jk - 1 = (q_j - q_k)^2 / (2 q_j q_k), second
order in q's spread.

* d = F s >= ||H - A||_F >= ||H - A||_2, the report's ``distance``.
* S - S^H has the entries A_jk (q_j / q_k - conj(q_k / q_j)), of modulus
  |A_jk| |a_j^2 - a_k^2| / (a_j a_k), so ||S - S^H||_F <= F (a_max^2 -
  a_min^2) / a_min^2, the asymmetry.  A non-constant phase keeps S
  Hermitian but moves it from A: d refuses it.
* ``enclosure`` reads the extremes and delta off the computed q, each entry
  within a relative t = gamma_8 of the exact one (a square root, a real or
  complex division, Higham Lemma 3.5, and the modulus): min a >= (1 - t)
  min |q~|, max a <= (1 + t) max |q~|, and delta is at most the diagonal
  of the computed entries' bounding box plus 2 t max a.  For real w and W
  the exact q is real.  ``verify``'s conjugation bound reads it too.

By Weyl's inequality, with eigenvalues in ascending order,
|lambda_k(H) - mu_k| <= ||H - A||_2 <= d; so every eigenvalue of H lies
within the ``radius`` d + a of the computed mu_k, a the allowance below,
and |lambda_k(H_1) - lambda_k(H_2)| <= d_1 + d_2 + |mu_k,1 - mu_k,2| for
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

The allowance.  With eps the machine epsilon and gamma_n = n eps /
(1 - n eps), the N-point FFT errs normwise by at most phi_N =
gamma_{7 log2(N)} relative (Higham, *Accuracy and Stability of Numerical
Algorithms*, Theorem 24.2, twiddle factors accurate to eps), on ic, whose
exact transform has 2-norm F: each computed value is within a = phi_N F of
its mu_k, and real parts and sorting move none farther.  As F <=
||mu~||_2 / (1 - phi_N), the radius (1 + gamma_{N^2}) d + (2 gamma_N +
phi_N + 2 eps)(||mu~||_2 + d) of ``SpectrumReport.radius``, kept from the
earlier read of the assembled matrix, exceeds d + a; the factor on d
covers the roundings of d's O(N) formula and of F.  It is derived, not
fitted.  At N = 256 the radius is 1.5e-10 and d about 1e-26; the values
are within 5.8e-13 of a dense ``eigvalsh`` of the assembled matrix, whose D
differs from C by round-off (``tests/conftest.py`` keeps that oracle).

Gram reads (``spectrum --operator laplacian-*``, and the pair battery
where a Galerkin read is not made).  With T = g^{-1/2} D g^{1/2}, the
twisted differential, the weighted symmetrizations of the basic Laplacians
delta d and d delta are -T (g^{1/2} D g^{-1/2}) and -(g^{1/2} D g^{-1/2})
T: T T^H and T^H T when D^H = -D, both with eigenvalues sigma_k(T)^2.
``dirac_spectra``, given the density's period P, assembles the periodic
spinor matrix M = iT and projects it along P (``operators.gram_spectrum``);
the N/P blocks C_k C_k^H carry the sigma_k(P(T))^2.  With
d = ||M - P(M)||_F, Weyl's inequality for singular values gives
|sigma_k(T) - sigma_k(P(T))| <= ||T - P(T)||_2 <= d, so
|sigma_k(T)^2 - sigma_k(P(T))^2| <= d (2 sigma + d), sigma the largest
computed sigma_k(P(T)): each eigenvalue moves by at most that.  The
Laplacian report is refused when d (2 sigma + d) / sigma^2, the solved
matrix's distance from T T^H relative to the largest eigenvalue, exceeds
SYMMETRIZATION_TOLERANCE, and when the density fails the Dirac read's gate
above: a wrong factor such as w = g makes q = (2 pi / N)^{1/2} g^{-1/2}
non-constant, and the assembly takes w from the same ``dirac_factors``.
At P = N, d = 0 and the read is the dense Gram product.  ``spectrum``
keeps this read whatever the density, because its contract is the
spectrum of the assembled matrix.  The pair battery's grid reads
(``function_laplacian``) pass the shift gate only: the Dirac read of the
same density passes the other.

Galerkin reads (the pair battery).  The function Laplacian is
Delta u = -(g u')'/g, self-adjoint in L^2(g dt), and g is a trigonometric
polynomial.  Its coefficients g_m, |m| <= B, are the DFT of the samples
over N, B the t-bandwidth less any trailing zero coefficient, with g_0
real and g_{-m} = conj(g_m) set exactly; higher coefficients are zero, not
read off the DFT, so none wraps.  The read is of the density
g~ = sum g_m e^{imt}, which differs from the samples by the DFT's
round-off.  In the basis e^{ikt}, |k| <= K, the mass matrix G_jk = g_{j-k}
and the stiffness matrix A_jk = jk g_{j-k} are exact, with no quadrature
and no aliasing, and Hermitian by construction.  A c = rho G c is solved
through G = L L^H as the Hermitian problem of L^{-1} A L^{-H}, c = L^{-H} y.

* Rayleigh-Ritz: the trial spaces are nested in K, so the k-th Ritz value
  rho_k is an upper bound of lambda_k(Delta) and does not increase with K.
* The radius.  For u = sum c_k e^{ikt}, the weak residual
  w = -(g~ u')' - rho g~ u has the coefficients
  w_l = sum_k (lk - rho) g_{l-k} c_k, |l| <= K + B, exactly.  Galerkin
  orthogonality makes them vanish on |l| <= K; the computed w keeps the
  solve's round-off there.  As Delta u - rho u = w / g~, its squared
  g~-norm is (1/2pi) int |w|^2 / g~ <= sum |w_l|^2 / g_low, and
  ||u||^2 = c^H G c.  So Delta has an eigenvalue within
  r = (sum |w_l|^2 / (g_low c^H G c))^{1/2} of rho (Krylov-Bogolyubov;
  Kato, J. Phys. Soc. Japan 4, 1949).  The computed w errs entrywise by at
  most sqrt(2) gamma_{2K+5} (|S| + |rho| |T|) |c|, two complex products of
  rows of 2K + 1 terms, a scaling and a difference (Higham, section 3.6),
  whose norm the radius adds to that of w.  Radii are computed for the
  Ritz pairs with |rho| <= window^2 + WINDOW_EDGE_SLACK only.
* g_low = g_0 - 2 sum_{m >= 1} |g_m| <= min g~, less gamma_{B+2} (g_0 +
  2 sum |g_m|) for the rounding of that sum.  G is the Toeplitz matrix of
  g~, so its eigenvalues are at least g_low.  A Galerkin read needs
  g_low > 0: this is its gate, on the density the matrices are built from,
  since A and G are Hermitian by construction.  A positive density without
  it, such as e^{cos t} or 1 + 0.6 cos t + 0.6 cos 2t, gets the grid read.
* The order.  The eigenfunctions solve (g~ u')' + lambda g~ u = 0, whose
  singular points are the complex zeros of g~.  As |g~(t + iy) - g_0| <=
  2 sum |g_m| cosh(m y), g~ has none in the strip |Im t| < eta, eta the
  root of g_0 = 2 sum |g_m| cosh(m eta) (``strip_width``; infinite for a
  constant), so the eigenfunctions' coefficients decay like e^{-eta |l|}
  and the radius at order K like e^{-eta (K - W)} times a power of K.
  ``galerkin_laplacian`` solves first at K = floor(W + (ln(1 / tolerance)
  + m) / eta) + 1, m = GALERKIN_MARGIN = 8, then adds ceil(m / eta) until
  the windowed radii are all at most the tolerance.  Measured at tolerance
  1e-8 (ln 1e8 = 18.4), over generated densities, cos t with amplitude to
  0.99, and t-bandwidths 3 to 16 with amplitudes to 0.6, at windows 6 to
  32, the smallest sufficient K had (K - W) eta between 13 and 26.6: the
  first solve suffices except for densities near zero, and each further
  step cuts the radius by about e^{-8}.
* The tolerance.  ``verify`` passes LAPLACIAN_FORMS_THRESHOLD = 1e-8, the
  fraction 1e-5 of LAPLACIAN_GAP_THRESHOLD = 1e-3.  The contrast passes
  when gap - r_1 - r_2 exceeds the gap threshold, and requires the squared
  forms spectra to agree within the forms threshold.  A radius and the
  forms bound are both certified errors of second-order eigenvalues, so
  this tolerance reads the Laplacian half at the precision at which the
  Dirac half is read, and the radii move the pass line by at most 2e-8, a
  relative 2e-5 of the gap threshold.  A looser tolerance would let a
  Laplacian value be less certain than a deviation that the Dirac half
  counts as a move; a tighter one changes no verdict the threshold can see
  and costs a larger K.
* The choice (``function_laplacian``).  A grid read solves N/P Hermitian
  blocks of dimension P after an N^2 projection, work N P^2; a Galerkin
  read one generalized problem of dimension 2K + 1, with a Cholesky
  factor, three solves and eigenvectors.  The pair battery makes the
  Galerkin read only at orders with GALERKIN_COST (2K + 1)^3 <= N P^2,
  GALERKIN_COST = 6, and otherwise the grid read of iT along P, as
  ``spectrum`` does, assembling iT for it, with the radius d (2 sigma + d)
  of each value from the assembled matrix's.  At the largest such K the
  two reads cost about the same, and below it the Galerkin read is the
  faster: measured (2 cores, numpy 2.4 with OpenBLAS) at (N, P, K) =
  (64, 64, 17), (128, 128, 34), (256, 128, 43), (256, 256, 69) and
  (512, 512, 140), 0.57, 2.5, 4.9, 11.7 and 70 ms against 0.41, 2.3, 5.9,
  13.0 and 61 ms.  A constant density (P = 1, eta infinite) is read at its
  predicted order floor(window) + 1 whatever the cost: at window 10 its
  largest radius is 1.7e-12, in 0.24 ms against 1.04 ms for the assembly
  and grid read at N = 256.  The t-bandwidth-8 density of
  ``tools/parity.py`` (K = 89 at window 10) gets the grid read up to
  N = 256.
* What is not certified.  The radius places an eigenvalue of Delta within
  r of each rho_k, and rho_k >= lambda_k, but neither says that the
  eigenvalue near rho_k is the k-th: the +-k pairs are near-degenerate
  clusters.  ``verify`` pairs the sorted windowed values by index, as the
  grid read does; certifying the index (Lehmann-Goerisch or Kato-Temple
  lower bounds) is open.  The radii are against Delta of g~: the DFT's
  relative round-off e in g~ moves each eigenvalue by at most a relative
  2e / (1 - e), about 1e-15, by min-max, which no radius includes.  A grid
  read's radius bounds its values' distance from the assembled matrix's
  eigenvalues, not from Delta's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._spectral_diff import wavenumbers
from .basic_calculus import LeafVolumeDensity
from .model_spaces import GridSpec
from .operators import (
    WeightedOperator,
    assemble_basic_dirac_spinor,
    dirac_factors,
    forms_label,
    gram_spectrum,
    laplacian_label,
    spinor_label,
)

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6

# The margin m of the predicted Galerkin orders K = W + (ln(1 / tolerance) +
# m) / eta + j m / eta, j = 0, 1, ... (module docstring).
GALERKIN_MARGIN = 8.0

# The pair battery reads a Laplacian by Galerkin at orders K with
# GALERKIN_COST (2K + 1)^3 <= N P^2 (module docstring).
GALERKIN_COST = 6.0

_EPS = np.finfo(np.float64).eps


def gamma(k: float) -> float:
    """gamma_k = k eps / (1 - k eps), Higham's rounding-error constant."""
    return k * _EPS / (1.0 - k * _EPS)


# t, the relative error of each computed entry that ``enclosure`` allows.
_ENTRY_ROUNDING = gamma(8)


class OperatorSymmetryError(ValueError):
    """The operator failed its weighted-Hermitian invariant; assembly bug."""


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted real spectrum, its grid provenance, its ``distance``, and whether
    it is a ``dirac_spectra`` Dirac read, whose radius is derived.  The
    distance is d >= ||H - A||_F for a Dirac read, and ||X - P(X)||_F of the
    projection a matrix read solved (0 if dense)."""

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
        """Distance plus allowance (module docstring) of a Dirac read: every
        eigenvalue of H lies within it of its computed value; ValueError on any other."""
        if not self.radius_derived:
            raise ValueError(f"operator {self.operator_label!r} has no derived radius")
        n = self.eigenvalues.size
        norm = float(np.linalg.norm(self.eigenvalues)) + self.distance
        allowance = (2.0 * gamma(n) + gamma(7.0 * math.log2(n)) + 2.0 * _EPS) * norm
        return (1.0 + gamma(n * n)) * self.distance + allowance

    def window_count(self, window: float) -> int | None:
        """Eigenvalues of H with |lambda| <= window + WINDOW_EDGE_SLACK, read off
        the computed values; None when one lies within the radius of an edge."""
        edge = window + WINDOW_EDGE_SLACK
        magnitudes = np.abs(self.eigenvalues)
        if np.min(np.abs(magnitudes - edge)) <= self.radius:
            return None
        return int(np.count_nonzero(magnitudes <= edge))


def _require_symmetric(ratios: dict) -> None:
    """Refuse a read when the gate ratio of any of its reports, by operator
    label, exceeds the tolerance (an assembly bug), naming each such report."""
    refused = [
        f"operator {label!r} is not symmetric in its weighted metric: "
        f"relative residual {ratio:.3e} > {SYMMETRIZATION_TOLERANCE:.0e}"
        for label, ratio in ratios.items() if ratio > SYMMETRIZATION_TOLERANCE
    ]
    if refused:
        raise OperatorSymmetryError("; ".join(refused))


def eigenvalues_weighted(op: WeightedOperator) -> SpectrumReport:
    """Full real spectrum of a weighted-Hermitian operator, refused when the
    gate ratio of ``WeightedOperator.hermitian_spectrum`` exceeds the tolerance."""
    values, residual, distance = op.hermitian_spectrum()
    _require_symmetric({op.label: residual})
    return SpectrumReport(values, op.n_points, op.label, distance)


@lru_cache(maxsize=8)
def circulant_spectrum(n_points: int, spin_structure: str) -> tuple[np.ndarray, float]:
    """mu, the ascending eigenvalues Re fft(ic) of A = iC, read-only, and
    F = ||C||_F, for C the circulant of D_s's column c made exactly
    skew-Hermitian (module docstring).  Callers pass both arguments
    positionally, so each grid has one cache key."""
    column = np.fft.ifft(1j * wavenumbers(n_points))
    if spin_structure == "nontrivial":
        column[0] += 0.5j
    column = 0.5 * (column - np.conj(np.roll(column[::-1], 1)))
    values = np.sort(np.fft.fft(1j * column).real)
    values.flags.writeable = False
    return values, math.sqrt(n_points) * float(np.linalg.norm(column))


def enclosure(values: np.ndarray) -> tuple[float, float, float]:
    """Bounds for an array x whose computed ``values`` err by a relative
    gamma_8 at most per entry: a lower bound of min |x|, an upper bound of
    max |x|, and an upper bound of max |x_j - x_k| (module docstring)."""
    modulus = np.abs(values)
    low = float(np.min(modulus)) * (1.0 - _ENTRY_ROUNDING)
    high = float(np.max(modulus)) * (1.0 + _ENTRY_ROUNDING)
    box = math.hypot(float(np.ptp(values.real)), float(np.ptp(values.imag)))
    return low, high, box + 2.0 * _ENTRY_ROUNDING * high


def factor_bounds(q: np.ndarray, frobenius: float) -> tuple[float, float]:
    """Upper bounds of ||S - S^H||_F and of d >= ||H - A||_F for the factor
    q = W^{1/2} / w and F = ``frobenius`` (module docstring)."""
    low, high, delta = enclosure(q)
    spread = delta * delta / (2.0 * low * low)
    if np.iscomplexobj(q):
        spread += delta / low
    return frobenius * (high * high - low * low) / (low * low), frobenius * spread


def dirac_spectra(density: LeafVolumeDensity, grid: GridSpec, period: int | None = None) -> tuple:
    """Spinor and forms basic Dirac spectra of ``density`` on ``grid``, read
    from the operator's O(N) data (module docstring), and given the
    density's ``period`` the function Laplacian's, by the Gram read of the
    assembled periodic spinor matrix.

    The forms spectrum is +-spec(iT), so both Dirac reports carry d.  The
    gate ratio is (||S - S^H||_F + 2 d) / max |mu|, both terms bounded; the
    forms gate is sqrt(2) times it, as the 2N matrix's anti-Hermitian part
    is two copies of that of iT; the Laplacian's is the larger of the
    spinor's and the Gram read's shift ratio, and a refusal names every
    report whose gate fails.  No command asks the nontrivial structure for
    a Laplacian (forms are periodic).
    """
    n = grid.n_points
    if density.n_points != n:
        raise ValueError("density and grid sizes differ")
    w, weights = dirac_factors(density)
    values, frobenius = circulant_spectrum(n, grid.spin_structure)
    asymmetry, distance = factor_bounds(np.sqrt(weights) / w, frobenius)
    residual = (asymmetry + 2.0 * distance) / max(float(np.max(np.abs(values))),
                                                  np.finfo(float).tiny)
    reports = (
        SpectrumReport(values, n, spinor_label(grid), distance, True),
        SpectrumReport(np.concatenate([-values, values]), n, forms_label(n), distance, True),
    )
    ratios = {spinor_label(grid): residual, forms_label(n): math.sqrt(2.0) * residual}
    if period is not None:
        gram, shift, gram_distance = gram_spectrum(
            assemble_basic_dirac_spinor(density, grid).matrix, period)
        reports += (SpectrumReport(gram, n, laplacian_label(n), gram_distance),)
        ratios[laplacian_label(n)] = max(residual, shift)
    _require_symmetric(ratios)
    return reports


@dataclass(frozen=True)
class LaplacianRead:
    """A density's windowed function-Laplacian values for the pair battery,
    ascending, the radius of each, and the ``order`` K of a Galerkin read,
    None for a grid read (module docstring)."""

    values: np.ndarray
    radii: np.ndarray
    order: int | None

    @property
    def radius(self) -> float:
        """The largest windowed radius."""
        return float(np.max(self.radii))


def density_coefficients(density: LeafVolumeDensity) -> np.ndarray:
    """g_m for m = -B..B, conjugate-symmetric, B the t-bandwidth less any
    trailing zero coefficient, from the DFT of the samples."""
    half = np.fft.rfft(density.g_values)[: density.t_bandwidth + 1] / density.n_points
    half = half[: np.flatnonzero(half)[-1] + 1]
    half[0] = half[0].real
    return np.concatenate([np.conj(half[:0:-1]), half])


def strip_width(coefficients: np.ndarray) -> float:
    """eta, the largest y with g_0 > 2 sum_{m >= 1} |g_m| cosh(m y), to a
    relative 2^-30: infinite for a constant, 0 when g_0 <= 2 sum |g_m|."""
    bandwidth = coefficients.size // 2
    magnitudes = 2.0 * np.abs(coefficients[bandwidth + 1:])
    frequencies = np.arange(1.0, bandwidth + 1.0)

    def positive(y: float) -> bool:
        with np.errstate(over="ignore"):
            return coefficients[bandwidth].real > magnitudes @ np.cosh(frequencies * y)

    if bandwidth == 0:
        return math.inf
    low, high = 0.0, 1.0
    if not positive(low):
        return 0.0
    while positive(high):
        low, high = high, 2.0 * high
    for _ in range(30):
        middle = 0.5 * (low + high)
        low, high = (middle, high) if positive(middle) else (low, middle)
    return low


def lower_bound(coefficients: np.ndarray) -> float:
    """g_low = g_0 - 2 sum_{m >= 1} |g_m|, less its rounding (module docstring)."""
    bandwidth = coefficients.size // 2
    mean = coefficients[bandwidth].real
    total = 2.0 * float(np.sum(np.abs(coefficients[bandwidth + 1:])))
    return mean - total - gamma(bandwidth + 2) * (mean + total)


def galerkin_matrices(coefficients: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """T and S, with rows l, |l| <= K + B, and columns k, |k| <= K, for the
    coefficients g_m, |m| <= B: T[l, k] = g_{l-k} (zero for |l - k| > B) and
    S = lk T.  Their rows |l| <= K are the mass and stiffness matrices."""
    bandwidth, size = coefficients.size // 2, 2 * order + 1
    diagonals = np.zeros(2 * size + 2 * bandwidth - 1, complex)
    diagonals[size - 1 : size + 2 * bandwidth] = coefficients
    mass = sliding_window_view(diagonals, size)[:, ::-1]
    rows = np.arange(-order - bandwidth, order + bandwidth + 1.0)
    # lk as complex, so that the product casts nothing and needs no buffer
    stiffness = np.multiply.outer(rows, rows[bandwidth : bandwidth + size]).astype(complex)
    stiffness *= mass
    return mass, stiffness


def _windowed_ritz_pairs(mass: np.ndarray, stiffness: np.ndarray,
                         limit: float) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz values rho of A c = rho G c with |rho| <= ``limit``, ascending,
    and their vectors c, normalized to c^H G c = 1, through G = L L^H.  Its
    work arrays are conjugated in place and end with it, before the caller
    forms the residuals."""
    factor = np.linalg.cholesky(mass)
    reduced = np.linalg.solve(factor, stiffness)
    reduced = np.linalg.solve(factor, np.conjugate(reduced, out=reduced).T)
    values, vectors = np.linalg.eigh(reduced)
    del reduced
    windowed = np.abs(values) <= limit
    return values[windowed], np.linalg.solve(np.conjugate(factor, out=factor).T,
                                             vectors[:, windowed])


def galerkin_read(coefficients: np.ndarray, order: int, window: float) -> LaplacianRead:
    """The windowed Ritz values of the function Laplacian of the density with
    ``coefficients`` in the basis e^{ikt}, |k| <= ``order``, and their radii
    (module docstring).  ValueError when g_low <= 0."""
    bandwidth, lower = coefficients.size // 2, lower_bound(coefficients)
    if not lower > 0.0:
        raise ValueError(
            f"the Galerkin Laplacian read needs g_0 > 2 sum |g_m| over the density's "
            f"coefficients: the lower bound g_low = {lower:.3e} is not positive")
    mass, stiffness = galerkin_matrices(coefficients, order)
    interior = slice(bandwidth, bandwidth + 2 * order + 1)
    ritz, c = _windowed_ritz_pairs(mass[interior], stiffness[interior],
                                   window * window + WINDOW_EDGE_SLACK)
    mass_c = mass @ c
    residual = stiffness @ c - mass_c * ritz
    magnitude = np.abs(stiffness) @ np.abs(c) + (np.abs(mass) @ np.abs(c)) * np.abs(ritz)
    rounding = math.sqrt(2.0) * gamma(2 * order + 5) * np.linalg.norm(magnitude, axis=0)
    norm = np.sum(c.conj() * mass_c[interior], axis=0).real
    radii = (np.linalg.norm(residual, axis=0) + rounding) / np.sqrt(lower * norm)
    return LaplacianRead(ritz, radii, order)


def galerkin_laplacian(density: LeafVolumeDensity, window: float, tolerance: float,
                       largest: float) -> LaplacianRead | None:
    """The Galerkin read of ``density``'s windowed function Laplacian at the
    first order K <= ``largest`` of the predicted sequence whose radii are
    all at most ``tolerance``, or None when there is none or g_low <= 0
    (module docstring)."""
    coefficients = density_coefficients(density)
    eta = strip_width(coefficients)
    if not (eta > 0.0 and lower_bound(coefficients) > 0.0):
        return None
    order = math.floor(window + (math.log(1.0 / tolerance) + GALERKIN_MARGIN) / eta) + 1
    while order <= largest:
        read = galerkin_read(coefficients, order, window)
        if read.radius <= tolerance:
            return read
        order += max(1, math.ceil(GALERKIN_MARGIN / eta))
    return None


def function_laplacian(density: LeafVolumeDensity, window: float,
                       tolerance: float) -> LaplacianRead:
    """The pair battery's read of ``density``'s windowed function Laplacian:
    ``galerkin_laplacian`` at orders with GALERKIN_COST (2K + 1)^3 <= N P^2,
    P the density's period, or for a constant density (P = 1) at its
    predicted order floor(window) + 1; else the grid read along P of the
    density's periodic spinor Dirac matrix, assembled here (module
    docstring)."""
    n = density.n_points
    if density.period == 1:
        largest = math.floor(window) + 1
    else:
        largest = ((n * density.period**2 / GALERKIN_COST) ** (1.0 / 3.0) - 1.0) / 2.0
    read = galerkin_laplacian(density, window, tolerance, largest)
    if read is not None:
        return read
    factor = assemble_basic_dirac_spinor(density, GridSpec(n)).matrix
    values, shift, distance = gram_spectrum(factor, density.period)
    _require_symmetric({laplacian_label(n): shift})
    windowed = values[np.abs(values) <= window * window + WINDOW_EDGE_SLACK]
    radius = distance * (2.0 * math.sqrt(max(float(values[-1]), 0.0)) + distance)
    return LaplacianRead(windowed, np.full(windowed.size, radius), None)


def spectrum_compare(a: SpectrumReport, b: SpectrumReport, window: float) -> float:
    """Maximum deviation of the two sorted spectra restricted to [-window, window].

    Returns math.inf as the sentinel when the in-window multiplicity counts
    disagree (a structurally different spectrum, not a numeric deviation).
    """
    values_a, values_b = a.in_window(window), b.in_window(window)
    if values_a.size != values_b.size:
        return math.inf
    return float(np.max(np.abs(values_a - values_b))) if values_a.size else 0.0
