"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison.

``eigenvalues_weighted`` solves one assembled operator.  ``dirac_spectra``
reads both basic Dirac spectra of a density from the operator's O(N) data,
and ``laplacian_spectrum`` the basic Laplacians' from the Bloch blocks of
the same data along the density's period.  ``function_laplacian`` reads the
function Laplacian for the pair battery from the density's Fourier
coefficients at an order K <= N/2, else by ``laplacian_spectrum``.  A
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
(``circulant_spectrum``, which keeps c), with F = ||A||_F = N^{1/2} ||c||_2.

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

Grid Laplacian reads (``laplacian_spectrum``: ``spectrum --operator
laplacian-*``, and the pair battery where a Galerkin read is not made).
With T = w^{-1} C w, w from ``dirac_factors`` and C the periodic
structure's circulant, the weighted symmetrizations of the basic Laplacians
delta d and d delta are T T^H and T^H T (C^H = -C), both with eigenvalues
sigma_k(T)^2; the read is of the T built from (c, w), as the Dirac read is.

* The blocks.  Let P be the density's period, M = N / P, w_P the periodic
  extension of w[:P] and T_P = w_P^{-1} C w_P.  In the indices j = aP + s,
  block (a, b) of T_P is c[((a - b) P + s - t) mod N] w_t / w_s, a function
  of a - b, so the unitary block DFT makes T_P block diagonal (Davis,
  *Circulant Matrices*, 1979), with the P x P blocks B_r[s, t] =
  v[r, s - t] w_t / w_s, r < M, where v[r, delta] = sum_a c[(delta + aP)
  mod N] e^{-2 pi i r a / M}, delta = -(P - 1)..P - 1: one gather of
  M (2P - 1) entries of c and one M-point FFT.  The B_r B_r^H carry the
  sigma_k(T_P)^2, solved in one stacked ``eigvalsh`` call.  At P = N,
  B_0 = T: the dense Gram product.
* The distance.  T - T_P has the entries c_{j-l} (w_l / w_j - w_Pl / w_Pj)
  = c_{j-l} (w_Pl / w_Pj)(r_l - r_j) / r_j, r = w / w_P, so ||T - T_P||_F
  <= d = F (max w_P / min w_P) max |r_j - r_l| / min r times 1 + gamma_{N+8}
  for the roundings of F and of the formula, read by ``enclosure``
  (``conjugation_bound``, the bound of ``verify``'s conjugation check); at
  P = N, T_P = T and d = 0.  By Weyl's inequality for singular values
  |sigma_k(T) - sigma_k(T_P)| <= d, so |sigma_k(T)^2 - sigma_k(T_P)^2| <=
  d (2 sigma + d), sigma the largest computed sigma_k(T_P): each value
  moves by at most that.
* The gate.  The read is refused, under the Laplacian label, when the
  larger of d (2 sigma + d) / sigma^2 and the density's Dirac gate ratio
  above exceeds SYMMETRIZATION_TOLERANCE: a false period makes d large, and
  a wrong factor such as w = g makes q = (2 pi / N)^{1/2} g^{-1/2}
  non-constant.
* Round-off.  The M-point FFT errs by at most phi_M ||v[:, delta]||_2 for
  each delta, and the Toeplitz scaling by w_t / w_s maps v's entries onto
  the blocks' with the same weights, so the computed blocks are those of
  T_P plus E, ||E||_F <= (phi_M + gamma_2 (1 + phi_M)) ||T_P||_F (the
  ratio and the product round once each); the Gram products and the block
  solves add what they add to any Gram read.  The tests derive the
  resulting allowance; a Laplacian report has no derived ``radius``.

Galerkin reads (the pair battery).  The function Laplacian is
Delta u = -(g u')'/g, self-adjoint in L^2(g dt), and g is a trigonometric
polynomial whose coefficients g_m, |m| <= B, are
``LeafVolumeDensity.coefficients``, taken from the theta-averaged
profile's terms, not from the samples: each carries only the rounding of
one cos/sin pair and one product (and of the sum where terms share an
|n|), with g_0 real and g_{-m} = conj(g_m) exactly.  The read is of the
density g~ = sum g_m e^{imt} of the computed coefficients.  In the basis
e^{ikt}, |k| <= K, the mass matrix G_jk = g_{j-k} and the stiffness matrix
A_jk = jk g_{j-k} are exact, with no quadrature and no aliasing, and
Hermitian by construction.  A c = rho G c is solved through G = L L^H as
the Hermitian problem of L^{-1} A L^{-H}, c = L^{-H} y.

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
  it, such as 1 + 0.6 cos t + 0.6 cos 2t (minimum 0.325, g_low = -0.2),
  gets the grid read.
* The order.  The eigenfunctions solve (g~ u')' + lambda g~ u = 0, whose
  singular points are the complex zeros of g~.  As |g~(t + iy) - g_0| <=
  2 sum |g_m| cosh(m y), g~ has none in the strip |Im t| < eta, eta the
  root of g_0 = 2 sum |g_m| cosh(m eta) (``strip_width``; infinite for a
  constant), so the eigenfunctions' coefficients decay like e^{-eta |l|}
  and the radius at order K like e^{-eta (K - W)} times a power of K.
  ``function_laplacian`` solves first at K = floor(W + (ln(1 / tolerance)
  + m) / eta) + 1, m = GALERKIN_MARGIN = 8, then adds ceil(m / eta) until
  the windowed radii are all at most the tolerance.  A constant has eta
  infinite, so its first order is floor(W) + 1 (at window 10 its largest
  radius is 1.7e-12).  Measured at tolerance 1e-8 (ln 1e8 = 18.4), over
  ``verify.random_profile`` densities, cos t with amplitude to 0.99, and
  t-bandwidths 3 to 16 with amplitudes to 0.6, at windows 6 to 32, the
  smallest sufficient K had (K - W) eta between 13 and 26.6: the
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
* The cap (``function_laplacian``).  The orders stop at K = N/2; where
  none up to it meets the tolerance, or g_low <= 0, the pair battery takes
  the grid read of ``spectrum``, with the radius d (2 sigma + d) of each
  value.  The cap limits the cost, not the error: the radius certifies
  against the continuous operator at any K, and at K = N/2 the basis holds
  the modes that the N-point grid resolves.  Near the cap a Galerkin read
  can cost more than the grid read: measured (the least over 9 runs of 5
  calls, one BLAS thread, 2 cores, numpy 2.4 with OpenBLAS), the
  t-bandwidth-8 density of ``tools/parity.py`` takes 20 ms at K = 89
  against 14 ms on the grid at N = 256 and window 10, but 66 ms at K = 143
  against 81 ms at N = 512 and window 64; 2 + cos t takes 1.5 ms at K = 29
  against 0.7 ms at N = 64 and window 8.  ``verify.random_pair``'s
  densities, 2 and 2 + a cos(2t + psi) with eta >= acosh(20) / 2 = 1.84, are
  first solved at K <= W + 15, so none reaches the grid read at N = 64.
* What is not certified.  The radius places an eigenvalue of Delta within
  r of each rho_k, and rho_k >= lambda_k, but neither says that the
  eigenvalue near rho_k is the k-th: the +-k pairs are near-degenerate
  clusters.  ``verify`` pairs the sorted windowed values by index, as the
  grid read does; certifying the index (Lehmann-Goerisch or Kato-Temple
  lower bounds) is open.  The radii are against Delta of g~: the
  coefficients' rounding moves g~ from the profile's own g by a relative e
  pointwise, a few eps (g_0 + 2 sum |g_m|) / g_low, and each eigenvalue by
  at most a relative 2e / (1 - e) by min-max, which no radius includes.  A grid
  read's radius bounds its values' distance from the sigma_k(T)^2 of the T
  built from (c, w), not from Delta's.
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
from .operators import WeightedOperator, dirac_factors, forms_label, laplacian_label, spinor_label

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6

# The margin m of the predicted Galerkin orders K = W + (ln(1 / tolerance) +
# m) / eta + j m / eta, j = 0, 1, ... (module docstring).
GALERKIN_MARGIN = 8.0

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
    distance is d >= ||H - A||_F for a Dirac read, d >= ||T - T_P||_F for a
    ``laplacian_spectrum`` read, and 0 for a dense solve."""

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
    values, residual = op.hermitian_spectrum()
    _require_symmetric({op.label: residual})
    return SpectrumReport(values, op.n_points, op.label)


@lru_cache(maxsize=8)
def circulant_spectrum(n_points: int,
                       spin_structure: str) -> tuple[np.ndarray, np.ndarray, float]:
    """mu, the ascending eigenvalues Re fft(ic) of A = iC, D_s's column c
    made exactly skew-Hermitian, both read-only, and F = ||C||_F, for C the
    circulant of c, C_jk = c_{(j - k) mod N} (module docstring).  Callers
    pass both arguments positionally, so each grid has one cache key."""
    column = np.fft.ifft(1j * wavenumbers(n_points))
    if spin_structure == "nontrivial":
        column[0] += 0.5j
    column = 0.5 * (column - np.conj(np.roll(column[::-1], 1)))
    values = np.sort(np.fft.fft(1j * column).real)
    values.flags.writeable = column.flags.writeable = False
    return values, column, math.sqrt(n_points) * float(np.linalg.norm(column))


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


def conjugation_bound(u: np.ndarray, ratio: np.ndarray, frobenius: float) -> float:
    """An upper bound of ||u^{-1} C u - v^{-1} C v||_F for v = ``ratio`` u and
    F = ``frobenius`` = ||C||_F: F (max |u| / min |u|) max |r_j - r_k| / min |r|,
    read off the computed u and r by ``enclosure`` and multiplied by
    1 + gamma_{N + 8} for the roundings of F and of the formula (module
    docstring)."""
    u_low, u_high, _ = enclosure(u)
    r_low, _, spread = enclosure(ratio)
    return frobenius * (u_high / u_low) * (spread / r_low) * (1.0 + gamma(u.size + 8))


def _dirac_gate(w: np.ndarray, weights: np.ndarray, values: np.ndarray,
                frobenius: float) -> tuple[float, float]:
    """d and the Dirac read's gate ratio (||S - S^H||_F + 2 d) / max |mu|, both
    terms bounded, for the factor (w, W) (module docstring)."""
    asymmetry, distance = factor_bounds(np.sqrt(weights) / w, frobenius)
    return distance, (asymmetry + 2.0 * distance) / max(float(np.max(np.abs(values))),
                                                        np.finfo(float).tiny)


def dirac_spectra(density: LeafVolumeDensity, grid: GridSpec) -> tuple:
    """Spinor and forms basic Dirac spectra of ``density`` on ``grid``, read
    from the operator's O(N) data (module docstring).

    The forms spectrum is +-spec(iT), so both reports carry d.  The forms
    gate is sqrt(2) times the spinor's, as the 2N matrix's anti-Hermitian
    part is two copies of that of iT; a refusal names every report whose
    gate fails.
    """
    n = grid.n_points
    if density.n_points != n:
        raise ValueError("density and grid sizes differ")
    values, _, frobenius = circulant_spectrum(n, grid.spin_structure)
    distance, residual = _dirac_gate(*dirac_factors(density), values, frobenius)
    _require_symmetric({spinor_label(grid): residual, forms_label(n): math.sqrt(2.0) * residual})
    return (
        SpectrumReport(values, n, spinor_label(grid), distance, True),
        SpectrumReport(np.concatenate([-values, values]), n, forms_label(n), distance, True),
    )


def laplacian_spectrum(density: LeafVolumeDensity) -> SpectrumReport:
    """The basic Laplacians' spectrum sigma_k(T)^2, ascending, read from the
    Bloch blocks of T_P along the density's period, with the distance bound
    d >= ||T - T_P||_F, labelled as the function Laplacian; refused when the
    larger of d (2 sigma + d) / sigma^2 and the density's Dirac gate ratio
    exceeds the tolerance (module docstring)."""
    n, period = density.n_points, density.period
    copies = n // period
    w, weights = dirac_factors(density)
    lattice, column, frobenius = circulant_spectrum(n, "trivial")
    offsets = np.arange(1 - period, period) + period * np.arange(copies)[:, None]
    symbols = np.fft.fft(column[offsets % n], axis=0)
    first = w[:period]
    blocks = sliding_window_view(symbols, period, axis=1)[:, :, ::-1] * (first / first[:, None])
    gram = np.matmul(blocks, np.conjugate(blocks).transpose(0, 2, 1))
    values = np.sort(np.linalg.eigvalsh(gram), axis=None)
    periodic = np.tile(first, copies)
    distance = 0.0 if copies == 1 else conjugation_bound(periodic, w / periodic, frobenius)
    scale = max(float(values[-1]), np.finfo(float).tiny)
    shift = distance * (2.0 * math.sqrt(scale) + distance) / scale
    _require_symmetric({laplacian_label(n): max(_dirac_gate(w, weights, lattice, frobenius)[1],
                                                shift)})
    return SpectrumReport(values, n, laplacian_label(n), distance)


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


def function_laplacian(density: LeafVolumeDensity, window: float,
                       tolerance: float) -> LaplacianRead:
    """The pair battery's read of ``density``'s windowed function Laplacian:
    the ``galerkin_read`` at the first order K <= N/2 of the predicted
    sequence whose radii are all at most ``tolerance``; when there is none,
    or g_low <= 0, the windowed values of ``laplacian_spectrum``, each with
    the radius d (2 sigma + d) (module docstring)."""
    coefficients = density.coefficients
    eta = strip_width(coefficients)
    if eta > 0.0 and lower_bound(coefficients) > 0.0:
        order = math.floor(window + (math.log(1.0 / tolerance) + GALERKIN_MARGIN) / eta) + 1
        while order <= density.n_points // 2:
            read = galerkin_read(coefficients, order, window)
            if read.radius <= tolerance:
                return read
            order += max(1, math.ceil(GALERKIN_MARGIN / eta))
    report = laplacian_spectrum(density)
    windowed, distance = report.in_window(window * window), report.distance
    radius = distance * (2.0 * math.sqrt(max(float(report.eigenvalues[-1]), 0.0)) + distance)
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
