"""Eigenvalue extraction for weighted-Hermitian operators and spectrum comparison.

``eigenvalues_weighted`` solves one assembled operator.  ``dirac_spectra``
reads both basic Dirac spectra of a density from the operator's O(N) data.
``function_laplacian`` reads the function Laplacian from the density's
Fourier coefficients, by Galerkin, for the pair battery and ``spectrum``.
A ``SpectrumReport`` carries no window: callers pass one that
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

Galerkin reads.  The function Laplacian is Delta u = -(g u')'/g,
self-adjoint in L^2(g dt), and g is a trigonometric polynomial whose
coefficients g_m, |m| <= B, are ``LeafVolumeDensity.coefficients``, taken
from the theta-averaged profile's terms, not from the samples: each
carries only the rounding of one cos/sin pair and one product (and of the
sum where terms share an |n|), with g_0 real and g_{-m} = conj(g_m)
exactly.  The read is of the density g~ = sum g_m e^{imt} of the computed
coefficients.  In the basis e^{ikt}, |k| <= K, the mass matrix
G_jk = g_{j-k} and the stiffness matrix A_jk = jk g_{j-k} are exact, with
no quadrature and no aliasing, and Hermitian by construction.
A c = rho G c is solved, in the blocks below, through one inverse Cholesky
factor M = L^{-1}, G = L L^H, per stack, as the Hermitian problem of
M A M^H, c = M^H y.

* Rayleigh-Ritz: the trial spaces are nested in K, so the k-th Ritz value
  rho_k is an upper bound of lambda_k(Delta) and does not increase with K.
* The blocks.  Let d = gcd{m >= 1 : g_m != 0}, and d = 0 for a constant.
  g_{j-k} = 0 unless d divides j - k, so G_jk = A_jk = 0 exactly unless
  j = k (mod d); an absent frequency's coefficient is an exact 0, so this
  holds for the computed matrices.  Ordered by residue class, G and A are
  block diagonal, one block per class of k modulo d (each k its own class
  when d = 0 or d > 2K), and the Ritz pairs of (A, G) are the union of
  the blocks' pairs, each vector zero outside its class.  The 2K + 1 modes
  fall into classes of floor((2K + 1) / d) and ceil((2K + 1) / d) modes,
  so ``galerkin_read`` makes one stacked Cholesky, inverse and ``eigh``
  per class size, at most two, and sorts the merged windowed values.  The
  split permutes the same problem in the same trial space, so the merged
  rho_k are the unsplit problem's Ritz values, up to the reductions'
  round-off, and the upper bound and the monotonicity in K hold
  as stated.  The radius below takes each vector back into the full basis
  and its residual from the full matrices, rows |l| <= K + B: it rests on
  the residual alone and not on the split, so a split that drops a
  coupling leaves it in w, and a radius far above the tolerance.
* The radius.  For u = sum c_k e^{ikt}, the weak residual
  w = -(g~ u')' - rho g~ u has the coefficients
  w_l = sum_k (lk - rho) g_{l-k} c_k, |l| <= K + B, exactly.  Galerkin
  orthogonality makes them vanish on |l| <= K; the computed w keeps the
  reduction's round-off there.  As Delta u - rho u = w / g~, its squared
  g~-norm is (1/2pi) int |w|^2 / g~ <= sum |w_l|^2 / g_low, and
  ||u||^2 = c^H G c.  So Delta has an eigenvalue within
  r = (sum |w_l|^2 / (g_low c^H G c))^{1/2} of rho (Krylov-Bogolyubov;
  Kato, J. Phys. Soc. Japan 4, 1949).  The computed w errs entrywise by at
  most sqrt(2) gamma_{2K+5} (|S| + |rho| |T|) |c|, two complex products of
  rows of 2K + 1 terms, a scaling and a difference (Higham, section 3.6),
  whose norm the radius adds to that of w.  Radii are computed for the
  Ritz pairs with |rho| <= window^2 + WINDOW_EDGE_SLACK only.
* g_low is the positive ``min_bound`` that the theta-average's positivity
  certificate proves of g (``MetricProfile``), a lower bound of min g~ and
  so of G's eigenvalues.  Its e = 32 (K' + 1) eps S, K' terms, exceeds the
  samples' error by 12.49 (K' + 1) eps S, which covers the bound's own
  rounding and |g~ - g| <= gamma_{K'+3} (c + sum |a_i|) (each term rounds
  by gamma_3, each sum by gamma_{K'}): so 0 < g_low <= min g~ on every
  certified density.  For 1 + 0.6 cos t + 0.6 cos 2t (minimum 0.325), whose
  g_0 - 2 sum_{m >= 1} |g_m| is -0.2, it is 0.314.
* The strip.  The eigenfunctions solve (g~ u')' + lambda g~ u = 0, whose
  singular points are the complex zeros of g~.  With z = e^{it}, g~(t) =
  z^{-B} p(z), p(z) = sum_j g_{j-B} z^j, and a zero z of p is a zero t of
  g~ with Im t = -ln |z|; so g~ has none in |Im t| < eta = min |ln |z||
  (``strip_width``; infinite for a constant), the eigenfunctions'
  coefficients decay like e^{-eta |l|}, and the radius at order K like
  e^{-eta (K - W)} times a power of K.  One frequency, g_0 + 2 |g_n|
  cos(nt + phi), gives eta = acosh(g_0 / (2 |g_n|)) / n.  p is a
  polynomial in w = z^d, d the gcd of the frequencies: ``strip_width``
  takes the companion eigenvalues of that polynomial of degree 2B / d.  It
  leaves out a g_m below eps times the largest coefficient, which moves g~
  by less than the coefficients' rounding, and whose companion resolves
  the zeros near the circle only to its backward error: 2 + 1e-300 cos t
  reads as a constant.  eta only predicts K; the radius certifies.
* The orders.  ``function_laplacian`` solves first at K = floor(W +
  (ln(1 / tolerance) + m) / eta) + 1, m = GALERKIN_MARGIN = 8, then adds
  ceil(m / eta) until the windowed radii are all at most the tolerance, up
  to the first K whose predicted tail e^{-eta (K - W)} is below the unit
  round-off u = eps / 2: past it an eigenfunction's coefficients are below
  the rounding of those within, so a radius still above the tolerance
  there refuses the density (ValueError, exit 2), naming it, K and the
  radius.  At tolerance 1e-8 the tails are e^{-26.4}, e^{-34.4} and
  e^{-42.4} < u = e^{-36.7}: at most three solves.  A constant's only
  order is floor(W) + 1 (at window 10 its largest radius is 1.7e-12).
  The first solve suffices on the densities measured ((K - W) eta between
  13 and 26.6 sufficed), except near zero.  A profile certified outright
  may come within a few eps of zero: 1 + (1 - 1e-6) cos t has K = 18,691,
  22 GB of matrices.  So an order above GALERKIN_ORDER_CAP = 512 is
  refused unsolved.  Near zero the radii stop at a floor, the round-off of
  w, that grows with K: of 1 + a cos t, a = 0.99 to 0.999, none read above
  K = 455, and those past 512 were refused at their last order anyway.
* The tolerance.  ``verify`` and ``spectrum`` pass
  LAPLACIAN_FORMS_THRESHOLD = 1e-8, the fraction 1e-5 of
  LAPLACIAN_GAP_THRESHOLD = 1e-3.  The contrast passes when
  gap - r_1 - r_2 exceeds the gap threshold, and requires the squared
  forms spectra to agree within the forms threshold.  A radius and the
  forms bound are both certified errors of second-order eigenvalues, so
  this tolerance reads the Laplacian half at the precision at which the
  Dirac half is read, and the radii move the pass line by at most 2e-8, a
  relative 2e-5 of the gap threshold.  A looser tolerance would let a
  Laplacian value be less certain than a deviation that the Dirac half
  counts as a move; a tighter one changes no verdict the threshold can see
  and costs a larger K.
* What is not certified.  The radius places an eigenvalue of Delta within
  r of each rho_k, and rho_k >= lambda_k, but neither says that the
  eigenvalue near rho_k is the k-th: the +-k pairs are near-degenerate
  clusters.  ``verify`` pairs the sorted windowed values by index;
  certifying the index (Lehmann-Goerisch or Kato-Temple lower bounds) is
  open.  The radii are against Delta of g~, which is within a relative e,
  a few eps (g_0 + 2 sum |g_m|) / g_low, of g: each eigenvalue moves by at
  most a relative 2e / (1 - e) by min-max, which no radius includes.
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
from .operators import WeightedOperator, dirac_factors, forms_label, spinor_label

# Relative symmetrization residual above which an eigensolve is refused.
SYMMETRIZATION_TOLERANCE = 1e-8

# Eigenvalues this close to the window edge are included on both sides of a
# comparison, so near-integer spectra behave consistently at integer windows.
WINDOW_EDGE_SLACK = 1e-6

# The margin m of the predicted Galerkin orders K = W + (ln(1 / tolerance) +
# m) / eta + j m / eta, j = 0, 1, ... (module docstring).
GALERKIN_MARGIN = 8.0

# The largest Galerkin order that ``function_laplacian`` solves, a cost
# limit: a read at K = 512 (1025 modes) takes 1.7-1.8 s and a 118 MB traced peak.
GALERKIN_ORDER_CAP = 512

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
    distance is d >= ||H - A||_F for a Dirac read and 0 otherwise.  A
    ``function_laplacian`` read, whose values come ascending, carries the
    radius of each in ``radii``."""

    eigenvalues: np.ndarray
    grid_size: int
    operator_label: str
    distance: float = 0.0
    radius_derived: bool = False
    radii: np.ndarray | None = None

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
    F = ``frobenius`` = ||C||_F.  The difference has the entries
    C_jk (u_k / u_j)(r_j - r_k) / r_j, so its norm is at most
    F (max |u| / min |u|) max |r_j - r_k| / min |r|, read off the computed u
    and r by ``enclosure`` and multiplied by 1 + gamma_{N + 8} for the
    roundings of F and of the formula."""
    u_low, u_high, _ = enclosure(u)
    r_low, _, spread = enclosure(ratio)
    return frobenius * (u_high / u_low) * (spread / r_low) * (1.0 + gamma(u.size + 8))


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
    w, weights = dirac_factors(density)
    asymmetry, distance = factor_bounds(np.sqrt(weights) / w, frobenius)
    # the gate ratio (||S - S^H||_F + 2 d) / max |mu|, both terms bounded
    residual = (asymmetry + 2.0 * distance) / max(float(np.max(np.abs(values))),
                                                  np.finfo(float).tiny)
    _require_symmetric({spinor_label(grid): residual, forms_label(n): math.sqrt(2.0) * residual})
    return (
        SpectrumReport(values, n, spinor_label(grid), distance, True),
        SpectrumReport(np.concatenate([-values, values]), n, forms_label(n), distance, True),
    )


@dataclass(frozen=True)
class LaplacianRead:
    """A density's windowed function-Laplacian values, ascending, the radius
    of each, and the ``order`` K of its Galerkin read (module docstring)."""

    values: np.ndarray
    radii: np.ndarray
    order: int

    @property
    def radius(self) -> float:
        """The largest windowed radius."""
        return float(np.max(self.radii))


def strip_width(coefficients: np.ndarray) -> float:
    """eta = min |ln |z|| over the zeros z of z^B g(z), infinite for a
    constant, from the companion matrix of that polynomial in w = z^d over
    the g_m at least eps times the largest coefficient (module docstring)."""
    bandwidth = coefficients.size // 2
    poly = coefficients / np.max(np.abs(coefficients))
    frequencies = (np.flatnonzero(np.abs(poly[bandwidth + 1:]) >= _EPS) + 1).tolist()
    if not frequencies:
        return math.inf
    period, top = math.gcd(*frequencies), frequencies[-1]
    poly = poly[bandwidth - top : bandwidth + top + 1 : period]  # a_j of w^j
    companion = np.eye(poly.size - 1, k=-1, dtype=complex)
    companion[0] = -poly[-2::-1] / poly[-1]
    logs = np.log(np.abs(np.linalg.eigvals(companion)))
    return float(np.min(np.abs(logs))) / period


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


def _residue_classes(period: int, size: int) -> list[np.ndarray]:
    """The positions 0..size - 1 of the basis e^{ikt}, |k| <= K, size = 2K + 1,
    split into the residue classes of k modulo ``period`` d (every k its own
    class for d = 0 or d >= size), grouped by class size: one (classes, n)
    array of positions per size, at most two (module docstring)."""
    period = min(period or size, size)
    count, extra = divmod(size, period)
    groups = [np.arange(extra, period)[:, None] + period * np.arange(count)]
    if extra:
        groups.insert(0, np.arange(extra)[:, None] + period * np.arange(count + 1))
    return groups


def _windowed_ritz_pairs(mass: np.ndarray, stiffness: np.ndarray,
                         limit: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a stack of (classes, n, n) problems A c = rho G c, the Ritz values
    rho with |rho| <= ``limit``, their vectors c as rows, normalized to
    c^H G c = 1, and the class of each, ordered by class and then ascending,
    through M = L^{-1}, G = L L^H: the eigenpairs (rho, y) of M A M^H and
    c = M^H y, one stacked call of each solver."""
    inverse = np.linalg.inv(np.linalg.cholesky(mass))
    adjoint = np.conjugate(inverse).swapaxes(1, 2)
    values, vectors = np.linalg.eigh(inverse @ stiffness @ adjoint)
    classes, columns = np.nonzero(np.abs(values) <= limit)
    # back-transform only the columns up to the last windowed one of any class
    vectors = adjoint @ vectors[:, :, : columns.max(initial=-1) + 1]
    return values[classes, columns], vectors[classes, :, columns], classes


def galerkin_read(coefficients: np.ndarray, order: int, window: float,
                  lower: float) -> LaplacianRead:
    """The windowed Ritz values of the function Laplacian of the density with
    ``coefficients`` in the basis e^{ikt}, |k| <= ``order``, solved in the
    residue classes of k modulo d = gcd{m >= 1 : g_m != 0}, and their radii
    in the full basis for ``lower`` = g_low > 0 (module docstring)."""
    bandwidth = coefficients.size // 2
    mass, stiffness = galerkin_matrices(coefficients, order)
    size, limit = 2 * order + 1, window * window + WINDOW_EDGE_SLACK
    period = math.gcd(*(np.flatnonzero(coefficients[bandwidth + 1:]) + 1).tolist())
    ritz, rows = [], []
    for positions in _residue_classes(period, size):
        block = (positions[:, :, None] + bandwidth, positions[:, None, :])
        values, vectors, classes = _windowed_ritz_pairs(mass[block], stiffness[block], limit)
        full = np.zeros((values.size, size), complex)
        full[np.arange(values.size)[:, None], positions[classes]] = vectors
        ritz.append(values)
        rows.append(full)
    ritz = np.concatenate(ritz)
    ascending = np.argsort(ritz, kind="stable")
    ritz, c = ritz[ascending], np.concatenate(rows)[ascending].T
    mass_c = mass @ c
    residual = stiffness @ c - mass_c * ritz
    magnitude = np.abs(stiffness) @ np.abs(c) + (np.abs(mass) @ np.abs(c)) * np.abs(ritz)
    rounding = math.sqrt(2.0) * gamma(2 * order + 5) * np.linalg.norm(magnitude, axis=0)
    norm = np.sum(c.conj() * mass_c[bandwidth : bandwidth + size], axis=0).real
    radii = (np.linalg.norm(residual, axis=0) + rounding) / np.sqrt(lower * norm)
    return LaplacianRead(ritz, radii, order)


def function_laplacian(density: LeafVolumeDensity, window: float,
                       tolerance: float) -> LaplacianRead:
    """The read of ``density``'s windowed function Laplacian:
    the ``galerkin_read`` at the first order K <= GALERKIN_ORDER_CAP of the
    predicted sequence whose radii are all at most ``tolerance``; where there
    is none, ValueError naming the density and K (module docstring)."""
    coefficients, lower = density.coefficients, density.average.min_bound
    eta = strip_width(coefficients)
    order = math.floor(window + (math.log(1.0 / tolerance) + GALERKIN_MARGIN) / eta) + 1
    while order <= GALERKIN_ORDER_CAP:
        read = galerkin_read(coefficients, order, window, lower)
        if read.radius <= tolerance:
            return read
        if eta * (order - window) > math.log(2.0 / _EPS):
            reason = f"at the last predicted Galerkin order K = {order} the largest radius"
            reason += f" is {read.radius:.3e}"
            break
        order += max(1, math.ceil(GALERKIN_MARGIN / eta))
    else:
        reason = f"its Galerkin order K = {order} exceeds GALERKIN_ORDER_CAP = {GALERKIN_ORDER_CAP}"
        reason += " (not solved)"
    raise ValueError(f"the function Laplacian of the density of theta-average "
                     f"{density.average.to_dict()} is not read to {tolerance:.0e}: {reason}")


def spectrum_compare(a: SpectrumReport, b: SpectrumReport, window: float) -> float:
    """Maximum deviation of the two sorted spectra restricted to [-window, window].

    Returns math.inf as the sentinel when the in-window multiplicity counts
    disagree (a structurally different spectrum, not a numeric deviation).
    """
    values_a, values_b = a.in_window(window), b.in_window(window)
    if values_a.size != values_b.size:
        return math.inf
    return float(np.max(np.abs(values_a - values_b))) if values_a.size else 0.0
