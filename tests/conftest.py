"""Shared fixtures: reference profiles, Fourier expansions of exponential
metrics, a writer for profile documents, and the reference implementations
the tests check the library against: a finite-difference Laplacian, the
weighted inner product on the t-circle, the complex-arithmetic diagonal
scaling that the library's reproduces bit for bit, the dense solve of the
assembled spinor matrix that every O(N) Dirac read is checked against, the
delta d and d delta assembly and its dense solve with their allowance,
which every Galerkin Laplacian read is checked against, the Laplacian read
as the pair battery and ``spectrum`` make it, the random and parity
profiles, the inputs a pair check reads, built as the pair battery builds
them, and a patch that puts a defective factor function wherever the
library looks it up."""

import functools
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import iv

from foliation_lab import operators, spectral, verify
from foliation_lab._spectral_diff import differentiation_matrix, uniform_nodes
from foliation_lab.basic_calculus import TWO_PI, LeafVolumeDensity
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_spinor,
    codifferential,
    quadrature_weights,
    twisted_differential,
)
from foliation_lab.spectral import (
    LaplacianRead,
    SpectrumReport,
    dirac_spectra,
    eigenvalues_weighted,
    function_laplacian,
)
from foliation_lab.verify import LAPLACIAN_FORMS_THRESHOLD, basic_volume_ratio, pair_metadata


@functools.cache
def profile_documents() -> dict:
    """The profile documents of ``tools/parity.py``, by name."""
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity.PROFILES


@functools.cache
def profile_corpus() -> tuple:
    """The first ten ``random_profile`` draws of the seeds s = 0 to 41 and
    7041, and the profile documents of ``tools/parity.py``."""
    generated = (verify.random_profile(rng)
                 for rng in map(np.random.default_rng, [*range(42), 7041]) for _ in range(10))
    return (*generated, *map(MetricProfile.from_dict, profile_documents().values()))


def exp_cos_profile(a: float, k_max: int = 12) -> MetricProfile:
    """Truncated Fourier series of e^{a cos t}: I_0(a) + 2 sum_k I_k(a) cos(k t).

    Bessel coefficients decay superexponentially, so k_max = 12 already
    carries the function to round-off for a <= 1.
    """
    terms = [ProfileTerm(0, k, 2.0 * float(iv(k, a))) for k in range(1, k_max + 1)]
    return MetricProfile(float(iv(0, a)), tuple(terms))


def exp_sin_profile(a: float, k_max: int = 12) -> MetricProfile:
    """Truncated Fourier series of e^{a sin t} = e^{a cos(t - pi/2)}."""
    terms = [
        ProfileTerm(0, k, 2.0 * float(iv(k, a)), 0.0, -k * np.pi / 2.0)
        for k in range(1, k_max + 1)
    ]
    return MetricProfile(float(iv(0, a)), tuple(terms))


def save_profile(profile: MetricProfile, path) -> None:
    """Write a profile as the JSON document that ``load_profile`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def weighted_inner_product(a: np.ndarray, b: np.ndarray, density: LeafVolumeDensity) -> complex:
    """Trapezoid-rule inner product (2pi/N) sum conj(a) b g on the t-circle."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size or a.size != density.n_points:
        raise ValueError("fields and density must share the t-grid")
    return complex((TWO_PI / density.n_points) * np.sum(np.conj(a) * b * density.g_values))


def complex_diagonal_conjugate(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^{-1} M w in complex arithmetic: the reference for
    ``operators.diagonal_conjugate``."""
    return (matrix * w[None, :]) / w[:, None]


def dense_dirac_read(density: LeafVolumeDensity, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The assembled spinor Dirac matrix's spectrum by one dense ``eigvalsh`` of
    its symmetrized H, and the allowance N eps ||H||_2 of that solve plus the
    matrix's distance from the operator that ``spectral.dirac_spectra``
    reads: the oracle for the O(N) read.

    ``eigvalsh`` is backward stable, so its values are the exact eigenvalues
    of H + E with ||E||_2 <= p(N) eps ||H||_2, p a modestly growing function
    of N (LAPACK's bound for the Hermitian eigenproblem); take p(N) = N.  The
    assembled H differs from the read's exact operator by the round-off of
    its D against the read's circulant C, at most N eps N/2 in Frobenius
    norm (``test_round_off_of_the_derivative_matrix``); C is within
    phi_N ||H||_F of that exact lattice operator, phi_N = gamma_{7 log2 N}
    the error of the one inverse FFT that makes its column, which the
    skew-Hermitian symmetrization does not increase; and the spin shift,
    the two factor scalings, the two weight scalings and the symmetrization
    add relative errors of about 10 eps per entry.  So by Weyl's inequality
    each dense value lies within N eps ||H||_2 + N^2 eps / 2 +
    (phi_N + 11 eps) ||H||_F of the exact eigenvalue of the read's H.  The
    allowance is derived, not fitted."""
    hermitian = assemble_basic_dirac_spinor(density, grid).symmetrized()[0]
    values = np.linalg.eigvalsh(hermitian)
    eps, n = np.finfo(np.float64).eps, grid.n_points
    scale = float(np.max(np.abs(values)))
    frobenius = float(np.linalg.norm(values))
    fft = spectral.gamma(7.0 * np.log2(n))
    return values, eps * (n * scale + n * n / 2.0 + 11.0 * frobenius) + fft * frobenius


def patch_factors(monkeypatch, factors) -> None:
    """Put ``factors`` in place of ``operators.dirac_factors`` in every module
    that looks it up: the assembly, the Dirac read's gate and the
    conjugation bound then all see the same (w, W)."""
    original = operators.dirac_factors
    for module in (operators, spectral, verify):
        if module.__dict__.get("dirac_factors") is original:
            monkeypatch.setattr(module, "dirac_factors", factors)


def delta_d_laplacian(density: LeafVolumeDensity, grid: GridSpec, degree: str) -> WeightedOperator:
    """The basic Laplacian assembled as a product with the weighted
    codifferential delta = -g^{-1} D g: delta @ D on functions, D @ delta on
    one-form coefficients.  ``dense_laplacian_read`` solves it."""
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = codifferential(density, grid)
    return WeightedOperator(
        matrix=delta @ d if degree == "function" else d @ delta,
        weights=quadrature_weights(density),
        label=f"delta_d_{degree}[N={grid.n_points}]",
        n_points=grid.n_points,
    )


def dense_laplacian_read(density: LeafVolumeDensity, grid: GridSpec,
                         degree: str) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectrum of ``delta_d_laplacian``'s symmetrized H, by one
    dense ``eigvalsh``, and, for each value, how far it may lie from the
    sigma_k(T_L)^2 (T_L T_L^H on functions, T_L^H T_L on one-forms),
    T_L = w^{-1} L w for the float w = g^{1/2} and L the exact lattice
    operator of D: the oracle of the Galerkin Laplacian reads.  With eps the
    machine epsilon and gamma_n = n eps / (1 - n eps):

    (a) the solve.  H is the symmetrized product, so by Weyl its exact
        eigenvalues are within ||H - T T^H||_2 of the sigma_k(T)^2, for
        T = w^{-1} D w the assembled ``twisted_differential``.  That norm
        is at most the computed ||H - fl(T T^H)||_F, times 1 +
        gamma_{2 N^2 + 2} for the subtraction and the norm, plus
        gamma_{N+2} || |T| |T|^T ||_F for the product (complex inner
        products of length N, Higham section 3.6); the dense ``eigvalsh``
        adds N eps ||H||_2 (``dense_dirac_read``).  Call the sum a.
    (b) the derivative matrix.  ||D - L||_F <= N eps N/2
        (``test_round_off_of_the_derivative_matrix``), so ||T - T_L||_F <=
        e = (max w / min w) N^2 eps / 2, times 1 + gamma_2 for the formula.
        By Weyl for singular values |sigma_k(T) - sigma_k(T_L)| <= e, so
        |sigma_k(T)^2 - sigma_k(T_L)^2| <= e (2 sigma_k + e), with
        sigma_k = (lambda_k + a)^{1/2} >= sigma_k(T) for the dense value
        lambda_k.

    The allowance a + e (2 sigma_k + e) is derived, not fitted.  It leaves
    out how far the N-point collocation T_L T_L^H is from the Laplacian of
    the density: its aliasing, which decays like e^{-eta (N/2 - W)} for
    ``spectral.strip_width`` eta and the frequency window W, and the
    rounding of w against g^{1/2} at the nodes."""
    hermitian = delta_d_laplacian(density, grid, degree).symmetrized()[0]
    values = np.linalg.eigvalsh(hermitian)
    factor = twisted_differential(density, grid)
    absolute = np.abs(factor)
    if degree == "function":
        gram, bound = factor @ factor.conj().T, absolute @ absolute.T
    else:
        gram, bound = factor.conj().T @ factor, absolute.T @ absolute
    n, eps = grid.n_points, np.finfo(np.float64).eps
    allowance = float(np.linalg.norm(hermitian - gram)) * (1.0 + spectral.gamma(2 * n * n + 2))
    allowance += spectral.gamma(n + 2) * float(np.linalg.norm(bound))
    allowance += n * eps * float(np.max(np.abs(values)))
    w = np.sqrt(density.g_values)
    error = (w.max() / w.min()) * (n * n * eps / 2.0) * (1.0 + spectral.gamma(2))
    sigma = np.sqrt(np.maximum(values, 0.0) + allowance)
    return values, allowance + error * (2.0 * sigma + error)


def finite_difference_laplacian(
    g_values: np.ndarray, g_midpoints: np.ndarray
) -> WeightedOperator:
    """Second-order conservative finite-difference Laplacian on functions.

    Independent oracle backend for the spectral assembly: discretizes
    u -> -(g u')'/g with flux coefficients at cell midpoints.  Accuracy is
    O(h^2), which is enough to confirm spectral eigenvalues to a few digits.
    """
    g_values = np.asarray(g_values, dtype=np.float64)
    g_midpoints = np.asarray(g_midpoints, dtype=np.float64)
    n = g_values.size
    if g_midpoints.size != n:
        raise ValueError("need one midpoint value per cell")
    h = TWO_PI / n
    matrix = np.zeros((n, n))
    for j in range(n):
        right = g_midpoints[j]            # between node j and j+1
        left = g_midpoints[j - 1]         # between node j-1 and j
        matrix[j, j] = (right + left) / (g_values[j] * h * h)
        matrix[j, (j + 1) % n] = -right / (g_values[j] * h * h)
        matrix[j, (j - 1) % n] = -left / (g_values[j] * h * h)
    return WeightedOperator(
        matrix=matrix.astype(np.complex128),
        weights=h * g_values,
        label=f"laplacian_fd[N={n}]",
        n_points=n,
    )


def fd_laplacian_spectrum(profile: MetricProfile, n_points: int) -> SpectrumReport:
    """Independent finite-difference spectrum of the function Laplacian.

    Uses exact density values at nodes and cell midpoints of a grid that is
    typically much finer than the spectral one; accuracy is O(h^2).
    """
    reduced = profile.theta_average()
    nodes = uniform_nodes(n_points)
    midpoints = nodes + np.pi / n_points
    g_nodes = reduced.sample_t(nodes)
    g_mid = reduced.sample_t(midpoints)
    return eigenvalues_weighted(finite_difference_laplacian(g_nodes, g_mid))


def laplacian_first_nonzero_eigenvalue(values: np.ndarray, zero_tol: float = 1e-6) -> float:
    """Smallest of the ascending Laplacian ``values`` above the harmonic (constant) mode."""
    for value in values:
        if value > zero_tol:
            return float(value)
    raise ValueError("spectrum contains no nonzero eigenvalue above tolerance")


def battery_laplacian(density: LeafVolumeDensity, window: float) -> LaplacianRead:
    """The function Laplacian's read as the pair battery reads it, and as
    ``spectrum`` reads it at the frequency window ``window``."""
    return function_laplacian(density, window, LAPLACIAN_FORMS_THRESHOLD)


def galerkin_rounding(read, density: LeafVolumeDensity) -> float:
    """The backward error (2K + 1) eps ||L^{-1} A L^{-H}||_2 of a Galerkin
    read of ``density``'s ``eigh``, the norm at most K^2 (g_0 + 2 sum |g_m|)
    / g_low, as ``test_ritz_values_do_not_increase_along_the_orders`` allows it."""
    order = read.order
    return ((2 * order + 1) * np.finfo(float).eps * order * order
            * float(np.sum(np.abs(density.coefficients))) / density.average.min_bound)


def pair_inputs(p1: MetricProfile, p2: MetricProfile, grid: GridSpec) -> SimpleNamespace:
    """What ``run_pair_checks`` passes to the pair checks, for calling one alone:
    the two ``densities``, their ``dirac_spectra`` ``spectra``, ``alpha``, the
    pair ``metadata``, and ``laplacians(window)``, the two densities'
    ``battery_laplacian``."""
    densities = tuple(LeafVolumeDensity.from_profile(p, grid) for p in (p1, p2))
    return SimpleNamespace(
        densities=densities,
        spectra=tuple(dirac_spectra(d, grid) for d in densities),
        alpha=basic_volume_ratio(p1, p2, grid),
        metadata=pair_metadata(p1, p2, grid),
        laplacians=lambda window: tuple(battery_laplacian(d, window) for d in densities),
    )


@pytest.fixture
def grid128() -> GridSpec:
    return GridSpec(128)


@pytest.fixture
def grid64() -> GridSpec:
    return GridSpec(64)


@pytest.fixture
def flat_profile() -> MetricProfile:
    return MetricProfile(1.0)


@pytest.fixture
def cosine_profile() -> MetricProfile:
    """f = 2 + cos t."""
    return MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))


@pytest.fixture
def mixed_profile() -> MetricProfile:
    """A theta-and-t dependent profile with nonseparable mean curvature."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(0, 1, 0.6),
            ProfileTerm(1, 0, 0.4, 0.3),
            ProfileTerm(1, 1, 0.3, 0.0, 0.5),
        ),
    )


@pytest.fixture
def product_profile() -> MetricProfile:
    """(1 + cos(theta)/2)(2 + cos t): product form, basic mean curvature."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(0, 1, 1.0),
            ProfileTerm(1, 0, 1.0),
            ProfileTerm(1, 1, 0.5),
        ),
    )


@pytest.fixture
def skew_profile() -> MetricProfile:
    """f = 2 + cos(theta + t): mean curvature genuinely depends on theta."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(1, 1, 1.0),
            ProfileTerm(1, 1, -1.0, np.pi / 2.0, np.pi / 2.0),
        ),
    )
