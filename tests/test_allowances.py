"""The O(N) reads' derived allowances against a 30-digit mpmath oracle.

``spectral`` derives three bounds for the Dirac operator built from the
computed weights, and ``verify`` a fourth: the radius of the lattice values
mu, the distance d >= ||H - A||_F, the asymmetry bound >= ||S - S^H||_F and
the conjugation residual >= ||D' - alpha^{-1/2} D alpha^{1/2}||_F.  For the
grid Laplacian read it derives the period distance d >= ||T - T_P||_F, and
``conftest.bloch_allowance`` the distance of its values from the
sigma_k(T_P)^2.  Each test computes the true quantity in high precision
from the same float inputs (the column c, the factor arrays, alpha), which
are exact binary numbers, and asserts that the computed bound is at least
that; the ratios bound / true value are recorded in CHANGES.md.  Every sum
is O(N^2); only the Laplacian values need a high-precision eigensolve, of
N x N at N <= 64.  The Galerkin read's radii are checked against the
profile's own density, from its exact coefficients in high precision, by
Rayleigh quotients of float Ritz vectors, which cost O(K B) each.
"""

import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.linalg

from foliation_lab import spectral
from foliation_lab._spectral_diff import wavenumbers
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm
from foliation_lab.operators import dirac_factors
from foliation_lab.spectral import SpectrumReport, circulant_spectrum, factor_bounds
from foliation_lab.verify import (
    LAPLACIAN_FORMS_THRESHOLD,
    basic_volume_ratio,
    conjugation_residual,
    pair_metadata,
    random_profile,
    run_pair_checks,
)

from conftest import bloch_allowance, patch_factors

mpmath.mp.dps = 30

COSINE = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))
MIXED = MetricProfile(2.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(1, 0, 0.4, 0.3),
                            ProfileTerm(1, 1, 0.3, 0.0, 0.5)))
# Densities of period N/2 and N/4.
HALF = MetricProfile(2.0, (ProfileTerm(0, 2, 0.5, 0.0, 0.3), ProfileTerm(0, -2, 0.2, 0.0, 1.0),
                           ProfileTerm(1, 1, 0.3, 0.2, 0.5)))
QUARTER = MetricProfile(2.0, (ProfileTerm(0, 4, 0.4), ProfileTerm(0, 8, 0.3, 0.0, 2.0)))


def _column(n_points: int, spin: str) -> np.ndarray:
    """The read's column c, built as ``circulant_spectrum`` builds it."""
    column = np.fft.ifft(1j * wavenumbers(n_points))
    if spin == "nontrivial":
        column[0] += 0.5j
    return 0.5 * (column - np.conj(np.roll(column[::-1], 1)))


def _squared_moduli(column: np.ndarray) -> list:
    """|c_m|^2 in high precision, m = 0..N-1."""
    return [mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in column.tolist()]


def _mp(values: np.ndarray) -> list:
    return [mpmath.mpc(z.real, z.imag) for z in np.asarray(values, complex).tolist()]


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
def test_lattice_values_lie_within_the_allowance(n_points, spin):
    """The computed mu against the exact DFT of ic, c the float column: the
    error is at most the allowance a, the radius at d = 0."""
    column = _column(n_points, spin)
    values, cached, frobenius = circulant_spectrum(n_points, spin)
    assert np.array_equal(cached, column) and not cached.flags.writeable
    assert np.array_equal(np.sort(np.fft.fft(1j * column).real), values)
    assert frobenius == np.sqrt(n_points) * float(np.linalg.norm(column))
    ic = [mpmath.mpc(0, 1) * z for z in _mp(column)]
    exact = sorted(
        mpmath.re(mpmath.fsum(ic[j] * mpmath.expjpi(-2 * mpmath.mpf(j * m) / n_points)
                              for j in range(n_points)))
        for m in range(n_points))
    error = max(abs(mpmath.mpf(float(mu)) - e) for mu, e in zip(values.tolist(), exact))
    allowance = SpectrumReport(values, n_points, "lattice", 0.0, True).radius
    assert error <= allowance


def _perturbed_factor(grid: GridSpec, kind: str) -> tuple:
    """The cosine density's (w, W) with w perturbed by a relative 1e-6 in its
    modulus or in its phase, and the computed q."""
    density = LeafVolumeDensity.from_profile(COSINE, grid)
    w, weights = dirac_factors(density)
    noise = np.random.default_rng(grid.n_points).uniform(-1.0, 1.0, grid.n_points)
    w = w * (1.0 + 1e-6 * noise) if kind == "modulus" else w * np.exp(1e-6j * noise)
    return w, weights, np.sqrt(weights) / w


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
@pytest.mark.parametrize("kind", ["modulus", "phase"])
def test_factor_bounds_hold_for_a_perturbed_factor(n_points, spin, kind):
    """||H - A||_F and ||S - S^H||_F of the operator built from the float
    (w, W), q = W^{1/2} / w exact, are at most d and the asymmetry bound."""
    grid = GridSpec(n_points, spin)
    w, weights, computed_q = _perturbed_factor(grid, kind)
    asymmetry, distance = factor_bounds(computed_q, circulant_spectrum(n_points, spin)[2])
    q = [mpmath.sqrt(mpmath.mpf(weight)) / wj for weight, wj in zip(weights.tolist(), _mp(w))]
    moduli = _squared_moduli(_column(n_points, spin))
    off_hermitian = off_circulant = mpmath.mpf(0)
    for j in range(n_points):
        for k in range(n_points):
            ratio = q[j] / q[k]
            h = (ratio + mpmath.conj(1 / ratio)) / 2
            c2 = moduli[(j - k) % n_points]
            off_circulant += c2 * abs(h - 1) ** 2
            off_hermitian += c2 * abs(ratio - mpmath.conj(1 / ratio)) ** 2
    assert mpmath.sqrt(off_circulant) <= distance
    assert mpmath.sqrt(off_hermitian) <= asymmetry


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
def test_conjugation_bound_holds_for_a_perturbed_alpha(n_points, spin):
    """||D' - alpha^{-1/2} D alpha^{1/2}||_F of the operators built from the
    float factors and alpha, with alpha perturbed by a relative 1e-6, is at
    most the conjugation residual."""
    grid = GridSpec(n_points, spin)
    d1, d2 = (LeafVolumeDensity.from_profile(p, grid) for p in (COSINE, MIXED))
    noise = np.random.default_rng(n_points + 1).uniform(-1.0, 1.0, n_points)
    alpha = basic_volume_ratio(COSINE, MIXED, grid) * (1.0 + 1e-6 * noise)
    report = conjugation_residual(d1, d2, alpha, grid, pair_metadata(COSINE, MIXED, grid))
    u = [mpmath.mpf(x) for x in dirac_factors(d2)[0].tolist()]
    v = [mpmath.sqrt(mpmath.mpf(a)) * mpmath.mpf(x)
         for a, x in zip(alpha.tolist(), dirac_factors(d1)[0].tolist())]
    moduli = _squared_moduli(_column(n_points, spin))
    total = mpmath.fsum(moduli[(j - k) % n_points] * (u[k] / u[j] - v[k] / v[j]) ** 2
                        for j in range(n_points) for k in range(n_points))
    assert mpmath.sqrt(total) <= report.residual


def test_a_factor_mutant_reaches_the_bounds(monkeypatch):
    """The factor the bounds read is ``operators.dirac_factors``: with w = g
    and W = 1 the conjugation bound fails and d is far from round-off."""
    grid = GridSpec(32)
    d1, d2 = (LeafVolumeDensity.from_profile(p, grid) for p in (COSINE, MIXED))
    alpha = basic_volume_ratio(COSINE, MIXED, grid)
    metadata = pair_metadata(COSINE, MIXED, grid)
    assert conjugation_residual(d1, d2, alpha, grid, metadata).passed
    patch_factors(monkeypatch, lambda d: (d.g_values, np.full(d.n_points, 1.0)))
    assert not conjugation_residual(d1, d2, alpha, grid, metadata).passed
    w, weights = spectral.dirac_factors(d1)
    assert factor_bounds(np.sqrt(weights) / w, circulant_spectrum(32, "trivial")[2])[1] > 1.0


def _periodic_factor(density: LeafVolumeDensity) -> np.ndarray:
    """w_P, the periodic extension of the first period of the read's w."""
    w = spectral.dirac_factors(density)[0]
    return np.tile(w[: density.period], density.n_points // density.period)


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("profile", [HALF, QUARTER], ids=["half", "quarter"])
def test_period_distance_holds_for_an_off_period_factor(n_points, profile, monkeypatch):
    """w moved off its period by a relative 1e-6: ||T - T_P||_F of the
    operators built from the float c, w and w_P is at most the grid
    Laplacian read's distance d (its gate, which refuses such a w, is
    recorded, not applied)."""
    density = LeafVolumeDensity.from_profile(profile, GridSpec(n_points))
    assert density.period < n_points
    noise = np.random.default_rng(n_points + 2).uniform(-1.0, 1.0, n_points)
    honest = spectral.dirac_factors
    patch_factors(monkeypatch, lambda d: (honest(d)[0] * (1.0 + 1e-6 * noise), honest(d)[1]))
    monkeypatch.setattr(spectral, "_require_symmetric", lambda ratios: None)
    report = spectral.laplacian_spectrum(density)
    u = [mpmath.mpf(x) for x in _periodic_factor(density).tolist()]
    v = [mpmath.mpf(x) for x in spectral.dirac_factors(density)[0].tolist()]
    moduli = _squared_moduli(_column(n_points, "trivial"))
    total = mpmath.fsum(moduli[(j - k) % n_points] * (v[k] / v[j] - u[k] / u[j]) ** 2
                        for j in range(n_points) for k in range(n_points))
    assert mpmath.sqrt(total) <= report.distance


@pytest.mark.parametrize("n_points, profile", [(32, HALF), (32, QUARTER), (64, HALF)],
                         ids=["32-half", "32-quarter", "64-half"])
def test_bloch_values_lie_within_the_allowance(n_points, profile):
    """The grid Laplacian read's values against the sigma_k(T_P)^2 of the
    T_P built from the float c and w_P, by a 30-digit dense eigensolve of
    T_P T_P^H: within ``conftest.bloch_allowance`` at d = 0, its terms for
    the blocks, the products and the solves."""
    density = LeafVolumeDensity.from_profile(profile, GridSpec(n_points))
    report = spectral.laplacian_spectrum(density)
    column = _mp(_column(n_points, "trivial"))
    w = [mpmath.mpf(x) for x in _periodic_factor(density).tolist()]
    factor = mpmath.matrix(n_points, n_points)
    for j in range(n_points):
        for k in range(n_points):
            factor[j, k] = column[(j - k) % n_points] * w[k] / w[j]
    exact = mpmath.eighe(factor * factor.transpose_conj(), eigvals_only=True)
    exact = sorted(exact[k] for k in range(n_points))
    error = max(abs(mpmath.mpf(x) - e) for x, e in zip(report.eigenvalues.tolist(), exact))
    assert error <= bloch_allowance(density, dataclasses.replace(report, distance=0.0))


def _generated(seed: int, draw: int) -> MetricProfile:
    """The profile ``random_profile`` draws at index ``draw`` of ``seed``."""
    rng = np.random.default_rng(seed)
    return [random_profile(rng) for _ in range(draw + 1)][draw]


# The Galerkin read's density, draw 3 of ``random_profile`` at seed 7041,
# whose theta-average has terms at n = -2 and n = -1 with phases, and a
# density with g_low = 0.1, read at K = 91.
GALERKIN_AUDITED = {
    "two-term": MetricProfile(2.0, (ProfileTerm(0, 1, 0.3, 0.0, 0.4),
                                    ProfileTerm(0, 2, 0.2, 0.0, 1.1))),
    "seed7041-3": _generated(7041, 3),
    "near-zero": MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),
                                     ProfileTerm(0, 2, 0.4, 0.0, 0.3))),
}


def _profile_coefficients(profile: MetricProfile) -> dict:
    """g_m of the profile's exact theta-average, m -> value, from its terms in
    high precision: an m = 0 term a cos(phi_theta) cos(n t + phi_t) adds
    (a / 2) cos(phi_theta) e^{i phi_t} at n and its conjugate at -n."""
    coefficients = {0: mpmath.mpc(profile.constant)}
    for term in profile.terms:
        if term.m == 0:
            half = (mpmath.mpf(term.amplitude) * mpmath.cos(term.phase_theta) / 2
                    * mpmath.expj(term.phase_t))
            coefficients[term.n] = coefficients.get(term.n, 0) + half
            coefficients[-term.n] = coefficients.get(-term.n, 0) + mpmath.conj(half)
    return coefficients


def _rayleigh_pair(g: dict, vector: np.ndarray) -> tuple:
    """For u = sum c_k e^{ikt}, |k| <= K, c = ``vector``: the Rayleigh quotient
    rho = c^H A c / c^H G c of the exact g and the Krylov-Bogolyubov bound
    eps >= ||Delta u - rho u|| / ||u|| in L^2(g dt), both in high precision:
    with w_l = sum_k (lk - rho) g_{l-k} c_k, |l| <= K + B, eps^2 =
    sum |w_l|^2 / (g_low c^H G c), g_low = g_0 - 2 sum_{m >= 1} |g_m|
    (``spectral``).  G and A are banded, so this is O(K B)."""
    order, bandwidth = vector.size // 2, max(g)
    c = {k: mpmath.mpc(z.real, z.imag) for k, z in zip(range(-order, order + 1), vector.tolist())}
    rows = range(-order - bandwidth, order + bandwidth + 1)
    mass_c, stiff_c = {}, {}
    for l in rows:
        terms = [(k, g.get(l - k, 0) * c[k])
                 for k in range(max(-order, l - bandwidth), min(order, l + bandwidth) + 1)]
        mass_c[l] = mpmath.fsum(term for _, term in terms)
        stiff_c[l] = mpmath.fsum(l * k * term for k, term in terms)
    norm = mpmath.re(mpmath.fsum(mpmath.conj(c[k]) * mass_c[k] for k in c))
    rho = mpmath.re(mpmath.fsum(mpmath.conj(c[k]) * stiff_c[k] for k in c)) / norm
    lower = mpmath.re(g[0]) - 2 * mpmath.fsum(abs(g[m]) for m in g if m > 0)
    residual = mpmath.fsum(abs(stiff_c[l] - rho * mass_c[l]) ** 2 for l in rows)
    return rho, mpmath.sqrt(residual / (lower * norm))


@pytest.mark.parametrize("name", list(GALERKIN_AUDITED))
def test_galerkin_radii_hold_for_the_profiles_own_density(name):
    """The battery's Galerkin read at window 3.5 on grid 256 (K <= 128)
    against the eigenvalues of the function Laplacian of the profile's own
    density g, whose exact coefficients are taken in high precision from
    the terms.  Each reference
    value is the exact Rayleigh quotient rho of a float Ritz vector at order
    K + 16; by Kato-Temple it is within eps^2 / gap of an eigenvalue, gap its
    distance to the neighbouring references less their eps, which is far
    below the radii.  The reference values pair with the read's by index, as
    ``verify`` pairs them (the index is not certified, ``spectral``).  Each
    radius must bound the read's deviation plus that term."""
    profile = GALERKIN_AUDITED[name]
    density = LeafVolumeDensity.from_profile(profile, GridSpec(256))
    read = spectral.function_laplacian(density, 3.5, LAPLACIAN_FORMS_THRESHOLD)
    assert read.order is not None
    g = _profile_coefficients(profile)
    order = read.order + 16
    mass, stiffness = spectral.galerkin_matrices(density.coefficients, order)
    interior = slice(density.t_bandwidth, density.t_bandwidth + 2 * order + 1)
    values, vectors = scipy.linalg.eigh(stiffness[interior], mass[interior])
    count = read.values.size
    assert values[count] > values[count - 1] + 1.0
    reference = [_rayleigh_pair(g, vectors[:, j]) for j in range(count + 1)]
    bounds = [-mpmath.inf, *(rho + eps for rho, eps in reference)]
    for k in range(count):
        rho, eps = reference[k]
        gap = min(rho - bounds[k], reference[k + 1][0] - reference[k + 1][1] - rho)
        error = abs(mpmath.mpf(float(read.values[k])) - rho) + eps * eps / gap
        assert error <= read.radii[k], (k, error, read.radii[k])


def _operator_distance(density: LeafVolumeDensity, profile: MetricProfile) -> mpmath.mpf:
    """||T - T_0||_F in high precision: T = w^{-1} C w of the grid Laplacian
    read, from the float column c and factor w, and T_0 = g^{-1/2} C_0 g^{1/2}
    of the exact column of the lattice operator, c_j = (1/N) sum_m i k_m
    e^{2 pi i j m / N}, k = ``wavenumbers(N)``, and the exact samples of
    the profile's own density g."""
    n = density.n_points
    column = _mp(_column(n, "trivial"))
    ks = wavenumbers(n).tolist()
    exact_column = [mpmath.fsum(mpmath.mpc(0, k) * mpmath.expjpi(2 * mpmath.mpf(j * m) / n)
                                for m, k in enumerate(ks)) / n for j in range(n)]
    w = [mpmath.mpf(x) for x in dirac_factors(density)[0].tolist()]
    (term,) = profile.theta_average().terms
    exact_w = [mpmath.sqrt(profile.constant + mpmath.mpf(term.amplitude) * mpmath.cos(
        term.n * 2 * mpmath.pi * j / n + mpmath.mpf(term.phase_t))) for j in range(n)]
    return mpmath.sqrt(mpmath.fsum(
        abs(column[(i - j) % n] * w[j] / w[i]
            - exact_column[(i - j) % n] * exact_w[j] / exact_w[i]) ** 2
        for i in range(n) for j in range(n)))


def _galerkin_rounding(read, coefficients: np.ndarray) -> float:
    """The backward error (2K + 1) eps ||L^{-1} A L^{-H}||_2 of a Galerkin
    read's ``eigh``, the norm at most K^2 (g_0 + 2 sum |g_m|) / g_low, as
    ``tests/test_spectral.py`` allows it."""
    order = read.order
    return ((2 * order + 1) * np.finfo(float).eps * order * order
            * float(np.sum(np.abs(coefficients))) / spectral.lower_bound(coefficients))


@pytest.mark.parametrize("n_points", [16, 32, 64, 256])
@pytest.mark.parametrize("amplitude", [0.01, 0.1])
@pytest.mark.parametrize("phase", [0.0, 1.0, 2.5, 4.5])
def test_random_pair_gap_certificate(n_points, amplitude, phase):
    """``verify.random_pair``'s closed-form gap, at window N/8, on the Galerkin
    read and on the grid read, which N = 16, and N = 32 at a = 0.1, reach:
    there the order of 2 + a cos(2t + psi) exceeds N/2.  The index-1 value
    of the strong density's read is at most (2 - a/2) / (2 + a/2) plus its
    rounding, and the contrast's gap at least a / (2 + a/2) less the
    rounding of both reads; the contrast passes.

    * A Galerkin read is a min-max value of the pencil of the float
      coefficients g~: at most (g~_0 - |g~_2|) / (g~_0 + |g~_2|), computed
      here in high precision, up to the ``eigh`` backward error.
    * A grid read's values lie within ``conftest.bloch_allowance`` of the
      sigma_k(T)^2 of T built from the float (c, w), and sigma_k(T) within
      ||T - T_0||_F of sigma_k(T_0), T_0 the exact operator on the exact
      samples, whose index-1 value is at most (2 - a/2) / (2 + a/2).
    * The constant 2 is read by Galerkin at K = floor(N/8) + 1, with index-1
      value 1 up to its ``eigh`` backward error."""
    strong = MetricProfile(2.0, (ProfileTerm(0, 2, amplitude, 0.0, phase),))
    grid, window = GridSpec(n_points), n_points / 8
    densities = [LeafVolumeDensity.from_profile(p, grid) for p in (strong, MetricProfile(2.0))]
    reads = [spectral.function_laplacian(d, window, LAPLACIAN_FORMS_THRESHOLD) for d in densities]
    grid_read = n_points == 16 or (n_points == 32 and amplitude == 0.1)
    assert (reads[0].order is None) == grid_read and reads[1].order is not None
    half = mpmath.mpf(amplitude) / 2
    bound = (2 - half) / (2 + half)
    if reads[0].order is None:
        report = spectral.laplacian_spectrum(densities[0])
        distance = _operator_distance(densities[0], strong)
        rounding = ((mpmath.sqrt(bound) + distance) ** 2 - bound
                    + bloch_allowance(densities[0], report))
    else:
        coefficients = densities[0].coefficients
        computed = abs(_mp(coefficients)[-1])
        rounding = (max(0, (2 - computed) / (2 + computed) - bound)
                    + _galerkin_rounding(reads[0], coefficients))
    assert reads[0].values[1] <= bound + rounding
    constant_rounding = _galerkin_rounding(reads[1], densities[1].coefficients)
    assert abs(reads[1].values[1] - 1.0) <= constant_rounding
    rounding += constant_rounding
    for pair in ((strong, MetricProfile(2.0)), (MetricProfile(2.0), strong)):
        report = run_pair_checks([pair], grid, window)[3]
        assert report.passed
        assert report.metadata["laplacian_gap"] >= 2 * half / (2 + half) - rounding
