"""The O(N) reads' derived allowances against a 30-digit mpmath oracle.

``spectral`` derives three bounds for the Dirac operator built from the
computed weights, and ``verify`` a fourth: the radius of the lattice values
mu, the distance d >= ||H - A||_F, the asymmetry bound >= ||S - S^H||_F and
the conjugation residual >= ||D' - alpha^{-1/2} D alpha^{1/2}||_F.  Each
test computes the true quantity in high precision from the same float
inputs (the column c, the factor arrays, alpha), which are exact binary
numbers, and asserts that the computed bound is at least that; the ratios
bound / true value are recorded in CHANGES.md.  Every sum is O(N^2).  The
Galerkin read's radii are checked against the profile's own density, from
its exact coefficients in high precision, by Rayleigh quotients of float
Ritz vectors, which cost O(K B) each.
``verify.lichnerowicz_diagonal``'s allowance is checked against c + p from
the float g and g' in high precision, and the dense Lichnerowicz oracle's
off-diagonal against its a priori rounding bound, which shows that the
O(N log N) residual drops only rounding.  Two allowances outside the reads
close the list: ``bounds.REFERENCE_ROUNDOFF_ULPS`` against the minmax rows
across the accepted range of r, and the positivity certificate's e against
``_kernels.sample_profile`` and f at the exact nodes in 50 digits.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from foliation_lab import _kernels, spectral
from foliation_lab._spectral_diff import differentiation_matrix, uniform_nodes, wavenumbers
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.bounds import BOUND_KINDS, REFERENCE_ROUNDOFF_ULPS, s3_bounds
from foliation_lab.model_spaces import (CERTIFICATE_GRID_CAP, VALIDATION_GRID, GridSpec,
                                        MetricProfile, ProfileTerm, torus_geometry)
from foliation_lab.operators import assemble_lichnerowicz_sides, dirac_factors
from foliation_lab.spectral import SpectrumReport, circulant_spectrum, factor_bounds
from foliation_lab.verify import (
    LAPLACIAN_FORMS_THRESHOLD,
    basic_volume_ratio,
    conjugation_residual,
    lichnerowicz_diagonal,
    lichnerowicz_residual,
    pair_metadata,
    random_pair,
    random_profile,
    run_pair_checks,
)

from conftest import exp_sin_profile, galerkin_rounding, patch_factors

mpmath.mp.dps = 30

COSINE = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))
MIXED = MetricProfile(2.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(1, 0, 0.4, 0.3),
                            ProfileTerm(1, 1, 0.3, 0.0, 0.5)))
# Densities of the frequencies 2 and 4, 8.
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


def _generated(seed: int, draw: int) -> MetricProfile:
    """The profile ``random_profile`` draws at index ``draw`` of ``seed``."""
    rng = np.random.default_rng(seed)
    return [random_profile(rng) for _ in range(draw + 1)][draw]


# The Galerkin read's density, draw 3 of ``random_profile`` at seed 7041,
# whose theta-average has terms at n = -2 and n = -1 with phases, a density
# with g_0 - 2 sum |g_m| = 0.1, read at K = 91, and one where that bound is
# -0.2 and g_low the certificate's.
GALERKIN_AUDITED = {
    "two-term": MetricProfile(2.0, (ProfileTerm(0, 1, 0.3, 0.0, 0.4),
                                    ProfileTerm(0, 2, 0.2, 0.0, 1.1))),
    "seed7041-3": _generated(7041, 3),
    "near-zero": MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),
                                     ProfileTerm(0, 2, 0.4, 0.0, 0.3))),
    "low": MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6))),
}


def _true_min(g: dict) -> mpmath.mpf:
    """min g for g(t) = sum g_m e^{imt}, in high precision: the least of 512
    samples, refined by Newton's method on g' from it."""
    def value(t, order=0):
        return mpmath.re(mpmath.fsum((1j * m) ** order * c * mpmath.expj(m * t)
                                     for m, c in g.items()))

    nodes = [2 * mpmath.pi * j / 512 for j in range(512)]
    start = min(nodes, key=value)
    root = mpmath.findroot(lambda t: value(t, 1), start, df=lambda t: value(t, 2))
    return min(value(start), value(root))


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


def _rayleigh_pair(g: dict, vector: np.ndarray, lower) -> tuple:
    """For u = sum c_k e^{ikt}, |k| <= K, c = ``vector``: the Rayleigh quotient
    rho = c^H A c / c^H G c of the exact g and the Krylov-Bogolyubov bound
    eps >= ||Delta u - rho u|| / ||u|| in L^2(g dt), both in high precision:
    with w_l = sum_k (lk - rho) g_{l-k} c_k, |l| <= K + B, eps^2 =
    sum |w_l|^2 / (g_low c^H G c), g_low = ``lower`` <= min g (``spectral``).
    G and A are banded, so this is O(K B)."""
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
    g = _profile_coefficients(profile)
    lower = _true_min(g)
    order = read.order + 16
    mass, stiffness = spectral.galerkin_matrices(density.coefficients, order)
    interior = slice(density.t_bandwidth, density.t_bandwidth + 2 * order + 1)
    values, vectors = scipy.linalg.eigh(stiffness[interior], mass[interior])
    count = read.values.size
    assert values[count] > values[count - 1] + 1.0
    reference = [_rayleigh_pair(g, vectors[:, j], lower) for j in range(count + 1)]
    bounds = [-mpmath.inf, *(rho + eps for rho, eps in reference)]
    for k in range(count):
        rho, eps = reference[k]
        gap = min(rho - bounds[k], reference[k + 1][0] - reference[k + 1][1] - rho)
        error = abs(mpmath.mpf(float(read.values[k])) - rho) + eps * eps / gap
        assert error <= read.radii[k], (k, error, read.radii[k])


@pytest.mark.parametrize("n_points", [16, 32, 64, 256])
@pytest.mark.parametrize("amplitude", [0.01, 0.1])
@pytest.mark.parametrize("phase", [0.0, 1.0, 2.5, 4.5])
def test_random_pair_gap_certificate(n_points, amplitude, phase):
    """``verify.random_pair``'s closed-form gap, at window N/8, on the Galerkin
    reads, also where the order of 2 + a cos(2t + psi) exceeds N/2 (N = 16,
    and N = 32 at a = 0.1).  The index-1 value of the strong density's read
    is at most (2 - a/2) / (2 + a/2) plus its rounding, and the contrast's
    gap at least a / (2 + a/2) less the rounding of both reads; the
    contrast passes.

    * A Galerkin read is a min-max value of the pencil of the float
      coefficients g~: at most (g~_0 - |g~_2|) / (g~_0 + |g~_2|), computed
      here in high precision, up to the ``eigh`` backward error.
    * The constant 2 is read at K = floor(N/8) + 1, with index-1 value 1 up
      to its ``eigh`` backward error."""
    strong = MetricProfile(2.0, (ProfileTerm(0, 2, amplitude, 0.0, phase),))
    grid, window = GridSpec(n_points), n_points / 8
    densities = [LeafVolumeDensity.from_profile(p, grid) for p in (strong, MetricProfile(2.0))]
    reads = [spectral.function_laplacian(d, window, LAPLACIAN_FORMS_THRESHOLD) for d in densities]
    above = n_points == 16 or (n_points == 32 and amplitude == 0.1)
    assert (reads[0].order > n_points // 2) == above
    half = mpmath.mpf(amplitude) / 2
    bound = (2 - half) / (2 + half)
    computed = abs(_mp(densities[0].coefficients)[-1])
    rounding = (max(0, (2 - computed) / (2 + computed) - bound)
                + galerkin_rounding(reads[0], densities[0]))
    assert reads[0].values[1] <= bound + rounding
    constant_rounding = galerkin_rounding(reads[1], densities[1])
    assert abs(reads[1].values[1] - 1.0) <= constant_rounding
    rounding += constant_rounding
    for pair in ((strong, MetricProfile(2.0)), (MetricProfile(2.0), strong)):
        report = run_pair_checks([pair], grid, window)[3]
        assert report.passed
        assert report.metadata["laplacian_gap"] >= 2 * half / (2 + half) - rounding


def _lower_audited() -> dict:
    """Profiles for the g_low audit: those of ``tools/parity.py``'s pair cases,
    the Galerkin audit's, the low profile 1 + 0.6 cos t + 0.6 cos 2t, another
    that the certificate proves by sampling, 1 + 0.99 cos t,
    and the first ``random_profile`` and ``random_pair`` draws of seeds 0-2."""
    profiles = {
        "wavy": COSINE, "mixed": MIXED, "half": HALF, "quarter": QUARTER,
        "wavy8": MetricProfile(2.0, (ProfileTerm(0, 1, 0.5), ProfileTerm(0, 8, 0.2, 0.0, 0.7))),
        "sampled": MetricProfile(1.0, (ProfileTerm(0, 1, 0.55), ProfileTerm(0, 2, 0.55, 0.0, 0.4))),
        "near-one": MetricProfile(1.0, (ProfileTerm(0, 1, 0.99),)),
        **GALERKIN_AUDITED,
    }
    for seed in range(3):
        rng = np.random.default_rng(seed)
        profiles[f"seed{seed}"] = random_profile(rng)
        for index, profile in enumerate(random_pair(rng)):
            profiles[f"pair{seed}-{index}"] = profile
    return profiles


LOWER_AUDITED = _lower_audited()


def _lower_bound_holds(profile: MetricProfile) -> bool:
    """Whether the Galerkin read's g_low of the profile's density, the
    theta-average's certified ``min_bound``, is positive and at most both the
    true min of the profile's own density g and that of g~, the density of
    the float coefficients (``spectral``), in high precision."""
    density = LeafVolumeDensity.from_profile(profile, GridSpec(64))
    lower = density.average.min_bound
    bandwidth = density.t_bandwidth
    computed = {m - bandwidth: z for m, z in enumerate(_mp(density.coefficients))}
    return 0.0 < lower <= min(_true_min(_profile_coefficients(profile)), _true_min(computed))


@pytest.mark.parametrize("name", list(LOWER_AUDITED))
def test_certified_lower_bound_is_at_most_the_true_minimum(name):
    """g_low, the certificate's ``min_bound``, against min g in 30 digits.
    For the low profile, whose g_0 - 2 sum |g_m| is -0.2, g_low is within
    0.012 of the true minimum 0.325."""
    profile = LOWER_AUDITED[name]
    assert _lower_bound_holds(profile)
    if name == "low":
        density = LeafVolumeDensity.from_profile(profile, GridSpec(64))
        mean, tail = density.coefficients.real[2], np.abs(density.coefficients[3:]).sum()
        assert mean - 2.0 * tail < -0.19
        assert 0.313 < density.average.min_bound < 0.325


def test_a_sampled_lower_bound_fails_the_audit(monkeypatch):
    """A mutant certificate that keeps the sampled minimum on the 512 grid as
    its bound, with no cell bound and no allowance: for the low profile it
    exceeds the true minimum 0.325 (the nodes miss cos t = -1/4), and the
    audit fails."""
    monkeypatch.setattr(MetricProfile, "_certify_positive",
                        lambda self, *arrays: self.min_value(VALIDATION_GRID))
    profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6)))
    assert not _lower_bound_holds(profile)


def _strip_coefficients() -> list:
    """Density coefficients of one frequency and of several."""
    single = [LeafVolumeDensity.from_profile(MetricProfile(2.0, (ProfileTerm(0, n, a, 0.0, phase),)),
                                             GridSpec(64)).coefficients
              for n in (1, 2, 3, 8) for a in (0.01, 0.1, 1.0, 1.9) for phase in (0.0, 2.5)]
    several = [LeafVolumeDensity.from_profile(profile, GridSpec(64)).coefficients
               for profile in LOWER_AUDITED.values()]
    return single + [c for c in several if np.count_nonzero(c[c.size // 2 + 1:]) > 1]


@pytest.mark.parametrize("coefficients", _strip_coefficients())
def test_strip_width_is_the_distance_of_the_nearest_zero(coefficients):
    """``strip_width`` against eta in 30 digits, for the float coefficients:
    acosh(g_0 / (2 |g_n|)) / n for one frequency n, and min |ln |z|| over the
    ``mpmath.polyroots`` of z^B g(z) otherwise, within a relative 1e-12 (the
    companion eigenvalues' rounding; measured 2.5e-14 at most)."""
    bandwidth = coefficients.size // 2
    g = _mp(coefficients)
    frequencies = [m for m in range(1, bandwidth + 1) if coefficients[bandwidth + m] != 0]
    if len(frequencies) == 1:
        (n,) = frequencies
        eta = mpmath.acosh(mpmath.re(g[bandwidth]) / (2 * abs(g[bandwidth + n]))) / n
    else:
        roots = mpmath.polyroots(g[::-1], maxsteps=200, extraprec=100)
        eta = min(abs(mpmath.log(abs(root))) for root in roots)
    assert abs(spectral.strip_width(coefficients) - eta) <= 1e-12 * eta


# Product profiles f = a(theta) c(t) for the Lichnerowicz audits: their
# densities are 2 + cos t, e^{sin t / 2} to four harmonics, and a
# two-harmonic c(t) whose h = g'/2g reaches about 1.9.
PRODUCTS = {
    "product": MetricProfile(2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(1, 0, 1.0),
                                   ProfileTerm(1, 1, 0.5))),
    "exp_sin": exp_sin_profile(0.5, k_max=4),
    "steep": MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 3, 0.3, 0.0, 0.4),
                                 ProfileTerm(2, 0, 0.2), ProfileTerm(2, 1, 0.12),
                                 ProfileTerm(2, 3, 0.06, 0.0, 0.4))),
}


def _fourier_derivative(values: list, n_points: int) -> list:
    """The Fourier derivative of ``fourier_derivative`` (extreme mode zeroed)
    in high precision: the circular convolution with
    d_q = -(2/N) sum_{0 < k < N/2} k sin(2 pi k q / N)."""
    angle = 2 * mpmath.pi / n_points
    kernel = [-2 * mpmath.fsum(k * mpmath.sin(angle * k * q) for k in range(1, n_points // 2))
              / n_points for q in range(n_points)]
    return [mpmath.fsum(values[m] * kernel[(j - m) % n_points] for m in range(n_points))
            for j in range(n_points)]


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("name", list(PRODUCTS))
def test_lichnerowicz_diagonal_lies_within_the_allowance(n_points, name):
    """c + p = F(h) + 2h^2 - F(g')/2g from the float g and g' in high
    precision (h = g'/2g, k = -g'/g, so g k = -g' and k^2/4 = h^2): every
    computed value is within the allowance of it, so the residual bounds
    ||M||_2 = max|c + p| of the operators as defined."""
    grid = GridSpec(n_points)
    density = LeafVolumeDensity.from_profile(PRODUCTS[name], grid)
    values, allowance = lichnerowicz_diagonal(density)
    g = [mpmath.mpf(x) for x in density.g_values.tolist()]
    g_dot = [mpmath.mpf(x) for x in density.g_dot_values.tolist()]
    h = [gd / (2 * gj) for gd, gj in zip(g_dot, g)]
    derivative_h = _fourier_derivative(h, n_points)
    derivative_g_dot = _fourier_derivative(g_dot, n_points)
    exact = [dh + 2 * hj**2 - dg / (2 * gj)
             for dh, hj, dg, gj in zip(derivative_h, h, derivative_g_dot, g)]
    error = max(abs(mpmath.mpf(x) - e) for x, e in zip(values.tolist(), exact))
    assert error <= allowance
    residual = lichnerowicz_residual(PRODUCTS[name], grid,
                                     torus_geometry(PRODUCTS[name], grid)).residual
    assert max(abs(e) for e in exact) <= residual


@pytest.mark.parametrize("n_points", [64, 128, 256])
@pytest.mark.parametrize("name", ["product", "steep"])
def test_dense_off_diagonal_is_round_off(n_points, name):
    """The dense oracle's M = lhs - rhs has an exactly zero off-diagonal, as
    both sides share -w^{-1} D^2 w: its computed off-diagonal is within
    b ||w^{-1} |D|^2 w||_F, b = (1 + u)(2 sqrt(2) gamma_{N+2} (1 + gamma_3)^2
    + 3 gamma_3 + gamma_3^2) for the two complex products (Higham, Section
    3.6), the entry roundings gamma_3 of the two diagonal scalings and the
    difference, and 1 + gamma_N for computing the bound's own product; so
    ``lichnerowicz_residual`` drops only rounding in a matrix it does not
    form."""
    grid = GridSpec(n_points)
    density = LeafVolumeDensity.from_profile(PRODUCTS[name], grid)
    lhs, rhs = assemble_lichnerowicz_sides(density, grid)
    difference = lhs.matrix - rhs.matrix
    np.fill_diagonal(difference, 0.0)
    w = dirac_factors(density)[0]
    modulus = np.abs(differentiation_matrix(n_points, "trivial"))
    scaled = (modulus @ modulus) * w[None, :] / w[:, None]
    np.fill_diagonal(scaled, 0.0)
    t = spectral.gamma(3)
    b = (1.0 + 0.5 * np.finfo(float).eps) * (
        2.0 * np.sqrt(2.0) * spectral.gamma(n_points + 2) * (1.0 + t) ** 2 + 3.0 * t + t * t)
    bound = b * np.linalg.norm(scaled) * (1.0 + spectral.gamma(n_points))
    assert np.linalg.norm(difference) <= bound


def _near_one(count: int) -> np.ndarray:
    """The ``count`` doubles on each side of 1, 1 itself, and the flow
    parameters near 1 of ``tools/parity.py``."""
    above, below = [1.0], [1.0]
    for _ in range(count):
        above.append(float(np.nextafter(above[-1], 2.0)))
        below.append(float(np.nextafter(below[-1], 0.0)))
    return np.array([*below[::-1], *above[1:], 1.0000000000000437, 0.9995, 0.999, 1.001])


def test_minmax_rows_lie_within_the_reference_roundoff():
    """Every minmax row of ``s3_bounds`` lies within REFERENCE_ROUNDOFF_ULPS - 1
    = 7 spacings of the largest reference of its r, the unit of the range
    refusal (``bounds``), across the accepted range and near r = 1.  In units
    of its own reference it does not: near r = sqrt(2)/3 the reference
    9/8 - 1/(4 r^2) cancels to 0 while the row's error stays a few u of
    the terms 9/8 and 1/(4 r^2)."""
    cancelling = math.sqrt(2.0) / 3.0 * (1.0 + np.linspace(-1e-9, 1e-9, 2001))
    r_values = np.concatenate([np.geomspace(1.5258789054506396e-05, 65536.00003433226, 20001),
                               _near_one(200), cancelling])
    table = s3_bounds(r_values)
    reference = table.reference[:, BOUND_KINDS.index("minmax")]
    error = np.abs(table.value[:, BOUND_KINDS.index("minmax")] - reference)
    largest = np.max(np.abs(table.reference), axis=1)
    assert np.all(error <= (REFERENCE_ROUNDOFF_ULPS - 1) * np.spacing(largest))
    assert np.max(error[-cancelling.size:] / np.spacing(np.abs(reference[-cancelling.size:]))) > 7


def test_profile_samples_lie_within_the_positivity_allowance():
    """``_kernels.sample_profile`` at the certificate's nodes 2 pi j / G,
    G = 512 to CERTIFICATE_GRID_CAP, odd and even j, against f at the exact
    nodes in 50 digits: every error is within 39.01 (K + 1) u S, which is
    at most the allowance e = 32 (K + 1) eps S (``MetricProfile``).  Seeded
    profiles of up to 12 terms, |m| and |n| up to 64, phases up to 100."""
    rng = np.random.default_rng(20261021)
    u = np.finfo(float).eps / 2.0
    with mpmath.workdps(50):
        for _ in range(24):
            k = int(rng.integers(1, 13))
            m, n = (rng.integers(-64, 65, k).astype(float) for _ in range(2))
            amp = rng.uniform(-2.0, 2.0, k)
            phase_theta, phase_t = rng.uniform(-100.0, 100.0, (2, k))
            constant = float(np.sum(np.abs(amp)) + rng.uniform(0.0, 1.0))
            scale = constant + float(np.sum(np.abs(amp) * (1.0 + np.abs(m) + np.abs(n)
                                                           + np.abs(phase_theta)
                                                           + np.abs(phase_t))))
            bound = 39.01 * (k + 1) * u * scale
            assert bound <= 32.0 * (k + 1) * np.finfo(float).eps * scale
            grid_points = VALIDATION_GRID
            while grid_points <= CERTIFICATE_GRID_CAP:
                half = grid_points // 2
                j_theta, j_t = (np.concatenate([2 * rng.choice(half, 10, replace=False),
                                                2 * rng.choice(half, 10, replace=False) + 1])
                                for _ in range(2))
                nodes = uniform_nodes(grid_points)
                values = _kernels.sample_profile(constant, m, n, amp, phase_theta, phase_t,
                                                 nodes[j_theta], nodes[j_t])
                theta_factors = [[mpmath.mpf(a) * mpmath.cos(int(mi) * 2 * mpmath.pi * int(j)
                                                            / grid_points + mpmath.mpf(ph))
                                  for j in j_theta]
                                 for a, mi, ph in zip(amp.tolist(), m, phase_theta.tolist())]
                t_factors = [[mpmath.cos(int(ni) * 2 * mpmath.pi * int(j) / grid_points
                                         + mpmath.mpf(ph)) for j in j_t]
                             for ni, ph in zip(n, phase_t.tolist())]
                for a, row in enumerate(values.tolist()):
                    for b, sample in enumerate(row):
                        exact = constant + mpmath.fsum(theta[a] * t[b] for theta, t
                                                       in zip(theta_factors, t_factors))
                        assert abs(mpmath.mpf(sample) - exact) <= bound
                grid_points *= 2
