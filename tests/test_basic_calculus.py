"""Basic projection, leaf averaging, weighted inner products, spectral derivatives."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
import sympy as sp

from foliation_lab._spectral_diff import fourier_derivative, uniform_nodes
from foliation_lab.basic_calculus import LeafVolumeDensity, dlog, project_basic
from foliation_lab.model_spaces import (
    GridSpec,
    MetricProfile,
    ProfileTerm,
    torus_geometry,
    torus_metric_sample,
)

from conftest import exp_sin_profile, profile_corpus, weighted_inner_product

TWO_PI = 2.0 * np.pi
EPS = np.finfo(np.float64).eps


def _rng():
    return np.random.default_rng(1234)


def _mean_curvature(profile, grid):
    return LeafVolumeDensity.from_profile(profile, grid).mean_curvature_values()


class TestProjectBasic:
    def test_fixes_basic_fields(self, mixed_profile, grid64):
        f = torus_metric_sample(mixed_profile, grid64)
        basic = np.cos(grid64.t_nodes) + 0.3
        field = np.broadcast_to(basic, (grid64.n_points, grid64.n_points))
        projected = project_basic(field, f, grid64)
        np.testing.assert_allclose(projected, basic, atol=1e-13)

    def test_kills_mean_zero_oscillation_for_flat_metric(self, flat_profile, grid64):
        f = torus_metric_sample(flat_profile, grid64)
        field = np.cos(grid64.t_nodes)[:, None] * np.ones(grid64.n_points)
        projected = project_basic(field, f, grid64)
        np.testing.assert_allclose(projected, 0.0, atol=1e-14)

    def test_projection_of_mean_curvature_matches_leaf_average(self, mixed_profile, grid128):
        f = torus_metric_sample(mixed_profile, grid128)
        kappa = torus_geometry(mixed_profile, grid128).kappa_coeff
        projected = project_basic(kappa, f, grid128)
        expected = _mean_curvature(mixed_profile, grid128)
        np.testing.assert_allclose(projected, expected, atol=1e-10)

    def test_idempotent(self, mixed_profile, grid64):
        f = torus_metric_sample(mixed_profile, grid64)
        field = _rng().normal(size=(grid64.n_points, grid64.n_points))
        once = project_basic(field, f, grid64)
        twice = project_basic(np.broadcast_to(once, field.shape), f, grid64)
        np.testing.assert_allclose(once, twice, atol=1e-13)

    def test_self_adjoint_for_weighted_inner_product(self, mixed_profile, grid64):
        f = torus_metric_sample(mixed_profile, grid64)
        rng = _rng()
        n = grid64.n_points
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        def pair(x, y):
            return ((TWO_PI / n) ** 2) * np.sum(np.conj(x) * y * f)

        pa = np.broadcast_to(project_basic(a, f, grid64), a.shape)
        pb = np.broadcast_to(project_basic(b, f, grid64), b.shape)
        assert pair(pa, b) == pytest.approx(pair(a, pb), abs=1e-12)

    def test_shape_mismatch_rejected(self, flat_profile, grid64):
        f = torus_metric_sample(flat_profile, grid64)
        with pytest.raises(ValueError):
            project_basic(np.ones((4, 4)), f, grid64)


class TestBasicMeanCurvature:
    def test_constant_profile(self, grid64):
        np.testing.assert_allclose(_mean_curvature(MetricProfile(3.0), grid64), 0.0)

    def test_cosine_profile_against_symbolic_oracle(self, cosine_profile, grid128):
        t = sp.symbols("t")
        g_expr = 2 + sp.cos(t)
        oracle = sp.lambdify(t, -sp.diff(g_expr, t) / g_expr)
        np.testing.assert_allclose(
            _mean_curvature(cosine_profile, grid128), oracle(grid128.t_nodes), atol=1e-13
        )

    def test_theta_oscillation_averages_away(self, grid64):
        profile = MetricProfile(2.0, (ProfileTerm(1, 0, 1.0),))
        density = LeafVolumeDensity.from_profile(profile, grid64)
        np.testing.assert_allclose(density.g_values, 2.0)
        np.testing.assert_allclose(density.mean_curvature_values(), 0.0)


class TestPeriodicDerivative:
    def test_band_limited_exactness(self, grid64):
        values = np.sin(grid64.t_nodes)
        np.testing.assert_allclose(
            fourier_derivative(values, order=1), np.cos(grid64.t_nodes), atol=1e-13
        )

    def test_constant_gives_zero(self, grid64):
        np.testing.assert_allclose(
            fourier_derivative(np.full(64, 2.5), order=1), 0.0, atol=1e-13
        )

    def test_analytic_function_within_tolerance(self, grid128):
        ts = grid128.t_nodes
        values = np.exp(np.cos(ts))
        expected = -np.sin(ts) * np.exp(np.cos(ts))
        np.testing.assert_allclose(
            fourier_derivative(values, order=1), expected, atol=1e-12
        )

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_trigonometric_polynomials_exactly(self, order, axis):
        rng = np.random.default_rng(2024 + 10 * order + axis)
        ts = np.linspace(0.0, TWO_PI, 48, endpoint=False)
        other = rng.standard_normal(6)
        freqs = rng.integers(0, 24, size=5)  # every frequency below N/2 = 24
        amps = rng.standard_normal(5)
        phases = rng.uniform(0.0, TWO_PI, size=5)
        values = sum(a * np.cos(k * ts + p) for k, a, p in zip(freqs, amps, phases))
        exact = sum(a * k**order * np.cos(k * ts + p + order * np.pi / 2)
                    for k, a, p in zip(freqs, amps, phases))
        field, expected = np.outer(other, values), np.outer(other, exact)
        if axis == 0:
            field, expected = field.T, expected.T
        scale = float(np.max(np.abs(expected)))
        np.testing.assert_allclose(
            fourier_derivative(field, order=order, axis=axis), expected, rtol=0, atol=1e-12 * scale
        )

    @pytest.mark.parametrize("order,factor", [(1, 0.0), (2, -(16.0**2)), (3, 0.0), (4, 16.0**4)])
    def test_extreme_mode_convention(self, order, factor):
        nyquist = np.cos(16.0 * np.linspace(0.0, TWO_PI, 32, endpoint=False))
        np.testing.assert_allclose(
            fourier_derivative(nyquist, order=order), factor * nyquist, rtol=0, atol=1e-9
        )

    def test_refuses_complex_and_odd_length_samples(self):
        with pytest.raises(ValueError, match="real samples"):
            fourier_derivative(np.exp(1j * np.arange(16)))
        with pytest.raises(ValueError, match="even number of samples, got 15"):
            fourier_derivative(np.ones((4, 15)), axis=1)


class TestDlog:
    def test_constant_field(self, grid64):
        np.testing.assert_allclose(dlog(np.ones(64), grid64), 0.0, atol=1e-14)

    def test_cosine_against_symbolic_oracle(self, grid128):
        t = sp.symbols("t")
        alpha_expr = 2 + sp.cos(t)
        oracle = sp.lambdify(t, sp.diff(alpha_expr, t) / alpha_expr)
        ts = grid128.t_nodes
        result = dlog(2.0 + np.cos(ts), grid128)
        np.testing.assert_allclose(result, oracle(ts), atol=1e-13)

    def test_exponential_sine(self, grid128):
        ts = grid128.t_nodes
        result = dlog(np.exp(np.sin(ts)), grid128)
        np.testing.assert_allclose(result, np.cos(ts), atol=1e-12)

    def test_rejects_nonpositive(self, grid64):
        with pytest.raises(ValueError):
            dlog(np.zeros(64), grid64)
        with pytest.raises(ValueError):
            dlog(np.cos(grid64.t_nodes), grid64)


class TestWeightedInnerProduct:
    def test_circle_volume(self, flat_profile, grid64):
        density = LeafVolumeDensity.from_profile(flat_profile, grid64)
        ones = np.ones(64)
        assert weighted_inner_product(ones, ones, density) == pytest.approx(TWO_PI)

    def test_fourier_orthogonality(self, flat_profile, grid64):
        density = LeafVolumeDensity.from_profile(flat_profile, grid64)
        wave = np.exp(1j * grid64.t_nodes)
        value = weighted_inner_product(wave, np.ones(64), density)
        assert abs(value) < 1e-13

    def test_weighted_volume(self, cosine_profile, grid64):
        density = LeafVolumeDensity.from_profile(cosine_profile, grid64)
        ones = np.ones(64)
        assert weighted_inner_product(ones, ones, density) == pytest.approx(2.0 * TWO_PI)

    def test_conjugate_symmetry_and_positivity(self, cosine_profile, grid64):
        density = LeafVolumeDensity.from_profile(cosine_profile, grid64)
        rng = _rng()
        a = rng.normal(size=64) + 1j * rng.normal(size=64)
        b = rng.normal(size=64) + 1j * rng.normal(size=64)
        left = weighted_inner_product(a, b, density)
        right = weighted_inner_product(b, a, density)
        assert left == pytest.approx(np.conj(right))
        norm_sq = weighted_inner_product(a, a, density)
        assert norm_sq.imag == pytest.approx(0.0, abs=1e-12)
        assert norm_sq.real > 0.0


class TestLeafVolumeDensity:
    def test_exponential_profile_density(self, grid128):
        profile = exp_sin_profile(0.5)
        density = LeafVolumeDensity.from_profile(profile, grid128)
        np.testing.assert_allclose(
            density.g_values, np.exp(0.5 * np.sin(grid128.t_nodes)), atol=1e-13
        )
        np.testing.assert_allclose(
            density.g_dot_values,
            0.5 * np.cos(grid128.t_nodes) * np.exp(0.5 * np.sin(grid128.t_nodes)),
            atol=1e-13,
        )

    def test_rejects_nonpositive_density(self, monkeypatch):
        monkeypatch.setattr(MetricProfile, "sample_t", lambda profile, ts: np.cos(ts))
        with pytest.raises(ValueError, match="strictly positive"):
            LeafVolumeDensity(MetricProfile(2.0), 16)

    def test_refuses_a_profile_that_is_not_theta_averaged(self, mixed_profile):
        with pytest.raises(ValueError, match="theta-averaged"):
            LeafVolumeDensity(mixed_profile, 64)
        LeafVolumeDensity(mixed_profile.theta_average(), 64)

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    def test_samples_are_the_average_sampled_termwise(self, n_points):
        """The samples are the averaged profile's at the nodes, through
        ``_kernels``, and g_dot its termwise derivative accumulated term by
        term, bit for bit, on the generated and parity profiles."""
        grid = GridSpec(n_points)
        ts = uniform_nodes(n_points)
        for profile in profile_corpus():
            density = LeafVolumeDensity.from_profile(profile, grid)
            average = profile.theta_average()
            g_dot = np.zeros(n_points)
            for term in average.terms:
                g_dot -= term.amplitude * term.n * np.sin(term.n * ts + term.phase_t)
            assert density.average == average and density.n_points == n_points
            assert np.array_equal(density.g_values, average.sample_t(ts))
            assert np.array_equal(density.g_dot_values, g_dot)

    def test_a_density_is_its_average_and_grid(self, mixed_profile, grid64):
        """The density's fields are the averaged profile and N; t-bandwidth,
        period and coefficients are computed and cannot be passed, and equal
        averages on one grid are equal keys."""
        density = LeafVolumeDensity.from_profile(mixed_profile, grid64)
        assert [field.name for field in dataclasses.fields(density)] == ["average", "n_points"]
        assert (density.t_bandwidth, density.period) == (1, 64)
        for name, value in (("period", 32), ("t_bandwidth", 0), ("coefficients", None)):
            with pytest.raises(TypeError):
                dataclasses.replace(density, **{name: value})
        twin = LeafVolumeDensity.from_profile(mixed_profile, grid64)
        assert twin == density and {twin: 1}[density] == 1
        assert LeafVolumeDensity.from_profile(mixed_profile, GridSpec(128)) != density

    def test_cosine_coefficients_are_exact(self):
        density = LeafVolumeDensity(MetricProfile(2.0, (ProfileTerm(0, 1, 0.6),)), 64)
        assert np.array_equal(density.coefficients, [0.3, 2.0, 0.3])

    @pytest.mark.parametrize("terms, expected", [
        # n < 0 with a phase: 0.4 cos(-2t + 0.5) = 0.4 cos(2t - 0.5)
        ((ProfileTerm(0, -2, 0.4, 0.0, 0.5),),
         [0.2 * cmath.exp(0.5j), 0.0, 2.0, 0.0, 0.2 * cmath.exp(-0.5j)]),
        # n = 0 with a phase adds a cos(phi) to the constant
        ((ProfileTerm(0, 0, 0.4, 0.0, 0.5),), [2.0 + 0.4 * math.cos(0.5)]),
        # two terms at |n| = 1, the second with n < 0
        ((ProfileTerm(0, 1, 0.6), ProfileTerm(0, -1, 0.2, 0.0, 0.3)),
         [0.3 + 0.1 * cmath.exp(0.3j), 2.0, 0.3 + 0.1 * cmath.exp(-0.3j)]),
        # theta terms average out; cos(phi_theta) scales an m = 0 term
        ((ProfileTerm(1, 3, 0.4), ProfileTerm(0, 1, 0.6, 0.4)),
         [0.3 * math.cos(0.4), 2.0, 0.3 * math.cos(0.4)]),
    ], ids=["negative-n", "zero-n", "shared-n", "theta-average"])
    def test_exact_coefficients(self, grid64, terms, expected):
        density = LeafVolumeDensity.from_profile(MetricProfile(2.0, terms), grid64)
        np.testing.assert_allclose(density.coefficients, expected, rtol=0.0, atol=4.0 * EPS)
