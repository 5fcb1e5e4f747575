"""Operator assembly: spectra, weighted symmetry, adjointness, identities."""

import dataclasses

import numpy as np
import pytest

from foliation_lab import operators, spectral
from foliation_lab._spectral_diff import differentiation_matrix, uniform_nodes, wavenumbers
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.cli import run
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_forms,
    assemble_basic_dirac_spinor,
    assemble_basic_laplacian,
    assemble_lichnerowicz_sides,
    codifferential,
    diagonal_conjugate,
    twisted_differential,
)
from foliation_lab.spectral import eigenvalues_weighted, laplacian_spectrum, spectrum_compare
from foliation_lab.verify import (
    conjugation_residual,
    invariance_check,
    kappa_transform_residual,
    laplacian_dependence,
    run_pair_checks,
)

from conftest import (
    bloch_allowance,
    complex_diagonal_conjugate,
    complex_hermitian_spectrum,
    complex_symmetrized,
    delta_d_laplacian,
    exp_sin_profile,
    fd_laplacian_spectrum,
    finite_difference_laplacian,
    laplacian_first_nonzero_eigenvalue,
    laplacian_read,
    pair_inputs,
    weighted_inner_product,
)

TWO_PI = 2.0 * np.pi
EPS = np.finfo(np.float64).eps


def _density(profile, grid):
    return LeafVolumeDensity.from_profile(profile, grid)


def _all_operators(profile, grid):
    density = _density(profile, grid)
    ops = [
        assemble_basic_dirac_spinor(density, grid),
        assemble_basic_dirac_forms(density, grid),
        assemble_basic_laplacian(density, grid, "function"),
        assemble_basic_laplacian(density, grid, "one_form"),
    ]
    ops.extend(assemble_lichnerowicz_sides(density, grid))
    return ops


class TestDifferentiationMatrix:
    @pytest.mark.parametrize("n_points", [64, 128])
    def test_cached_read_only_and_nontrivial_is_shifted(self, n_points):
        trivial = differentiation_matrix(n_points, "trivial")
        nontrivial = differentiation_matrix(n_points, "nontrivial")
        assert differentiation_matrix(n_points, "trivial") is trivial
        assert differentiation_matrix(n_points, "nontrivial") is nontrivial
        for matrix in (trivial, nontrivial):
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0
        # Oracle: antiperiodic sections psi = e^{it/2} phi are written by their
        # periodic part phi, on which d/dt is D + i/2.
        assert np.array_equal(nontrivial, trivial + 0.5j * np.eye(n_points))

    @pytest.mark.parametrize("n_points", [64, 256])
    def test_nontrivial_spinor_matrix_is_the_trivial_one_minus_a_half(self, cosine_profile,
                                                                      n_points):
        """i g^{-1/2} (D + i/2) g^{1/2} = i g^{-1/2} D g^{1/2} - 1/2: off the diagonal
        the scalings meet the same entries of D, so the bits are equal.  On it
        the shift goes through the scalings (1/w rounded and two products,
        3 eps relative) and the reference's subtraction rounds once (eps/2),
        so with s_j the reference the entries agree within 4 eps (1/2 + |s_j|),
        a few ulps."""
        trivial, nontrivial = (
            assemble_basic_dirac_spinor(_density(cosine_profile, grid), grid).matrix
            for grid in (GridSpec(n_points), GridSpec(n_points, "nontrivial"))
        )
        off = ~np.eye(n_points, dtype=bool)
        assert np.array_equal(nontrivial[off], trivial[off])
        shifted = np.diag(trivial) - 0.5
        assert np.all(np.abs(np.diag(nontrivial) - shifted) <= 4 * EPS * (0.5 + np.abs(shifted)))


class TestSpinorDirac:
    def test_flat_metric_exact_integer_lattice(self, flat_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(flat_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, np.arange(-32, 32), atol=1e-10)

    def test_weights_are_scaled_density(self, cosine_profile, grid64):
        density = _density(cosine_profile, grid64)
        op = assemble_basic_dirac_spinor(density, grid64)
        np.testing.assert_allclose(op.weights, (TWO_PI / 64) * density.g_values)

    def test_wavy_metric_integer_spectrum_in_window(self, cosine_profile, grid128):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid128), grid128)
        window = eigenvalues_weighted(op).in_window(10.0)
        np.testing.assert_allclose(window, np.arange(-10, 11), atol=1e-8)

    def test_nontrivial_spin_structure_half_integers(self, flat_profile):
        grid = GridSpec(64, "nontrivial")
        op = assemble_basic_dirac_spinor(_density(flat_profile, grid), grid)
        window = eigenvalues_weighted(op).in_window(8.0)
        expected = np.arange(-7.5, 8.0, 1.0)
        np.testing.assert_allclose(window, expected, atol=1e-8)

    def test_nontrivial_spectrum_independent_of_density(self, cosine_profile):
        grid = GridSpec(64, "nontrivial")
        flat = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(MetricProfile(1.0), grid), grid)
        )
        wavy = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(cosine_profile, grid), grid)
        )
        assert spectrum_compare(flat, wavy, 8.0) < 1e-9

    def test_unitary_equivalence_to_spectral_derivative(self, cosine_profile, grid128):
        density = _density(cosine_profile, grid128)
        op = assemble_basic_dirac_spinor(density, grid128)
        root = np.sqrt(density.g_values)
        conjugated = (root[:, None] * op.matrix) / root[None, :]
        target = 1j * differentiation_matrix(grid128.n_points, "trivial")
        assert np.linalg.norm(conjugated - target, 2) < 1e-10


class TestConsistency:
    """The assembled first-order matrices applied to phi = e^{ikt}, |k| <= N/8,
    against the continuous operators at the nodes, with g' from the exact
    ``g_dot_values``: the spinor Dirac matrix against i(phi' + (g'/2g) phi) on
    the trivial structure and i(phi' + i phi/2 + (g'/2g) phi) on the
    nontrivial one (phi the periodic part of the section e^{it/2} phi), and
    the twisted differential against u' - kappa u/2, kappa = -g'/g.  This
    checks what each matrix means, not only its spectrum.

    The tolerance is derived, not fitted.  Each matrix is z g^{-1/2} D_s f
    with f = g^{1/2} phi, z = i or 1, and D_s - D = i/2 exactly, so its error
    at node j is g_j^{-1/2} times that of D on f, plus rounding.

    (a) Aliasing.  D differentiates the interpolant whose coefficient at m in
        L_N = {-N/2+1, ..., N/2} is sum_j f^_{m+jN}: each f^_m with m outside
        L_N is folded onto an m' with |m'| <= N/2 <= |m|, or dropped, so
        |D f - f'| <= 2 T_N at every node, T_N = sum_{m not in L_N} |m| |f^_m|.
    (b) The tail.  On the 4N grid the coefficients alias in the same way, so
        T_N <= T_4N + 2 R, with T_4N the same sum of the 4N-grid coefficients
        over the m in L_4N outside L_N, and R = sum_{|m| >= 2N} |m| |f^_m|.
        For g = c + a cos t, g^{1/2} is analytic in |Im t| < y_0 = acosh(c/a)
        and bounded there by (c + a cosh y_0)^{1/2} = (2c)^{1/2}, so
        |f^_m| <= (2c)^{1/2} e^{(|k| - |m|) y_0} (Cauchy) and, with
        r = e^{-y_0} and M = 2N,
        R <= 2 (2c)^{1/2} e^{|k| y_0} r^M (M - (M - 1) r) / (1 - r)^2.
    (c) Rounding, in units of eps.  The nodes are within 6 pi eps of 2 pi j/N
        (2 pi, a product and a division), which moves each sample by 6 pi
        eps times its t-derivative: relatively |k| for phi and |g'/2g| for
        g^{+-1/2}, and by a/(2 min g) + lambda^2/2 for g'/2g, lambda =
        max|g'/g|.  With gamma_N for the matrix-vector sums (Higham, Lemma
        3.5), the complex products, the two scalings and a few eps per
        function evaluation, the error is at most s eps (sum_l |M_jl| +
        |k| + 1 + lambda), s = N + 16 + 12 pi (|k| + lambda + lambda^2 +
        a / min g).  The computed D is within N^2 eps / 2 of the exact one in
        Frobenius norm (``test_round_off_of_the_derivative_matrix``), and the
        shift rounds each diagonal entry once more, so D errs on f by at most
        (N^2 eps / 2 + eps) N^{1/2} max g^{1/2}.  The 4N-point FFT errs
        normwise by at most gamma_{7 log2(4N)} (Higham, Theorem 24.2) and the
        samples of f by s eps, so T_4N is within 2N (4N)^{1/2}
        (gamma_{7 log2(4N)} + s eps) max g^{1/2} of its computed value.

    Where the tail is large the bound is close: at N = 64 for g = 1 + 0.9 cos t
    the error is 0.96 of it.  Elsewhere the rounding terms dominate it.

    (d) The Laplacians' Gram products, T T^H on functions and T^H T on
        one-forms, M M^H and M^H M for the held M = iT, are applied to
        f = g^{1/2} phi in two steps, against g^{1/2}(-phi'' - (g'/g) phi') and
        g^{1/2}(-((g phi)'/g)'), the symmetrized delta d and d delta.  Each
        step is a matrix w^{-1} D_w w applied to a vector u, T^H being
        g^{1/2} D^H g^{-1/2} with D^H = -D up to the round-off of the computed
        D, which (c) bounds for D^H as for D.  Let v = w u be the function
        differentiated.  By (a) and (c) a step errs by at most
        max|w^{-1}| (2 T_N(v) + (N^2 eps / 2 + eps) N^{1/2} max|v|) plus
        s eps (sum_l |M_jl| |u_l| + max|u| (|k| + 1 + lambda)), and it carries
        the error of its input times the absolute row sum of its matrix.  In
        three of the four steps v is phi, g phi or k g phi, band-limited below
        N/2, so T_N(v) = 0.  In the last step of T^H T, v is
        h = (g phi)'/g = (ik + g'/g) phi.  As c + a cos t =
        (a / 2r)(1 + r e^{it})(1 + r e^{-it}), r = e^{-y_0}, the coefficients
        of g'/g = (log g)' have modulus r^{|n|}, so T_N(h) is the sum of
        |k + n| r^{|n|} over the k + n outside L_N, in closed form:
        r^{n_0} ((n_0 + j) / (1 - r) + r / (1 - r)^2) for n_0 = N/2 - k + 1,
        j = k and for n_0 = N/2 + k, j = -k.  The expected values are
        evaluated within s eps max g^{1/2} (k^2 + |k| lambda + lambda^2 +
        a / min g), by the rules of (c).

    (e) The codifferential delta = -g^{-1} D g applied to phi against
        -(g phi)'/g = -(ik + g'/g) phi.  Here v = g phi has its coefficients
        at k - 1, k and k + 1, inside L_N for |k| <= N/8, so (a) and (b)
        contribute nothing.  (c) holds with w = g for g^{1/2}: the node
        errors move g and g^{-1} relatively by 6 pi eps lambda and the
        expected g'/g by 6 pi eps (a / min g + lambda^2), twice the g^{1/2}
        and g'/2g figures, which the 12 pi in s covers.  No shift rounds the
        diagonal, so D errs on v by at most (N^2 eps / 2) N^{1/2} max g,
        scaled by max g^{-1}, and the error is at most that plus
        s eps (sum_l |delta_jl| + |k| + 1 + lambda).
    """

    @staticmethod
    def _tolerance(n_points, c, a, ks, matrix, g_values, g_dot_values):
        lam = float(np.max(np.abs(g_dot_values / g_values)))
        s = n_points + 16 + 12 * np.pi * (np.abs(ks) + lam + lam**2 + a / np.min(g_values))
        fine = 4 * n_points
        fft_error = 7 * np.log2(fine) * EPS / (1 - 7 * np.log2(fine) * EPS)
        root_max, inverse_root_max = np.sqrt(np.max(g_values)), 1 / np.sqrt(np.min(g_values))
        # (b): the tail of f = g^{1/2} e^{ikt} on the 4N grid, and R in closed form
        nodes = uniform_nodes(fine)
        f = np.sqrt(c + a * np.cos(nodes))[:, None] * np.exp(1j * np.outer(nodes, ks))
        coefficients = np.abs(np.fft.fft(f, axis=0)) / fine
        m = wavenumbers(fine)
        outside = (m <= -n_points // 2) | (m > n_points // 2)
        tail = np.abs(m[outside]) @ coefficients[outside]
        tail += 2 * n_points * np.sqrt(fine) * (fft_error + s * EPS) * root_max
        y0 = np.arccosh(c / a)
        r, big = np.exp(-y0), 2 * n_points
        beyond = (2 * np.sqrt(2 * c) * np.exp(np.abs(ks) * y0)
                  * r**big * (big - (big - 1) * r) / (1 - r) ** 2)
        aliasing = 2 * inverse_root_max * (tail + 2 * beyond)
        # (c): rounding
        derivative = (n_points**2 * EPS / 2 + EPS) * np.sqrt(n_points) * root_max
        row_sum = float(np.max(np.sum(np.abs(matrix), axis=1)))
        rounding = s * EPS * (row_sum + np.abs(ks) + 1 + lam)
        return aliasing + inverse_root_max * derivative + rounding

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("c, a", [(2.0, 1.0), (1.0, 0.9)])
    def test_matrices_apply_their_continuous_operators(self, n_points, c, a):
        ks = np.arange(-(n_points // 8), n_points // 8 + 1)
        for spin, shift in (("trivial", 0.0), ("nontrivial", 0.5j)):
            grid = GridSpec(n_points, spin)
            density = _density(MetricProfile(c, (ProfileTerm(0, 1, a),)), grid)
            g, g_dot = density.g_values, density.g_dot_values
            phi = np.exp(1j * np.outer(grid.t_nodes, ks))
            first_order = 1j * ks + (g_dot / (2 * g))[:, None]
            cases = [(assemble_basic_dirac_spinor(density, grid).matrix,
                      1j * (first_order + shift) * phi)]
            if spin == "trivial":
                kappa = density.mean_curvature_values()
                cases.append((twisted_differential(density, grid),
                              (1j * ks - kappa[:, None] / 2) * phi))
            for matrix, expected in cases:
                error = np.max(np.abs(matrix @ phi - expected), axis=0)
                assert np.all(error <= self._tolerance(n_points, c, a, ks, matrix, g, g_dot))

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("c, a", [(2.0, 1.0), (1.0, 0.9)])
    def test_codifferential_applies_its_continuous_operator(self, n_points, c, a):
        ks = np.arange(-(n_points // 8), n_points // 8 + 1)
        grid = GridSpec(n_points)
        density = _density(MetricProfile(c, (ProfileTerm(0, 1, a),)), grid)
        g, g_dot = density.g_values, density.g_dot_values
        lam = float(np.max(np.abs(g_dot / g)))
        s = n_points + 16 + 12 * np.pi * (np.abs(ks) + lam + lam**2 + a / np.min(g))
        phi = np.exp(1j * np.outer(grid.t_nodes, ks))
        delta = codifferential(density, grid)
        expected = -(1j * ks + (g_dot / g)[:, None]) * phi
        # (e): no aliasing; the derivative matrix's round-off and (c)'s rounding
        derivative = n_points**2 * EPS / 2 * np.sqrt(n_points) * np.max(g) / np.min(g)
        row_sum = float(np.max(np.sum(np.abs(delta), axis=1)))
        tolerance = derivative + s * EPS * (row_sum + np.abs(ks) + 1 + lam)
        error = np.max(np.abs(delta @ phi - expected), axis=0)
        assert np.all(error <= tolerance)

    @staticmethod
    def _step_bound(n_points, ks, matrix, u, left_max, v_max, tail, s, lam):
        """(d): the error of one step on exact input, per column k."""
        derivative = (n_points**2 * EPS / 2 + EPS) * np.sqrt(n_points) * v_max
        products = np.max(np.abs(matrix) @ np.abs(u), axis=0)
        magnitude = np.max(np.abs(u), axis=0) * (np.abs(ks) + 1 + lam)
        return left_max * (2 * tail + derivative) + s * EPS * (products + magnitude)

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("c, a", [(2.0, 1.0), (1.0, 0.9)])
    def test_laplacians_apply_their_continuous_operators(self, n_points, c, a):
        ks = np.arange(-(n_points // 8), n_points // 8 + 1)
        grid = GridSpec(n_points)
        density = _density(MetricProfile(c, (ProfileTerm(0, 1, a),)), grid)
        g, g_dot = density.g_values, density.g_dot_values
        log_dot, g_ddot = g_dot / g, (c - g) / g  # g'' = -a cos t = c - g
        lam = float(np.max(np.abs(log_dot)))
        s = n_points + 16 + 12 * np.pi * (np.abs(ks) + lam + lam**2 + a / np.min(g))
        root_max, inverse_root_max = np.sqrt(np.max(g)), 1 / np.sqrt(np.min(g))
        phi = np.exp(1j * np.outer(grid.t_nodes, ks))
        f = np.sqrt(g)[:, None] * phi
        r = np.exp(-np.arccosh(c / a))
        n0 = np.array([n_points // 2 - ks + 1, n_points // 2 + ks])
        j = np.array([ks, -ks])
        tail_h = np.sum(r**n0 * ((n0 + j) / (1 - r) + r / (1 - r) ** 2), axis=0)
        evaluation = s * EPS * root_max * (ks**2 + np.abs(ks) * lam + lam**2 + a / np.min(g))
        kk = ks[None, :]
        held = assemble_basic_dirac_spinor(density, grid).matrix
        factor, adjoint = -1j * held, (-1j * held).conj().T
        for degree in ("function", "one_form"):
            if degree == "function":  # T (T^H f): v = phi, then v = k g phi
                first, second = adjoint, factor
                expected = np.sqrt(g)[:, None] * (kk**2 - 1j * kk * log_dot[:, None]) * phi
                bounds = [(root_max, 1.0, 0.0), (inverse_root_max, np.abs(ks) * np.max(g), 0.0)]
            else:  # T^H (T f): v = g phi, then v = h = (ik + g'/g) phi
                first, second = factor, adjoint
                expected = np.sqrt(g)[:, None] * (
                    kk**2 - 1j * kk * log_dot[:, None] - (g_ddot - log_dot**2)[:, None]) * phi
                bounds = [(inverse_root_max, np.max(g), 0.0), (root_max, np.abs(ks) + lam, tail_h)]
            middle = first @ f
            first_error = self._step_bound(n_points, ks, first, f, *bounds[0], s, lam)
            second_error = self._step_bound(n_points, ks, second, middle, *bounds[1], s, lam)
            row_sum = float(np.max(np.sum(np.abs(second), axis=1)))
            tolerance = row_sum * first_error + second_error + evaluation
            error = np.max(np.abs(second @ middle - expected), axis=0)
            assert np.all(error <= tolerance), degree


class TestFormsDirac:
    def test_flat_metric_spectrum_multiplicities(self, flat_profile, grid64):
        op = assemble_basic_dirac_forms(_density(flat_profile, grid64), grid64)
        window = eigenvalues_weighted(op).in_window(8.0)
        expected = np.sort(np.concatenate([np.arange(-8, 9), np.arange(-8, 9)]))
        np.testing.assert_allclose(window, expected, atol=1e-10)

    def test_spectrum_matches_flat_oracle(self, cosine_profile, grid128):
        flat = eigenvalues_weighted(
            assemble_basic_dirac_forms(_density(MetricProfile(1.0), grid128), grid128)
        )
        wavy = eigenvalues_weighted(
            assemble_basic_dirac_forms(_density(cosine_profile, grid128), grid128)
        )
        assert spectrum_compare(flat, wavy, 10.0) < 1e-8

    def test_spectrum_symmetric_about_zero(self, mixed_profile, grid64):
        op = assemble_basic_dirac_forms(_density(mixed_profile, grid64), grid64)
        values = eigenvalues_weighted(op).eigenvalues
        np.testing.assert_allclose(values, -values[::-1], atol=1e-9)

    def test_squared_matrix_spectral_mapping(self, cosine_profile, grid64):
        op = assemble_basic_dirac_forms(_density(cosine_profile, grid64), grid64)
        squared = WeightedOperator(
            op.matrix @ op.matrix, op.weights, "forms_squared", op.n_points
        )
        direct = np.sort(eigenvalues_weighted(squared).eigenvalues)
        mapped = np.sort(eigenvalues_weighted(op).eigenvalues ** 2)
        np.testing.assert_allclose(direct, mapped, atol=1e-8)


class TestBasicLaplacian:
    def test_flat_circle_spectrum(self, flat_profile, grid64):
        head = laplacian_read(_density(flat_profile, grid64), grid64).eigenvalues[:7]
        np.testing.assert_allclose(head, [0, 1, 1, 4, 4, 9, 9], atol=1e-10)

    def test_first_eigenvalue_shifts_with_density(self):
        grid = GridSpec(128)
        profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
        spectral = laplacian_read(_density(profile, grid), grid)
        lam = laplacian_first_nonzero_eigenvalue(spectral.eigenvalues)
        assert abs(lam - 1.0) > 1e-3
        # independent second discretization agrees on the shifted value
        lam_fd = laplacian_first_nonzero_eigenvalue(
            fd_laplacian_spectrum(profile, 1024).eigenvalues)
        assert lam == pytest.approx(lam_fd, abs=1e-4)

    def test_constants_are_harmonic_for_any_density(self, mixed_profile, grid64):
        """The constants are g^{1/2} in the symmetrized frame, and T^H, so also
        T T^H, annihilates g^{1/2}: T^H g^{1/2} = -g^{1/2} D 1."""
        density = _density(mixed_profile, grid64)
        factor = assemble_basic_dirac_spinor(density, grid64).matrix
        image = factor.conj().T @ np.sqrt(density.g_values)
        assert np.max(np.abs(image)) < 1e-10
        assert abs(laplacian_read(density, grid64).eigenvalues[0]) < 1e-10

    def test_reads_the_spectrum_of_its_factor_gram_product(self, mixed_profile):
        """A Laplacian is read from T, the periodic operator whatever the spin
        structure, as the spectrum of T T^H, not that of iT: within the
        read's allowance of the dense Gram product of the T built from the
        same column and factor; both degrees read the same values."""
        for spin in ("trivial", "nontrivial"):
            grid = GridSpec(64, spin)
            density = _density(mixed_profile, grid)
            column = spectral.circulant_spectrum(64, "trivial")[1]
            w = np.sqrt(density.g_values)
            factor = column[np.subtract.outer(np.arange(64), np.arange(64)) % 64] * w / w[:, None]
            gram = np.linalg.eigvalsh(factor @ factor.conj().T)
            reports = [laplacian_read(density, grid, degree) for degree in ("function", "one_form")]
            for degree, report in zip(("function", "one_form"), reports):
                assert report.operator_label == f"laplacian_{degree}[N=64]"
                assert np.array_equal(report.eigenvalues, reports[0].eigenvalues)
            # the dense read: the factor's two roundings per entry (e), the
            # product's gamma_{N+2} |T| |T|^T and the solve's N eps
            absolute = np.abs(factor)
            error = spectral.gamma(2) * float(np.linalg.norm(factor))
            product = spectral.gamma(66) * float(np.linalg.norm(absolute @ absolute.T))
            solve = 64 * EPS * (gram[-1] + product)
            sigma = np.sqrt(gram[-1] + product + solve)
            allowance = (bloch_allowance(density, reports[0]) + error * (2.0 * sigma + error)
                         + product + solve)
            assert np.max(np.abs(reports[0].eigenvalues - gram)) <= allowance

    def test_assembled_operator_is_the_delta_d_product(self, mixed_profile, cosine_profile,
                                                       grid64):
        """``assemble_basic_laplacian`` forms delta @ D or D @ delta, the product
        the grid read is checked against: a read of it returns the Laplacian
        spectrum that its label names."""
        for profile in (mixed_profile, MetricProfile(2.0, (ProfileTerm(0, 2, 0.5),))):
            density = _density(profile, grid64)
            for degree in ("function", "one_form"):
                op = assemble_basic_laplacian(density, grid64, degree)
                oracle = delta_d_laplacian(density, grid64, degree)
                assert np.array_equal(op.matrix, oracle.matrix)
                assert op.label == f"laplacian_{degree}[N=64]"
                report = eigenvalues_weighted(op)
                assert report.operator_label == op.label
                np.testing.assert_allclose(
                    report.eigenvalues, laplacian_read(density, grid64).eigenvalues, atol=1e-9)

    def test_spectra_real_and_nonnegative(self, mixed_profile, grid64):
        for degree in ("function", "one_form"):
            values = laplacian_read(_density(mixed_profile, grid64), grid64, degree).eigenvalues
            assert (values >= -1e-10).all()

    def test_rejects_unknown_degree(self, flat_profile, grid64):
        with pytest.raises(ValueError):
            assemble_basic_laplacian(_density(flat_profile, grid64), grid64, "two_form")


class TestLichnerowicz:
    def test_flat_metric_sides_are_second_derivative(self, flat_profile, grid64):
        lhs, rhs = assemble_lichnerowicz_sides(_density(flat_profile, grid64), grid64)
        d = differentiation_matrix(grid64.n_points, "trivial")
        np.testing.assert_allclose(lhs.matrix, -(d @ d), atol=1e-10)
        assert np.linalg.norm(lhs.matrix - rhs.matrix, 2) < 1e-10

    @pytest.mark.parametrize("profile_name", ["cosine", "exp_sin"])
    def test_identity_residual_small(self, profile_name, cosine_profile, grid128):
        profile = cosine_profile if profile_name == "cosine" else exp_sin_profile(0.5)
        lhs, rhs = assemble_lichnerowicz_sides(_density(profile, grid128), grid128)
        assert np.linalg.norm(lhs.matrix - rhs.matrix, 2) < 1e-8

    def test_identity_holds_for_nontrivial_spin_structure(self, cosine_profile):
        grid = GridSpec(128, "nontrivial")
        lhs, rhs = assemble_lichnerowicz_sides(_density(cosine_profile, grid), grid)
        assert np.linalg.norm(lhs.matrix - rhs.matrix, 2) < 1e-8

    def test_rejects_underresolved_grid(self):
        profile = exp_sin_profile(0.5, k_max=12)
        grid = GridSpec(64)
        with pytest.raises(ValueError, match="too coarse"):
            assemble_lichnerowicz_sides(_density(profile, grid), grid)


class TestWeightedOperatorInvariants:
    def test_every_assembled_operator_is_weighted_hermitian(self, mixed_profile, grid64):
        for op in _all_operators(mixed_profile, grid64):
            assert op.symmetry_residual() < 1e-12, op.label

    def test_discrete_adjointness_is_exact(self, cosine_profile, grid64):
        density = _density(cosine_profile, grid64)
        d = differentiation_matrix(grid64.n_points, "trivial")
        delta = codifferential(density, grid64)
        rng = np.random.default_rng(7)
        u = rng.normal(size=64) + 1j * rng.normal(size=64)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        left = weighted_inner_product(d @ u, v, density)
        right = weighted_inner_product(u, delta @ v, density)
        assert left == pytest.approx(right, abs=1e-12)

    def test_rejects_inconsistent_weights(self):
        with pytest.raises(ValueError):
            WeightedOperator(np.eye(4), np.ones(3), "bad", 4)
        with pytest.raises(ValueError):
            WeightedOperator(np.eye(3), np.array([1.0, -1.0, 1.0]), "bad", 3)


class TestTranslationPeriod:
    """Densities record P = N / gcd(N, n_1, ..., n_k) over the t-frequencies of
    the theta-average, along which the grid Laplacian read takes its Bloch
    blocks; an assembled operator claims no period."""

    @pytest.mark.parametrize(
        "terms, period",
        [
            ((), 1),
            ((ProfileTerm(1, 3, 0.4), ProfileTerm(2, 0, 0.3, 0.5)), 1),  # theta terms average out
            ((ProfileTerm(0, 0, 0.3, 0.2),), 1),
            ((ProfileTerm(0, 2, 0.5), ProfileTerm(0, -2, 0.2, 0.0, 1.0)), 32),
            ((ProfileTerm(0, 4, 0.4), ProfileTerm(0, 8, 0.3), ProfileTerm(1, 1, 0.2)), 16),
            ((ProfileTerm(0, 8, 0.6, 0.0, 0.7),), 8),
            ((ProfileTerm(0, 2, 0.5), ProfileTerm(0, 3, 0.2)), 64),
            ((ProfileTerm(0, 1, 1.0),), 64),
        ],
    )
    def test_density_period_from_profile(self, terms, period, grid64):
        """g repeats after P nodes up to the round-off of its samples: each
        term a cos(n t_j + phi) errs by at most |a| eps (2 (2 pi |n| + |phi|) + 1)
        (argument and cosine), and summing k + 1 terms adds (k + 1) eps sum|term|;
        two samples differ by at most twice that."""
        profile = MetricProfile(2.0, terms)
        density = _density(profile, grid64)
        assert density.period == period
        reduced = profile.theta_average().terms
        eps = np.finfo(np.float64).eps
        sample = sum(abs(t.amplitude) * eps * (2.0 * (TWO_PI * abs(t.n) + abs(t.phase_t)) + 1.0)
                     for t in reduced)
        total = 2.0 + sum(abs(t.amplitude) for t in reduced)
        bound = 2.0 * (sample + (len(reduced) + 1) * eps * total)
        shifted = np.roll(density.g_values, period)
        assert np.max(np.abs(shifted - density.g_values)) <= bound

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_assemblers_record_no_period(self, spin):
        grid = GridSpec(64, spin)
        density = _density(MetricProfile(2.0, (ProfileTerm(0, 4, 0.5), ProfileTerm(1, 1, 0.3))),
                           grid)
        assert density.period == 16
        ops = [assemble_basic_dirac_spinor(density, grid), assemble_basic_dirac_forms(density, grid),
               *(assemble_basic_laplacian(density, grid, degree)
                 for degree in ("function", "one_form")),
               *assemble_lichnerowicz_sides(density, grid)]
        for op in ops:
            assert [field.name for field in dataclasses.fields(op)] == [
                "matrix", "weights", "label", "n_points"]


class TestFiniteDifferenceOracle:
    def test_flat_case_converges_to_circle_laplacian(self):
        # second-order scheme: eigenvalue error ~ k^4 h^2 / 12
        n = 512
        op = finite_difference_laplacian(np.ones(n), np.ones(n))
        values = eigenvalues_weighted(op).eigenvalues
        np.testing.assert_allclose(values[:5], [0, 1, 1, 4, 4], atol=5e-4)

    def test_midpoint_count_must_match(self):
        with pytest.raises(ValueError):
            finite_difference_laplacian(np.ones(8), np.ones(7))


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def _assert_bloch_read_bits(density):
    """A grid Laplacian read gives the same bits twice and leaves the
    density's samples as they were."""
    samples = density.g_values.copy()
    expected = laplacian_spectrum(density)
    report = laplacian_spectrum(density)
    assert np.array_equal(_bits(report.eigenvalues), _bits(expected.eigenvalues))
    assert report.distance.hex() == expected.distance.hex()
    assert np.array_equal(_bits(density.g_values), _bits(samples))


class TestRealViewScalingBitParity:
    """The real-view scalings and the in-place steps reproduce the bits of the
    complex-arithmetic references in ``conftest``."""

    @pytest.mark.parametrize("n_points", [64, 256])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_diagonal_conjugate(self, n_points, spin):
        rng = np.random.default_rng(n_points)
        d = differentiation_matrix(n_points, spin)
        noise = rng.normal(size=(n_points, n_points)) + 1j * rng.normal(size=(n_points, n_points))
        for matrix in (d, d @ d, noise):
            w = rng.uniform(0.2, 5.0, n_points)
            expected = complex_diagonal_conjugate(matrix, w)
            assert np.array_equal(_bits(diagonal_conjugate(matrix, w)), _bits(expected))

    @pytest.mark.parametrize("n_points", [64, 256])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_hermitian_spectrum(self, n_points, spin):
        rng = np.random.default_rng(n_points + 1)
        g = rng.uniform(0.2, 5.0, n_points)
        weights = (TWO_PI / n_points) * g
        dirac = 1j * complex_diagonal_conjugate(differentiation_matrix(n_points, spin), np.sqrt(g))
        noise = rng.normal(size=(n_points, n_points)) + 1j * rng.normal(size=(n_points, n_points))
        for matrix in (dirac, noise):
            op = WeightedOperator(matrix, weights, "random", n_points)
            values, ratio = op.hermitian_spectrum()
            expected_values, expected_ratio = complex_hermitian_spectrum(op)
            assert np.array_equal(_bits(values), _bits(expected_values))
            assert ratio.hex() == expected_ratio.hex()

    @pytest.mark.parametrize("n_points", [64, 256])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_in_place_scalings(self, n_points, spin, mixed_profile):
        grid = GridSpec(n_points, spin)
        density = _density(mixed_profile, grid)
        root = np.sqrt(density.g_values)
        spinor = assemble_basic_dirac_spinor(density, grid)
        expected = 1j * complex_diagonal_conjugate(differentiation_matrix(n_points, spin), root)
        assert np.array_equal(_bits(spinor.matrix), _bits(expected))
        trivial = differentiation_matrix(n_points, "trivial")
        expected = -complex_diagonal_conjugate(trivial, density.g_values)
        assert np.array_equal(_bits(codifferential(density, grid)), _bits(expected))

    @pytest.mark.parametrize("n_points", [64, 256])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_assembly_and_reads_are_the_references(self, n_points, spin, mixed_profile):
        """The scaling, the assembly on either structure, the symmetrization
        and the solve give the references' bits, and the grid Laplacian read
        the same bits twice."""
        grid = GridSpec(n_points, spin)
        density = _density(mixed_profile, grid)
        root = np.sqrt(density.g_values)
        trivial = differentiation_matrix(n_points, "trivial")
        scaled = diagonal_conjugate(differentiation_matrix(n_points, spin), root)
        expected = complex_diagonal_conjugate(differentiation_matrix(n_points, spin), root)
        assert np.array_equal(_bits(scaled), _bits(expected))
        spinor = assemble_basic_dirac_spinor(density, grid)
        assert np.array_equal(_bits(spinor.matrix), _bits(1j * expected))
        periodic = assemble_basic_dirac_spinor(density, GridSpec(n_points))
        assert np.array_equal(_bits(periodic.matrix),
                              _bits(1j * complex_diagonal_conjugate(trivial, root)))
        _assert_bloch_read_bits(density)
        expected_h, expected_asymmetry = complex_symmetrized(spinor)
        hermitian, asymmetry = spinor.symmetrized()
        assert np.array_equal(_bits(hermitian), _bits(expected_h))
        assert asymmetry.hex() == expected_asymmetry.hex()
        values, ratio = spinor.hermitian_spectrum()
        expected_values, expected_ratio = complex_hermitian_spectrum(spinor)
        assert np.array_equal(_bits(values), _bits(expected_values))
        assert ratio.hex() == expected_ratio.hex()

    @staticmethod
    def _allocating_battery(p1, p2, grid, window):
        """The pair battery's four checks, each on inputs built for it alone."""
        pair = pair_inputs(p1, p2, grid)
        invariance = invariance_check(*pair.spectra, window, pair.metadata)
        return [
            invariance,
            kappa_transform_residual(*pair.densities, pair.alpha, grid, pair.metadata),
            conjugation_residual(*pair.densities, pair.alpha, grid, pair.metadata),
            laplacian_dependence(*pair.laplacians(window), invariance.metadata["forms_residual"],
                                 window, pair.metadata),
        ]

    def test_battery_over_pairs_is_the_checks_alone(self, cosine_profile, mixed_profile,
                                                     product_profile, grid64):
        """A three-pair call, whose later pairs may hit the Laplacian memo,
        gives the reports of three one-pair calls and of the checks run
        alone."""
        pairs = [(cosine_profile, mixed_profile), (mixed_profile, product_profile),
                 (product_profile, cosine_profile)]
        reports = run_pair_checks(pairs, grid64, 8.0)
        assert reports == [report for pair in pairs
                           for report in run_pair_checks([pair], grid64, 8.0)]
        assert reports == [report for pair in pairs
                           for report in self._allocating_battery(*pair, grid64, 8.0)]

    def test_battery_across_grids(self, cosine_profile, mixed_profile):
        """Consecutive calls on grids 64, 128 and 64, whose cached lattices and
        derivative matrices differ, give the reports of the checks run alone
        on every grid."""
        for n_points in (64, 128, 64):
            grid = GridSpec(n_points)
            reports = run_pair_checks([(cosine_profile, mixed_profile)], grid, 8.0)
            assert reports == self._allocating_battery(cosine_profile, mixed_profile, grid, 8.0)

    @pytest.mark.parametrize("n_points", [64, 256])
    def test_blocked_reads(self, n_points):
        """The grid Laplacian read along a density's period below N gives the
        same bits twice, and the solve of its spinor matrix the bits of the
        reference."""
        grid = GridSpec(n_points)
        for terms in ((), (ProfileTerm(0, 2, 0.5), ProfileTerm(1, 1, 0.3))):
            density = _density(MetricProfile(2.0, terms), grid)
            assert density.period < n_points
            _assert_bloch_read_bits(density)
            spinor = assemble_basic_dirac_spinor(density, grid)
            expected = complex_hermitian_spectrum(spinor)
            values, ratio = spinor.hermitian_spectrum()
            assert np.array_equal(_bits(values), _bits(expected[0]))
            assert ratio.hex() == expected[1].hex()

    def test_pair_bundle_is_the_bundle_of_the_references(self, tmp_path, monkeypatch):
        args = ["verify", "--all", "--grid", "64", "--window", "8", "--pairs", "2"]
        code = run([*args, "--output-dir", str(tmp_path / "view")])
        monkeypatch.setattr(operators, "diagonal_conjugate", complex_diagonal_conjugate)
        monkeypatch.setattr(WeightedOperator, "symmetrized", complex_symmetrized)
        monkeypatch.setattr(WeightedOperator, "hermitian_spectrum", complex_hermitian_spectrum)
        assert run([*args, "--output-dir", str(tmp_path / "complex")]) == code
        bundle = "verify_bundle.json"
        view = (tmp_path / "view" / bundle).read_bytes()
        assert view == (tmp_path / "complex" / bundle).read_bytes()
