"""Weighted eigensolves, window handling, spectrum comparison."""

import dataclasses
import math
import re

import numpy as np
import pytest

from foliation_lab import spectral
from foliation_lab._spectral_diff import differentiation_matrix, wavenumbers
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.cli import _spectrum_text
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_forms,
    assemble_basic_dirac_spinor,
    assemble_basic_laplacian,
    assemble_lichnerowicz_sides,
    block_circulant_projection,
    diagonal_conjugate,
    quadrature_weights,
    twisted_differential,
)
from foliation_lab.spectral import (
    OperatorSymmetryError,
    SpectrumReport,
    dirac_spectra,
    eigenvalues_weighted,
    spectrum_compare,
)
from foliation_lab.verify import invariance_check, pair_metadata, random_profile_pair

from conftest import block_circulant_spectrum, delta_d_laplacian, dense_spectrum, pair_inputs


def _density(profile, grid):
    return LeafVolumeDensity.from_profile(profile, grid)


class TestEigenvaluesWeighted:
    def test_diagonal_matrix(self):
        op = WeightedOperator(np.diag([3.0, 1.0, 2.0]), np.ones(3), "diag", 8)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, [1.0, 2.0, 3.0])
        assert report.grid_size == 8
        assert report.operator_label == "diag"

    def test_flat_spinor_lattice(self, flat_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(flat_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, np.arange(-32, 32), atol=1e-10)

    def test_flat_laplacian_head(self, flat_profile, grid64):
        op = assemble_basic_laplacian(_density(flat_profile, grid64), grid64)
        head = eigenvalues_weighted(op).eigenvalues[:7]
        np.testing.assert_allclose(head, [0, 1, 1, 4, 4, 9, 9], atol=1e-10)

    def test_refuses_asymmetric_operator(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
        op = WeightedOperator(matrix, np.ones(2), "broken", 8)
        with pytest.raises(OperatorSymmetryError, match="broken"):
            eigenvalues_weighted(op)


class TestSymmetryGate:
    @pytest.mark.parametrize("asymmetry", [1.0, 1e-3, 1e-9])
    def test_gate_ratio_never_below_operator_norm_ratio(self, asymmetry):
        """||S - S^H||_F / max|lambda(H)| bounds the former ||S - S^H||_2 / ||S||_2."""
        rng = np.random.default_rng(4242)
        for n in (2, 7, 32):
            hermitian = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            hermitian = hermitian + hermitian.conj().T
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            op = WeightedOperator(hermitian + asymmetry * noise, rng.uniform(0.5, 2.0, n), "r", n)
            root = np.sqrt(op.weights)
            sym = (root[:, None] * op.matrix) / root[None, :]
            old_ratio = np.linalg.norm(sym - sym.conj().T, 2) / np.linalg.norm(sym, 2)
            assert op.symmetry_residual() >= old_ratio


class TestFormsDiracSpectrum:
    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("profile_name", ["flat_profile", "cosine_profile", "mixed_profile"])
    def test_matches_full_block_solve(self, request, profile_name, n_points):
        """The forms values +-mu are within the spinor read's radius of the
        exact +-spec(H), and the dense 2N solve within 2N eps ||H||_2 of it
        (``TestProjectedDiracRead``)."""
        grid = GridSpec(n_points)
        density = _density(request.getfixturevalue(profile_name), grid)
        oracle = eigenvalues_weighted(assemble_basic_dirac_forms(density, grid))
        spinor, report = dirac_spectra(assemble_basic_dirac_spinor(density, grid))
        assert report.operator_label == oracle.operator_label
        assert report.grid_size == oracle.grid_size
        assert report.distance == spinor.distance
        allowance = spinor.radius + 2 * n_points * EPS * np.max(np.abs(oracle.eigenvalues))
        assert np.max(np.abs(report.eigenvalues - oracle.eigenvalues)) <= allowance

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("profile_name", ["flat_profile", "cosine_profile", "mixed_profile"])
    def test_trivial_spinor_matrix_is_i_times_twisted_differential(
        self, request, profile_name, n_points
    ):
        grid = GridSpec(n_points)
        density = _density(request.getfixturevalue(profile_name), grid)
        spinor = assemble_basic_dirac_spinor(density, grid)
        assert np.array_equal(spinor.matrix, 1j * twisted_differential(density, grid))
        assert np.array_equal(spinor.weights, quadrature_weights(density))

    @pytest.mark.parametrize("profile_name", ["flat_profile", "cosine_profile", "mixed_profile"])
    def test_spinor_report_is_the_spinor_solve(self, request, profile_name, grid128):
        density = _density(request.getfixturevalue(profile_name), grid128)
        spinor = assemble_basic_dirac_spinor(density, grid128)
        oracle = eigenvalues_weighted(spinor)
        report = dirac_spectra(spinor)[0]
        assert report.operator_label == oracle.operator_label == "dirac_spinor[trivial,N=128]"
        assert report.grid_size == oracle.grid_size
        assert np.array_equal(report.eigenvalues, oracle.eigenvalues)

    def test_gate_ratio_equals_block_ratio(self, mixed_profile, grid64):
        rng = np.random.default_rng(5)
        density = _density(mixed_profile, grid64)
        broken = twisted_differential(density, grid64) + 1e-6 * rng.normal(size=(64, 64))
        weights = quadrature_weights(density)
        half = WeightedOperator(1j * broken, weights, "half", 64)
        zero = np.zeros_like(broken)
        block = WeightedOperator(
            np.block([[zero, -broken], [broken, zero]]), np.concatenate([weights] * 2), "full", 64
        )
        assert np.sqrt(2.0) * half.symmetry_residual() == pytest.approx(
            block.symmetry_residual(), rel=1e-12
        )

    @staticmethod
    def _shifted_spinor(density, grid, scale):
        """The spinor matrix shifted by i*eps*I, which is T + eps*I in the forms
        blocks; eps puts the spinor gate ratio at ``scale`` times the tolerance.
        Returns the operator and that ratio."""
        clean = assemble_basic_dirac_spinor(density, grid)
        shift = 1j * np.eye(grid.n_points)
        unit = WeightedOperator(clean.matrix + shift, clean.weights, clean.label, grid.n_points)
        eps = scale * spectral.SYMMETRIZATION_TOLERANCE / unit.hermitian_spectrum()[1]
        shifted = WeightedOperator(
            clean.matrix + eps * shift, clean.weights, clean.label, grid.n_points
        )
        return shifted, shifted.hermitian_spectrum()[1]

    def test_refuses_broken_twisted_differential(self, cosine_profile, grid64):
        """Above the tolerance the spinor gate, checked first, refuses the solve."""
        density = _density(cosine_profile, grid64)
        shifted, ratio = self._shifted_spinor(density, grid64, 100.0)
        assert ratio > spectral.SYMMETRIZATION_TOLERANCE
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[trivial"):
            dirac_spectra(shifted)

    def test_forms_gate_is_sqrt2_stricter(self, cosine_profile, grid64):
        """Between tol/sqrt(2) and tol the spinor passes and the forms gate refuses."""
        density = _density(cosine_profile, grid64)
        shifted, ratio = self._shifted_spinor(density, grid64, 0.85)
        tol = spectral.SYMMETRIZATION_TOLERANCE
        assert tol / math.sqrt(2.0) < ratio <= tol
        with pytest.raises(OperatorSymmetryError, match=r"dirac_forms\[N=64\]"):
            dirac_spectra(shifted)


EPS = np.finfo(np.float64).eps


def _lattice_operator(n_points):
    """Real and imaginary parts, in long double, of the exact iD, whose
    spectrum is the integer lattice: D_jk = (-1)^(j-k) cot((j-k) pi/N) / 2
    off the diagonal plus the +N/2 mode's (i/2)(-1)^(j-k)."""
    offset = np.subtract.outer(np.arange(n_points), np.arange(n_points))
    sign = np.where(offset % 2 == 0, 1.0, -1.0).astype(np.longdouble)
    angle = offset.astype(np.longdouble) * np.pi / n_points
    cot = np.zeros_like(angle)
    cot[offset != 0] = 1.0 / np.tan(angle[offset != 0])
    return -0.5 * sign, 0.5 * sign * cot


def _wavy_profiles():
    """A theta-dependent profile whose theta-average has t-terms n = 1 and 2,
    and one without symmetry of a single t-term."""
    return (
        MetricProfile(2.0, (ProfileTerm(0, 1, 0.4, 0.0, 0.3), ProfileTerm(0, 2, -0.3, 0.0, 1.1),
                            ProfileTerm(1, 1, 0.3, 0.2, 0.5))),
        MetricProfile(2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(1, 0, 0.4, 0.3))),
    )


class TestProjectedDiracRead:
    """Every spinor Dirac spectrum is read from the circulant projection of its
    H (``spectral`` derives the radius d + a of that read); the dense
    ``eigvalsh`` of H in ``conftest`` is the oracle.

    Allowance for the oracle: ``eigvalsh`` is backward stable, so its values
    are the exact eigenvalues of H + F with ||F||_2 <= p(N) eps ||H||_2, p a
    modestly growing function of N (LAPACK's bound for the Hermitian
    eigenproblem); take p(N) = N.  By Weyl's inequality each dense value is
    within N eps ||H||_2 of the exact one, and each projected value within
    the radius, so the two lie within radius + N eps ||H||_2 of each other,
    index by index.  The allowance is derived, not fitted.
    """

    @staticmethod
    def _dense_allowance(dense):
        return dense.size * EPS * float(np.max(np.abs(dense)))

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_projected_spectrum_matches_the_dense_solve(self, n_points, spin):
        grid = GridSpec(n_points, spin)
        for profile in _wavy_profiles():
            op = assemble_basic_dirac_spinor(_density(profile, grid), grid)
            assert op.period == 1
            report = eigenvalues_weighted(op)
            dense = dense_spectrum(op)
            deviation = np.max(np.abs(report.eigenvalues - dense))
            assert deviation <= report.radius + self._dense_allowance(dense)
            assert report.distance < 1e-9

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_dense_spectra_obey_the_invariance_bounds(self, n_points):
        """The dense spectra of two profiles deviate, index by index and in the
        window, by at most the invariance residual d_1 + d_2 + |mu_1 - mu_2|
        plus the two radii's allowances and the two dense allowances, and the
        dense windowed counts are the certified ones: the residual bounds the
        deviation of the exact spectra."""
        rng = np.random.default_rng(2718 + n_points)
        grid = GridSpec(n_points)
        window = min(10.0, grid.trust_window)
        edge = window + spectral.WINDOW_EDGE_SLACK
        for _ in range(3):
            pair = pair_inputs(*random_profile_pair(rng), grid)
            report = invariance_check(*pair.spectra, window, pair.metadata)
            dense = [dense_spectrum(op) for op in pair.dirac]
            allowance = sum(spinor.radius - spinor.distance + self._dense_allowance(values)
                            for (spinor, _), values in zip(pair.spectra, dense))
            spinor_dense = [SpectrumReport(values, n_points, "dense") for values in dense]
            forms_dense = [SpectrumReport(np.concatenate([-values, values]), n_points, "dense")
                           for values in dense]
            bound = report.residual + allowance
            for first, second in (spinor_dense, forms_dense):
                assert spectrum_compare(first, second, window) <= bound
            # index by index over the whole spectrum
            distance = sum(spinor.distance for spinor, _ in pair.spectra)
            projected = [spinor.eigenvalues for spinor, _ in pair.spectra]
            assert np.max(np.abs(dense[0] - dense[1])) <= (
                distance + np.max(np.abs(projected[0] - projected[1])) + allowance
            )
            squares = [np.sort(forms.in_window(window) ** 2) for forms in forms_dense]
            forms_bound = report.metadata["forms_residual"] + allowance
            assert np.max(np.abs(squares[0] - squares[1])) <= 2.0 * edge * forms_bound
            for (spinor, forms), values in zip(pair.spectra, dense):
                count = spinor.window_count(window)
                assert SpectrumReport(values, n_points, "dense").in_window(window).size == count
                assert forms.in_window(window).size == 2 * count

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    def test_round_off_of_the_derivative_matrix(self, n_points):
        """||iD - L||_F <= N eps N/2 for the computed iD and the exact L of
        ``_lattice_operator``: it measures about a tenth of that, 4.7e-14 to
        2.7e-12 from N = 64 to 512.  The lattice test below uses the bound."""
        real, imag = _lattice_operator(n_points)
        i_d = 1j * differentiation_matrix(n_points, "trivial")
        error = float(np.sqrt(np.sum((i_d.real - real) ** 2) + np.sum((i_d.imag - imag) ** 2)))
        assert error <= n_points * EPS * n_points / 2

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_nontrivial_spectra_lie_on_the_half_integer_lattice(self, n_points):
        """Two profiles on the antiperiodic structure: each projected value is
        within d + a of the lattice -wavenumbers(N) - 1/2, the counts are
        certified, and ``invariance_check`` passes.

        The exact operator L = iD - 1/2 is circulant, so P(L) = L and, P
        being an orthogonal projection, |mu_k - l_k| <= ||P(H) - L||_2 <=
        ||H - L||_F for the computed H.  That is the round-off of the
        assembled matrix: at most N eps N/2 from D
        (``test_round_off_of_the_derivative_matrix``) plus relative errors of
        about 10 eps per entry from the shift, the two density scalings, the
        two weight scalings and the symmetrization, so at most
        N^2 eps / 2 + 10 eps ||H||_F, which a >= 2 gamma_N ||H||_F exceeds
        for N >= 16, as ||H||_F >= N/2.  With the allowance a of the read
        itself, each computed value is within d + 2a of its lattice point."""
        grid = GridSpec(n_points, "nontrivial")
        window = min(10.0, grid.trust_window)
        lattice = np.sort(-wavenumbers(n_points) - 0.5)
        p1, p2 = _wavy_profiles()
        pair = pair_inputs(p1, p2, grid)
        for spinor, _ in pair.spectra:
            assert spinor.operator_label == f"dirac_spinor[nontrivial,N={n_points}]"
            allowance = spinor.radius - spinor.distance
            assert np.max(np.abs(spinor.eigenvalues - lattice)) <= spinor.distance + 2 * allowance
            assert spinor.window_count(window) == np.count_nonzero(
                np.abs(lattice) <= window + spectral.WINDOW_EDGE_SLACK
            )
        report = invariance_check(*pair.spectra, window, pair_metadata(p1, p2, grid))
        assert report.passed, report.metadata
        assert report.metadata["spin_structure"] == "nontrivial"
        assert None not in report.metadata["spinor_counts"]

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    @pytest.mark.parametrize(
        "profile_name",
        ["flat_profile", "cosine_profile", "mixed_profile", "product_profile", "skew_profile"],
    )
    def test_gate_ratio_never_below_the_dense_ratio(self, request, profile_name, spin,
                                                   n_points):
        grid = GridSpec(n_points, spin)
        op = assemble_basic_dirac_spinor(_density(request.getfixturevalue(profile_name), grid), grid)
        dense = WeightedOperator(op.matrix, op.weights, op.label, op.n_points)
        assert op.hermitian_spectrum()[1] >= dense.hermitian_spectrum()[1]

    def test_window_count_refuses_an_edge_within_the_radius(self, cosine_profile, grid128):
        report = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(cosine_profile, grid128), grid128)
        )
        assert report.window_count(10.0) == 21
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK) is None
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK + 2.0 * report.radius) == 21

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_period_one_dirac_reports_keep_their_radius(self, cosine_profile, spin):
        """Every P = 1 Dirac report, spinor or forms, has the radius of the
        module docstring's formula, bit for bit."""
        grid = GridSpec(256, spin)
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid), grid)

        def gamma(k):
            return k * EPS / (1.0 - k * EPS)

        for report in (eigenvalues_weighted(op), *dirac_spectra(op)):
            n = report.eigenvalues.size
            norm = float(np.linalg.norm(report.eigenvalues)) + report.distance
            allowance = (2.0 * gamma(n) + gamma(7.0 * math.log2(n)) + 2.0 * EPS) * norm
            assert report.radius == (1.0 + gamma(n * n)) * report.distance + allowance
            # 21 integers or 20 half-integers in [-10, 10], twice for forms
            assert report.window_count(10.0) == (n // 256) * {"trivial": 21, "nontrivial": 20}[spin]

    def test_radius_is_refused_where_it_is_not_derived(self, cosine_profile):
        """Only a P = 1 Hermitian read has a derived radius: a Gram read (at
        P = 1 for a constant density, P = N otherwise), a Dirac read at P > 1
        and a dense report refuse ``radius`` and ``window_count``, naming the
        operator."""
        grid = GridSpec(256)
        flat2, wavy = (_density(profile, grid) for profile in (MetricProfile(2.0), cosine_profile))
        spinor = assemble_basic_dirac_spinor(wavy, grid)
        reports = [eigenvalues_weighted(assemble_basic_laplacian(flat2, grid, degree))
                   for degree in ("function", "one_form")]
        reports.append(eigenvalues_weighted(assemble_basic_laplacian(wavy, grid)))
        reports += [eigenvalues_weighted(dataclasses.replace(spinor, period=period))
                    for period in (2, 256)]
        reports += dirac_spectra(dataclasses.replace(spinor, period=256))
        reports.append(SpectrumReport(np.arange(-3.0, 4.0), 256, "dense"))
        assert flat2.period == 1
        for report in reports:
            label = re.escape(repr(report.operator_label))
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.radius
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.window_count(10.0)


def _periodic_profile(terms):
    """2 + the given (n, amplitude, phase_t) cosines in t, plus theta-dependent
    terms, which leave the theta-average and so the period unchanged."""
    return MetricProfile(
        2.0,
        tuple(ProfileTerm(0, n, amp, 0.0, phase) for n, amp, phase in terms)
        + (ProfileTerm(1, 3, 0.2, 0.4, 1.1), ProfileTerm(2, 1, -0.15, 0.0, 0.3)),
    )


# t-frequencies and the period they give on N = 64 and 128 points.
PERIODIC_TERMS = {
    "flat": ([], lambda n: 1),
    "half": ([(2, 0.5, 0.3), (-2, 0.2, 1.0)], lambda n: n // 2),
    "quarter": ([(4, 0.4, 0.0), (8, 0.3, 2.0)], lambda n: n // 4),
    "eighth": ([(8, 0.6, 0.7)], lambda n: n // 8),
}


def _laplacian_function(density, grid):
    return assemble_basic_laplacian(density, grid, "function")


def _laplacian_one_form(density, grid):
    return assemble_basic_laplacian(density, grid, "one_form")


def _delta_d_along(density, grid, degree):
    """The delta d or d delta product claiming the density's period: the
    Hermitian read along a period 1 < P < N, which no assembled operator
    takes now that the Laplacians are Gram reads."""
    return dataclasses.replace(delta_d_laplacian(density, grid, degree), period=density.period)


class TestBlockCirculantSolve:
    """The solve along the density's translation symmetry against the dense
    solve of the same H.

    Allowance.  Let E = ||H - P(H)||_F.  By Weyl's inequality the k-th exact
    eigenvalues of H and P(H) differ by at most E.  The computed values carry
    these further errors, with m = N/p blocks of size p, eps the machine
    epsilon and gamma_m = m eps / (1 - m eps):

    (a) the dense ``eigvalsh(H)`` is backward stable: its values are exact for
        H + F with ||F||_2 <= p(N) eps ||H||_2, p(N) a modestly growing
        function (LAPACK's bound for the Hermitian eigenproblem); take
        p(N) = N, as ``TestProjectedDiracRead`` does: N eps ||H||_2;
    (b) each block mean B_r is a recursive sum of m entries of H and a
        division by m, so each entry errs by at most (gamma_m / m) sum_a |h_a|
        <= (gamma_m / sqrt(m)) (sum_a |h_a|^2)^(1/2); over all entries
        ||dB||_F <= gamma_m ||H||_F / sqrt(m), and the exact DFT of dB has
        Frobenius norm sqrt(m) ||dB||_F <= gamma_m ||H||_F;
    (c) a length-m FFT errs normwise by at most log2(m) eta / (1 - log2(m) eta)
        relative, eta = mu + gamma_4 (sqrt(2) + mu) < 7 eps for twiddle
        factors accurate to mu <= eps (Higham, *Accuracy and Stability of
        Numerical Algorithms*, Theorem 24.2); the transforms' total is
        sum_k ||C_k||_F^2 = ||P(H)||_F^2 <= ||H||_F^2;
    (d) each p x p block solve is backward stable as in (a), with
        ||C_k||_2 <= ||P(H)||_2 <= ||H||_2: p eps ||H||_2;
    (e) the computed E is the norm of H minus the computed means, within
        sqrt(m) ||dB||_F <= gamma_m ||H||_F of the exact E.

    The perturbations (b)-(d) act on diag(C_k), which is unitarily similar to
    P(H), and the 2-norm of a block-diagonal perturbation is at most its
    Frobenius norm over all blocks.  So the sorted blocked and dense values
    differ index by index by at most E (computed) plus the allowance

        (N + p) eps ||H||_2 + (2 gamma_m + 7 log2(m) eps / (1 - 7 log2(m) eps)) ||H||_F.

    It is derived, not fitted.
    """

    @staticmethod
    def _allowance(hermitian, period, norm_2):
        n = hermitian.shape[0]
        m = n // period
        eps = np.finfo(np.float64).eps
        gamma = m * eps / (1.0 - m * eps)
        fft = 7.0 * math.log2(m) * eps
        return (n + period) * eps * norm_2 + (
            2.0 * gamma + fft / (1.0 - fft)
        ) * np.linalg.norm(hermitian)

    @pytest.mark.parametrize("n_points", [64, 128])
    @pytest.mark.parametrize("name", list(PERIODIC_TERMS))
    @pytest.mark.parametrize("degree", [pytest.param("function", id="_laplacian_function"),
                                        pytest.param("one_form", id="_laplacian_one_form")])
    def test_reduced_spectrum_matches_dense(self, n_points, name, degree):
        terms, period = PERIODIC_TERMS[name]
        grid = GridSpec(n_points)
        density = _density(_periodic_profile(terms), grid)
        op = _delta_d_along(density, grid, degree)
        assert density.period == op.period == period(n_points)
        hermitian, asymmetry = op.symmetrized()
        dense = np.linalg.eigvalsh(hermitian)
        blocked, distance = block_circulant_spectrum(hermitian, op.period)
        norm_2 = float(np.max(np.abs(dense)))
        bound = distance + self._allowance(hermitian, op.period, norm_2)
        assert np.max(np.abs(blocked - dense)) <= bound
        values, ratio, solved_distance = op.hermitian_spectrum()
        assert np.array_equal(values, blocked) and solved_distance == distance
        assert ratio == (asymmetry + 2.0 * distance) / float(np.max(np.abs(blocked)))
        # The stricter gate: never below the dense solve's ratio.
        assert ratio >= asymmetry / norm_2

    @pytest.mark.parametrize("n_points", [64, 128])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_full_period_is_bitwise_the_dense_solve(self, n_points, spin, mixed_profile):
        """A density without symmetry, and every operator that claims none,
        keep P = N: the values and the ratio are the dense solve's, and a Gram
        read's values are those of the dense Gram product."""
        grid = GridSpec(n_points, spin)
        density = _density(mixed_profile, grid)
        for assemble in (_laplacian_function, _laplacian_one_form):
            laplacian = assemble(density, grid)
            assert laplacian.period == n_points
            gram = np.linalg.eigvalsh(laplacian.matrix @ laplacian.matrix.conj().T)
            values, _, distance = laplacian.hermitian_spectrum()
            assert np.array_equal(values.view(np.uint64), gram.view(np.uint64))
            assert distance == 0.0
        ops = [*assemble_lichnerowicz_sides(density, grid)]
        if spin == "trivial":
            ops += [delta_d_laplacian(density, grid, degree) for degree in ("function",
                                                                            "one_form")]
            ops.append(assemble_basic_dirac_forms(density, grid))
        for op in ops:
            assert op.period == op.weights.size
            hermitian, asymmetry = op.symmetrized()
            expected = np.linalg.eigvalsh(hermitian)
            scale = float(np.max(np.abs(expected)))
            values, ratio, distance = op.hermitian_spectrum()
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
            assert ratio.hex() == (asymmetry / scale).hex() and distance == 0.0

    @pytest.mark.parametrize("period", [1, 2, 16, 32])
    def test_gather_matches_the_average_over_shifts(self, period):
        """The strided gather against P(H) built as the mean over the m shifts
        of H by multiples of the period (np.roll): the distance and the
        eigenvalues agree within the allowance, for a random Hermitian H."""
        rng = np.random.default_rng(period)
        n, m = 64, 64 // period
        hermitian = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hermitian += hermitian.conj().T
        projection = sum(np.roll(hermitian, (s * period, s * period), axis=(0, 1))
                         for s in range(m)) / m
        values, distance = block_circulant_spectrum(hermitian, period)
        expected = np.linalg.eigvalsh(projection)
        allowance = self._allowance(hermitian, period, float(np.max(np.abs(expected))))
        assert abs(distance - np.linalg.norm(hermitian - projection)) <= allowance
        assert np.max(np.abs(values - expected)) <= allowance

    @pytest.mark.parametrize("assemble", [_laplacian_function, _laplacian_one_form])
    def test_false_period_is_refused(self, cosine_profile, grid64, assemble):
        """g = 2 + cos t has no translation symmetry: a density that claims
        period N/2 yields Laplacians whose projection distance fails the gate."""
        true = _density(cosine_profile, grid64)
        false = LeafVolumeDensity(true.g_values, true.g_dot_values, true.t_bandwidth, period=32)
        op = assemble(false, grid64)
        assert op.period == 32
        with pytest.raises(OperatorSymmetryError, match="not symmetric"):
            eigenvalues_weighted(op)
        eigenvalues_weighted(assemble(true, grid64))  # the honest claim passes


# t-terms of the theta-average giving period 1, N/2 and N on any grid.
GRAM_TERMS = {
    "flat": (),
    "half": (ProfileTerm(0, 2, 0.5, 0.0, 0.3), ProfileTerm(0, -2, 0.2, 0.0, 1.0)),
    "none": (ProfileTerm(0, 1, 0.6, 0.0, 0.3), ProfileTerm(0, 2, -0.3, 0.0, 1.1)),
}


class TestGramRead:
    """Each Laplacian is read from the blocks C_k of the projection of its
    factor M = iT (``spectral`` derives the read); the oracle is the product
    delta @ D or D @ delta and its dense ``eigvalsh``
    (``conftest.delta_d_laplacian``).

    Allowance.  Both reads approximate the eigenvalues sigma_k(T)^2 of T T^H
    and T^H T, T = -iM the computed factor.  With eps the machine epsilon,
    gamma_n = n eps / (1 - n eps), m = N/p blocks of size p and
    phi_m = gamma_{7 log2(m)}:

    (a) the Gram read.  The computed C_k are the blocks of P(M) plus E with
        ||E||_F <= (gamma_m + phi_m) ||M||_F, and the computed distance d is
        within gamma_m ||M||_F of the exact one (``TestBlockCirculantSolve``
        (b), (c), (e)); so by Weyl each singular value of the computed
        blocks is within s = d + (2 gamma_m + phi_m) ||M||_F of sigma_k(T).
        Each product C_k C_k^H errs entrywise by at most gamma_{p+2} |C_k|
        |C_k|^T (complex inner products of length p, Higham section 3.6),
        in 2-norm by at most G, the largest Frobenius norm of those
        matrices over k, and each block solve by p eps ||C_k C_k^H||_2, as
        in ``TestBlockCirculantSolve`` (d): p eps (mu + G) for the largest
        computed value mu.  With sigma = (mu + G + p eps (mu + G))^{1/2}
        bounding the singular values of the computed blocks, the read's
        values are within s (2 sigma + s) + G + p eps (mu + G) of the
        sigma_k(T)^2.
    (b) the oracle.  Its H is the symmetrized product; by Weyl its exact
        eigenvalues are within ||H - T T^H||_2 of the sigma_k(T)^2 (T^H T on
        one-forms), and that is at most the computed ||H - fl(T T^H)||_F,
        times 1 + gamma_{2 N^2 + 2} for the subtraction and the norm, plus
        gamma_{N+2} || |T| |T|^T ||_F for the product.  The dense
        ``eigvalsh`` adds N eps ||H||_2 (``TestProjectedDiracRead``).

    The sum of (a) and (b) is derived, not fitted; it measures about 110 to
    1100 times the deviation.
    """

    @staticmethod
    def _gram_allowance(op, report):
        n, p = op.n_points, op.period
        m = n // p

        def gamma(k):
            return k * EPS / (1.0 - k * EPS)

        spread = report.distance + (2.0 * gamma(m) + gamma(7.0 * math.log2(m))) * float(
            np.linalg.norm(op.matrix))
        blocks = np.abs(block_circulant_projection(op.matrix, p)[0])
        product = gamma(p + 2) * max(float(np.linalg.norm(b @ b.T)) for b in blocks)
        solve = p * EPS * (report.eigenvalues[-1] + product)
        sigma = math.sqrt(report.eigenvalues[-1] + product + solve)
        return spread * (2.0 * sigma + spread) + product + solve

    @staticmethod
    def _oracle_allowance(oracle, factor, degree):
        n = oracle.n_points

        def gamma(k):
            return k * EPS / (1.0 - k * EPS)

        hermitian = oracle.symmetrized()[0]
        absolute = np.abs(factor)
        if degree == "function":
            gram, bound = factor @ factor.conj().T, absolute @ absolute.T
        else:
            gram, bound = factor.conj().T @ factor, absolute.T @ absolute
        distance = float(np.linalg.norm(hermitian - gram)) * (1.0 + gamma(2 * n * n + 2))
        distance += gamma(n + 2) * float(np.linalg.norm(bound))
        return distance + n * EPS * float(np.max(np.abs(np.linalg.eigvalsh(hermitian))))

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("name, period", [("flat", lambda n: 1), ("half", lambda n: n // 2),
                                              ("none", lambda n: n)])
    @pytest.mark.parametrize("degree", ["function", "one_form"])
    def test_gram_read_matches_the_delta_d_oracle(self, n_points, name, period, degree):
        grid = GridSpec(n_points)
        profile = MetricProfile(2.0, GRAM_TERMS[name] + (ProfileTerm(1, 1, 0.3, 0.2, 0.5),))
        density = _density(profile, grid)
        op = assemble_basic_laplacian(density, grid, degree)
        assert op.period == density.period == period(n_points)
        report = eigenvalues_weighted(op)
        oracle = delta_d_laplacian(density, grid, degree)
        deviation = np.max(np.abs(report.eigenvalues - dense_spectrum(oracle)))
        allowance = self._gram_allowance(op, report)
        allowance += self._oracle_allowance(oracle, -1j * op.matrix, degree)
        assert deviation <= allowance
        # the gate: the larger of the factor's period-1 ratio and the shift bound
        _, ratio, distance = op.hermitian_spectrum()
        dirac_ratio = WeightedOperator.hermitian_spectrum(
            dataclasses.replace(op, period=1))[1]
        largest = report.eigenvalues[-1]
        shift = distance * (2.0 * math.sqrt(largest) + distance) / largest
        assert ratio == max(dirac_ratio, shift)

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_density_scale_cancels(self, n_points):
        """g and 2g have the factor T = g^{-1/2} D g^{1/2} in exact arithmetic, so
        their Laplacian spectra agree to round-off: by Weyl within
        e (2 sigma + e), e = ||T_1 - T_2||_F of the computed factors, plus
        the two reads' allowances (a)."""
        grid = GridSpec(n_points)
        terms = GRAM_TERMS["none"]
        scaled = tuple(dataclasses.replace(term, amplitude=2.0 * term.amplitude)
                       for term in terms)
        ops = [assemble_basic_laplacian(_density(profile, grid), grid)
               for profile in (MetricProfile(2.0, terms), MetricProfile(4.0, scaled))]
        reports = [eigenvalues_weighted(op) for op in ops]
        spread = float(np.linalg.norm(ops[0].matrix - ops[1].matrix))
        sigma = math.sqrt(max(report.eigenvalues[-1] for report in reports))
        allowance = spread * (2.0 * sigma + spread) + sum(
            self._gram_allowance(op, report) for op, report in zip(ops, reports))
        deviation = np.max(np.abs(reports[0].eigenvalues - reports[1].eigenvalues))
        assert deviation <= allowance

    @pytest.mark.parametrize("degree", ["function", "one_form"])
    @pytest.mark.parametrize("name", ["half", "none"])
    def test_mutant_factor_is_refused(self, grid64, degree, name):
        """The factor g^{1/2} D g^{-1/2} in place of g^{-1/2} D g^{1/2}: its
        weighted symmetrization i g D g^{-1} is not Hermitian, so the
        factor's period-1 gate refuses the read (for a constant density the
        two factors are one)."""
        density = _density(MetricProfile(2.0, GRAM_TERMS[name]), grid64)
        honest = assemble_basic_laplacian(density, grid64, degree)
        d = differentiation_matrix(64, "trivial")
        factor = 1j * diagonal_conjugate(d, 1.0 / np.sqrt(density.g_values))
        mutant = dataclasses.replace(honest, matrix=factor)
        with pytest.raises(OperatorSymmetryError, match=r"laplacian_.*not symmetric"):
            eigenvalues_weighted(mutant)
        eigenvalues_weighted(honest)


class TestSpectrumCompare:
    def test_identical_reports(self, cosine_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        assert spectrum_compare(report, report, 8.0) == 0.0

    def test_metric_invariance_within_window(self, cosine_profile, grid128):
        flat = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(MetricProfile(1.0), grid128), grid128)
        )
        wavy = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(cosine_profile, grid128), grid128)
        )
        assert spectrum_compare(flat, wavy, 10.0) < 1e-8

    def test_laplacian_spectra_genuinely_differ(self, grid128):
        flat = eigenvalues_weighted(
            assemble_basic_laplacian(_density(MetricProfile(1.0), grid128), grid128)
        )
        wavy_profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
        wavy = eigenvalues_weighted(
            assemble_basic_laplacian(_density(wavy_profile, grid128), grid128)
        )
        shared = min(flat.in_window(10.0).size, wavy.in_window(10.0).size)
        gap = np.max(np.abs(flat.in_window(10.0)[:shared] - wavy.in_window(10.0)[:shared]))
        assert gap > 1e-3

    def test_multiplicity_mismatch_sentinel(self):
        a = SpectrumReport(np.array([0.0, 1.0, 2.0]), 64, "a")
        b = SpectrumReport(np.array([0.0, 1.0]), 64, "b")
        assert math.isinf(spectrum_compare(a, b, 8.0))

    def test_empty_window(self):
        a = SpectrumReport(np.array([50.0]), 64, "a")
        b = SpectrumReport(np.array([60.0]), 64, "b")
        assert spectrum_compare(a, b, 8.0) == 0.0


class TestSimilarityInvariance:
    def test_conjugation_preserves_spectrum(self, cosine_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        rng = np.random.default_rng(11)
        alpha = 1.5 + 0.4 * np.cos(grid64.t_nodes + rng.uniform(0, 2 * np.pi))
        root = np.sqrt(alpha)
        conjugated = (op.matrix * root[None, :]) / root[:, None]
        reference = np.sort(eigenvalues_weighted(op).eigenvalues)
        raw = np.sort(np.linalg.eigvals(conjugated).real)
        assert np.max(np.abs(raw - reference)) < 1e-9

    def test_refinement_stability(self, cosine_profile):
        coarse_grid = GridSpec(64)
        fine_grid = GridSpec(128)
        coarse = eigenvalues_weighted(
            assemble_basic_laplacian(_density(cosine_profile, coarse_grid), coarse_grid)
        )
        fine = eigenvalues_weighted(
            assemble_basic_laplacian(_density(cosine_profile, fine_grid), fine_grid)
        )
        window = 8.0
        shared = min(coarse.in_window(window).size, fine.in_window(window).size)
        drift = np.max(np.abs(coarse.in_window(window)[:shared] - fine.in_window(window)[:shared]))
        assert drift < 1e-8


class TestSerialization:
    def test_csv_one_eigenvalue_per_row(self, cosine_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        lines = _spectrum_text(report, "csv", 8.0).strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "eigenvalue"
        values = np.array([float(line) for line in lines[2:]])
        np.testing.assert_allclose(values, np.arange(-8, 9), atol=1e-8)

    def test_json_metadata(self, cosine_profile, grid64):
        import json

        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        payload = json.loads(_spectrum_text(report, "json", 8.0))
        assert payload["grid_size"] == 64
        assert payload["window"] == 8.0
        assert payload["n_total"] == 64
        assert len(payload["eigenvalues"]) == 17
