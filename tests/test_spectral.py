"""Weighted eigensolves, window handling, spectrum comparison."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from foliation_lab import cli, operators, spectral
from foliation_lab._spectral_diff import differentiation_matrix, wavenumbers
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.cli import _spectrum, _spectrum_text
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_forms,
    assemble_basic_dirac_spinor,
    quadrature_weights,
    spinor_label,
    twisted_differential,
)
from foliation_lab.spectral import (
    OperatorSymmetryError,
    SpectrumReport,
    _require_symmetric,
    circulant_spectrum,
    dirac_spectra,
    eigenvalues_weighted,
    laplacian_spectrum,
    spectrum_compare,
)
from foliation_lab.verify import (
    LAPLACIAN_FORMS_THRESHOLD,
    invariance_check,
    laplacian_dependence,
    pair_metadata,
    random_profile,
)

from conftest import (
    bloch_allowance,
    delta_d_laplacian,
    battery_laplacian,
    dense_dirac_read,
    dense_spectrum,
    laplacian_read,
    pair_inputs,
    patch_factors,
    profile_corpus,
    save_profile,
)


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
        head = laplacian_read(_density(flat_profile, grid64), grid64).eigenvalues[:7]
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
        exact +-spec(H), the dense 2N solve within 2N eps ||H||_2 of the
        assembled matrix's, and that within the distance of
        ``conftest.dense_dirac_read`` of the read's."""
        grid = GridSpec(n_points)
        density = _density(request.getfixturevalue(profile_name), grid)
        oracle = eigenvalues_weighted(assemble_basic_dirac_forms(density, grid))
        spinor, report = dirac_spectra(density, grid)
        assert report.operator_label == oracle.operator_label
        assert report.grid_size == oracle.grid_size
        assert report.distance == spinor.distance
        _, matrix_allowance = dense_dirac_read(density, grid)
        allowance = spinor.radius + matrix_allowance + n_points * EPS * np.max(
            np.abs(oracle.eigenvalues))
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

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    @pytest.mark.parametrize("profile_name", ["flat_profile", "cosine_profile", "mixed_profile"])
    def test_spinor_report_is_the_cached_lattice(self, request, profile_name, spin):
        """Whatever the density, the spinor values are the cached mu of the
        (grid, spin structure), bit for bit, and the forms values +-mu; only
        the distance depends on the density."""
        grid = GridSpec(128, spin)
        density = _density(request.getfixturevalue(profile_name), grid)
        spinor, forms = dirac_spectra(density, grid)
        lattice = circulant_spectrum(128, spin)[0]
        assert spinor.operator_label == f"dirac_spinor[{spin},N=128]"
        assert forms.operator_label == "dirac_forms[N=128]" and spinor.grid_size == 128
        assert np.array_equal(spinor.eigenvalues, lattice)
        assert np.array_equal(forms.eigenvalues, np.sort(np.concatenate([-lattice, lattice])))
        assert not lattice.flags.writeable
        assert circulant_spectrum(128, spin)[0] is lattice

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
    def _gate_ratios(density, grid, scale, monkeypatch):
        """The gate ratios of ``dirac_spectra`` when the factor w is scaled by
        1 + eps cos t, eps putting the spinor ratio near ``scale`` times the
        tolerance (the ratio is first order in eps), and the perturbed
        factors; the ratios are recorded, not checked."""
        bump = np.cos(grid.t_nodes)
        honest = operators.dirac_factors

        def ratios(eps):
            patch_factors(monkeypatch, lambda d: (honest(d)[0] * (1.0 + eps * bump),
                                                  quadrature_weights(d)))
            recorded = []
            monkeypatch.setattr(spectral, "_require_symmetric", recorded.append)
            dirac_spectra(density, grid)
            monkeypatch.setattr(spectral, "_require_symmetric", _require_symmetric)
            return recorded[0][spinor_label(grid)]

        eps = scale * spectral.SYMMETRIZATION_TOLERANCE * 1e-6 / ratios(1e-6)
        return eps, ratios(eps)

    def test_refuses_broken_twisted_differential(self, cosine_profile, grid64, monkeypatch):
        """Above the tolerance the spinor gate, checked first, refuses the read."""
        density = _density(cosine_profile, grid64)
        _, ratio = self._gate_ratios(density, grid64, 100.0, monkeypatch)
        assert ratio > spectral.SYMMETRIZATION_TOLERANCE
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[trivial"):
            dirac_spectra(density, grid64)

    def test_forms_gate_is_sqrt2_stricter(self, cosine_profile, grid64, monkeypatch):
        """Between tol/sqrt(2) and tol the spinor passes and the forms gate refuses."""
        density = _density(cosine_profile, grid64)
        _, ratio = self._gate_ratios(density, grid64, 0.85, monkeypatch)
        tol = spectral.SYMMETRIZATION_TOLERANCE
        assert tol / math.sqrt(2.0) < ratio <= tol
        with pytest.raises(OperatorSymmetryError, match=r"dirac_forms\[N=64\]") as refusal:
            dirac_spectra(density, grid64)
        assert "dirac_spinor" not in str(refusal.value)


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


class TestDiracRead:
    """Every spinor Dirac spectrum is read from the operator's O(N) data
    (``spectral`` derives the radius d + a of that read); the dense
    ``eigvalsh`` of the assembled matrix's H, ``conftest.dense_dirac_read``,
    is the oracle, with its own derived allowance."""

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_read_matches_the_dense_solve(self, n_points, spin):
        """Measured on both spin structures: the values agree with the dense
        ones to 1.0e-13 at N = 64, 5.8e-13 at N = 256 and 2.4e-12 at
        N = 512, from 83 to 2900 times within the allowance."""
        grid = GridSpec(n_points, spin)
        for profile in _wavy_profiles():
            density = _density(profile, grid)
            report = dirac_spectra(density, grid)[0]
            dense, allowance = dense_dirac_read(density, grid)
            deviation = np.max(np.abs(report.eigenvalues - dense))
            assert deviation <= report.radius + allowance
            assert report.distance < 1e-20

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
            pair = pair_inputs(random_profile(rng), random_profile(rng), grid)
            report = invariance_check(*pair.spectra, window, pair.metadata)
            reads = [dense_dirac_read(density, grid) for density in pair.densities]
            dense = [values for values, _ in reads]
            allowance = sum(spinor.radius - spinor.distance + dense_allowance
                            for (spinor, _), (_, dense_allowance) in zip(pair.spectra, reads))
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
        2.7e-12 from N = 64 to 512.  ``conftest.dense_dirac_read`` uses the
        bound."""
        real, imag = _lattice_operator(n_points)
        i_d = 1j * differentiation_matrix(n_points, "trivial")
        error = float(np.sqrt(np.sum((i_d.real - real) ** 2) + np.sum((i_d.imag - imag) ** 2)))
        assert error <= n_points * EPS * n_points / 2

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_nontrivial_spectra_lie_on_the_half_integer_lattice(self, n_points):
        """Two profiles on the antiperiodic structure: each read value is
        within d + 2a of the lattice -wavenumbers(N) - 1/2, the counts are
        certified, and ``invariance_check`` passes.

        The exact operator L = iD - 1/2 is circulant, and the read's A = iC
        is within phi_N ||A||_F <= a of it in Frobenius norm, as C's column
        is one inverse FFT of the exact symbol and the skew-Hermitian
        symmetrization does not increase that error; so by Weyl each
        eigenvalue of A is within a of its lattice point, and each computed
        value within a further d + a of it (``spectral``)."""
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
                                                   n_points, monkeypatch):
        """The O(N) read's gate ratio, from bounds, is never below the ratio
        of the dense solve of the assembled matrix, which measures its
        round-off: the gate only gets stricter."""
        grid = GridSpec(n_points, spin)
        density = _density(request.getfixturevalue(profile_name), grid)
        dense = assemble_basic_dirac_spinor(density, grid).hermitian_spectrum()[1]
        gates = []
        monkeypatch.setattr(spectral, "_require_symmetric", gates.append)
        dirac_spectra(density, grid)
        assert gates[0][spinor_label(grid)] >= dense

    def test_window_count_refuses_an_edge_within_the_radius(self, cosine_profile, grid128):
        report = dirac_spectra(_density(cosine_profile, grid128), grid128)[0]
        assert report.window_count(10.0) == 21
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK) is None
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK + 2.0 * report.radius) == 21

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_dirac_reports_keep_their_radius(self, cosine_profile, spin):
        """Every Dirac report, spinor or forms, has the radius of the module
        docstring's formula, bit for bit."""
        grid = GridSpec(256, spin)
        density = _density(cosine_profile, grid)

        def gamma(k):
            return k * EPS / (1.0 - k * EPS)

        for report in dirac_spectra(density, grid):
            n = report.eigenvalues.size
            norm = float(np.linalg.norm(report.eigenvalues)) + report.distance
            allowance = (2.0 * gamma(n) + gamma(7.0 * math.log2(n)) + 2.0 * EPS) * norm
            assert report.radius == (1.0 + gamma(n * n)) * report.distance + allowance
            # 21 integers or 20 half-integers in [-10, 10], twice for forms
            assert report.window_count(10.0) == (n // 256) * {"trivial": 21, "nontrivial": 20}[spin]

    def test_radius_is_refused_where_it_is_not_derived(self, cosine_profile):
        """Only a Dirac read has a derived radius: a grid Laplacian read (at
        P = 1 for a constant density, P = N otherwise), a matrix read and a
        dense report refuse ``radius`` and ``window_count``, naming the
        operator."""
        grid = GridSpec(256)
        flat2, wavy = (_density(profile, grid) for profile in (MetricProfile(2.0), cosine_profile))
        spinor = assemble_basic_dirac_spinor(wavy, grid)
        reports = [laplacian_read(flat2, grid, degree) for degree in ("function", "one_form")]
        reports.append(laplacian_read(wavy, grid))
        reports.append(eigenvalues_weighted(spinor))
        reports.append(SpectrumReport(np.arange(-3.0, 4.0), 256, "dense"))
        assert flat2.period == 1
        for report in reports:
            label = re.escape(repr(report.operator_label))
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.radius
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.window_count(10.0)

    def test_refuses_a_density_of_another_grid(self, cosine_profile):
        with pytest.raises(ValueError, match="density and grid sizes differ"):
            dirac_spectra(_density(cosine_profile, GridSpec(64)), GridSpec(128))


# t-terms of the theta-average giving period 1, N/2, N/4, N/8 and N on any grid.
GRAM_TERMS = {
    "flat": (),
    "half": (ProfileTerm(0, 2, 0.5, 0.0, 0.3), ProfileTerm(0, -2, 0.2, 0.0, 1.0)),
    "quarter": (ProfileTerm(0, 4, 0.4), ProfileTerm(0, 8, 0.3, 0.0, 2.0)),
    "eighth": (ProfileTerm(0, 8, 0.6, 0.0, 0.7),),
    "none": (ProfileTerm(0, 1, 0.6, 0.0, 0.3), ProfileTerm(0, 2, -0.3, 0.0, 1.1)),
}
GRAM_PERIODS = {"flat": lambda n: 1, "half": lambda n: n // 2, "quarter": lambda n: n // 4,
                "eighth": lambda n: n // 8, "none": lambda n: n}


def _gram_profile(name):
    return MetricProfile(2.0, GRAM_TERMS[name] + (ProfileTerm(1, 1, 0.3, 0.2, 0.5),))


class TestGramRead:
    """Each Laplacian is read from the Bloch blocks of T_P, built from the
    cached column c and the first period of w (``spectral`` derives the
    read); the oracle is the product delta @ D or D @ delta and its dense
    ``eigvalsh`` (``conftest.delta_d_laplacian``).

    Allowance.  The read's values lie within ``conftest.bloch_allowance`` of
    the sigma_k(T_C)^2, T_C = w^{-1} C w the operator built from c; the
    assembled T_D = w^{-1} D w differs from it by the round-off of D against
    C (``_transfer_allowance``); and the oracle's values lie within
    ``_oracle_allowance`` of the sigma_k(T_D)^2: its H is the symmetrized
    product, so by Weyl its exact eigenvalues are within ||H - T T^H||_2
    of the sigma_k(T)^2 (T^H T on one-forms), which is at most the computed
    ||H - fl(T T^H)||_F, times 1 + gamma_{2 N^2 + 2} for the subtraction and
    the norm, plus gamma_{N+2} || |T| |T|^T ||_F for the product; the dense
    ``eigvalsh`` adds N eps ||H||_2 (``conftest.dense_dirac_read``).  The
    sum is derived, not fitted.
    """

    @staticmethod
    def _transfer_allowance(density, report, allowance):
        """|sigma_k(T_C)^2 - sigma_k(T_D)^2| for every k.  ||iD - L||_F <=
        N eps N/2 for the exact lattice operator L
        (``test_round_off_of_the_derivative_matrix``) and ||iC - L||_F <=
        phi_N ||L||_F, phi_N = gamma_{7 log2 N}, for the one inverse FFT
        that makes c; ||L||_F <= F (1 + phi_N) / (1 - phi_N) for the computed
        F = ||C||_F, which also carries a relative gamma_{N+2} of its own.
        The entries of T_C - T_D are those of C - D times w_l / w_j, so
        ||T_C - T_D||_F <= e = (max w / min w) (N^2 eps / 2 + phi_N ||L||_F),
        times 1 + gamma_2 for the formula; with sigma = (mu + allowance)^{1/2}
        at least the largest sigma_k(T_C), Weyl gives e (2 sigma + e)."""
        n = density.n_points
        w = np.sqrt(density.g_values)

        def gamma(k):
            return k * EPS / (1.0 - k * EPS)

        fft = gamma(7.0 * math.log2(n))
        lattice = circulant_spectrum(n, "trivial")[2] * (1.0 + fft) / (1.0 - fft) / (
            1.0 - gamma(n + 2))
        error = (w.max() / w.min()) * (n * n * EPS / 2.0 + fft * lattice) * (1.0 + gamma(2))
        sigma = math.sqrt(report.eigenvalues[-1] + allowance)
        return error * (2.0 * sigma + error)

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
    @pytest.mark.parametrize("name", list(GRAM_TERMS))
    @pytest.mark.parametrize("degree", ["function", "one_form"])
    def test_gram_read_matches_the_delta_d_oracle(self, n_points, name, degree, monkeypatch):
        grid = GridSpec(n_points)
        density = _density(_gram_profile(name), grid)
        assert density.period == GRAM_PERIODS[name](n_points)
        spinor = assemble_basic_dirac_spinor(density, grid)
        report = laplacian_read(density, grid, degree)
        oracle = delta_d_laplacian(density, grid, degree)
        deviation = np.max(np.abs(report.eigenvalues - dense_spectrum(oracle)))
        allowance = bloch_allowance(density, report)
        allowance += self._transfer_allowance(density, report, allowance)
        allowance += self._oracle_allowance(oracle, -1j * spinor.matrix, degree)
        assert deviation <= allowance
        # the distance: the conjugation bound of w against its periodic
        # extension, 0 at P = N
        w = operators.dirac_factors(density)[0]
        periodic = np.tile(w[: density.period], n_points // density.period)
        frobenius = circulant_spectrum(n_points, "trivial")[2]
        assert report.distance == (0.0 if density.period == n_points else
                                   spectral.conjugation_bound(periodic, w / periodic, frobenius))
        # the gate: the larger of the Dirac gate ratio of the same density and
        # the shift bound, under the Laplacian label only
        largest = report.eigenvalues[-1]
        shift = report.distance * (2.0 * math.sqrt(largest) + report.distance) / largest
        gates = []
        monkeypatch.setattr(spectral, "_require_symmetric", gates.append)
        laplacian_spectrum(density)
        dirac_spectra(density, grid)
        dirac_ratio = gates[1][f"dirac_spinor[trivial,N={n_points}]"]
        assert gates[0] == {f"laplacian_function[N={n_points}]": max(dirac_ratio, shift)}

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_constant_density_reads_the_squared_lattice(self, n_points):
        """A constant density (P = 1) is read from N blocks of size 1, the
        eigenvalues fft(c) of C: its values are the k^2, k =
        ``wavenumbers(N)``, within ``conftest.bloch_allowance`` plus
        e (2 sigma + e), e = phi_N F (1 + phi_N) / (1 - phi_N) the distance of
        C from the exact lattice operator (one inverse FFT)."""
        density = _density(MetricProfile(3.0), GridSpec(n_points))
        assert density.period == 1
        report = laplacian_spectrum(density)
        fft = spectral.gamma(7.0 * math.log2(n_points))
        lattice = fft * circulant_spectrum(n_points, "trivial")[2] * (1.0 + fft) / (1.0 - fft)
        allowance = bloch_allowance(density, report)
        sigma = math.sqrt(report.eigenvalues[-1] + allowance)
        allowance += lattice * (2.0 * sigma + lattice)
        squares = np.sort(wavenumbers(n_points) ** 2)
        assert np.max(np.abs(report.eigenvalues - squares)) <= allowance

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_density_scale_cancels(self, n_points):
        """g and 2g have the factor T = g^{-1/2} C g^{1/2} in exact arithmetic,
        so their Laplacian spectra agree to round-off: by Weyl within
        e (2 sigma + e), e >= ||T_1 - T_2||_F the conjugation bound of the
        two computed factors, sigma at least the largest singular value of
        either, plus the two reads' ``bloch_allowance``."""
        grid = GridSpec(n_points)
        terms = GRAM_TERMS["none"]
        scaled = tuple(dataclasses.replace(term, amplitude=2.0 * term.amplitude)
                       for term in terms)
        densities = [_density(profile, grid)
                     for profile in (MetricProfile(2.0, terms), MetricProfile(4.0, scaled))]
        reports = [laplacian_read(density, grid) for density in densities]
        allowances = [bloch_allowance(d, report) for d, report in zip(densities, reports)]
        w_1, w_2 = (operators.dirac_factors(density)[0] for density in densities)
        spread = spectral.conjugation_bound(w_1, w_2 / w_1,
                                            circulant_spectrum(n_points, "trivial")[2])
        sigma = math.sqrt(max(report.eigenvalues[-1] + allowance
                              for report, allowance in zip(reports, allowances)))
        allowance = spread * (2.0 * sigma + spread) + sum(allowances)
        deviation = np.max(np.abs(reports[0].eigenvalues - reports[1].eigenvalues))
        assert deviation <= allowance

    @pytest.mark.parametrize("degree", ["function", "one_form"])
    def test_false_period_is_refused(self, cosine_profile, grid64, degree, tmp_path,
                                     monkeypatch, capsys):
        """g = 2 + cos t has no translation symmetry: with ``period`` patched to
        N/2, the Laplacian read's distance bound fails the gate, naming the
        Laplacian only, and ``spectrum`` exits 2 on it; the true period
        passes."""
        density = _density(cosine_profile, grid64)
        assert density.period == 64
        laplacian_read(density, grid64, degree)
        path = tmp_path / "wavy.json"
        save_profile(cosine_profile, path)
        operator = {"function": "laplacian-functions", "one_form": "laplacian-one-forms"}[degree]
        argv = ["spectrum", "--profile", str(path), "--grid", "64", "--window", "8",
                "--operator", operator, "--output-dir", str(tmp_path / "out")]
        assert cli.run(argv) == 0
        monkeypatch.setattr(LeafVolumeDensity, "period", property(lambda d: d.n_points // 2))
        with pytest.raises(OperatorSymmetryError, match="not symmetric") as refusal:
            laplacian_read(density, grid64, degree)
        assert "dirac" not in str(refusal.value)
        capsys.readouterr()
        assert cli.run(argv) == 2
        assert re.search(r"error: operator 'laplacian_function\[N=64\]' is not symmetric",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("degree", ["function", "one_form"])
    @pytest.mark.parametrize("name", ["half", "none"])
    def test_mutant_factor_is_refused(self, grid64, degree, name, monkeypatch):
        """The factor w = g^{-1/2} in place of g^{1/2}, so g^{1/2} D g^{-1/2} in
        place of g^{-1/2} D g^{1/2}: its weighted symmetrization i g D g^{-1}
        is not Hermitian, and q = (2 pi / N)^{1/2} g is not constant, so the
        Dirac gate of the same density refuses the ``spectrum`` command's
        read (for a constant density the two factors are one)."""
        density = _density(MetricProfile(2.0, GRAM_TERMS[name]), grid64)
        operator = {"function": "laplacian-functions", "one_form": "laplacian-one-forms"}[degree]
        honest = operators.dirac_factors
        patch_factors(monkeypatch, lambda d: (1.0 / np.sqrt(d.g_values), quadrature_weights(d)))
        with pytest.raises(OperatorSymmetryError, match=r"laplacian_.*not symmetric"):
            _spectrum(operator, density, grid64)
        patch_factors(monkeypatch, honest)
        _spectrum(operator, density, grid64)


def _galerkin_profiles() -> dict:
    """The cosine, mixed and wavy2 fixtures and the first ten
    ``random_profile`` draws of the seeds s = 1 to 5."""
    profiles = {
        "cosine": MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)),
        "mixed": MetricProfile(2.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(1, 0, 0.4, 0.3),
                                     ProfileTerm(1, 1, 0.3, 0.0, 0.5))),
        "wavy2": MetricProfile(2.0, (ProfileTerm(0, 2, 0.6), ProfileTerm(0, -2, 0.3, 0.0, 1.0),
                                     ProfileTerm(1, 1, 0.4))),
    }
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        for index in range(10):
            profiles[f"seed{seed}-{index}"] = random_profile(rng)
    return profiles


def _galerkin_matches_grid(galerkin, density, grid, window=10.0) -> bool:
    """Whether ``galerkin``, the density's Galerkin read at ``window``, meets
    the battery's tolerance and its windowed values are the grid read's,
    value by value, within the radius r plus the grid read's
    ``conftest.bloch_allowance``."""
    grid_read = laplacian_read(density, grid)
    allowance = galerkin.radii + bloch_allowance(density, grid_read)
    values = grid_read.in_window(window * window)
    return (galerkin.radius <= LAPLACIAN_FORMS_THRESHOLD
            and values.size == galerkin.values.size
            and bool(np.all(np.abs(values - galerkin.values) <= allowance)))


def _predicted_order(density, window=10.0) -> int:
    eta = spectral.strip_width(density.coefficients)
    margin = math.log(1.0 / LAPLACIAN_FORMS_THRESHOLD) + spectral.GALERKIN_MARGIN
    return math.floor(window + margin / eta) + 1


class TestGalerkinRead:
    """The pair battery's Galerkin read of the function Laplacian against
    exact spectra, the grid read that ``spectrum`` keeps, and Rayleigh-Ritz;
    and the battery's choice between the two reads."""

    @pytest.mark.parametrize("constant", [1.0, 2.0, 3.7])
    @pytest.mark.parametrize("terms", [(), (ProfileTerm(1, 0, 0.3),), (ProfileTerm(0, 1, 1e-300),)])
    def test_constant_density_gives_the_squares(self, grid64, constant, terms):
        """A constant density (a flat theta-average, or a t-term that rounds
        away) has the spectrum {k^2}: 0 once and every other value twice,
        each within its radius of the computed value, which is round-off.
        Its order is the first above the window."""
        read = battery_laplacian(_density(MetricProfile(constant, terms), grid64), 8.0)
        squares = np.sort(np.arange(-8, 9) ** 2).astype(float)
        assert read.order == 9
        assert np.all(np.abs(read.values - squares) <= read.radii)
        assert read.radius < 1e-11

    @pytest.mark.parametrize("n_points", [128, 256])
    def test_windowed_values_match_the_grid_read(self, n_points):
        """The first order of the predicted sequence meets the tolerance on
        every fixture, so each read is one solve."""
        grid = GridSpec(n_points)
        for name, profile in _galerkin_profiles().items():
            density = _density(profile, grid)
            read = battery_laplacian(density, 10.0)
            assert read.order == _predicted_order(density), name
            assert _galerkin_matches_grid(read, density, grid), name

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    def test_coefficients_are_the_samples_dft(self, n_points):
        """The exact coefficients against the DFT of the samples, on the ten
        ``random_profile`` draws of seeds 0-41 and 7041 and the profiles of
        ``tools/parity.py``: zero-padded to N/2 + 1 terms, they differ from
        rfft(g) / N by at most (phi_N + eps) rms(g) + N eps max g in 2-norm,
        the N-point FFT and the division by N on rms(g), and N eps max g for
        the samples' and the coefficients' own rounding."""
        grid = GridSpec(n_points)
        fft = spectral.gamma(7.0 * math.log2(n_points))
        for profile in profile_corpus():
            density = _density(profile, grid)
            g, coefficients = density.g_values, density.coefficients
            bandwidth = density.t_bandwidth
            assert coefficients.shape == (2 * bandwidth + 1,) and not coefficients.flags.writeable
            exact = np.zeros(n_points // 2 + 1, complex)
            exact[: bandwidth + 1] = coefficients[bandwidth:]
            assert np.array_equal(coefficients[:bandwidth][::-1], np.conj(exact[1: bandwidth + 1]))
            dft = np.fft.rfft(g) / n_points
            allowance = ((fft + EPS) * np.linalg.norm(g) / math.sqrt(n_points)
                         + n_points * EPS * g.max())
            assert np.linalg.norm(dft - exact) <= allowance
            # the samples' DFT above the t-bandwidth, measured at most 15 eps max g
            assert np.linalg.norm(dft[bandwidth + 1:]) <= 15.0 * EPS * g.max()

    def test_ritz_values_do_not_increase_along_the_orders(self):
        """Nested trial spaces: the k-th Ritz value at each order is at most
        the one at the order before, up to the backward error (2K + 1) eps
        ||L^{-1} A L^{-H}||_2 of each ``eigh``, the norm at most
        K^2 (g_0 + 2 sum |g_m|) / g_low."""
        grid = GridSpec(128)
        for name, profile in _galerkin_profiles().items():
            coefficients = _density(profile, grid).coefficients
            largest = float(np.sum(np.abs(coefficients)))
            lower = spectral.lower_bound(coefficients)
            previous = None
            for order in (16, 24, 32, 48):
                values = spectral.galerkin_read(coefficients, order, 10.0).values
                if previous is not None:
                    shared = min(previous.size, values.size)
                    allowance = 2 * (2 * order + 1) * EPS * order * order * largest / lower
                    assert np.all(values[:shared] <= previous[:shared] + allowance), name
                previous = values

    def test_a_mutant_stiffness_fails_the_grid_comparison(self, grid128, monkeypatch):
        """j^2 g_{j-k} in place of jk g_{j-k}: the read no longer matches the
        grid read on any non-constant fixture, and its radius, which the
        contrast subtracts from the gap, exceeds the gap threshold, so that
        no order meets the tolerance and the battery takes the grid read."""
        honest = spectral.galerkin_matrices

        def mutant(coefficients, order):
            mass, _ = honest(coefficients, order)
            rows = np.arange(mass.shape[0]) - mass.shape[0] // 2
            return mass, (rows * rows)[:, None] * mass

        monkeypatch.setattr(spectral, "galerkin_matrices", mutant)
        profiles = _galerkin_profiles()
        for name in ("cosine", "mixed", "wavy2"):
            density = _density(profiles[name], grid128)
            read = spectral.galerkin_read(density.coefficients,
                                          _predicted_order(density), 10.0)
            assert not _galerkin_matches_grid(read, density, grid128), name
            assert read.radius > 1e-3, name
            assert battery_laplacian(density, 10.0).order is None, name

    def test_a_mutant_stiffness_fails_the_contrast_with_a_constant(self, grid128, monkeypatch):
        """j^2 g_{j-k} in place of jk g_{j-k} leaves a constant density's read
        as it is (the two agree on the diagonal), but a varying density's
        Galerkin read then fails the contrast against it: its values fall on
        the constant's squares and its radius exceeds the gap, where the
        honest read passes."""
        honest = spectral.galerkin_matrices

        def mutant(coefficients, order):
            mass, _ = honest(coefficients, order)
            rows = np.arange(mass.shape[0]) - mass.shape[0] // 2
            return mass, (rows * rows)[:, None] * mass

        flat = battery_laplacian(_density(MetricProfile(2.0), grid128), 8.0)
        profiles = _galerkin_profiles()
        for name in ("cosine", "mixed", "wavy2"):
            density = _density(profiles[name], grid128)
            order = _predicted_order(density, 8.0)
            coefficients = density.coefficients
            reads = {"honest": spectral.galerkin_read(coefficients, order, 8.0)}
            monkeypatch.setattr(spectral, "galerkin_matrices", mutant)
            reads["mutant"] = spectral.galerkin_read(coefficients, order, 8.0)
            mutant_flat = battery_laplacian(_density(MetricProfile(2.0), grid128), 8.0)
            monkeypatch.setattr(spectral, "galerkin_matrices", honest)
            assert np.array_equal(mutant_flat.values, flat.values), name
            verdicts = {key: laplacian_dependence(flat, read, 0.0, 8.0, {})
                        for key, read in reads.items()}
            assert verdicts["honest"].passed, name
            assert not verdicts["mutant"].passed, name
            assert "indistinguishable" in verdicts["mutant"].metadata["diagnostic"], name

    def test_a_density_without_a_positive_lower_bound_gets_the_grid_read(self, grid128,
                                                                            tmp_path):
        """1 + 0.6 cos t + 0.6 cos 2t is positive (its minimum is 0.325), but
        g_0 - 2 sum |g_m| = -0.2: the Galerkin read is refused, the battery
        reads the grid, and a command whose contrast reads it decides it."""
        profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6)))
        density = _density(profile, grid128)
        coefficients = density.coefficients
        assert density.g_values.min() > 0.3
        assert spectral.strip_width(coefficients) == 0.0
        with pytest.raises(ValueError, match="g_low"):
            spectral.galerkin_read(coefficients, 24, 8.0)
        read = battery_laplacian(density, 8.0)
        assert read.order is None
        assert np.array_equal(read.values, laplacian_read(density, grid128).in_window(64.0))
        paths = [tmp_path / "low.json", tmp_path / "wavy.json"]
        save_profile(profile, paths[0])
        save_profile(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), paths[1])
        argv = ["invariance", "--profiles", *map(str, paths), "--grid", "128", "--window",
                "8", "--output-dir", str(tmp_path)]
        assert cli.run(argv) == 0
        bundle = json.loads((tmp_path / "invariance_bundle.json").read_text())
        contrast = bundle["reports"][-1]
        assert contrast["check_name"] == "laplacian_dependence" and contrast["passed"]
        assert contrast["metadata"]["laplacian_order"] == [None, _predicted_order(
            _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), grid128), 8.0)]

    @pytest.mark.parametrize("n_points, wavy8_order", [(64, None), (128, None), (256, 89)])
    def test_the_battery_reads_galerkin_up_to_half_the_grid(self, n_points, wavy8_order):
        """2 + cos t (period N) at window 8 needs K = 29 <= N/2 and gets the
        Galerkin read at every grid, whatever its cost against the grid
        read; a constant (eta infinite) gets it at floor(window) + 1; the
        t-bandwidth-8 density of ``tools/parity.py``, whose K is 89 at
        window 10, gets the grid read while N/2 < 89."""
        grid = GridSpec(n_points)
        cosine = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), grid)
        assert _predicted_order(cosine, 8.0) == 29
        read = battery_laplacian(cosine, 8.0)
        assert read.order == 29 and read.radius <= LAPLACIAN_FORMS_THRESHOLD
        flat = _density(MetricProfile(2.0), grid)
        flat_read = battery_laplacian(flat, 8.0)
        assert flat_read.order == 9 and flat_read.radius <= LAPLACIAN_FORMS_THRESHOLD
        np.testing.assert_allclose(flat_read.values, np.sort(np.arange(-8.0, 9.0) ** 2),
                                   rtol=0.0, atol=flat_read.radius)
        wavy8 = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 0.5),
                                             ProfileTerm(0, 8, 0.2, 0.0, 0.7))), grid)
        assert _predicted_order(wavy8) == 89
        wavy8_read = battery_laplacian(wavy8, 10.0)
        assert wavy8_read.order == wavy8_order
        if wavy8_order is None:
            assert np.array_equal(wavy8_read.values,
                                  laplacian_read(wavy8, grid).in_window(100.0))
        else:
            assert _galerkin_matches_grid(wavy8_read, wavy8, grid)

    @pytest.mark.parametrize("n_points, order", [(58, 29), (56, None)])
    def test_the_cap_is_half_the_grid(self, n_points, order):
        """2 + cos t at window 8, predicted K = 29: read by Galerkin on a
        grid with N/2 = 29, and on the grid where N/2 = 28."""
        grid = GridSpec(n_points)
        cosine = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), grid)
        read = battery_laplacian(cosine, 8.0)
        assert read.order == order
        if order is None:
            assert np.array_equal(read.values, laplacian_read(cosine, grid).in_window(64.0))


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
        flat = laplacian_read(_density(MetricProfile(1.0), grid128), grid128)
        wavy_profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
        wavy = laplacian_read(_density(wavy_profile, grid128), grid128)
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
        coarse = laplacian_read(_density(cosine_profile, coarse_grid), coarse_grid)
        fine = laplacian_read(_density(cosine_profile, fine_grid), fine_grid)
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
