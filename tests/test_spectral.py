"""Weighted eigensolves, window handling, spectrum comparison."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from foliation_lab import cli, operators, spectral, verify
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
    galerkin_rounding,
    battery_laplacian,
    dense_dirac_read,
    dense_laplacian_read,
    pair_inputs,
    patch_factors,
    profile_corpus,
    profile_documents,
    save_profile,
)


# The profile documents of tools/parity.py, by name.
PARITY_PROFILES = profile_documents()


def _density(profile):
    return LeafVolumeDensity.from_profile(profile)


class TestEigenvaluesWeighted:
    def test_diagonal_matrix(self):
        op = WeightedOperator(np.diag([3.0, 1.0, 2.0]), np.ones(3), "diag", 8)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, [1.0, 2.0, 3.0])
        assert report.grid_size == 8
        assert report.operator_label == "diag"

    def test_flat_spinor_lattice(self, flat_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(flat_profile), grid64)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, np.arange(-32, 32), atol=1e-10)

    def test_flat_laplacian_head(self, flat_profile, grid64):
        density = _density(flat_profile)
        head = _spectrum("laplacian-functions", density, grid64, 9.0).eigenvalues
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
        density = _density(request.getfixturevalue(profile_name))
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
        density = _density(request.getfixturevalue(profile_name))
        spinor = assemble_basic_dirac_spinor(density, grid)
        assert np.array_equal(spinor.matrix, 1j * twisted_differential(density, grid))
        assert np.array_equal(spinor.weights, quadrature_weights(density, n_points))

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    @pytest.mark.parametrize("profile_name", ["flat_profile", "cosine_profile", "mixed_profile"])
    def test_spinor_report_is_the_cached_lattice(self, request, profile_name, spin):
        """Whatever the density, the spinor values are the cached mu of the
        (grid, spin structure), bit for bit, and the forms values +-mu; only
        the distance depends on the density."""
        grid = GridSpec(128, spin)
        density = _density(request.getfixturevalue(profile_name))
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
        density = _density(mixed_profile)
        broken = twisted_differential(density, grid64) + 1e-6 * rng.normal(size=(64, 64))
        weights = quadrature_weights(density, 64)
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
            patch_factors(monkeypatch, lambda d, n: (honest(d, n)[0] * (1.0 + eps * bump),
                                                     quadrature_weights(d, n)))
            recorded = []
            monkeypatch.setattr(spectral, "_require_symmetric", recorded.append)
            dirac_spectra(density, grid)
            monkeypatch.setattr(spectral, "_require_symmetric", _require_symmetric)
            return recorded[0][spinor_label(grid)]

        eps = scale * spectral.SYMMETRIZATION_TOLERANCE * 1e-6 / ratios(1e-6)
        return eps, ratios(eps)

    def test_refuses_broken_twisted_differential(self, cosine_profile, grid64, monkeypatch):
        """Above the tolerance the spinor gate, checked first, refuses the read."""
        density = _density(cosine_profile)
        _, ratio = self._gate_ratios(density, grid64, 100.0, monkeypatch)
        assert ratio > spectral.SYMMETRIZATION_TOLERANCE
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[trivial"):
            dirac_spectra(density, grid64)

    def test_forms_gate_is_sqrt2_stricter(self, cosine_profile, grid64, monkeypatch):
        """Between tol/sqrt(2) and tol the spinor passes and the forms gate refuses."""
        density = _density(cosine_profile)
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
            density = _density(profile)
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
        density = _density(request.getfixturevalue(profile_name))
        dense = assemble_basic_dirac_spinor(density, grid).hermitian_spectrum()[1]
        gates = []
        monkeypatch.setattr(spectral, "_require_symmetric", gates.append)
        dirac_spectra(density, grid)
        assert gates[0][spinor_label(grid)] >= dense

    def test_window_count_refuses_an_edge_within_the_radius(self, cosine_profile, grid128):
        report = dirac_spectra(_density(cosine_profile), grid128)[0]
        assert report.window_count(10.0) == 21
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK) is None
        assert report.window_count(10.0 - spectral.WINDOW_EDGE_SLACK + 2.0 * report.radius) == 21

    @pytest.mark.parametrize("spin", ["trivial", "nontrivial"])
    def test_dirac_reports_keep_their_radius(self, cosine_profile, spin):
        """Every Dirac report, spinor or forms, has the radius of the module
        docstring's formula, bit for bit."""
        grid = GridSpec(256, spin)
        density = _density(cosine_profile)

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
        """Only a Dirac read has a derived radius: a Laplacian ``spectrum``
        report of either degree, a matrix read and a dense report refuse
        ``radius`` and ``window_count``, naming the operator."""
        grid = GridSpec(256)
        flat2, wavy = (_density(profile) for profile in (MetricProfile(2.0), cosine_profile))
        spinor = assemble_basic_dirac_spinor(wavy, grid)
        reports = [_spectrum(operator, flat2, grid, 10.0)
                   for operator in ("laplacian-functions", "laplacian-one-forms")]
        reports.append(_spectrum("laplacian-functions", wavy, grid, 10.0))
        reports.append(eigenvalues_weighted(spinor))
        reports.append(SpectrumReport(np.arange(-3.0, 4.0), 256, "dense"))
        for report in reports:
            label = re.escape(repr(report.operator_label))
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.radius
            with pytest.raises(ValueError, match=f"operator {label} has no derived radius"):
                report.window_count(10.0)

    def test_a_density_sampled_on_one_grid_reads_on_another(self, cosine_profile):
        """A density carries no grid: sampled at grid 64, it reads at grid 128
        the reports of a density never sampled before."""
        density = _density(cosine_profile)
        dirac_spectra(density, GridSpec(64))
        fresh = dirac_spectra(_density(cosine_profile), GridSpec(128))
        for report, other in zip(dirac_spectra(density, GridSpec(128)), fresh):
            assert report.operator_label == other.operator_label
            assert np.array_equal(report.eigenvalues, other.eigenvalues)
            assert report.distance == other.distance


# t-terms of the theta-average with t-frequencies 1 and 2, 2, 4 and 8, and 8;
# each profile adds a theta term, which the theta-average drops.
PERIODIC_TERMS = {
    "flat": (),
    "half": (ProfileTerm(0, 2, 0.5, 0.0, 0.3), ProfileTerm(0, -2, 0.2, 0.0, 1.0)),
    "quarter": (ProfileTerm(0, 4, 0.4), ProfileTerm(0, 8, 0.3, 0.0, 2.0)),
    "eighth": (ProfileTerm(0, 8, 0.6, 0.0, 0.7),),
    "none": (ProfileTerm(0, 1, 0.6, 0.0, 0.3), ProfileTerm(0, 2, -0.3, 0.0, 1.1)),
}


def _periodic_profile(name):
    return MetricProfile(2.0, PERIODIC_TERMS[name] + (ProfileTerm(1, 1, 0.3, 0.2, 0.5),))


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


def _galerkin_matches_dense(galerkin, density, grid, window=10.0) -> bool:
    """Whether ``galerkin``, the density's Galerkin read at ``window``, meets
    the battery's tolerance and its windowed values are those of the dense
    delta d solve, value by value, within the radius r plus the solve's
    ``conftest.dense_laplacian_read`` allowance."""
    values, allowance = dense_laplacian_read(density, grid, "function")
    windowed = np.abs(values) <= window * window + spectral.WINDOW_EDGE_SLACK
    return (galerkin.radius <= LAPLACIAN_FORMS_THRESHOLD
            and np.count_nonzero(windowed) == galerkin.values.size
            and bool(np.all(np.abs(values[windowed] - galerkin.values)
                            <= galerkin.radii + allowance[windowed])))


_HONEST_MATRICES = spectral.galerkin_matrices


def _mutant_matrices(coefficients, order):
    """``galerkin_matrices`` with the stiffness j^2 g_{j-k} in place of jk g_{j-k}."""
    mass, _ = _HONEST_MATRICES(coefficients, order)
    rows = np.arange(mass.shape[0]) - mass.shape[0] // 2
    return mass, (rows * rows)[:, None] * mass


def _predicted_order(density, window=10.0) -> int:
    eta = spectral.strip_width(density.coefficients)
    margin = math.log(1.0 / LAPLACIAN_FORMS_THRESHOLD) + spectral.GALERKIN_MARGIN
    return math.floor(window + margin / eta) + 1


class TestGalerkinRead:
    """The Galerkin read of the function Laplacian against exact spectra,
    the dense delta d solve and Rayleigh-Ritz, and its order rule."""

    @pytest.mark.parametrize("constant", [1.0, 2.0, 3.7])
    @pytest.mark.parametrize("terms", [(), (ProfileTerm(1, 0, 0.3),), (ProfileTerm(0, 1, 1e-300),)])
    def test_constant_density_gives_the_squares(self, constant, terms):
        """A constant density (a flat theta-average, or a t-term that rounds
        away) has the spectrum {k^2}: 0 once and every other value twice,
        each within its radius of the computed value, which is round-off.
        Its order is the first above the window."""
        read = battery_laplacian(_density(MetricProfile(constant, terms)), 8.0)
        squares = np.sort(np.arange(-8, 9) ** 2).astype(float)
        assert read.order == 9
        assert np.all(np.abs(read.values - squares) <= read.radii)
        assert read.radius < 1e-11

    @pytest.mark.parametrize("n_points", [128, 256])
    def test_windowed_values_match_the_dense_oracle(self, n_points):
        """The first order of the predicted sequence meets the tolerance on
        every fixture, so each read is one solve."""
        grid = GridSpec(n_points)
        for name, profile in _galerkin_profiles().items():
            density = _density(profile)
            read = battery_laplacian(density, 10.0)
            assert read.order == _predicted_order(density), name
            assert _galerkin_matches_dense(read, density, grid), name

    @pytest.mark.parametrize("n_points", [64, 128, 256, 512])
    def test_coefficients_are_the_samples_dft(self, n_points):
        """The exact coefficients against the DFT of the samples, on the ten
        ``random_profile`` draws of seeds 0-41 and 7041 and the profiles of
        ``tools/parity.py``: zero-padded to N/2 + 1 terms, they differ from
        rfft(g) / N by at most (phi_N + eps) rms(g) + N eps max g in 2-norm,
        the N-point FFT and the division by N on rms(g), and N eps max g for
        the samples' and the coefficients' own rounding."""
        fft = spectral.gamma(7.0 * math.log2(n_points))
        for profile in profile_corpus():
            density = _density(profile)
            g, coefficients = density.samples(n_points)[0], density.coefficients
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

    @pytest.mark.parametrize("name", list(PERIODIC_TERMS))
    def test_density_scale_cancels(self, name):
        """g and 2g have one Laplacian, -(g u')'/g, and the computed
        coefficients of 2g are those of g doubled, exactly: each read's k-th
        value is within its radius of an eigenvalue of that one operator, so
        the two agree within r_1 + r_2, paired by index as the contrast
        pairs them."""
        profile = _periodic_profile(name)
        scaled = MetricProfile(2.0 * profile.constant,
                               tuple(dataclasses.replace(term, amplitude=2.0 * term.amplitude)
                                     for term in profile.terms))
        densities = [_density(profile), _density(scaled)]
        assert np.array_equal(densities[1].coefficients, 2.0 * densities[0].coefficients)
        first, second = (battery_laplacian(density, 10.0) for density in densities)
        assert first.values.size == second.values.size
        assert np.all(np.abs(first.values - second.values) <= first.radii + second.radii)

    def test_ritz_values_do_not_increase_along_the_orders(self):
        """Nested trial spaces: the k-th Ritz value at each order is at most
        the one at the order before, up to the backward error (2K + 1) eps
        ||L^{-1} A L^{-H}||_2 of each ``eigh``, the norm at most
        K^2 (g_0 + 2 sum |g_m|) / g_low."""
        for name, profile in _galerkin_profiles().items():
            density = _density(profile)
            coefficients = density.coefficients
            largest = float(np.sum(np.abs(coefficients)))
            lower = density.average.min_bound
            previous = None
            for order in (16, 24, 32, 48):
                values = spectral.galerkin_read(coefficients, order, 10.0, lower).values
                if previous is not None:
                    shared = min(previous.size, values.size)
                    allowance = 2 * (2 * order + 1) * EPS * order * order * largest / lower
                    assert np.all(values[:shared] <= previous[:shared] + allowance), name
                previous = values

    def test_a_mutant_stiffness_fails_the_dense_comparison(self, grid128, monkeypatch):
        """j^2 g_{j-k} in place of jk g_{j-k}: the read no longer matches the
        dense solve on any non-constant fixture, and its radius, which the
        contrast subtracts from the gap, exceeds the gap threshold, so that
        no order meets the tolerance and the battery refuses the density,
        naming its last order and radius."""
        monkeypatch.setattr(spectral, "galerkin_matrices", _mutant_matrices)
        profiles = _galerkin_profiles()
        for name in ("cosine", "mixed", "wavy2"):
            density = _density(profiles[name])
            read = spectral.galerkin_read(density.coefficients, _predicted_order(density), 10.0,
                                          density.average.min_bound)
            assert not _galerkin_matches_dense(read, density, grid128), name
            assert read.radius > 1e-3, name
            with pytest.raises(ValueError, match=r"last predicted Galerkin order K = \d+ the "
                                                 r"largest radius is \d\.\d+e[+-]\d+"):
                battery_laplacian(density, 10.0)

    def test_a_mutant_stiffness_fails_the_contrast_with_a_constant(self, monkeypatch):
        """j^2 g_{j-k} in place of jk g_{j-k} leaves a constant density's read
        as it is (the two agree on the diagonal), but a varying density's
        Galerkin read then fails the contrast against it: its values fall on
        the constant's squares and its radius exceeds the gap, where the
        honest read passes."""
        flat = battery_laplacian(_density(MetricProfile(2.0)), 8.0)
        profiles = _galerkin_profiles()
        for name in ("cosine", "mixed", "wavy2"):
            density = _density(profiles[name])
            order = _predicted_order(density, 8.0)
            coefficients, lower = density.coefficients, density.average.min_bound
            reads = {"honest": spectral.galerkin_read(coefficients, order, 8.0, lower)}
            monkeypatch.setattr(spectral, "galerkin_matrices", _mutant_matrices)
            reads["mutant"] = spectral.galerkin_read(coefficients, order, 8.0, lower)
            mutant_flat = battery_laplacian(_density(MetricProfile(2.0)), 8.0)
            monkeypatch.setattr(spectral, "galerkin_matrices", _HONEST_MATRICES)
            assert np.array_equal(mutant_flat.values, flat.values), name
            verdicts = {key: laplacian_dependence(flat, read, 0.0, 8.0, {})
                        for key, read in reads.items()}
            assert verdicts["honest"].passed, name
            assert not verdicts["mutant"].passed, name
            assert "indistinguishable" in verdicts["mutant"].metadata["diagnostic"], name

    def test_a_density_without_a_positive_coefficient_bound_reads_by_galerkin(self, grid128,
                                                                             tmp_path):
        """1 + 0.6 cos t + 0.6 cos 2t is positive (its minimum is 0.325), but
        g_0 - 2 sum |g_m| = -0.2: g_low is the certificate's 0.314, eta from
        the zeros is 0.511, and the first order, K = 60 at window 8, meets
        the tolerance and matches the dense solve; a command whose contrast
        reads it decides it."""
        profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6)))
        density = _density(profile)
        coefficients = density.coefficients
        assert density.samples(128)[0].min() > 0.3
        assert coefficients[2].real - 2.0 * np.abs(coefficients[3:]).sum() < -0.19
        assert 0.31 < density.average.min_bound < 0.325
        assert 0.51 < spectral.strip_width(coefficients) < 0.512
        read = battery_laplacian(density, 8.0)
        assert read.order == _predicted_order(density, 8.0) == 60
        assert _galerkin_matches_dense(read, density, grid128, 8.0)
        paths = [tmp_path / "low.json", tmp_path / "wavy.json"]
        save_profile(profile, paths[0])
        save_profile(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), paths[1])
        argv = ["invariance", "--profiles", *map(str, paths), "--grid", "128", "--window",
                "8", "--output-dir", str(tmp_path)]
        assert cli.run(argv) == 0
        bundle = json.loads((tmp_path / "invariance_bundle.json").read_text())
        contrast = bundle["reports"][-1]
        assert contrast["check_name"] == "laplacian_dependence" and contrast["passed"]
        assert contrast["metadata"]["laplacian_order"] == [60, 29]

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_the_battery_reads_galerkin_on_every_grid(self, n_points):
        """2 + cos t at window 8 needs K = 29 and gets it at every grid; a
        constant (eta infinite) gets floor(window) + 1; the t-bandwidth-8
        density of ``tools/parity.py`` gets K = 89 at window 10 whatever N,
        above N/2 at grids 64 and 128, and its read matches the dense solve
        at grid 256."""
        grid = GridSpec(n_points)
        cosine = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)))
        assert _predicted_order(cosine, 8.0) == 29
        read = battery_laplacian(cosine, 8.0)
        assert read.order == 29 and read.radius <= LAPLACIAN_FORMS_THRESHOLD
        flat = _density(MetricProfile(2.0))
        flat_read = battery_laplacian(flat, 8.0)
        assert flat_read.order == 9 and flat_read.radius <= LAPLACIAN_FORMS_THRESHOLD
        np.testing.assert_allclose(flat_read.values, np.sort(np.arange(-8.0, 9.0) ** 2),
                                   rtol=0.0, atol=flat_read.radius)
        wavy8 = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 0.5),
                                             ProfileTerm(0, 8, 0.2, 0.0, 0.7))))
        assert _predicted_order(wavy8) == 89
        wavy8_read = battery_laplacian(wavy8, 10.0)
        assert wavy8_read.order == 89 and wavy8_read.radius <= LAPLACIAN_FORMS_THRESHOLD
        if n_points == 256:
            assert _galerkin_matches_dense(wavy8_read, wavy8, grid)

    @pytest.mark.parametrize("n_points", [56, 58])
    def test_the_order_does_not_depend_on_the_grid(self, n_points):
        """2 + cos t at window 8, predicted K = 29: read at K = 29, and
        ``spectrum`` writes the same values on a grid with N/2 = 29 or 28 as
        on grid 64."""
        profile = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))
        assert battery_laplacian(_density(profile), 8.0).order == 29
        reports = [_spectrum("laplacian-functions", _density(profile), GridSpec(n), 64.0)
                   for n in (n_points, 64)]
        assert np.array_equal(reports[0].eigenvalues, reports[1].eigenvalues)

    @pytest.mark.parametrize("amplitude, order", [(1.0 - 1e-6, 18691), (0.999, 599)])
    def test_a_density_near_zero_is_refused_before_it_is_solved(self, monkeypatch, amplitude,
                                                                  order):
        """1 + (1 - 1e-6) cos t and 1 + 0.999 cos t pass the certificate
        outright, but their eta = 1.4e-3 and 0.045 predict K = 18,691 and 599
        > GALERKIN_ORDER_CAP: refused, naming the density and K, with no
        solve."""
        density = _density(MetricProfile(1.0, (ProfileTerm(0, 1, amplitude),)))
        monkeypatch.setattr(spectral, "galerkin_read", None)
        with pytest.raises(ValueError, match=rf"theta-average \{{'constant': 1\.0.* order "
                                             rf"K = {order} exceeds GALERKIN_ORDER_CAP = 512 "
                                             r"\(not solved\)"):
            battery_laplacian(density, 8.0)

    @pytest.mark.parametrize("radius, window, solved", [(0.0, 12.0, [512]),
                                                         (1.0, 12.0, [512]),
                                                         (0.0, 13.0, [])])
    def test_the_order_cap_is_the_largest_order_solved(self, monkeypatch, radius, window,
                                                       solved):
        """1 + 0.9986 cos t predicts K = 512 = GALERKIN_ORDER_CAP at window 12
        and K = 513 at window 13.  The read at the cap is solved: it is
        returned when its radius meets the tolerance, and otherwise the next
        order, above the cap, refuses the density; K = 513 is refused
        unsolved."""
        density = _density(MetricProfile(1.0, (ProfileTerm(0, 1, 0.9986),)))
        assert _predicted_order(density, window) == 512 + (window == 13.0)
        orders = []

        def recorded(coefficients, order, window, lower):
            orders.append(order)
            return spectral.LaplacianRead(np.zeros(1), np.full(1, radius), order)

        monkeypatch.setattr(spectral, "galerkin_read", recorded)
        if radius == 0.0 and solved:
            assert battery_laplacian(density, window).order == 512
        else:
            with pytest.raises(ValueError, match=r"order K = \d+ exceeds GALERKIN_ORDER_CAP"):
                battery_laplacian(density, window)
        assert orders == solved


class TestLaplacianSpectrum:
    """``spectrum --operator laplacian-*`` writes one Galerkin read of the
    function Laplacian, at the frequency window sqrt(--window), under the
    label of the degree asked for: on the circle delta d on functions and
    d delta on one-forms have one spectrum."""

    @staticmethod
    def _spectrum_argv(path, n_points, window, operator, out):
        return ["spectrum", "--profile", str(path), "--grid", str(n_points), "--window",
                str(window), "--operator", operator, "--output-dir", str(out)]

    @pytest.mark.parametrize("n_points", [128, 256])
    @pytest.mark.parametrize("name", ["flat2", "wavy", "wavy2", "wavy8"])
    def test_both_degrees_write_the_values_of_the_dense_oracle(self, n_points, name, tmp_path):
        """At the trusted window N/8 both degrees write the same values, the
        read's; each lies within its radius plus the allowance of
        ``conftest.dense_laplacian_read`` of the dense delta d, and of the
        dense d delta, value of its index."""
        document = PARITY_PROFILES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        window = n_points // 8
        written = {}
        for degree, operator in (("function", "laplacian-functions"),
                                 ("one_form", "laplacian-one-forms")):
            argv = self._spectrum_argv(path, n_points, window, operator, tmp_path)
            assert cli.run(argv) == 0
            lines = (tmp_path / f"spectrum_{operator}_{name}.csv").read_text().splitlines()
            assert lines[0].startswith(f"# operator=laplacian_{degree}[N={n_points}],")
            written[degree] = lines[2:]
        assert written["function"] == written["one_form"]
        values = np.array([float(line) for line in written["function"]])
        grid = GridSpec(n_points)
        density = _density(MetricProfile.from_dict(document))
        read = battery_laplacian(density, math.sqrt(window))
        assert np.array_equal(values, read.values)
        for degree in ("function", "one_form"):
            dense, allowance = dense_laplacian_read(density, grid, degree)
            windowed = np.abs(dense) <= window + spectral.WINDOW_EDGE_SLACK
            assert np.count_nonzero(windowed) == values.size
            assert np.all(np.abs(dense[windowed] - values) <= read.radii + allowance[windowed])

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    @pytest.mark.parametrize("name", list(PERIODIC_TERMS))
    @pytest.mark.parametrize("degree", ["function", "one_form"])
    def test_each_degree_matches_its_delta_d_oracle(self, n_points, name, degree):
        """The ``spectrum`` report of each degree at the trusted window N/8,
        on densities whose theta terms average out, holds the read's values
        under its own label, and each lies within its radius plus the
        ``conftest.dense_laplacian_read`` allowance of the dense delta d (or
        d delta) value of its index.  The oracle is solved at grid 256: its
        allowance leaves out the aliasing of the N-point collocation, which
        at grid 64 exceeds it for the t-frequency 8, while the Galerkin read
        takes the density's exact coefficients at any grid."""
        operator = {"function": "laplacian-functions", "one_form": "laplacian-one-forms"}[degree]
        window = n_points // 8
        profile = _periodic_profile(name)
        grid = GridSpec(n_points)
        report = _spectrum(operator, _density(profile), grid, window)
        assert report.operator_label == f"laplacian_{degree}[N={n_points}]"
        oracle_grid = GridSpec(256)
        density = _density(profile)
        read = battery_laplacian(density, math.sqrt(window))
        assert np.array_equal(report.eigenvalues, read.values)
        dense, allowance = dense_laplacian_read(density, oracle_grid, degree)
        windowed = np.abs(dense) <= window + spectral.WINDOW_EDGE_SLACK
        assert np.count_nonzero(windowed) == read.values.size
        assert np.all(np.abs(dense[windowed] - read.values) <= read.radii + allowance[windowed])

    @pytest.mark.parametrize("n_points", [64, 128, 256])
    def test_constant_density_reads_the_squared_lattice(self, n_points):
        """A constant density's Laplacian is -d^2/dt^2 whatever the constant:
        at the trusted window N/8 its values are the k^2, |k| <= (N/8)^{1/2},
        each within the read's radius."""
        grid = GridSpec(n_points)
        density = _density(MetricProfile(3.0))
        window = n_points // 8
        report = _spectrum("laplacian-functions", density, grid, window)
        read = battery_laplacian(density, math.sqrt(window))
        top = math.isqrt(window)
        squares = np.sort(np.arange(-top, top + 1) ** 2.0)
        assert report.eigenvalues.size == squares.size
        assert np.all(np.abs(report.eigenvalues - squares) <= read.radii)

    @pytest.mark.parametrize("window", [1, 2, 4, 8, 9, 16])
    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_the_window_bounds_lambda(self, flat_profile, operator, window, tmp_path):
        """--window bounds lambda and the read's frequency window is its
        root: on the flat circle ``spectrum`` writes the k^2 <= window, the
        squares on the edge included, 2 floor(window^{1/2}) + 1 values."""
        save_profile(flat_profile, tmp_path / "flat.json")
        assert cli.run(self._spectrum_argv(tmp_path / "flat.json", 128, window, operator,
                                           tmp_path)) == 0
        lines = (tmp_path / f"spectrum_{operator}_flat.csv").read_text().splitlines()
        values = np.array([float(line) for line in lines[2:]])
        top = math.isqrt(window)
        np.testing.assert_allclose(values, np.sort(np.arange(-top, top + 1) ** 2.0), atol=1e-10)

    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_a_window_above_n_over_8_reads_as_on_a_finer_grid(self, flat_profile, operator,
                                                              tmp_path, capsys):
        """The Galerkin read does not depend on N, so n_points/8 does not
        bound a Laplacian's window: on the flat circle at grid 64 and window
        9 ``spectrum`` exits 0 with the values it writes at grid 128, 9 among
        them, while both Dirac operators there still exit 2."""
        save_profile(flat_profile, tmp_path / "flat.json")
        written = []
        for n_points in (64, 128):
            out = tmp_path / str(n_points)
            argv = self._spectrum_argv(tmp_path / "flat.json", n_points, 9, operator, out)
            assert cli.run(argv) == 0
            written.append((out / f"spectrum_{operator}_flat.csv").read_text().splitlines()[2:])
        assert written[0] == written[1] and abs(float(written[0][-1]) - 9.0) <= 1e-10
        capsys.readouterr()
        for dirac in ("dirac-spinor", "dirac-forms"):
            argv = self._spectrum_argv(tmp_path / "flat.json", 64, 9, dirac, tmp_path / "dirac")
            assert cli.run(argv) == 2
            assert capsys.readouterr().err == (
                "error: window 9.0 exceeds the trusted range n_points/8 = 8.0\n")
        assert not (tmp_path / "dirac").exists()

    @pytest.mark.parametrize("window", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_a_window_that_is_not_positive_and_finite_is_refused(self, cosine_profile,
                                                                 operator, window, tmp_path,
                                                                 capsys):
        save_profile(cosine_profile, tmp_path / "wavy.json")
        argv = self._spectrum_argv(tmp_path / "wavy.json", 64, window, operator, tmp_path / "out")
        assert cli.run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: window must be positive and finite, got {float(window)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_the_report_carries_the_radii(self, cosine_profile, operator, tmp_path):
        """JSON's ``radii`` are the read's, one per eigenvalue, and the CSV
        header ends with the largest of them; no Dirac report has either."""
        save_profile(cosine_profile, tmp_path / "wavy.json")
        read = battery_laplacian(_density(cosine_profile), math.sqrt(8.0))
        argv = self._spectrum_argv(tmp_path / "wavy.json", 64, 8, operator, tmp_path)
        assert cli.run(argv) == 0
        lines = (tmp_path / f"spectrum_{operator}_wavy.csv").read_text().splitlines()
        assert lines[0].endswith(f",tag=dep,radius={read.radius:.17g}")
        assert cli.run([*argv, "--format", "json"]) == 0
        payload = json.loads((tmp_path / f"spectrum_{operator}_wavy.json").read_text())
        assert payload["eigenvalues"] == read.values.tolist()
        assert payload["radii"] == read.radii.tolist()
        for dirac in ("dirac-spinor", "dirac-forms"):
            argv = self._spectrum_argv(tmp_path / "wavy.json", 64, 8, dirac, tmp_path)
            assert cli.run(argv) == 0
            assert "radius" not in (tmp_path / f"spectrum_{dirac}_wavy.csv").read_text()
            assert cli.run([*argv, "--format", "json"]) == 0
            assert "radii" not in json.loads((tmp_path / f"spectrum_{dirac}_wavy.json").read_text())

    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_the_spin_structure_changes_nothing(self, cosine_profile, operator, tmp_path):
        """The Laplacians act on periodic sections whatever --spin says:
        ``spectrum`` writes the same bytes under either spin structure."""
        save_profile(cosine_profile, tmp_path / "wavy.json")
        written = []
        for spin in ("trivial", "nontrivial"):
            argv = self._spectrum_argv(tmp_path / "wavy.json", 64, 8, operator, tmp_path / spin)
            assert cli.run([*argv, "--spin", spin]) == 0
            written.append((tmp_path / spin / f"spectrum_{operator}_wavy.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("operator, label", [("laplacian-functions", "laplacian_function"),
                                                 ("laplacian-one-forms", "laplacian_one_form")])
    def test_json_counts_the_windowed_values(self, operator, label, cosine_profile, tmp_path):
        save_profile(cosine_profile, tmp_path / "wavy.json")
        argv = self._spectrum_argv(tmp_path / "wavy.json", 64, 8, operator, tmp_path)
        assert cli.run([*argv, "--format", "json"]) == 0
        payload = json.loads((tmp_path / f"spectrum_{operator}_wavy.json").read_text())
        assert payload["operator_label"] == f"{label}[N=64]"
        assert payload["n_total"] == len(payload["eigenvalues"]) == 5

    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_a_mutant_stiffness_exits_2(self, cosine_profile, operator, tmp_path, monkeypatch,
                                        capsys):
        """j^2 g_{j-k} in place of jk g_{j-k}: ``spectrum`` of 2 + cos t exits
        2, naming the operator, the last predicted Galerkin order and its
        radius, and writes nothing; the honest read exits 0."""
        save_profile(cosine_profile, tmp_path / "wavy.json")
        argv = self._spectrum_argv(tmp_path / "wavy.json", 128, 16, operator, tmp_path / "out")
        monkeypatch.setattr(spectral, "galerkin_matrices", _mutant_matrices)
        assert cli.run(argv) == 2
        assert re.search(r"error: operator 'laplacian_\w+\[N=128\]' is refused: the function "
                         r"Laplacian of the density .* at the last "
                         r"predicted Galerkin order K = \d+ the largest radius is "
                         r"\d\.\d+e[+-]\d+", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        monkeypatch.undo()
        assert cli.run(argv) == 0

    @pytest.mark.parametrize("operator", ["laplacian-functions", "laplacian-one-forms"])
    def test_a_density_near_zero_is_refused_unsolved(self, operator, tmp_path, monkeypatch,
                                                     capsys):
        """1 + 0.999 cos t at grid 64 and window 8: its order at the frequency
        window 8^{1/2} exceeds GALERKIN_ORDER_CAP, so ``spectrum`` exits 2,
        naming the cap, with no ``galerkin_read`` call and no file."""
        save_profile(MetricProfile(1.0, (ProfileTerm(0, 1, 0.999),)), tmp_path / "near.json")
        solved = []
        monkeypatch.setattr(spectral, "galerkin_read", lambda *args: solved.append(args))
        argv = self._spectrum_argv(tmp_path / "near.json", 64, 8, operator, tmp_path / "out")
        assert cli.run(argv) == 2
        assert re.search(r"is refused: the function Laplacian of the density .* exceeds "
                         r"GALERKIN_ORDER_CAP = 512 \(not solved\)", capsys.readouterr().err)
        assert solved == []
        assert not (tmp_path / "out").exists()


def _unsplit_read(coefficients, order, window, lower) -> spectral.LaplacianRead:
    """The Galerkin read solved in the full basis, one dense (2K + 1)-dimensional
    Ritz problem with no split into residue classes, and its radii as
    ``galerkin_read`` takes them for g_low = ``lower`` (``spectral``)."""
    bandwidth = coefficients.size // 2
    mass, stiffness = spectral.galerkin_matrices(coefficients, order)
    interior = slice(bandwidth, bandwidth + 2 * order + 1)
    factor = np.linalg.cholesky(mass[interior])
    reduced = np.linalg.solve(factor, stiffness[interior])
    values, vectors = np.linalg.eigh(np.linalg.solve(factor, reduced.conj().T))
    windowed = np.abs(values) <= window * window + spectral.WINDOW_EDGE_SLACK
    ritz, c = values[windowed], np.linalg.solve(factor.conj().T, vectors[:, windowed])
    mass_c = mass @ c
    residual = stiffness @ c - mass_c * ritz
    magnitude = np.abs(stiffness) @ np.abs(c) + (np.abs(mass) @ np.abs(c)) * np.abs(ritz)
    rounding = math.sqrt(2.0) * spectral.gamma(2 * order + 5) * np.linalg.norm(magnitude, axis=0)
    norm = np.sum(c.conj() * mass_c[interior], axis=0).real
    radii = (np.linalg.norm(residual, axis=0) + rounding) / np.sqrt(lower * norm)
    return spectral.LaplacianRead(ritz, radii, order)


# tools/ledger.py's seeds and its grids with their windows
LEDGER_SEEDS = (*range(42), 7041)
LEDGER_GRIDS = ((64, 8.0), (128, 10.0), (256, 10.0))

# Given densities by the gcd d of their frequencies: d = 1 from 2 and 3,
# without a frequency 1; d = 2 from 2 and 4; d = 3 from 3 and 6; d = 4 from
# one t-term beside a theta-term that the theta-average drops.
GIVEN_BY_PERIOD = {
    1: MetricProfile(2.0, (ProfileTerm(0, 2, 0.3), ProfileTerm(0, 3, 0.2, 0.0, 1.0))),
    2: MetricProfile(2.0, (ProfileTerm(0, 2, 0.3), ProfileTerm(0, 4, 0.2, 0.0, 0.4))),
    3: MetricProfile(2.0, (ProfileTerm(0, 3, 0.3), ProfileTerm(0, 6, 0.1, 0.0, 1.0))),
    4: MetricProfile(2.0, (ProfileTerm(0, 4, 0.3, 0.0, 0.5), ProfileTerm(1, 1, 0.4))),
}


def _ledger_densities() -> list:
    """The distinct densities of the pairs ``verify --all`` draws for the
    ledger's seeds: the constant 2 and each pair's 2 + a cos(2t + psi)."""
    densities = {}
    for seed in LEDGER_SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(5):
            for profile in verify.random_pair(rng):
                density = _density(profile)
                densities[density.coefficients.tobytes()] = density
    return list(densities.values())


class TestGalerkinBlocks:
    """The Galerkin read in residue classes against the unsplit solve.  G and
    A vanish exactly off the classes of k modulo d, so both reads are Ritz
    values of one problem and differ by the solves' round-off: by at most
    both reads' radii plus twice ``conftest.galerkin_rounding``."""

    @staticmethod
    def _assert_agrees(density, window):
        read = battery_laplacian(density, window)
        oracle = _unsplit_read(density.coefficients, read.order, window,
                               density.average.min_bound)
        allowance = read.radii + oracle.radii + 2.0 * galerkin_rounding(read, density)
        assert read.values.size == oracle.values.size
        assert np.all(np.abs(read.values - oracle.values) <= allowance)
        assert read.radius <= LAPLACIAN_FORMS_THRESHOLD
        assert oracle.radius <= LAPLACIAN_FORMS_THRESHOLD

    @pytest.mark.parametrize("n_points, window", LEDGER_GRIDS)
    def test_generated_densities_agree_with_the_unsplit_read(self, n_points, window):
        """At each window of the ledger; ``n_points`` names the ledger's grid,
        which the read does not take."""
        densities = _ledger_densities()
        assert len(densities) == 1 + 5 * len(LEDGER_SEEDS)
        for density in densities:
            self._assert_agrees(density, window)

    @pytest.mark.parametrize("period", [0, *GIVEN_BY_PERIOD])
    def test_given_densities_agree_with_the_unsplit_read(self, period):
        density = _density(GIVEN_BY_PERIOD.get(period, MetricProfile(2.0)))
        coefficients, bandwidth = density.coefficients, density.t_bandwidth
        frequencies = [m for m in range(1, bandwidth + 1) if coefficients[bandwidth + m] != 0]
        assert math.gcd(*frequencies) == period
        self._assert_agrees(density, 10.0)

    def test_a_split_by_two_of_an_odd_frequency_leaves_a_large_radius(self, monkeypatch):
        """Splitting 2 + cos t (d = 1) by d = 2 drops the coupling of even and
        odd k: the full-basis residual holds it, so the radius exceeds the
        tolerance at every order and the battery refuses the density."""
        honest = spectral._residue_classes
        density = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)))
        order, lower = _predicted_order(density, 8.0), density.average.min_bound
        assert spectral.galerkin_read(density.coefficients, order, 8.0, lower).radius <= (
            LAPLACIAN_FORMS_THRESHOLD)
        monkeypatch.setattr(spectral, "_residue_classes", lambda period, size: honest(2, size))
        assert spectral.galerkin_read(density.coefficients, order, 8.0, lower).radius > 1e-3
        with pytest.raises(ValueError, match="last predicted Galerkin order"):
            battery_laplacian(density, 8.0)

    @pytest.mark.parametrize("period, size, shapes", [
        (0, 19, [(19, 1)]), (1, 59, [(1, 59)]), (2, 41, [(1, 21), (1, 20)]),
        (2, 43, [(1, 22), (1, 21)]), (3, 41, [(2, 14), (1, 13)]), (4, 40, [(4, 10)]),
        (50, 41, [(41, 1)])])
    def test_classes_cover_the_basis_in_at_most_two_sizes(self, period, size, shapes):
        groups = spectral._residue_classes(period, size)
        assert [group.shape for group in groups] == shapes
        positions = np.concatenate([group.ravel() for group in groups])
        assert np.array_equal(np.sort(positions), np.arange(size))
        for group in groups:
            assert np.all(group % max(period, 1) == group[:, :1] % max(period, 1))


def _transposed_factor_pairs(mass, stiffness, limit):
    """``spectral._windowed_ritz_pairs`` with M^T in place of M^H, a mutant."""
    inverse = np.linalg.inv(np.linalg.cholesky(mass))
    transpose = inverse.swapaxes(1, 2)
    values, vectors = np.linalg.eigh(inverse @ stiffness @ transpose)
    classes, columns = np.nonzero(np.abs(values) <= limit)
    vectors = transpose @ vectors[:, :, : columns.max(initial=-1) + 1]
    return values[classes, columns], vectors[classes, :, columns], classes


class TestWindowedRitzPairs:
    """``_windowed_ritz_pairs`` against ``scipy.linalg.eigh(A, G)`` on stacks
    of random Hermitian A and Hermitian positive definite G = Q diag(s) Q^H,
    cond(G) up to 1e3.  The allowances are derived, with u = eps, t =
    sqrt(2) gamma_{n+2} the relative error of a complex product of rows of n
    terms (Higham, section 3.6), so |fl(fl(X Y) Z) - X Y Z| <= (2t + t^2)
    |X| |Y| |Z|, and eigh's backward error and the orthonormality error of
    its vectors taken as n eps ||C||_2 and n eps, the convention of
    ``conftest.galerkin_rounding``.  Every norm and magnitude computed here
    is multiplied by 1 + gamma_{n^2 + 2n + 2}, which covers its own
    rounding (Higham, Lemma 3.3).

    * The oracle's values w_k and vectors V, by congruence: lambda_k(A, G) =
      lambda_k(P, I + F), P = V^H A V, F = V^H G V - I, and with eta =
      ||F||_2 < 1 Ostrowski's theorem puts lambda_k(A, G) at theta
      lambda_k(P), theta in [1 / (1 + eta), 1 / (1 - eta)]; Weyl puts
      lambda_k(P) within ||P - diag(w)||_2 of w_k.  So w_k is within b_k =
      ||E|| + eta (|w_k| + ||E||) / (1 - eta) of lambda_k(A, G), E = P -
      diag(w), and |lambda_k(A, G)| <= (|w_k| + ||E||) / (1 - eta).
    * The read's values, through its own M = inv(cholesky(G)), recorded:
      the computed C = fl(fl(M A) M^H), of which eigh reads the lower
      triangle, is within delta = (2t + t^2) || |M| |A| |M^H| ||_F of
      M A M^H, so rho_k is within n eps ||C||_2 + delta of lambda_k(M A
      M^H), and by the same congruence, with eta_M = ||M G M^H - I||_2,
      lambda_k(M A M^H) is within eta_M |lambda_k(A, G)| of lambda_k(A, G).
      The allowance of |rho_k - w_k| is the sum of the two.
    * c = fl(M^H y), y a unit vector of C: c^H G c - 1 is y^H y - 1 (at most
      n eps) plus y^H (M G M^H - I) y (at most eta_M (1 + n eps)) plus the
      rounding of c, |dc| <= t |M^H| |y|, which moves c^H G c by at most
      ||G|| t ||M||_F^2 (2 + t)(1 + n eps), plus the rounding of the
      computed c^H G c, (2t + t^2) |c|^H |G| |c|.
    """

    SIZES = (1, 12, 24, 60)
    CONDITIONS = (10.0, 1e2, 1e3)

    @classmethod
    def _stack(cls, size):
        """A (3, n, n) stack of Hermitian A and of G of the three conditions."""
        rng = np.random.default_rng(size)
        shape = (len(cls.CONDITIONS), size, size)
        noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stiffness = noise + np.conjugate(noise).swapaxes(1, 2)
        unitary = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
        scales = [rng.uniform(0.5, 2.0) * np.geomspace(1.0, condition, size)
                  for condition in cls.CONDITIONS]
        mass = (unitary * np.array(scales)[:, None, :]) @ np.conjugate(unitary).swapaxes(1, 2)
        mass = 0.5 * (mass + np.conjugate(mass).swapaxes(1, 2))
        return mass, stiffness

    @staticmethod
    def _congruence(a, g, x, diagonal):
        """Upper bounds of ||X^H A X - diag||_2 and of ||X^H G X - I||_2."""
        n = a.shape[0]
        t = math.sqrt(2.0) * spectral.gamma(n + 2)
        grow = 1.0 + spectral.gamma(n * n + 2 * n + 2)
        xh = np.conjugate(x).T
        bounds = []
        for matrix, target in ((a, np.diag(diagonal)), (g, np.eye(n))):
            computed = np.linalg.norm(xh @ (matrix @ x) - target) / (1.0 - EPS)
            magnitude = np.linalg.norm(np.abs(xh) @ np.abs(matrix) @ np.abs(x))
            bounds.append(grow * (computed + (2.0 * t + t * t) * magnitude))
        return bounds

    @classmethod
    def _failures(cls, pairs_function, mass, stiffness, monkeypatch) -> list:
        """Run ``pairs_function`` on the stack at a limit between two of the
        oracle's values, recording its linalg calls, and list every check of
        the class docstring that it fails."""
        size = mass.shape[1]
        oracle = [scipy.linalg.eigh(a, g) for a, g in zip(stiffness, mass)]
        magnitudes = np.sort(np.abs(np.concatenate([w for w, _ in oracle])))
        middle = magnitudes.size // 2
        limit = 0.5 * (magnitudes[middle - 1] + magnitudes[middle])
        calls = {"cholesky": [], "inv": [], "eigh": []}

        def recording(solver, record):
            def recorded(*args):
                record.append(solver(*args))
                return record[-1]
            return recorded

        for name, record in calls.items():
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name), record))
        values, vectors, classes = pairs_function(mass, stiffness, limit)
        monkeypatch.undo()
        failures = [name for name, record in calls.items() if len(record) != 1]
        inverse, n = calls["inv"][-1], size
        t = math.sqrt(2.0) * spectral.gamma(n + 2)
        grow = 1.0 + spectral.gamma(n * n + 2 * n + 2)
        for index, ((w, v), a, g) in enumerate(zip(oracle, stiffness, mass)):
            error, eta = cls._congruence(a, g, v, w)
            assert eta < 1.0
            m = inverse[index]
            magnitude = np.linalg.norm(np.abs(m) @ np.abs(a) @ np.abs(m.conj().T))
            eta_m = cls._congruence(a, g, m.conj().T, np.ones(n))[1]
            assert eta_m < 1.0
            allowance = (error + eta * (np.abs(w) + error) / (1.0 - eta)
                         + grow * (n * EPS * (1.0 + 2.0 * t + t * t) + 2.0 * t + t * t) * magnitude
                         + eta_m * (np.abs(w) + error) / (1.0 - eta))
            # no oracle value within its allowance of the edge, so the counts agree
            assert np.all(np.abs(np.abs(w) - limit) > allowance)
            inside, mine = np.abs(w) <= limit, classes == index
            if np.count_nonzero(mine) != np.count_nonzero(inside):
                failures.append(f"count {index}")
            elif not np.all(np.abs(values[mine] - w[inside]) <= allowance[inside]):
                failures.append(f"values {index}")
            c = vectors[mine].T
            norms = np.sum(np.conjugate(c) * (g @ c), axis=0).real
            bound = (n * EPS + eta_m * (1.0 + n * EPS)
                     + grow * np.linalg.norm(g) * t * np.linalg.norm(m) ** 2 * (2.0 + t)
                     * (1.0 + n * EPS)
                     + grow * (2.0 * t + t * t)
                     * np.sum(np.abs(c) * (np.abs(g) @ np.abs(c)), axis=0))
            if not np.all(np.abs(norms - 1.0) <= bound):
                failures.append(f"norms {index}")
        return failures

    @pytest.mark.parametrize("size", SIZES)
    def test_the_pairs_match_the_generalized_oracle(self, size, monkeypatch):
        """Windowed values within the derived allowance of scipy's, in order
        per class, c^H G c = 1 within its bound, and one Cholesky, one
        inverse and one eigh call for the stack."""
        mass, stiffness = self._stack(size)
        assert self._failures(spectral._windowed_ritz_pairs, mass, stiffness, monkeypatch) == []

    @pytest.mark.parametrize("size", SIZES[1:])
    def test_a_transposed_factor_fails_the_oracle(self, size, monkeypatch):
        """M^T in place of M^H: a complex M makes M A M^T non-Hermitian, and
        c^H G c is no longer 1."""
        mass, stiffness = self._stack(size)
        failures = self._failures(_transposed_factor_pairs, mass, stiffness, monkeypatch)
        assert any(failure.startswith(("values", "count")) for failure in failures)
        assert any(failure.startswith("norms") for failure in failures)


class TestStripWidth:
    """``strip_width`` on the cases its rule singles out; its values are
    audited against closed forms and mpmath roots in ``test_allowances``."""

    def test_a_coefficient_below_eps_is_left_out(self):
        """2 + 1e-300 cos nt reads as a constant, eta infinite, and a tiny
        top frequency beside cos t leaves cos t's eta, acosh(2) = 1.317."""
        for n in (1, 2):
            coefficients = _density(MetricProfile(2.0, (ProfileTerm(0, n, 1e-300),))).coefficients
            assert spectral.strip_width(coefficients) == math.inf
        coefficients = _density(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),
                                                    ProfileTerm(0, 8, 1e-300)))).coefficients
        assert spectral.strip_width(coefficients) == pytest.approx(math.acosh(2.0), rel=1e-12)

    def test_no_positive_coefficient_bound_still_has_a_strip(self):
        """1 + 0.6 cos t + 0.6 cos 2t: g_0 <= 2 sum |g_m|, where the cosh
        bound's strip reads 0, but the zeros give eta = 0.511."""
        coefficients = _density(MetricProfile(1.0, (ProfileTerm(0, 1, 0.6),
                                                    ProfileTerm(0, 2, 0.6)))).coefficients
        assert coefficients[2].real - 2.0 * np.abs(coefficients[3:]).sum() <= 0.0
        assert spectral.strip_width(coefficients) == pytest.approx(0.5110, abs=1e-4)

    def test_a_zero_on_the_line_gives_zero(self):
        """1 + cos t vanishes at t = pi, a double zero on the circle, which
        the companion resolves to about eps^{1/2}."""
        assert spectral.strip_width(np.array([0.5, 1.0, 0.5], complex)) < 1e-7

    def test_zero_coefficients_are_a_constant(self):
        coefficients = np.array([0.0, 0.0, 1.0, 0.0, 0.0], complex)
        assert spectral.strip_width(coefficients) == math.inf


class TestSpectrumCompare:
    def test_identical_reports(self, cosine_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(cosine_profile), grid64)
        report = eigenvalues_weighted(op)
        assert spectrum_compare(report, report, 8.0) == 0.0

    def test_metric_invariance_within_window(self, cosine_profile, grid128):
        flat = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(MetricProfile(1.0)), grid128)
        )
        wavy = eigenvalues_weighted(
            assemble_basic_dirac_spinor(_density(cosine_profile), grid128)
        )
        assert spectrum_compare(flat, wavy, 10.0) < 1e-8

    def test_laplacian_spectra_genuinely_differ(self, grid128):
        flat = _spectrum("laplacian-functions", _density(MetricProfile(1.0)), grid128,
                         10.0)
        wavy_profile = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
        wavy = _spectrum("laplacian-functions", _density(wavy_profile), grid128, 10.0)
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
        op = assemble_basic_dirac_spinor(_density(cosine_profile), grid64)
        rng = np.random.default_rng(11)
        alpha = 1.5 + 0.4 * np.cos(grid64.t_nodes + rng.uniform(0, 2 * np.pi))
        root = np.sqrt(alpha)
        conjugated = (op.matrix * root[None, :]) / root[:, None]
        reference = np.sort(eigenvalues_weighted(op).eigenvalues)
        raw = np.sort(np.linalg.eigvals(conjugated).real)
        assert np.max(np.abs(raw - reference)) < 1e-9

    def test_refinement_stability(self, cosine_profile):
        """The Laplacian ``spectrum`` reads the density's exact coefficients,
        which do not depend on the grid: grids 64 and 128 give its values
        bit for bit."""
        coarse, fine = (_spectrum("laplacian-functions", _density(cosine_profile),
                                  GridSpec(n), 8.0) for n in (64, 128))
        assert np.array_equal(coarse.in_window(8.0), fine.in_window(8.0))


class TestSerialization:
    def test_csv_one_eigenvalue_per_row(self, cosine_profile, grid64):
        op = assemble_basic_dirac_spinor(_density(cosine_profile), grid64)
        report = eigenvalues_weighted(op)
        lines = _spectrum_text(report, "csv", 8.0).strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "eigenvalue"
        values = np.array([float(line) for line in lines[2:]])
        np.testing.assert_allclose(values, np.arange(-8, 9), atol=1e-8)

    def test_json_metadata(self, cosine_profile, grid64):
        import json

        op = assemble_basic_dirac_spinor(_density(cosine_profile), grid64)
        report = eigenvalues_weighted(op)
        payload = json.loads(_spectrum_text(report, "json", 8.0))
        assert payload["grid_size"] == 64
        assert payload["window"] == 8.0
        assert payload["n_total"] == 64
        assert len(payload["eigenvalues"]) == 17
