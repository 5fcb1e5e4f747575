"""Weighted eigensolves, window handling, spectrum comparison."""

import math

import numpy as np
import pytest

from foliation_lab import (
    GridSpec,
    MetricProfile,
    ProfileTerm,
    assemble_basic_dirac_spinor,
    assemble_basic_laplacian,
    eigenvalues_weighted,
    spectrum_compare,
)
from foliation_lab import spectral
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_forms,
    quadrature_weights,
    twisted_differential,
)
from foliation_lab.spectral import OperatorSymmetryError, SpectrumReport, forms_dirac_spectrum


def _density(profile, grid):
    return LeafVolumeDensity.from_profile(profile, grid)


class TestEigenvaluesWeighted:
    def test_diagonal_matrix(self):
        op = WeightedOperator(np.diag([3.0, 1.0, 2.0]), np.ones(3), "diag", 8)
        report = eigenvalues_weighted(op)
        np.testing.assert_allclose(report.eigenvalues, [1.0, 2.0, 3.0])
        assert report.window == 1.0
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

    def test_window_recorded_from_grid(self, cosine_profile, grid128):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid128), grid128)
        assert eigenvalues_weighted(op).window == 16.0


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
        grid = GridSpec(n_points)
        density = _density(request.getfixturevalue(profile_name), grid)
        oracle = eigenvalues_weighted(assemble_basic_dirac_forms(density, grid))
        report = forms_dirac_spectrum(density, grid)
        assert report.operator_label == oracle.operator_label
        assert (report.window, report.grid_size) == (oracle.window, oracle.grid_size)
        np.testing.assert_allclose(report.eigenvalues, oracle.eigenvalues, rtol=0.0, atol=1e-12)

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

    def test_refuses_broken_twisted_differential(self, cosine_profile, grid64, monkeypatch):
        def broken(density, grid):
            return twisted_differential(density, grid) + 1e-6 * np.eye(grid.n_points)

        monkeypatch.setattr(spectral, "twisted_differential", broken)
        with pytest.raises(OperatorSymmetryError, match="dirac_forms"):
            forms_dirac_spectrum(_density(cosine_profile, grid64), grid64)


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
        a = SpectrumReport(np.array([0.0, 1.0, 2.0]), 8.0, 64, "a")
        b = SpectrumReport(np.array([0.0, 1.0]), 8.0, 64, "b")
        assert math.isinf(spectrum_compare(a, b, 8.0))

    def test_empty_window(self):
        a = SpectrumReport(np.array([50.0]), 8.0, 64, "a")
        b = SpectrumReport(np.array([60.0]), 8.0, 64, "b")
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
    def test_csv_one_eigenvalue_per_row(self, cosine_profile, grid64, tmp_path):
        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        path = tmp_path / "spectrum.csv"
        report.to_csv(path, window=8.0)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "eigenvalue"
        values = np.array([float(line) for line in lines[2:]])
        np.testing.assert_allclose(values, np.arange(-8, 9), atol=1e-8)

    def test_json_metadata(self, cosine_profile, grid64, tmp_path):
        import json

        op = assemble_basic_dirac_spinor(_density(cosine_profile, grid64), grid64)
        report = eigenvalues_weighted(op)
        path = tmp_path / "spectrum.json"
        report.to_json(path, window=8.0)
        payload = json.loads(path.read_text())
        assert payload["grid_size"] == 64
        assert payload["window"] == 8.0
        assert payload["n_total"] == 64
        assert len(payload["eigenvalues"]) == 17
