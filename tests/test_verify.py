"""Verification harnesses: invariance battery, residual identities, contrasts."""

import importlib
import inspect
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from foliation_lab import _spectral_diff, cli, operators, spectral, verify
from foliation_lab._spectral_diff import differentiation_matrix
from foliation_lab.basic_calculus import LeafVolumeDensity, project_basic
from foliation_lab.model_spaces import (
    GridSpec,
    MetricProfile,
    ProfileTerm,
    torus_geometry,
    torus_metric_sample,
)
from foliation_lab.operators import (
    WeightedOperator,
    assemble_lichnerowicz_sides,
    forms_label,
    quadrature_weights,
)
from foliation_lab.spectral import (
    WINDOW_EDGE_SLACK,
    OperatorSymmetryError,
    dirac_spectra,
    spectrum_compare,
)
from foliation_lab.verify import (
    LAPLACIAN_FORMS_THRESHOLD,
    conjugation_residual,
    invariance_check,
    kappa_transform_residual,
    laplacian_dependence,
    lichnerowicz_diagonal,
    lichnerowicz_residual,
    pair_metadata,
    random_profile,
    run_pair_checks,
    run_profile_checks,
    scal_relation_residual,
)

from conftest import exp_cos_profile, exp_sin_profile, pair_inputs, patch_factors, save_profile


# Each check run alone on the values its battery would pass it.
def invariance(p1, p2, grid, window):
    pair = pair_inputs(p1, p2, grid)
    return invariance_check(*pair.spectra, window, pair.metadata)


def kappa_transform(p1, p2, grid):
    pair = pair_inputs(p1, p2, grid)
    return kappa_transform_residual(*pair.densities, pair.alpha, grid, pair.metadata)


def conjugation(p1, p2, grid):
    pair = pair_inputs(p1, p2, grid)
    return conjugation_residual(*pair.densities, pair.alpha, grid, pair.metadata)


def contrast(p1, p2, grid, window):
    pair = pair_inputs(p1, p2, grid)
    forms_bound = invariance_check(*pair.spectra, window, pair.metadata).metadata["forms_residual"]
    return laplacian_dependence(*pair.laplacians(window), forms_bound, window, pair.metadata)


def scal_relation(profile, grid):
    return scal_relation_residual(profile, grid, torus_geometry(profile, grid))


def lichnerowicz(profile, grid):
    return lichnerowicz_residual(profile, grid, torus_geometry(profile, grid))


class TestInvarianceCheck:
    def test_same_profile_zero_residual(self, cosine_profile, grid64):
        report = invariance(cosine_profile, cosine_profile, grid64, 8.0)
        assert report.passed
        assert report.residual < 1e-12

    def test_flat_versus_wavy(self, flat_profile, cosine_profile, grid128):
        report = invariance(flat_profile, cosine_profile, grid128, 10.0)
        assert report.passed
        assert report.residual < 1e-8

    def test_theta_dependent_pair(self, cosine_profile, mixed_profile, grid128):
        report = invariance(cosine_profile, mixed_profile, grid128, 10.0)
        assert report.passed

    def test_spinor_and_forms_verdicts_agree(self, flat_profile, mixed_profile, grid128):
        report = invariance(flat_profile, mixed_profile, grid128, 10.0)
        spinor_ok = report.metadata["spinor_residual"] <= report.threshold
        forms_ok = report.metadata["forms_residual"] <= report.threshold
        assert spinor_ok == forms_ok

    def test_window_beyond_trust_rejected(self, flat_profile, cosine_profile, grid64):
        with pytest.raises(ValueError, match="window"):
            run_pair_checks([(flat_profile, cosine_profile)], grid64, 20.0)

    def test_counts_are_the_lattice_counts(self, flat_profile, mixed_profile, grid128):
        report = invariance(flat_profile, mixed_profile, grid128, 10.0)
        assert report.metadata["spinor_counts"] == [21, 21]
        assert report.metadata["forms_counts"] == [42, 42]
        distances = report.metadata["projection_distance"]
        assert len(distances) == 2 and max(distances) < 1e-10

    def test_window_edge_on_a_lattice_point_is_not_a_silent_pass(
        self, flat_profile, cosine_profile, grid128
    ):
        """At window 10 - WINDOW_EDGE_SLACK the edge is the lattice point 10:
        the counts are not certified, so both verdicts read an infinite residual."""
        window = 10.0 - WINDOW_EDGE_SLACK
        report = invariance(flat_profile, cosine_profile, grid128, window)
        assert math.isinf(report.residual) and not report.passed
        assert "window edge" in report.metadata["diagnostic"]
        assert report.metadata["spinor_counts"] == [None, None]
        assert report.metadata["forms_counts"] == [None, None]
        squared = contrast(flat_profile, cosine_profile, grid128, window)
        assert math.isinf(squared.metadata["squared_forms_residual"]) and not squared.passed
        assert squared.metadata["diagnostic"] == report.metadata["diagnostic"]

    def test_residual_is_the_distances_plus_the_projected_deviation(
        self, cosine_profile, mixed_profile, grid128
    ):
        pair = pair_inputs(cosine_profile, mixed_profile, grid128)
        report = invariance_check(*pair.spectra, 10.0, pair.metadata)
        (spinor_1, forms_1), (spinor_2, forms_2) = pair.spectra
        distance = spinor_1.distance + spinor_2.distance
        spinor_bound = distance + spectrum_compare(spinor_1, spinor_2, 10.0)
        forms_bound = distance + spectrum_compare(forms_1, forms_2, 10.0)
        assert report.metadata["spinor_residual"] == spinor_bound
        assert report.metadata["forms_residual"] == forms_bound
        # sorting minimizes the largest deviation, and +-x pairs with +-y
        assert report.residual == spinor_bound >= forms_bound
        squared = laplacian_dependence(*pair.laplacians(10.0), forms_bound, 10.0, pair.metadata)
        assert squared.metadata["squared_forms_residual"] == (
            2.0 * (10.0 + WINDOW_EDGE_SLACK) * forms_bound
        )


class TestKappaTransform:
    def test_same_profile(self, cosine_profile, grid64):
        report = kappa_transform(cosine_profile, cosine_profile, grid64)
        assert report.residual < 1e-13
        assert report.metadata["alpha_min"] == pytest.approx(1.0)

    def test_flat_to_wavy_against_symbolic_oracle(self, flat_profile, cosine_profile, grid128):
        # alpha is the density ratio g2/g1 = 2 + cos t, so the transformed
        # coefficient must satisfy k2 = k1 - (log alpha)' exactly.
        t = sp.symbols("t")
        g2 = 2 + sp.cos(t)
        residual_expr = sp.simplify(-sp.diff(g2, t) / g2 - 0 + sp.diff(g2, t) / g2)
        assert residual_expr == 0
        report = kappa_transform(flat_profile, cosine_profile, grid128)
        assert report.residual < 1e-10

    def test_exponential_pair(self, cosine_profile, grid128):
        report = kappa_transform(exp_sin_profile(1.0), cosine_profile, grid128)
        assert report.passed
        assert report.residual < 1e-10


class TestConjugation:
    def test_same_profile(self, cosine_profile, grid64):
        assert conjugation(cosine_profile, cosine_profile, grid64).residual < 1e-12

    def test_flat_to_wavy(self, flat_profile, cosine_profile, grid128):
        assert conjugation(flat_profile, cosine_profile, grid128).residual < 1e-9

    def test_two_curved_profiles(self, grid128):
        p1 = MetricProfile(2.0, (ProfileTerm(0, 1, 0.5, 0.0, -np.pi / 2.0),))  # 2 + sin(t)/2
        p2 = exp_cos_profile(1.0)
        assert conjugation(p1, p2, grid128).residual < 1e-9


class TestScalRelation:
    def test_flat(self, flat_profile, grid64):
        report = scal_relation(flat_profile, grid64)
        assert report.residual < 1e-12

    def test_cosine_profile_and_symbolic_sides(self, cosine_profile, grid128):
        t = sp.symbols("t")
        f = 2 + sp.cos(t)
        kappa = -sp.diff(f, t) / f
        lhs = -2 * sp.diff(f, t, 2) / f
        rhs = -2 * kappa**2 + 2 * sp.diff(kappa, t)
        assert sp.simplify(lhs - rhs) == 0
        scal_fn = sp.lambdify(t, lhs)
        expected = scal_fn(grid128.t_nodes)
        np.testing.assert_allclose(
            expected, 2 * np.cos(grid128.t_nodes) / (2 + np.cos(grid128.t_nodes)), atol=1e-12
        )
        report = scal_relation(cosine_profile, grid128)
        assert report.residual < 1e-8

    def test_theta_dependent_profile(self, grid128):
        profile = MetricProfile(2.0, (ProfileTerm(1, 1, 0.5),))
        report = scal_relation(profile, grid128)
        assert report.residual < 1e-6

    def test_spectral_decay_under_refinement(self, cosine_profile):
        coarse = scal_relation(cosine_profile, GridSpec(16)).residual
        fine = scal_relation(cosine_profile, GridSpec(32)).residual
        assert coarse > 100.0 * fine


class TestLichnerowicz:
    def test_flat(self, flat_profile, grid64):
        report = lichnerowicz(flat_profile, grid64)
        assert report.residual < 1e-10

    def test_product_profile(self, product_profile, grid128):
        report = lichnerowicz(product_profile, grid128)
        assert report.passed
        assert report.residual < 1e-8

    def test_exponential_profile(self, grid128):
        report = lichnerowicz(exp_sin_profile(0.5), grid128)
        assert report.residual < 1e-8

    def test_non_basic_profile_skipped(self, skew_profile, grid128):
        report = lichnerowicz(skew_profile, grid128)
        assert report.metadata["skipped"] and "not basic" in report.metadata["reason"]
        assert report.passed and report.residual == 0.0
        assert "kappa_theta_variation" not in report.metadata

    def test_spectral_decay_under_refinement(self, cosine_profile):
        coarse = lichnerowicz(cosine_profile, GridSpec(16)).residual
        fine = lichnerowicz(cosine_profile, GridSpec(32)).residual
        assert coarse > 100.0 * fine

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("flat", GridSpec(64)),
            ("product", GridSpec(128)),
            ("exp_sin", GridSpec(128)),
            ("cosine", GridSpec(128, "nontrivial")),
            ("wavy8", GridSpec(64)),
        ],
    )
    def test_residual_is_the_dense_diagonal_within_the_allowance(
        self, name, grid, flat_profile, product_profile, cosine_profile
    ):
        """The residual is the computed max|c + p| plus its allowance, and the
        dense oracle's max|diag(lhs - rhs)| lies within that allowance of the
        computed value, also where aliasing dominates (t-bandwidth 8 at N = 64)."""
        profile = {
            "flat": flat_profile,
            "product": product_profile,
            "exp_sin": exp_sin_profile(0.5),
            "cosine": cosine_profile,
            "wavy8": MetricProfile(2.0, (ProfileTerm(0, 8, 0.9),)),
        }[name]
        density = LeafVolumeDensity.from_profile(profile)
        lhs, rhs = assemble_lichnerowicz_sides(density, grid)
        dense = float(np.max(np.abs(np.diagonal(lhs.matrix - rhs.matrix))))
        values, allowance = lichnerowicz_diagonal(density, grid.n_points)
        computed = float(np.max(np.abs(values)))
        assert lichnerowicz(profile, grid).residual == computed + allowance
        assert abs(dense - computed) <= allowance

    @pytest.mark.parametrize("name, n_points", [("product", 64), ("product", 128),
                                                 ("exp_sin", 128)])
    def test_spin_structures_give_the_same_residual(self, name, n_points, product_profile):
        """M = -diag(c + p) on either spin structure: D_s cancels."""
        profile = product_profile if name == "product" else exp_sin_profile(0.5)
        trivial, nontrivial = (lichnerowicz(profile, GridSpec(n_points, spin))
                               for spin in ("trivial", "nontrivial"))
        assert trivial.residual == nontrivial.residual
        assert trivial.metadata == nontrivial.metadata


class TestLaplacianDependence:
    def test_flat_versus_wavy(self, grid128):
        p1 = MetricProfile(1.0)
        p2 = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
        report = contrast(p1, p2, grid128, 10.0)
        assert report.passed
        assert report.metadata["laplacian_gap"] > 1e-3
        assert report.metadata["squared_forms_residual"] < 1e-8

    def test_identical_profiles_flagged(self, cosine_profile, grid128):
        report = contrast(cosine_profile, cosine_profile, grid128, 10.0)
        assert not report.passed
        assert "indistinguishable" in report.metadata["diagnostic"]

    def test_constant_rescale_keeps_dirac_spectrum(self, grid128):
        report = contrast(MetricProfile(1.0), MetricProfile(2.0), grid128, 10.0)
        # leaf-volume rescale: squared forms spectra agree exactly, no Laplacian gap
        assert report.metadata["squared_forms_residual"] < 1e-8
        assert not report.passed

    def test_constant_pairs_fail_as_coinciding(self, grid64):
        """Constant theta-averages 1 and 2, and 2 and 2.005: T = D for both
        densities of each pair, so their basic Laplacians coincide and the
        contrast fails as indistinguishable; no pair check is skipped."""
        for pair in ((MetricProfile(1.0), MetricProfile(2.0, (ProfileTerm(1, 0, 0.3),))),
                     (MetricProfile(2.0), MetricProfile(2.005))):
            report = run_pair_checks([pair], grid64, 8.0)[3]
            assert not report.passed and "skipped" not in report.metadata
            assert "indistinguishable" in report.metadata["diagnostic"]


class TestRandomProfiles:
    def test_positivity_and_budget(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            profile = random_profile(rng)
            total = sum(abs(term.amplitude) for term in profile.terms)
            assert profile.constant == 2.0 and 1 <= len(profile.terms) <= 3
            assert all(abs(term.m) <= 2 and abs(term.n) <= 2 for term in profile.terms)
            assert total <= 0.5
            assert profile.min_value(128) > 0.0

    def test_random_pair_has_a_constant_and_a_strong_density(self):
        """Each generated pair keeps its draws' m != 0 terms, and one profile,
        first or second, gains the density term a cos(2t + psi), a in
        [0.01, 0.1]: its theta-average is 2 + a cos(2t + psi), the other's
        the constant 2."""
        rng = np.random.default_rng(2024)
        firsts = []
        for _ in range(25):
            pair = verify.random_pair(rng)
            averages = [profile.theta_average() for profile in pair]
            strong = [index for index, average in enumerate(averages) if average.terms]
            assert len(strong) == 1
            firsts.append(strong[0] == 0)
            (term,) = averages[strong[0]].terms
            assert (term.m, term.n, term.phase_theta) == (0, 2, 0.0)
            assert 0.01 <= term.amplitude <= 0.1 and 0.0 <= term.phase_t <= 2.0 * np.pi
            assert averages[1 - strong[0]] == MetricProfile(2.0)
            assert pair[strong[0]].terms[-1] == term
            leafwise = pair[strong[0]].terms[:-1] + pair[1 - strong[0]].terms
            assert all(t.m for t in leafwise)
            for profile in pair:
                assert sum(abs(t.amplitude) for t in profile.terms) <= 0.6
        assert 0 < sum(firsts) < 25


def test_alpha_is_the_projected_volume_ratio(cosine_profile, mixed_profile):
    """alpha, the ratio of the two theta-sums, is P_b(f2/f1) under f1's
    weighting as ``project_basic`` computes it, for both orders of the
    cosine and mixed profiles.  Both divide by the same computed sum of f1.
    Each (f2/f1) f1 is f2 to a relative gamma_2, and each sum of N positive
    terms, added in turn, is exact to a relative gamma_{N-1}, so the
    numerators differ by at most a relative gamma_{2N}, and the quotients,
    rounded once each, by gamma_{2N+2}.  Measured: at most 7 eps."""
    for n_points in (64, 128, 256):
        grid = GridSpec(n_points)
        allowance = spectral.gamma(2 * n_points + 2)
        for p1, p2 in ((cosine_profile, mixed_profile), (mixed_profile, cosine_profile)):
            f1, f2 = torus_metric_sample(p1, grid), torus_metric_sample(p2, grid)
            projected = project_basic(f2 / f1, f1, grid)
            alpha = verify.basic_volume_ratio(p1, p2, grid)
            assert np.max(np.abs(alpha - projected) / projected) <= allowance


@pytest.mark.parametrize("n_points", [64, 128, 256])
def test_property_sweep_over_seeded_pairs(n_points):
    """Invariance, kappa transform, and conjugation pass for random pairs at every grid."""
    rng = np.random.default_rng(90125)
    grid = GridSpec(n_points)
    window = min(8.0, grid.trust_window)
    for _ in range(3):
        pair = pair_inputs(random_profile(rng), random_profile(rng), grid)
        report = invariance_check(*pair.spectra, window, pair.metadata)
        assert report.passed, report.metadata
        assert kappa_transform_residual(*pair.densities, pair.alpha, grid, pair.metadata).passed
        assert conjugation_residual(*pair.densities, pair.alpha, grid, pair.metadata).passed


# The t-bandwidth-8 density of ``tools/parity.py``: its Galerkin order is 87
# at window 8, above N/2 at grid 128.
WAVY_8 = MetricProfile(2.0, (ProfileTerm(0, 1, 0.5), ProfileTerm(0, 8, 0.2, 0.0, 0.7)))
# 1 + 0.6 cos t + 0.6 cos 2t is positive, but g_0 - 2 sum |g_m| = -0.2: its
# Galerkin read takes g_low from the positivity certificate, 0.314.
NO_LOWER_BOUND = MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6)))


# The first pair ``verify`` draws at its default seed 7041: 2 + a cos(2t + psi),
# a = 0.045, read at K = 20 at window 8, and the constant 2, at K = 9.
GENERATED_7041 = verify.random_pair(np.random.default_rng(7041))


@pytest.mark.parametrize(
    "n_points, pair, shapes",
    [
        # per density its Laplacian read, none of a Dirac operator: at N = 64
        # the flat density's is one Galerkin read at K = 9, whose 19 residue
        # classes (d = 0) are one stacked solve of 1 x 1 blocks, and 2 + cos t's
        # one class of dimension 59 (d = 1, K = 29 <= N/2); no N x N matrix is
        # built or solved
        (64, (MetricProfile(1.0), MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))),
         ([], [(19, 1, 1), (1, 59, 59)])),
        (128, (MetricProfile(1.0), MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))),
         ([], [(19, 1, 1), (1, 59, 59)])),
        # a generated pair: 2 + a cos(2t + psi) at K = 20 splits (d = 2) into
        # the 21 even k and the 20 odd k, one stacked solve per class size;
        # then the constant
        (64, GENERATED_7041, ([], [(1, 21, 21), (1, 20, 20), (19, 1, 1)])),
        # at N = 128 the t-bandwidth-8 density's K = 87 exceeds N/2: one
        # class of all 175 modes (d = 1), as at any grid
        (128, (MetricProfile(1.0), WAVY_8), ([], [(19, 1, 1), (1, 175, 175)])),
    ],
)
def test_pair_battery_solves_each_spectrum_once(monkeypatch, n_points, pair, shapes):
    """Per battery: two densities and one alpha; two Dirac reads with no
    eigensolve and no matrix, from one cached lattice per (grid, spin
    structure); one Laplacian read per distinct density: for a Galerkin read
    one stacked ``eigh`` call per size of the residue classes of its 2K + 1
    modes, at most two; no SVD, no assembly and no derivative matrix.
    ``shapes`` holds the ``eigvalsh`` and the ``eigh`` shapes."""
    grid = GridSpec(n_points)
    eigvalsh_sizes, eigh_sizes, svd_calls, built = [], [], [], []
    eigvalsh, eigh, svd = np.linalg.eigvalsh, np.linalg.eigh, np.linalg.svd
    from_profile = LeafVolumeDensity.from_profile.__func__
    assemble, ratio = operators.assemble_basic_dirac_spinor, verify.basic_volume_ratio

    def counted_eigvalsh(matrix, *args, **kwargs):
        eigvalsh_sizes.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    def counted_eigh(matrix, *args, **kwargs):
        eigh_sizes.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    def counted_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            built.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    # np.linalg.norm(x, 2) reaches svd through the implementation module
    monkeypatch.setattr(np.linalg._linalg, "svd", counted_svd)
    monkeypatch.setattr(LeafVolumeDensity, "from_profile",
                        classmethod(counted("density", from_profile)))
    monkeypatch.setattr(operators, "assemble_basic_dirac_spinor", counted("dirac", assemble))
    monkeypatch.setattr(verify, "basic_volume_ratio", counted("alpha", ratio))
    differentiation_matrix.cache_clear()
    spectral.circulant_spectrum.cache_clear()
    reports = run_pair_checks([pair], grid, 8.0)
    assert [report.passed for report in reports] == [True] * 4
    assert not any(report.metadata.get("skipped") for report in reports)
    # every report starts from the pair metadata
    for report in reports:
        for key, value in pair_metadata(*pair, grid).items():
            assert report.metadata[key] == value
    assert built == ["density", "density", "alpha"]
    assert (eigvalsh_sizes, eigh_sizes) == shapes
    assert svd_calls == []
    assert differentiation_matrix.cache_info().misses == 0
    assert spectral.circulant_spectrum.cache_info().misses == 1


def test_pair_battery_compares_each_dirac_spectrum_once(flat_profile, cosine_profile,
                                                        mixed_profile, grid64, monkeypatch):
    """Per pair whose contrast runs, two ``spectrum_compare`` calls, the
    spinor and then the forms spectra, both in ``invariance_check``: the
    contrast scales the forms bound that the invariance report recorded."""
    compared = []
    compare = verify.spectrum_compare

    def counted_compare(a, b, window):
        compared.append((a.operator_label, b.operator_label))
        return compare(a, b, window)

    monkeypatch.setattr(verify, "spectrum_compare", counted_compare)
    pairs = [(flat_profile, cosine_profile), (cosine_profile, mixed_profile)]
    reports = run_pair_checks(pairs, grid64, 8.0)
    labels = ["dirac_spinor[trivial,N=64]", forms_label(64)]
    assert compared == [(label, label) for label in labels] * len(pairs)
    for invariance, contrast_report in (reports[0], reports[3]), (reports[4], reports[7]):
        assert contrast_report.check_name == "laplacian_dependence"
        assert "skipped" not in contrast_report.metadata
        assert contrast_report.metadata["squared_forms_residual"] == (
            2.0 * (8.0 + WINDOW_EDGE_SLACK) * invariance.metadata["forms_residual"]
        )


@pytest.mark.parametrize(
    "n_points, first, orders",
    [(64, "cosine", [29, 23]), (128, "cosine", [29, 23]), (128, "low", [60, 23])],
)
def test_pair_battery_reads_dirac_spectra_from_the_weight_data(cosine_profile, mixed_profile,
                                                               monkeypatch, n_points, first,
                                                               orders):
    """No N x N matrix in the battery: two ``dirac_spectra`` reads of the
    pair's densities, no ``hermitian_spectrum``, no assembly, and a
    conjugation check on the same densities.  Each density's Laplacian is
    read once by ``function_laplacian``: one ``galerkin_read`` at its
    predicted order (K = 29 and 23 for 2 + cos t and the mixed profile, and
    60 for 1 + 0.6 cos t + 0.6 cos 2t, whose g_low is the certificate's).
    Every density has the frequency 1 (d = 1), so each read is one stacked
    ``eigh`` of one class of all 2K + 1 modes."""
    read, events, conjugated, galerkin, eigh_sizes = [], [], [], [], []
    eigh = np.linalg.eigh
    spectra = verify.dirac_spectra
    conjugate, galerkin_read = verify.conjugation_residual, spectral.galerkin_read
    first = cosine_profile if first == "cosine" else NO_LOWER_BOUND

    def recorded_read(density, grid):
        read.append(density)
        return spectra(density, grid)

    def recorded_galerkin(coefficients, order, window, lower):
        report = galerkin_read(coefficients, order, window, lower)
        galerkin.append((window, order, report.radius <= verify.LAPLACIAN_FORMS_THRESHOLD))
        return report

    def recorded_solve(op):
        events.append(("solve", op.label))

    def counted_eigh(matrix, *args, **kwargs):
        eigh_sizes.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    def recorded_conjugation(d1, d2, alpha, grid, metadata):
        conjugated.extend([d1, d2])
        return conjugate(d1, d2, alpha, grid, metadata)

    def refused_assembly(*args):
        raise AssertionError("the pair battery assembled a spinor matrix")

    monkeypatch.setattr(verify, "dirac_spectra", recorded_read)
    monkeypatch.setattr(WeightedOperator, "hermitian_spectrum", recorded_solve)
    monkeypatch.setattr(verify, "conjugation_residual", recorded_conjugation)
    monkeypatch.setattr(spectral, "galerkin_read", recorded_galerkin)
    monkeypatch.setattr(operators, "assemble_basic_dirac_spinor", refused_assembly)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    reports = run_pair_checks([(first, mixed_profile)], GridSpec(n_points), 8.0)
    assert [report.passed for report in reports] == [True] * 4
    assert reports[3].metadata["laplacian_order"] == orders
    assert read == conjugated
    assert events == []
    assert galerkin == [(8.0, order, True) for order in orders]
    assert eigh_sizes == [(1, 2 * order + 1, 2 * order + 1) for order in orders]
    assert not hasattr(verify, "assemble_basic_dirac_spinor")
    assert not hasattr(spectral, "assemble_basic_dirac_spinor")


# Three profiles whose densities have the same bytes, constant 2: the second's
# theta-average is flat, the third's is 2 + 1e-300 cos t, which rounds to 2.
FLAT_2 = MetricProfile(2.0)
FLAT_2_SKEW = MetricProfile(2.0, (ProfileTerm(1, 0, 0.5),))
FLAT_2_TINY = MetricProfile(2.0, (ProfileTerm(0, 1, 1e-300),))
WAVY = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))


def _generated_pairs(seed: int, count: int = 5) -> list:
    """The pairs ``verify --seed`` draws."""
    rng = np.random.default_rng(seed)
    return [verify.random_pair(rng) for _ in range(count)]


WAVY_TINY_8 = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(0, 8, 1e-300)))


@pytest.mark.parametrize(
    "n_points, pairs, reads",
    [
        *[(64, _generated_pairs(seed), None) for seed in (1, 4, 5)],
        # the constant 2, shared by every generated pair, is read once: a
        # Dirac read per density, and a Laplacian read per distinct one
        (64, _generated_pairs(7041),
         [("dirac",)] * 2 + [("laplacian", 2, 20), ("laplacian", 0, 9)]
         + [("dirac",)] * 2 + [("laplacian", 2, 21)]
         + [("dirac",)] * 2 + [("laplacian", 2, 21)]
         + [("dirac",)] * 2 + [("laplacian", 2, 20)]
         + [("dirac",)] * 2 + [("laplacian", 2, 19)]),
        (128, _generated_pairs(1), None),
        # constant 2 read for a pair of equal densities, then reused in the
        # second pair; every pair reads its two Dirac spectra
        (64, [(FLAT_2, FLAT_2_SKEW), (WAVY, FLAT_2)],
         [("dirac",)] * 2 + [("laplacian", 0, 9)] + [("dirac",)] * 2
         + [("laplacian", 1, 29)]),
        # equal bytes, bandwidths 0 and 1: two Laplacian reads, both
        # Galerkin reads at K = 9, the first at the constant's order, the
        # second as the trimmed coefficients are constant
        (64, [(FLAT_2, FLAT_2_TINY), (FLAT_2_TINY, WAVY), (FLAT_2, FLAT_2_SKEW)],
         [("dirac",)] * 2 + [("laplacian", 0, 9), ("laplacian", 1, 9)]
         + [("dirac",)] * 2 + [("laplacian", 1, 29)] + [("dirac",)] * 2),
        # equal bytes, bandwidths 1 and 8: two Galerkin reads, as the
        # round-off of DFT coefficients 2 to 8 is read; then one read of
        # 1 + 0.6 cos t + 0.6 cos 2t, as 2 + cos t's read is already made
        (128, [(WAVY, FLAT_2), (WAVY_TINY_8, FLAT_2), (NO_LOWER_BOUND, WAVY)],
         [("dirac",)] * 2 + [("laplacian", 1, 29), ("laplacian", 0, 9)]
         + [("dirac",)] * 2 + [("laplacian", 8, 29)]
         + [("dirac",)] * 2 + [("laplacian", 2, 60)]),
    ],
)
def test_pair_memo_changes_no_report(monkeypatch, n_points, pairs, reads):
    """One battery over the pairs gives, field for field and bitwise, the
    reports of one battery per pair: the memo of ``function_laplacian``
    reads returns what a fresh read computes.
    ``reads`` lists the battery's reads in order, a Laplacian read with its
    density's t-bandwidth and its Galerkin order."""
    grid = GridSpec(n_points)
    recorded, spectra, laplacian = [], verify.dirac_spectra, verify.function_laplacian

    def recorded_read(density, grid):
        recorded.append(("dirac",))
        return spectra(density, grid)

    def recorded_laplacian(density, *args):
        report = laplacian(density, *args)
        recorded.append(("laplacian", density.t_bandwidth, report.order))
        return report

    monkeypatch.setattr(verify, "dirac_spectra", recorded_read)
    monkeypatch.setattr(verify, "function_laplacian", recorded_laplacian)
    batched = run_pair_checks(pairs, grid, 8.0)
    if reads is not None:
        assert recorded == reads
    separate = [report for pair in pairs for report in run_pair_checks([pair], grid, 8.0)]
    assert len(batched) == len(separate) == 4 * len(pairs)
    for one, other in zip(batched, separate):
        assert vars(one) == vars(other)


def test_one_profile_is_one_density_on_every_grid(flat_profile, cosine_profile, tmp_path,
                                                  monkeypatch):
    """The density holds no grid: ``verify --profiles`` at grids 64 and 256
    builds, per profile, equal and equally hashed densities, one memo key
    across both commands; reads their Laplacians bit for bit in values,
    radii and order; and writes the same contrast gap, radii and orders."""
    built, reads = [], []
    from_profile, laplacian = LeafVolumeDensity.from_profile.__func__, verify.function_laplacian

    def recorded_density(cls, profile):
        built.append(from_profile(cls, profile))
        return built[-1]

    def recorded_laplacian(density, *args):
        reads.append(laplacian(density, *args))
        return reads[-1]

    monkeypatch.setattr(LeafVolumeDensity, "from_profile", classmethod(recorded_density))
    monkeypatch.setattr(verify, "function_laplacian", recorded_laplacian)
    paths = [tmp_path / "flat.json", tmp_path / "cosine.json"]
    for profile, path in zip((flat_profile, cosine_profile), paths):
        save_profile(profile, path)
    contrasts = []
    for n_points in (64, 256):
        out = tmp_path / str(n_points)
        assert cli.run(["verify", "--profiles", *map(str, paths), "--grid", str(n_points),
                        "--window", "8", "--output-dir", str(out)]) == 0
        bundle = json.loads((out / "verify_bundle.json").read_text())
        contrasts.append([report["metadata"] for report in bundle["reports"]
                          if report["check_name"] == "laplacian_dependence"])
    half = len(built) // 2
    assert half == 4 and built[:half] == built[half:] and len(set(built)) == 2
    assert [hash(d) for d in built[:half]] == [hash(d) for d in built[half:]]
    assert len(reads) == 4
    for first, second in zip(reads[:2], reads[2:]):
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.radii, second.radii) and first.order == second.order
    keys = ("laplacian_gap", "laplacian_radius", "laplacian_order")
    assert [[metadata[key] for key in keys] for metadata in contrasts[0]] == (
        [[metadata[key] for key in keys] for metadata in contrasts[1]])


def test_pair_battery_allocates_no_matrix(cosine_profile, mixed_profile, monkeypatch):
    """Allocation budget at N = 256, warm caches: one battery (contrast
    included) peaks below two N x N complex arrays, nearly all of it the
    2-D samples of alpha; with alpha given it stays below half of one such
    array, so no N x N intermediate is allocated, and the Galerkin reads
    (K = 29 and 23) need none; three pairs in one call peak no higher.
    ``tracemalloc`` counts numpy's data buffers, whatever the allocator and
    the OS do with them."""
    n_points = 256
    grid = GridSpec(n_points)
    matrix_bytes = 16 * n_points**2
    pair = (cosine_profile, mixed_profile)

    def traced_battery(pairs):
        tracemalloc.start()
        try:
            reports = run_pair_checks(pairs, grid, 8.0)
            return reports, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_pair_checks([pair], grid, 8.0)
    reports, peak = traced_battery([pair])
    assert [report.passed for report in reports] == [True] * 4
    assert reports[3].metadata["laplacian_order"] == [29, 23]
    assert peak < 2 * matrix_bytes
    alpha = verify.basic_volume_ratio(cosine_profile, mixed_profile, grid)
    monkeypatch.setattr(verify, "basic_volume_ratio", lambda *args: alpha)
    given_alpha, peak = traced_battery([pair])
    assert given_alpha == reports
    assert peak < matrix_bytes / 2
    three_pairs, peak = traced_battery([pair] * 3)
    assert three_pairs == reports * 3
    assert peak < matrix_bytes / 2


def test_profile_checks_make_no_svd(product_profile, grid128, monkeypatch):
    """The curvature and Lichnerowicz residuals need no singular values."""
    svd_calls = []
    svd = np.linalg._linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", counted_svd)
    reports = run_profile_checks(product_profile, grid128)
    assert [report.check_name for report in reports] == ["scal_relation", "lichnerowicz"]
    assert all(report.passed for report in reports)
    assert svd_calls == []


def test_profile_checks_build_one_geometry_per_profile(product_profile, skew_profile, grid128,
                                                       monkeypatch):
    """Both single-profile checks read one torus geometry, and every call of
    run_profile_checks builds its own."""
    from foliation_lab import verify

    built = []
    torus_geometry = verify.torus_geometry

    def counted(profile, grid):
        built.append(profile)
        return torus_geometry(profile, grid)

    monkeypatch.setattr(verify, "torus_geometry", counted)
    for profile in (product_profile, skew_profile, product_profile):
        reports = run_profile_checks(profile, grid128)
        assert [report.check_name for report in reports] == ["scal_relation", "lichnerowicz"]
    assert built == [product_profile, skew_profile, product_profile]


class TestMutations:
    """Defects of the factor (w, W) of ``operators.dirac_factors``, which the
    assembly, the Dirac read's gate and the conjugation bound all take, and
    of the density, that the pair battery must refuse or fail, and which
    check catches each:

    * w = g, ``g'/g`` in place of ``g'/2g``: S = i g^{-1/2} D g^{1/2} is not
      Hermitian, and q = (2 pi / N)^{1/2} g^{-1/2} is not constant, so the
      symmetry gate of the Dirac read (``dirac_spectra``) refuses the
      operator (OperatorSymmetryError) before any check reports;
      ``conjugation`` also fails on the mutants alone.
    * Weights without the density: q = (2 pi / N)^{1/2} g^{-1/2} again,
      refused by the same gate.
    * The wrong frame, w = g^{1/2} e^{it/2}: the operator acts on the
      samples of psi instead of its periodic part.  q = (2 pi / N)^{1/2}
      e^{-it/2} has a constant modulus, so S is Hermitian, but its phase
      runs round the circle, so S is far from every circulant: d is of
      order ||C||_F and the read refuses it.
    * An unprojected kappa: densities of the theta = 0 slice f(0, t) instead
      of the theta-average.  Each operator is still unitarily equivalent to
      iD, so ``invariance`` passes, but alpha stays the true projection, so on
      a theta-dependent pair ``kappa_transform`` and ``conjugation`` fail.
    * h = g'/g in place of g'/2g in the Lichnerowicz diagonal: the
      connection term no longer cancels, and ``lichnerowicz`` fails.
    """

    MUTANTS = {
        "w_is_g": lambda d, n: (d.samples(n)[0], quadrature_weights(d, n)),
        "unweighted": lambda d, n: (np.sqrt(d.samples(n)[0]), np.full(n, 2.0 * np.pi / n)),
        "wrong_frame": lambda d, n: (np.sqrt(d.samples(n)[0]) * np.exp(
            0.5j * GridSpec(n).t_nodes), quadrature_weights(d, n)),
    }

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_gate_refuses_the_battery(self, mutant, flat_profile, cosine_profile, grid64,
                                      monkeypatch):
        patch_factors(monkeypatch, self.MUTANTS[mutant])
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[trivial,N=64\]"):
            run_pair_checks([(flat_profile, cosine_profile)], grid64, 8.0)

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_verify_exits_2_naming_the_operator(self, mutant, tmp_path, monkeypatch, capsys):
        patch_factors(monkeypatch, self.MUTANTS[mutant])
        code = cli.run(["verify", "--all", "--grid", "64", "--window", "8",
                        "--output-dir", str(tmp_path)])
        stderr = capsys.readouterr().err
        assert code == 2
        assert re.search(r"error: operator 'dirac_spinor\[trivial,N=64\]' is not symmetric", stderr)
        assert not (tmp_path / "verify_bundle.json").exists()

    @pytest.mark.parametrize("operator", ["dirac-spinor", "dirac-forms"])
    def test_spectrum_exits_2_for_w_is_g(self, operator, cosine_profile, tmp_path, monkeypatch,
                                          capsys):
        path = tmp_path / "wavy.json"
        save_profile(cosine_profile, path)
        argv = ["spectrum", "--profile", str(path), "--grid", "64", "--window", "8",
                "--operator", operator, "--output-dir", str(tmp_path / "out")]
        assert cli.run(argv) == 0
        patch_factors(monkeypatch, self.MUTANTS["w_is_g"])
        assert cli.run(argv) == 2
        assert "is not symmetric in its weighted metric" in capsys.readouterr().err

    @pytest.mark.parametrize("operator, label", [("laplacian-functions", "laplacian_function"),
                                                 ("laplacian-one-forms", "laplacian_one_form")])
    def test_laplacian_refusal_names_its_degree(self, operator, label, tmp_path, capsys):
        """A refused Laplacian ``spectrum`` names the operator it was asked
        for, the one-forms Laplacian included, though both degrees are one
        read of the function Laplacian: here 1 + 0.999 cos t, whose Galerkin
        order exceeds the cap."""
        path = tmp_path / "near.json"
        save_profile(MetricProfile(1.0, (ProfileTerm(0, 1, 0.999),)), path)
        assert cli.run(["spectrum", "--profile", str(path), "--grid", "64", "--window", "8",
                        "--operator", operator, "--output-dir", str(tmp_path / "out")]) == 2
        assert re.search(rf"error: operator '{label}\[N=64\]' is refused: the function "
                         rf"Laplacian of the density", capsys.readouterr().err)

    def test_conjugation_fails_for_the_w_is_g_mutant(self, flat_profile, cosine_profile, grid64,
                                                     monkeypatch):
        pair = pair_inputs(flat_profile, cosine_profile, grid64)
        assert conjugation_residual(*pair.densities, pair.alpha, grid64, pair.metadata).passed
        patch_factors(monkeypatch, self.MUTANTS["w_is_g"])
        assert not conjugation_residual(*pair.densities, pair.alpha, grid64,
                                        pair.metadata).passed

    def test_a_doubled_connection_term_fails_lichnerowicz(self, product_profile, grid128):
        """``lichnerowicz_diagonal`` built from a copy of ``verify`` whose
        h is g'/g in place of g'/2g: c + p is then g''/2g + (g'/2g)^2, not
        aliasing, and the check fails on a product profile it passes."""
        source = inspect.getsource(verify)
        honest = "h = g_dot / (2.0 * g)"
        assert source.count(honest) == 1
        mutant = {"__name__": verify.__name__, "__package__": verify.__package__}
        exec(compile(source.replace(honest, "h = g_dot / g"), verify.__file__, "exec"), mutant)
        geometry = torus_geometry(product_profile, grid128)
        assert lichnerowicz_residual(product_profile, grid128, geometry).passed
        report = mutant["lichnerowicz_residual"](product_profile, grid128, geometry)
        assert not report.passed and report.residual > 0.1

    @staticmethod
    def _unprojected(cls, profile):
        """The theta = 0 slice in place of the theta-average, as an averaged
        profile: each term a cos(m theta + phi_theta) cos(n t + phi_t) is
        a cos(phi_theta) cos(n t + phi_t) there."""
        terms = tuple(ProfileTerm(0, term.n, term.amplitude * math.cos(term.phase_theta), 0.0,
                                  term.phase_t) for term in profile.terms)
        return cls(MetricProfile(profile.constant, terms))

    def test_unprojected_kappa_fails_kappa_transform_and_conjugation(
        self, cosine_profile, mixed_profile, grid64, monkeypatch
    ):
        monkeypatch.setattr(LeafVolumeDensity, "from_profile", classmethod(self._unprojected))
        reports = run_pair_checks([(cosine_profile, mixed_profile)], grid64, 8.0)
        failed = [report.check_name for report in reports if not report.passed]
        assert failed == ["kappa_transform", "conjugation"]

    @staticmethod
    def _truncated(cls, profile):
        """The density without the theta-averaged profile's last term."""
        average = profile.theta_average()
        return cls(MetricProfile(average.constant, average.terms[:-1]))

    def test_truncated_density_fails_kappa_transform_on_a_generated_pair(self, grid64,
                                                                          monkeypatch):
        """A density that drops its last m = 0 term reads the generated pair's
        2 + a cos(2t + psi) as the constant 2; alpha, read from the samples,
        keeps the density term, so ``kappa_transform`` and ``conjugation``
        fail, and the contrast fails on the two equal densities."""
        assert all(report.passed for report in run_pair_checks([GENERATED_7041], grid64, 8.0))
        monkeypatch.setattr(LeafVolumeDensity, "from_profile", classmethod(self._truncated))
        reports = run_pair_checks([GENERATED_7041], grid64, 8.0)
        failed = [report.check_name for report in reports if not report.passed]
        assert failed == ["kappa_transform", "conjugation", "laplacian_dependence"]

    def test_verify_exits_1_naming_kappa_transform_and_conjugation(
        self, cosine_profile, mixed_profile, tmp_path, monkeypatch, capsys
    ):
        paths = [tmp_path / "cosine.json", tmp_path / "mixed.json"]
        for profile, path in zip((cosine_profile, mixed_profile), paths):
            save_profile(profile, path)
        argv = ["verify", "--all", "--profiles", *map(str, paths), "--grid", "64",
                "--window", "8", "--output-dir", str(tmp_path / "out")]
        monkeypatch.setattr(LeafVolumeDensity, "from_profile", classmethod(self._unprojected))
        assert cli.run(argv) == 1
        failed = re.findall(r"^failed (\w+):", capsys.readouterr().err, re.MULTILINE)
        assert failed == ["kappa_transform", "conjugation"]

    @pytest.mark.parametrize("n_points", [64, 128])
    def test_antiperiodic_operator_in_the_wrong_frame_is_refused(self, cosine_profile,
                                                                  n_points, monkeypatch):
        """On the nontrivial structure: the honest read's d is round-off, the
        wrong frame's exceeds N / 8 and the gate ratio 1."""
        antiperiodic = GridSpec(n_points, "nontrivial")
        density = LeafVolumeDensity.from_profile(cosine_profile)
        assert dirac_spectra(density, antiperiodic)[0].distance < 1e-20
        patch_factors(monkeypatch, self.MUTANTS["wrong_frame"])
        gates = []
        monkeypatch.setattr(spectral, "_require_symmetric", gates.append)
        spinor = dirac_spectra(density, antiperiodic)[0]
        assert spinor.distance > n_points / 8
        assert gates[0][f"dirac_spinor[nontrivial,N={n_points}]"] > 1.0
        monkeypatch.undo()
        patch_factors(monkeypatch, self.MUTANTS["wrong_frame"])
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[nontrivial"):
            dirac_spectra(density, antiperiodic)


def test_a_raising_assembly_does_not_stop_the_generated_battery(monkeypatch, tmp_path):
    """``verify --all --grid 256`` with generated pairs builds no spinor
    matrix: with ``assemble_basic_dirac_spinor`` raising, every seed of the
    verdict ledger (0 to 41 and the default) still writes its bundle, with
    the exit code of the unpatched run."""
    seeds = [*range(42), 7041]

    def codes():
        return [cli.run(["verify", "--all", "--grid", "256", "--seed", str(seed),
                         "--output-dir", str(tmp_path)]) for seed in seeds]

    expected = codes()

    def refuse(*args, **kwargs):
        raise AssertionError("the pair battery assembled a spinor matrix")

    monkeypatch.setattr(operators, "assemble_basic_dirac_spinor", refuse)
    assert codes() == expected
    assert set(expected) == {0}


def test_laplacian_reads_assemble_nothing(flat_profile, cosine_profile, tmp_path, monkeypatch):
    """With the spinor assembly and the derivative matrix raising,
    ``spectrum --operator laplacian-{functions,one-forms}`` exits 0, each
    with one ``function_laplacian`` read at the frequency window 8^{1/2},
    and an ``invariance`` pair with 1 + 0.6 cos t + 0.6 cos 2t
    (g_0 - 2 sum |g_m| = -0.2, at grid 64 and window 8) exits 0, its
    contrast a Galerkin read at K = 60."""
    flat, wavy, low = tmp_path / "flat.json", tmp_path / "wavy.json", tmp_path / "low.json"
    save_profile(flat_profile, flat)
    save_profile(cosine_profile, wavy)
    save_profile(NO_LOWER_BOUND, low)
    reads, laplacian = [], cli.function_laplacian

    def recorded(density, window, tolerance):
        reads.append(window)
        return laplacian(density, window, tolerance)

    def refuse(*args, **kwargs):
        raise AssertionError("an N x N operator was built")

    monkeypatch.setattr(cli, "function_laplacian", recorded)
    monkeypatch.setattr(operators, "assemble_basic_dirac_spinor", refuse)
    for module in (_spectral_diff, operators):
        monkeypatch.setattr(module, "differentiation_matrix", refuse)
    out = ["--grid", "64", "--window", "8", "--output-dir", str(tmp_path / "out")]
    spectrum = ["spectrum", "--profile", str(wavy), *out, "--operator"]
    for operator in ("laplacian-functions", "laplacian-one-forms"):
        del reads[:]
        assert cli.run([*spectrum, operator]) == 0
        assert reads == [math.sqrt(8.0)]
    assert cli.run(["invariance", "--profiles", str(flat), str(low), *out]) == 0
    bundle = json.loads((tmp_path / "out" / "invariance_bundle.json").read_text())
    assert bundle["reports"][-1]["metadata"]["laplacian_order"] == [9, 60]


def _block_shapes(coefficients: np.ndarray, order: int) -> list[tuple[int, int, int]]:
    """The stacked ``eigh`` shapes of a Galerkin read at ``order`` K: the
    modes k, |k| <= K, fall into the residue classes modulo the gcd d of the
    density's frequencies (each k its own class for a constant), one stack
    per class size, the larger classes first."""
    bandwidth = coefficients.size // 2
    frequencies = [m for m in range(1, bandwidth + 1) if coefficients[bandwidth + m] != 0]
    period = int(np.gcd.reduce(frequencies)) if frequencies else 2 * order + 1
    classes = {}
    for k in range(-order, order + 1):
        classes[k % period] = classes.get(k % period, 0) + 1
    sizes = sorted(set(classes.values()), reverse=True)
    return [(list(classes.values()).count(size), size, size) for size in sizes]


@pytest.mark.parametrize("n_points, orders", [(64, [9, 29]), (128, [9, 29]), (128, [9, 87])])
def test_commands_solve_no_dirac_matrix(flat_profile, cosine_profile, tmp_path, monkeypatch,
                                        n_points, orders):
    """No command solves a matrix of the grid: ``verify``, ``invariance`` and
    ``spectrum --operator dirac-*`` read every Dirac spectrum from the
    operator's O(N) data, with no eigensolve, and no command calls
    ``eigvalsh``.  ``function_laplacian`` reads every Laplacian by
    ``galerkin_read``, one stacked ``eigh`` call per size of the residue
    classes of its 2K + 1 modes (``_block_shapes``): in ``verify`` and
    ``invariance`` one read per distinct density of its pairs, and in a
    Laplacian ``spectrum`` one read.  ``orders`` are the Galerkin orders of
    the flat density and of the second profile at window 8: 2 + cos t, or
    the t-bandwidth-8 density (K = 87, above N/2)."""
    sizes, laplacians, galerkin, eigh_sizes, solved, blocks = [], [], [], [], [], []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    laplacian, galerkin_read = verify.function_laplacian, spectral.galerkin_read

    def recorded_laplacian(*args):
        report = laplacian(*args)
        laplacians.append(report.order)
        return report

    def recorded_galerkin(coefficients, order, window, lower):
        report = galerkin_read(coefficients, order, window, lower)
        galerkin.append(report.order)
        blocks.extend(_block_shapes(coefficients, order))
        return report

    def counted_eigh(matrix, *args, **kwargs):
        eigh_sizes.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    def counted_eigvalsh(matrix, *args, **kwargs):
        sizes.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(WeightedOperator, "hermitian_spectrum", lambda op: solved.append(op))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(verify, "function_laplacian", recorded_laplacian)
    monkeypatch.setattr(spectral, "galerkin_read", recorded_galerkin)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    flat, wavy = str(tmp_path / "flat.json"), str(tmp_path / "wavy.json")
    save_profile(flat_profile, flat)
    save_profile(cosine_profile if orders[1] == 29 else WAVY_8, wavy)
    out = ["--grid", str(n_points), "--window", "8", "--output-dir", str(tmp_path / "out")]

    def run(argv):
        del sizes[:], laplacians[:], galerkin[:], eigh_sizes[:], blocks[:]
        assert cli.run([*argv, *out]) in (0, 1)
        assert sizes == []
        # one stacked eigh per class size of each Galerkin read
        assert eigh_sizes == blocks

    # five generated pairs: every contrast runs, and reads by Galerkin the
    # constant 2 once and each pair's 2 + a cos(2t + psi); one Galerkin read
    # per function_laplacian, as its first order meets the tolerance
    run(["verify", "--all", "--pairs", "5", "--seed", "1"])
    assert galerkin == laplacians
    bundle = json.loads((tmp_path / "out" / "verify_bundle.json").read_text())
    contrasts = [report for report in bundle["reports"]
                 if report["check_name"] == "laplacian_dependence"]
    assert len(contrasts) == 5 and not any("skipped" in report["metadata"] for report in contrasts)
    assert laplacians == [9, 23, 22, 18, 20, 20]
    # the same draws: distinct densities are distinct keys
    rng = np.random.default_rng(1)
    keys = {LeafVolumeDensity.from_profile(profile)
            for _ in range(5) for profile in verify.random_pair(rng)}
    assert len(laplacians) == len(keys)
    # the flat profile and the second: per density its Laplacian read
    for argv in (["verify", "--profiles", flat, wavy], ["invariance", "--profiles", flat, wavy]):
        run(argv)
        assert galerkin == laplacians == orders
    for spin in ("trivial", "nontrivial"):
        spectrum = ["spectrum", "--profile", wavy, "--spin", spin, "--operator"]
        for operator in ("dirac-spinor", "dirac-forms"):
            run([*spectrum, operator])
            assert galerkin == []
        for operator in ("laplacian-functions", "laplacian-one-forms"):
            run([*spectrum, operator])
            assert len(galerkin) == 1 and laplacians == []
    assert solved == []


def test_a_profile_near_zero_is_read_by_galerkin_or_refused(flat_profile, tmp_path, capsys):
    """``verify`` of the flat profile against 1 + a cos t at grid 64, window 8.
    For a = 0.997 the contrast reads K = 349 > N/2 and a certified gap of
    5.343; the grid read of this density (N = 64 does not resolve its
    eigenfunctions) gives a gap of 9.652 with radius 0.  For a = 0.999 the
    predicted K = 599 exceeds GALERKIN_ORDER_CAP: exit 2, no bundle."""
    flat, near = tmp_path / "flat.json", tmp_path / "near.json"
    save_profile(flat_profile, flat)
    argv = ["verify", "--profiles", str(flat), str(near), "--grid", "64", "--window", "8",
            "--output-dir", str(tmp_path / "out")]
    save_profile(MetricProfile(1.0, (ProfileTerm(0, 1, 0.997),)), near)
    assert cli.run(argv) == 1
    bundle = json.loads((tmp_path / "out" / "verify_bundle.json").read_text())
    contrast, = (report["metadata"] for report in bundle["reports"]
                 if report["check_name"] == "laplacian_dependence")
    assert contrast["laplacian_order"] == [9, 349]
    assert contrast["laplacian_gap"] == pytest.approx(5.343, abs=1e-3)
    assert max(contrast["laplacian_radius"]) <= LAPLACIAN_FORMS_THRESHOLD
    (tmp_path / "out" / "verify_bundle.json").unlink()
    capsys.readouterr()
    save_profile(MetricProfile(1.0, (ProfileTerm(0, 1, 0.999),)), near)
    assert cli.run(argv) == 2
    assert re.search(r"error: the function Laplacian of the density of theta-average "
                     r"\{'constant': 1\.0, 'terms': \[\{'m': 0, 'n': 1, 'amp': 0\.999, .* "
                     r"is not read to 1e-08: its Galerkin order K = 599 exceeds "
                     r"GALERKIN_ORDER_CAP = 512 \(not solved\)", capsys.readouterr().err)
    assert not (tmp_path / "out" / "verify_bundle.json").exists()


@pytest.mark.parametrize("n_points, window", [(64, 8), (128, 10), (256, 10)])
def test_generated_contrasts_rest_on_galerkin_reads(tmp_path, n_points, window):
    """``verify --all`` with its default five generated pairs, for the seeds
    0 to 41 and the default 7041: every contrast runs and passes, and reads
    both densities by Galerkin, at orders K <= W + 15 (``verify.random_pair``),
    every recorded ``laplacian_order`` an int and every radius at most
    LAPLACIAN_FORMS_THRESHOLD."""
    contrasts = 0
    for seed in (*range(42), 7041):
        argv = ["verify", "--all", "--grid", str(n_points), "--window", str(window), "--seed",
                str(seed), "--output-dir", str(tmp_path)]
        assert cli.run(argv) == 0, seed
        bundle = json.loads((tmp_path / "verify_bundle.json").read_text())
        for report in bundle["reports"]:
            metadata = report["metadata"]
            if report["check_name"] == "laplacian_dependence":
                contrasts += 1
                assert report["passed"] and "skipped" not in metadata, seed
                orders = metadata["laplacian_order"]
                assert len(orders) == 2 and all(type(order) is int for order in orders), seed
                assert max(orders) <= window + 15, seed
                assert max(metadata["laplacian_radius"]) <= LAPLACIAN_FORMS_THRESHOLD, seed
    assert contrasts == 5 * 43


@pytest.mark.parametrize("n_points, window", [(16, 2), (32, 4), (64, 8), (128, 10), (256, 10)])
def test_generated_pairs_read_by_galerkin_on_every_grid(n_points, window):
    """``run_pair_checks`` on the five generated pairs of each seed of
    ``tools/ledger.py`` (0 to 41 and 7041), at window N/8 up to 10: every
    contrast passes on Galerkin reads, at orders above N/2 on grids 16 and
    32, with an int ``laplacian_order`` and radii at most
    LAPLACIAN_FORMS_THRESHOLD."""
    grid, largest = GridSpec(n_points), 0
    for seed in (*range(42), 7041):
        rng = np.random.default_rng(seed)
        pairs = [verify.random_pair(rng) for _ in range(5)]
        for report in run_pair_checks(pairs, grid, float(window))[3::4]:
            metadata = report.metadata
            assert report.passed, seed
            assert all(type(order) is int for order in metadata["laplacian_order"]), seed
            assert max(metadata["laplacian_radius"]) <= LAPLACIAN_FORMS_THRESHOLD, seed
            largest = max(largest, *metadata["laplacian_order"])
    assert (largest > n_points // 2) == (n_points <= 32)


def test_parity_pair_cases_rest_on_galerkin_reads(tmp_path, monkeypatch):
    """Every ``verify`` and ``invariance`` case of ``tools/parity.py``, on its
    profile documents: every contrast's ``laplacian_order`` is an int and
    its radii at most LAPLACIAN_FORMS_THRESHOLD.  The largest order is wavy8's, K = 89 at
    window 10 on grid 128."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    parity = importlib.import_module("parity")
    paths = {}
    for name, document in parity.PROFILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths[parity.profile(name)] = str(path)
    orders, contrasts = set(), 0
    for case, argv in parity.cases().items():
        if argv[0] not in ("verify", "invariance"):
            continue
        out = tmp_path / case
        code = cli.run([*(paths.get(arg, arg) for arg in argv), "--output-dir", str(out)])
        if code == 2:
            assert case == "verify-untrusted-window"
            continue
        bundle = json.loads((out / f"{argv[0]}_bundle.json").read_text())
        for report in bundle["reports"]:
            if report["check_name"] == "laplacian_dependence":
                contrasts += 1
                metadata = report["metadata"]
                assert all(type(order) is int for order in metadata["laplacian_order"]), case
                assert max(metadata["laplacian_radius"]) <= LAPLACIAN_FORMS_THRESHOLD, case
                orders.update(metadata["laplacian_order"])
    assert contrasts > 100 and max(orders) == 89
