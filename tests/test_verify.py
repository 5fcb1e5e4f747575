"""Verification harnesses: invariance battery, residual identities, contrasts."""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy as sp

from foliation_lab import cli, spectral, verify
from foliation_lab._spectral_diff import differentiation_matrix, fourier_derivative
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm, torus_geometry
from foliation_lab.operators import (
    WeightedOperator,
    assemble_basic_dirac_spinor,
    assemble_lichnerowicz_sides,
    diagonal_conjugate,
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
    conjugation_residual,
    invariance_check,
    kappa_transform_residual,
    laplacian_dependence,
    lichnerowicz_residual,
    pair_metadata,
    random_profile,
    run_pair_checks,
    run_profile_checks,
    scal_relation_residual,
)

from conftest import exp_cos_profile, exp_sin_profile, pair_inputs, save_profile


# Each check run alone on the values its battery would pass it.
def invariance(p1, p2, grid, window):
    pair = pair_inputs(p1, p2, grid)
    return invariance_check(*pair.spectra, window, pair.metadata)


def kappa_transform(p1, p2, grid):
    pair = pair_inputs(p1, p2, grid)
    return kappa_transform_residual(*pair.densities, pair.alpha, grid, pair.metadata)


def conjugation(p1, p2, grid):
    pair = pair_inputs(p1, p2, grid)
    return conjugation_residual(*pair.dirac, pair.alpha, pair.metadata)


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
        ],
    )
    def test_residual_is_tight_upper_bound_on_operator_norm(
        self, name, grid, flat_profile, product_profile, cosine_profile
    ):
        profile = {
            "flat": flat_profile,
            "product": product_profile,
            "exp_sin": exp_sin_profile(0.5),
            "cosine": cosine_profile,
        }[name]
        lhs, rhs = assemble_lichnerowicz_sides(LeafVolumeDensity.from_profile(profile, grid), grid)
        two_norm = np.linalg.norm(lhs.matrix - rhs.matrix, 2)
        residual = lichnerowicz(profile, grid).residual
        assert two_norm <= residual <= two_norm + 1e-10


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

    def test_generated_constant_pair_is_skipped_as_coinciding(self, grid64):
        """Constant theta-averages 1 and 2, distinct by the density margin: T = D
        for both, so a generated pair's contrast is skipped with its own
        reason; a user-supplied pair still runs it and fails."""
        pair = (MetricProfile(1.0), MetricProfile(2.0, (ProfileTerm(1, 0, 0.3),)))
        densities = [LeafVolumeDensity.from_profile(p, grid64) for p in pair]
        assert verify.densities_distinguishable(*densities)
        generated = run_pair_checks([pair], grid64, 8.0, skip_indistinct_laplacian=True)
        assert generated[3].passed and generated[3].metadata["skipped"]
        assert generated[3].metadata["reason"] == (
            "theta-averaged densities are both constant: their basic Laplacians coincide")
        supplied = run_pair_checks([pair], grid64, 8.0)[3]
        assert not supplied.passed and "skipped" not in supplied.metadata
        assert "indistinguishable" in supplied.metadata["diagnostic"]
        # densities within the margin keep the reason they had
        close = (MetricProfile(2.0), MetricProfile(2.005))
        report = run_pair_checks([close], grid64, 8.0, skip_indistinct_laplacian=True)[3]
        assert report.metadata["reason"] == "theta-averaged densities are not distinct for this pair"


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
        assert conjugation_residual(*pair.dirac, pair.alpha, pair.metadata).passed


@pytest.mark.parametrize(
    "n_points, second, skip, shapes",
    [
        # per density its Laplacian read, then per operator its Dirac read at
        # P = 1: at N = 64 both Laplacians are grid reads, the flat density's
        # Gram blocks 64 of size 1 and 2 + cos t's, without symmetry, one
        # dense block, as 6 (2K + 1)^3 > N P^2 for its K = 29 at window 8
        (64, MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), False,
         ([(64, 1, 1), (1, 64, 64)] + [(64, 1, 1)] * 2, [])),
        # at N = 128, 2 + cos t's is one Galerkin solve of dimension 59, and
        # no N x N Gram block is solved
        (128, MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), False,
         ([(128, 1, 1)] * 3, [(59, 59)])),
        # the theta-average of 1 + cos(theta)/2 is flat: the contrast is
        # skipped, and the two equal flat densities are read once
        (64, MetricProfile(1.0, (ProfileTerm(1, 0, 0.5),)), True, ([(64, 1, 1)], [])),
    ],
)
def test_pair_battery_solves_each_spectrum_once(flat_profile, monkeypatch, n_points, second, skip,
                                                shapes):
    """Per battery: two densities, two spinor Dirac assemblies, one alpha, one
    ``eigvalsh`` call per distinct density's Dirac operator, on its N 1 x 1
    circulant blocks; unless the contrast is skipped, before them one
    Laplacian read per distinct density: one ``eigvalsh`` call on the
    stacked Gram blocks of its period, or one ``eigh`` call of dimension
    2K + 1 for a Galerkin read; no SVD, and one derivative matrix for the
    pair's (grid, spin structure).  ``shapes`` holds the ``eigvalsh`` and the
    ``eigh`` shapes."""
    grid = GridSpec(n_points)
    eigvalsh_sizes, eigh_sizes, svd_calls, built = [], [], [], []
    eigvalsh, eigh, svd = np.linalg.eigvalsh, np.linalg.eigh, np.linalg.svd
    from_profile = LeafVolumeDensity.from_profile.__func__
    assemble, ratio = verify.assemble_basic_dirac_spinor, verify.basic_volume_ratio

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
    monkeypatch.setattr(verify, "assemble_basic_dirac_spinor", counted("dirac", assemble))
    monkeypatch.setattr(verify, "basic_volume_ratio", counted("alpha", ratio))
    differentiation_matrix.cache_clear()
    reports = run_pair_checks([(flat_profile, second)], grid, 8.0,
                              skip_indistinct_laplacian=skip)
    assert [report.passed for report in reports] == [True] * 4
    assert [report.metadata.get("skipped", False) for report in reports] == [False] * 3 + [skip]
    # every report, the skipped contrast included, starts from the pair metadata
    for report in reports:
        for key, value in pair_metadata(flat_profile, second, grid).items():
            assert report.metadata[key] == value
    assert built == ["density", "density", "dirac", "dirac", "alpha"]
    assert (eigvalsh_sizes, eigh_sizes) == shapes
    assert svd_calls == []
    assert differentiation_matrix.cache_info().misses == 1


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
    "n_points, gram_reads, orders",
    [(64, [("gram", 0, 64), ("gram", 1, 64)], [None, None]), (128, [], [29, 23])],
)
def test_pair_battery_assembles_each_dirac_operator_once(cosine_profile, mixed_profile,
                                                         monkeypatch, n_points, gram_reads,
                                                         orders):
    """Two spinor Dirac assemblies per battery, each read once by
    ``dirac_spectra``, by ``hermitian_spectrum`` at period 1 and with no Gram
    read; before them each density's Laplacian is read once by
    ``function_laplacian``: a Galerkin read capped at 6 (2K + 1)^3 <= N P^2,
    and where none is made, the Gram read of the operator's matrix along the
    density's period (here at N = 64, where K = 29 and 23 do not fit).  The
    conjugation check reads the two operators that were read, not fresh
    assemblies, and no Laplacian is assembled."""
    assembled, read, events, conjugated, galerkin = [], [], [], [], []
    assemble, solve = verify.assemble_basic_dirac_spinor, WeightedOperator.hermitian_spectrum
    spectra, gram = verify.dirac_spectra, spectral.gram_spectrum
    conjugate, galerkin_read = verify.conjugation_residual, spectral.galerkin_laplacian

    def counted_assembly(density, grid, out=None):
        op = assemble(density, grid, out=out)
        assembled.append(weakref.ref(op))
        return op

    def assembly_index(op):
        return next((i for i, ref in enumerate(assembled) if ref() is op), None)

    def recorded_read(op, out=None, period=None):
        read.append((assembly_index(op), period))
        return spectra(op, out=out, period=period)

    def recorded_gram(factor, period, out=None):
        index = next(i for i, ref in enumerate(assembled) if ref().matrix is factor)
        events.append(("gram", index, period))
        return gram(factor, period, out=out)

    def recorded_galerkin(density, window, tolerance, largest):
        report = galerkin_read(density, window, tolerance, largest)
        galerkin.append((window, tolerance, largest, None if report is None else report.order))
        return report

    def recorded_solve(op, out=None):
        events.append(("solve", assembly_index(op), op.period))
        return solve(op, out=out)

    def recorded_conjugation(dirac_1, dirac_2, alpha, metadata, out=None):
        conjugated.extend([assembly_index(dirac_1), assembly_index(dirac_2)])
        return conjugate(dirac_1, dirac_2, alpha, metadata, out=out)

    monkeypatch.setattr(verify, "assemble_basic_dirac_spinor", counted_assembly)
    monkeypatch.setattr(verify, "dirac_spectra", recorded_read)
    monkeypatch.setattr(spectral, "gram_spectrum", recorded_gram)
    monkeypatch.setattr(WeightedOperator, "hermitian_spectrum", recorded_solve)
    monkeypatch.setattr(verify, "conjugation_residual", recorded_conjugation)
    monkeypatch.setattr(spectral, "galerkin_laplacian", recorded_galerkin)
    reports = run_pair_checks([(cosine_profile, mixed_profile)], GridSpec(n_points), 8.0)
    assert [report.passed for report in reports] == [True] * 4
    assert reports[3].metadata["laplacian_order"] == orders
    assert len(assembled) == 2
    assert read == [(0, None), (1, None)]
    assert events == gram_reads + [("solve", 0, 1), ("solve", 1, 1)]
    largest = ((n_points**3 / spectral.GALERKIN_COST) ** (1.0 / 3.0) - 1.0) / 2.0
    assert galerkin == [(8.0, verify.LAPLACIAN_FORMS_THRESHOLD, largest, order)
                        for order in orders]
    assert conjugated == [0, 1]
    assert not hasattr(verify, "assemble_basic_laplacian")


# Three profiles whose densities have the same bytes, constant 2: the second's
# theta-average is flat, the third claims no period (2 + 1e-300 cos t rounds to 2).
FLAT_2 = MetricProfile(2.0)
FLAT_2_SKEW = MetricProfile(2.0, (ProfileTerm(1, 0, 0.5),))
FLAT_2_TINY = MetricProfile(2.0, (ProfileTerm(0, 1, 1e-300),))
WAVY = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))


def _generated_pairs(seed: int, count: int = 5) -> list:
    rng = np.random.default_rng(seed)
    return [(random_profile(rng), random_profile(rng)) for _ in range(count)]


WAVY_TINY_8 = MetricProfile(2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(0, 8, 1e-300)))


@pytest.mark.parametrize(
    "n_points, pairs, generated, reads",
    [
        *[(64, _generated_pairs(seed), True, None) for seed in (1, 4, 5, 7041)],
        (128, _generated_pairs(1), True, None),
        # constant 2 read with its contrast skipped, then needed with its
        # Laplacian: only its Laplacian read runs on the hit
        (64, [(FLAT_2, FLAT_2_SKEW), (WAVY, FLAT_2)], True,
         [("dirac",), ("laplacian", 1, 64, None), ("laplacian", 0, 1, None), ("dirac",)]),
        # equal bytes, periods 1 and 64, bandwidths 0 and 1: one period-1 read
        # and two Laplacian reads, the first a grid read at P = 1, the second
        # a Galerkin read, as the trimmed coefficients are constant
        (64, [(FLAT_2, FLAT_2_TINY), (FLAT_2_TINY, WAVY), (FLAT_2, FLAT_2_SKEW)], False,
         [("laplacian", 0, 1, None), ("laplacian", 1, 64, 9), ("dirac",),
          ("laplacian", 1, 64, None), ("dirac",)]),
        # equal bytes, bandwidths 1 and 8: one period-1 read and two Galerkin
        # reads, as the round-off of DFT coefficients 2 to 8 is read
        (128, [(WAVY, FLAT_2), (WAVY_TINY_8, FLAT_2)], False,
         [("laplacian", 1, 128, 29), ("laplacian", 0, 1, None), ("dirac",), ("dirac",),
          ("laplacian", 8, 128, 29)]),
    ],
)
def test_pair_memo_changes_no_report(monkeypatch, n_points, pairs, generated, reads):
    """One battery over the pairs gives, field for field and bitwise, the
    reports of one battery per pair: the memos of ``dirac_spectra`` and
    ``function_laplacian`` reads return what a fresh read computes.
    ``reads`` lists the battery's reads in order, a Laplacian read with its
    density's t-bandwidth and period and its Galerkin order."""
    grid = GridSpec(n_points)
    recorded, spectra, laplacian = [], verify.dirac_spectra, verify.function_laplacian

    def recorded_read(op, out=None, period=None):
        recorded.append(("dirac",))
        return spectra(op, out=out, period=period)

    def recorded_laplacian(density, *args):
        report = laplacian(density, *args)
        recorded.append(("laplacian", density.t_bandwidth, density.period, report.order))
        return report

    monkeypatch.setattr(verify, "dirac_spectra", recorded_read)
    monkeypatch.setattr(verify, "function_laplacian", recorded_laplacian)
    batched = run_pair_checks(pairs, grid, 8.0, skip_indistinct_laplacian=generated)
    if reads is not None:
        assert recorded == reads
    separate = [report for pair in pairs
                for report in run_pair_checks([pair], grid, 8.0,
                                              skip_indistinct_laplacian=generated)]
    assert len(batched) == len(separate) == 4 * len(pairs)
    for one, other in zip(batched, separate):
        assert vars(one) == vars(other)


def test_pair_battery_allocates_its_four_buffers_and_little_else(cosine_profile, mixed_profile,
                                                                 monkeypatch):
    """Allocation budget at N = 128, warm caches: one battery (contrast
    included) peaks below its four N x N complex buffers plus two more such
    arrays; the 2-D samples of alpha are most of the rest.  With alpha given,
    it stays below the four buffers plus one array, so no N x N intermediate
    of the assemblies, the conjugation or the symmetrizations is a fresh
    array, and the Galerkin reads (K = 29 and 23) need none; three pairs in
    one call peak no higher, and a call with no pair allocates no buffer.  ``tracemalloc`` counts numpy's data
    buffers, whatever the allocator and the OS do with them."""
    n_points = 128
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
    assert peak < (4 + 2) * matrix_bytes
    alpha = verify.basic_volume_ratio(cosine_profile, mixed_profile, grid)
    monkeypatch.setattr(verify, "basic_volume_ratio", lambda *args: alpha)
    given_alpha, peak = traced_battery([pair])
    assert given_alpha == reports
    assert peak < (4 + 1) * matrix_bytes
    three_pairs, peak = traced_battery([pair] * 3)
    assert three_pairs == reports * 3
    assert peak < (4 + 1) * matrix_bytes
    no_pair, peak = traced_battery([])
    assert no_pair == [] and peak < matrix_bytes


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
    """Assembly mistakes that the pair battery must refuse or fail, and which
    check catches each:

    * ``g'/g`` in place of ``g'/2g`` (``diagonal_conjugate(D, g)``): S becomes
      i g^{-1/2} D g^{1/2}, which is not Hermitian, so the symmetry gate of
      the Dirac read (``dirac_spectra``) refuses the operator
      (OperatorSymmetryError) before any check runs; ``conjugation`` also
      fails on the mutants alone.
    * Weights without the density: S is then the matrix itself,
      i g^{-1/2} D g^{1/2} again, refused by the same gate.
    * An antiperiodic operator in the wrong frame: E M E^{-1}, E = e^{it/2},
      acts on the samples of psi instead of its periodic part phi.  Its H is
      Hermitian, but E (iD - 1/2) E^{-1} is far from every circulant, so the
      projection distance ||H - P(H)||_F, which enters the same gate twice,
      is of order N and the read refuses it.  For M itself it is round-off.
    * An unprojected kappa: densities of the theta = 0 slice f(0, t) instead
      of the theta-average.  Each operator is still unitarily equivalent to
      iD, so ``invariance`` passes, but alpha stays the true projection, so on
      a theta-dependent pair ``kappa_transform`` and ``conjugation`` fail.
    """

    @staticmethod
    def _half_too_strong(density, grid, out=None):
        matrix = diagonal_conjugate(differentiation_matrix(grid.n_points, "trivial"),
                                    density.g_values, out=out)
        matrix *= 1j
        return WeightedOperator(matrix, quadrature_weights(density), "mutant_g", grid.n_points,
                                period=1)

    @staticmethod
    def _unweighted(density, grid, out=None):
        op = assemble_basic_dirac_spinor(density, grid, out=out)
        weights = np.full(grid.n_points, 2.0 * np.pi / grid.n_points)
        return WeightedOperator(op.matrix, weights, "mutant_weights", grid.n_points, period=1)

    @pytest.mark.parametrize("mutant", ["_half_too_strong", "_unweighted"])
    def test_gate_refuses_the_battery(self, mutant, flat_profile, cosine_profile, grid64,
                                      monkeypatch):
        monkeypatch.setattr(verify, "assemble_basic_dirac_spinor", getattr(self, mutant))
        with pytest.raises(OperatorSymmetryError, match="mutant"):
            run_pair_checks([(flat_profile, cosine_profile)], grid64, 8.0)

    def test_conjugation_fails_for_the_g_over_g_mutant(self, flat_profile, cosine_profile,
                                                        grid64):
        pair = pair_inputs(flat_profile, cosine_profile, grid64)
        mutants = [self._half_too_strong(density, grid64) for density in pair.densities]
        assert not conjugation_residual(*mutants, pair.alpha, pair.metadata).passed

    @staticmethod
    def _unprojected(cls, profile, grid):
        slice_values = profile.sample_t(grid.t_nodes)
        return cls(slice_values, fourier_derivative(slice_values, order=1),
                   profile.max_t_frequency())

    def test_unprojected_kappa_fails_kappa_transform_and_conjugation(
        self, cosine_profile, mixed_profile, grid64, monkeypatch
    ):
        monkeypatch.setattr(LeafVolumeDensity, "from_profile", classmethod(self._unprojected))
        reports = run_pair_checks([(cosine_profile, mixed_profile)], grid64, 8.0)
        failed = [report.check_name for report in reports if not report.passed]
        assert failed == ["kappa_transform", "conjugation"]

    @pytest.mark.parametrize("n_points", [64, 128])
    def test_antiperiodic_operator_in_the_wrong_frame_is_refused(self, cosine_profile,
                                                                  n_points):
        antiperiodic = GridSpec(n_points, "nontrivial")
        op = assemble_basic_dirac_spinor(
            LeafVolumeDensity.from_profile(cosine_profile, antiperiodic), antiperiodic
        )
        assert op.hermitian_spectrum()[2] < 1e-10
        phase = np.exp(0.5j * antiperiodic.t_nodes)
        conjugated = phase[:, None] * op.matrix * np.conj(phase)[None, :]
        mutant = WeightedOperator(conjugated, op.weights, op.label, n_points, period=1)
        _, ratio, distance = mutant.hermitian_spectrum()
        assert distance > n_points / 8 and ratio > 1.0
        with pytest.raises(OperatorSymmetryError, match=r"dirac_spinor\[nontrivial"):
            dirac_spectra(mutant)


@pytest.mark.parametrize("n_points, orders", [(64, [None, None]), (128, [None, 29])])
def test_verify_and_invariance_read_dirac_operators_only_at_period_one(
        flat_profile, cosine_profile, tmp_path, monkeypatch, n_points, orders):
    """Every grid eigensolve of the ``verify``, ``invariance`` and ``spectrum``
    commands is one ``eigvalsh`` call on the stacked blocks of a period: a
    Dirac operator, on either spin structure, reaches it only as N 1 x 1
    blocks, never dense, and a Laplacian only by the Gram read of its
    density's periodic spinor Dirac matrix along the density's period.  In
    ``verify`` and ``invariance`` a Laplacian is first offered to
    ``galerkin_laplacian``, whose one ``eigh`` call is (2K + 1)-dimensional
    where it reads, and Gram-read where it does not.  Per pair: one spinor
    assembly per density.  Per command: one period-1 read per distinct
    density, and one Laplacian read per distinct (density, t-bandwidth,
    period) that a running contrast reads; a Laplacian ``spectrum`` takes
    one Gram and one period-1 read and no Galerkin read.  ``orders`` are the
    Galerkin orders of the flat density and 2 + cos t at window 8, None for
    a grid read."""
    events, sizes, assembled, galerkin, eigh_sizes = [], [], [], [], []
    solve, gram, eigvalsh, eigh = (WeightedOperator.hermitian_spectrum, spectral.gram_spectrum,
                                   np.linalg.eigvalsh, np.linalg.eigh)
    assemble, galerkin_read = verify.assemble_basic_dirac_spinor, spectral.galerkin_laplacian

    def recorded_solve(op, out=None):
        events.append((op.label, op.period))
        return solve(op, out=out)

    def recorded_gram(factor, period, out=None):
        events.append(("gram", period))
        return gram(factor, period, out=out)

    def recorded_galerkin(*args):
        report = galerkin_read(*args)
        galerkin.append(None if report is None else report.order)
        return report

    def counted_eigh(matrix, *args, **kwargs):
        eigh_sizes.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    def counted_assembly(density, grid, out=None):
        assembled.append(grid.spin_structure)
        return assemble(density, grid, out=out)

    def counted_eigvalsh(matrix, *args, **kwargs):
        sizes.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(WeightedOperator, "hermitian_spectrum", recorded_solve)
    monkeypatch.setattr(spectral, "gram_spectrum", recorded_gram)
    monkeypatch.setattr(verify, "assemble_basic_dirac_spinor", counted_assembly)
    monkeypatch.setattr(cli, "assemble_basic_dirac_spinor", counted_assembly)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(spectral, "galerkin_laplacian", recorded_galerkin)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    flat, wavy = str(tmp_path / "flat.json"), str(tmp_path / "wavy.json")
    save_profile(flat_profile, flat)
    save_profile(cosine_profile, wavy)
    out = ["--grid", str(n_points), "--window", "8", "--output-dir", str(tmp_path / "out")]
    spinor = f"dirac_spinor[trivial,N={n_points}]"

    def run(argv):
        del events[:], assembled[:], sizes[:], galerkin[:], eigh_sizes[:]
        assert cli.run([*argv, *out]) in (0, 1)
        assert sizes == [(n_points // period, period, period) for _, period in events]
        # one eigh per Galerkin read: its first order meets the tolerance
        assert eigh_sizes == [(2 * order + 1,) * 2 for order in galerkin if order is not None]
        return list(events), list(assembled)

    # five generated pairs: only the contrasts that run read Laplacians
    read, built = run(["verify", "--all", "--pairs", "5", "--seed", "1"])
    bundle = json.loads((tmp_path / "out" / "verify_bundle.json").read_text())
    contrasted = [not report["metadata"].get("skipped", False) for report in bundle["reports"]
                  if report["check_name"] == "laplacian_dependence"]
    assert 0 < sum(contrasted) < 5
    assert built == ["trivial"] * 10
    # the same draws: distinct densities are distinct bytes
    rng, grid = np.random.default_rng(1), GridSpec(n_points)
    pairs = [[LeafVolumeDensity.from_profile(random_profile(rng), grid) for _ in range(2)]
             for _ in range(5)]

    def distinct(densities):
        return {(d.g_values.tobytes(), d.t_bandwidth, d.period) for d in densities}

    n_distinct = len({key[0] for key in distinct([d for pair in pairs for d in pair])})
    assert n_distinct < 10
    assert [event for event in read if event[0] != "gram"] == [(spinor, 1)] * n_distinct
    contrasted_keys = distinct([d for pair, ran in zip(pairs, contrasted) if ran for d in pair])
    assert len(galerkin) == len(contrasted_keys)
    gram_periods = [event[1] for event in read if event[0] == "gram"]
    assert len(gram_periods) == galerkin.count(None)
    # the flat profile and 2 + cos t: per density its Laplacian read, then
    # per operator its period-1 read
    for argv in (["verify", "--profiles", flat, wavy], ["invariance", "--profiles", flat, wavy]):
        grams = [("gram", 1)] + ([("gram", n_points)] if orders[1] is None else [])
        assert run(argv) == (grams + [(spinor, 1)] * 2, ["trivial"] * 2)
        assert galerkin == orders
    for spin in ("trivial", "nontrivial"):
        spectrum = ["spectrum", "--profile", wavy, "--spin", spin, "--operator"]
        assert run([*spectrum, "dirac-spinor"]) == (
            [(f"dirac_spinor[{spin},N={n_points}]", 1)], [spin])
        assert run([*spectrum, "dirac-forms"]) == ([(spinor, 1)], ["trivial"])
        for operator in ("laplacian-functions", "laplacian-one-forms"):
            assert run([*spectrum, operator]) == ([("gram", n_points), (spinor, 1)], ["trivial"])
            assert galerkin == []
