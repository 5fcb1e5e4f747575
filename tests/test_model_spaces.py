"""Model-family geometry: profile sampling, torus curvature data, sphere flows."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import _kernels
from foliation_lab._spectral_diff import uniform_nodes
from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.model_spaces import (
    CERTIFICATE_GRID_CAP,
    S3_SCALAR_CURVATURE,
    VALIDATION_GRID,
    GridSpec,
    MetricProfile,
    ProfileTerm,
    load_profile,
    s3_a_norm_sq,
    s3_kappa_norm,
    s3_transverse_scal,
    torus_geometry,
    torus_metric_sample,
)

from foliation_lab.verify import random_pair, random_profile

from conftest import exp_cos_profile, save_profile


class TestMetricProfile:
    def test_constant_profile_samples_to_constant(self, flat_profile, grid64):
        values = torus_metric_sample(flat_profile, grid64)
        np.testing.assert_allclose(values, 1.0)

    def test_cosine_profile_values(self, cosine_profile, grid64):
        values = torus_metric_sample(cosine_profile, grid64)
        expected = 2.0 + np.cos(grid64.t_nodes)[None, :]
        np.testing.assert_allclose(values, np.broadcast_to(expected, values.shape))

    def test_mixed_term_point_values(self):
        profile = MetricProfile(2.0, (ProfileTerm(1, 1, 0.5),))
        grid = GridSpec(8)
        values = profile.sample(np.array([0.0, np.pi]), np.array([0.0]))
        assert values[0, 0] == pytest.approx(2.5)
        assert values[1, 0] == pytest.approx(1.5)
        assert grid.n_points == 8

    def test_nonpositive_profile_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not a metric"):
            MetricProfile(1.0, (ProfileTerm(0, 1, 2.0),))

    def test_positive_samples_of_a_negative_profile_are_refused(self):
        # 0.5 - sin(256 t) samples to 0.5 on every node of the 512 grid
        with pytest.raises(ValueError, match="not a metric"):
            MetricProfile(0.5, [ProfileTerm(0, 256, 1.0, 0.0, np.pi / 2.0)])

    def test_profile_below_its_constant_is_built_without_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_kernels, "profile_min", lambda *args: calls.append(args))
        MetricProfile(2.0, (ProfileTerm(3, 5, 0.9, 0.4, 1.0), ProfileTerm(0, 7, -1.0)))
        assert calls == []

    def test_refined_certificate_samples_only_new_nodes(self, monkeypatch):
        # (1 + cos(30 theta)/2)(1 + cos(30 t)/2): minimum 1/4, attained on the
        # 512 grid, but the cell bound there exceeds it.  The 1024 grid adds
        # its odd theta rows and, on the even rows, its odd t columns.
        shapes = []
        kernel = _kernels.profile_min

        def recorded(*args):
            shapes.append((args[6].size, args[7].size))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "profile_min", recorded)
        terms = (ProfileTerm(30, 0, 0.5), ProfileTerm(0, 30, 0.5), ProfileTerm(30, 30, 0.25))
        profile = MetricProfile(1.0, terms)
        assert shapes == [(512, 512), (512, 1024), (512, 512)]
        assert sum(a * b for a, b in shapes) == 512**2 + 3 * 1024**2 // 4
        assert profile.min_value(1024) == pytest.approx(0.25, abs=1e-12)

    def test_profile_not_certified_by_the_finest_grid_is_refused(self):
        # (1 + cos(300 theta)/2)(1 + cos(300 t)/2) is positive, but its
        # minimum 1/4 stays below the cell bound 0.35 of the 4096 grid
        terms = (ProfileTerm(300, 0, 0.5), ProfileTerm(0, 300, 0.5), ProfileTerm(300, 300, 0.25))
        with pytest.raises(ValueError, match="not a metric: positivity is not certified"):
            MetricProfile(1.0, terms)

    @pytest.mark.parametrize(
        "constant,term,field",
        [
            (np.inf, None, "'constant'"),
            (np.nan, None, "'constant'"),
            (2.0, ProfileTerm(0, 1, -np.inf), "'terms[1].amp'"),
            (2.0, ProfileTerm(1, 0, 0.1, np.nan), "'terms[1].phase_theta'"),
            (2.0, ProfileTerm(0, 1, 0.1, 0.0, np.inf), "'terms[1].phase_t'"),
        ],
    )
    def test_non_finite_number_is_refused_before_sampling(self, monkeypatch, constant, term,
                                                          field):
        calls = []
        monkeypatch.setattr(_kernels, "profile_min", lambda *args: calls.append(args))
        terms = (ProfileTerm(0, 1, 0.5),) + ((term,) if term else ())
        with pytest.raises(ValueError, match=re.escape(f"field {field} must be finite")):
            MetricProfile(constant, terms)
        assert calls == []

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            MetricProfile(0.0)

    def test_json_round_trip(self, tmp_path, mixed_profile):
        path = tmp_path / "profile.json"
        save_profile(mixed_profile, path)
        loaded = load_profile(path)
        assert loaded == mixed_profile

    def test_malformed_document_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"terms": []}))
        with pytest.raises(ValueError, match="constant"):
            load_profile(path)

    def test_theta_average_keeps_only_axisymmetric_modes(self, mixed_profile):
        reduced = mixed_profile.theta_average()
        assert all(term.m == 0 for term in reduced.terms)
        assert len(reduced.terms) == 1
        assert reduced.terms[0].amplitude == pytest.approx(0.6)

    @given(
        constant=st.floats(1.0, 4.0),
        amp=st.floats(-0.4, 0.4),
        m=st.integers(-3, 3),
        n=st.integers(-3, 3),
        phase=st.floats(0.0, 2.0 * np.pi),
    )
    @settings(deadline=None, max_examples=40)
    def test_amplitude_below_constant_always_positive(self, constant, amp, m, n, phase):
        profile = MetricProfile(constant, (ProfileTerm(m, n, amp * constant, phase),))
        assert profile.min_value(128) > 0.0


def _full_grid_certificate(constant: float, terms: tuple) -> tuple:
    """The positivity certificate of ``MetricProfile(constant, terms)``
    sampling every G x G grid whole, theta rows included: its bound, None
    where it refuses, and its allowance e."""
    m, n, amp, ph_theta, ph_t = (np.array([getattr(term, name) for term in terms], float)
                                 for name in ("m", "n", "amplitude", "phase_theta", "phase_t"))
    size, spread = np.abs(amp), np.abs(m) + np.abs(n)
    scale = constant + float(np.sum(size * (1.0 + spread + np.abs(ph_theta) + np.abs(ph_t))))
    allowance = 32.0 * (amp.size + 1) * np.finfo(np.float64).eps * scale
    if constant - float(size.sum()) > allowance:
        return constant - float(size.sum()) - allowance, allowance
    grid_points, minimum = VALIDATION_GRID, np.inf
    while grid_points <= CERTIFICATE_GRID_CAP:
        nodes = uniform_nodes(grid_points)
        minimum = min(minimum, float(_kernels.sample_profile(constant, m, n, amp, ph_theta,
                                                             ph_t, nodes, nodes).min()))
        if not minimum > 0.0:
            return None, allowance
        margin = minimum - (np.pi / grid_points) * float(np.sum(size * spread))
        if margin > allowance:
            return margin - allowance, allowance
        grid_points *= 2
    return None, allowance


def _parity_profiles() -> dict:
    """The profile documents of ``tools/parity.py``."""
    spec = importlib.util.spec_from_file_location(
        "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity.PROFILES


def _theta_free_profiles() -> dict:
    """The theta-averages of ``tools/parity.py``'s profiles and of the first
    ``random_profile`` and ``random_pair`` draws of seeds 0 to 9, and three
    profiles that the certificate proves by sampling."""
    profiles = {name: MetricProfile.from_dict(document).theta_average()
                for name, document in _parity_profiles().items()}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        profiles[f"seed{seed}"] = random_profile(rng).theta_average()
        for index, profile in enumerate(random_pair(rng)):
            profiles[f"pair{seed}-{index}"] = profile.theta_average()
    profiles["low"] = MetricProfile(1.0, (ProfileTerm(0, 1, 0.6), ProfileTerm(0, 2, 0.6)))
    profiles["sampled"] = MetricProfile(1.0, (ProfileTerm(0, 1, 0.55),
                                              ProfileTerm(0, 2, 0.55, 0.0, 0.4)))
    # minimum 0.005 at t = pi, below (pi / 512) L: refined to 1024 points
    profiles["fine"] = MetricProfile(1.0, (ProfileTerm(0, 1, 0.998), ProfileTerm(0, 2, 0.003)))
    return profiles


@pytest.mark.parametrize("name, profile", list(_theta_free_profiles().items()))
def test_theta_free_certificate_reads_one_row(name, profile):
    """A profile with no theta term is certified on its theta = 0 row: the
    verdict is the full-grid path's, and the bound too, up to the order in
    which the samples' products sum, which the allowance e covers: the two
    minima are each within the samples' error 39.01 (K + 1) u S < e of the
    exact minimum over their nodes."""
    bound, allowance = _full_grid_certificate(profile.constant, profile.terms)
    assert bound is not None
    assert abs(profile.min_bound - bound) <= allowance
    if name in ("low", "sampled", "fine"):
        assert profile.constant - sum(abs(term.amplitude) for term in profile.terms) <= allowance


def test_a_theta_free_minimum_forms_one_row(monkeypatch):
    """``profile_min`` of a profile with no theta term forms the theta = 0
    row alone, and of one with a theta term every row."""
    profiles = [MetricProfile(1.0, (ProfileTerm(m, 1, 0.6), ProfileTerm(0, 2, 0.6)))
                for m in (0, 1)]
    shapes = []
    factors = _kernels._factors

    def recorded(*args):
        cols, rows = factors(*args)
        shapes.append(cols.shape)
        return cols, rows

    monkeypatch.setattr(_kernels, "_factors", recorded)
    for profile in profiles:
        profile.min_value(64)
    assert shapes == [(3, 1), (3, 64)]


@pytest.mark.parametrize("terms", [(ProfileTerm(0, 1, 1.0),),
                                   (ProfileTerm(0, 1, 0.7), ProfileTerm(0, 3, 0.4, 0.0, 0.2))])
def test_theta_free_refusal_is_the_full_grid_refusal(terms):
    """1 + cos t, zero at t = pi, and 1 + 0.7 cos t + 0.4 cos(3t + 0.2),
    negative near t = pi: refused on the row as on the full grid."""
    assert _full_grid_certificate(1.0, terms)[0] is None
    with pytest.raises(ValueError, match="profile is not a metric"):
        MetricProfile(1.0, terms)


class TestGridSpec:
    @pytest.mark.parametrize("n_points", [7, 6, 9, 0])
    def test_rejects_bad_sizes(self, n_points):
        with pytest.raises(ValueError):
            GridSpec(n_points)

    def test_rejects_unknown_spin_structure(self):
        with pytest.raises(ValueError):
            GridSpec(64, "spin-half")

    def test_trust_window(self):
        assert GridSpec(128).trust_window == 16.0

    def test_aliased_frequencies_are_refused_where_the_grid_samples_them(self):
        grid = GridSpec(64)
        t_fast = MetricProfile(2.0, (ProfileTerm(0, 32, 0.5),))
        theta_fast = MetricProfile(2.0, (ProfileTerm(32, 1, 0.5),))
        with pytest.raises(ValueError, match="t-frequency 32 is not resolved on 64 points"):
            LeafVolumeDensity.from_profile(t_fast).samples(64)
        with pytest.raises(ValueError, match="t-frequency 32 is not resolved on 64 points"):
            torus_metric_sample(t_fast, grid)
        with pytest.raises(ValueError, match="theta-frequency 32 is not resolved"):
            torus_geometry(theta_fast, grid)
        # the density of theta_fast keeps only m = 0 modes, so it is resolved
        density = LeafVolumeDensity.from_profile(theta_fast)
        assert density.t_bandwidth == 0 and density.samples(64)[0].shape == (64,)
        assert torus_metric_sample(t_fast, GridSpec(66)).shape == (66, 66)


class TestTorusGeometry:
    def test_flat_profile_has_zero_curvature_data(self, flat_profile, grid64):
        geometry = torus_geometry(flat_profile, grid64)
        np.testing.assert_allclose(geometry.kappa_coeff, 0.0, atol=1e-13)
        np.testing.assert_allclose(geometry.scal_m, 0.0, atol=1e-13)

    def test_t_independent_profile_has_zero_curvature_data(self, grid64):
        profile = MetricProfile(2.0, (ProfileTerm(2, 0, 0.7, 0.4),))
        geometry = torus_geometry(profile, grid64)
        np.testing.assert_allclose(geometry.kappa_coeff, 0.0, atol=1e-13)
        np.testing.assert_allclose(geometry.scal_m, 0.0, atol=1e-13)

    def test_cosine_profile_against_symbolic_oracle(self, cosine_profile, grid128):
        t = sp.symbols("t")
        f_expr = 2 + sp.cos(t)
        kappa_fn = sp.lambdify(t, -sp.diff(f_expr, t) / f_expr)
        scal_fn = sp.lambdify(t, -2 * sp.diff(f_expr, t, 2) / f_expr)
        geometry = torus_geometry(cosine_profile, grid128)
        ts = grid128.t_nodes
        np.testing.assert_allclose(
            geometry.kappa_coeff, np.broadcast_to(kappa_fn(ts), geometry.kappa_coeff.shape), atol=1e-12
        )
        np.testing.assert_allclose(
            geometry.scal_m, np.broadcast_to(scal_fn(ts), geometry.scal_m.shape), atol=1e-12
        )

    def test_exponential_profile_kappa_is_sine(self, grid128):
        profile = exp_cos_profile(1.0)
        geometry = torus_geometry(profile, grid128)
        expected = np.sin(grid128.t_nodes)
        np.testing.assert_allclose(
            geometry.kappa_coeff,
            np.broadcast_to(expected, geometry.kappa_coeff.shape),
            atol=1e-12,
        )

    def test_mixed_profile_against_symbolic_oracle(self, grid128):
        profile = MetricProfile(2.0, (ProfileTerm(1, 1, 0.5, 0.3, 0.7),))
        theta, t = sp.symbols("theta t")
        f_expr = 2 + sp.Rational(1, 2) * sp.cos(theta + 0.3) * sp.cos(t + 0.7)
        kappa_fn = sp.lambdify((theta, t), -sp.diff(f_expr, t) / f_expr)
        geometry = torus_geometry(profile, grid128)
        thetas = grid128.t_nodes[:, None]
        ts = grid128.t_nodes[None, :]
        np.testing.assert_allclose(geometry.kappa_coeff, kappa_fn(thetas, ts), atol=1e-12)


class TestS3Geometry:
    def test_hopf_flow_is_homogeneous(self):
        for s in (0.0, 0.3, 0.5, 1.0):
            assert s3_transverse_scal(1.0, s) == pytest.approx(8.0)
            assert s3_kappa_norm(1.0, s) == pytest.approx(0.0)
            assert s3_a_norm_sq(1.0, s) == pytest.approx(2.0)

    def test_frozen_rational_point_values(self):
        assert s3_transverse_scal(0.5, 0.5) == pytest.approx(4.4)
        assert s3_kappa_norm(0.5, 0.5) == pytest.approx(0.6)
        assert s3_a_norm_sq(0.5, 0.5) == pytest.approx(1.28)

        assert s3_transverse_scal(2.0, 0.0) == pytest.approx(26.0)
        assert s3_kappa_norm(2.0, 0.0) == pytest.approx(0.0)
        assert s3_a_norm_sq(2.0, 0.0) == pytest.approx(8.0)

    def test_ambient_constants(self):
        assert S3_SCALAR_CURVATURE == 6.0

    @pytest.mark.parametrize("r", [0.3, 0.5, 2.0, 5.0])
    def test_kappa_vanishes_exactly_at_poles(self, r):
        assert s3_kappa_norm(r, 0.0) == 0.0
        assert s3_kappa_norm(r, 1.0) == 0.0
        assert s3_kappa_norm(r, 0.5) > 0.0

    @pytest.mark.parametrize("r", [0.25, 0.5, 2.0, 4.0])
    def test_transverse_scal_monotone_in_s(self, r):
        s_values = np.linspace(0.0, 1.0, 200)
        scal = np.array([float(s3_transverse_scal(r, s)) for s in s_values])
        diffs = np.diff(scal)
        if r < 1.0:
            assert (diffs >= -1e-12).all()
        else:
            assert (diffs <= 1e-12).all()
