"""Bound formulas, sphere-flow extrema, and the closed piecewise references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import bounds, eval_bound, piecewise_reference, s3_bounds
from foliation_lab.bounds import (
    bound_rows_csv,
    golden_section_min,
    maximize_on_interval,
    minimize_on_interval,
)
from foliation_lab.model_spaces import s3_a_norm_sq


def _by_kind(reports):
    return {report.kind: report for report in reports}


class TestEvalBound:
    def test_esti_formula(self):
        report = eval_bound("esti", 2, 2, {"inf_scal_transverse": 2.0})
        assert report.value == pytest.approx(1.0)

    def test_estmflot_formula(self):
        report = eval_bound("estmflot", 2, 2, {"inf_scal_plus_tensors": 6.5})
        assert report.value == pytest.approx(3.25)

    def test_minmax_formula(self):
        report = eval_bound("minmax", 2, 2, {"lambda_dm_sq": 2.25, "sup_a_sq": 4.0})
        assert report.value == pytest.approx(0.625)

    def test_estima_formula(self):
        report = eval_bound("estima", 3, 3, {"inf_scal_diff_plus_tensors": 8.0})
        assert report.value == pytest.approx(3.0)

    def test_collapse_formula(self):
        report = eval_bound("collapse", 2, 2, {"inf_scal_plus_a_sq": 8.0})
        assert report.value == pytest.approx(3.0)

    def test_missing_quantity_names_symbol(self):
        with pytest.raises(ValueError, match="sup_a_sq"):
            eval_bound("minmax", 2, 2, {"lambda_dm_sq": 2.25})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            eval_bound("friedrich", 2, 2, {})

    def test_codimension_one_rejected(self):
        with pytest.raises(ValueError, match="q"):
            eval_bound("esti", 1, 2, {"inf_scal_transverse": 1.0})

    @given(
        base=st.floats(0.5, 10.0),
        bump=st.floats(0.0, 5.0),
        q=st.integers(2, 6),
    )
    @settings(deadline=None, max_examples=50)
    def test_monotone_in_infimum(self, base, bump, q):
        low = eval_bound("esti", q, q, {"inf_scal_transverse": base}).value
        high = eval_bound("esti", q, q, {"inf_scal_transverse": base + bump}).value
        assert high >= low

    @given(base=st.floats(0.0, 5.0), bump=st.floats(0.0, 5.0))
    @settings(deadline=None, max_examples=50)
    def test_antitone_in_supremum(self, base, bump):
        low = eval_bound("minmax", 2, 2, {"lambda_dm_sq": 2.25, "sup_a_sq": base + bump})
        high = eval_bound("minmax", 2, 2, {"lambda_dm_sq": 2.25, "sup_a_sq": base})
        assert high.value >= low.value

    def test_positive_value_iff_positive_infimum(self):
        for infimum in (-3.0, -0.5, 0.5, 3.0):
            report = eval_bound("esti", 2, 2, {"inf_scal_transverse": infimum})
            assert (report.value > 0) == (infimum > 0)


class TestScanOptimizers:
    def test_golden_section_quadratic(self):
        # argument accuracy is limited to ~sqrt(eps) by flat comparisons
        # near the optimum; the value is what the bounds consume.
        x, fx = golden_section_min(lambda s: (s - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-13)

    def test_scan_finds_endpoint_minimum(self):
        x, fx = minimize_on_interval(lambda s: s, 0.0, 1.0, 100)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-9)

    def test_maximize(self):
        x, fx = maximize_on_interval(lambda s: -(s - 0.25) ** 2 + 2.0, 0.0, 1.0, 200)
        assert x == pytest.approx(0.25, abs=1e-6)
        assert fx == pytest.approx(2.0, abs=1e-12)

    def test_low_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            minimize_on_interval(lambda s: s, 0.0, 1.0, 10)

    @pytest.mark.parametrize("optimizer", [minimize_on_interval, maximize_on_interval])
    @pytest.mark.parametrize("resolution", [100, 437, 1000])
    def test_scan_is_one_array_call(self, optimizer, resolution):
        shapes = []

        def recording(s):
            shapes.append(np.shape(s))
            return np.cos(7.0 * np.asarray(s))

        optimizer(recording, 0.0, 1.0, resolution)
        assert shapes.count((resolution,)) == 1
        assert shapes.count(()) == len(shapes) - 1


class TestS3Bounds:
    @pytest.mark.parametrize(
        "r,esti,estmflot,minmax",
        [
            (0.25, 1.1875, 3.0625, -2.875),
            (0.5, 1.75, 3.25, 0.125),
            (2.0, 4.0, 3.25, 0.125),
            (4.0, 4.0, 3.0625, -2.875),
        ],
    )
    def test_reference_values(self, r, esti, estmflot, minmax):
        reports = _by_kind(s3_bounds(r))
        assert reports["esti"].value == pytest.approx(esti, abs=1e-9)
        assert reports["estmflot"].value == pytest.approx(estmflot, abs=1e-9)
        assert reports["minmax"].value == pytest.approx(minmax, abs=1e-9)

    def test_matches_piecewise_reference_on_log_grid(self):
        for r in np.geomspace(0.1, 10.0, 25):
            if abs(r - 1.0) < 1e-9:
                continue
            numeric = _by_kind(s3_bounds(r, resolution=400))
            reference = piecewise_reference(r)
            for kind, expected in reference.items():
                assert numeric[kind].value == pytest.approx(expected, abs=1e-6), (kind, r)

    def test_estmflot_improves_esti_below_one(self):
        for r in np.geomspace(0.1, 0.99, 20):
            reports = _by_kind(s3_bounds(r, resolution=300))
            assert reports["estmflot"].value >= reports["esti"].value

    def test_collapse_never_beats_estmflot(self):
        for r in np.geomspace(0.1, 10.0, 20):
            reports = _by_kind(s3_bounds(r, resolution=300))
            assert reports["collapse"].value <= reports["estmflot"].value + 1e-12

    def test_a_norm_convention_reproduces_both_minmax_branches(self):
        # brute-force the supremum of the squared O'Neill norm over s
        s_dense = np.linspace(0.0, 1.0, 200001)
        for r, expected_sup, expected_bound in [(2.0, 8.0, 0.125), (0.5, 8.0, 0.125)]:
            sup = float(np.max(s3_a_norm_sq(r, s_dense)))
            assert sup == pytest.approx(expected_sup, abs=1e-6)
            bound = 0.5 * 2.25 - (2.0 / 16.0) * sup
            assert bound == pytest.approx(expected_bound, abs=1e-6)
        assert float(np.max(s3_a_norm_sq(0.25, s_dense))) == pytest.approx(32.0, abs=1e-4)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            s3_bounds(0.0)


def _scalar_scan_min(fn, a, b, resolution):
    """The point-by-point scan: one scalar call per scan point, then golden section."""
    xs = np.linspace(a, b, resolution)
    values = np.array([float(fn(x)) for x in xs])
    best = int(np.argmin(values))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, resolution - 1)]
    x_ref, f_ref = golden_section_min(lambda x: float(fn(x)), lo, hi)
    if values[best] < f_ref:
        return float(xs[best]), float(values[best])
    return float(x_ref), float(f_ref)


class TestArrayScanParity:
    R_VALUES = np.concatenate(
        [np.geomspace(0.1, 10.0, 50), np.random.default_rng(20081).uniform(0.09, 11.0, 30)]
    )

    @pytest.mark.parametrize("resolution,tolerance", [(1000, 0.0), (437, 1e-15), (100, 1e-15)])
    def test_matches_scalar_scan(self, monkeypatch, resolution, tolerance):
        # array x**2 squares while scalar x**2 calls pow; they differ by at
        # most one ulp, which can move a scan's pick by ~2e-16.  On these r
        # no resolution-1000 report moves at all.
        array_reports = [s3_bounds(r, resolution) for r in self.R_VALUES]
        monkeypatch.setattr(bounds, "minimize_on_interval", _scalar_scan_min)
        scalar_reports = [s3_bounds(r, resolution) for r in self.R_VALUES]
        for fast, slow in zip(array_reports, scalar_reports):
            for got, want in zip(fast, slow):
                assert got.kind == want.kind
                assert abs(got.value - want.value) <= tolerance, (got.kind, got.r)
                assert abs(got.inputs["arg_s"] - want.inputs["arg_s"]) <= tolerance, (
                    got.kind,
                    got.r,
                )


class TestPiecewiseReference:
    def test_quarter(self):
        assert piecewise_reference(0.25)["esti"] == pytest.approx(1.1875)

    def test_branches_agree_at_one(self):
        reference = piecewise_reference(1.0)
        assert reference["esti"] == pytest.approx(4.0)
        assert reference["estmflot"] == pytest.approx(4.0)
        assert reference["minmax"] == pytest.approx(0.875)

    def test_three(self):
        assert piecewise_reference(3.0)["estmflot"] == pytest.approx(3.0 + 1.0 / 9.0)

    def test_collapse_branches(self):
        assert piecewise_reference(0.5)["collapse"] == pytest.approx(3.0 / 8.0 * 6.5)
        assert piecewise_reference(1.0)["collapse"] == pytest.approx(3.0)
        assert piecewise_reference(2.0)["collapse"] == pytest.approx(3.0 / 8.0 * 6.5)

    def test_every_sphere_flow_bound_has_a_reference(self):
        for r in (0.3, 1.0, 3.0):
            assert set(piecewise_reference(r)) == {report.kind for report in s3_bounds(r, 100)}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            piecewise_reference(-2.0)


class TestCsvRows:
    def test_rows_carry_kind_and_reference(self, tmp_path):
        path = tmp_path / "bounds.csv"
        bound_rows_csv(s3_bounds(0.5), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "kind,r,value,reference_value,abs_error"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"esti", "estmflot", "minmax", "collapse"}
        esti = rows["esti"]
        assert float(esti[2]) == pytest.approx(1.75)
        assert float(esti[3]) == pytest.approx(1.75)
        assert float(esti[4]) < 1e-9
        collapse = rows["collapse"]
        assert float(collapse[3]) == pytest.approx(3.0 / 8.0 * 6.5)
        assert float(collapse[4]) < 1e-9
