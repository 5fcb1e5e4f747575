"""Bound formulas, sphere-flow extrema, and the closed piecewise references."""

import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import bounds
from foliation_lab.bounds import (
    BOUND_KINDS,
    bound_failures,
    bound_rows_csv,
    bound_value,
    eval_bound,
    golden_section_min,
    maximize_on_interval,
    minimize_on_interval,
    piecewise_reference,
    s3_bounds,
    s3_quantities,
)
from foliation_lab.model_spaces import (
    S3_SCALAR_CURVATURE,
    s3_a_norm_sq,
    s3_kappa_norm,
    s3_transverse_scal,
)

from su2_oracle import dirac_spectrum


def _by_kind(table, column="value", row=0):
    """Row ``row`` of one (R, 4) column of an ``s3_bounds`` table, keyed by kind."""
    return dict(zip(BOUND_KINDS, getattr(table, column)[row].tolist()))


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

    def test_collapse_formula(self):
        report = eval_bound("collapse", 2, 2, {"inf_scal_plus_a_sq": 8.0})
        assert report.value == pytest.approx(3.0)

    def test_missing_quantity_names_symbol(self):
        with pytest.raises(ValueError, match="sup_a_sq"):
            eval_bound("minmax", 2, 2, {"lambda_dm_sq": 2.25})

    def test_unknown_kind_rejected(self):
        for kind in ("friedrich", "estima"):
            with pytest.raises(ValueError, match="kind"):
                eval_bound(kind, 2, 2, {})

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

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    @given(
        rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=1, max_size=8),
        q=st.integers(2, 6),
        n=st.integers(1, 6),
    )
    @settings(deadline=None, max_examples=50)
    def test_array_formula_is_eval_bound_bit_for_bit(self, kind, rows, q, n):
        """One bound_value call on columns gives, element by element, the
        bits of eval_bound on the scalars: the same IEEE operations in the
        same order."""
        names = tuple(s3_quantities(kind, 0.0))  # every quantity kind requires
        scalars = [dict(zip(names, row)) for row in rows]
        columns = {name: np.array([row[name] for row in scalars]) for name in names}
        values = bound_value(kind, q, n, columns)
        assert values.shape == (len(rows),)
        for value, quantities in zip(values.tolist(), scalars):
            expected = eval_bound(kind, q, n, quantities).value
            assert np.float64(value).tobytes() == np.float64(expected).tobytes(), quantities


class TestScanOptimizers:
    def test_golden_section_quadratic(self):
        # argument accuracy is limited to ~sqrt(eps) by flat comparisons
        # near the optimum; the value is what the bounds consume.
        x, fx = golden_section_min(lambda s: (s - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-13)

    def test_golden_section_runs_searches_elementwise(self):
        centres = np.array([[0.1], [0.37], [0.8]])
        x, fx = golden_section_min(lambda s: (s - centres) ** 2, np.zeros((3, 1)), np.ones((3, 1)))
        assert x.shape == fx.shape == (3, 1)
        np.testing.assert_allclose(x, centres, atol=1e-6)
        np.testing.assert_allclose(fx, 0.0, atol=1e-13)

    def test_golden_section_freezes_each_search_where_the_scalar_loop_stops(self):
        # Brackets of widths 1 down to 1e-11 take from about 48 steps down to none.
        lo = np.array([[0.0], [0.2], [0.5], [0.3], [0.6]])
        hi = lo + np.array([[1.0], [1e-2], [1e-9], [1e-3], [1e-11]])
        centres = np.array([[0.37], [0.205], [0.5], [0.9], [0.0]])
        x, fx = golden_section_min(lambda s: (s - centres) * (s - centres), lo, hi)
        for i in range(5):
            c = float(centres[i, 0])
            want = _scalar_golden_min(lambda s: (s - c) * (s - c), float(lo[i, 0]), float(hi[i, 0]))
            assert (x[i, 0], fx[i, 0]) == want

    def test_scan_finds_endpoint_minimum(self):
        (x,), (fx,) = minimize_on_interval(lambda s: s, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-9)

    def test_maximize(self):
        """Rows that rise take b, rows that fall take a, each with its exact value."""
        slopes = np.array([[2.0], [-3.0], [0.5]])
        x, fx = maximize_on_interval(lambda s: slopes * s + 1.0, 0.25, 0.75)
        np.testing.assert_array_equal(x, [0.75, 0.25, 0.75])
        np.testing.assert_array_equal(fx, [2.5, 0.25, 1.375])

    def test_one_extremum_per_row(self):
        """A batch of rising and falling rows: each row's minimum is its lower
        endpoint value, read exactly, at its own endpoint."""
        slopes = np.array([[1.0], [-1.0], [4.0], [-0.5]])
        x, fx = minimize_on_interval(lambda s: slopes * (s - 0.5), -1.0, 2.0)
        np.testing.assert_array_equal(x, [-1.0, 2.0, -1.0, 2.0])
        np.testing.assert_array_equal(fx, [-1.5, -1.5, -6.0, -0.75])

    def test_tie_goes_to_a(self):
        levels = np.array([[3.0], [-2.0], [0.0]])
        for optimizer in (minimize_on_interval, maximize_on_interval):
            x, fx = optimizer(lambda s: levels + 0.0 * s, 0.2, 0.9)
            np.testing.assert_array_equal(x, [0.2, 0.2, 0.2])
            np.testing.assert_array_equal(fx, levels[:, 0])

    @pytest.mark.parametrize("optimizer", [minimize_on_interval, maximize_on_interval])
    @pytest.mark.parametrize("rows", [1, 7, 50])
    def test_scan_is_one_array_call(self, optimizer, rows):
        """One call on the (1, 2) endpoints [[a, b]], returning (R, 2), and nothing after it."""
        offsets = np.linspace(0.0, 0.45, rows)[:, np.newaxis]
        points, shapes = [], []

        def recording(s):
            values = np.cos(7.0 * (s + offsets))
            points.append(s)
            shapes.append(values.shape)
            return values

        x, fx = optimizer(recording, 0.125, 0.875)
        assert shapes == [(rows, 2)]
        np.testing.assert_array_equal(points[0], [[0.125, 0.875]])
        assert x.shape == fx.shape == (rows,)


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
        values = _by_kind(s3_bounds(r))
        assert values["esti"] == pytest.approx(esti, abs=1e-9)
        assert values["estmflot"] == pytest.approx(estmflot, abs=1e-9)
        assert values["minmax"] == pytest.approx(minmax, abs=1e-9)

    def test_matches_piecewise_reference_on_log_grid(self):
        for r in np.geomspace(0.1, 10.0, 25):
            if abs(r - 1.0) < 1e-9:
                continue
            table = s3_bounds(r)
            numeric, carried = _by_kind(table), _by_kind(table, "reference")
            reference = piecewise_reference(r)
            for kind, expected in reference.items():
                assert numeric[kind] == pytest.approx(expected, abs=1e-6), (kind, r)
                assert carried[kind] == expected

    def test_estmflot_improves_esti_below_one(self):
        for r in np.geomspace(0.1, 0.99, 20):
            values = _by_kind(s3_bounds(r))
            assert values["estmflot"] >= values["esti"]

    def test_collapse_never_beats_estmflot(self):
        for r in np.geomspace(0.1, 10.0, 20):
            values = _by_kind(s3_bounds(r))
            assert values["collapse"] <= values["estmflot"] + 1e-12

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

    def test_sequence_of_r_is_r_major(self):
        table = s3_bounds([0.5, 2.0, 1.0])
        kinds = ("esti", "estmflot", "minmax", "collapse")
        assert table.r.tolist() == [0.5, 2.0, 1.0]
        lines = bound_rows_csv(table).splitlines()[1:]
        assert [(float(line.split(",")[1]), line.split(",")[0]) for line in lines] == [
            (r, kind) for r in (0.5, 2.0, 1.0) for kind in kinds
        ]
        assert all(type(r) is float for r in table.r.tolist())
        alone = s3_bounds(2.0)
        for column in ("r", "value", "reference", "arg_s", "extremum"):
            assert getattr(table, column)[1].tobytes() == getattr(alone, column)[0].tobytes()

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.inf, -np.inf, np.nan])
    def test_every_r_is_checked_before_any_work(self, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("evaluated before every r was checked")

        monkeypatch.setattr(bounds, "minimize_on_interval", unreachable)
        monkeypatch.setattr(bounds, "maximize_on_interval", unreachable)
        with pytest.raises(ValueError, match="positive and finite"):
            s3_bounds([0.5, 2.0, bad])

    def test_rejects_nested_r(self):
        with pytest.raises(ValueError, match="1-D"):
            s3_bounds([[0.5, 2.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_r_whose_scans_overflow(self, monkeypatch):
        assert s3_bounds(65536.0).value.shape == (1, 4)

        def unreachable(*args):
            raise AssertionError("evaluated before every r was checked")

        monkeypatch.setattr(bounds, "minimize_on_interval", unreachable)
        monkeypatch.setattr(bounds, "maximize_on_interval", unreachable)
        for big in (1e154, 1e200, 1e300):
            message = f"r = {big} is too large: 6*r*r overflows"
            with pytest.raises(ValueError, match=re.escape(message)):
                s3_bounds([0.5, big])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r_values,message", [
        ([2.0, -1.0, np.nan], "flow parameter r must be positive and finite, got -1.0"),
        ([2.0, 1e-200, -1.0], "flow parameter r = 1e-200 is too small: r*r underflows to 0"),
        ([1e200, 1e-200], "flow parameter r = 1e+200 is too large: 6*r*r overflows"),
        # Every r passes the first three conditions before any reference is read.
        ([1e-150, 1e200], "flow parameter r = 1e+200 is too large: 6*r*r overflows"),
        ([0.5, 1e-160, 1e-150], "flow parameter r = 1e-160 is out of range: 8 ulps of its "
                                "minmax reference -inf are nan"),
    ])
    def test_names_the_first_r_that_fails_and_the_first_condition(self, monkeypatch, r_values,
                                                                  message):
        def unreachable(*args):
            raise AssertionError("evaluated before every r was checked")

        monkeypatch.setattr(bounds, "minimize_on_interval", unreachable)
        with pytest.raises(ValueError, match=re.escape(message)):
            s3_bounds(r_values)

    @pytest.mark.parametrize("r", [1.5258789054506396e-05, 65536.00003433226])
    def test_largest_references_still_resolved_match_them(self, r):
        table = s3_bounds(r)
        assert bound_failures(table) == []
        assert np.max(np.abs(table.reference)) > 2.0**29

    @pytest.mark.parametrize("r", [1.5258789054506394e-05, 65536.00003433228, 1e-150, 5e153])
    def test_rejects_r_whose_reference_the_tolerance_cannot_resolve(self, monkeypatch, r):
        def unreachable(*args):
            raise AssertionError("evaluated before every r was checked")

        monkeypatch.setattr(bounds, "minimize_on_interval", unreachable)
        message = f"flow parameter r = {r} is out of range: 8 ulps of its minmax reference"
        with pytest.raises(ValueError, match=re.escape(message)):
            s3_bounds([0.5, r])


_R, _S = sp.symbols("r s", positive=True)
_DENOMINATOR = _R**2 * _S + 1 - _S  # s3_denominator
_A_SQ = 2 * (_R / _DENOMINATOR) ** 2
_KAPPA_SQ = (1 - _R**2) ** 2 * _S * (1 - _S) / _DENOMINATOR**2
# The integrands s3_bounds minimizes over s, in BOUND_KINDS order, in closed
# form, and the s-derivatives the bounds module docstring states.
_INTEGRANDS = {
    "esti": (2 + 6 * _R**2 / _DENOMINATOR, -6 * _R**2 * (_R**2 - 1) / _DENOMINATOR**2),
    "estmflot": (S3_SCALAR_CURVATURE + _A_SQ + _KAPPA_SQ,
                 -(_R**2 - 1) * (_R**4 * _S - _S + 3 * _R**2 + 1) / _DENOMINATOR**3),
    "minmax": (-_A_SQ, 4 * _R**2 * (_R**2 - 1) / _DENOMINATOR**3),
    "collapse": (S3_SCALAR_CURVATURE + _A_SQ, -4 * _R**2 * (_R**2 - 1) / _DENOMINATOR**3),
}


class TestIntegrandsAreMonotone:
    """Why a scan of [0, 1] with both endpoints finds every sphere-flow
    extremum exactly: each integrand's s-derivative is (r^2 - 1) times a
    factor with no root in [0, 1] over a power of s3_denominator, which is
    positive there, so each integrand is strictly monotone in s for r != 1
    and constant at r = 1.  An edit to an integrand that lets an interior
    extremum appear fails here."""

    @pytest.mark.parametrize("r", [sp.Rational(1, 3), sp.Rational(1, 2), 2, sp.Rational(7, 3)])
    @pytest.mark.parametrize("s", [0, sp.Rational(1, 4), sp.Rational(3, 5), 1])
    def test_closed_forms_match_the_curvature_functions(self, r, s):
        """The composition of s3_bounds at rational (r, s) is within 16 eps of
        the exact value: each value takes at most a dozen roundings, and its
        one subtraction, 1 - r^2, amplifies them by at most
        r^2 / |1 - r^2| <= 4/3 at these r."""
        s_row = np.array([[float(s)]])
        kappa = s3_kappa_norm(float(r), s_row)
        a_sq = s3_a_norm_sq(float(r), s_row)
        computed = {"esti": s3_transverse_scal(float(r), s_row),
                    "estmflot": S3_SCALAR_CURVATURE + a_sq + kappa * kappa,
                    "minmax": -a_sq, "collapse": S3_SCALAR_CURVATURE + a_sq}
        for kind, (integrand, _) in _INTEGRANDS.items():
            exact = integrand.subs({_R: r, _S: s})
            error = abs(float(computed[kind][0, 0]) - float(exact))
            assert error <= 16 * np.finfo(np.float64).eps * abs(float(exact)), kind

    @pytest.mark.parametrize("kind", list(_INTEGRANDS))
    def test_derivative_numerator_has_no_root_in_the_interval(self, kind):
        integrand, stated = _INTEGRANDS[kind]
        derivative = sp.diff(integrand, _S)
        assert sp.cancel(derivative - stated) == 0
        numerator, denominator = sp.fraction(sp.factor(derivative))
        base, power = denominator.as_base_exp()
        assert sp.expand(base - _DENOMINATOR) == 0 and power.is_Integer and power > 0
        # The denominator is positive on [0, 1]: it is linear in s, 1 at s = 0, r^2 at s = 1.
        assert sp.degree(_DENOMINATOR, _S) == 1
        assert _DENOMINATOR.subs(_S, 0).is_positive and _DENOMINATOR.subs(_S, 1).is_positive
        factor, remainder = sp.div(numerator, _R**2 - 1, _R, _S)
        assert remainder == 0
        # The factor is at most linear in s and of one strict sign at both
        # ends of [0, 1] for every r > 0, so it has no root in between.
        assert sp.degree(factor, _S) <= 1
        ends = [factor.subs(_S, 0), factor.subs(_S, 1)]
        assert all(end.is_positive for end in ends) or all(end.is_negative for end in ends)


@pytest.mark.parametrize("r_values", [
    np.array([0.5]),
    np.geomspace(0.1, 10.0, 50),
    np.concatenate([np.geomspace(0.1, 10.0, 6), [1.0, 3e-3, 6e4]]),
], ids=["one", "sweep", "mixed"])
def test_one_stacked_search_serves_all_four_families(monkeypatch, r_values):
    """One endpoint read over the four families of every r: the curvature
    functions are evaluated once, on (rows, 2) points, and nothing refines it."""
    rows = r_values.size
    calls = {"minimize_on_interval": 0, "golden_section_min": 0}
    shapes = {name: [] for name in ("s3_transverse_scal", "s3_kappa_norm", "s3_a_norm_sq")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(bounds, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(bounds, name, counted)
    for name in shapes:
        def recorded(r, s, _name=name, _fn=getattr(bounds, name)):
            shapes[_name].append(np.broadcast(r, s).shape)
            return _fn(r, s)

        monkeypatch.setattr(bounds, name, recorded)
    s3_bounds(r_values)
    assert calls == {"minimize_on_interval": 1, "golden_section_min": 0}
    for name, seen in shapes.items():
        assert seen == [(rows, 2)], name


def _scalar_golden_min(fn, a, b, tol=1e-10):
    """The scalar golden-section loop whose steps every batched search must take."""
    inv = 1.0 / bounds.GOLDEN_RATIO
    c = b - (b - a) * inv
    d = a + (b - a) * inv
    fc = fn(c)
    fd = fn(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _scalar_scan_min(fn, a, b, resolution):
    """The point-by-point scan: one scalar call per scan point, first minimum."""
    xs = np.linspace(a, b, resolution)
    values = [fn(float(x)) for x in xs]
    best = int(np.argmin(values))
    return float(xs[best]), values[best]


def _scalar_integrands(r):
    """The four family integrands s3_bounds minimizes, at one r, as scalar
    functions of s keyed by kind.

    Each curvature value is read from a one-element array, so that x**2
    squares as it does in the batch: a scalar x**2 calls pow, which differs
    from squaring by one ulp for about one x in a thousand.  Every other
    operation is the same IEEE operation on Python floats.
    """

    def at(curvature, s):
        return float(curvature(r, np.array([s]))[0])

    def combined(s):
        kappa = at(s3_kappa_norm, s)
        return S3_SCALAR_CURVATURE + at(s3_a_norm_sq, s) + kappa * kappa

    return {"esti": lambda s: at(s3_transverse_scal, s), "estmflot": combined,
            "minmax": lambda s: -at(s3_a_norm_sq, s),
            "collapse": lambda s: S3_SCALAR_CURVATURE + at(s3_a_norm_sq, s)}


def _scalar_s3_bounds(r, resolution):
    """Per-r oracle for s3_bounds: one scalar scan per family, giving each
    family's (kind, value, arg_s, quantities)."""
    integrands = _scalar_integrands(r)
    s_esti, esti = _scalar_scan_min(integrands["esti"], 0.0, 1.0, resolution)
    s_flot, flot = _scalar_scan_min(integrands["estmflot"], 0.0, 1.0, resolution)
    s_max, negative_sup = _scalar_scan_min(integrands["minmax"], 0.0, 1.0, resolution)
    s_col, col = _scalar_scan_min(integrands["collapse"], 0.0, 1.0, resolution)
    rows = (
        ("esti", {"inf_scal_transverse": esti}, s_esti),
        ("estmflot", {"inf_scal_plus_tensors": flot}, s_flot),
        ("minmax", {"lambda_dm_sq": 2.25, "sup_a_sq": -negative_sup}, s_max),
        ("collapse", {"inf_scal_plus_a_sq": col}, s_col),
    )
    return [(kind, eval_bound(kind, 2, 2, quantities).value, arg_s, quantities)
            for kind, quantities, arg_s in rows]


def _rows(table):
    """An s3_bounds table's rows, r-major, as (r, kind, value, arg_s,
    quantities) with Python floats, the quantities as the JSON report names them."""
    return [
        (r, kind, value, arg_s, s3_quantities(kind, extremum))
        for r, values, args, extrema in zip(table.r.tolist(), table.value.tolist(),
                                            table.arg_s.tolist(), table.extremum.tolist())
        for kind, value, arg_s, extremum in zip(BOUND_KINDS, values, args, extrema)
    ]


class TestArrayScanParity:
    # r = 1 makes every integrand flat, so its arg_s is the first scan point.
    R_VALUES = np.concatenate(
        [
            np.geomspace(0.1, 10.0, 50),
            [1.0],
            np.random.default_rng(20081).uniform(0.09, 11.0, 30),
        ]
    )

    @pytest.mark.parametrize("resolution", [1000, 437, 100])
    def test_matches_scalar_scan(self, resolution):
        got = _rows(s3_bounds(self.R_VALUES))
        expected = [
            (float(r), *row) for r in self.R_VALUES for row in _scalar_s3_bounds(r, resolution)
        ]
        assert got == expected
        assert {arg_s for r, _, _, arg_s, _ in got if r == 1.0} == {0.0}


class TestEndpointReadMatchesTheScan:
    """The endpoint read against the 1000-point scan, over r drawn
    log-uniformly from the accepted range and r within round-off of 1, where
    the computed integrands are flat to round-off and the scan's first
    minimum may be an interior point."""

    R_VALUES = np.concatenate([
        np.exp(np.random.default_rng(28).uniform(np.log(1.6e-5), np.log(65000.0), 48)),
        [np.nextafter(1.0, np.inf), np.nextafter(1.0, -np.inf)],
        1.0 + np.array([1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]),
    ])

    def test_values_equal_the_scan_and_arg_s_ties_its_minimum(self):
        rows = _rows(s3_bounds(self.R_VALUES))
        moved = set()
        for i, r in enumerate(self.R_VALUES.tolist()):
            integrands = _scalar_integrands(r)
            for row, (kind, value, scan_s, quantities) in zip(rows[4 * i:4 * i + 4],
                                                              _scalar_s3_bounds(r, 1000)):
                assert row[:3] == (r, kind, value)
                assert row[4] == quantities
                arg_s = row[3]
                assert arg_s in (0.0, 1.0)
                if arg_s != scan_s:
                    assert integrands[kind](arg_s) == integrands[kind](scan_s), (kind, r)
                    moved.add(r)
        assert moved and all(abs(r - 1.0) < 1e-12 for r in moved), sorted(moved)


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
            assert set(piecewise_reference(r)) == set(BOUND_KINDS)
            assert s3_bounds(r).reference.shape == (1, len(BOUND_KINDS))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            piecewise_reference(-2.0)


class TestCsvRows:
    def test_rows_carry_kind_and_reference(self):
        lines = bound_rows_csv(s3_bounds(0.5)).strip().split("\n")
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


class TestSu2Oracle:
    """``FIRST_DIRAC_EIGENVALUE_SQ_S3`` against the exact Peter-Weyl spectra of
    the Berger spheres S^3_T (``su2_oracle``); T = 1 is the unit round sphere."""

    def test_round_sphere_spectrum(self):
        """Blocks n <= 6 hold every eigenvalue with |lambda| <= 6.5: +-(k + 3/2)
        with multiplicity (k + 1)(k + 2) for k <= 5, and nothing else."""
        values, multiplicities = dirac_spectrum(1.0, 6)
        in_window = np.abs(values) <= 6.5 + 1e-10
        for k in range(6):
            for sign in (1.0, -1.0):
                near = np.abs(values - sign * (k + 1.5)) <= 1e-10
                assert multiplicities[near].sum() == (k + 1) * (k + 2)
        assert multiplicities[in_window].sum() == sum(2 * (k + 1) * (k + 2) for k in range(6))

    def test_first_eigenvalue_pins_the_constant(self):
        values, _ = dirac_spectrum(1.0, 6)
        assert np.min(values**2) == pytest.approx(bounds.FIRST_DIRAC_EIGENVALUE_SQ_S3, abs=1e-10)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.5, 2.0])
    def test_berger_first_eigenvalue(self, t):
        """lambda_1(D_T)^2 = (2 - T/2)^2, which tends to the basic lambda_b^2 = 4 as T -> 0."""
        values, _ = dirac_spectrum(t, 40)
        assert np.min(values**2) == pytest.approx((2.0 - t / 2.0) ** 2, abs=1e-10)


class TestBergerSphereBounds:
    """The four bound families on the Berger spheres S^3_T, T on a grid over
    (0, 4]: each S^3_T is a bundle-like metric for the Hopf flow with the
    transverse metric of S^2(1/2), so every T bounds the same basic spectrum,
    lambda_b^2 = 4 (ROADMAP item 12).

    The inputs.  The Hopf map S^3_T -> S^2(1/2) is a Riemannian submersion
    whose fibres, the orbits of the Killing field X_3 of constant length T,
    are totally geodesic, so kappa = 0.  For one-dimensional geodesic fibres
    O'Neill's formula loses the fibre's own curvature and the T and N terms
    and reads Scal_M = Scal_B - |A|^2, with Scal_B = 8, the transverse scalar
    curvature of the sphere of radius 1/2 (Gauss curvature 4).  On the
    orthonormal frame e_1 = X_1, e_2 = X_2, e_3 = X_3 / T of ``su2_oracle``,
    [e_1, e_2] = 2 X_3 = 2T e_3, so A_{e_1} e_2 = V[e_1, e_2] / 2 = T e_3 and
    |A_T|^2 = |A_{e_1} e_2|^2 + |A_{e_2} e_1|^2 = 2T^2, the convention of
    ``s3_a_norm_sq``.  Hence Scal_M = 8 - 2T^2.  lambda_1(D_T)^2 is the
    smallest squared eigenvalue of the exact Peter-Weyl blocks.
    """

    T_VALUES = np.linspace(0.0, 4.0, 41)[1:]  # 0.1, 0.2, ..., 4
    ROUND = 9  # T_VALUES[9] == 1.0

    @staticmethod
    def _first_eigenvalue_sq(t):
        """lambda_1(D_T)^2 from the blocks n <= 20, converged: the blocks n <= 10 give it too."""
        coarse, fine = (float(np.min(dirac_spectrum(t, n_max)[0] ** 2)) for n_max in (10, 20))
        assert fine == pytest.approx(coarse, abs=1e-12), t
        return fine

    @pytest.fixture(scope="class")
    def berger(self):
        """The curvature inputs on the T column, and each family's formula
        called once on them."""
        t = self.T_VALUES
        a_sq = 2.0 * t * t
        scal_m = 8.0 - a_sq
        kappa = np.zeros_like(t)
        quantities = {
            "esti": {"inf_scal_transverse": np.full_like(t, 8.0)},
            "estmflot": {"inf_scal_plus_tensors": scal_m + a_sq + kappa * kappa},
            "minmax": {"lambda_dm_sq": np.array([self._first_eigenvalue_sq(x) for x in t]),
                       "sup_a_sq": a_sq},
            "collapse": {"inf_scal_plus_a_sq": scal_m + a_sq},
        }
        values = {kind: bound_value(kind, bounds.S3_FLOW_Q, bounds.S3_FLOW_N, quantities[kind])
                  for kind in BOUND_KINDS}
        return a_sq, scal_m, values

    def test_curvature_inputs_are_the_round_sphere_at_t_one(self, berger):
        a_sq, scal_m, _ = berger
        assert self.T_VALUES[self.ROUND] == 1.0
        s = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(s3_a_norm_sq(1.0, s), a_sq[self.ROUND], rtol=0, atol=1e-14)
        assert scal_m[self.ROUND] == S3_SCALAR_CURVATURE

    def test_round_row_is_the_r_one_row_of_s3_bounds(self, berger):
        _, _, values = berger
        sphere_flow = _by_kind(s3_bounds(1.0))
        for kind in BOUND_KINDS:
            assert abs(values[kind][self.ROUND] - sphere_flow[kind]) <= 1e-10, kind

    def test_no_family_exceeds_the_basic_eigenvalue(self, berger):
        """Every family stays at or below lambda_b^2 = 4 at every T: esti and
        estmflot equal 4 throughout, collapse is 3, and minmax,
        (2 - T/2)^2 / 2 - T^2 / 4, falls from 1.89875 at T = 0.1 to -4 at T = 4."""
        _, _, values = berger
        for kind in BOUND_KINDS:
            assert np.all(values[kind] <= 4.0), (kind, values[kind].max())
        supremum = {kind: float(values[kind].max()) for kind in BOUND_KINDS}
        assert supremum["esti"] == supremum["estmflot"] == 4.0
        assert supremum["collapse"] == 3.0
        t = self.T_VALUES
        np.testing.assert_allclose(values["minmax"], (2.0 - t / 2.0) ** 2 / 2.0 - t * t / 4.0,
                                   rtol=0, atol=1e-10)
        assert supremum["minmax"] == pytest.approx(1.89875, abs=1e-10)
