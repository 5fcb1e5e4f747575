"""Command-line interface: flags, report files, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foliation_lab
from foliation_lab import bounds
from foliation_lab.model_spaces import MetricProfile, ProfileTerm
from foliation_lab.cli import _json_text, build_parser, run

from conftest import save_profile


@pytest.fixture
def flat_path(tmp_path):
    path = tmp_path / "flat.json"
    save_profile(MetricProfile(1.0), path)
    return path


@pytest.fixture
def wavy_path(tmp_path):
    path = tmp_path / "wavy.json"
    save_profile(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), path)
    return path


class TestSpectrumCommand:
    def test_flat_profile_integer_csv(self, tmp_path, flat_path):
        out = tmp_path / "out"
        code = run(
            [
                "spectrum",
                "--profile",
                str(flat_path),
                "--grid",
                "64",
                "--window",
                "8",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        csv = out / "spectrum_dirac-spinor_flat.csv"
        lines = csv.read_text().strip().split("\n")
        values = np.array([float(line) for line in lines[2:]])
        np.testing.assert_allclose(values, np.arange(-8, 9), atol=1e-8)

    def test_json_format(self, tmp_path, wavy_path):
        out = tmp_path / "out"
        code = run(
            [
                "spectrum",
                "--profile",
                str(wavy_path),
                "--grid",
                "128",
                "--window",
                "10",
                "--format",
                "json",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "spectrum_dirac-spinor_wavy.json").read_text())
        assert len(payload["eigenvalues"]) == 21

    def test_s3_model_is_config_error(self, tmp_path, capsys, flat_path):
        """--model is not an option: the torus is the only model a spectrum is assembled on."""
        out = tmp_path / "out"
        for model in ("s3", "torus"):
            argv = ["spectrum", "--model", model, "--profile", str(flat_path),
                    "--output-dir", str(out)]
            assert run(argv) == 2
            assert f"unrecognized arguments: --model {model}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_profile_is_config_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run(["spectrum", "--profile", str(missing)]) == 2

    def test_malformed_profile_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["spectrum", "--profile", str(path)]) == 2

    def test_positivity_violation_is_config_error(self, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(
            json.dumps({"constant": 1.0, "terms": [{"m": 0, "n": 1, "amp": 3.0}]})
        )
        assert run(["spectrum", "--profile", str(path)]) == 2

    def test_untrusted_window_is_config_error(self, flat_path):
        code = run(["spectrum", "--profile", str(flat_path), "--grid", "64", "--window", "16"])
        assert code == 2

    def test_aliased_t_frequency_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        save_profile(MetricProfile(2.0, (ProfileTerm(0, 40, 0.5),)), path)
        out = tmp_path / "out"
        argv = ["spectrum", "--profile", str(path), "--window", "4", "--output-dir", str(out)]
        assert run([*argv, "--grid", "64"]) == 2
        assert capsys.readouterr().err == (
            "error: t-frequency 40 is not resolved on 64 points per circle: "
            "need 2*|frequency| < 64\n"
        )
        assert not out.exists()
        assert run([*argv, "--grid", "128"]) == 0


MALFORMED_PROFILES = [
    ('{"constant": null}', "field 'constant' must be a number, got None"),
    ('{"constant": [1]}', "field 'constant' must be a number, got [1]"),
    ('{"constant": "2"}', "field 'constant' must be a number, got '2'"),
    ('{"constant": 2, "terms": [{"m": Infinity, "n": 0, "amp": 0.1}]}',
     "field 'terms[0].m' must be an integer, got inf"),
    ('{"constant": 2, "terms": [{"m": NaN, "n": 0, "amp": 0.1}]}',
     "field 'terms[0].m' must be an integer, got nan"),
    ('{"constant": 2, "terms": [{"m": 0, "n": 1.5, "amp": 0.1}]}',
     "field 'terms[0].n' must be an integer, got 1.5"),
    ('{"constant": 2, "terms": [{"m": true, "n": 1, "amp": 0.1}]}',
     "field 'terms[0].m' must be a number, got True"),
    ('{"constant": 2, "terms": [{"m": 0, "n": 1, "amp": "x"}]}',
     "field 'terms[0].amp' must be a number, got 'x'"),
    ('{"constant": 2, "terms": [{"m": 0, "n": 1}]}', "missing field 'amp'"),
    ('{"constant": 2, "terms": 3}', "field 'terms' must be a list"),
    ('{"constant": 2, "terms": [1]}', "terms[0] is not an object"),
    ("[1, 2]", "the document is not an object"),
    ('{"constant": 1' + "0" * 400 + "}", "field 'constant' is out of range"),
    ('{"constant": 2, "terms": [{"m": -1' + "0" * 400 + ', "n": 0, "amp": 0.1}]}',
     "field 'terms[0].m' is out of range"),
    ('{"constant": Infinity}', "field 'constant' must be finite, got inf"),
    ('{"constant": NaN}', "field 'constant' must be finite, got nan"),
    ('{"constant": 2, "terms": [{"m": 0, "n": 1, "amp": Infinity}]}',
     "field 'terms[0].amp' must be finite, got inf"),
    ('{"constant": 2, "terms": [{"m": 1, "n": 0, "amp": 0.1, "phase_theta": -Infinity}]}',
     "field 'terms[0].phase_theta' must be finite, got -inf"),
    ('{"constant": 2, "terms": [{"m": 0, "n": 1, "amp": 0.1}, {"m": 0, "n": 1, "amp": 0.1, '
     '"phase_t": NaN}]}', "field 'terms[1].phase_t' must be finite, got nan"),
]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("document,message", MALFORMED_PROFILES)
def test_malformed_profile_document_is_refused(tmp_path, capsys, command, document, message):
    path = tmp_path / "bad.json"
    path.write_text(document)
    out = tmp_path / "out"
    flag = "--profile" if command == "spectrum" else "--profiles"
    argv = [command, flag, str(path), "--grid", "16", "--window", "2", "--output-dir", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: malformed profile document: {message}\n")
    assert not out.exists()


def test_integral_float_frequencies_are_read_as_integers(tmp_path):
    texts = []
    for name, m, n in (("ints", "1", "2"), ("floats", "1.0", "2.0")):
        path = tmp_path / f"{name}.json"
        path.write_text(f'{{"constant": 2, "terms": [{{"m": {m}, "n": {n}, "amp": 0.5}}]}}')
        out = tmp_path / name
        assert run(["spectrum", "--profile", str(path), "--grid", "16", "--window", "2",
                    "--operator", "laplacian-functions", "--output-dir", str(out)]) == 0
        texts.append((out / f"spectrum_laplacian-functions_{name}.csv").read_bytes())
    assert texts[0] == texts[1]


def test_readme_command_lines_parse():
    """Every foliation-lab line in README's command-line block is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line.split() for line in section.splitlines() if line.startswith("foliation-lab ")]
    assert len(lines) == 5
    for argv in lines:
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("window", ["-1", "0", "nan"])
@pytest.mark.parametrize("command", ["spectrum", "invariance", "verify"])
def test_window_that_empties_a_verdict_is_refused(
    tmp_path, capsys, flat_path, wavy_path, command, window
):
    inputs = {
        "spectrum": ["--profile", str(wavy_path)],
        "invariance": ["--profiles", str(flat_path), str(wavy_path)],
        "verify": ["--all", "--pairs", "1"],
    }[command]
    out = tmp_path / "out"
    argv = [command, *inputs, "--grid", "64", "--window", window, "--output-dir", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: window must be positive, got {float(window)}\n")
    assert not out.exists()


BAD_R = "flow parameter r must be positive and finite, got"
BAD_RANGE = "need 0 < r-min < r-max < inf"
TINY_R = "flow parameter r = 1e-200 is too small: r*r underflows to 0"


class TestBoundsCommand:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "out"
        code = run(["bounds", "--r", "0.5", "--output-dir", str(out)])
        assert code == 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")[1:]
        esti = next(row for row in rows if row.startswith("esti"))
        assert float(esti.split(",")[2]) == pytest.approx(1.75, abs=1e-9)

    def test_row_missing_its_reference_is_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        reference = bounds.piecewise_reference

        def wrong_esti(r):
            return {**reference(r), "esti": reference(r)["esti"] + 1.0}

        monkeypatch.setattr(bounds, "piecewise_reference", wrong_esti)
        out = tmp_path / "out"
        assert run(["bounds", "--r", "0.5", "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "failed esti r=0.5: abs_error 1.000e+00 > threshold 1e-06"
        ]
        assert captured.out == f"wrote {out / 'bounds.csv'}\n"
        esti = next(row for row in (out / "bounds.csv").read_text().split("\n")
                    if row.startswith("esti"))
        assert float(esti.split(",")[3]) == pytest.approx(2.75)
        sweep = ["sweep", "--count", "3", "--resolution", "100", "--output-dir", str(out)]
        assert run(sweep) == 1
        failed = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in failed] == [
            f"failed esti r={r:.17g}" for r in np.geomspace(0.1, 10.0, 3)
        ]

    def test_torus_model_rejected(self, tmp_path, capsys):
        """--model is not an option: the sphere flows are the only model with bounds."""
        out = tmp_path / "out"
        for command in (["bounds", "--r", "0.5"], ["sweep"]):
            for model in ("torus", "s3"):
                assert run([*command, "--model", model, "--output-dir", str(out)]) == 2
                assert f"unrecognized arguments: --model {model}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_r_rejected(self):
        assert run(["bounds", "--r", "-1.0"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bounds", "--r", "0.5", "-1.0"], f"{BAD_R} -1.0"),
            (["bounds", "--r", "inf"], f"{BAD_R} inf"),
            (["bounds", "--r", "0.5", "nan"], f"{BAD_R} nan"),
            (["sweep", "--r-max", "inf", "--count", "3"], BAD_RANGE),
            (["sweep", "--r-min", "nan"], BAD_RANGE),
        ],
    )
    def test_refused_r_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run([*argv, "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bounds", "--r", "1e-200"], TINY_R),
            (["sweep", "--r-min", "1e-200", "--r-max", "1"], TINY_R),
            (["sweep", "--count", "0"], "no flow parameters to evaluate"),
        ],
    )
    def test_unevaluable_r_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run([*argv, "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_while_building_the_report_writes_nothing(
        self, tmp_path, capsys, monkeypatch, fmt
    ):
        def unavailable(r):
            raise ValueError("reference unavailable")

        monkeypatch.setattr(bounds, "piecewise_reference", unavailable)
        out = tmp_path / "out"
        assert run(["bounds", "--r", "0.5", "--format", fmt, "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: reference unavailable\n")
        assert not (out / f"bounds.{fmt}").exists()
        assert not (out / f"bounds.{fmt}.tmp").exists()

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "bounds.csv").mkdir(parents=True)  # the rename onto it fails
        assert run(["bounds", "--r", "0.5", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(path.name for path in out.iterdir()) == ["bounds.csv"]
        assert (out / "bounds.csv").is_dir()

    def test_nan_bounds_are_written_as_standard_json(self, tmp_path, monkeypatch):
        def undefined(r, s):
            return np.full(np.broadcast(r, s).shape, np.nan)

        monkeypatch.setattr(bounds, "s3_transverse_scal", undefined)
        monkeypatch.setattr(bounds, "s3_kappa_norm", undefined)
        out = tmp_path / "out"
        argv = ["bounds", "--r", "0.5", "--format", "json", "--output-dir", str(out)]
        assert run(argv) == 1

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        rows = json.loads((out / "bounds.json").read_text(), parse_constant=refuse)
        by_kind = {row["kind"]: row for row in rows}
        assert by_kind["esti"]["value"] == "nan"
        assert by_kind["esti"]["inputs"]["inf_scal_transverse"] == "nan"
        assert by_kind["estmflot"]["value"] == "nan"
        assert by_kind["estmflot"]["inputs"]["inf_scal_plus_tensors"] == "nan"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv,r",
        [
            (["bounds", "--r", "0.5", "1e200"], 1e200),
            (["bounds", "--r", "1e154"], 1e154),
            (["sweep", "--r-min", "1", "--r-max", "1e200", "--count", "3"], 1e200),
        ],
    )
    def test_overflowing_r_is_refused(self, tmp_path, capsys, argv, r):
        out = tmp_path / "out"
        assert run([*argv, "--output-dir", str(out)]) == 2
        message = f"flow parameter r = {r} is too large: 6*r*r overflows"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,r",
        [
            (["bounds", "--r", "0.5", "70000"], 70000.0),
            (["sweep", "--r-min", "1e-150", "--r-max", "5e153", "--count", "9"], 1e-150),
        ],
    )
    def test_r_whose_reference_the_tolerance_cannot_resolve_is_refused(
        self, tmp_path, capsys, argv, r
    ):
        out = tmp_path / "out"
        assert run([*argv, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: flow parameter r = {r} is out of range: 8 ulps of its "
                              "minmax reference")
        assert err.endswith("more than the reference tolerance 1e-06\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_rows_equal_per_r_bounds_rows(self, tmp_path, fmt):
        sweep = ["sweep", "--r-min", "0.3", "--r-max", "3.0", "--count", "7",
                 "--resolution", "437", "--format", fmt]
        assert run([*sweep, "--output-dir", str(tmp_path / "sweep")]) == 0
        rows = []
        for i, r in enumerate(np.geomspace(0.3, 3.0, 7)):
            single = tmp_path / f"bounds-{i}"
            argv = ["bounds", "--r", repr(float(r)), "--resolution", "437", "--format", fmt]
            assert run([*argv, "--output-dir", str(single)]) == 0
            text = (single / f"bounds.{fmt}").read_text()
            rows.extend(text.splitlines()[1:] if fmt == "csv" else json.loads(text))
        swept = (tmp_path / "sweep" / f"sweep_bounds.{fmt}").read_text()
        if fmt == "csv":
            assert swept.splitlines()[1:] == rows
        else:
            assert swept == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [["bounds", "--r", "0.5", "1.0", "3.0"],
                                      ["sweep", "--count", "3"]])
    def test_resolution_is_accepted_and_ignored(self, tmp_path, argv):
        """Any --resolution, 10 and 1 included, writes the bytes of none."""
        name = "bounds.csv" if argv[0] == "bounds" else "sweep_bounds.csv"
        assert run([*argv, "--output-dir", str(tmp_path / "none")]) == 0
        expected = (tmp_path / "none" / name).read_bytes()
        for resolution in ("1", "10", "100", "1000"):
            out = tmp_path / resolution
            assert run([*argv, "--resolution", resolution, "--output-dir", str(out)]) == 0
            assert (out / name).read_bytes() == expected, resolution


class TestVerifyCommand:
    def test_two_profiles_all_pass(self, tmp_path, flat_path, wavy_path):
        out = tmp_path / "out"
        code = run(
            [
                "verify",
                "--all",
                "--profiles",
                str(flat_path),
                str(wavy_path),
                "--grid",
                "128",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        bundle = json.loads((out / "verify_bundle.json").read_text())
        assert bundle["meta"]["grid"] == 128
        assert all(report["passed"] for report in bundle["reports"])
        assert all(report["tag"] in {"inv", "scal", "schlich"} for report in bundle["reports"])

    def test_random_pairs_deterministic_bundles(self, tmp_path, flat_path, wavy_path):
        """Two identical runs write the same bytes, with other runs between
        them: no call leaves state that a later call reads."""
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["verify", "--all", "--grid", "64", "--window", "8", "--pairs", "2"]
        assert run(args + ["--output-dir", str(out1)]) == 0
        profiles = [str(flat_path), str(wavy_path)]
        between = [
            ["verify", "--all", "--grid", "128", "--pairs", "2", "--seed", "1"],
            ["verify", "--all", "--profiles", *profiles, "--grid", "64", "--window", "8"],
            ["invariance", "--profiles", *profiles, "--grid", "128"],
        ]
        for i, argv in enumerate(between):
            assert run(argv + ["--output-dir", str(tmp_path / f"between-{i}")]) == 0
        assert run(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "verify_bundle.json").read_bytes() == (
            out2 / "verify_bundle.json"
        ).read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLIATION_LAB_SEED", "31337")
        out = tmp_path / "out"
        code = run(
            ["verify", "--all", "--grid", "64", "--window", "8", "--pairs", "1", "--output-dir", str(out)]
        )
        assert code == 0
        bundle = json.loads((out / "verify_bundle.json").read_text())
        assert bundle["meta"]["seed"] == 31337

    @pytest.mark.parametrize(
        "seed_args, env, message",
        [
            (["--seed", "-1"], None, "--seed must be a non-negative integer, got '-1'"),
            ([], "abc", "FOLIATION_LAB_SEED must be a non-negative integer, got 'abc'"),
            ([], "-3", "FOLIATION_LAB_SEED must be a non-negative integer, got '-3'"),
        ],
    )
    def test_invalid_seed_names_its_source(self, tmp_path, capsys, monkeypatch, seed_args,
                                           env, message):
        if env is None:
            monkeypatch.delenv("FOLIATION_LAB_SEED", raising=False)
        else:
            monkeypatch.setenv("FOLIATION_LAB_SEED", env)
        out = tmp_path / "out"
        argv = ["verify", "--all", "--grid", "64", "--window", "8", "--pairs", "1", *seed_args]
        assert run(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_failed_check_yields_exit_one(self, tmp_path, wavy_path):
        # identical user-supplied profiles fail the Laplacian contrast by design
        out = tmp_path / "out"
        code = run(
            [
                "verify",
                "--all",
                "--profiles",
                str(wavy_path),
                str(wavy_path),
                "--grid",
                "64",
                "--window",
                "8",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 1
        bundle = json.loads((out / "verify_bundle.json").read_text())
        failed = [report for report in bundle["reports"] if not report["passed"]]
        assert len(failed) == 1
        assert failed[0]["check_name"] == "laplacian_dependence"

    def test_failed_and_skipped_checks_named_on_stderr(self, tmp_path, capsys, flat_path,
                                                      wavy_path):
        # identical profiles fail the Laplacian contrast by design, and a
        # profile whose mean curvature is not basic skips the Lichnerowicz check
        skew_path = tmp_path / "skew.json"
        save_profile(MetricProfile(2.0, (ProfileTerm(1, 1, 0.5),)), skew_path)
        args = ["verify", "--all", "--grid", "64", "--window", "8", "--profiles",
                str(flat_path), str(wavy_path)]
        assert run([*args, str(wavy_path), str(skew_path),
                    "--output-dir", str(tmp_path / "four")]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip().endswith(": 18 passed, 1 failed, 1 skipped")
        assert captured.err.splitlines() == [
            "failed laplacian_dependence: residual inf > threshold 1e-08: "
            "metrics spectrally indistinguishable for the basic Laplacian",
            "skipped lichnerowicz: mean curvature is not basic: its coefficient varies "
            "along theta by 5.000e-01; the Lichnerowicz identity check requires a "
            "product-form profile f = a(theta) c(t)",
        ]
        # the first pair passes: its records are the same bytes in a bundle
        # that has a failure and in one that has none
        assert run([*args, "--output-dir", str(tmp_path / "two")]) == 0
        assert capsys.readouterr().err == ""
        four = (tmp_path / "four" / "verify_bundle.json").read_text()
        two = (tmp_path / "two" / "verify_bundle.json").read_text()
        records_two = json.loads(two)["reports"][:4]
        records_four = json.loads(four)["reports"][:4]
        assert [record["check_name"] for record in records_four] == [
            "invariance", "kappa_transform", "conjugation", "laplacian_dependence"
        ]
        assert [json.dumps(r, indent=2, sort_keys=True) for r in records_four] == [
            json.dumps(r, indent=2, sort_keys=True) for r in records_two
        ]
        assert four == json.dumps(json.loads(four), indent=2, sort_keys=True) + "\n"

    def test_untrusted_window_without_pair_checks_is_config_error(self, wavy_path):
        code = run(
            ["verify", "--pairs", "0", "--profiles", str(wavy_path), "--grid", "64", "--window", "16"]
        )
        assert code == 2

    def test_aliased_theta_frequency_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "ridged.json"
        save_profile(MetricProfile(2.0, (ProfileTerm(40, 1, 0.5),)), path)
        out = tmp_path / "out"
        argv = ["verify", "--pairs", "0", "--profiles", str(path), "--window", "4",
                "--output-dir", str(out)]
        assert run([*argv, "--grid", "64"]) == 2
        assert capsys.readouterr().err == (
            "error: theta-frequency 40 is not resolved on 64 points per circle: "
            "need 2*|frequency| < 64\n"
        )
        assert not out.exists()
        assert run([*argv, "--grid", "128"]) == 0

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_zero_check_run_is_refused(self, tmp_path, capsys, pairs):
        out = tmp_path / "out"
        code = run(["verify", "--all", "--pairs", pairs, "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: verify has no checks to run: --pairs {pairs} and no --profiles\n"
        )
        assert captured.out == ""
        assert not out.exists()


class TestInvarianceCommand:
    def test_pair_bundle(self, tmp_path, flat_path, wavy_path):
        out = tmp_path / "out"
        code = run(
            [
                "invariance",
                "--profiles",
                str(flat_path),
                str(wavy_path),
                "--grid",
                "128",
                "--window",
                "10",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        bundle = json.loads((out / "invariance_bundle.json").read_text())
        names = [report["check_name"] for report in bundle["reports"]]
        assert "invariance" in names and "conjugation" in names


class TestSweepCommand:
    def test_small_sweep_matches_references(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "sweep",
                "--r-min",
                "0.2",
                "--r-max",
                "5.0",
                "--count",
                "5",
                "--resolution",
                "400",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep_bounds.csv").read_text().strip().split("\n")
        assert lines[0] == "kind,r,value,reference_value,abs_error"
        assert len(lines) == 1 + 5 * 4

    def test_bad_range_rejected(self):
        assert run(["sweep", "--r-min", "2.0", "--r-max", "1.0"]) == 2


def test_json_text_spells_every_non_finite_float():
    payload = {"a": [np.inf, -np.inf], "b": (np.float32("nan"), float("nan")), "c": np.float64(0.5)}
    assert json.loads(_json_text(payload)) == {"a": ["inf", "-inf"], "b": ["nan", "nan"], "c": 0.5}


def test_one_parser_serves_every_command(tmp_path, capsys, flat_path, wavy_path):
    """The cached parser gives each command the same result whatever ran before it."""
    assert build_parser() is build_parser()
    assert run(["spectrum", "--grid", "64"]) == 2
    usage = capsys.readouterr()
    assert usage.out == ""
    assert usage.err.startswith("usage: foliation-lab spectrum")
    assert "the following arguments are required: --profile" in usage.err

    sweep_args = ["sweep", "--count", "3", "--resolution", "100"]
    assert run([*sweep_args, "--output-dir", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 's' / 'sweep_bounds.csv'}\n"

    verify_args = ["verify", "--profiles", str(flat_path), str(wavy_path), "--grid", "64",
                   "--window", "8", "--output-dir", str(tmp_path / "v")]
    assert run(verify_args) == 0
    verified = capsys.readouterr()
    assert verified.err == ""
    assert verified.out == (
        f"wrote {tmp_path / 'v' / 'verify_bundle.json'}: 8 passed, 0 failed, 0 skipped\n"
    )

    assert run(["spectrum", "--grid", "64"]) == 2
    assert capsys.readouterr() == usage


@pytest.mark.parametrize("module", ["foliation_lab", "foliation_lab.cli"])
@pytest.mark.parametrize("names, code", [(("flat", "wavy"), 0), (("wavy", "wavy"), 1)])
def test_python_m_runs_the_cli(tmp_path, capsys, flat_path, wavy_path, module, names, code):
    """``python -m foliation_lab`` and ``python -m foliation_lab.cli`` write the
    report of ``cli.run`` with its exit code and stderr: 0 for a passing
    battery, 1 for identical profiles, whose Laplacian contrast fails."""
    paths = {"flat": flat_path, "wavy": wavy_path}
    args = ["verify", "--profiles", *(str(paths[name]) for name in names),
            "--grid", "64", "--window", "8"]
    assert run([*args, "--output-dir", str(tmp_path / "run")]) == code
    expected_err = capsys.readouterr().err
    package_root = str(Path(foliation_lab.__file__).resolve().parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, *args, "--output-dir", str(tmp_path / "module")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": search_path},
    )
    assert (result.returncode, result.stderr) == (code, expected_err)
    bundle = "verify_bundle.json"
    assert (tmp_path / "module" / bundle).read_bytes() == (tmp_path / "run" / bundle).read_bytes()


@given(seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=20)
def test_verify_passes_every_seed(seed, tmp_path_factory):
    """``verify --grid 64 --window 8`` with its default generated pairs exits 0
    and skips no check at any seed: each ``random_pair`` passes its
    Laplacian contrast by construction."""
    out = tmp_path_factory.mktemp("seed")
    assert run(["verify", "--grid", "64", "--window", "8", "--seed", str(seed),
                "--output-dir", str(out)]) == 0
    bundle = json.loads((out / "verify_bundle.json").read_text())
    assert len(bundle["reports"]) == 4 * 5
    assert not any("skipped" in report["metadata"] for report in bundle["reports"])
