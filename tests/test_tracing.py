"""The benchmark tracer in perfbench/ still finds every name it spans.

The tracer wraps functions and methods by name, so a source change that
drops or renames a traced name, or changes a signature a wrapper passes
through, breaks traced benchmark runs; these tests catch it in the ordinary
suite.
"""

import importlib
import json
from pathlib import Path

import pytest

from foliation_lab import bounds, cli
from foliation_lab.model_spaces import MetricProfile, ProfileTerm

from conftest import save_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_every_span_and_restores_the_originals(tmp_path, tracing):
    owners = [(home, attr) for home, attr, _ in tracing.FUNCTION_SPANS]
    owners += [(cls, attr) for cls, attr, _ in tracing.METHOD_SPANS]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in owners}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.bound_rows_csv is not before[(bounds, "bound_rows_csv")]
        assert cli.run(["bounds", "--r", "0.5", "--output-dir", str(tmp_path)]) == 0
    assert {(owner, attr): owner.__dict__[attr] for owner, attr in owners} == before
    assert cli.bound_rows_csv is bounds.bound_rows_csv
    counts = tracer.span_counts()
    assert counts["bounds.report_write"] == 1
    assert counts["bounds.scan"] > 0


def test_traced_verify_and_spectrum_write_the_untraced_reports(tmp_path, tracing):
    """Traced and untraced runs write the same bytes, also for a ``verify``
    pair whose contrast runs (at grid 64 two grid Laplacian reads) and a
    Laplacian ``spectrum``; only the Lichnerowicz check assembles."""
    wavy, wavy2 = tmp_path / "wavy.json", tmp_path / "wavy2.json"
    save_profile(MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)), wavy)
    save_profile(MetricProfile(2.0, (ProfileTerm(0, 2, 0.6), ProfileTerm(1, 1, 0.4))), wavy2)
    small = ["--grid", "64", "--window", "8"]
    commands = {
        "generated": (["verify", "--pairs", "1", *small], "verify_bundle.json"),
        "dirac": (["spectrum", "--profile", str(wavy), *small], "spectrum_dirac-spinor_wavy.csv"),
        "contrast": (["verify", "--profiles", str(wavy), str(wavy2), *small],
                     "verify_bundle.json"),
        "laplacian": (["spectrum", "--profile", str(wavy2), "--operator", "laplacian-one-forms",
                       *small], "spectrum_laplacian-one-forms_wavy2.csv"),
    }
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    for key, (argv, _) in commands.items():
        assert cli.run([*argv, "--output-dir", str(untraced / key)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        for key, (argv, _) in commands.items():
            assert cli.run([*argv, "--output-dir", str(traced / key)]) == 0
    for key, (_, name) in commands.items():
        assert (traced / key / name).read_bytes() == (untraced / key / name).read_bytes()
    bundle = json.loads((traced / "contrast" / "verify_bundle.json").read_text())
    contrast = [report for report in bundle["reports"]
                if report["check_name"] == "laplacian_dependence"]
    assert [report["passed"] for report in contrast] == [True]
    assert "skipped" not in contrast[0]["metadata"]
    counts = tracer.span_counts()
    assert counts["verify.random_profile"] == 2
    assert counts["verify.laplacian_dependence"] == 2
    # no command reaches ``eigenvalues_weighted`` (the span's only function),
    # and no Dirac or Laplacian read assembles an operator: every assembly
    # is the Lichnerowicz check's, under the two profiles of ``verify``
    assert counts["spectral.eigensolve"] == 0
    assembled = [span for span in tracer.spans if span[0] == "operators.assemble"]
    assert assembled
    for span in assembled:
        callers = set()
        while span[3] >= 0:
            span = tracer.spans[span[3]]
            callers.add(span[0])
        assert "verify.lichnerowicz_residual" in callers


def test_traced_sweep_writes_the_untraced_rows_from_one_search(tmp_path, tracing):
    argv = ["sweep", "--count", "3", "--resolution", "100"]
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    assert cli.run([*argv, "--output-dir", str(untraced)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.run([*argv, "--output-dir", str(traced)]) == 0
    name = "sweep_bounds.csv"
    assert (traced / name).read_bytes() == (untraced / name).read_bytes()
    counts = tracer.span_counts()
    assert (counts["bounds.scan"], counts["bounds.golden"]) == (1, 0)
    assert tracer.counters["bounds.curvature_evals"] > 0
