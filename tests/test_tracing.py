"""The benchmark tracer in perfbench/ still finds every name it spans.

The tracer wraps functions and methods by name, so a source change that
drops or renames a traced name breaks traced benchmark runs; this test
catches it in the ordinary suite.
"""

import importlib
from pathlib import Path

from foliation_lab import bounds, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_every_span_and_restores_the_originals(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
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
