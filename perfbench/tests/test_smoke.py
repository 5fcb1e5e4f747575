"""Each workload runs one op and reports every declared metric; the output
oracles reject planted bad outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from calibration import Calibration

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_reports_every_metric(capsys, monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_PROBE_S", 0.0)
    # A fortieth of a second is one op on every workload.
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.025", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in declared:
        assert f"metric {metric['name']} " in "\n".join(lines)
    assert any(line.startswith("provenance ") for line in lines)


def test_calibration_runs_until_its_budget():
    calibration = Calibration()
    calibration.run_until(0.05)
    assert sum(calibration.times) >= 0.05
    assert calibration.slowdown > 0


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sweep-s3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _spectrum_op():
    return workloads.Op(0, ("spectrum",), {"constant": 1.0, "terms": []}, "--profile")


def test_spectrum_oracle(tmp_path):
    good = "# operator=x\neigenvalue\n-1.0000000000001\n0\n2\n"
    (tmp_path / "spectrum_x.csv").write_text(good)
    outcome, honest = workloads.judge(_spectrum_op(), 0, tmp_path)
    assert outcome.passed and honest
    (tmp_path / "spectrum_x.csv").write_text(good + "2.5\n")
    outcome, honest = workloads.judge(_spectrum_op(), 0, tmp_path)
    assert not outcome.passed and not honest
    assert "integer_spectrum" in outcome.log[0]


def _bundle(passed):
    report = {"check_name": "conjugation", "residual": 0.5 if not passed else 1e-12,
              "threshold": 1e-8, "passed": passed, "tag": "inv", "metadata": {}}
    skipped = {"check_name": "lichnerowicz", "residual": 0.0, "threshold": 1e-8, "passed": True,
               "tag": "schlich", "metadata": {"skipped": True, "reason": "not basic"}}
    return {"meta": {"n_checks": 2}, "reports": [report, skipped]}


def test_verify_oracle(tmp_path):
    op = workloads.Op(0, ("verify",))
    (tmp_path / "verify_bundle.json").write_text(json.dumps(_bundle(True)))
    outcome, honest = workloads.judge(op, 0, tmp_path)
    assert outcome.passed and honest and (outcome.checks, outcome.skipped) == (2, 1)
    assert outcome.log == ["SKIPPED lichnerowicz residual=0.0 threshold=1e-08 reason=not basic"]
    (tmp_path / "verify_bundle.json").write_text(json.dumps(_bundle(False)))
    outcome, honest = workloads.judge(op, 1, tmp_path)
    assert not outcome.passed and honest and outcome.failed == 1
    assert outcome.log[0].startswith("FAILED conjugation residual=0.5 threshold=1e-08")
    _, honest = workloads.judge(op, 0, tmp_path)
    assert not honest


def test_sweep_oracle(tmp_path):
    op = workloads.Op(0, ("sweep",))
    header = "kind,r,value,reference_value,abs_error\n"
    good = header + "esti,0.5,1.75,1.75,0\ncollapse,0.5,3,,\n"
    (tmp_path / "sweep_bounds.csv").write_text(good)
    outcome, honest = workloads.judge(op, 0, tmp_path)
    assert outcome.passed and honest
    (tmp_path / "sweep_bounds.csv").write_text(good + "minmax,2,0.1,0.125,0.025\n")
    outcome, honest = workloads.judge(op, 1, tmp_path)
    assert not outcome.passed and honest
    assert "minmax r=2 residual=0.025" in outcome.log[0]


def test_refused_crashed_and_missing_outputs(tmp_path):
    op = workloads.Op(0, ("sweep",))
    outcome, honest = workloads.judge(op, 2, tmp_path, "error: bad input\n")
    assert not outcome.passed and honest and "error: bad input" in outcome.log[0]
    outcome, honest = workloads.judge(op, -1, tmp_path, "Traceback ...")
    assert not outcome.passed and not honest
    outcome, honest = workloads.judge(op, 0, tmp_path)
    assert not outcome.passed and not honest
