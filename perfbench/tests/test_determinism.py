"""The same seed gives the same inputs and outputs, traced or not."""

import hashlib

import pytest

import run
import tracing
import workloads
from foliation_lab import cli


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workload.ops(5, 10)
    second = workload.ops(5, 10)
    assert first == second
    workloads.write_inputs([first[0], *first[1]], tmp_path / "a")
    workloads.write_inputs([second[0], *second[1]], tmp_path / "b")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert workload.ops(6, 10) != first


def _one_op(name):
    """The cheapest op of the workload: the warm-up for verify-pairs, else op 0."""
    warmup, ops = workloads.WORKLOADS[name].ops(5, 0.08)
    return warmup if name == "verify-pairs-n256" else ops[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_repeated_and_traced_ops_write_identical_bytes(tmp_path, name):
    op = _one_op(name)
    workloads.write_inputs([op], tmp_path / "in")
    first = run.run_op(cli, op, tmp_path / "in", tmp_path / "first")
    second = run.run_op(cli, op, tmp_path / "in", tmp_path / "second")
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
        traced = run.run_op(cli, op, tmp_path / "in", tmp_path / "traced")
    assert first[0] == second[0] == traced[0]
    assert digest(tmp_path / "first") == digest(tmp_path / "second")
    assert run.same_tree(tmp_path / "first", tmp_path / "traced")
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)


def test_tracer_restores_the_originals():
    before = {
        (id(module), attr): module.__dict__[attr]
        for home, attr, _ in tracing.FUNCTION_SPANS
        for module in tracing.MODULES
        if attr in module.__dict__
    }
    with tracing.Tracer().installed():
        assert cli.eigenvalues_weighted is not before[(id(cli), "eigenvalues_weighted")]
    after = {
        (id(module), attr): module.__dict__[attr]
        for home, attr, _ in tracing.FUNCTION_SPANS
        for module in tracing.MODULES
        if attr in module.__dict__
    }
    assert after == before
