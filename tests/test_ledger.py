"""The verdict ledger of tools/ledger.py keeps its format.

The ledger is pasted into change notes and compared with ``diff``, so its
lines are pinned here on a small command set (seeds 0 to 4 at grid 64, and
the invariance cases of tools/parity.py); the pass counts are not, as a
change to the program may move them, except that every generated seed
exits 0.
"""

import importlib
import re
from pathlib import Path

import pytest

from foliation_lab import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("ledger")


HEADER = "check                    run  passed  failed  skipped   min ratio  measures"


def _section_rows(lines: list[str], label: str) -> list[str]:
    """Check one section's exit lines, whose labels match ``label``, and its
    table, and return the labels listed."""
    labels = []
    header = lines.index(HEADER)
    for line in lines[:header]:
        match = re.fullmatch(rf"exit ([012]) \((\d+)\): ((?:{label})(?: (?:{label}))*)", line)
        assert match, line
        listed = match.group(3).split()
        assert int(match.group(2)) == len(listed)
        labels += listed
    checks = lines[header + 1 : header + 5]
    names = [line.split()[0] for line in checks]
    assert names == ["invariance", "kappa_transform", "conjugation", "laplacian_dependence"]
    for line in checks:
        assert re.fullmatch(r"[a-z_]+ +\d+ +\d+ +\d+ +\d+ +\S+  [a-z -]+", line), line
        run, passed, failed, _ = map(int, line.split()[1:5])
        assert run == passed + failed
    match = re.fullmatch(r"laplacian reads: galerkin (\d+) \(largest K (\d+|-)\), grid \d+",
                         lines[header + 5])
    assert match, lines[header + 5]
    assert (match.group(1) == "0") == (match.group(2) == "-")
    for line in lines[header + 6 :]:
        assert re.fullmatch(r"skipped \d+: [a-z_]+: .+", line), line
    return labels


def test_ledger_format_on_five_seeds(ledger):
    text = ledger.ledger_text(cli, seeds=range(5), grids=((64, "8"),))
    assert text.endswith("\n")
    head, grid, pairs = (part.splitlines() for part in text.split("\n\n"))
    assert head[0] == "# foliation-lab verdict ledger"
    assert re.fullmatch(r"# python \S+, numpy \S+, blas .+, lapack .+, cpus \d+", head[1])
    assert head[2:] == [
        "# verify --all --grid G --window W --seed S for S in 0, 1, 2, 3, 4",
        "# invariance --profiles A B ... for each invariance-* case of tools/parity.py"]
    assert grid[0] == "## grid 64, window 8"
    assert sorted(_section_rows(grid[1:], r"\d+"), key=int) == ["0", "1", "2", "3", "4"]
    assert grid[1] == "exit 0 (5): 0 1 2 3 4"
    assert pairs[0] == "## invariance cases of tools/parity.py"
    cases = [name for name in ledger.parity.cases() if name.startswith("invariance-")]
    assert len(cases) == 5
    assert sorted(_section_rows(pairs[1:], r"invariance-[a-z0-9-]+")) == sorted(cases)


def test_ledger_refuses_an_existing_file(ledger, tmp_path, capsys):
    out = tmp_path / "ledger.txt"
    out.write_text("", encoding="utf-8")
    assert ledger.main([str(TOOLS.parent), str(out)]) == 2
    assert "exists" in capsys.readouterr().err
