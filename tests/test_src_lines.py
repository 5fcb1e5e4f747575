"""The source line counter of tools/src_lines.py, on a package whose counts
are known line by line."""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment is code


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a
        docstring"""
        return (text,
                os.sep)
'''

# total, code, docstring, comment, blank
MODULE_COUNTS = (17, 7, 5, 1, 4)


@pytest.fixture
def src_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("src_lines")


def test_each_line_has_one_kind(src_lines):
    counts = src_lines.count_lines(MODULE)
    assert tuple(counts[kind] for kind in src_lines.KINDS) == MODULE_COUNTS
    assert counts["total"] == len(MODULE.splitlines())


def test_a_package_is_counted_per_top_level_file(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("y = 2\n")
    assert list(src_lines.package_counts(tmp_path)) == ["a.py", "b.py"]
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", *src_lines.KINDS]
    assert rows[1] == ["a.py", *map(str, MODULE_COUNTS)]
    assert rows[2] == ["b.py", "3", "1", "0", "1", "1"]
    assert rows[3] == ["all", "20", "8", "5", "2", "5"]


def test_a_missing_package_is_refused(src_lines, tmp_path, capsys):
    assert src_lines.main([str(tmp_path / "missing")]) == 2
    assert "src_lines.py" in capsys.readouterr().err
