"""Source line counts: every line of a package's top-level ``*.py`` files,
as one of code, docstring, comment or blank, so that two trees' counts
compare line for line.

    python3 tools/src_lines.py [PACKAGE]

``PACKAGE`` defaults to ``src/foliation_lab`` beside this script; its
subdirectories are not read.  A line is blank when it holds only
whitespace; otherwise a docstring line when it lies within the docstring
of the module, a class or a function (by ``ast``); otherwise a comment line
when ``tokenize`` finds a comment on it and no other token; otherwise code,
so a continuation line, a string that is not a docstring and a line that
ends in a comment are code.  The total is their sum.  One line is printed
per file, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict[str, int]:
    """The count of each of ``KINDS`` in one source text."""
    docstrings = _docstring_lines(ast.parse(text))
    comments, tokens = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            tokens.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in comments and number not in tokens:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def package_counts(package: Path) -> dict[str, dict[str, int]]:
    """The counts of each top-level ``*.py`` file of ``package``, by file
    name, in name order."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parents[1] / "src" / "foliation_lab"
    package = Path(argv[0]) if argv else default
    if len(argv) > 1 or not package.is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    per_file = package_counts(package)
    print(f"{'file':<20}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name, counts in per_file.items():
        print(f"{name:<20}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    totals = [sum(counts[kind] for counts in per_file.values()) for kind in KINDS]
    print(f"{'all':<20}" + "".join(f"{total:>10}" for total in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
