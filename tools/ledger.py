"""Verdict ledger: run ``verify --all`` in-process over fixed seeds and grids
and write one fixed-format text table of its verdicts, so that the ledgers
of two trees compare with ``diff``.

    python3 tools/ledger.py TREE OUT

``TREE`` is a checkout whose ``src/foliation_lab`` is imported; ``OUT`` is the
ledger file to write, and must not exist yet.  The command set is
``verify --all --seed S`` for S = 0..41 and the default seed 7041, at grid 64
with window 8 and at grids 128 and 256 with window 10, and the
``invariance`` cases of ``tools/parity.py`` on its profile documents.  Per
grid the ledger lists the seeds by exit code, and the invariance cases by
name; per check the runs, passes, failures and skips,
the smallest threshold/residual ratio over the runs (inf for a zero
residual, 0 for an infinite one) and what the residual measures; the
Galerkin Laplacian reads of the running contrasts, with their largest order
K, one read per command and theta-averaged profile, as the pair battery
memoises them; and the skips by reason.
A header records the provenance: Python, numpy, its BLAS and LAPACK, and the
CPU count.  Bundles are written to a temporary directory and removed; BLAS
runs on one thread unless the environment says otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

import parity

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

SEEDS = (*range(42), 7041)
GRIDS = ((64, "8"), (128, "10"), (256, "10"))

# What each check's residual measures.
MEASURES = {
    "invariance": "round-off",
    "kappa_transform": "aliasing",
    "conjugation": "round-off",
    "laplacian_dependence": "certified enclosure",
    "scal_relation": "aliasing",
    "lichnerowicz": "aliasing",
}


def provenance() -> list[str]:
    """Python, numpy, the BLAS and LAPACK numpy was built with, and the CPUs."""
    import numpy as np

    dependencies = np.show_config(mode="dicts").get("Build Dependencies", {})
    libraries = [f"{kind} {info.get('name', '?')} {info.get('version', '?')}"
                 for kind, info in ((kind, dependencies.get(kind, {})) for kind in ("blas", "lapack"))]
    return [f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"{', '.join(libraries)}, cpus {os.cpu_count()}"]


def run_command(cli, argv: list[str], out: Path) -> tuple[int, list]:
    """One ``verify`` or ``invariance`` run: its exit code and its bundle's reports."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*argv, "--output-dir", str(out)])
    bundle = out / f"{argv[0]}_bundle.json"
    reports = json.loads(bundle.read_text(encoding="utf-8"))["reports"] if code in (0, 1) else []
    bundle.unlink(missing_ok=True)
    return code, reports


def _read_key(label, document: dict) -> tuple:
    """The pair battery's memo key of a contrast profile's Laplacian read: the
    command, and the profile's theta-average, which fixes the density."""
    # imported here: the tree's package is on the path once import_cli ran
    from foliation_lab.model_spaces import MetricProfile

    return label, MetricProfile.from_dict(document).theta_average()


def _ratio(report: dict) -> float:
    residual = float(report["residual"])
    return math.inf if residual == 0.0 else float(report["threshold"]) / residual


def section(title: str, runs: dict) -> list[str]:
    """The ledger lines of one section; ``runs`` maps each command's label to
    its exit code and reports."""
    codes, rows, reads, skips = {}, {}, {}, Counter()
    for label, (code, reports) in runs.items():
        codes[label] = code
        for report in reports:
            name, metadata = report["check_name"], report["metadata"]
            row = rows.setdefault(name, {"run": 0, "passed": 0, "failed": 0, "skipped": 0,
                                         "ratio": math.inf})
            if metadata.get("skipped"):
                row["skipped"] += 1
                skips[f"{name}: {metadata['reason']}"] += 1
                continue
            row["run"] += 1
            row["passed" if report["passed"] else "failed"] += 1
            row["ratio"] = min(row["ratio"], _ratio(report))
            orders = metadata.get("laplacian_order", [])
            for key, order in zip(("profile_1", "profile_2"), orders):
                reads[_read_key(label, metadata[key])] = order
    lines = [title]
    for code in sorted(set(codes.values())):
        chosen = [str(label) for label, value in codes.items() if value == code]
        lines.append(f"exit {code} ({len(chosen)}): {' '.join(chosen)}")
    lines.append(f"{'check':<22}{'run':>6}{'passed':>8}{'failed':>8}{'skipped':>9}"
                 f"{'min ratio':>12}  measures")
    for name, row in rows.items():
        lines.append(f"{name:<22}{row['run']:>6}{row['passed']:>8}{row['failed']:>8}"
                     f"{row['skipped']:>9}{row['ratio']:>12.3g}  {MEASURES.get(name, '?')}")
    lines.append(f"laplacian reads: galerkin {len(reads)} (largest K "
                 f"{max(reads.values(), default='-')})")
    lines += [f"skipped {count}: {reason}" for reason, count in sorted(skips.items())]
    return lines


def grid_section(cli, grid: int, window: str, seeds, out: Path) -> list[str]:
    """The ledger lines of one grid."""
    return section(f"## grid {grid}, window {window}", {
        seed: run_command(cli, ["verify", "--all", "--grid", str(grid), "--window", window,
                                "--seed", str(seed)], out)
        for seed in seeds})


def pairs_section(cli, out: Path) -> list[str]:
    """The ledger lines of the ``invariance`` cases of ``tools/parity.py``, run
    on its profile documents written to ``out``."""
    paths = {}
    for name, document in parity.PROFILES.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
        paths[parity.profile(name)] = str(path)
    return section("## invariance cases of tools/parity.py", {
        name: run_command(cli, [paths.get(arg, arg) for arg in argv], out)
        for name, argv in parity.cases().items() if name.startswith("invariance-")})


def ledger_text(cli, seeds=SEEDS, grids=GRIDS) -> str:
    """The whole ledger for ``seeds`` at ``grids``, (grid, window) pairs, and
    the invariance cases."""
    seed_text = ", ".join(str(seed) for seed in seeds)
    lines = ["# foliation-lab verdict ledger", *provenance(),
             f"# verify --all --grid G --window W --seed S for S in {seed_text}",
             "# invariance --profiles A B ... for each invariance-* case of tools/parity.py"]
    with tempfile.TemporaryDirectory() as scratch:
        for grid, window in grids:
            lines += ["", *grid_section(cli, grid, window, seeds, Path(scratch))]
        lines += ["", *pairs_section(cli, Path(scratch))]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]), Path(argv[1])
    if out.exists():
        print(f"error: {out} exists", file=sys.stderr)
        return 2
    out.write_text(ledger_text(parity.import_cli(tree)), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
