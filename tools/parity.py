"""Parity runner: run a fixed list of CLI cases in-process against one source
tree and write everything each case produces, so that two trees compare with
``diff -r``.

    python3 tools/parity.py TREE OUT

``TREE`` is a checkout whose ``src/foliation_lab`` is imported; ``OUT`` must
not exist yet.  ``OUT/inputs`` holds the profile documents, and
``OUT/cases/<case>`` holds the case's report files under ``out/`` plus
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  Every case runs in its
own directory with relative paths, so no output names ``OUT``.  Compare two
trees with

    python3 tools/parity.py parent /tmp/a && python3 tools/parity.py change /tmp/b
    diff -r /tmp/a /tmp/b

The 75 cases run one after another in one process, so state that one call
left behind would show up as a difference in a later case; the last four
cases run a grid-256 ``verify`` twice in a row, then an ``invariance`` at
grid 128 right after a grid-64 ``verify``.  BLAS runs on one thread unless
the environment says otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

PROFILES = {
    "flat": {"constant": 1.0, "terms": []},
    "flat2": {"constant": 2.0, "terms": []},
    "wavy": {"constant": 2.0, "terms": [{"m": 0, "n": 1, "amp": 1.0}]},
    "skew": {"constant": 2.0, "terms": [{"m": 1, "n": 1, "amp": 0.5}]},
    # theta-average with only n = +-2 terms: translation period N/2
    "wavy2": {"constant": 2.0, "terms": [{"m": 0, "n": 2, "amp": 0.6},
                                         {"m": 0, "n": -2, "amp": 0.3, "phase_t": 1.0},
                                         {"m": 1, "n": 1, "amp": 0.4}]},
    # t-bandwidth 8: its Galerkin order, 89 at window 10, exceeds N/2 = 64 at
    # grid 128, the largest order whose modes the grid resolves, so the pair
    # battery reads it by the grid read
    "wavy8": {"constant": 2.0, "terms": [{"m": 0, "n": 1, "amp": 0.5},
                                         {"m": 0, "n": 8, "amp": 0.2, "phase_t": 0.7}]},
}
GRIDS = (64, 128, 256)
SEEDS = (7041, 1, 2, 3, 4, 5)
OPERATORS = ("dirac-spinor", "dirac-forms", "laplacian-functions", "laplacian-one-forms")
SPINS = ("trivial", "nontrivial")


def profile(name: str) -> str:
    return f"../../inputs/{name}.json"


def cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, without ``--output-dir``."""
    table = {}
    for grid in GRIDS:
        window = str(min(10, grid // 8))
        for seed in SEEDS:
            table[f"verify-all-n{grid}-seed{seed}"] = [
                "verify", "--all", "--grid", str(grid), "--window", window, "--seed", str(seed)]
    small = ["--grid", "64", "--window", "8"]
    table["verify-three-profiles"] = [
        "verify", "--all", "--profiles", profile("flat"), profile("wavy"), profile("skew"), *small]
    table["verify-one-profile-pairs"] = [
        "verify", "--all", "--profiles", profile("wavy"), "--pairs", "3", "--seed", "11", *small]
    table["verify-flat-pair"] = [
        "verify", "--all", "--profiles", profile("flat"), profile("flat2"), *small]
    table["verify-untrusted-window"] = ["verify", "--all", "--grid", "64", "--window", "10"]
    table["invariance-flat-wavy"] = [
        "invariance", "--profiles", profile("flat"), profile("wavy"), "--grid", "128"]
    table["invariance-wavy-skew"] = [
        "invariance", "--profiles", profile("wavy"), profile("skew"), *small]
    # The edge rule: the window edge 10 lies on a lattice point, exit 1.
    table["invariance-edge-window"] = [
        "invariance", "--profiles", profile("flat"), profile("wavy"), "--grid", "128",
        "--window", "9.999999"]
    # One profile and no pair: the single-profile checks alone.
    table["verify-one-profile-no-pairs"] = [
        "verify", "--all", "--profiles", profile("skew"), "--pairs", "0", "--grid", "128"]
    table["verify-wavy2-pairs"] = [
        "verify", "--all", "--profiles", profile("wavy2"), profile("wavy"), profile("flat2"),
        *small]
    # Contrasts on densities of period N/2, N and 1 at the benchmark's grid.
    table["verify-wavy2-pairs-n256"] = [
        "verify", "--all", "--profiles", profile("wavy2"), profile("wavy"), profile("flat2"),
        "--grid", "256", "--window", "10"]
    table["invariance-wavy2-skew"] = [
        "invariance", "--profiles", profile("wavy2"), profile("skew"), "--grid", "128"]
    # A running contrast on a density of t-bandwidth 8.
    table["invariance-wavy8-wavy"] = [
        "invariance", "--profiles", profile("wavy8"), profile("wavy"), "--grid", "128"]
    # Densities that recur within one command: the pair battery reads each
    # distinct density once.  A chained run repeats two profiles;
    # seed 4's twelve generated pairs read a constant density first with its
    # contrast skipped, later with it run.
    table["verify-chained-repeats-n256"] = [
        "verify", "--all", "--profiles", profile("wavy"), profile("flat2"), profile("wavy"),
        profile("wavy2"), profile("flat2"), "--grid", "256", "--window", "10"]
    table["verify-all-n256-pairs12-seed4"] = [
        "verify", "--all", "--grid", "256", "--window", "10", "--pairs", "12", "--seed", "4"]
    for operator in OPERATORS:
        for spin in SPINS:
            table[f"spectrum-{operator}-{spin}"] = [
                "spectrum", "--profile", profile("wavy"), "--operator", operator,
                "--spin", spin, *small]
            table[f"spectrum-{operator}-{spin}-wavy2"] = [
                "spectrum", "--profile", profile("wavy2"), "--operator", operator,
                "--spin", spin, *small]
    # Grid-256 Dirac spectra of a density with period N/2, on both spin
    # structures: reads of different operators differ in the last digits.
    for spin in SPINS:
        table[f"spectrum-dirac-spinor-{spin}-wavy2-n256"] = [
            "spectrum", "--profile", profile("wavy2"), "--operator", "dirac-spinor",
            "--spin", spin, "--grid", "256", "--window", "10"]
    # Grid-256 Laplacian spectra of both degrees at P = N, N/2 and 1: they
    # record the round-off of the Gram read at the benchmark's grid.
    for operator in OPERATORS[2:]:
        for name in ("wavy", "wavy2", "flat2"):
            table[f"spectrum-{operator}-{name}-n256"] = [
                "spectrum", "--profile", profile(name), "--operator", operator,
                "--grid", "256", "--window", "10"]
    table["bounds-json"] = ["bounds", "--r", "0.25", "0.5", "2", "4", "--format", "json"]
    table["sweep-default"] = ["sweep"]
    # Flow parameters whose integrands are flat to round-off in s, so their
    # arg_s depends on how the search breaks ties between scan points.
    table["bounds-json-flat"] = [
        "bounds", "--r", "1", "0.9995", "1500", "2e-4", "--format", "json"]
    table["sweep-json-res100"] = ["sweep", "--format", "json", "--resolution", "100"]
    # Flow parameters within an ulp or a few hundred of 1: the integrands are
    # flat to round-off, and an endpoint read and a scan's first minimum may
    # pick different points of equal value.
    table["bounds-json-roundoff-flat"] = [
        "bounds", "--r", "1.0000000000000002", "0.9999999999999999", "1.0000000000000437",
        "--format", "json"]
    # Refused and boundary flow parameters: the error names the first r that
    # fails and the first condition it fails, and writes nothing.
    table["bounds-refuse-negative"] = ["bounds", "--r", "0.5", "-1"]
    table["bounds-refuse-nan"] = ["bounds", "--r", "0.5", "nan"]
    table["bounds-refuse-underflow"] = ["bounds", "--r", "1e-200"]
    table["bounds-refuse-overflow"] = ["bounds", "--r", "0.5", "1e200"]
    table["bounds-refuse-reference-ulps"] = ["bounds", "--r", "0.5", "1e-150"]
    # A reference that overflows to -inf: its roundoff reads nan.
    table["bounds-refuse-reference-overflow"] = ["bounds", "--r", "1e-160"]
    table["bounds-refuse-first-bad-r"] = ["bounds", "--r", "2", "-1", "nan"]
    table["sweep-refuse-range"] = ["sweep", "--r-min", "2", "--r-max", "1"]
    # Rows on both sides of r = 1, and the largest references still resolved.
    table["sweep-across-one"] = ["sweep", "--count", "3", "--r-min", "0.999", "--r-max", "1.001"]
    table["bounds-json-range-ends"] = [
        "bounds", "--r", "1.5258789054506396e-05", "65536.00003433226", "--format", "json"]
    # Back-to-back pair batteries: state that one call leaves behind, or a
    # cache keyed on the wrong grid, would change the second call's bytes.
    repeated = ["verify", "--all", "--grid", "256", "--window", "10", "--seed", "3"]
    table["twice-verify-all-n256-seed3-first"] = repeated
    table["twice-verify-all-n256-seed3-second"] = repeated
    table["regrid-verify-all-n64"] = ["verify", "--all", *small, "--seed", "3"]
    table["regrid-invariance-n128"] = [
        "invariance", "--profiles", profile("flat"), profile("wavy"), "--grid", "128"]
    return table


def import_cli(tree: Path):
    """``foliation_lab.cli`` imported from ``tree/src``, refusing any other copy."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from foliation_lab import cli

    if Path(cli.__file__).resolve() != src / "foliation_lab" / "cli.py":
        raise SystemExit(f"error: foliation_lab was not imported from {src}")
    return cli


def run_case(cli, argv: list[str], case_dir: Path) -> None:
    case_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.run([*argv, "--output-dir", "out"])
            except Exception as exc:  # recorded, so the comparison shows it
                code = -1
                print("".join(traceback.format_exception_only(exc)), end="", file=sys.stderr)
    finally:
        os.chdir(cwd)
    (case_dir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (case_dir / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    (case_dir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]), Path(argv[1]).resolve()
    if out.exists():
        print(f"error: {out} exists", file=sys.stderr)
        return 2
    cli = import_cli(tree)
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    for name, document in PROFILES.items():
        (inputs / f"{name}.json").write_text(json.dumps(document, sort_keys=True) + "\n",
                                             encoding="utf-8")
    table = cases()
    for name, case_argv in table.items():
        run_case(cli, case_argv, out / "cases" / name)
    print(f"wrote {len(table)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
