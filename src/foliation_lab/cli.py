"""Command-line front end: profile ingestion, sweeps, and report emission.

Exit codes: 0 when every requested check passes, 1 when any verification
fails, 2 on usage or configuration errors (malformed profiles, positivity
violations, out-of-range windows).  Outputs are deterministic: fixed seeds,
fixed ordering, no timestamps; CSV numbers have 17 significant digits
(``%.17g``), and JSON floats are Python's shortest round-trip ``repr``.
Every report is built as text and written whole by ``_emit``, so a failed
command leaves no file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basic_calculus import DEGREE_FUNCTION, DEGREE_ONE_FORM, LeafVolumeDensity
from .bounds import S3_FLOW_N, S3_FLOW_Q, bound_failures, bound_rows_csv, s3_bounds, s3_quantities
from .model_spaces import SPIN_STRUCTURES, GridSpec, MetricProfile, load_profile
from .operators import laplacian_label
# No command solves with eigenvalues_weighted; perfbench/tracing.py wraps it
# here by name (perfbench/tests/test_determinism.py).
from .spectral import (WINDOW_EDGE_SLACK, SpectrumReport, dirac_spectra,  # noqa: F401
                       eigenvalues_weighted, function_laplacian)
from .verify import LAPLACIAN_FORMS_THRESHOLD, random_pair, run_pair_checks, run_profile_checks

DEFAULT_SEED = 7041
SEED_ENV_VAR = "FOLIATION_LAB_SEED"

_OPERATOR_CHOICES = (
    "dirac-spinor",
    "dirac-forms",
    "laplacian-functions",
    "laplacian-one-forms",
)

_RESOLUTION_HELP = ("Accepted for compatibility and ignored: each bound integrand is monotone "
                    "in s, so it is read at s = 0 and s = 1 only")


def _json_text(payload) -> str:
    """The text of every JSON report: ``json.dumps(indent=2, sort_keys=True)``
    of ``_json_safe(payload)`` and one trailing newline."""
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_safe(value):
    """``value`` with numpy scalars as Python numbers and every non-finite
    float as the string "inf", "-inf" or "nan"; TypeError on a key that is
    not a str, which ``json.dumps`` would write as a string."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return int(value) if isinstance(value, np.integer) else value


def _emit(args, name: str, text: str, stderr_lines, failed: bool, summary: str = "") -> int:
    """Write one report whole, announce it, and return the exit code.

    The text goes to ``<name>.tmp`` in the output directory and is renamed
    over ``<name>``; a failed write removes the temporary file, so no command
    leaves a partial report.  Then each stderr line and the ``wrote`` line
    are printed.  Returns 1 if ``failed``, else 0.
    """
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    out = output_dir / name
    tmp = output_dir / f"{name}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, out)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    for line in stderr_lines:
        print(line, file=sys.stderr)
    print(f"wrote {out}{summary}")
    return 1 if failed else 0


def _seed_from_env(cli_seed: int | None) -> int:
    """The seed from ``--seed``, else from the environment, else the default;
    a non-integer or negative seed is refused with its source named."""
    if cli_seed is not None:
        source, text = "--seed", str(cli_seed)
    else:
        source, text = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "").strip()
        if not text:
            return DEFAULT_SEED
    if not text.isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(text)


def _load_profiles(paths) -> list[MetricProfile]:
    profiles = []
    for path in paths:
        if not Path(path).exists():
            raise ValueError(f"profile file not found: {path}")
        profiles.append(load_profile(path))
    return profiles


def _spectrum(operator_name: str, density: LeafVolumeDensity, grid: GridSpec, window: float):
    if operator_name == "dirac-spinor":
        return dirac_spectra(density, grid)[0]
    # The forms and Laplacians act on periodic sections whatever --spin says.
    if operator_name == "dirac-forms":
        return dirac_spectra(density, GridSpec(grid.n_points))[1]
    degree = DEGREE_FUNCTION if operator_name == "laplacian-functions" else DEGREE_ONE_FORM
    # On the circle delta d on functions and d delta on 1-forms are T T^H and
    # T^H T for T = g^{-1/2} d/dt g^{1/2}: one spectrum, so one read serves
    # both degrees.  --window bounds lambda, the read's window its root.
    label = laplacian_label(grid.n_points, degree)
    try:
        read = function_laplacian(density, math.sqrt(window), LAPLACIAN_FORMS_THRESHOLD)
    except ValueError as exc:
        raise ValueError(f"operator '{label}' is refused: {exc}") from exc
    return SpectrumReport(read.values, grid.n_points, label, radii=read.radii)


def _spectrum_text(report: SpectrumReport, fmt: str, window: float) -> str:
    """The in-window eigenvalues as CSV (a comment header, then one per row) or
    JSON; a report with radii adds them, the largest to the CSV header and
    each, aligned with the eigenvalues, to JSON."""
    inside = np.abs(report.eigenvalues) <= window + WINDOW_EDGE_SLACK
    values = report.eigenvalues[inside]
    radii = None if report.radii is None else report.radii[inside]
    if fmt == "csv":
        header = (f"# operator={report.operator_label},grid={report.grid_size},"
                  f"window={window:.17g},tag=inv")
        if radii is not None:
            header += f",radius={np.max(radii):.17g}"
        return header + "\neigenvalue\n" + "".join(f"{value:.17g}\n" for value in values)
    payload = {
        "operator_label": report.operator_label,
        "grid_size": report.grid_size,
        "window": window,
        "tag": "inv",
        "n_total": report.eigenvalues.size,
        "eigenvalues": values.tolist(),
    }
    if radii is not None:
        payload["radii"] = radii.tolist()
    return _json_text(payload)


def _cmd_spectrum(args) -> int:
    grid = GridSpec(args.grid, args.spin)
    # A Laplacian is read by Galerkin whatever N is, so n_points/8 does not
    # bound its window: GALERKIN_ORDER_CAP refuses the costly ones.
    if args.operator.startswith("dirac"):
        grid.validate_window(args.window)
    elif not 0.0 < args.window < math.inf:
        raise ValueError(f"window must be positive and finite, got {args.window}")
    profile = _load_profiles([args.profile])[0]
    density = LeafVolumeDensity.from_profile(profile, grid)
    report = _spectrum(args.operator, density, grid, args.window)
    text = _spectrum_text(report, args.format, args.window)
    name = f"spectrum_{args.operator}_{Path(args.profile).stem}.{args.format}"
    return _emit(args, name, text, [], False)


def _write_bounds(table, args, stem: str) -> int:
    """Write the bounds report of ``s3_bounds``'s table, name each row that
    misses its reference on stderr, and return the exit code."""
    if args.format == "csv":
        text = bound_rows_csv(table)
    else:
        rows = zip(*table.row_labels(), table.value.ravel().tolist(),
                   table.extremum.ravel().tolist(), table.arg_s.ravel().tolist())
        text = _json_text([
            {"kind": kind, "r": r, "value": value,
             "inputs": {**s3_quantities(kind, extremum), "q": S3_FLOW_Q, "n": S3_FLOW_N,
                        "arg_s": arg_s}}
            for kind, r, value, extremum, arg_s in rows
        ])
    failures = bound_failures(table)
    return _emit(args, f"{stem}.{args.format}", text, failures, bool(failures))


def _cmd_bounds(args) -> int:
    return _write_bounds(s3_bounds(args.r), args, "bounds")


def _cmd_sweep(args) -> int:
    if not 0.0 < args.r_min < args.r_max < math.inf:
        raise ValueError("need 0 < r-min < r-max < inf")
    r_values = np.geomspace(args.r_min, args.r_max, args.count)
    return _write_bounds(s3_bounds(r_values), args, "sweep_bounds")


def _run_verification(profiles, grid, window, pairs, seed) -> list:
    rng = np.random.default_rng(seed)
    reports = run_pair_checks(
        [random_pair(rng) for _ in range(pairs)] if len(profiles) < 2
        else list(zip(profiles, profiles[1:])),
        grid, window,
    )
    for profile in profiles:
        reports.extend(run_profile_checks(profile, grid))
    return reports


def _write_bundle(reports, grid: GridSpec, seed, args, name: str) -> int:
    """Write the verification bundle, name each failed or skipped check on
    stderr, and return the exit code."""
    bundle = {
        "meta": {
            "package_version": __version__,
            "grid": grid.n_points,
            "spin_structure": grid.spin_structure,
            "window": args.window,
            "seed": seed,
            "n_checks": len(reports),
        },
        "reports": [{**vars(report), "tag": report.metadata.get("tag", "")} for report in reports],
    }
    lines = []
    for report in reports:
        if report.metadata.get("skipped"):
            lines.append(f"skipped {report.check_name}: {report.metadata['reason']}")
        elif not report.passed:
            diagnostic = report.metadata.get("diagnostic", "no diagnostic")
            lines.append(f"failed {report.check_name}: residual {report.residual:.3e} > "
                         f"threshold {report.threshold:.0e}: {diagnostic}")
    n_failed = sum(not report.passed for report in reports)
    n_skipped = sum(bool(report.metadata.get("skipped")) for report in reports)
    return _emit(args, name, _json_text(bundle), lines, n_failed > 0,
                 f": {len(reports) - n_failed - n_skipped} passed, {n_failed} failed, "
                 f"{n_skipped} skipped")


def _cmd_verify(args) -> int:
    grid = GridSpec(args.grid, "trivial")
    grid.validate_window(args.window)
    if not args.profiles and args.pairs < 1:
        raise ValueError(
            f"verify has no checks to run: --pairs {args.pairs} and no --profiles"
        )
    seed = _seed_from_env(args.seed)
    profiles = _load_profiles(args.profiles)
    reports = _run_verification(profiles, grid, args.window, args.pairs, seed)
    return _write_bundle(reports, grid, seed, args, "verify_bundle.json")


def _cmd_invariance(args) -> int:
    grid = GridSpec(args.grid, "trivial")
    grid.validate_window(args.window)
    p1, p2 = _load_profiles(args.profiles)
    reports = run_pair_checks([(p1, p2)], grid, args.window)
    return _write_bundle(reports, grid, None, args, "invariance_bundle.json")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="foliation-lab",
        description="Spectral laboratory for basic Dirac operators on model flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="Windowed eigenvalues of one basic operator")
    p_spec.add_argument("--profile", required=True, help="Metric profile JSON file")
    p_spec.add_argument("--grid", type=int, default=128)
    p_spec.add_argument("--window", type=float, default=10.0)
    p_spec.add_argument("--operator", choices=_OPERATOR_CHOICES, default="dirac-spinor")
    p_spec.add_argument("--spin", choices=SPIN_STRUCTURES, default="trivial")
    p_spec.add_argument("--output-dir", default=".")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_inv = sub.add_parser("invariance", help="Metric-pair invariance battery")
    p_inv.add_argument("--profiles", nargs=2, required=True, metavar="PROFILE")
    p_inv.add_argument("--grid", type=int, default=128)
    p_inv.add_argument("--window", type=float, default=10.0)
    p_inv.add_argument("--output-dir", default=".")
    p_inv.set_defaults(func=_cmd_invariance)

    p_bounds = sub.add_parser("bounds", help="Sphere-flow eigenvalue bounds")
    p_bounds.add_argument("--r", type=float, nargs="+", required=True)
    p_bounds.add_argument("--resolution", type=int, help=_RESOLUTION_HELP)
    p_bounds.add_argument("--output-dir", default=".")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="Full verification bundle")
    p_verify.add_argument("--all", action="store_true",
                          help="Accepted for compatibility: verify always runs every applicable check")
    p_verify.add_argument("--profiles", nargs="*", default=[], metavar="PROFILE")
    p_verify.add_argument("--grid", type=int, default=128)
    p_verify.add_argument("--window", type=float, default=10.0)
    p_verify.add_argument(
        "--pairs", type=int, default=5, help="Random profile pairs when fewer than two profiles are given"
    )
    p_verify.add_argument("--seed", type=int, default=None, help=f"Overrides ${SEED_ENV_VAR}")
    p_verify.add_argument("--output-dir", default=".")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="Bounds over a log grid of flow parameters")
    p_sweep.add_argument("--r-min", type=float, default=0.1)
    p_sweep.add_argument("--r-max", type=float, default=10.0)
    p_sweep.add_argument("--count", type=int, default=50)
    p_sweep.add_argument("--resolution", type=int, help=_RESOLUTION_HELP)
    p_sweep.add_argument("--output-dir", default=".")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
