"""foliation-lab benchmark: drive ``foliation_lab.cli.run`` in-process over a
seeded op list and print end-to-end metrics, or per-layer metrics with
``--trace 1``.

    python3 perfbench/run.py --workload sweep-s3 --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the provenance, every metric by name and unit, and the failure shares; the
per-op log of failed and skipped checks goes to standard error.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fresh interpreters timed from start to ready, per untraced run: at least
# SETUP_MIN_SAMPLES, and more until SETUP_PROBE_S have passed, so that the
# cheap set-ups get more samples.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_PROBE_S = 3.0
PROBE_TIMEOUT_S = 120
# Seconds of calibration passes (calibration.py) per second of op time.
CALIBRATION_SHARE = 0.1
# Every run judges its whole op list.  A run that is still going this many
# seconds after the process started gives up without a result, rather than
# report on a shorter op list.
RUN_LIMIT_S = 165.0
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_info() -> dict:
    """BLAS library, version and thread count, read from the loaded library."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args, nproc: int) -> dict:
    import numpy as np

    from foliation_lab import _kernels

    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "kernels_using_numba": _kernels.USING_NUMBA,
        "git_commit": git_commit(),
    }


def run_op(cli, op, input_dir: Path, output_dir: Path):
    """One closed-loop op; returns (exit code, seconds, captured stderr).

    An exception that escapes the CLI is recorded as exit code -1 with its
    traceback, so that the run reports it as a failed, dishonest op.
    """
    argv = op.argv(input_dir, output_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(argv)
        except Exception:
            code = -1
            traceback.print_exc()
    return code, time.perf_counter() - start, stderr.getvalue()


def prepare(args, work: Path):
    """Import the package, generate and write the inputs, run the warm-up op."""
    import workloads
    from foliation_lab import cli

    workload = workloads.WORKLOADS[args.workload]
    warmup, ops = workload.ops(args.seed, args.seconds)
    input_dir = work / "inputs"
    workloads.write_inputs([warmup, *ops], input_dir)
    run_op(cli, warmup, input_dir, work / "warmup")
    return cli, ops, input_dir


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def measure_setup(args) -> list[float]:
    samples = []
    while len(samples) < SETUP_MIN_SAMPLES or (
        sum(samples) < SETUP_PROBE_S and len(samples) < SETUP_MAX_SAMPLES
    ):
        samples.append(probe_setup(args))
    return samples


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class RunLimitExceeded(Exception):
    pass


def check_run_limit(started: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > RUN_LIMIT_S:
        raise RunLimitExceeded(f"the run exceeded {RUN_LIMIT_S} s ({elapsed:.1f} s)")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = importlib.util.find_spec("foliation_lab")
    if spec is None or Path(spec.origin).resolve() != SRC / "foliation_lab" / "__init__.py":
        print(f"error: no foliation_lab sources under {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"work-{os.getpid()}"
    try:
        if args.probe:
            prepare(args, work)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else measure_setup(args)
        cli, ops, input_dir = prepare(args, work)
        info = provenance(args, nproc)
        if args.trace:
            result = traced_run(cli, ops, input_dir, work, info, started)
        else:
            result = untraced_run(cli, ops, input_dir, work, setup, started)
        print("provenance " + json.dumps(info, sort_keys=True))
        return report(args, result)
    except RunLimitExceeded as exc:
        print(f"error: {exc}; no result", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def judge_all(ops, runs, work: Path, out_prefix: str = "out"):
    """Validate every op; return counts and whether every exit code was honest."""
    import workloads

    tally = {"failed_ops": 0, "checks": 0, "run": 0, "failed": 0, "skipped": 0, "honest": True}
    for op, (code, _, err) in zip(ops, runs):
        outcome, honest = workloads.judge(op, code, work / f"{out_prefix}-{op.index}", err)
        tally["honest"] &= honest
        tally["failed_ops"] += not outcome.passed
        if op.command == "verify":
            tally["checks"] += outcome.checks
            tally["skipped"] += outcome.skipped
            tally["failed"] += outcome.failed
            tally["run"] += outcome.checks - outcome.skipped
        for line in outcome.log:
            print(f"op {op.index} {' '.join(op.args)}: {line}", file=sys.stderr)
    return tally


def untraced_run(cli, ops, input_dir, work, setup, started):
    """Run the op list, with calibration passes between ops in proportion to
    the op time so far, which give the host's slowdown during the run."""
    from calibration import Calibration

    calibration = Calibration()
    runs = []
    wall = 0.0
    for op in ops:
        runs.append(run_op(cli, op, input_dir, work / f"out-{op.index}"))
        wall += runs[-1][1]
        calibration.run_until(CALIBRATION_SHARE * wall)
        check_run_limit(started)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = judge_all(ops, runs, work)
    op_times = [seconds for _, seconds, _ in runs]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_ref_s": len(ops) / wall * calibration.slowdown,
        "peak_rss_mb": peak_mb,
    }
    extra = [f"metric ops_per_s {len(ops) / wall} 1/s (host slowdown {calibration.slowdown})",
             f"metric wall_s {wall} s ({len(ops)} ops, closed loop, one client)",
             f"metric op_s_p50 {statistics.median(op_times)} s ({len(ops)} ops)"]
    if len(ops) >= 100:
        extra.append(f"metric op_s_p90 {percentile(op_times, 0.9)} s ({len(ops)} ops)")
    extra.append(f"setup_samples {' '.join(str(s) for s in setup)} s")
    extra.append(f"calibration_passes {len(calibration.times)}")
    extra.append(f"op_times {' '.join(f'{t:.4f}' for t in op_times)} s")
    return metrics, tally, extra, len(ops)


def traced_run(cli, ops, input_dir, work, info, started):
    """Run each op untraced and traced, alternating which goes first.

    The two outputs must be byte-identical; the traced-minus-untraced time is
    the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    for op in ops:
        order = ("plain", "traced") if op.index % 2 == 0 else ("traced", "plain")
        for kind in order:
            if kind == "plain":
                plain.append(run_op(cli, op, input_dir, work / f"out-{op.index}"))
                continue
            tracer.op = op.index
            with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
                traced.append(run_op(cli, op, input_dir, work / f"outtraced-{op.index}"))
        check_run_limit(started)
    tally = judge_all(ops, traced, work, out_prefix="outtraced")
    identical = all(
        same_tree(work / f"out-{op.index}", work / f"outtraced-{op.index}") for op in ops
    )
    if not identical:
        print("error: traced and untraced ops wrote different bytes", file=sys.stderr)
    tally["honest"] &= identical
    overhead = sum(t for _, t, _ in traced) - sum(t for _, t, _ in plain)
    checks = {"run": tally["run"], "failed": tally["failed"], "skipped": tally["skipped"]}
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{info['workload']}-seed{info['workload_seed']}.json"
    tracer.write(trace_path, info)
    extra = [f"ops {len(ops)} traced and untraced", f"spans {len(tracer.spans)} written to {trace_path}"]
    return tracer.metrics(checks, overhead), tally, extra, len(ops)


def same_tree(a: Path, b: Path) -> bool:
    def listing(directory):
        return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []

    names = listing(a)
    if names != listing(b):
        return False
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def report(args, result) -> int:
    metrics, tally, extra, attempted = result
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        payload = metrics
    else:
        units = dict(END_TO_END)
        payload = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    for name, entry in payload.items():
        print(f"metric {name} {entry['value']} {entry['unit']}")
    print(f"metric ops_failed_frac {tally['failed_ops'] / attempted} fraction "
          f"({tally['failed_ops']} of {attempted} ops)")
    if tally["checks"]:
        print(f"metric checks_skipped_frac {tally['skipped'] / tally['checks']} fraction "
              f"({tally['skipped']} of {tally['checks']} checks)")
    for line in extra:
        print(line)
    print(json.dumps({"correct": tally["honest"], "attempted": attempted,
                      "failed": tally["failed_ops"], "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
