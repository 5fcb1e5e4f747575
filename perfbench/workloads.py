"""Benchmark workloads: seeded op lists for the foliation-lab CLI, and the
validation that decides whether each op's output is right.

Every op is one ``foliation_lab.cli.run(argv)`` call.  An op list depends only
on the workload name, the workload seed and the requested seconds, so two
commits run exactly the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances of the output oracles.
INTEGER_SPECTRUM_TOLERANCE = 1e-8
SWEEP_REFERENCE_TOLERANCE = 1e-6

# Largest theta frequency in generated profiles.
MAX_THETA_FREQUENCY = 8


@dataclass(frozen=True)
class Op:
    """One CLI call; ``profile`` is written to ``profile_file`` before the run."""

    index: int
    args: tuple[str, ...]
    profile: dict | None = None
    profile_flag: str = "--profiles"

    @property
    def profile_file(self) -> str:
        return f"profile_{self.index:05d}.json"

    def argv(self, input_dir: Path, output_dir: Path) -> list[str]:
        argv = list(self.args)
        if self.profile is not None:
            argv += [self.profile_flag, str(input_dir / self.profile_file)]
        return argv + ["--output-dir", str(output_dir)]

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Outcome:
    """Validation of one op's output against its oracle; check counts are
    kept for verify bundles."""

    passed: bool = True
    checks: int = 0
    skipped: int = 0
    failed: int = 0
    log: list = field(default_factory=list)

    def fail(self, line: str, check: bool = True) -> None:
        """Record a failure; ``check`` is false when the op failed as a whole."""
        self.passed = False
        self.failed += check
        self.log.append(f"FAILED {line}")


# --- profile generation -----------------------------------------------------


def _term(m, n, amp, phase_theta, phase_t) -> dict:
    return {
        "m": int(m),
        "n": int(n),
        "amp": float(amp),
        "phase_theta": float(phase_theta),
        "phase_t": float(phase_t),
    }


def _amplitudes(rng, count: int, budget: float) -> np.ndarray:
    """Signed amplitudes whose absolute sum is ``budget`` times a draw in [0.3, 0.8]."""
    raw = rng.uniform(0.2, 1.0, size=count)
    signs = np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0)
    return signs * raw * (budget * rng.uniform(0.3, 0.8) / raw.sum())


def _nonzero(rng, limit: int) -> int:
    value = int(rng.integers(1, limit + 1))
    return value if rng.uniform() < 0.5 else -value


def general_profile(rng, n_terms: int, max_n: int) -> dict:
    """A profile whose mean curvature depends on theta.

    The first term mixes both angles, so the Lichnerowicz check is skipped;
    the second, when present, is theta-independent, so the leaf-volume
    density is not constant.  The amplitudes sum below the constant, so the
    profile is positive.
    """
    constant = 2.0
    amps = _amplitudes(rng, n_terms, constant)
    terms = []
    for i, amp in enumerate(amps):
        if i == 0:
            m, n = _nonzero(rng, MAX_THETA_FREQUENCY), _nonzero(rng, max_n)
        elif i == 1:
            m, n = 0, _nonzero(rng, max_n)
        else:
            m = int(rng.integers(-MAX_THETA_FREQUENCY, MAX_THETA_FREQUENCY + 1))
            n = int(rng.integers(-max_n, max_n + 1))
        terms.append(_term(m, n, amp, *rng.uniform(0.0, 2.0 * np.pi, size=2)))
    return {"constant": constant, "terms": terms}


def product_profile(rng, n_terms: int, max_n: int) -> dict:
    """A product a(theta) c(t) expanded into ``n_terms`` Fourier terms.

    With A theta modes in a and C >= 1 t modes in c the expansion has
    (1 + A)(1 + C) - 1 terms; its mean curvature -c'/c is basic, so the
    Lichnerowicz check runs.
    """
    shapes = [(a, c) for a in range(n_terms + 1) for c in range(1, n_terms + 1)
              if (1 + a) * (1 + c) == n_terms + 1]
    n_a, n_c = shapes[int(rng.integers(len(shapes)))]
    a0, c0 = 1.0, 2.0
    a_modes = [(_nonzero(rng, MAX_THETA_FREQUENCY), amp, rng.uniform(0.0, 2.0 * np.pi))
               for amp in (_amplitudes(rng, n_a, a0) if n_a else [])]
    c_modes = [(_nonzero(rng, max_n), amp, rng.uniform(0.0, 2.0 * np.pi))
               for amp in _amplitudes(rng, n_c, c0)]
    terms = [_term(0, n, a0 * amp, 0.0, psi) for n, amp, psi in c_modes]
    terms += [_term(m, 0, c0 * amp, phi, 0.0) for m, amp, phi in a_modes]
    terms += [
        _term(m, n, a_amp * c_amp, phi, psi)
        for m, a_amp, phi in a_modes
        for n, c_amp, psi in c_modes
    ]
    return {"constant": a0 * c0, "terms": terms}


# --- workloads --------------------------------------------------------------


def _op_seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


# The verify-pairs warm-up verifies the first pair of the CLI's default seed:
# it reaches every code path and grid size of a measured op, including the
# Laplacian contrast, at a fifth of the cost, and the same work for every
# workload seed, so the set-up time does not depend on the seed.
PAIRS_WARMUP_ARGS = ("--pairs", "1", "--seed", "7041")


def _verify_pairs_op(rng, index: int, warmup: bool) -> Op:
    args = PAIRS_WARMUP_ARGS if warmup else ("--seed", str(_op_seed(rng)))
    return Op(index, ("verify", "--all", "--grid", "256", *args))


def _bandwidth(rng, guard: int) -> int:
    """A t-bandwidth drawn from 1 up to the grid's guard n_points / 8."""
    return int(rng.integers(1, guard + 1))


def _verify_identities_op(rng, index: int, warmup: bool) -> Op:
    make = product_profile if index % 2 == 0 else general_profile
    profile = make(rng, int(rng.integers(1, 13)), _bandwidth(rng, 128 // 8))
    return Op(index, ("verify", "--all", "--grid", "128", "--pairs", "0"), profile)


def _spectrum_op(rng, index: int, warmup: bool) -> Op:
    profile = general_profile(rng, int(rng.integers(1, 13)), _bandwidth(rng, 512 // 8))
    args = ("spectrum", "--grid", "512", "--operator", "dirac-forms", "--window", "64")
    return Op(index, args, profile, profile_flag="--profile")


# The sweep warm-up runs three flow parameters (0.1, 1 and 10) through every
# bound at the measured resolution: the same code paths as a measured op at a
# sixteenth of its cost, and the same work for every workload seed.
SWEEP_WARMUP_ARGS = ("sweep", "--count", "3", "--resolution", "1000")


def _sweep_op(rng, index: int, warmup: bool) -> Op:
    if warmup:
        return Op(index, SWEEP_WARMUP_ARGS)
    r_min = 0.1 * math.exp(rng.uniform(-0.1, 0.1))
    r_max = 10.0 * math.exp(rng.uniform(-0.1, 0.1))
    return Op(index, ("sweep", "--count", "50", "--resolution", "1000",
                      "--r-min", repr(r_min), "--r-max", repr(r_max)))


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object
    # Typical op time at the parent commit on a 2-core x86 machine whose
    # speed swings about twofold with load from other tenants.  It sets how
    # many ops fill the requested seconds, and stays fixed so that every
    # commit runs the same op list.
    nominal_op_s: float

    def ops(self, seed: int, seconds: float):
        """The warm-up op and the measured op list for this seed."""
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        warmup = self.make_op(rng, 99999, True)
        count = max(1, round(seconds / self.nominal_op_s))
        return warmup, [self.make_op(rng, i, False) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-pairs-n256", _verify_pairs_op, 6.5),
        Workload("verify-identities-n128", _verify_identities_op, 0.04),
        Workload("spectrum-n512", _spectrum_op, 2.2),
        Workload("sweep-s3", _sweep_op, 1.1),
    )
}


def write_inputs(ops, input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.profile is not None:
            text = json.dumps(op.profile, indent=2, sort_keys=True) + "\n"
            (input_dir / op.profile_file).write_text(text, encoding="utf-8")


# --- validation -------------------------------------------------------------


def validate_verify(out_dir: Path) -> Outcome:
    """The bundle parses and every check that was not skipped passed."""
    bundle = json.loads((out_dir / "verify_bundle.json").read_text(encoding="utf-8"))
    reports = bundle["reports"]
    outcome = Outcome(checks=len(reports))
    if bundle["meta"]["n_checks"] != len(reports):
        outcome.fail(f"bundle reason=meta counts {bundle['meta']['n_checks']} checks, "
                     f"the bundle lists {len(reports)}", check=False)
    for report in reports:
        metadata = report["metadata"]
        fields = f"{report['check_name']} residual={report['residual']} threshold={report['threshold']}"
        if metadata.get("skipped"):
            outcome.skipped += 1
            outcome.log.append(f"SKIPPED {fields} reason={metadata['reason']}")
        elif not report["passed"]:
            reason = metadata.get("diagnostic", "residual above threshold")
            outcome.fail(f"{fields} reason={reason}")
    return outcome


def validate_spectrum(out_dir: Path) -> Outcome:
    """Every in-window eigenvalue lies within the tolerance of an integer."""
    (path,) = out_dir.glob("spectrum_*.csv")
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    if lines[0] != "eigenvalue":
        raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
    values = np.array([float(line) for line in lines[1:]])
    outcome = Outcome()
    if values.size == 0:
        outcome.fail("integer_spectrum reason=no eigenvalue in the window")
        return outcome
    residual = float(np.max(np.abs(values - np.round(values))))
    if not residual <= INTEGER_SPECTRUM_TOLERANCE:
        worst = values[int(np.argmax(np.abs(values - np.round(values))))]
        outcome.fail(
            f"integer_spectrum residual={residual} threshold={INTEGER_SPECTRUM_TOLERANCE} "
            f"reason=eigenvalue {worst!r} is not an integer"
        )
    return outcome


def validate_sweep(out_dir: Path) -> Outcome:
    """Every row that has a reference lies within the tolerance of it."""
    with open(out_dir / "sweep_bounds.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    outcome = Outcome()
    for row in rows:
        if not row["reference_value"]:
            continue
        error = float(row["abs_error"])
        if not error <= SWEEP_REFERENCE_TOLERANCE:
            outcome.fail(
                f"bound {row['kind']} r={row['r']} residual={error} "
                f"threshold={SWEEP_REFERENCE_TOLERANCE} reason=value {row['value']} "
                f"is off its reference {row['reference_value']}"
            )
    return outcome


VALIDATORS = {"verify": validate_verify, "spectrum": validate_spectrum, "sweep": validate_sweep}


def judge(op: Op, exit_code: int, out_dir: Path, stderr: str = "") -> tuple[Outcome, bool]:
    """Validate one op; return its outcome and whether the program was honest.

    An op passes when it exits 0 and its output passes the oracle.  The
    program is honest when its exit code reports what the oracle found: 1
    for a verdict failure, 2 for an input it refuses (an error message and
    no output), 0 otherwise.  A missing or unreadable output after exit 0 or
    1, or a spectrum that fails the oracle after exit 0, is dishonest.
    """
    if exit_code not in (0, 1):
        outcome = Outcome()
        outcome.fail(f"exit_code={exit_code} reason={stderr.strip() or 'no message'}", check=False)
        return outcome, exit_code == 2
    try:
        outcome = VALIDATORS[op.command](out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome = Outcome()
        outcome.fail(f"exit_code={exit_code} reason=unreadable output: {exc!r}", check=False)
        return outcome, False
    if op.command == "spectrum":
        honest = exit_code == 0 and outcome.passed
    else:
        honest = exit_code == (0 if outcome.passed else 1)
    if exit_code != 0 and outcome.passed:
        outcome.fail(f"exit_code={exit_code} reason=nonzero exit with a valid output", check=False)
    return outcome, honest
