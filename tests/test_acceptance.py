"""Acceptance suite: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Every tolerance refers to the discretization accuracy of the stated check.
"""

import time

import numpy as np
import pytest

from foliation_lab.basic_calculus import LeafVolumeDensity
from foliation_lab.bounds import BOUND_KINDS, piecewise_reference, s3_bounds
from foliation_lab.model_spaces import GridSpec, MetricProfile, ProfileTerm, torus_geometry
from foliation_lab.operators import assemble_basic_dirac_spinor
from foliation_lab.spectral import eigenvalues_weighted
from foliation_lab.verify import (
    conjugation_residual,
    invariance_check,
    kappa_transform_residual,
    laplacian_dependence,
    lichnerowicz_residual,
    random_profile,
    scal_relation_residual,
)

from conftest import (
    exp_sin_profile,
    fd_laplacian_spectrum,
    laplacian_first_nonzero_eigenvalue,
    pair_inputs,
)

GRID = GridSpec(128)
WINDOW = 10.0


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_criterion_1_integer_spectrum_oracle():
    profiles = {
        "flat": MetricProfile(1.0),
        "cosine": MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)),
        "exp_half_sin": exp_sin_profile(0.5),
        "theta_dependent": MetricProfile(
            2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(1, 0, 0.4), ProfileTerm(1, 1, 0.2))
        ),
    }
    ok = True
    details = []
    for name, profile in profiles.items():
        start = time.perf_counter()
        density = LeafVolumeDensity.from_profile(profile, GRID)
        op = assemble_basic_dirac_spinor(density, GRID)
        window = eigenvalues_weighted(op).in_window(WINDOW)
        elapsed = time.perf_counter() - start
        expected = np.arange(-10, 11, dtype=float)
        integer_like = (
            window.size == expected.size
            and np.max(np.abs(window - expected)) < 1e-8
        )
        fast_enough = elapsed < 5.0
        ok = ok and integer_like and fast_enough
        details.append(f"{name}: dev={np.max(np.abs(window - np.round(window))):.2e}, {elapsed:.2f}s")
    _report(1, "integer spectrum oracle", ok, "; ".join(details))
    assert ok


def test_criterion_2_metric_invariance():
    rng = np.random.default_rng(424242)
    ok = True
    worst = {"spectrum": 0.0, "conjugation": 0.0, "kappa": 0.0}
    for _ in range(5):
        pair = pair_inputs(random_profile(rng), random_profile(rng), GRID)
        inv = invariance_check(*pair.spectra, WINDOW, pair.metadata)
        conj = conjugation_residual(*pair.densities, pair.alpha, GRID, pair.metadata)
        kap = kappa_transform_residual(*pair.densities, pair.alpha, GRID, pair.metadata)
        worst["spectrum"] = max(worst["spectrum"], inv.residual)
        worst["conjugation"] = max(worst["conjugation"], conj.residual)
        worst["kappa"] = max(worst["kappa"], kap.residual)
        ok = ok and inv.residual < 1e-8 and conj.residual < 1e-9 and kap.residual < 1e-10
    _report(
        2,
        "metric invariance",
        ok,
        f"worst spectrum={worst['spectrum']:.2e}, conjugation={worst['conjugation']:.2e}, "
        f"kappa={worst['kappa']:.2e}",
    )
    assert ok


def test_criterion_3_sphere_flow_bounds():
    expected = {
        0.25: {"esti": 1.1875, "estmflot": 3.0625},
        0.5: {"esti": 1.75, "estmflot": 3.25},
        2.0: {"esti": 4.0, "estmflot": 3.25},
        4.0: {"esti": 4.0, "estmflot": 3.0625},
    }
    ok = True
    worst = 0.0
    for r, targets in expected.items():
        numeric = dict(zip(BOUND_KINDS, s3_bounds(r).value[0].tolist()))
        reference = piecewise_reference(r)
        for kind, target in targets.items():
            worst = max(worst, abs(numeric[kind] - target))
            ok = ok and abs(numeric[kind] - target) < 1e-6
        worst = max(worst, abs(numeric["minmax"] - reference["minmax"]))
        ok = ok and abs(numeric["minmax"] - reference["minmax"]) < 1e-6
    comparisons = 0
    for r in np.geomspace(0.1, 10.0, 50):
        if r >= 1.0:
            continue
        numeric = dict(zip(BOUND_KINDS, s3_bounds(r).value[0].tolist()))
        ok = ok and numeric["estmflot"] >= numeric["esti"]
        comparisons += 1
    _report(3, "sphere-flow bounds", ok, f"worst |error|={worst:.2e}, r<1 points={comparisons}")
    assert ok


def test_criterion_4_curvature_identity():
    profiles = {
        "cosine": MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),)),
        "exp_half_sin": exp_sin_profile(0.5),
        "theta_dependent": MetricProfile(2.0, (ProfileTerm(1, 1, 0.5),)),
    }
    ok = True
    worst = 0.0
    for profile in profiles.values():
        residual = scal_relation_residual(profile, GRID, torus_geometry(profile, GRID)).residual
        worst = max(worst, residual)
        ok = ok and residual < 1e-6
    cosine = profiles["cosine"]
    coarse, fine = (
        scal_relation_residual(cosine, grid, torus_geometry(cosine, grid)).residual
        for grid in (GridSpec(16), GridSpec(32))
    )
    decay = coarse / fine
    ok = ok and decay >= 100.0
    _report(4, "curvature identity", ok, f"worst residual={worst:.2e}, decay factor={decay:.1e}")
    assert ok


def test_criterion_5_lichnerowicz_identity():
    products = {
        "separable": MetricProfile(
            2.0, (ProfileTerm(0, 1, 1.0), ProfileTerm(1, 0, 1.0), ProfileTerm(1, 1, 0.5))
        ),
        "exp_half_sin": exp_sin_profile(0.5),
    }
    ok = True
    worst = 0.0
    for profile in products.values():
        residual = lichnerowicz_residual(profile, GRID, torus_geometry(profile, GRID)).residual
        worst = max(worst, residual)
        ok = ok and residual < 1e-8
    skew = MetricProfile(
        2.0, (ProfileTerm(1, 1, 1.0), ProfileTerm(1, 1, -1.0, np.pi / 2.0, np.pi / 2.0))
    )
    refusal = lichnerowicz_residual(skew, GRID, torus_geometry(skew, GRID)).metadata
    rejected = refusal.get("skipped", False) and "not basic" in refusal["reason"]
    ok = ok and rejected
    _report(5, "Lichnerowicz identity", ok, f"worst residual={worst:.2e}, rejection={rejected}")
    assert ok


def test_criterion_6_laplacian_contrast():
    p1 = MetricProfile(1.0)
    p2 = MetricProfile(1.0, (ProfileTerm(0, 1, 0.5),))
    pair = pair_inputs(p1, p2, GRID)
    forms_bound = invariance_check(*pair.spectra, WINDOW, pair.metadata).metadata["forms_residual"]
    laplacians = pair.laplacians(WINDOW)
    report = laplacian_dependence(*laplacians, forms_bound, WINDOW, pair.metadata)
    lam_1, lam_2 = (laplacian_first_nonzero_eigenvalue(read.values) for read in laplacians)
    gap = abs(lam_2 - lam_1)
    lam_fd = laplacian_first_nonzero_eigenvalue(fd_laplacian_spectrum(p2, 1024).eigenvalues)
    fd_agrees = abs(lam_2 - lam_fd) < 1e-4
    ok = (
        report.passed
        and gap > 1e-3
        and fd_agrees
        and report.metadata["squared_forms_residual"] < 1e-8
    )
    _report(
        6,
        "Laplacian contrast",
        ok,
        f"gap={gap:.4f}, fd deviation={abs(lam_2 - lam_fd):.2e}, "
        f"forms residual={report.metadata['squared_forms_residual']:.2e}",
    )
    assert ok
