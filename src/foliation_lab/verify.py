"""End-to-end verification harnesses for the spectral-invariance statement,
the identities behind it, and the curvature/Lichnerowicz residual checks.

Each check returns a VerificationReport whose ``passed`` flag is exactly
``residual <= threshold``.  Structural failures (an uncertified window edge,
indistinguishable Laplacian spectra) are reported with an infinite residual
and a diagnostic in the metadata, never silently.

Every check is a pure function of the values it is passed, and a check whose
precondition does not hold returns ``VerificationReport.skipped`` itself.
The two batteries build those values once and hold them as locals:
``run_pair_checks`` builds each profile's leaf-volume density and alpha,
reads each density's ``dirac_spectra`` from the operator's O(N) data, with
no N x N matrix, and the density's ``function_laplacian``; the
conjugation check bounds its residual from the same data, and the contrast
reads the forms bound that the invariance report recorded.
``run_profile_checks`` builds one torus geometry; the Lichnerowicz check
reads lhs - rhs as its diagonal in O(N log N) (``lichnerowicz_residual``),
so no check assembles an operator.  Every pair report carries the tag of
``pair_metadata``.

Generated pairs (``random_pair``) and given pairs run the same battery,
and no pair check is skipped.

Per command, ``run_pair_checks`` reads each distinct density's Laplacian
once, keyed on the density, which holds no grid; the memo holds reads only
and ends with the call.  The Dirac reads cost O(N) once the lattice of
``spectral.circulant_spectrum`` is cached, and are not memoised.

Every basic Dirac spectrum is the lattice of the translation-invariant
operator that the paper's operator is unitarily equivalent to, and the
grid verdicts measure how far the weight data are from that equivalence:
``invariance_check`` computes, once per pair, the spinor and forms bounds
that ``spectral`` derives for the Dirac reads, infinite when a windowed
count is not certified; ``laplacian_dependence`` scales the forms bound,
and reads the radii of the Galerkin Laplacian reads, each to
LAPLACIAN_FORMS_THRESHOLD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._spectral_diff import fourier_derivative
from .basic_calculus import LeafVolumeDensity, dlog
from .model_spaces import (
    GridSpec,
    MetricProfile,
    ProfileTerm,
    TorusGeometry,
    torus_geometry,
    torus_metric_sample,
)
from .operators import dirac_factors, require_lichnerowicz_grid
from .spectral import (
    WINDOW_EDGE_SLACK,
    LaplacianRead,
    SpectrumReport,
    circulant_spectrum,
    conjugation_bound,
    dirac_spectra,
    function_laplacian,
    gamma,
    spectrum_compare,
)

INVARIANCE_THRESHOLD = 1e-8
KAPPA_TRANSFORM_THRESHOLD = 1e-10
CONJUGATION_THRESHOLD = 1e-8
SCAL_RELATION_THRESHOLD = 1e-6
LICHNEROWICZ_THRESHOLD = 1e-8
LAPLACIAN_FORMS_THRESHOLD = 1e-8
LAPLACIAN_GAP_THRESHOLD = 1e-3

# Why a Dirac bound is infinite (``invariance_check``): a window count is not
# certified (``SpectrumReport.window_count``).
EDGE_DIAGNOSTIC = "a computed eigenvalue lies within its certified radius of the window edge"

# How far the mean-curvature coefficient may vary along theta before the
# profile is refused by checks that assume basic mean curvature.
BASIC_KAPPA_TOLERANCE = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    residual: float
    threshold: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def skipped(cls, check_name: str, threshold: float, reason: str, metadata: dict):
        """A check whose precondition does not hold: flagged ``skipped`` with its
        reason in the metadata and a zero residual.  Its ``passed`` flag stays
        true, so a skipped check never sets the exit code and bundles keep
        their bytes; readers count skipped checks from the flag in the
        metadata, as the ``verify`` summary line does."""
        return cls(
            check_name=check_name,
            residual=0.0,
            threshold=threshold,
            passed=True,
            metadata={**metadata, "skipped": True, "reason": reason},
        )

    @classmethod
    def from_residual(cls, check_name: str, residual: float, threshold: float, metadata: dict):
        return cls(
            check_name=check_name,
            residual=float(residual),
            threshold=float(threshold),
            passed=bool(residual <= threshold),
            metadata=metadata,
        )


def pair_metadata(p1: MetricProfile, p2: MetricProfile, grid: GridSpec) -> dict:
    """The metadata every pair check's report starts from."""
    return {
        "tag": "inv",
        "profile_1": p1.to_dict(),
        "profile_2": p2.to_dict(),
        "grid": grid.n_points,
        "spin_structure": grid.spin_structure,
    }


def _profile_metadata(tag: str, profile: MetricProfile, grid: GridSpec) -> dict:
    return {"tag": tag, "profile": profile.to_dict(), "grid": grid.n_points}


def basic_volume_ratio(p1: MetricProfile, p2: MetricProfile, grid: GridSpec) -> np.ndarray:
    """alpha = P_b(dvol'/dvol) under the first metric's weighting, which by
    ``project_basic``'s definition is sum_theta f2 / sum_theta f1: read from
    the samples, not the densities, so that the kappa-transform and
    conjugation checks see a ``LeafVolumeDensity`` defect."""
    return torus_metric_sample(p2, grid).sum(axis=0) / torus_metric_sample(p1, grid).sum(axis=0)


def invariance_check(
    spectra_1: tuple[SpectrumReport, SpectrumReport],
    spectra_2: tuple[SpectrumReport, SpectrumReport],
    window: float,
    metadata: dict,
) -> VerificationReport:
    """Bound the windowed deviation of the basic Dirac spectra (spinor and
    forms) of two bundle-like metrics, each pair ``(spinor, forms)`` as
    ``dirac_spectra`` reads it.

    Each of the spinor and forms bounds is d_1 + d_2 plus the windowed
    deviation of the computed values (``spectral``); the residual is the
    larger.  A computed eigenvalue within its radius of the window edge
    leaves the counts uncertified (null): both bounds are infinite, with a
    diagnostic.
    """
    (spinor_1, forms_1), (spinor_2, forms_2) = spectra_1, spectra_2
    counts = [spinor_1.window_count(window), spinor_2.window_count(window)]
    if None in counts:
        spinor_residual = forms_residual = math.inf
    else:
        distance = spinor_1.distance + spinor_2.distance
        spinor_residual = distance + spectrum_compare(spinor_1, spinor_2, window)
        forms_residual = distance + spectrum_compare(forms_1, forms_2, window)
    metadata = {
        **metadata,
        "window": window,
        "spinor_residual": spinor_residual,
        "forms_residual": forms_residual,
        "spinor_counts": counts,
        "forms_counts": [None if count is None else 2 * count for count in counts],
        "projection_distance": [spinor_1.distance, spinor_2.distance],
    }
    if None in counts:
        metadata["diagnostic"] = EDGE_DIAGNOSTIC
    return VerificationReport.from_residual(
        "invariance", max(spinor_residual, forms_residual), INVARIANCE_THRESHOLD, metadata
    )


def kappa_transform_residual(
    d1: LeafVolumeDensity,
    d2: LeafVolumeDensity,
    alpha: np.ndarray,
    grid: GridSpec,
    metadata: dict,
) -> VerificationReport:
    """Check the mean-curvature transformation k' = k - dlog(alpha).

    alpha is the basic projection of the volume ratio of the two metrics
    (``basic_volume_ratio``); the vanishing of k' - k + dlog(alpha) is the
    endomorphism identity that makes the two Dirac operators conjugate.
    """
    k1 = d1.mean_curvature_values(grid.n_points)
    k2 = d2.mean_curvature_values(grid.n_points)
    residual = float(np.max(np.abs(k2 - k1 + dlog(alpha, grid))))
    metadata = {**metadata, "alpha_min": float(alpha.min())}
    return VerificationReport.from_residual(
        "kappa_transform", residual, KAPPA_TRANSFORM_THRESHOLD, metadata
    )


def conjugation_residual(
    d1: LeafVolumeDensity,
    d2: LeafVolumeDensity,
    alpha: np.ndarray,
    grid: GridSpec,
    metadata: dict,
) -> VerificationReport:
    """An upper bound of the Frobenius distance between D' and
    alpha^{-1/2} D alpha^{1/2}, which bounds their operator-norm distance,
    from the operators' O(N) data.  With D = i w^{-1} C w, D' = i u^{-1} C u
    (``spectral``) and r = alpha^{1/2} w / u, the difference has the entries
    i C_jk (u_k / u_j)(r_j - r_k) / r_j, so its norm is at most
    F (max |u| / min |u|) max |r_j - r_k| / min |r|, read off the computed u
    and r by ``spectral.conjugation_bound``."""
    u = dirac_factors(d2, grid.n_points)[0]
    residual = conjugation_bound(u, np.sqrt(alpha) * dirac_factors(d1, grid.n_points)[0] / u,
                                 circulant_spectrum(grid.n_points, grid.spin_structure)[2])
    return VerificationReport.from_residual(
        "conjugation", residual, CONJUGATION_THRESHOLD, metadata
    )


def scal_relation_residual(
    profile: MetricProfile, grid: GridSpec, geometry: TorusGeometry
) -> VerificationReport:
    """Pointwise curvature relation on the torus flow, read from the profile's
    ``torus_geometry``.

    With vanishing transverse and leaf curvature and vanishing O'Neill
    A-tensor, the relation reduces to Scal_M = -2|kappa|^2 + 2 div(kappa),
    with the divergence computed spectrally along t.  On this family that is
    algebra (-2 kappa^2 + 2 kappa' = -2 f_tt/f for kappa = -f_t/f), so the
    residual is only the aliasing error of kappa's spectral derivative: the
    check guards a future certificate that the grid resolves kappa.
    """
    kappa = geometry.kappa_coeff
    divergence = fourier_derivative(kappa, order=1, axis=1)
    rhs = -2.0 * kappa * kappa + 2.0 * divergence
    residual = float(np.max(np.abs(geometry.scal_m - rhs)))
    return VerificationReport.from_residual(
        "scal_relation", residual, SCAL_RELATION_THRESHOLD,
        _profile_metadata("scal", profile, grid),
    )


def lichnerowicz_diagonal(density: LeafVolumeDensity, n_points: int) -> tuple[np.ndarray, float]:
    """c + p = -diag(lhs - rhs) at the ``n_points`` nodes, by two real FFT pairs,
    and the allowance a >= its largest rounding error (``lichnerowicz_residual``)."""
    g, g_dot = density.samples(n_points)
    h = g_dot / (2.0 * g)
    k = density.mean_curvature_values(n_points)
    derivative_h, derivative_g_dot = fourier_derivative(np.stack([h, g_dot]))
    terms = (derivative_h, h * h, 0.25 * k * k, derivative_g_dot / (-2.0 * g))
    values = terms[0] + terms[1] + terms[2] + terms[3]
    moduli = sum(np.abs(term) for term in terms)
    norms = float(np.linalg.norm(h)) + float(np.linalg.norm(g_dot)) / (2.0 * float(g.min()))
    fft = 0.5 * n_points * (2.0 * gamma(7.0 * math.log2(n_points)) + gamma(3))
    allowance = gamma(9) * float(np.max(moduli)) + fft * norms * (1.0 + gamma(n_points + 8))
    return values, allowance


def lichnerowicz_residual(
    profile: MetricProfile, grid: GridSpec, geometry: TorusGeometry
) -> VerificationReport:
    """Residual of the squared-Dirac Lichnerowicz identity D^2 = rhs: an
    upper bound of ||M||_2, M = lhs - rhs, read in O(N log N) with no matrix.

    Only defined for profiles with basic mean curvature, read from the
    profile's ``torus_geometry``: when kappa's coefficient varies along theta
    by more than BASIC_KAPPA_TOLERANCE (relative to max(1, max|kappa|)) the
    report is skipped, with the variation in its reason.  A grid below 8
    times the t-bandwidth is refused (``require_lichnerowicz_grid``).

    The sides are those of ``operators.assemble_lichnerowicz_sides``, built
    from the density's samples g and g'.  With w = g^{1/2}, h = g'/2g,
    k = -g'/g and F the Fourier derivative of ``fourier_derivative``, in
    exact arithmetic lhs = (i w^{-1} D_s w)^2 = -w^{-1} D_s^2 w and
    rhs = -w^{-1} D_s^2 w + diag(c + p), with c = F(h) + h^2 and
    p = k^2/4 - (delta k)/2, delta k = -F(g k)/g = F(g')/g.  So
    M = -diag(c + p) on either spin structure, and ||M||_2 = max|c + p|.
    As g' is band-limited, c + p = F(h) - h': the check measures the
    aliasing of h's spectral derivative only, as ``scal_relation`` does.

    The residual is the computed max|c + p| plus the allowance a of
    ``lichnerowicz_diagonal``, so it is at least ||M||_2.  With u = eps/2 and
    gamma_n = n eps / (1 - n eps): the computed h and k are within a
    relative u of the exact ones.  An N-point real FFT errs normwise by at
    most phi_N = gamma_{7 log2 N} relative (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Theorem 24.2, as in ``spectral``).  F is an
    rfft, a product by ik (k < N/2) rounding each part once, and an irfft,
    and ||F||_2 <= N/2, so the computed F(x) is within
    (N/2)(2 phi_N + u)(1 + phi_N + u)||x||_2 of F(x) at every node.  With
    h's own error, the derivative of the computed h errs by at most
    (N/2)(2 phi_N + gamma_3)||h||_2, and that of g' over 2g by the same
    factor times ||g'||_2 / (2 min g); the squares, the division and the
    sums round by at most gamma_7 of the sum of the four terms' moduli.  a
    takes gamma_9 of that sum, covering the final sum too, and the norm
    terms times 1 + gamma_{N+8}, covering their rounding.  No bound of the
    dense form's off-diagonal round-off is added: that matrix is not formed.
    """
    metadata = _profile_metadata("schlich", profile, grid)
    kappa = geometry.kappa_coeff
    variation = float(np.max(kappa.max(axis=0) - kappa.min(axis=0)))
    if variation > BASIC_KAPPA_TOLERANCE * max(1.0, float(np.max(np.abs(kappa)))):
        reason = ("mean curvature is not basic: its coefficient varies along theta by "
                  f"{variation:.3e}; the Lichnerowicz identity check requires a "
                  "product-form profile f = a(theta) c(t)")
        return VerificationReport.skipped("lichnerowicz", LICHNEROWICZ_THRESHOLD, reason, metadata)
    density = LeafVolumeDensity.from_profile(profile)
    require_lichnerowicz_grid(density, grid)
    values, allowance = lichnerowicz_diagonal(density, grid.n_points)
    residual = float(np.max(np.abs(values))) + allowance
    return VerificationReport.from_residual(
        "lichnerowicz", residual, LICHNEROWICZ_THRESHOLD,
        {**metadata, "kappa_theta_variation": variation},
    )


def laplacian_dependence(
    laplacian_1: LaplacianRead,
    laplacian_2: LaplacianRead,
    forms_bound: float,
    window: float,
    metadata: dict,
) -> VerificationReport:
    """Metric dependence of the basic Laplacian against invariance of the squared Dirac.

    Passes only when (a) the windowed function-Laplacian values of the two
    densities differ somewhere by more than the gap threshold plus both
    reads' largest radii, and (b) the squared forms Dirac spectra agree
    within the forms threshold, by 2 (window + WINDOW_EDGE_SLACK) times
    ``forms_bound``, the forms residual that the pair's ``invariance_check``
    recorded, infinite when a window count is not certified.  When (a)
    fails the residual is infinite and the report flags the metrics as
    spectrally indistinguishable for the basic Laplacian.

    The gap pairs the sorted windowed values by index.  What (a) certifies
    (``spectral``): each radius places an eigenvalue of the continuous
    Laplacian near each value, and each value is an upper bound of the
    eigenvalue of its index; that the eigenvalue near a value is the one of
    its index is not certified.
    """
    # Compare the shared low end of both Laplacian spectra: eigenvalue shifts
    # can move a state across the window edge, so a raw count comparison
    # would spuriously report a structural mismatch.
    low_1, low_2 = laplacian_1.values, laplacian_2.values
    shared = min(low_1.size, low_2.size)
    gap = float(np.max(np.abs(low_1[:shared] - low_2[:shared]))) if shared else 0.0
    radii = [laplacian_1.radius, laplacian_2.radius]
    forms_residual = 2.0 * (window + WINDOW_EDGE_SLACK) * forms_bound
    metadata = {
        **metadata,
        "window": window,
        "laplacian_gap": gap,
        "laplacian_gap_threshold": LAPLACIAN_GAP_THRESHOLD,
        "laplacian_order": [laplacian_1.order, laplacian_2.order],
        "laplacian_radius": radii,
        "squared_forms_residual": forms_residual,
    }
    gap_detected = gap - radii[0] - radii[1] > LAPLACIAN_GAP_THRESHOLD
    if not gap_detected:
        metadata["diagnostic"] = (
            "metrics spectrally indistinguishable for the basic Laplacian"
        )
        residual = math.inf
    else:
        residual = forms_residual
        if math.isinf(residual):
            metadata["diagnostic"] = EDGE_DIAGNOSTIC
    return VerificationReport.from_residual(
        "laplacian_dependence", residual, LAPLACIAN_FORMS_THRESHOLD, metadata
    )


def random_profile(rng: np.random.Generator) -> MetricProfile:
    """Seeded random profile: constant 2, one to three terms with |m|, |n| <= 2,
    and total amplitude at most 0.5.

    The amplitude budget guarantees positivity outright, and the small
    frequency range keeps every derived quantity fully resolved on the
    grids used by the property sweeps.
    """
    n_terms = int(rng.integers(1, 4))
    raw = rng.uniform(0.2, 1.0, size=n_terms)
    scale = 0.5 * rng.uniform(0.5, 1.0) / raw.sum()
    terms = []
    for amplitude in raw * scale:
        m, n = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        phases = [float(rng.uniform(0.0, 2.0 * np.pi)) for _ in range(2)]
        terms.append(ProfileTerm(m, n, float(sign * amplitude), *phases))
    return MetricProfile(2.0, tuple(terms))


def random_pair(rng: np.random.Generator) -> tuple[MetricProfile, MetricProfile]:
    """Seeded random metric pair whose basic Laplacians differ by a gap
    certified in closed form.

    Two ``random_profile`` draws lose their m = 0 terms, so both densities
    are the constant 2; one of them, in random order, gains a cos(2t + psi),
    a in [0.01, 0.1] and psi uniform: its density is g = 2 + a cos(2t + psi),
    with g_0 = 2 and |g_2| = a/2.  The total amplitude stays at most 0.6.

    The constant's Laplacian -d^2 has lambda_1 = 1, read to round-off.  For
    v = cos(t + psi/2), g v has no mean, and g v'^2 and g v^2 have the means
    (g_0 - |g_2|) / 2 and (g_0 + |g_2|) / 2, so on span{1, v} the Rayleigh
    quotient <g u', u'> / <g u, u> is at most (2 - a/2) / (2 + a/2).  By
    min-max so is the index-1 value of the battery's Galerkin read, whose
    trial space holds span{1, v} at any order K >= 1 (``spectral``), on
    every grid.  So at any window >= 1 the contrast's gap is at least
    a / (2 + a/2) >= 4.98e-3 up to the read's rounding, about five times
    LAPLACIAN_GAP_THRESHOLD plus both radii.  g's strip width
    acosh(2/a) / 2 >= 1.84 sets its first order K <= W + 15.
    """
    leafwise = [tuple(term for term in random_profile(rng).terms if term.m) for _ in range(2)]
    density = ProfileTerm(0, 2, float(rng.uniform(0.01, 0.1)), 0.0,
                          float(rng.uniform(0.0, 2.0 * np.pi)))
    pair = (MetricProfile(2.0, (*leafwise[0], density)), MetricProfile(2.0, leafwise[1]))
    return pair if rng.uniform() < 0.5 else pair[::-1]


def densities_distinguishable(d1: LeafVolumeDensity, d2: LeafVolumeDensity) -> bool:
    """Whether two leaf-volume densities differ.  No command calls it; the
    benchmark's tracer (``perfbench/tracing.py``) spans it by name."""
    return d1 != d2


def run_pair_checks(pairs: list[tuple[MetricProfile, MetricProfile]], grid: GridSpec,
                    window: float) -> list[VerificationReport]:
    """The full metric-pair battery for each pair in turn: invariance, kappa
    transform, conjugation, and the Laplacian-dependence contrast.

    Refuses a window outside the grid's trusted range, and, given a pair, a
    window below 1, at which each Laplacian read holds only the zero
    eigenvalue, so that every contrast would fail.  Then, per pair, builds
    each profile's density and alpha once, runs the conjugation check on
    them, reads each density's Dirac spectra, and its function Laplacian
    once per distinct density of the call, and passes the rest to the other
    checks; the contrast reads the forms bound of the pair's invariance
    report.
    """
    grid.validate_window(window)
    if pairs and window < 1.0:
        raise ValueError(f"window must be at least 1 for a metric pair, got {window}: below 1 "
                         "each basic Laplacian read holds only the zero eigenvalue, so no "
                         "contrast can tell two metrics apart")
    laplacians, reports = {}, []
    for p1, p2 in pairs:
        d1 = LeafVolumeDensity.from_profile(p1)
        d2 = LeafVolumeDensity.from_profile(p2)
        alpha = basic_volume_ratio(p1, p2, grid)
        metadata = pair_metadata(p1, p2, grid)
        conjugation = conjugation_residual(d1, d2, alpha, grid, metadata)
        invariance = invariance_check(dirac_spectra(d1, grid), dirac_spectra(d2, grid),
                                      window, metadata)
        reports += [invariance, kappa_transform_residual(d1, d2, alpha, grid, metadata), conjugation]
        for d in (d1, d2):
            if d not in laplacians:
                laplacians[d] = function_laplacian(d, window, LAPLACIAN_FORMS_THRESHOLD)
        reports.append(laplacian_dependence(
            laplacians[d1], laplacians[d2], invariance.metadata["forms_residual"], window,
            metadata))
    return reports


def run_profile_checks(profile: MetricProfile, grid: GridSpec) -> list[VerificationReport]:
    """Single-profile identities: the curvature relation, and the Lichnerowicz
    identity, skipped when the mean curvature is not basic.  Both read one
    torus geometry of the profile."""
    geometry = torus_geometry(profile, grid)
    return [
        scal_relation_residual(profile, grid, geometry),
        lichnerowicz_residual(profile, grid, geometry),
    ]
