"""Closed-form geometry of the two model flow families.

Torus family: the flow along (1/f) d/dtheta on (S^1 x S^1, f^2 dtheta^2 + dt^2)
for a strictly positive truncated double Fourier profile f(theta, t).

Sphere family: the one-parameter isometry flows on the unit round 3-sphere
generated by (z, w) -> (e^{i r t} z, e^{i t} w), whose pointwise curvature
data depend on the point only through s = |z|^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._spectral_diff import fourier_derivative, uniform_nodes

VALIDATION_GRID = 512

# Finest grid the positivity certificate refines to before it refuses a profile.
CERTIFICATE_GRID_CAP = 4096

SPIN_STRUCTURES = ("trivial", "nontrivial")

# Scalar curvature of the unit round 3-sphere.
S3_SCALAR_CURVATURE = 6.0


@dataclass(frozen=True)
class ProfileTerm:
    """One product mode amp * cos(m*theta + phase_theta) * cos(n*t + phase_t)."""

    m: int
    n: int
    amplitude: float
    phase_theta: float = 0.0
    phase_t: float = 0.0


@dataclass(frozen=True)
class MetricProfile:
    """Strictly positive doubly 2*pi-periodic function f(theta, t).

    Positivity is certified at construction.  With A = sum|amp_i| and
    L = sum|amp_i|(|m_i| + |n_i|), which bounds |f_theta| + |f_t|:

    1. f >= constant - A everywhere, so constant - A > e accepts outright,
       without sampling.
    2. Otherwise f is sampled on the G x G grid, G = VALIDATION_GRID.  Every
       point lies within h/2 = pi/G of a node in each angle, so the true
       minimum is at least (sampled minimum) - e - (h/2) L; the profile is
       accepted when the sampled minimum minus (h/2) L exceeds e.
    3. Otherwise G doubles, up to CERTIFICATE_GRID_CAP, and step 2 repeats.
       A sample <= 0, or reaching the cap, rejects the profile.  Grids finer
       than VALIDATION_GRID are evaluated in blocks of theta rows, none
       larger than the VALIDATION_GRID x VALIDATION_GRID array.

    The allowance e bounds the round-off of a computed sample.  With unit
    round-off u = eps/2 and K terms: a node 2*pi*j/G is off by less than 19u,
    so a computed cos(m*x + ph) is off by at most u(1 + 38|m| + 2|ph|)
    (argument error, then the rounded product, sum and cosine); a term's two
    products add 2u of its amplitude; and summing the K + 1 terms (the
    constant included) adds at most 1.01(K + 1)u times their magnitudes.
    So a sample is off by less than 39.01(K + 1)u S, with
    S = constant + sum|amp_i|(1 + |m_i| + |n_i| + |ph_i| + |qh_i|), and
    e = 32(K + 1) eps S leaves room for the rounding of the bound itself.
    """

    constant: float
    terms: tuple[ProfileTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.constant > 0.0:
            raise ValueError(f"profile constant must be positive, got {self.constant}")
        self._certify_positive()

    def _certify_positive(self) -> None:
        """Prove f > 0 everywhere as the class docstring describes, or raise ValueError."""
        m, n, amp, ph_theta, ph_t = self.term_arrays()
        size = np.abs(amp)
        spread = np.abs(m) + np.abs(n)
        scale = self.constant + float(
            np.sum(size * (1.0 + spread + np.abs(ph_theta) + np.abs(ph_t)))
        )
        allowance = 32.0 * (amp.size + 1) * np.finfo(np.float64).eps * scale
        if self.constant - float(size.sum()) > allowance:
            return
        lipschitz = float(np.sum(size * spread))
        grid_points = VALIDATION_GRID
        while grid_points <= CERTIFICATE_GRID_CAP:
            minimum = self.min_value(grid_points)
            if not minimum > 0.0:
                raise ValueError(
                    f"profile is not a metric: sampled minimum {minimum:.6g} <= 0"
                )
            if minimum - (math.pi / grid_points) * lipschitz > allowance:
                return
            grid_points *= 2
        raise ValueError(
            "profile is not a metric: positivity is not certified on a "
            f"{CERTIFICATE_GRID_CAP}^2 grid (sampled minimum {minimum:.6g}, "
            f"cell bound {(math.pi / CERTIFICATE_GRID_CAP) * lipschitz:.6g})"
        )

    def term_arrays(self):
        m = np.array([term.m for term in self.terms], dtype=np.float64)
        n = np.array([term.n for term in self.terms], dtype=np.float64)
        amp = np.array([term.amplitude for term in self.terms], dtype=np.float64)
        ph_theta = np.array([term.phase_theta for term in self.terms], dtype=np.float64)
        ph_t = np.array([term.phase_t for term in self.terms], dtype=np.float64)
        return m, n, amp, ph_theta, ph_t

    def sample(self, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Values f(theta_j, t_k) on the product of the two node sets."""
        return _kernels.sample_profile(self.constant, *self.term_arrays(), thetas, ts)

    def sample_t(self, ts: np.ndarray) -> np.ndarray:
        """Values along t at theta = 0 (used for theta-independent profiles)."""
        return self.sample(np.zeros(1), ts)[0]

    def min_value(self, grid_points: int = VALIDATION_GRID) -> float:
        """Minimum over the grid_points x grid_points node grid, evaluated in
        theta-row blocks of at most VALIDATION_GRID^2 points."""
        nodes = uniform_nodes(grid_points)
        rows = max(1, VALIDATION_GRID * VALIDATION_GRID // grid_points)
        arrays = self.term_arrays()
        return min(
            _kernels.profile_min(self.constant, *arrays, nodes[start:start + rows], nodes)
            for start in range(0, grid_points, rows)
        )

    def theta_average(self) -> "MetricProfile":
        """Exact theta-average: only m = 0 modes survive.

        For an m = 0 term the average is amp*cos(phase_theta)*cos(n*t + phase_t),
        so the result is again a profile in the same family.
        """
        reduced = [
            ProfileTerm(0, term.n, term.amplitude * np.cos(term.phase_theta), 0.0, term.phase_t)
            for term in self.terms
            if term.m == 0 and term.amplitude * np.cos(term.phase_theta) != 0.0
        ]
        return MetricProfile(self.constant, tuple(reduced))

    def max_t_frequency(self) -> int:
        return max((abs(term.n) for term in self.terms), default=0)

    def max_theta_frequency(self) -> int:
        return max((abs(term.m) for term in self.terms), default=0)

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "terms": [
                {
                    "m": term.m,
                    "n": term.n,
                    "amp": term.amplitude,
                    "phase_theta": term.phase_theta,
                    "phase_t": term.phase_t,
                }
                for term in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricProfile":
        try:
            constant = data["constant"]
            raw_terms = data.get("terms", [])
            terms = tuple(
                ProfileTerm(
                    int(entry["m"]),
                    int(entry["n"]),
                    float(entry["amp"]),
                    float(entry.get("phase_theta", 0.0)),
                    float(entry.get("phase_t", 0.0)),
                )
                for entry in raw_terms
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile document: missing field {exc}") from exc
        return cls(constant, terms)


def load_profile(path) -> MetricProfile:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return MetricProfile.from_dict(data)


def require_resolved(n_points: int, frequency: int, axis: str = "t") -> None:
    """Refuse a frequency that n_points samples per circle alias: 2*|frequency| < n_points."""
    if not 2 * abs(frequency) < n_points:
        raise ValueError(
            f"{axis}-frequency {frequency} is not resolved on {n_points} points per circle: "
            f"need 2*|frequency| < {n_points}"
        )


def trust_window_for(n_points: int) -> float:
    """Largest |eigenvalue| trusted for a collocation size of n_points per circle."""
    return n_points / 8.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform product grid size per circle plus the spinor boundary condition."""

    n_points: int
    spin_structure: str = "trivial"

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError(
                f"n_points must be even and >= 8, got {self.n_points}"
            )
        if self.spin_structure not in SPIN_STRUCTURES:
            raise ValueError(
                f"spin_structure must be one of {SPIN_STRUCTURES}, got {self.spin_structure!r}"
            )

    @property
    def t_nodes(self) -> np.ndarray:
        return uniform_nodes(self.n_points)

    @property
    def trust_window(self) -> float:
        return trust_window_for(self.n_points)

    def validate_window(self, window: float) -> None:
        """Refuse an eigenvalue window outside 0 < window <= n_points/8, NaN included."""
        if not window > 0.0:
            raise ValueError(f"window must be positive, got {window}")
        if window > self.trust_window:
            raise ValueError(
                f"window {window} exceeds the trusted range n_points/8 = {self.trust_window}"
            )


def torus_metric_sample(profile: MetricProfile, grid: GridSpec) -> np.ndarray:
    """Sample f on the grid, rejecting unresolved frequencies and non-metric
    (nonpositive) values."""
    require_resolved(grid.n_points, profile.max_theta_frequency(), "theta")
    require_resolved(grid.n_points, profile.max_t_frequency())
    values = profile.sample(grid.t_nodes, grid.t_nodes)
    minimum = values.min()
    if not minimum > 0.0:
        raise ValueError(
            f"profile is not a metric on this grid: sampled minimum {minimum:.6g} <= 0"
        )
    return values


@dataclass(frozen=True)
class TorusGeometry:
    """Pointwise curvature data of the torus flow on the (theta, t) grid."""

    kappa_coeff: np.ndarray
    scal_m: np.ndarray


def torus_geometry(profile: MetricProfile, grid: GridSpec) -> TorusGeometry:
    """Mean-curvature coefficient -f_t/f and scalar curvature -2 f_tt/f.

    Both t-derivatives are spectral and exact for profiles whose t-bandwidth
    is below n_points/2.
    """
    f = torus_metric_sample(profile, grid)
    f_t = fourier_derivative(f, order=1, axis=1)
    f_tt = fourier_derivative(f, order=2, axis=1)
    return TorusGeometry(kappa_coeff=-f_t / f, scal_m=-2.0 * f_tt / f)


def s3_denominator(r: float, s) -> np.ndarray:
    """r^2 |z|^2 + |w|^2 expressed through s = |z|^2, a float or float array."""
    return r * r * s + (1.0 - s)


def s3_transverse_scal(r: float, s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    return 2.0 + 6.0 * r * r / s3_denominator(r, s)


def s3_kappa_norm(r: float, s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    return np.abs(1.0 - r * r) * np.sqrt(s * (1.0 - s)) / s3_denominator(r, s)


def s3_a_norm_sq(r: float, s) -> np.ndarray:
    """Squared O'Neill-tensor norm: both transverse frame directions contribute (r/denominator)^2."""
    s = np.asarray(s, dtype=np.float64)
    return 2.0 * (r / s3_denominator(r, s)) ** 2

