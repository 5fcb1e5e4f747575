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
import sys
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
    3. Otherwise G doubles, up to CERTIFICATE_GRID_CAP, and step 2 repeats
       with the minimum over every node sampled so far: the G/2 grid's nodes
       are the even nodes of the G grid, so only the other three quarters
       are sampled.  A sample <= 0, or reaching the cap, rejects the
       profile.  ``_kernels.profile_min`` forms the values in blocks of
       theta rows, none larger than _kernels.BLOCK_POINTS = 512 x 512, and
       only the theta = 0 row when no term depends on theta.

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
    min_bound: float = field(init=False, repr=False, compare=False)  # the bound of step 1 or 2

    def __post_init__(self):
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "terms", tuple(self.terms))
        arrays = self.term_arrays()
        # Refused before the certificate samples, each named as in the profile document.
        numbers = (("constant", np.array([self.constant])), ("terms[{}].amp", arrays[2]),
                   ("terms[{}].phase_theta", arrays[3]), ("terms[{}].phase_t", arrays[4]))
        for name, values in numbers:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"malformed profile document: field {name.format(bad[0])!r} "
                                 f"must be finite, got {float(values[bad[0]])!r}")
        if not self.constant > 0.0:
            raise ValueError(f"profile constant must be positive, got {self.constant}")
        object.__setattr__(self, "min_bound", self._certify_positive(*arrays))

    def _certify_positive(self, m, n, amp, ph_theta, ph_t) -> float:
        """Prove f > 0 everywhere as the class docstring describes and return
        the certified lower bound of f, or raise ValueError; the arguments are
        the ``term_arrays``."""
        size = np.abs(amp)
        spread = np.abs(m) + np.abs(n)
        scale = self.constant + float(
            np.sum(size * (1.0 + spread + np.abs(ph_theta) + np.abs(ph_t)))
        )
        allowance = 32.0 * (amp.size + 1) * np.finfo(np.float64).eps * scale
        if (margin := self.constant - float(size.sum())) > allowance:
            return margin - allowance
        lipschitz = float(np.sum(size * spread))
        profile = (self.constant, m, n, amp, ph_theta, ph_t)
        grid_points = VALIDATION_GRID
        minimum = self.min_value(grid_points)
        while True:
            if not minimum > 0.0:
                raise ValueError(
                    f"profile is not a metric: sampled minimum {minimum:.6g} <= 0"
                )
            if (margin := minimum - (math.pi / grid_points) * lipschitz) > allowance:
                return margin - allowance
            grid_points *= 2
            if grid_points > CERTIFICATE_GRID_CAP:
                break
            # The coarser grid's nodes are the even nodes of this one, bit for
            # bit, so only the nodes with an odd theta or t index are new.
            nodes = uniform_nodes(grid_points)
            minimum = min(minimum, _kernels.profile_min(*profile, nodes[1::2], nodes),
                          _kernels.profile_min(*profile, nodes[::2], nodes[1::2]))
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
        """Minimum over the grid_points x grid_points node grid."""
        nodes = uniform_nodes(grid_points)
        return _kernels.profile_min(self.constant, *self.term_arrays(), nodes, nodes)

    def theta_average(self) -> "MetricProfile":
        """Exact theta-average: only m = 0 modes survive.

        For an m = 0 term the average is amp*cos(phase_theta)*cos(n*t + phase_t),
        so the result is again a profile in the same family.
        """
        reduced = [ProfileTerm(0, term.n, amplitude, 0.0, term.phase_t) for term in self.terms
                   if term.m == 0
                   and (amplitude := float(term.amplitude * np.cos(term.phase_theta))) != 0.0]
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
        """Read a profile document; a malformed one raises ValueError naming the field."""
        constant = _read_number(data, "constant")
        raw_terms = data.get("terms", [])
        if not isinstance(raw_terms, list):
            raise ValueError("malformed profile document: field 'terms' must be a list")
        terms = tuple(
            ProfileTerm(
                _read_number(entry, "m", f"terms[{i}].", integral=True),
                _read_number(entry, "n", f"terms[{i}].", integral=True),
                _read_number(entry, "amp", f"terms[{i}]."),
                _read_number(entry, "phase_theta", f"terms[{i}].", 0.0),
                _read_number(entry, "phase_t", f"terms[{i}].", 0.0),
            )
            for i, entry in enumerate(raw_terms)
        )
        return cls(constant, terms)


def _read_number(doc, key: str, where: str = "", default=None, integral: bool = False):
    """doc[key], a JSON number (not a bool) in float range, as a float, or as an int
    when ``integral`` and it has no fractional part (2.0 reads as 2); ``default`` if absent."""
    malformed = "malformed profile document:"
    if not isinstance(doc, dict):
        raise ValueError(f"{malformed} {where.rstrip('.') or 'the document'} is not an object")
    if key not in doc:
        if default is None:
            raise ValueError(f"{malformed} missing field {key!r}")
        return default
    value, name = doc[key], repr(where + key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{malformed} field {name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{malformed} field {name} is out of range")
    if integral and not float(value).is_integer():
        raise ValueError(f"{malformed} field {name} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


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
        """Largest |eigenvalue| trusted for a collocation size of n_points per circle."""
        return self.n_points / 8.0

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

