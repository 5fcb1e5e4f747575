"""Leafwise averaging, the basic projection, and weighted calculus on the t-circle.

Basic (leafwise-constant) objects on the torus flow are functions of t only
and are plain arrays on the t-grid; a basic function and the coefficient of a
basic 1-form share that representation, and the Laplacian takes the degree
(DEGREE_FUNCTION or DEGREE_ONE_FORM) as a separate argument.  The
L^2-orthogonal projection onto basic fields is the leaf-volume-weighted
theta-average; the weight is the metric profile f itself.  The leaf-volume
density is built from the theta-averaged profile's terms, and so are its
exact Fourier coefficients, which the Galerkin Laplacian read takes
(``spectral``).  The basic mean curvature is
``LeafVolumeDensity.mean_curvature_values``.  All quadrature is
uniform trapezoid on the periodic grid, which is exact for band-limited
integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._spectral_diff import fourier_derivative, uniform_nodes
from .model_spaces import GridSpec, MetricProfile, require_resolved

DEGREE_FUNCTION = "function"
DEGREE_ONE_FORM = "one_form"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LeafVolumeDensity:
    """g(t) = (1/2pi) integral of f(theta, t) dtheta on the N-point t-grid,
    a function of the theta-averaged profile and N alone.

    The exact theta-average of a Fourier profile keeps only its m = 0 modes
    (``MetricProfile.theta_average``), so g = c + sum a_i cos(n_i t + phi_i),
    and everything else is computed from those terms: the samples and their
    termwise derivative g_dot; ``t_bandwidth``, the largest |n_i|, which the
    grid must resolve; the exact Fourier ``coefficients``; and ``period``,
    the translation period P = N / gcd(N, n_1, ..., n_k) in grid points (1
    for a constant), g(t_{j+P}) = g(t_j) at every node, along which
    ``spectral.laplacian_spectrum`` reads.  Equal averages on one grid give
    equal, hashable densities.
    """

    average: MetricProfile
    n_points: int

    def __post_init__(self):
        if any(term.m or term.phase_theta for term in self.average.terms):
            raise ValueError("a leaf volume density is built from a theta-averaged profile")
        require_resolved(self.n_points, self.t_bandwidth)
        ts = uniform_nodes(self.n_points)
        g = self.average.sample_t(ts)
        if not (g > 0.0).all():
            raise ValueError("leaf volume density must be strictly positive")
        g_dot = np.zeros_like(g)
        for term in self.average.terms:
            g_dot -= term.amplitude * term.n * np.sin(term.n * ts + term.phase_t)
        object.__setattr__(self, "g_values", g)
        object.__setattr__(self, "g_dot_values", g_dot)

    @classmethod
    def from_profile(cls, profile: MetricProfile, grid: GridSpec) -> "LeafVolumeDensity":
        return cls(profile.theta_average(), grid.n_points)

    @property
    def t_bandwidth(self) -> int:
        return self.average.max_t_frequency()

    @property
    def period(self) -> int:
        return self.n_points // math.gcd(self.n_points, *(term.n for term in self.average.terms))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """g_m for m = -B..B, B = ``t_bandwidth``, read-only: the constant at
        m = 0, and each term a cos(nt + phi) adds (a/2) e^{i phi} at n and its
        conjugate at -n, so an n = 0 term adds a cos(phi) at 0."""
        bandwidth = self.t_bandwidth
        coefficients = np.zeros(2 * bandwidth + 1, complex)
        coefficients[bandwidth] = self.average.constant
        for term in self.average.terms:
            half = 0.5 * term.amplitude * complex(math.cos(term.phase_t), math.sin(term.phase_t))
            coefficients[bandwidth + term.n] += half
            coefficients[bandwidth - term.n] += half.conjugate()
        coefficients.flags.writeable = False
        return coefficients

    def mean_curvature_values(self) -> np.ndarray:
        """Coefficient of the basic mean-curvature 1-form: -g_dot/g."""
        return -self.g_dot_values / self.g_values


def project_basic(field: np.ndarray, f_values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Leaf-volume-weighted theta-average of a (theta, t) field.

    output[k] = sum_j field[j, k] f[j, k] / sum_j f[j, k].  This is the
    discrete L^2-orthogonal projection onto basic fields: it is idempotent
    and self-adjoint for the f-weighted inner product.
    """
    field = np.asarray(field)
    f_values = np.asarray(f_values)
    if field.shape != f_values.shape:
        raise ValueError("field and metric samples must share the grid")
    if field.shape != (grid.n_points, grid.n_points):
        raise ValueError("field shape does not match the grid")
    return (field * f_values).sum(axis=0) / f_values.sum(axis=0)


def dlog(alpha: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Logarithmic derivative d(log alpha) = alpha'/alpha of a positive basic field."""
    alpha = np.asarray(alpha)
    if np.iscomplexobj(alpha) or not (alpha > 0.0).all():
        raise ValueError("dlog requires a strictly positive real field")
    if alpha.size != grid.n_points:
        raise ValueError(f"expected {grid.n_points} samples, got {alpha.size}")
    return fourier_derivative(alpha, order=1) / alpha
