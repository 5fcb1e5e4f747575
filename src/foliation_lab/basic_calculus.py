"""Leafwise averaging, the basic projection, and weighted calculus on the t-circle.

Basic (leafwise-constant) objects on the torus flow are functions of t only
and are plain arrays on the t-grid; a basic function and the coefficient of a
basic 1-form share that representation, and the Laplacian takes the degree
(DEGREE_FUNCTION or DEGREE_ONE_FORM) as a separate argument.  The
L^2-orthogonal projection onto basic fields is the leaf-volume-weighted
theta-average; the weight is the metric profile f itself.  The basic mean
curvature is ``LeafVolumeDensity.mean_curvature_values``.  All quadrature is
uniform trapezoid on the periodic grid, which is exact for band-limited
integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral_diff import fourier_derivative
from .model_spaces import GridSpec, MetricProfile, require_resolved

DEGREE_FUNCTION = "function"
DEGREE_ONE_FORM = "one_form"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LeafVolumeDensity:
    """g(t) = (1/2pi) integral of f(theta, t) dtheta on the t-grid.

    The exact theta-average of a Fourier profile keeps only its m = 0 modes,
    so g is again a trigonometric polynomial; its derivative g_dot is stored
    termwise-exactly alongside the values.  t_bandwidth records the largest
    |n| present; a density whose bandwidth the grid aliases is refused.
    """

    g_values: np.ndarray
    g_dot_values: np.ndarray
    t_bandwidth: int = 0

    def __post_init__(self):
        object.__setattr__(self, "g_values", np.asarray(self.g_values, dtype=np.float64))
        object.__setattr__(
            self, "g_dot_values", np.asarray(self.g_dot_values, dtype=np.float64)
        )
        if not (self.g_values > 0.0).all():
            raise ValueError("leaf volume density must be strictly positive")
        if self.g_values.shape != self.g_dot_values.shape:
            raise ValueError("density and derivative grids differ")
        require_resolved(self.n_points, self.t_bandwidth)

    @property
    def n_points(self) -> int:
        return self.g_values.size

    @classmethod
    def from_profile(cls, profile: MetricProfile, grid: GridSpec) -> "LeafVolumeDensity":
        reduced = profile.theta_average()
        ts = grid.t_nodes
        g = reduced.sample_t(ts)
        g_dot = np.zeros_like(g)
        for term in reduced.terms:
            g_dot -= term.amplitude * term.n * np.sin(term.n * ts + term.phase_t)
        return cls(g, g_dot, t_bandwidth=reduced.max_t_frequency())

    @classmethod
    def from_values(cls, g_values: np.ndarray) -> "LeafVolumeDensity":
        """Density given directly by samples; g_dot falls back to the spectral derivative."""
        g_values = np.asarray(g_values, dtype=np.float64)
        g_dot = fourier_derivative(g_values, order=1)
        return cls(g_values, g_dot, t_bandwidth=g_values.size // 2 - 1)

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


def weighted_inner_product(a: np.ndarray, b: np.ndarray, density: LeafVolumeDensity) -> complex:
    """Trapezoid-rule inner product (2pi/N) sum conj(a) b g on the t-circle."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size or a.size != density.n_points:
        raise ValueError("fields and density must share the t-grid")
    return complex((TWO_PI / density.n_points) * np.sum(np.conj(a) * b * density.g_values))
