"""Leafwise averaging, the basic projection, and weighted calculus on the t-circle.

Basic (leafwise-constant) objects on the torus flow are functions of t only
and are stored on the t-grid.  The L^2-orthogonal projection onto them is
the leaf-volume-weighted theta-average; the weight is the metric profile f
itself.  All quadrature is uniform trapezoid on the periodic grid, which is
exact for band-limited integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral_diff import fourier_derivative
from .model_spaces import GridSpec, MetricProfile

DEGREE_FUNCTION = "function"
DEGREE_ONE_FORM = "one_form"
_DEGREES = (DEGREE_FUNCTION, DEGREE_ONE_FORM)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BasicField:
    """Values of a basic function or basic 1-form coefficient on the t-grid."""

    values: np.ndarray
    degree: str = DEGREE_FUNCTION

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.ndim != 1:
            raise ValueError("basic fields are one-dimensional t-grid arrays")
        if self.degree not in _DEGREES:
            raise ValueError(f"degree must be one of {_DEGREES}, got {self.degree!r}")

    def __len__(self) -> int:
        return self.values.size


def _values_of(field) -> np.ndarray:
    if isinstance(field, BasicField):
        return field.values
    return np.asarray(field)


@dataclass(frozen=True)
class LeafVolumeDensity:
    """g(t) = (1/2pi) integral of f(theta, t) dtheta on the t-grid.

    The exact theta-average of a Fourier profile keeps only its m = 0 modes,
    so g is again a trigonometric polynomial; its derivative g_dot is stored
    termwise-exactly alongside the values.  t_bandwidth records the largest
    |n| present, for grid-resolution checks.
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


def project_basic(
    field: np.ndarray,
    f_values: np.ndarray,
    grid: GridSpec,
    degree: str = DEGREE_FUNCTION,
) -> BasicField:
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
    numerator = (field * f_values).sum(axis=0)
    return BasicField(numerator / f_values.sum(axis=0), degree=degree)


def basic_mean_curvature(profile: MetricProfile, grid: GridSpec) -> BasicField:
    """Basic component of the mean curvature: k(t) = -g_dot(t)/g(t)."""
    density = LeafVolumeDensity.from_profile(profile, grid)
    return BasicField(density.mean_curvature_values(), degree=DEGREE_ONE_FORM)


def periodic_derivative(values, grid: GridSpec) -> np.ndarray:
    """Fourier-collocation derivative on the t-circle.

    Exact for band-limited inputs with frequency < n_points/2.
    """
    values = _values_of(values)
    if values.size != grid.n_points:
        raise ValueError(
            f"expected {grid.n_points} samples, got {values.size}"
        )
    return fourier_derivative(values, order=1)


def dlog(alpha, grid: GridSpec | None = None) -> BasicField:
    """Logarithmic derivative d(log alpha) = alpha'/alpha of a positive basic field."""
    values = _values_of(alpha)
    if np.iscomplexobj(values) or not (values > 0.0).all():
        raise ValueError("dlog requires a strictly positive real field")
    if grid is not None and values.size != grid.n_points:
        raise ValueError(f"expected {grid.n_points} samples, got {values.size}")
    derivative = fourier_derivative(values, order=1)
    return BasicField(derivative / values, degree=DEGREE_ONE_FORM)


def weighted_inner_product(a, b, density: LeafVolumeDensity) -> complex:
    """Trapezoid-rule inner product (2pi/N) sum conj(a) b g on the t-circle."""
    a_values = _values_of(a)
    b_values = _values_of(b)
    if a_values.size != b_values.size or a_values.size != density.n_points:
        raise ValueError("fields and density must share the t-grid")
    return complex(
        (TWO_PI / density.n_points)
        * np.sum(np.conj(a_values) * b_values * density.g_values)
    )
