"""Assembly of the weighted discrete operators on basic sections.

All operators act on t-grid vectors and are symmetric with respect to the
weighted inner product whose weights combine the trapezoid rule with the
leaf volume density.  Assembly keeps the symmetry identities exact at the
matrix level: first-order operators u' + (g'/2g) u are built in the
conservative form g^{-1/2} D g^{1/2}, the exact conjugate of the derivative
matrix D, and the codifferential is D's exact weighted adjoint -g^{-1} D g.
Both are ``diagonal_conjugate`` scalings w^{-1} D w of the one cached,
read-only matrix D per (grid, spin structure) of
``_spectral_diff.differentiation_matrix``.

No command assembles these matrices: ``spectral`` reads the Dirac spectra
from the O(N) weight data and the Laplacians' from the density's Fourier
coefficients, and ``verify.lichnerowicz_residual`` reads lhs - rhs as its
diagonal.  They are the tests' oracles, and the benchmark's tracer spans them.

Diagonal scalings multiply the float64 view of the complex matrix by w and
then by a precomputed 1/w.  That is bitwise numpy's complex (M * w) / w
with w promoted to complex, (aw - b0) + (a0 + bw)i and then Smith's
(a + b0)(1/w) + (b - a0)(1/w)i, except that a zero entry may differ in
sign.  Scalings by i or -1 are done in place with unchanged arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral_diff import differentiation_matrix, fourier_derivative
from .basic_calculus import DEGREE_FUNCTION, DEGREE_ONE_FORM, TWO_PI, LeafVolumeDensity
from .model_spaces import GridSpec


@dataclass(frozen=True)
class WeightedOperator:
    """Dense matrix plus the positive weights of its symmetry inner product."""

    matrix: np.ndarray
    weights: np.ndarray
    label: str
    n_points: int

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", np.ascontiguousarray(self.matrix, dtype=np.complex128)
        )
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.matrix.shape != (self.weights.size, self.weights.size):
            raise ValueError("matrix and weights sizes are inconsistent")
        if not (self.weights > 0.0).all():
            raise ValueError("weights must be strictly positive")

    def symmetrized(self) -> tuple[np.ndarray, float]:
        """H = (S + S^H)/2 for S = W^{1/2} M W^{-1/2} (exactly Hermitian) and the
        asymmetry ||S - S^H||_F."""
        root = np.sqrt(self.weights)
        sym = (root[:, None] * self.matrix) / root[None, :]
        adjoint = sym.conj().T
        return 0.5 * (sym + adjoint), float(np.linalg.norm(sym - adjoint))

    def hermitian_spectrum(self) -> tuple[np.ndarray, float]:
        """Ascending eigenvalues of the ``symmetrized`` H by one dense
        ``eigvalsh``, and the gate ratio ||S - S^H||_F / max|lambda|, which is
        at least ||S - S^H||_2 / ||S||_2 (as ||H||_2 <= ||S||_2)."""
        hermitian, asymmetry = self.symmetrized()
        values = np.linalg.eigvalsh(hermitian)
        return values, asymmetry / max(float(np.max(np.abs(values))), np.finfo(float).tiny)

    def symmetry_residual(self) -> float:
        """Relative deviation of the symmetrized matrix from Hermitian (the gate ratio)."""
        return self.hermitian_spectrum()[1]


def diagonal_conjugate(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^{-1} M w for diagonal w and a C-contiguous complex M: with w = g^{1/2}
    and M = D, the conservative discretization of u' + (g'/2g) u.

    Scales the float64 view of M by w, then by a precomputed 1/w, which is
    bitwise (M * w[None, :]) / w[:, None] (see the module docstring)."""
    scaled = matrix.view(np.float64) * np.repeat(w, 2)
    scaled *= (1.0 / w)[:, None]
    return scaled.view(np.complex128)


def quadrature_weights(density: LeafVolumeDensity, n_points: int) -> np.ndarray:
    return (TWO_PI / n_points) * density.samples(n_points)[0]


def dirac_factors(density: LeafVolumeDensity, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, W) on ``n_points`` nodes: the spinor Dirac operator's factor w = g^{1/2},
    of i w^{-1} D_s w, and its quadrature weights W, for the assembly here and
    for the O(N) read and conjugation bound, which build no matrix."""
    return np.sqrt(density.samples(n_points)[0]), quadrature_weights(density, n_points)


def spinor_label(grid: GridSpec) -> str:
    return f"dirac_spinor[{grid.spin_structure},N={grid.n_points}]"


def assemble_basic_dirac_spinor(density: LeafVolumeDensity, grid: GridSpec) -> WeightedOperator:
    """Basic Dirac operator on basic spinors: psi -> i(psi' + (g'/2g) psi).

    Clifford multiplication by the unit transverse coframe is multiplication
    by i.  The trivial spin structure uses periodic sections, the nontrivial
    one antiperiodic sections, written by their periodic parts
    (``_spectral_diff``; half-integer spectrum).
    """
    w, weights = dirac_factors(density, grid.n_points)
    matrix = diagonal_conjugate(differentiation_matrix(grid.n_points, grid.spin_structure), w)
    matrix *= 1j
    return WeightedOperator(matrix, weights, spinor_label(grid), grid.n_points)


def twisted_differential(density: LeafVolumeDensity, grid: GridSpec) -> np.ndarray:
    """Twisted differential on basic functions: u -> (u' - k u / 2) dt, k = -g'/g."""
    d = differentiation_matrix(grid.n_points, "trivial")
    return diagonal_conjugate(d, np.sqrt(density.samples(grid.n_points)[0]))


def forms_label(n_points: int) -> str:
    return f"dirac_forms[N={n_points}]"


def assemble_basic_dirac_forms(
    density: LeafVolumeDensity, grid: GridSpec
) -> WeightedOperator:
    """Basic Dirac operator on basic forms (u, v) ~ u + v dt.

    Acts as (u, v) -> (-v' + k v/2, u' - k u/2) with k = -g'/g: the twisted
    differential in the lower-left block and its exact weighted adjoint in
    the upper-right.  On the codimension-one transversal the adjoint equals
    minus the twisted differential.  ``spectral.dirac_spectra`` reads its
    spectrum +-spec(iT) from the trivial spinor matrix; this 2N assembly is
    its test oracle.
    """
    d_tw = twisted_differential(density, grid)
    matrix = np.block([[np.zeros_like(d_tw), -d_tw], [d_tw, np.zeros_like(d_tw)]])
    weights = np.concatenate([quadrature_weights(density, grid.n_points)] * 2)
    return WeightedOperator(matrix, weights, forms_label(grid.n_points), grid.n_points)


def codifferential(density: LeafVolumeDensity, grid: GridSpec) -> np.ndarray:
    """Weighted adjoint of the plain differential: v dt -> -(g v)'/g."""
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = diagonal_conjugate(d, density.samples(grid.n_points)[0])
    return np.negative(delta, out=delta)


def laplacian_label(n_points: int, degree: str = DEGREE_FUNCTION) -> str:
    if degree not in (DEGREE_FUNCTION, DEGREE_ONE_FORM):
        raise ValueError(
            f"degree must be {DEGREE_FUNCTION!r} or {DEGREE_ONE_FORM!r}, got {degree!r}"
        )
    return f"laplacian_{degree}[N={n_points}]"


def assemble_basic_laplacian(
    density: LeafVolumeDensity, grid: GridSpec, degree: str = DEGREE_FUNCTION
) -> WeightedOperator:
    """Basic Laplacian: delta d on functions, u -> -u'' - (g'/g) u', and d delta
    on 1-form coefficients, as the N^3 product of ``codifferential`` and D.
    No command assembles it: ``spectrum`` and the pair battery read its
    spectrum by ``spectral.function_laplacian``.
    """
    label = laplacian_label(grid.n_points, degree)
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = codifferential(density, grid)
    matrix = delta @ d if degree == DEGREE_FUNCTION else d @ delta
    weights = quadrature_weights(density, grid.n_points)
    return WeightedOperator(matrix, weights, label, grid.n_points)


def connection_laplacian_spinor(
    density: LeafVolumeDensity, grid: GridSpec
) -> WeightedOperator:
    """Rough (connection) Laplacian on basic spinors: u -> -u'' - (g'/g) u'.

    Assembled in the same volume-normalized form as the Dirac operator,
    -g^{-1/2} D^2 (g^{1/2} .) plus the exact lower-order correction
    (g'/2g)' + (g'/2g)^2, so that its high-frequency action is consistent
    with the Dirac square and operator-norm comparisons stay meaningful.
    """
    g, g_dot = density.samples(grid.n_points)
    d_spin = differentiation_matrix(grid.n_points, grid.spin_structure)
    half_log_derivative = g_dot / (2.0 * g)
    correction = (
        fourier_derivative(half_log_derivative, order=1) + half_log_derivative**2
    )
    matrix = -diagonal_conjugate(d_spin @ d_spin, np.sqrt(g)) + np.diag(
        correction.astype(np.complex128)
    )
    return WeightedOperator(
        matrix=matrix,
        weights=quadrature_weights(density, grid.n_points),
        label=f"connection_laplacian[{grid.spin_structure},N={grid.n_points}]",
        n_points=grid.n_points,
    )


def require_lichnerowicz_grid(density: LeafVolumeDensity, grid: GridSpec) -> None:
    """Refuse a grid too coarse for the Lichnerowicz check: quotient
    quantities such as g'/g need several harmonics of the profile resolved,
    so n_points >= 8 * bandwidth is required."""
    if density.t_bandwidth > 0 and grid.n_points < 8 * density.t_bandwidth:
        raise ValueError(
            f"grid too coarse for density bandwidth {density.t_bandwidth}: "
            f"need n_points >= {8 * density.t_bandwidth}, got {grid.n_points}"
        )


def assemble_lichnerowicz_sides(
    density: LeafVolumeDensity, grid: GridSpec
) -> tuple[WeightedOperator, WeightedOperator]:
    """Both sides of the transversal Lichnerowicz identity for the squared Dirac.

    lhs: square of the spinor Dirac matrix.
    rhs: connection Laplacian plus the scalar potential k^2/4 - (delta kappa)/2,
    where k = -g'/g is the (basic) mean-curvature coefficient, the transversal
    scalar curvature vanishes on this family, and delta kappa is computed by
    applying the exact weighted codifferential to k.

    Rejects grids too coarse to resolve the density bandwidth
    (``require_lichnerowicz_grid``).  It is the test oracle of
    ``verify.lichnerowicz_residual``.
    """
    require_lichnerowicz_grid(density, grid)
    dirac = assemble_basic_dirac_spinor(density, grid)
    lhs = WeightedOperator(
        matrix=dirac.matrix @ dirac.matrix,
        weights=dirac.weights,
        label=f"dirac_spinor_squared[N={grid.n_points}]",
        n_points=grid.n_points,
    )
    connection = connection_laplacian_spinor(density, grid)
    k = density.mean_curvature_values(grid.n_points)
    delta_kappa = (codifferential(density, grid) @ k.astype(np.complex128)).real
    potential = 0.25 * k * k - 0.5 * delta_kappa
    rhs = WeightedOperator(
        matrix=connection.matrix + np.diag(potential.astype(np.complex128)),
        weights=connection.weights,
        label=f"lichnerowicz_rhs[N={grid.n_points}]",
        n_points=grid.n_points,
    )
    return lhs, rhs

