"""Assembly of the weighted discrete operators on basic sections.

All operators act on t-grid vectors and are symmetric with respect to the
weighted inner product whose weights combine the trapezoid rule with the
leaf volume density.  Assembly keeps the symmetry identities exact at the
matrix level: first-order operators u' + (g'/2g) u are built in the
conservative form g^{-1/2} D g^{1/2}, the exact conjugate of the derivative
matrix D, and the codifferential is D's exact weighted adjoint -g^{-1} D g.
Both are ``diagonal_conjugate`` scalings w^{-1} D w of the one cached,
read-only matrix D per (grid, spin structure) of
``_spectral_diff.differentiation_matrix``.  The basic Laplacians of both
degrees are Gram products of T = g^{-1/2} D g^{1/2}: ``gram_spectrum``
reads T's squared singular values from iT (``spectral`` derives the read).

Diagonal scalings, here and in ``WeightedOperator.symmetrized``, multiply
the float64 view of the complex matrix by w and then by a precomputed 1/w.
That is bitwise numpy's complex (M * w) / w with w promoted to complex,
(aw - b0) + (a0 + bw)i and then Smith's (a + b0)(1/w) + (b - a0)(1/w)i,
except that a zero entry may differ in sign.  Scalings by i or -1 and the
symmetrization's sums are done in place with unchanged arithmetic.

Translation symmetry.  The periodic D is circulant, so an operator built
from it and a density of period P grid points (``LeafVolumeDensity.period``)
commutes with the cyclic shift by P rows and columns; the Laplacians are
read along P.  The spinor Dirac matrix records P = 1 on
either spin structure: its symmetrization is i D_s up to round-off, and
D_s, the periodic D or D + i/2, is circulant.  The 2N forms matrix claims
none.  Every matrix read solves the N/P blocks of its projection onto
block-circulant matrices (``block_circulant_projection``) in one stacked
``eigvalsh`` call and gates on the projection's distance; at P = N it is
the dense solve, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._spectral_diff import differentiation_matrix, fourier_derivative
from .basic_calculus import DEGREE_FUNCTION, DEGREE_ONE_FORM, TWO_PI, LeafVolumeDensity
from .model_spaces import GridSpec


@dataclass(frozen=True)
class WeightedOperator:
    """Dense matrix plus the positive weights of its symmetry inner product.

    ``period`` P, a divisor of the matrix size, claims that the matrix
    commutes with the cyclic shift by P rows and columns and the weights
    repeat after P entries; None claims no symmetry (P = the size).  The
    claim is checked, not trusted: ``hermitian_spectrum`` gates on the
    distance it measures from it."""

    matrix: np.ndarray
    weights: np.ndarray
    label: str
    n_points: int
    period: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", np.ascontiguousarray(self.matrix, dtype=np.complex128)
        )
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.matrix.shape != (self.weights.size, self.weights.size):
            raise ValueError("matrix and weights sizes are inconsistent")
        if not (self.weights > 0.0).all():
            raise ValueError("weights must be strictly positive")
        size = self.weights.size
        if self.period is None:
            object.__setattr__(self, "period", size)
        if not (self.period >= 1 and size % self.period == 0):
            raise ValueError(f"period {self.period} does not divide the matrix size {size}")

    def symmetrized(self) -> tuple[np.ndarray, float]:
        """H = (S + S^H)/2 for S = W^{1/2} M W^{-1/2} (exactly Hermitian) and the
        asymmetry ||S - S^H||_F.  S^H is written contiguous, so the sum and the
        difference read rows of both."""
        root = np.sqrt(self.weights)
        scaled = self.matrix.view(np.float64) * root[:, None]
        scaled *= np.repeat(1.0 / root, 2)
        sym = scaled.view(np.complex128)
        adjoint = np.conjugate(sym.T, order="C")
        hermitian = np.add(sym, adjoint)
        hermitian *= 0.5
        sym -= adjoint
        return hermitian, float(np.linalg.norm(sym))

    def hermitian_spectrum(self) -> tuple[np.ndarray, float, float]:
        """Ascending eigenvalues of P, the projection of the ``symmetrized`` H
        along ``period`` (``block_circulant_projection``); the gate ratio (||S - S^H||_F + 2 d) / max|lambda|;
        and d = ||H - P||_F.  With period = N, P = H and d = 0: the dense
        solve.  The numerator bounds the distance of S and S^H from the matrix
        solved, P.  As max|lambda(P)| <= max|lambda(H)| + d, the ratio is never below
        the dense one, ||S - S^H||_F / max|lambda(H)| >= ||S - S^H||_2 /
        ||S||_2 (as ||H||_2 <= ||S||_2), while that is at most 2: the gate
        only gets stricter, and a period H does not have fails it."""
        hermitian, asymmetry = self.symmetrized()
        blocks, distance = block_circulant_projection(hermitian, self.period)
        values = np.sort(np.linalg.eigvalsh(blocks), axis=None)
        scale = max(float(np.max(np.abs(values))), np.finfo(float).tiny)
        return values, (asymmetry + 2.0 * distance) / scale, distance

    def symmetry_residual(self) -> float:
        """Relative deviation of the symmetrized matrix from Hermitian (the gate ratio)."""
        return self.hermitian_spectrum()[1]


def block_circulant_projection(matrix: np.ndarray, period: int) -> tuple[np.ndarray, float]:
    """The blocks C_k, an (N/p, p, p) array, of P(X), the projection of the
    N x N matrix X onto matrices that commute with the cyclic shift by
    ``period`` = p rows and columns, and the distance ||X - P(X)||_F.

    In m x m blocks of size p (m = N/p), P(X) is block circulant: block (a, b)
    is B_{(b - a) mod m} = (1/m) sum_a X_{a, a+r}, the mean over the shifts,
    so P is the Frobenius-orthogonal projection.  The unitary block DFT gives
    P(X) = U diag(C_k) U^H, C_k = sum_r B_r e^{-2 pi i r k / m}: the C_k carry
    the eigenvalues of a Hermitian P(X) and the singular values of any.  At
    p = N, P(X) = X, returned as is: the block is X itself.  Otherwise one
    N x N array holds the gathered X (block row a from block a + r, two
    strided reads, before the block diagonals wrap and after), then
    X - P(X), then the C_k.
    """
    size = matrix.shape[0]
    if period == size:
        return matrix[None], 0.0
    m = size // period
    rolled = np.empty_like(matrix).reshape(m, period, m, period)
    flat, item = matrix.reshape(-1), matrix.itemsize
    shape = (m - 1, period, m, period)
    strides = ((size + 1) * period * item, size * item, period * item, item)
    rolled[:-1] = as_strided(flat, shape, strides)
    rolled[-1, :, 0] = matrix.reshape(m, period, m, period)[-1, :, -1]
    wrapped = np.greater_equal.outer(np.arange(1, m), m - np.arange(m))
    wrapped = np.ascontiguousarray(np.broadcast_to(wrapped[:, None, :, None], shape))
    np.copyto(rolled[1:], as_strided(flat[(size + 1) * period - size :], shape, strides),
              where=wrapped)
    means = np.mean(rolled, axis=0)
    rolled -= means
    distance = float(np.linalg.norm(rolled.view(np.float64)))
    blocks = rolled.reshape(-1)[: size * period].reshape(m, period, period)
    np.fft.fft(means, axis=1, out=blocks.transpose(1, 0, 2))
    return blocks, distance


def gram_spectrum(factor: np.ndarray, period: int) -> tuple[np.ndarray, float, float]:
    """Ascending eigenvalues of the blocks C_k C_k^H of the projection P(M) of
    the N x N ``factor`` M along ``period`` (``block_circulant_projection``);
    the shift ratio d (2 sigma + d) / sigma^2, sigma^2 the largest value; and
    d = ||M - P(M)||_F.  M is not written."""
    blocks, distance = block_circulant_projection(factor, period)
    gram = np.matmul(blocks, np.conjugate(blocks).transpose(0, 2, 1))
    values = np.sort(np.linalg.eigvalsh(gram), axis=None)
    scale = max(float(values[-1]), np.finfo(float).tiny)
    return values, distance * (2.0 * math.sqrt(scale) + distance) / scale, distance


def diagonal_conjugate(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^{-1} M w for diagonal w and a C-contiguous complex M: with w = g^{1/2}
    and M = D, the conservative discretization of u' + (g'/2g) u.

    Scales the float64 view of M by w, then by a precomputed 1/w, which is
    bitwise (M * w[None, :]) / w[:, None] (see the module docstring)."""
    scaled = matrix.view(np.float64) * np.repeat(w, 2)
    scaled *= (1.0 / w)[:, None]
    return scaled.view(np.complex128)


def quadrature_weights(density: LeafVolumeDensity) -> np.ndarray:
    return (TWO_PI / density.n_points) * density.g_values


def dirac_factors(density: LeafVolumeDensity) -> tuple[np.ndarray, np.ndarray]:
    """(w, W): the spinor Dirac operator's factor w = g^{1/2}, of
    i w^{-1} D_s w, and its quadrature weights W, for the assembly here and
    for the O(N) read and conjugation bound, which build no matrix."""
    return np.sqrt(density.g_values), quadrature_weights(density)


def spinor_label(grid: GridSpec) -> str:
    return f"dirac_spinor[{grid.spin_structure},N={grid.n_points}]"


def _check_grid(density: LeafVolumeDensity, grid: GridSpec) -> None:
    if density.n_points != grid.n_points:
        raise ValueError("density and grid sizes differ")


def assemble_basic_dirac_spinor(density: LeafVolumeDensity, grid: GridSpec) -> WeightedOperator:
    """Basic Dirac operator on basic spinors: psi -> i(psi' + (g'/2g) psi).

    Clifford multiplication by the unit transverse coframe is multiplication
    by i.  The trivial spin structure uses periodic sections, the nontrivial
    one antiperiodic sections, written by their periodic parts
    (``_spectral_diff``; half-integer spectrum); either claims period 1
    (module docstring).
    """
    _check_grid(density, grid)
    w, weights = dirac_factors(density)
    matrix = diagonal_conjugate(differentiation_matrix(grid.n_points, grid.spin_structure), w)
    matrix *= 1j
    return WeightedOperator(matrix, weights, spinor_label(grid), grid.n_points, period=1)


def twisted_differential(density: LeafVolumeDensity, grid: GridSpec) -> np.ndarray:
    """Twisted differential on basic functions: u -> (u' - k u / 2) dt, k = -g'/g."""
    _check_grid(density, grid)
    d = differentiation_matrix(grid.n_points, "trivial")
    return diagonal_conjugate(d, np.sqrt(density.g_values))


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
    weights = np.concatenate([quadrature_weights(density)] * 2)
    return WeightedOperator(matrix, weights, forms_label(grid.n_points), grid.n_points)


def codifferential(density: LeafVolumeDensity, grid: GridSpec) -> np.ndarray:
    """Weighted adjoint of the plain differential: v dt -> -(g v)'/g."""
    _check_grid(density, grid)
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = diagonal_conjugate(d, density.g_values)
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
    on 1-form coefficients, as the N^3 product of ``codifferential`` and D,
    claiming the density's period.  No command assembles it: ``spectrum``
    reads its spectrum as ``dirac_spectra``'s Gram read of iT, and the pair
    battery the function Laplacian's by ``function_laplacian`` (``spectral``).
    """
    label = laplacian_label(grid.n_points, degree)
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = codifferential(density, grid)
    matrix = delta @ d if degree == DEGREE_FUNCTION else d @ delta
    return WeightedOperator(matrix, quadrature_weights(density), label, grid.n_points,
                            density.period)


def connection_laplacian_spinor(
    density: LeafVolumeDensity, grid: GridSpec
) -> WeightedOperator:
    """Rough (connection) Laplacian on basic spinors: u -> -u'' - (g'/g) u'.

    Assembled in the same volume-normalized form as the Dirac operator,
    -g^{-1/2} D^2 (g^{1/2} .) plus the exact lower-order correction
    (g'/2g)' + (g'/2g)^2, so that its high-frequency action is consistent
    with the Dirac square and operator-norm comparisons stay meaningful.
    """
    _check_grid(density, grid)
    d_spin = differentiation_matrix(grid.n_points, grid.spin_structure)
    half_log_derivative = density.g_dot_values / (2.0 * density.g_values)
    correction = (
        fourier_derivative(half_log_derivative, order=1) + half_log_derivative**2
    )
    matrix = -diagonal_conjugate(d_spin @ d_spin, np.sqrt(density.g_values)) + np.diag(
        correction.astype(np.complex128)
    )
    return WeightedOperator(
        matrix=matrix,
        weights=quadrature_weights(density),
        label=f"connection_laplacian[{grid.spin_structure},N={grid.n_points}]",
        n_points=grid.n_points,
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

    Rejects grids too coarse to resolve the density bandwidth: quotient
    quantities such as g'/g need several harmonics of the profile resolved,
    so n_points >= 8 * bandwidth is required.
    """
    _check_grid(density, grid)
    if density.t_bandwidth > 0 and grid.n_points < 8 * density.t_bandwidth:
        raise ValueError(
            f"grid too coarse for density bandwidth {density.t_bandwidth}: "
            f"need n_points >= {8 * density.t_bandwidth}, got {grid.n_points}"
        )
    dirac = assemble_basic_dirac_spinor(density, grid)
    lhs = WeightedOperator(
        matrix=dirac.matrix @ dirac.matrix,
        weights=dirac.weights,
        label=f"dirac_spinor_squared[N={grid.n_points}]",
        n_points=grid.n_points,
    )
    connection = connection_laplacian_spinor(density, grid)
    k = density.mean_curvature_values()
    delta_kappa = (codifferential(density, grid) @ k.astype(np.complex128)).real
    potential = 0.25 * k * k - 0.5 * delta_kappa
    rhs = WeightedOperator(
        matrix=connection.matrix + np.diag(potential.astype(np.complex128)),
        weights=connection.weights,
        label=f"lichnerowicz_rhs[N={grid.n_points}]",
        n_points=grid.n_points,
    )
    return lhs, rhs

