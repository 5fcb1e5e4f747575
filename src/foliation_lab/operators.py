"""Assembly of the weighted discrete operators on basic sections.

All operators act on t-grid vectors and are symmetric with respect to the
weighted inner product whose weights combine the trapezoid rule with the
leaf volume density.  Assembly follows two rules that keep the symmetry
identities exact at the matrix level rather than merely to discretization
accuracy:

* first-order operators of the form u' + (g'/2g) u are built in the
  volume-normalized (conservative) form g^{-1/2} D g^{1/2}, which is the
  exact discrete conjugate of the plain derivative matrix D;
* the codifferential is the exact matrix adjoint of the discrete
  differential under the weighted inner product, -g^{-1} D g, never an
  independently discretized expression.

Both are ``diagonal_conjugate`` scalings w^{-1} D w of the one cached,
read-only Fourier matrix D per (grid, spin structure) from
``_spectral_diff.differentiation_matrix``.

Diagonal scalings, here and in ``WeightedOperator.symmetrized``, act
on the float64 view of the complex matrix: the real and imaginary parts of
each entry are multiplied by w and then by a precomputed 1/w.  That is the
arithmetic numpy does for the complex forms M * w and M / w with a real w
promoted to complex: a product (a + bi)(w + 0i) is (aw - b0) + (a0 + bw)i,
and a quotient by w + 0i in Smith's form is (a + b0)(1/w) + (b - a0)(1/w)i.
Adding the zero products changes no nonzero value, so every scaled entry
is bitwise the complex result, except that a zero entry may differ in sign.
The view skips the zero products and the complex division.  Scalings by i
or -1 and the symmetrization's sums are done in place, with the same
arithmetic as the expressions they replace.

Every N x N result can be written to caller-owned arrays instead of new
ones: ``diagonal_conjugate``, ``assemble_basic_dirac_spinor`` and
``codifferential`` take one ``out`` array, ``assemble_basic_laplacian`` two
(delta, then delta @ D or D @ delta), and ``WeightedOperator.symmetrized``
and ``hermitian_spectrum`` three (S, conj(S), H); a blocked solve reuses the
S and conj(S) arrays once the asymmetry norm is taken.  S may be written
over the operator's own matrix, which then ends the operator.  Each step
runs the same ufunc on the same operands with or without ``out``, so the
bits are the same; without it numpy allocates, as for ``out=None``.

Translation symmetry.  The periodic D is circulant, so an operator built
from it and a density of period P grid points (``LeafVolumeDensity.period``)
commutes with the cyclic shift by P rows and columns; the Laplacians of both
degrees record P as ``WeightedOperator.period``.  The spinor Dirac matrix
records P = 1 for every density and either spin structure: the density
cancels from its symmetrization, which is i D_s up to round-off, and D_s,
the periodic D or D + i/2 (``differentiation_matrix``), is circulant.  The
2N forms matrix claims none.  With P < N, ``hermitian_spectrum`` solves the
block-circulant projection P of H as N/P Hermitian P x P blocks
(``block_circulant_spectrum``) and adds 2 ||H - P||_F to the gate's
numerator; with P = N it is the dense solve, bit for bit.  ``spectral``
derives what a P = 1 read certifies about the spectrum of H.
"""

from __future__ import annotations

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

    def symmetrized(self, out=None) -> tuple[np.ndarray, float]:
        """H = (S + S^H)/2 for S = W^{1/2} M W^{-1/2} (exactly Hermitian) and the
        asymmetry ||S - S^H||_F.  ``out``, three N x N complex arrays, receives
        S, conj(S) and H (overwritten, returned as H); without it each is a new
        array, and only H stays alive."""
        s_out, adjoint_out, hermitian_out = (None,) * 3 if out is None else out
        root = np.sqrt(self.weights)
        scaled = np.multiply(self.matrix.view(np.float64), root[:, None], out=_real_view(s_out))
        scaled *= np.repeat(1.0 / root, 2)
        sym = scaled.view(np.complex128)
        adjoint = np.conjugate(sym, out=adjoint_out).T
        hermitian = np.add(sym, adjoint, out=hermitian_out)
        hermitian *= 0.5
        sym -= adjoint
        return hermitian, float(np.linalg.norm(sym))

    def hermitian_spectrum(self, out=None) -> tuple[np.ndarray, float, float]:
        """Ascending eigenvalues of the ``symmetrized`` H, or, when ``period`` < N,
        of its block-circulant projection P (``block_circulant_spectrum``
        writes into the S and conj(S) arrays of ``out``); the gate ratio

            (||S - S^H||_F + 2 d) / max|lambda|,   d = ||H - P||_F;

        and d.  With period = N, P = H and d = 0: the dense solve.  The
        numerator bounds the distance of S and S^H from the matrix solved,
        P.  As max|lambda(P)| <= max|lambda(H)| + d, the ratio is never below
        the dense one, ||S - S^H||_F / max|lambda(H)| >= ||S - S^H||_2 /
        ||S||_2 (as ||H||_2 <= ||S||_2), while that is at most 2: the gate
        only gets stricter, and a period H does not have fails it."""
        hermitian, asymmetry = self.symmetrized(out=out)
        if self.period == hermitian.shape[0]:
            values, distance = np.linalg.eigvalsh(hermitian), 0.0
        else:
            spare = None if out is None else out[:2]
            values, distance = block_circulant_spectrum(hermitian, self.period, out=spare)
        scale = max(float(np.max(np.abs(values))), np.finfo(float).tiny)
        return values, (asymmetry + 2.0 * distance) / scale, distance

    def symmetry_residual(self) -> float:
        """Relative deviation of the symmetrized matrix from Hermitian (the gate ratio)."""
        return self.hermitian_spectrum()[1]


def block_circulant_spectrum(
    hermitian: np.ndarray, period: int, out=None
) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of P(H), the projection of the Hermitian N x N
    matrix H onto matrices that commute with the cyclic shift by ``period`` = p
    rows and columns, and the distance ||H - P(H)||_F.

    Seen as m x m blocks of size p (m = N/p), such a matrix is block circulant:
    block (a, b) is B_{(b - a) mod m}.  P(H) averages H along its block
    diagonals, B_r = (1/m) sum_a H_{a, a+r}, the average over the shifts, so
    it is the Frobenius-orthogonal projection and is Hermitian.  Its spectrum
    is the union over k of the spectra of the Hermitian p x p blocks
    C_k = sum_r B_r e^{-2 pi i r k / m}, solved in one stacked ``eigvalsh``
    call; by Weyl, the k-th eigenvalues of H and P(H) differ by at most
    ||H - P(H)||_2 <= ||H - P(H)||_F.

    ``out``, two N x N complex arrays, holds the work: the first the gathered
    H, block row a rolled left by a blocks, then H - P(H) in that layout; the
    second the B_r and the C_k, N p entries each (p <= N/2).  Without it both
    are new arrays.  The gather is two strided reads of H, block row a from
    block a + r, before the block diagonals wrap (a + r < m) and after.
    """
    size = hermitian.shape[0]
    m = size // period
    gather_out, spare_out = (None, None) if out is None else out
    rolled = np.empty_like(hermitian) if gather_out is None else gather_out
    rolled = rolled.reshape(m, period, m, period)
    flat, item = hermitian.reshape(-1), hermitian.itemsize
    shape = (m - 1, period, m, period)
    strides = ((size + 1) * period * item, size * item, period * item, item)
    rolled[:-1] = as_strided(flat, shape, strides)
    rolled[-1, :, 0] = hermitian.reshape(m, period, m, period)[-1, :, -1]
    wrapped = np.greater_equal.outer(np.arange(1, m), m - np.arange(m))
    wrapped = np.ascontiguousarray(np.broadcast_to(wrapped[:, None, :, None], shape))
    np.copyto(rolled[1:], as_strided(flat[(size + 1) * period - size :], shape, strides),
              where=wrapped)
    spare = np.empty(2 * size * period, np.complex128) if spare_out is None else spare_out
    spare = spare.reshape(-1)[: 2 * size * period]
    means_out, circulant_out = spare.reshape(2, period, m, period)
    means = np.mean(rolled, axis=0, out=means_out)
    rolled -= means
    distance = float(np.linalg.norm(rolled.view(np.float64)))
    circulant = np.fft.fft(means, axis=1, out=circulant_out)
    values = np.linalg.eigvalsh(circulant.transpose(1, 0, 2))
    return np.sort(values, axis=None), distance


def _real_view(out: np.ndarray | None) -> np.ndarray | None:
    """The float64 view of a complex ``out`` array; None stays None."""
    return None if out is None else out.view(np.float64)


def diagonal_conjugate(matrix: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """w^{-1} M w for diagonal w and a C-contiguous complex M, written to ``out``
    (a C-contiguous complex array of M's shape) or to a new array: with
    w = g^{1/2} and M = D, the conservative discretization of u' + (g'/2g) u.

    Scales the float64 view of M by w, then by a precomputed 1/w, which is
    bitwise (M * w[None, :]) / w[:, None] (see the module docstring)."""
    scaled = np.multiply(matrix.view(np.float64), np.repeat(w, 2), out=_real_view(out))
    scaled *= (1.0 / w)[:, None]
    return scaled.view(np.complex128)


def quadrature_weights(density: LeafVolumeDensity) -> np.ndarray:
    return (TWO_PI / density.n_points) * density.g_values


def _check_grid(density: LeafVolumeDensity, grid: GridSpec) -> None:
    if density.n_points != grid.n_points:
        raise ValueError("density and grid sizes differ")


def assemble_basic_dirac_spinor(
    density: LeafVolumeDensity, grid: GridSpec, out=None
) -> WeightedOperator:
    """Basic Dirac operator on basic spinors: psi -> i(psi' + (g'/2g) psi).

    Clifford multiplication by the unit transverse coframe is multiplication
    by i.  The trivial spin structure uses periodic sections, the nontrivial
    one antiperiodic sections, written by their periodic parts
    (``_spectral_diff``; half-integer spectrum); either claims period 1
    (module docstring).  The matrix is written to ``out`` when it is given
    (see ``diagonal_conjugate``).
    """
    _check_grid(density, grid)
    d_spin = differentiation_matrix(grid.n_points, grid.spin_structure)
    matrix = diagonal_conjugate(d_spin, np.sqrt(density.g_values), out=out)
    matrix *= 1j
    return WeightedOperator(
        matrix=matrix,
        weights=quadrature_weights(density),
        label=f"dirac_spinor[{grid.spin_structure},N={grid.n_points}]",
        n_points=grid.n_points,
        period=1,
    )


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
    n = grid.n_points
    d_tw = twisted_differential(density, grid)
    matrix = np.block([[np.zeros_like(d_tw), -d_tw], [d_tw, np.zeros_like(d_tw)]])
    weights = np.concatenate([quadrature_weights(density)] * 2)
    return WeightedOperator(
        matrix=matrix,
        weights=weights,
        label=forms_label(n),
        n_points=n,
    )


def codifferential(density: LeafVolumeDensity, grid: GridSpec, out=None) -> np.ndarray:
    """Weighted adjoint of the plain differential: v dt -> -(g v)'/g, written to
    ``out`` when it is given (see ``diagonal_conjugate``)."""
    _check_grid(density, grid)
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = diagonal_conjugate(d, density.g_values, out=out)
    return np.negative(delta, out=delta)


def assemble_basic_laplacian(
    density: LeafVolumeDensity, grid: GridSpec, degree: str = DEGREE_FUNCTION, out=None
) -> WeightedOperator:
    """Basic Laplacian: delta d on functions, d delta on 1-form coefficients.

    On functions this is u -> -u'' - (g'/g) u'.  Unlike the Dirac spectrum,
    its eigenvalues depend on the choice of density.  ``out``, two N x N
    complex arrays, receives the codifferential and the product.
    """
    _check_grid(density, grid)
    delta_out, product_out = (None, None) if out is None else out
    d = differentiation_matrix(grid.n_points, "trivial")
    delta = codifferential(density, grid, out=delta_out)
    if degree == DEGREE_FUNCTION:
        matrix = np.matmul(delta, d, out=product_out)
    elif degree == DEGREE_ONE_FORM:
        matrix = np.matmul(d, delta, out=product_out)
    else:
        raise ValueError(
            f"degree must be {DEGREE_FUNCTION!r} or {DEGREE_ONE_FORM!r}, got {degree!r}"
        )
    return WeightedOperator(
        matrix=matrix,
        weights=quadrature_weights(density),
        label=f"laplacian_{degree}[N={grid.n_points}]",
        n_points=grid.n_points,
        period=density.period,
    )


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

