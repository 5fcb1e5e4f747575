"""Exact Dirac spectra of the Berger spheres S^3_T: SU(2) with the
left-invariant metric that scales the Hopf fibre by T, a test-side oracle
with no grid.

Take the frame e_i = X_i / a_i, a = (1, 1, T), of left-invariant fields with
[X_1, X_2] = 2 X_3 (cyclic); at T = 1 this is the unit round 3-sphere.  By
Peter-Weyl, spinors split into blocks V_n (x) C^2, n >= 0, where V_n is the
spin-n/2 representation rho_n, each block of multiplicity n + 1.  X_i acts on
V_n as -2i rho_n(J_i), with J_i the Hermitian spin matrices ([J_1, J_2] =
i J_3), Clifford multiplication by e_i is i sigma_i, and the Levi-Civita
connection of the left-invariant metric adds the constant 1/T + T/2:

    D_n(T) = sum_i a_i^{-1} (-2i rho_n(J_i)) (x) (i sigma_i) + (1/T + T/2) I,

a Hermitian 2(n + 1) x 2(n + 1) matrix.
"""

from __future__ import annotations

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_1, J_2, J_3 of rho_n on the basis of J_3-weights n/2, n/2 - 1, ..., -n/2."""
    j = n / 2.0
    weights = j - np.arange(n + 1)
    # J_+ raises the weight m of basis vector k to m + 1, basis vector k - 1
    raising = np.diag(np.sqrt(j * (j + 1.0) - weights[1:] * (weights[1:] + 1.0)), k=1)
    lowering = raising.T
    return (raising + lowering) / 2.0, (raising - lowering) / 2.0j, np.diag(weights).astype(complex)


def dirac_block(n: int, t: float) -> np.ndarray:
    """D_n(T), the Dirac operator of S^3_T on V_n (x) C^2."""
    scales = (1.0, 1.0, t)
    block = sum(
        np.kron(-2.0j * spin, 1.0j * pauli) / scale
        for spin, pauli, scale in zip(spin_matrices(n), PAULI, scales)
    )
    return block + (1.0 / t + t / 2.0) * np.eye(2 * (n + 1))


def dirac_spectrum(t: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the blocks n <= n_max, ascending, with their multiplicities."""
    values, multiplicities = [], []
    for n in range(n_max + 1):
        block_values = np.linalg.eigvalsh(dirac_block(n, t))
        values.append(block_values)
        multiplicities.append(np.full(block_values.size, n + 1))
    values, multiplicities = np.concatenate(values), np.concatenate(multiplicities)
    order = np.argsort(values, kind="stable")
    return values[order], multiplicities[order]
