"""Fourier-collocation differentiation on uniform periodic grids.

All routines work on the uniform grid t_j = 2*pi*j/N of an even number of
points.  Derivatives are exact for band-limited inputs whose frequencies
are strictly below N/2.

The differentiation matrix assigns the unpaired extreme frequency to +N/2
(rather than the fft default -N/2).  With that choice i*D has the simple
eigenvalue lattice {-N/2, ..., N/2 - 1}, one eigenvalue per integer, which
is the convention used throughout the operator assembly.  The functional
derivative of sampled real fields, ``fourier_derivative``, uses real FFTs
and zeroes the extreme mode instead (the standard real-signal convention
for odd derivative orders); the two agree on all resolved frequencies.

There is one cached, read-only differentiation matrix per (grid size, spin
structure); the operator assembly derives every first-order operator and
the codifferential from it by diagonal scaling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Matrices kept: both spin structures on the few grid sizes a run uses.
_CACHED_MATRICES = 8


def uniform_nodes(n_points: int) -> np.ndarray:
    """The grid t_j = 2*pi*j/N, j = 0, ..., N-1."""
    return 2.0 * np.pi * np.arange(n_points) / n_points


def wavenumbers(n_points: int) -> np.ndarray:
    """Integer frequency lattice {-N/2+1, ..., N/2} in fft ordering."""
    k = np.fft.fftfreq(n_points, d=1.0 / n_points)
    k[n_points // 2] = n_points // 2
    return k


def fourier_derivative(values: np.ndarray, order: int = 1, axis: int = -1) -> np.ndarray:
    """Spectral derivative of real, periodically sampled values along an axis.

    One real FFT pair: rfft, multiplication by (i k)^order for k = 0, ..., N/2,
    irfft back to N points.  For odd orders the extreme mode k = N/2 is
    annihilated; for even orders it carries the factor (-1)^(order/2)*(N/2)^order.
    Complex input or an odd number of samples along the axis raises ValueError.
    """
    values = np.asarray(values)
    n = values.shape[axis]
    if np.iscomplexobj(values):
        raise ValueError("fourier_derivative takes real samples, got a complex array")
    if n % 2 != 0:
        raise ValueError(f"fourier_derivative needs an even number of samples, got {n}")
    k = np.arange(n // 2 + 1, dtype=np.float64)
    if order % 2 == 1:
        k[n // 2] = 0.0
    factor = (1j * k) ** order
    shape = [1] * values.ndim
    shape[axis] = k.size
    hat = np.fft.rfft(values, axis=axis) * factor.reshape(shape)
    return np.fft.irfft(hat, n=n, axis=axis)


@lru_cache(maxsize=_CACHED_MATRICES)
def differentiation_matrix(n_points: int, spin_structure: str = "trivial") -> np.ndarray:
    """Read-only first-derivative matrix on sections of the chosen spin structure.

    Trivial structure: periodic sections, D = F^-1 diag(i k) F.  Nontrivial
    structure: antiperiodic sections psi = e^{i t/2} phi with phi periodic,
    giving the conjugated matrix E (D + i/2) E^-1 on sampled values of psi.
    Callers pass both arguments positionally, so each grid has one cache key.
    """
    if spin_structure == "trivial":
        k = wavenumbers(n_points)
        eye_hat = np.fft.fft(np.eye(n_points), axis=0)
        matrix = np.fft.ifft((1j * k)[:, None] * eye_hat, axis=0)
    elif spin_structure == "nontrivial":
        half_phase = np.exp(0.5j * uniform_nodes(n_points))
        shifted = differentiation_matrix(n_points, "trivial") + 0.5j * np.eye(n_points)
        matrix = half_phase[:, None] * shifted * np.conj(half_phase)[None, :]
    else:
        raise ValueError(f"unknown spin structure: {spin_structure!r}")
    matrix.flags.writeable = False
    return matrix
