"""Grid evaluation of truncated double Fourier metric profiles.

A profile constant + sum_i amp_i cos(m_i*theta + ph_i) cos(n_i*t + qh_i) is
a sum of rank-one outer products, so its values on a product grid are one
matrix product of the scaled theta factors with the t factors.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's provenance line; there is a single numpy kernel.
USING_NUMBA = False

# Largest theta-block x t array of values ``profile_min`` holds at once (2 MB).
BLOCK_POINTS = 512 * 512


def _factors(constant, m, n, amp, phase_theta, phase_t, thetas, ts):
    """The scaled theta factors (K + 1, thetas) and the t factors (K + 1, ts)."""
    # The constant is a leading (0, 0) mode, summed inside the product in the
    # order of a term-by-term accumulation onto it.  Adding it after the
    # product instead moves verification residuals by up to 2e-12.
    m, n, phase_theta, phase_t = (np.append(0.0, x) for x in (m, n, phase_theta, phase_t))
    amp = np.append(float(constant), amp)
    cols = amp[:, None] * np.cos(np.outer(m, thetas) + phase_theta[:, None])
    rows = np.cos(np.outer(n, ts) + phase_t[:, None])
    return cols, rows


def sample_profile(constant, m, n, amp, phase_theta, phase_t, thetas, ts):
    """Evaluate constant + sum_i amp_i cos(m_i*theta + ph_i) cos(n_i*t + qh_i)."""
    cols, rows = _factors(constant, m, n, amp, phase_theta, phase_t, thetas, ts)
    return cols.T @ rows


def profile_min(constant, m, n, amp, phase_theta, phase_t, thetas, ts):
    """Minimum of the profile over the product grid thetas x ts, forming only
    the first theta row when no term depends on theta (0 * theta = 0).

    The t factors are built once; the values are formed in blocks of theta
    rows, none larger than BLOCK_POINTS.
    """
    thetas = thetas if np.any(m) else thetas[:1]
    cols, rows = _factors(constant, m, n, amp, phase_theta, phase_t, thetas, ts)
    step = max(1, BLOCK_POINTS // rows.shape[1])
    return min(
        float((cols[:, start:start + step].T @ rows).min())
        for start in range(0, cols.shape[1], step)
    )
