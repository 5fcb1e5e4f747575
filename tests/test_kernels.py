"""The grid-evaluation kernels against a direct broadcast evaluation."""

import numpy as np
import pytest

from foliation_lab import _kernels


def _term_data(n_terms):
    rng = np.random.default_rng(5150)
    return (
        rng.integers(-3, 4, n_terms).astype(np.float64),
        rng.integers(-3, 4, n_terms).astype(np.float64),
        rng.uniform(0.01, 0.2, n_terms),
        rng.uniform(0.0, 2 * np.pi, n_terms),
        rng.uniform(0.0, 2 * np.pi, n_terms),
    )


def _oracle(constant, m, n, amp, phase_theta, phase_t, thetas, ts):
    """constant + sum_i amp_i cos(m_i*theta + ph_i) cos(n_i*t + qh_i), term by term."""
    theta = thetas[None, :, None]
    t = ts[None, None, :]
    terms = (
        amp[:, None, None]
        * np.cos(m[:, None, None] * theta + phase_theta[:, None, None])
        * np.cos(n[:, None, None] * t + phase_t[:, None, None])
    )
    return constant + terms.sum(axis=0)


def _nodes(size):
    return 2 * np.pi * np.arange(size) / size


@pytest.mark.parametrize(
    "n_terms, thetas, ts",
    [
        (6, _nodes(96), _nodes(96)),
        (0, _nodes(32), _nodes(32)),
        (6, np.zeros(1), _nodes(64)),
        (6, _nodes(40), _nodes(72)),
    ],
    ids=["square", "constant-profile", "one-theta-point", "non-square"],
)
def test_kernels_match_broadcast_oracle(n_terms, thetas, ts):
    args = (2.0, *_term_data(n_terms), thetas, ts)
    expected = _oracle(*args)
    values = _kernels.sample_profile(*args)
    assert values.shape == (thetas.size, ts.size)
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-14)
    assert _kernels.profile_min(*args) == pytest.approx(expected.min(), rel=0, abs=1e-14)


@pytest.mark.parametrize("block_points", [1, 7 * 72 + 3, 40 * 72])
def test_profile_min_blocks_cover_every_theta_row(monkeypatch, block_points):
    """Blocks of one row, of seven rows with a remainder, and of the whole grid."""
    args = (2.0, *_term_data(6), _nodes(40), _nodes(72))
    expected = _kernels.sample_profile(*args).min()
    monkeypatch.setattr(_kernels, "BLOCK_POINTS", block_points)
    assert _kernels.profile_min(*args) == pytest.approx(expected, rel=0, abs=1e-14)
