"""Shared fixtures: reference profiles, Fourier expansions of exponential
metrics, and a writer for profile documents."""

import json

import numpy as np
import pytest
from scipy.special import iv

from foliation_lab import GridSpec, MetricProfile, ProfileTerm


def exp_cos_profile(a: float, k_max: int = 12) -> MetricProfile:
    """Truncated Fourier series of e^{a cos t}: I_0(a) + 2 sum_k I_k(a) cos(k t).

    Bessel coefficients decay superexponentially, so k_max = 12 already
    carries the function to round-off for a <= 1.
    """
    terms = [ProfileTerm(0, k, 2.0 * float(iv(k, a))) for k in range(1, k_max + 1)]
    return MetricProfile(float(iv(0, a)), tuple(terms))


def exp_sin_profile(a: float, k_max: int = 12) -> MetricProfile:
    """Truncated Fourier series of e^{a sin t} = e^{a cos(t - pi/2)}."""
    terms = [
        ProfileTerm(0, k, 2.0 * float(iv(k, a)), 0.0, -k * np.pi / 2.0)
        for k in range(1, k_max + 1)
    ]
    return MetricProfile(float(iv(0, a)), tuple(terms))


def save_profile(profile: MetricProfile, path) -> None:
    """Write a profile as the JSON document that ``load_profile`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture
def grid128() -> GridSpec:
    return GridSpec(128)


@pytest.fixture
def grid64() -> GridSpec:
    return GridSpec(64)


@pytest.fixture
def flat_profile() -> MetricProfile:
    return MetricProfile(1.0)


@pytest.fixture
def cosine_profile() -> MetricProfile:
    """f = 2 + cos t."""
    return MetricProfile(2.0, (ProfileTerm(0, 1, 1.0),))


@pytest.fixture
def mixed_profile() -> MetricProfile:
    """A theta-and-t dependent profile with nonseparable mean curvature."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(0, 1, 0.6),
            ProfileTerm(1, 0, 0.4, 0.3),
            ProfileTerm(1, 1, 0.3, 0.0, 0.5),
        ),
    )


@pytest.fixture
def product_profile() -> MetricProfile:
    """(1 + cos(theta)/2)(2 + cos t): product form, basic mean curvature."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(0, 1, 1.0),
            ProfileTerm(1, 0, 1.0),
            ProfileTerm(1, 1, 0.5),
        ),
    )


@pytest.fixture
def skew_profile() -> MetricProfile:
    """f = 2 + cos(theta + t): mean curvature genuinely depends on theta."""
    return MetricProfile(
        2.0,
        (
            ProfileTerm(1, 1, 1.0),
            ProfileTerm(1, 1, -1.0, np.pi / 2.0, np.pi / 2.0),
        ),
    )
