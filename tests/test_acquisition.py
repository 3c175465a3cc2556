from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from afsched.acquisition import AcquisitionKind, scores

EI = AcquisitionKind.EI
PI = AcquisitionKind.PI


def _score(kind: AcquisitionKind, delta: float, sigma: float) -> float:
    """One acquisition value at improvement margin delta: y_min = 0 and mean = -delta."""
    return float(scores(kind, np.array([-delta]), np.array([sigma]), 0.0)[0])


def ei(delta: float, sigma: float) -> float:
    return _score(EI, delta, sigma)


def pi(delta: float, sigma: float) -> float:
    return _score(PI, delta, sigma)


def cdf(z: float) -> float:
    """The standard normal CDF as PI computes it: Phi(z) is PI at margin z and sigma 1."""
    return pi(z, 1.0)


def test_cdf_at_zero_is_half() -> None:
    assert cdf(0.0) == 0.5


def test_cdf_matches_quadrature_of_the_density() -> None:
    """Independent oracle: numerically integrate the density up to z."""

    def density(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    for z in (-3.0, -1.2, -0.3, 0.4, 1.959964, 2.8):
        expected, _ = quad(density, -np.inf, z)
        assert abs(cdf(z) - expected) < 1e-8


def test_cdf_hits_975_quantile() -> None:
    assert abs(cdf(1.959964) - 0.975) < 1e-6


def test_cdf_reflection_identity() -> None:
    for z in (0.1, 0.5, 1.3, 2.7, 4.0):
        assert abs(cdf(-z) - (1.0 - cdf(z))) < 1e-12


def test_pi_symmetric_case() -> None:
    assert pi(delta=0.0, sigma=1.0) == 0.5


def test_pi_matches_monte_carlo_tail_probability() -> None:
    """Oracle: estimate P(Y < y_min) with Y ~ N(mu, sigma^2) by sampling."""
    rng = np.random.default_rng(2024)
    for delta, sigma, tol in ((1.0, 0.5, 3e-4), (-3.0, 1.0, 3e-4)):
        # With y_min = 0 the improvement margin delta fixes mu = -delta.
        samples = rng.normal(-delta, sigma, size=10_000_000)
        estimate = float(np.mean(samples < 0.0))
        assert abs(pi(delta, sigma) - estimate) < tol


def test_pi_zero_sigma_limit_convention() -> None:
    assert pi(delta=2.0, sigma=0.0) == 1.0
    assert pi(delta=-2.0, sigma=0.0) == 0.0
    assert pi(delta=0.0, sigma=0.0) == 0.0


def test_ei_zero_sigma_branch_is_exactly_zero() -> None:
    for delta in (-5.0, -0.1, 0.0, 0.1, 5.0):
        assert ei(delta=delta, sigma=0.0) == 0.0


def test_ei_at_zero_margin_is_sigma_times_density_peak() -> None:
    # delta = 0 leaves only sigma * pdf(0) = 1 / sqrt(2 pi).
    assert abs(ei(delta=0.0, sigma=1.0) - 0.3989422804014327) < 1e-12


def test_ei_matches_monte_carlo_expected_improvement() -> None:
    """Oracle: E[max(y_min - Y, 0)] with Y ~ N(mu, sigma^2) by sampling."""
    rng = np.random.default_rng(77)
    samples = rng.normal(-1.0, 1.0, size=10_000_000)
    estimate = float(np.mean(np.maximum(-samples, 0.0)))
    value = ei(delta=1.0, sigma=1.0)
    assert abs(value - estimate) < 1e-3
    assert abs(value - 1.0833154705876863) < 1e-5


def test_evaluate_dispatches_and_respects_zero_sigma() -> None:
    assert scores(EI, np.array([1.0]), np.array([0.0]), y_min=5.0)[0] == 0.0
    assert scores(PI, np.array([3.0]), np.array([0.7]), y_min=3.0)[0] == 0.5
    with pytest.raises(ValueError):
        scores(EI, np.array([0.0]), np.array([-1e-9]), y_min=0.0)
    with pytest.raises(ValueError, match="unknown acquisition kind: 'ei'"):
        scores("ei", np.array([0.0]), np.array([1.0]), y_min=0.0)  # the kind's value, not the kind


def test_ei_nonnegative_over_random_posteriors() -> None:
    rng = np.random.default_rng(5)
    for _ in range(1000):
        mean, std = rng.normal(scale=10.0), abs(rng.normal(scale=3.0))
        assert scores(EI, np.array([mean]), np.array([std]), y_min=rng.normal())[0] >= 0.0


def test_pi_bounds_and_monotonicity_in_delta() -> None:
    rng = np.random.default_rng(11)
    for _ in range(200):
        sigma = rng.uniform(1e-3, 10.0)
        # Keep delta/sigma within a few units so Phi stays strictly inside (0, 1).
        d1, d2 = sorted(sigma * rng.uniform(-7.0, 7.0, size=2))
        p1, p2 = pi(d1, sigma), pi(d2, sigma)
        assert 0.0 < p1 < 1.0 and 0.0 < p2 < 1.0
        if d1 < d2:
            assert p1 < p2


def test_ei_monotone_in_sigma_and_delta() -> None:
    rng = np.random.default_rng(12)
    for _ in range(200):
        delta = rng.normal(scale=2.0)
        s1, s2 = sorted(rng.uniform(0.05, 5.0, size=2))
        if s1 < s2:
            assert ei(delta, s1) < ei(delta, s2)
        sigma = rng.uniform(0.05, 5.0)
        d1, d2 = sorted(rng.normal(scale=2.0, size=2))
        if d1 < d2:
            assert ei(d1, sigma) < ei(d2, sigma)


def test_ei_dominates_delta_times_pi() -> None:
    rng = np.random.default_rng(13)
    for _ in range(500):
        delta = rng.normal(scale=3.0)
        sigma = rng.uniform(1e-3, 5.0)
        assert ei(delta, sigma) >= delta * pi(delta, sigma)


def test_scale_equivariance() -> None:
    rng = np.random.default_rng(14)
    for _ in range(100):
        delta = rng.normal()
        sigma = rng.uniform(0.1, 2.0)
        for c in (0.5, 2.0, 3.7):
            assert abs(ei(c * delta, c * sigma) - c * ei(delta, sigma)) < 1e-12
            assert abs(pi(c * delta, c * sigma) - pi(delta, sigma)) < 1e-12


def test_scores_match_closed_form() -> None:
    """Oracle: EI and PI written out with scipy's normal CDF and density."""
    rng = np.random.default_rng(15)
    means = rng.normal(size=50)
    stds = np.abs(rng.normal(size=50))
    stds[::7] = 0.0
    positive = stds > 0.0
    for y_min in rng.normal(size=4):
        delta = y_min - means
        z = np.divide(delta, stds, out=np.zeros_like(delta), where=positive)
        expected = {
            EI: np.where(positive, delta * norm.cdf(z) + stds * norm.pdf(z), 0.0),
            PI: np.where(positive, norm.cdf(z), (delta > 0.0).astype(float)),
        }
        for kind in AcquisitionKind:
            np.testing.assert_allclose(scores(kind, means, stds, y_min), expected[kind], rtol=0.0, atol=1e-15)
