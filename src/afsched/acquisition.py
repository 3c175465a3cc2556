"""Closed-form EI and PI acquisition values over a Gaussian posterior.

Both criteria are expressed through the improvement margin
``delta = y_min - mu(x)`` and the predictive standard deviation ``sigma(x)``
(minimization convention):

    PI = Phi(delta / sigma)
    EI = delta * Phi(delta / sigma) + sigma * phi(delta / sigma)

with the degenerate branches EI = 0 and PI = 1{delta > 0} when sigma = 0.
All values are computed in the original output units of the objective.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import erf

__all__ = ["AcquisitionKind", "scores"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class AcquisitionKind(Enum):
    EI = "ei"
    PI = "pi"


def _std_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array, erf-based."""
    return 0.5 * (1.0 + erf(z / _SQRT2))


def scores(kind: AcquisitionKind, means: np.ndarray, stds: np.ndarray, y_min: float) -> np.ndarray:
    """Acquisition values for a batch of posterior (mean, std) pairs."""
    delta = y_min - np.asarray(means, dtype=float)
    sigma = np.asarray(stds, dtype=float)
    if (sigma < 0.0).any():
        raise ValueError("stds must be nonnegative")
    positive = sigma > 0.0
    z = np.divide(delta, sigma, out=np.zeros(delta.shape), where=positive)
    if kind is AcquisitionKind.EI:
        value = delta * _std_normal_cdf(z)
        value += sigma * (_INV_SQRT_2PI * np.exp(-0.5 * z * z))
        # The expectation is nonnegative; clip roundoff from the two-term form.
        return np.where(positive, np.maximum(value, 0.0), 0.0)
    if kind is AcquisitionKind.PI:
        return np.where(positive, _std_normal_cdf(z), (delta > 0.0).astype(float))
    raise ValueError(f"unknown acquisition kind: {kind!r}")
