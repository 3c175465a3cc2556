"""Seeded BBOB-style test landscapes with known optima.

Ten single-objective noiseless landscapes spanning the five structural
groups of the standard 24-function suite:

- separable: f1 (sphere), f5 (linear slope);
- low or moderate conditioning: f7 (step ellipsoid), f8 (Rosenbrock);
- high conditioning, unimodal: f12 (bent cigar);
- multimodal, adequate global structure: f15 (Rastrigin), f16 (Weierstrass);
- multimodal, weak global structure: f21 (Gallagher 101 peaks), f23
  (Katsuura), f24 (Lunacek bi-Rastrigin).

Instances are deterministic in (function_id, dim, instance_seed). Each draws
its optimum location uniformly in [-4, 4]^d and, for non-separable
landscapes, an orthogonal rotation; the optimum value is always 0, so the
regret of an observation is its raw value. Relative to the reference suite
the input transformation chain is reduced to shift + rotation: the asymmetry
and oscillation warpings and the diagonal conditioning of the input space are
dropped, while coefficients that define a landscape itself (ellipsoid scale
ladders, peak covariances, the Weierstrass series, the Katsuura product) are
kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import substream

__all__ = [
    "DOMAIN_LOWER",
    "DOMAIN_UPPER",
    "FUNCTION_IDS",
    "BenchInstance",
    "to_unit",
    "from_unit",
    "make_instance",
    "evaluate",
    "evaluate_many",
]

DOMAIN_LOWER = -5.0
DOMAIN_UPPER = 5.0
X_OPT_RANGE = 4.0

FUNCTION_IDS = ("f1", "f5", "f7", "f8", "f12", "f15", "f16", "f21", "f23", "f24")

# Landscapes whose definition includes a drawn rotation.
_ROTATED = frozenset({"f7", "f12", "f15", "f16", "f21", "f23", "f24"})

_N_PEAKS = 101          # f21
_PEAK_MAX_CONDITION = 1000.0
_PEAK_WEIGHTS = np.append(10.0, np.linspace(1.1, 9.1, _N_PEAKS - 1))  # the global peak, then the local ones
_WEIERSTRASS_TERMS = 12
_KATSUURA_TERMS = 32
_LUNACEK_MU1 = 2.5


def to_unit(x: np.ndarray) -> np.ndarray:
    """Map points of the search box [-5, 5]^d to the unit cube [0, 1]^d."""
    return (np.asarray(x, dtype=float) - DOMAIN_LOWER) / (DOMAIN_UPPER - DOMAIN_LOWER)


def from_unit(u: np.ndarray) -> np.ndarray:
    """Map points of the unit cube [0, 1]^d to the search box [-5, 5]^d."""
    return DOMAIN_LOWER + np.asarray(u, dtype=float) * (DOMAIN_UPPER - DOMAIN_LOWER)


@dataclass(frozen=True, eq=False)
class BenchInstance:
    """One seeded landscape: shift, rotation (None for f1, f5 and f8) and `aux`.

    `aux` holds only drawn constants (f21's peak centres and scales); fixed ones are computed where they are used.
    """

    function_id: str
    dim: int
    x_opt: np.ndarray
    f_opt: float
    rotation: np.ndarray | None
    aux: dict = field(default_factory=dict)


def make_instance(function_id: str, dim: int, instance_seed: int) -> BenchInstance:
    """Draw a deterministic instance of `function_id` in dimension `dim`; `aux` is empty but for f21's peaks."""
    if function_id not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {function_id!r}; implemented: {', '.join(FUNCTION_IDS)}")
    if dim < 2:
        raise ValueError("dim must be >= 2")

    x_opt = substream(instance_seed, function_id, "xopt").uniform(-X_OPT_RANGE, X_OPT_RANGE, size=dim)

    rotation = None
    if function_id in _ROTATED:
        gauss = substream(instance_seed, function_id, "rotation").standard_normal((dim, dim))
        q, r = np.linalg.qr(gauss)
        rotation = q * np.sign(np.diag(r))  # fix column signs for a unique factor

    aux = _draw_gallagher_peaks(instance_seed, function_id, dim, x_opt, rotation) if function_id == "f21" else {}

    return BenchInstance(
        function_id=function_id,
        dim=dim,
        x_opt=x_opt,
        f_opt=0.0,
        rotation=rotation,
        aux=aux,
    )


def _draw_gallagher_peaks(
    instance_seed: int, function_id: str, dim: int, x_opt: np.ndarray, rotation: np.ndarray
) -> dict:
    rng = substream(instance_seed, function_id, "peaks")
    conditions = np.empty(_N_PEAKS)
    conditions[0] = math.sqrt(_PEAK_MAX_CONDITION)
    conditions[1:] = rng.permutation(_PEAK_MAX_CONDITION ** np.linspace(0.0, 1.0, _N_PEAKS - 1))
    scales = np.empty((_N_PEAKS, dim))
    ladder = np.linspace(-0.5, 0.5, dim)
    for i in range(_N_PEAKS):
        scales[i] = rng.permutation(conditions[i] ** ladder)
    centers = rng.uniform(DOMAIN_LOWER, DOMAIN_UPPER, size=(_N_PEAKS, dim))
    centers[0] = rotation @ x_opt  # the weight-10 global peak sits at the optimum
    return {"peak_centers": centers, "peak_scales": scales}


def evaluate(inst: BenchInstance, x: np.ndarray) -> float:
    """Landscape value at one in-domain point; raises outside [-5, 5]^d."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != inst.dim:
        raise ValueError(f"point of dim {x.size} does not match instance dim {inst.dim}")
    if np.any(x < DOMAIN_LOWER) or np.any(x > DOMAIN_UPPER):
        raise ValueError(f"point outside the domain [{DOMAIN_LOWER}, {DOMAIN_UPPER}]^d")
    return float(evaluate_many(inst, x[None, :])[0])


def evaluate_many(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    """Vectorized landscape values for rows of x; no domain check."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != inst.dim:
        raise ValueError(f"expected an (m, {inst.dim}) matrix, got shape {x.shape}")
    return _EVALUATORS[inst.function_id](inst, x)


def _f1_sphere(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    s = x - inst.x_opt
    return np.sum(s * s, axis=1)


def _f5_linear_slope(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    # Linear descent toward x_opt along each signed coordinate; the slope is
    # hinged at the optimum so values stay nonnegative past it.
    signs = np.where(inst.x_opt >= 0.0, 1.0, -1.0)
    weights = 10.0 ** np.linspace(0.0, 1.0, inst.dim)
    return np.maximum(signs * (inst.x_opt - x), 0.0) @ weights


def _f7_step_ellipsoid(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = (x - inst.x_opt) @ inst.rotation.T
    z1 = np.abs(z[:, 0])
    stepped = np.where(np.abs(z) > 0.5, np.round(z), np.round(10.0 * z) / 10.0)
    ladder = 100.0 ** np.linspace(0.0, 1.0, inst.dim)
    return 0.1 * np.maximum(1e-4 * z1, (stepped * stepped) @ ladder)


def _f8_rosenbrock(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    scale = max(1.0, math.sqrt(inst.dim) / 8.0)
    z = scale * (x - inst.x_opt) + 1.0
    head, tail = z[:, :-1], z[:, 1:]
    return np.sum(100.0 * (head * head - tail) ** 2 + (head - 1.0) ** 2, axis=1)


def _f12_bent_cigar(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = (x - inst.x_opt) @ inst.rotation.T
    return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=1)


def _f15_rastrigin(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = (x - inst.x_opt) @ inst.rotation.T
    return 10.0 * (inst.dim - np.sum(np.cos(2.0 * math.pi * z), axis=1)) + np.sum(z * z, axis=1)


# Value of the per-coordinate Weierstrass series at its minima (integer z).
_WEIER_HALF_POWERS = 0.5 ** np.arange(_WEIERSTRASS_TERMS)
_WEIER_TRIPLE_POWERS = 3.0 ** np.arange(_WEIERSTRASS_TERMS)
_WEIER_F0 = float(np.sum(_WEIER_HALF_POWERS * np.cos(math.pi * _WEIER_TRIPLE_POWERS)))


def _f16_weierstrass(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = (x - inst.x_opt) @ inst.rotation.T
    phase = 2.0 * math.pi * (z[..., None] + 0.5) * _WEIER_TRIPLE_POWERS
    series = np.sum(_WEIER_HALF_POWERS * np.cos(phase), axis=-1)
    return 10.0 * (np.mean(series, axis=1) - _WEIER_F0) ** 3


def _f21_gallagher(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = x @ inst.rotation.T
    centers = inst.aux["peak_centers"]
    scales = inst.aux["peak_scales"]
    best = np.full(x.shape[0], -np.inf)
    fac = -0.5 / inst.dim
    for i in range(_N_PEAKS):
        diff = z - centers[i]
        quad = (diff * diff) @ scales[i]
        np.maximum(best, _PEAK_WEIGHTS[i] * np.exp(fac * quad), out=best)
    return (10.0 - best) ** 2


_KATSUURA_TWO_POWERS = 2.0 ** np.arange(1, _KATSUURA_TERMS + 1)


def _f23_katsuura(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    z = (x - inst.x_opt) @ inst.rotation.T
    scaled = z[..., None] * _KATSUURA_TWO_POWERS
    wavy = np.sum(np.abs(scaled - np.round(scaled)) / _KATSUURA_TWO_POWERS, axis=-1)
    factors = 1.0 + np.arange(1, inst.dim + 1) * wavy
    exponent = 10.0 / inst.dim ** 1.2
    lead = 10.0 / inst.dim**2
    return lead * (np.prod(factors, axis=1) ** exponent - 1.0)


def _f24_lunacek(inst: BenchInstance, x: np.ndarray) -> np.ndarray:
    d = inst.dim
    s = 1.0 - 0.5 / (math.sqrt(d + 20.0) - 4.1)
    mu1 = _LUNACEK_MU1
    mu2 = -math.sqrt((mu1 * mu1 - 1.0) / s)
    shifted = x - inst.x_opt
    sphere = np.sum(shifted * shifted, axis=1)
    decoy = d + s * np.sum((shifted + (mu1 - mu2)) ** 2, axis=1)
    z = shifted @ inst.rotation.T
    rastrigin = 10.0 * (d - np.sum(np.cos(2.0 * math.pi * z), axis=1))
    return np.minimum(sphere, decoy) + rastrigin


_EVALUATORS = {
    "f1": _f1_sphere,
    "f5": _f5_linear_slope,
    "f7": _f7_step_ellipsoid,
    "f8": _f8_rosenbrock,
    "f12": _f12_bent_cigar,
    "f15": _f15_rastrigin,
    "f16": _f16_weierstrass,
    "f21": _f21_gallagher,
    "f23": _f23_katsuura,
    "f24": _f24_lunacek,
}
