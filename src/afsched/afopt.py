"""Initial designs and inner-loop maximization of the acquisition function.

Both work in the unit cube [0, 1]^d; mapping to the search box of the
benchmark landscapes is the caller's job. The inner loop is gradient-free and
deterministic given its seed: score a batch of uniform random candidates, then
refine the best few with a shrinking coordinate pattern search.
"""

from __future__ import annotations

import numpy as np

from .acquisition import AcquisitionKind, scores
from .gp import GpModel, predict_batch

__all__ = ["initial_design", "maximize_af"]

N_CANDIDATES = 1024
N_REFINE_STARTS = 5
_STEP_START = 0.1      # fraction of each dimension's range
_STEP_STOP = 1e-4
_MAX_SWEEPS = 500


def initial_design(n_points: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube sample of n_points points in the unit cube [0, 1]^dim.

    Each coordinate places exactly one point in each of n_points equal-width
    strata. The draw depends only on (rng seed, dim, n_points); callers that
    must share a design (e.g. across schedules) pass generators with equal
    seeds.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    unit = np.empty((n_points, dim))
    for j in range(dim):
        unit[:, j] = (rng.permutation(n_points) + rng.random(n_points)) / n_points
    return unit


def maximize_af(kind: AcquisitionKind, model: GpModel, y_min: float, rng: np.random.Generator) -> np.ndarray:
    """Approximate argmax of the acquisition function over the unit cube.

    Two stages: score N_CANDIDATES uniform random points, then run a shrinking
    coordinate pattern search (step 0.1 down to 1e-4) from the top
    N_REFINE_STARTS candidates. Ties prefer the lowest candidate index. The
    returned point is always inside [0, 1]^model.dim and never scores below
    the best raw candidate.
    """
    d = model.dim

    def af(points: np.ndarray) -> np.ndarray:
        means, stds = predict_batch(model, points)
        return scores(kind, means, stds, y_min)

    cands = rng.random((N_CANDIDATES, d))
    vals = af(cands)

    # Stable sort: equal scores keep candidate order, so a flat surface
    # degrades to returning the first candidate.
    order = np.argsort(-vals, kind="stable")
    starts = order[:N_REFINE_STARTS]

    xs, vs = _pattern_search(af, cands[starts], vals[starts], d)
    best = 0
    for i in range(1, len(starts)):
        if vs[i] > vs[best]:
            best = i
    return xs[best]


def _pattern_search(af, starts: np.ndarray, start_vals: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Best-of-neighborhood coordinate search from several starts.

    Starts are refined in lockstep so each sweep costs one batched posterior
    call, but every start follows exactly the trajectory it would follow
    alone: moves depend only on that start's own neighborhood.
    """
    m = starts.shape[0]
    xs = starts.astype(float, copy=True)
    vs = np.asarray(start_vals, dtype=float).copy()
    steps = np.full(m, _STEP_START)
    for _ in range(_MAX_SWEEPS):
        active = np.flatnonzero(steps >= _STEP_STOP)
        if active.size == 0:
            break
        neighbors = np.repeat(xs[active], 2 * d, axis=0)
        for row, i in enumerate(active):
            base = 2 * d * row
            for k in range(d):
                neighbors[base + 2 * k, k] = min(1.0, xs[i, k] + steps[i])
                neighbors[base + 2 * k + 1, k] = max(0.0, xs[i, k] - steps[i])
        nv = af(neighbors).reshape(active.size, 2 * d)
        for row, i in enumerate(active):
            j = int(np.argmax(nv[row]))
            if nv[row, j] > vs[i]:
                xs[i] = neighbors[2 * d * row + j]
                vs[i] = float(nv[row, j])
            else:
                steps[i] *= 0.5
    return xs, vs
