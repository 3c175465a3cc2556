"""Initial designs and inner-loop maximization of the acquisition function.

Both work in the unit cube [0, 1]^d; mapping to the search box of the
benchmark landscapes is the caller's job. The inner loop is gradient-free and
deterministic given its seed: score a batch of uniform random candidates, then
refine the best few with a shrinking coordinate pattern search. Both stages
are array operations; the search runs all its starts in lockstep, one batched
posterior call per sweep.
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
    N_REFINE_STARTS candidates. A sweep scores the 2d neighbours x +/- step*e_k
    (clipped to the cube) of every start whose step has not run out, in one
    batched posterior call; a start moves to its best neighbour if that beats
    its current value, and halves its step otherwise. The starts run in
    lockstep, but each one follows exactly the path it would follow alone:
    its moves depend only on its own neighbours' scores, and a sweep's rows
    are scored independently. Ties prefer the lowest candidate index and the
    first neighbour. The returned point is always inside [0, 1]^model.dim and
    never scores below the best raw candidate.
    """
    d = model.dim

    def af(points: np.ndarray) -> np.ndarray:
        means, stds = predict_batch(model, points)
        return scores(kind, means, stds, y_min)

    cands = rng.random((N_CANDIDATES, d))
    vals = af(cands)

    # Stable sort: equal scores keep candidate order, so a flat surface
    # degrades to returning the first candidate.
    starts = np.argsort(-vals, kind="stable")[:N_REFINE_STARTS]
    xs, vs = cands[starts], vals[starts]
    steps = np.full(starts.size, _STEP_START)
    moves = np.kron(np.eye(d), [[1.0], [-1.0]])  # rows +e_0, -e_0, +e_1, ...
    for _ in range(_MAX_SWEEPS):
        active = np.flatnonzero(steps >= _STEP_STOP)
        if active.size == 0:
            break
        neighbors = np.minimum(np.maximum(xs[active, None, :] + steps[active, None, None] * moves, 0.0), 1.0)
        nv = af(neighbors.reshape(-1, d)).reshape(active.size, 2 * d)
        best = np.argmax(nv, axis=1)
        best_v = nv.max(axis=1)
        improved = best_v > vs[active]
        xs[active[improved]] = neighbors[improved, best[improved]]
        vs[active[improved]] = best_v[improved]
        steps[active[~improved]] *= 0.5
    return xs[np.argmax(vs)]
