from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from afsched.acquisition import AcquisitionKind, scores
from afsched.afopt import (
    _MAX_SWEEPS,
    _STEP_START,
    _STEP_STOP,
    N_CANDIDATES,
    N_REFINE_STARTS,
    initial_design,
    maximize_af,
)
from afsched.benchfn import DOMAIN_LOWER, DOMAIN_UPPER, FUNCTION_IDS, evaluate, from_unit, make_instance, to_unit
from afsched.gp import KernelParams, build_model, fit, predict_batch
from afsched.rng import substream


def test_domain_validation_and_mapping() -> None:
    # The search box is fixed at [-5, 5]^d: the unit-cube mapping round-trips
    # and the landscapes refuse points outside the box.
    x = np.array([0.0, 1.0])
    assert np.allclose(from_unit(to_unit(x)), x)
    assert np.all(to_unit(x) >= 0.0) and np.all(to_unit(x) <= 1.0)
    assert not np.all(to_unit(np.array([6.0, 1.0])) <= 1.0)
    instance = make_instance(FUNCTION_IDS[0], 2, 0)
    evaluate(instance, x)
    with pytest.raises(ValueError):
        evaluate(instance, np.array([6.0, 1.0]))


def test_design_spec_validation() -> None:
    with pytest.raises(ValueError):
        initial_design(0, 1, substream(0, "doe"))


def test_single_point_design_stays_in_domain() -> None:
    points = initial_design(1, 1, substream(0, "doe"))
    assert points.shape == (1, 1)
    assert 0.0 <= points[0, 0] <= 1.0


def test_design_is_deterministic() -> None:
    a = initial_design(15, 5, substream(7, "doe"))
    b = initial_design(15, 5, substream(7, "doe"))
    assert np.array_equal(a, b)


def test_design_is_a_latin_hypercube() -> None:
    # Each coordinate must occupy every one of the n equal-width strata once.
    n = 15
    unit = initial_design(n, 5, substream(3, "doe"))
    for j in range(5):
        strata = np.floor(unit[:, j] * n).astype(int)
        assert sorted(strata) == list(range(n))


def _quadratic_model(rng_seed: int = 0):
    xs = np.linspace(0.0, 1.0, 7)[:, None]
    ys = (xs.ravel() - 0.5) ** 2
    return fit(xs, ys, restarts=4, rng=rng_seed), float(ys.min())


def test_refinement_never_loses_to_raw_candidates() -> None:
    model, y_min = _quadratic_model()
    rng = substream(11, "af")
    best = maximize_af(AcquisitionKind.EI, model, y_min, rng)

    # Re-derive the candidate batch from the same substream.
    cands = substream(11, "af").random((N_CANDIDATES, 1))
    means, stds = predict_batch(model, cands)
    raw = scores(AcquisitionKind.EI, means, stds, y_min)
    m_best, s_best = predict_batch(model, best[None, :])
    assert scores(AcquisitionKind.EI, m_best, s_best, y_min)[0] >= raw.max()


def test_flat_surface_returns_first_candidate() -> None:
    # A y_min far below every reachable value drives EI to exactly zero
    # everywhere, so the tie-break must return the first raw candidate.
    params = KernelParams(np.log([0.2]), 0.0, np.log(1e-6))
    model = build_model(np.array([[0.2], [0.8]]), np.array([1.0, 2.0]), params)
    best = maximize_af(AcquisitionKind.EI, model, y_min=-1e8, rng=substream(5, "af"))
    first = substream(5, "af").random((N_CANDIDATES, 1))[0]
    assert np.array_equal(best, first)


def test_one_dimensional_grid_oracle() -> None:
    xs = np.array([[0.1], [0.55], [0.9]])
    ys = np.array([0.8, 0.1, 0.9])
    params = KernelParams(np.log([0.3]), 0.0, np.log(1e-4))
    model = build_model(xs, ys, params)
    best = maximize_af(AcquisitionKind.PI, model, float(ys.min()), substream(21, "af"))

    grid = np.linspace(0.0, 1.0, 100_001)[:, None]
    means, stds = predict_batch(model, grid)
    grid_best = scores(AcquisitionKind.PI, means, stds, float(ys.min())).max()
    m, s = predict_batch(model, best[None, :])
    found = scores(AcquisitionKind.PI, m, s, float(ys.min()))[0]
    assert found >= grid_best - 1e-6


def test_result_is_deterministic_and_inside_domain() -> None:
    model, y_min = _quadratic_model()
    a = maximize_af(AcquisitionKind.EI, model, y_min, substream(1, "af"))
    b = maximize_af(AcquisitionKind.EI, model, y_min, substream(1, "af"))
    assert np.array_equal(a, b)
    assert a.shape == (model.dim,)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_maximizer_respects_wide_domains() -> None:
    # The maximizer works in the unit cube; mapped to the [-5, 5]^2 search box
    # its points must stay inside the box, for every seed.
    xs = np.random.default_rng(9).random((8, 2))
    ys = np.sin(3 * xs[:, 0]) * np.cos(2 * xs[:, 1])
    model = fit(xs, ys, restarts=4, rng=3)
    for seed in range(3):
        a = maximize_af(AcquisitionKind.EI, model, float(ys.min()), substream(seed, "af"))
        b = maximize_af(AcquisitionKind.EI, model, float(ys.min()), substream(seed, "af"))
        assert np.array_equal(a, b)
        point = from_unit(a)
        assert point.shape == (2,)
        assert np.all(point >= DOMAIN_LOWER) and np.all(point <= DOMAIN_UPPER)


@pytest.mark.parametrize("kind", list(AcquisitionKind))
def test_non_finite_posterior_is_rejected(kind) -> None:
    model, y_min = _quadratic_model()
    broken = dataclasses.replace(model, alpha=np.full_like(model.alpha, np.nan))
    with pytest.raises(ValueError, match="not finite"):
        maximize_af(kind, broken, y_min, substream(1, "af"))


def _scalar_maximize_af(kind, model, y_min, rng) -> np.ndarray:
    """Reference: the pattern search run one start at a time, one coordinate at a time."""
    d = model.dim

    def af(points):
        means, stds = predict_batch(model, points)
        return scores(kind, means, stds, y_min)

    cands = rng.random((N_CANDIDATES, d))
    vals = af(cands)
    results = []
    for i in np.argsort(-vals, kind="stable")[:N_REFINE_STARTS]:
        x, v, step = cands[i].copy(), float(vals[i]), _STEP_START
        for _ in range(_MAX_SWEEPS):
            if step < _STEP_STOP:
                break
            neighbors = np.repeat(x[None, :], 2 * d, axis=0)
            for k in range(d):
                neighbors[2 * k, k] = min(1.0, x[k] + step)
                neighbors[2 * k + 1, k] = max(0.0, x[k] - step)
            nv = af(neighbors)
            j = int(np.argmax(nv))
            if nv[j] > v:
                x, v = neighbors[j], float(nv[j])
            else:
                step *= 0.5
        results.append((x, v))
    best = 0
    for i in range(1, len(results)):
        if results[i][1] > results[best][1]:
            best = i
    return results[best][0]


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_lockstep_search_matches_scalar_oracle_bit_for_bit(dim) -> None:
    # Each start must follow the path it would follow alone, so the batched
    # search returns the same bytes as the one-start-at-a-time loop.
    for seed in range(7):
        rng = np.random.default_rng(1000 * dim + seed)
        n = 3 * dim + seed
        xs = rng.random((n, dim))
        ys = np.sin(5.0 * xs).sum(axis=1) + rng.normal(0.0, 0.1, n)
        model = fit(xs, ys, restarts=2, rng=seed)
        for kind in AcquisitionKind:
            got = maximize_af(kind, model, float(ys.min()), substream(seed, "af", dim))
            want = _scalar_maximize_af(kind, model, float(ys.min()), substream(seed, "af", dim))
            assert got.tobytes() == want.tobytes(), (dim, seed, kind)
