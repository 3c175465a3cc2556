from __future__ import annotations

import functools
import math
import re

import numpy as np
import pytest

from afsched.benchfn import (
    DOMAIN_LOWER,
    DOMAIN_UPPER,
    FUNCTION_IDS,
    evaluate,
    evaluate_many,
    from_unit,
    make_instance,
    to_unit,
)
from afsched.rng import substream

# Optimum checks are exact by construction for most landscapes; the two
# constructed multimodal ones get the looser documented tolerance.
_OPT_TOL = {fid: 1e-9 for fid in FUNCTION_IDS}
_OPT_TOL["f21"] = 1e-6
_OPT_TOL["f23"] = 1e-6


def grid_minimum(inst, stages=3, points_per_axis=1000) -> float:
    """Brute-force 2-d oracle: full-domain scan, then zoom on the argmin.

    Each stage lays a points_per_axis^2 lattice; later stages shrink the
    window around the best point so far, which resolves narrow valleys a
    single coarse lattice cannot. Every sampled value is also checked
    against the claimed optimum from below.
    """
    assert inst.dim == 2
    lo = np.full(2, -5.0)
    hi = np.full(2, 5.0)
    best_val = math.inf
    best_x = None
    for stage in range(stages):
        axes = [np.linspace(lo[j], hi[j], points_per_axis) for j in range(2)]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = evaluate_many(inst, pts)
        assert vals.min() >= inst.f_opt - 1e-9, "sampled value below the claimed optimum"
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_x = pts[idx]
        span = (hi - lo) / 50.0
        lo = np.maximum(best_x - span, -5.0)
        hi = np.minimum(best_x + span, 5.0)
    return best_val


@functools.lru_cache(maxsize=None)
def grid_oracle(fid: str, seed: int) -> float:
    """grid_minimum of the 2-d instance (fid, seed), computed once per test run.

    Instances hash by identity, so the cache is keyed on what builds them;
    C7 and the global-minimality test below share the ten seed-7 scans.
    """
    return grid_minimum(make_instance(fid, 2, seed))


def test_instances_are_deterministic() -> None:
    a = make_instance("f15", 3, 11)
    b = make_instance("f15", 3, 11)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert np.array_equal(a.rotation, b.rotation)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(50, 3))
    assert np.array_equal(evaluate_many(a, pts), evaluate_many(b, pts))


def test_different_seeds_give_different_instances() -> None:
    a = make_instance("f1", 2, 0)
    b = make_instance("f1", 2, 1)
    assert not np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt == 0.0  # the optimum value never depends on the draw


def test_a_substream_key_holds_only_ints_and_strings() -> None:
    with pytest.raises(TypeError, match="substream key parts must be int or str, got <class 'float'>"):
        substream(0, "xopt", 1.5)


def test_unknown_function_and_bad_dim() -> None:
    with pytest.raises(ValueError):
        make_instance("f2", 2, 0)
    with pytest.raises(ValueError):
        make_instance("f1", 1, 0)


def test_optimum_value_is_attained() -> None:
    for fid in FUNCTION_IDS:
        for seed in (0, 3):
            inst = make_instance(fid, 3, seed)
            assert abs(evaluate(inst, inst.x_opt) - inst.f_opt) <= _OPT_TOL[fid], fid
            assert np.all(np.abs(inst.x_opt) <= 4.0)


def test_rotations_are_orthogonal() -> None:
    for fid in FUNCTION_IDS:
        inst = make_instance(fid, 4, 5)
        if inst.rotation is None:
            continue
        eye = inst.rotation.T @ inst.rotation
        assert np.max(np.abs(eye - np.eye(4))) < 1e-10


def test_sphere_at_unit_distance() -> None:
    inst = make_instance("f1", 3, 2)
    direction = np.zeros(3)
    direction[1] = 1.0
    assert evaluate(inst, inst.x_opt + direction) == pytest.approx(1.0, abs=1e-12)


def test_linear_slope_midpoint_identity() -> None:
    # On the descending side of the optimum the landscape is affine, so
    # f(a) + f(b) - 2 f((a+b)/2) vanishes.
    inst = make_instance("f5", 3, 4)
    signs = np.where(inst.x_opt >= 0.0, 1.0, -1.0)  # the slope descends toward x_opt along each coordinate
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = inst.x_opt - signs * rng.uniform(0.1, 0.9, size=3)
        b = inst.x_opt - signs * rng.uniform(0.1, 0.9, size=3)
        mid = 0.5 * (a + b)
        residual = evaluate(inst, a) + evaluate(inst, b) - 2.0 * evaluate(inst, mid)
        assert abs(residual) < 1e-9


def test_weierstrass_matches_direct_series_sum() -> None:
    """Oracle: re-sum the 12-term series with plain loops on rotated inputs."""
    inst = make_instance("f16", 2, 6)
    f0 = sum(0.5**k * math.cos(math.pi * 3.0**k) for k in range(12))
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.uniform(-5.0, 5.0, size=2)
        z = inst.rotation @ (x - inst.x_opt)
        total = 0.0
        for zi in z:
            for k in range(12):
                total += 0.5**k * math.cos(2.0 * math.pi * 3.0**k * (zi + 0.5))
        expected = 10.0 * (total / 2.0 - f0) ** 3
        assert abs(evaluate(inst, x) - expected) < 1e-8


def test_values_are_nonnegative_and_finite() -> None:
    rng = np.random.default_rng(10)
    for fid in FUNCTION_IDS:
        inst = make_instance(fid, 2, 12)
        pts = rng.uniform(-5.0, 5.0, size=(100_000, 2))
        vals = evaluate_many(inst, pts)
        assert np.all(np.isfinite(vals)), fid
        assert vals.min() >= inst.f_opt - 1e-9, fid


def test_grid_oracle_confirms_global_minimality() -> None:
    for fid in FUNCTION_IDS:
        assert grid_oracle(fid, 7) <= make_instance(fid, 2, 7).f_opt + 1e-2, fid


def test_rastrigin_grid_minimum_is_tight() -> None:
    inst = make_instance("f15", 2, 13)
    assert grid_minimum(inst) <= inst.f_opt + 1e-3


def test_out_of_domain_and_dim_mismatch() -> None:
    inst = make_instance("f1", 2, 0)
    with pytest.raises(ValueError):
        evaluate(inst, np.array([5.5, 0.0]))
    with pytest.raises(ValueError):
        evaluate(inst, np.array([0.0, 0.0, 0.0]))
    for bad in (np.zeros(2), np.zeros((3, 3))):
        with pytest.raises(ValueError, match=rf"expected an \(m, 2\) matrix, got shape {re.escape(str(bad.shape))}"):
            evaluate_many(inst, bad)
    # Boundary points are legal.
    evaluate(inst, np.array([5.0, -5.0]))


def test_domain_helper() -> None:
    # The unit cube's corners and centre map exactly onto the search box's.
    assert np.array_equal(from_unit(np.array([0.0, 0.5, 1.0])), [-5.0, 0.0, 5.0])
    assert np.array_equal(to_unit(np.array([-5.0, 0.0, 5.0])), [0.0, 0.5, 1.0])
    u = np.random.default_rng(4).random((200, 3))
    x = from_unit(u)
    assert np.all(x >= DOMAIN_LOWER) and np.all(x <= DOMAIN_UPPER)
    assert np.allclose(to_unit(x), u)
    assert np.allclose(from_unit(to_unit(x)), x)
