from __future__ import annotations

import numpy as np
import pytest

import afsched.runner as runner_mod
from afsched.acquisition import AcquisitionKind
from afsched.gp import GpFitError
from afsched.runner import (
    CellFailure,
    ExperimentConfig,
    StepRecord,
    TrialTrajectory,
    aggregate,
    log_regret,
    read_records,
    run_grid,
    run_trial,
    write_records,
)

_FAST = dict(doe_size=4, bo_evals=3, gp_restarts=2)


def _config(**overrides) -> ExperimentConfig:
    base = dict(dim=2, seeds=(0, 1), functions=("f1",), schedules=("ei", "pi"), **_FAST)
    base.update(overrides)
    return ExperimentConfig(**base)


def _synthetic_trajectory(incumbents, function_id="f1", schedule_name="ei", seed=0) -> TrialTrajectory:
    steps = tuple(
        StepRecord(step=t + 1, af=AcquisitionKind.EI, x=np.zeros(2), y=float(v), incumbent=float(v))
        for t, v in enumerate(incumbents)
    )
    return TrialTrajectory(
        function_id=function_id,
        schedule_name=schedule_name,
        seed=seed,
        dim=2,
        f_opt=0.0,
        doe_x=np.zeros((2, 2)),
        doe_y=np.array([incumbents[0] + 1.0, incumbents[0] + 2.0]),
        steps=steps,
    )


def test_config_defaults_follow_the_protocol() -> None:
    cfg = ExperimentConfig(dim=5, seeds=(0,))
    assert cfg.doe_size == 15
    assert cfg.bo_evals == 100
    cfg2 = ExperimentConfig(dim=2, seeds=(0,))
    assert (cfg2.doe_size, cfg2.bo_evals) == (6, 40)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        ExperimentConfig(dim=2, seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(dim=2, seeds=(0,), functions=("f2",))
    with pytest.raises(ValueError):
        ExperimentConfig(dim=2, seeds=(0,), schedules=("ee30",))
    with pytest.raises(ValueError):
        ExperimentConfig(dim=2, seeds=(0,), doe_size=1)
    bad_lists = [("functions", ()), ("schedules", ()), ("functions", ("f1", "f5", "f1")), ("schedules", ("ei", "ei"))]
    for field, values in bad_lists:
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dim=2, seeds=(0,), **{field: values})


def test_run_trial_rejects_unknown_schedule_before_fitting(monkeypatch) -> None:
    def fit(*args, **kwargs):
        raise AssertionError("fit called for an unknown schedule")

    monkeypatch.setattr(runner_mod, "fit", fit)
    with pytest.raises(ValueError, match="unknown schedule 'ee30'"):
        run_trial("f1", "ee30", 0, _config())


def test_single_step_trial_shape_and_incumbent() -> None:
    cfg = _config(bo_evals=1, doe_size=2)
    traj = run_trial("f1", "ei", 0, cfg)
    assert len(traj.doe_y) == 2
    assert len(traj.steps) == 1
    assert traj.final_incumbent <= traj.doe_incumbent


def test_incumbents_never_increase() -> None:
    cfg = _config(bo_evals=6)
    traj = run_trial("f16", "ee50", 3, cfg)
    incumbents = np.concatenate([[traj.doe_incumbent], traj.incumbents])
    assert np.all(np.diff(incumbents) <= 0.0)
    for rec, y_seen in zip(traj.steps, np.minimum.accumulate([r.y for r in traj.steps])):
        assert rec.incumbent == min(traj.doe_incumbent, y_seen)


def test_design_phase_is_identical_across_schedules() -> None:
    cfg = _config()
    a = run_trial("f1", "ei", 1, cfg)
    b = run_trial("f1", "pi", 1, cfg)
    assert np.array_equal(a.doe_x, b.doe_x)
    assert np.array_equal(a.doe_y, b.doe_y)


def test_design_phase_is_identical_across_functions() -> None:
    cfg = _config(functions=("f1", "f16"))
    a = run_trial("f1", "ei", 1, cfg)
    b = run_trial("f16", "ei", 1, cfg)
    assert np.array_equal(a.doe_x, b.doe_x)


def test_schedules_agreeing_on_a_prefix_share_the_trajectory() -> None:
    # ee50 over T=8 plays EI for the first 4 steps, exactly like the static.
    cfg = _config(bo_evals=8, functions=("f16",))
    a = run_trial("f16", "ei", 2, cfg)
    b = run_trial("f16", "ee50", 2, cfg)
    for t in range(4):
        assert np.array_equal(a.steps[t].x, b.steps[t].x)
        assert a.steps[t].y == b.steps[t].y
    assert a.steps[4].af is AcquisitionKind.EI
    assert b.steps[4].af is AcquisitionKind.PI


def test_recorded_afs_follow_the_schedule() -> None:
    cfg = _config(bo_evals=4)
    traj = run_trial("f1", "round_robin", 0, cfg)
    assert [rec.af for rec in traj.steps] == [
        AcquisitionKind.EI,
        AcquisitionKind.PI,
        AcquisitionKind.EI,
        AcquisitionKind.PI,
    ]


def test_grid_cardinality_and_order() -> None:
    cfg = _config(functions=("f1", "f5"), schedules=("ei", "pi"), seeds=(0, 1, 2))
    records = run_grid(cfg)
    assert len(records) == 12
    keys = [(r.function_id, r.schedule_name, r.seed) for r in records]
    assert keys == [
        (f, s, seed) for f in ("f1", "f5") for s in ("ei", "pi") for seed in (0, 1, 2)
    ]


def test_grid_is_reproducible_and_worker_invariant(tmp_path) -> None:
    cfg = _config(seeds=(0, 1))
    sequential = run_grid(cfg, workers=1)
    again = run_grid(cfg, workers=1)
    parallel = run_grid(cfg, workers=2)
    p1, p2, p3 = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    write_records(sequential, p1)
    write_records(again, p2)
    write_records(parallel, p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_gp_failure_becomes_a_cell_record(monkeypatch) -> None:
    def broken_fit(*args, **kwargs):
        raise GpFitError("forced failure", jitter=1e-4)

    monkeypatch.setattr(runner_mod, "fit", broken_fit)
    cfg = _config(seeds=(0,), schedules=("ei",))
    records = run_grid(cfg)
    assert len(records) == 1
    failure = records[0]
    assert isinstance(failure, CellFailure)
    assert failure.step == 1
    assert "forced failure" in failure.message


def test_log_regret_of_powers_of_ten() -> None:
    traj = _synthetic_trajectory([10.0, 1.0, 0.1])
    assert np.allclose(log_regret(traj), [1.0, 0.0, -1.0])


def test_log_regret_clamps_exact_hits() -> None:
    traj = _synthetic_trajectory([1.0, 0.0])
    values = log_regret(traj)
    assert values[-1] == pytest.approx(-12.0)
    assert np.all(values >= -12.0)
    flat = _synthetic_trajectory([1.0, 1.0, 1.0])
    assert np.allclose(log_regret(flat), [0.0, 0.0, 0.0])


def test_aggregate_normalizes_to_unit_interval() -> None:
    trajs = [
        _synthetic_trajectory([100.0, 1.0, 1e-12], seed=0),
        _synthetic_trajectory([10.0, 1.0, 0.1], seed=1),
    ]
    report = aggregate(trajs)
    assert report.bounds["f1"] == (-12.0, 2.0)
    values = [c.mean for c in report.curves]
    assert min(values) >= 0.0 and max(values) <= 1.0
    finals = {f.seed: f.value for f in report.finals}
    assert finals[0] == 0.0
    assert finals[1] == pytest.approx((-1.0 + 12.0) / 14.0)


def test_aggregate_identical_seeds_have_zero_halfwidth() -> None:
    trajs = [_synthetic_trajectory([10.0, 0.1], seed=s) for s in (0, 1, 2)]
    report = aggregate(trajs)
    assert all(c.ci_halfwidth == 0.0 for c in report.curves)


def test_aggregate_two_seed_confidence_halfwidth() -> None:
    # Normalized finals {0, 1}: mean 0.5, halfwidth 1.96 * std / sqrt(2) = 0.98.
    trajs = [
        _synthetic_trajectory([10.0, 1e-12], seed=0),
        _synthetic_trajectory([10.0, 10.0], seed=1),
    ]
    report = aggregate(trajs)
    final_curve = [c for c in report.curves if c.step == 2][0]
    assert final_curve.mean == pytest.approx(0.5)
    assert final_curve.ci_halfwidth == pytest.approx(0.98, abs=1e-12)


def test_aggregate_degenerate_normalization_is_flagged() -> None:
    trajs = [_synthetic_trajectory([1.0, 1.0], seed=s) for s in (0, 1)]
    report = aggregate(trajs)
    assert report.degenerate == ("f1",)
    assert all(c.mean == 0.0 for c in report.curves)


def test_aggregate_requires_two_seeds_per_cell() -> None:
    with pytest.raises(ValueError):
        aggregate([_synthetic_trajectory([1.0], seed=0)])


def test_aggregate_bounds_use_only_given_schedules() -> None:
    ei_trajs = [
        _synthetic_trajectory([100.0, 10.0], "f1", "ei", 0),
        _synthetic_trajectory([100.0, 1.0], "f1", "ei", 1),
    ]
    pi_trajs = [
        _synthetic_trajectory([1e6, 10.0], "f1", "pi", 0),
        _synthetic_trajectory([1e6, 10.0], "f1", "pi", 1),
    ]
    subset = aggregate(ei_trajs)
    full = aggregate(ei_trajs + pi_trajs)
    assert subset.bounds["f1"] == (0.0, 2.0)
    assert full.bounds["f1"] == (0.0, 6.0)


def test_records_round_trip_through_jsonl(tmp_path) -> None:
    cfg = _config(seeds=(0,), schedules=("ee25",))
    records = run_grid(cfg)
    records.append(CellFailure("f1", "ei", 9, 2, step=4, message="boom"))
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    loaded = read_records(path)
    assert len(loaded) == len(records)
    original = records[0]
    restored = loaded[0]
    assert np.array_equal(original.doe_x, restored.doe_x)
    assert np.array_equal(original.incumbents, restored.incumbents)
    assert [r.af for r in original.steps] == [r.af for r in restored.steps]
    failure = loaded[-1]
    assert isinstance(failure, CellFailure)
    assert failure.step == 4 and failure.seed == 9
