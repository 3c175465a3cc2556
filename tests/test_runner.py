from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afsched
import afsched.runner as runner_mod
from afsched.acquisition import AcquisitionKind
from afsched.gp import GpFitError
from afsched.runner import (
    CellFailure,
    ExperimentConfig,
    StepRecord,
    TrialError,
    TrialTrajectory,
    aggregate,
    log_regret,
    read_records,
    run_grid,
    run_trial,
    write_records,
)
from afsched.schedule import SCHEDULE_NAMES, kind_at

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


def test_grid_reports_each_function_seed_pair_as_soon_as_it_is_done(monkeypatch) -> None:
    events = []
    run_schedules = runner_mod._run_schedules

    def spy(function_id, schedule_names, seed, config):
        events.append(("start", function_id, seed))
        return run_schedules(function_id, schedule_names, seed, config)

    monkeypatch.setattr(runner_mod, "_run_schedules", spy)
    cfg = _config(functions=("f5", "f1"), seeds=(1, 0))
    records = run_grid(cfg, workers=1, progress=lambda r: events.append((r.function_id, r.schedule_name, r.seed)))
    pairs = [(f, seed) for f in ("f5", "f1") for seed in (1, 0)]
    assert events == [e for f, seed in pairs for e in (("start", f, seed), (f, "ei", seed), (f, "pi", seed))]
    keys = [(r.function_id, r.schedule_name, r.seed) for r in records]
    assert keys == [(f, s, seed) for f in ("f5", "f1") for s in ("ei", "pi") for seed in (1, 0)]


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
        raise GpFitError("forced failure")

    monkeypatch.setattr(runner_mod, "fit", broken_fit)
    cfg = _config(seeds=(0,), schedules=("ei",))
    records = run_grid(cfg)
    assert len(records) == 1
    failure = records[0]
    assert isinstance(failure, CellFailure)
    assert failure.step == 1
    assert "forced failure" in failure.message


# Every schedule on one function over a few seeds, long enough for every fork kind.
_TRIE = dict(dim=2, seeds=(0, 1, 2), functions=("f1",), schedules=SCHEDULE_NAMES, doe_size=4, bo_evals=8, gp_restarts=2)


def _fingerprint(record: TrialTrajectory) -> tuple:
    """Every bit a record carries."""
    return (
        record.function_id,
        record.schedule_name,
        record.seed,
        record.doe_x.tobytes(),
        record.doe_y.tobytes(),
        [rec.af for rec in record.steps],
        np.array([rec.x for rec in record.steps]).tobytes(),
        np.array([rec.y for rec in record.steps]).tobytes(),
        record.incumbents.tobytes(),
    )


@pytest.fixture(scope="module")
def per_schedule_trials() -> dict[tuple[str, int], TrialTrajectory]:
    cfg = ExperimentConfig(**_TRIE)
    return {(sched, seed): run_trial("f1", sched, seed, cfg) for sched in cfg.schedules for seed in cfg.seeds}


def _counting(monkeypatch, name: str) -> list[int]:
    calls = []
    original = getattr(runner_mod, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_mod, name, counted)
    return calls


def test_grid_shares_schedule_prefixes_exactly(monkeypatch, per_schedule_trials) -> None:
    cfg = ExperimentConfig(**_TRIE)
    fits, maximizations = _counting(monkeypatch, "fit"), _counting(monkeypatch, "maximize_af")
    records = run_grid(cfg)
    assert [_fingerprint(r) for r in records] == [
        _fingerprint(per_schedule_trials[(sched, seed)]) for sched in cfg.schedules for seed in cfg.seeds
    ]

    # One fit per distinct (t-1)-prefix of acquisition choices, one maximization per distinct t-prefix.
    expected_fits = expected_maximizations = 0
    for seed in cfg.seeds:
        kinds = [[kind_at(s, t, cfg.bo_evals, seed) for t in range(1, cfg.bo_evals + 1)] for s in cfg.schedules]
        for t in range(1, cfg.bo_evals + 1):
            expected_fits += len({tuple(k[: t - 1]) for k in kinds})
            expected_maximizations += len({tuple(k[:t]) for k in kinds})
    steps = len(cfg.schedules) * len(cfg.seeds) * cfg.bo_evals
    assert (len(fits), len(maximizations)) == (expected_fits, expected_maximizations)
    assert expected_fits < expected_maximizations < steps


def test_fit_failure_at_a_shared_node_fails_only_the_schedules_below_it(monkeypatch, per_schedule_trials) -> None:
    # Fail the fit of step 5 after four EI steps: ei, ee50 and ee75 (and random, if its
    # coins say so) sit below that node; the rest forked off earlier.
    cfg = ExperimentConfig(**{**_TRIE, "seeds": (1,)})
    ei = per_schedule_trials[("ei", 1)]
    node_y = np.concatenate([ei.doe_y, [rec.y for rec in ei.steps[:4]]])
    original = runner_mod.fit

    def fit(train_x, train_y, **kwargs):
        if np.array_equal(train_y, node_y):
            raise GpFitError("forced failure")
        return original(train_x, train_y, **kwargs)

    monkeypatch.setattr(runner_mod, "fit", fit)
    below = {
        s for s in cfg.schedules if all(kind_at(s, t, cfg.bo_evals, 1) is AcquisitionKind.EI for t in range(1, 5))
    }
    assert {"ei", "ee50", "ee75"} <= below and {"pi", "round_robin", "ee25"}.isdisjoint(below)

    records = run_grid(cfg)
    for record in records:
        if record.schedule_name in below:
            assert record == CellFailure("f1", record.schedule_name, 1, 2, step=5, message="forced failure")
        else:
            assert _fingerprint(record) == _fingerprint(per_schedule_trials[(record.schedule_name, 1)])
    with pytest.raises(TrialError, match="f1/ee75/seed=1 failed at step 5: forced failure"):
        run_trial("f1", "ee75", 1, cfg)


def test_any_exception_in_a_step_fails_only_the_schedules_below_it(monkeypatch, per_schedule_trials) -> None:
    # maximize_af raises at step 3 for PI only: every schedule whose third choice
    # is PI fails there, with the exception's type in the message; the others
    # finish with the same bits as when nothing fails.
    cfg = ExperimentConfig(**{**_TRIE, "seeds": (1,)})
    original = runner_mod.maximize_af

    def maximize_af(kind, model, y_min, rng):
        if kind is AcquisitionKind.PI and model.train_x.shape[0] == cfg.doe_size + 2:
            raise np.linalg.LinAlgError("forced failure")
        return original(kind, model, y_min, rng)

    monkeypatch.setattr(runner_mod, "maximize_af", maximize_af)
    below = {s for s in cfg.schedules if kind_at(s, 3, cfg.bo_evals, 1) is AcquisitionKind.PI}
    assert below and below != set(cfg.schedules)

    records = run_grid(cfg)
    for record in records:
        if record.schedule_name in below:
            assert record == CellFailure(
                "f1", record.schedule_name, 1, 2, step=3, message="LinAlgError: forced failure"
            )
        else:
            assert _fingerprint(record) == _fingerprint(per_schedule_trials[(record.schedule_name, 1)])
    name = sorted(below)[0]
    with pytest.raises(TrialError, match=f"f1/{name}/seed=1 failed at step 3: LinAlgError: forced failure"):
        run_trial("f1", name, 1, cfg)


def test_an_exception_in_the_evaluation_fails_every_schedule_of_that_branch(monkeypatch) -> None:
    cfg = _config(seeds=(0,), schedules=("ei", "pi"))

    def evaluate(inst, x):
        raise FloatingPointError("forced failure")

    monkeypatch.setattr(runner_mod, "evaluate", evaluate)
    records = run_grid(cfg)
    assert records == [
        CellFailure(cfg.functions[0], name, 0, cfg.dim, step=1, message="FloatingPointError: forced failure")
        for name in ("ei", "pi")
    ]


_BLAS_THREADS_IN_TRIALS = """
import ctypes, json, os
import afsched.runner as runner
from afsched.gp import GpFitError

def threads():
    with open("/proc/self/maps") as handle:
        paths = {line.split(maxsplit=5)[5].strip() for line in handle if "openblas" in line}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[symbol] = getattr(lib, symbol)()
    return found

def fit(*args, **kwargs):  # report the thread counts a step sees through its failure message
    raise GpFitError(json.dumps(threads()))

before = threads()
runner.fit = fit  # forked workers inherit the replacement
config = runner.ExperimentConfig(dim=2, seeds=(0, 1), functions=("f1",), schedules=("ei",))
records = runner.run_grid(config, workers=2) + runner.run_grid(config, workers=1)
try:
    runner.run_trial("f1", "ei", 0, config)
except runner.TrialError as exc:
    records.append(exc)
print(json.dumps({"before": before, "steps": [json.loads(r.message) for r in records], "after": threads()}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="lists loaded libraries through /proc")
def test_trials_run_openblas_on_one_thread_and_restore_it() -> None:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(afsched.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_IN_TRIALS], env=env, capture_output=True, text=True, check=True
    ).stdout
    seen = json.loads(out)
    if not seen["before"]:
        pytest.skip("no scipy-openblas build loaded")
    assert len(seen["steps"]) == 5
    for found in seen["steps"]:
        assert found == dict.fromkeys(seen["before"], 1), seen
    assert seen["after"] == seen["before"]


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
