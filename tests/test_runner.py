from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsched
import afsched.gp as gp_mod
import afsched.runner as runner_mod
from afsched.acquisition import AcquisitionKind
from afsched.gp import GpFitError
from afsched.runner import (
    CellFailure,
    CurvePoint,
    ExperimentConfig,
    FinalPoint,
    StepRecord,
    TrialError,
    TrialTrajectory,
    aggregate,
    iter_records,
    log_regret,
    read_records,
    run_grid,
    run_trial,
    write_records,
    write_report,
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
    for field, value in (("dim", 1), ("bo_evals", 0), ("gp_restarts", 0)):
        with pytest.raises(ValueError, match=f"{field} must be >= {value + 1}"):
            ExperimentConfig(**{"dim": 2, "seeds": (0,), field: value})
    bad_lists = [("functions", ()), ("schedules", ()), ("functions", ("f1", "f5", "f1")), ("schedules", ("ei", "ei"))]
    for field, values in bad_lists:
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dim=2, seeds=(0,), **{field: values})
    # Anything operator.index rejects is refused before any compute, naming the field.
    not_integers = [("dim", 2.5), ("seeds", (1.5, 2.9)), ("doe_size", 4.0), ("bo_evals", "3"), ("gp_restarts", 1.0)]
    for field, value in not_integers:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(**{"dim": 2, "seeds": (0,), field: value})
    cfg = ExperimentConfig(dim=np.int64(2), seeds=(np.int32(3),), bo_evals=np.int16(4), gp_restarts=np.uint8(1))
    assert (cfg.dim, cfg.seeds, cfg.doe_size, cfg.bo_evals, cfg.gp_restarts) == (2, (3,), 6, 4, 1)
    assert all(type(v) is int for v in (cfg.dim, *cfg.seeds, cfg.doe_size, cfg.bo_evals, cfg.gp_restarts))


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


@pytest.mark.parametrize("workers", [0, -1])
def test_grid_rejects_a_worker_count_below_one_before_any_unit(monkeypatch, workers) -> None:
    def no_unit(*args):
        raise AssertionError("a (function, seed) unit ran with an invalid worker count")

    monkeypatch.setattr(runner_mod, "_run_schedules", no_unit)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_grid(_config(), workers=workers)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_design_phase_failure_fails_every_schedule_of_its_pairs_only(monkeypatch, tmp_path, workers) -> None:
    cfg = _config(functions=("f1", "f5"))
    clean = run_grid(cfg)
    evaluate_many = runner_mod.evaluate_many

    def broken(inst, x):
        if inst.function_id == "f5":
            raise FloatingPointError("overflow in the design")
        return evaluate_many(inst, x)

    monkeypatch.setattr(runner_mod, "evaluate_many", broken)
    records = run_grid(cfg, workers=workers)
    assert [(r.function_id, r.schedule_name, r.seed) for r in records] == [
        (r.function_id, r.schedule_name, r.seed) for r in clean
    ]
    healthy = [i for i, r in enumerate(clean) if r.function_id == "f1"]
    assert [_fingerprint(records[i]) for i in healthy] == [_fingerprint(clean[i]) for i in healthy]
    failed = [r for r in records if r.function_id == "f5"]
    assert len(failed) == 4
    assert all(r == CellFailure("f5", r.schedule_name, r.seed, 2, 0, "FloatingPointError: overflow in the design")
               for r in failed)


# Every schedule on one function over a few seeds, long enough for every fork kind.
_TRIE = dict(dim=2, seeds=(0, 1, 2), functions=("f1",), schedules=SCHEDULE_NAMES, doe_size=4, bo_evals=8, gp_restarts=2)


def _fingerprint(record: TrialTrajectory) -> tuple:
    """Every bit a record carries, with the shape of each array."""
    return (
        record.function_id,
        record.schedule_name,
        record.seed,
        record.dim,
        np.float64(record.f_opt).tobytes(),
        record.doe_x.shape,
        record.doe_x.tobytes(),
        record.doe_y.shape,
        record.doe_y.tobytes(),
        [rec.step for rec in record.steps],
        [rec.af for rec in record.steps],
        [(rec.x.shape, rec.x.tobytes()) for rec in record.steps],
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


def _trie_calls(cfg: ExperimentConfig) -> tuple[int, int]:
    """(fits, maximizations) of a clean grid: one per distinct (t-1)- and t-prefix of acquisition choices."""
    fits = maximizations = 0
    for seed in cfg.seeds:
        kinds = [[kind_at(s, t, cfg.bo_evals, seed) for t in range(1, cfg.bo_evals + 1)] for s in cfg.schedules]
        for t in range(1, cfg.bo_evals + 1):
            fits += len({tuple(k[: t - 1]) for k in kinds})
            maximizations += len({tuple(k[:t]) for k in kinds})
    return fits, maximizations


def test_grid_shares_schedule_prefixes_exactly(monkeypatch, per_schedule_trials) -> None:
    cfg = ExperimentConfig(**_TRIE)
    fits, maximizations = _counting(monkeypatch, "fit"), _counting(monkeypatch, "maximize_af")
    records = run_grid(cfg)
    assert [_fingerprint(r) for r in records] == [
        _fingerprint(per_schedule_trials[(sched, seed)]) for sched in cfg.schedules for seed in cfg.seeds
    ]
    expected_fits, expected_maximizations = _trie_calls(cfg)
    steps = len(cfg.schedules) * len(cfg.seeds) * cfg.bo_evals
    assert (len(fits), len(maximizations)) == (expected_fits, expected_maximizations)
    assert expected_fits < expected_maximizations < steps


# The trie-walk property's grids: f1 at d=2, one restart, any subset of schedules and seeds, T <= 6.
_WALK = dict(dim=2, functions=("f1",), doe_size=4, gp_restarts=1)


@functools.lru_cache(maxsize=None)
def _lone_trial(schedule_name: str, seed: int, bo_evals: int) -> tuple:
    """_fingerprint of run_trial; trials are deterministic, so examples that repeat a cell share one run."""
    cfg = ExperimentConfig(seeds=(seed,), schedules=(schedule_name,), bo_evals=bo_evals, **_WALK)
    return _fingerprint(run_trial("f1", schedule_name, seed, cfg))


@settings(max_examples=40)
@given(
    schedules=st.lists(st.sampled_from(SCHEDULE_NAMES), min_size=1, unique=True),
    seeds=st.lists(st.sampled_from((0, 1, 2)), min_size=1, unique=True),
    bo_evals=st.integers(1, 6),
)
def test_the_trie_walk_equals_one_trial_per_schedule(schedules, seeds, bo_evals) -> None:
    # Any subset and order of the schedules: the walk gives every record bit for bit
    # as a lone run of its schedule would, with one fit and one maximization per trie node.
    cfg = ExperimentConfig(seeds=tuple(seeds), schedules=tuple(schedules), bo_evals=bo_evals, **_WALK)
    with pytest.MonkeyPatch.context() as patch:
        fits, maximizations = _counting(patch, "fit"), _counting(patch, "maximize_af")
        records = run_grid(cfg)
    assert [_fingerprint(r) for r in records] == [_lone_trial(s, seed, bo_evals) for s in schedules for seed in seeds]
    assert (len(fits), len(maximizations)) == _trie_calls(cfg)


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
    with pytest.raises(TrialError, match="f1/ee75/seed=1 failed at step 5: forced failure") as caught:
        run_trial("f1", "ee75", 1, cfg)
    # A run_trial in a worker process reaches its caller pickled.
    restored = pickle.loads(pickle.dumps(caught.value))
    assert str(restored) == str(caught.value)
    assert restored.failure == CellFailure("f1", "ee75", 1, 2, step=5, message="forced failure")


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
import ctypes, json, multiprocessing, os
import afsched.gp as gp
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

def ascents(x, y_s, starts, real=gp._ascents):  # the same from the restart helper's ascents
    if multiprocessing.parent_process() is not None:
        raise GpFitError(json.dumps(threads()))
    return real(x, y_s, starts)

def helper_threads(config):
    try:
        runner.run_trial("f1", "ei", 0, config)
    except runner.TrialError as exc:
        return json.loads(exc.failure.message)

if __name__ == "__main__":
    before = threads()
    real_fit, runner.fit = runner.fit, fit  # forked workers inherit the replacement
    config = runner.ExperimentConfig(dim=2, seeds=(0, 1), functions=("f1",), schedules=("ei",))
    records = runner.run_grid(config, workers=2) + runner.run_grid(config, workers=1)
    try:
        runner.run_trial("f1", "ei", 0, config)
    except runner.TrialError as exc:
        records.append(exc.failure)
    runner.fit, gp._ascents = real_fit, ascents  # a spawned helper imports this file for the replacement
    helpers = [helper_threads(config)]
    multiprocessing.set_start_method("spawn", force=True)
    helpers.append(helper_threads(config))
    steps = [json.loads(r.message) for r in records]
    print(json.dumps({"before": before, "steps": steps, "helpers": helpers, "after": threads()}))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="lists loaded libraries through /proc")
def test_trials_run_openblas_on_one_thread_and_restore_it(tmp_path) -> None:
    # A forked and a spawned restart helper each pin their own threads: the
    # script's environment leaves OpenBLAS at its default of one per core.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(afsched.__file__).parents[1])
    script = tmp_path / "blas_threads_in_trials.py"
    script.write_text(_BLAS_THREADS_IN_TRIALS)
    out = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, check=True, timeout=300
    ).stdout
    seen = json.loads(out)
    if not seen["before"]:
        pytest.skip("no scipy-openblas build loaded")
    assert len(seen["steps"]) == 5
    for found in seen["steps"]:
        assert found == dict.fromkeys(seen["before"], 1), seen
    # With one usable CPU there is no helper, and the trials succeed.
    helped = len(os.sched_getaffinity(0)) > 1
    assert seen["helpers"] == [dict.fromkeys(seen["before"], 1) if helped else None] * 2, seen
    assert seen["after"] == seen["before"]


def test_a_trial_with_no_blas_to_pin_gives_the_same_record(monkeypatch) -> None:
    cfg = _config(seeds=(0,), schedules=("ei",))
    pinned = run_trial("f1", "ei", 0, cfg)

    def unreadable(*args, **kwargs):  # as if there were no /proc
        raise OSError("no such file")

    monkeypatch.setattr(runner_mod, "open", unreadable, raising=False)
    assert runner_mod._openblas_thread_controls() == []
    assert _fingerprint(run_trial("f1", "ei", 0, cfg)) == _fingerprint(pinned)


# The restart helper of run_trial: 4 restarts, 2 of them in the helper.
_HELPED = dict(seeds=(0,), schedules=("ei",), gp_restarts=4)

# Tests that patch what a helper runs: it sees the patch only when forked from this process.
_FORKED_HELPER = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or len(os.sched_getaffinity(0)) < 2,
    reason="needs a restart helper forked from the test process",
)


def _serial_path(patch) -> None:
    """Make run_trial fit without its helper."""
    patch.setattr(runner_mod, "_restart_helper", lambda config: contextlib.nullcontext())


def test_run_trial_keeps_one_helper_for_its_walk_and_leaves_no_process_on_return_or_error(monkeypatch) -> None:
    cfg = _config(**_HELPED)
    helpers = []  # the live child processes after each fit
    original_fit = runner_mod.fit

    def fit(*args, **kwargs):
        model = original_fit(*args, **kwargs)
        helpers.append([child.pid for child in multiprocessing.active_children()])
        return model

    monkeypatch.setattr(runner_mod, "fit", fit)
    helped = run_trial("f1", "ei", 0, cfg)
    assert multiprocessing.active_children() == []
    one_helper = [[helpers[0][0]]] * cfg.bo_evals if len(os.sched_getaffinity(0)) > 1 else [[]] * cfg.bo_evals
    assert helpers == one_helper

    with monkeypatch.context() as patch:
        _serial_path(patch)
        assert _fingerprint(run_trial("f1", "ei", 0, cfg)) == _fingerprint(helped)

    original_maximize = runner_mod.maximize_af

    def maximize_af(kind, model, y_min, rng):
        if model.train_x.shape[0] > cfg.doe_size:
            raise FloatingPointError("forced failure")
        return original_maximize(kind, model, y_min, rng)

    monkeypatch.setattr(runner_mod, "maximize_af", maximize_af)
    with pytest.raises(TrialError, match="f1/ei/seed=0 failed at step 2: FloatingPointError: forced failure"):
        run_trial("f1", "ei", 0, cfg)
    assert multiprocessing.active_children() == []


def test_run_trial_in_a_daemonic_process_fits_without_a_helper_and_gives_the_same_record() -> None:
    # A daemonic process may not have children; a pool's workers are daemonic.
    cfg = _config(**_HELPED)
    pool = multiprocessing.get_context("spawn").Pool(1)
    try:
        inside = pool.apply(run_trial, ("f1", "ei", 0, cfg))
    finally:
        pool.close()
        pool.join()
    assert _fingerprint(inside) == _fingerprint(run_trial("f1", "ei", 0, cfg))


@_FORKED_HELPER
def test_an_exception_in_a_helper_ascent_fails_the_step_as_in_the_serial_path(monkeypatch) -> None:
    cfg = _config(**_HELPED)
    real_minimize = gp_mod.minimize
    here = os.getpid()
    starts_here = []

    def recording(fun, x0, bounds, maxiter):
        if os.getpid() == here:
            starts_here.append(x0.tolist())
        return real_minimize(fun, x0, bounds, maxiter)

    with monkeypatch.context() as patch:
        _serial_path(patch)
        patch.setattr(gp_mod, "minimize", recording)
        run_trial("f1", "ei", 0, cfg)
    target = starts_here[cfg.gp_restarts - 1]  # the last start of step 1: the helper's
    starts_here.clear()

    def failing(fun, x0, bounds, maxiter):
        if x0.tolist() == target:
            raise ArithmeticError(f"no ascent from {target}")
        return recording(fun, x0, bounds, maxiter)

    monkeypatch.setattr(gp_mod, "minimize", failing)
    with monkeypatch.context() as patch:
        _serial_path(patch)
        with pytest.raises(TrialError) as serial:
            run_trial("f1", "ei", 0, cfg)
    starts_here.clear()
    with pytest.raises(TrialError) as helped:
        run_trial("f1", "ei", 0, cfg)
    assert target not in starts_here  # it ran in the helper
    assert helped.value.failure == serial.value.failure
    assert serial.value.failure == CellFailure("f1", "ei", 0, 2, step=1, message=f"ArithmeticError: no ascent from {target}")
    assert multiprocessing.active_children() == []


@_FORKED_HELPER
def test_a_helper_that_dies_mid_fit_fails_the_step_and_leaves_no_process(monkeypatch) -> None:
    real_minimize = gp_mod.minimize
    here = os.getpid()

    def dying(fun, x0, bounds, maxiter):
        if os.getpid() != here:
            os._exit(1)
        return real_minimize(fun, x0, bounds, maxiter)

    monkeypatch.setattr(gp_mod, "minimize", dying)
    with pytest.raises(TrialError, match="f1/ei/seed=0 failed at step 1: BrokenProcessPool: "):
        run_trial("f1", "ei", 0, _config(**_HELPED))
    assert multiprocessing.active_children() == []


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


def test_aggregate_skips_failures_and_rejects_mixed_dimensions() -> None:
    trajs = [_synthetic_trajectory([10.0, 0.1], seed=0), _synthetic_trajectory([10.0, 1.0], seed=1)]
    failure = CellFailure("f1", "pi", 0, 2, step=1, message="boom")
    assert aggregate([failure, *trajs]) == aggregate(trajs)
    with pytest.raises(ValueError, match="no successful trajectories to aggregate"):
        aggregate([failure])
    with pytest.raises(ValueError, match=r"mixed dimensions \[2, 3\]"):
        aggregate([trajs[0], dataclasses.replace(trajs[1], dim=3)])


def test_aggregate_names_a_duplicate_cell() -> None:
    trajs = [_synthetic_trajectory([10.0, 1.0], "f5", "pi", seed) for seed in (0, 1)]
    with pytest.raises(ValueError, match=r"duplicate cell \('f5', 'pi', 1\)"):
        aggregate([*trajs, trajs[1]])


def test_aggregate_names_a_cell_group_whose_step_counts_differ() -> None:
    short = [_synthetic_trajectory([10.0, 1.0], seed=s) for s in (0, 1)]
    long = [_synthetic_trajectory([10.0, 1.0, 0.1], seed=s) for s in (2, 3)]
    with pytest.raises(ValueError, match=r"\('f1', 'ei'\) need one step count >= 1; found \[2, 3\]"):
        aggregate(short + long)
    empty = [dataclasses.replace(traj, steps=()) for traj in short]
    with pytest.raises(ValueError, match=r"\('f1', 'ei'\) need one step count >= 1; found \[0\]"):
        aggregate(empty)


# Two function ids outside FUNCTION_IDS, which aggregate sorts after the listed ones by name.
_AGGREGATE_FUNCTIONS = ("f1", "f5", "f16", "zz", "aa")
# Incumbents from exact zeros (clamped to 1e-12) to huge values; negatives also clamp.
_incumbent = st.sampled_from((0.0, -1.0, 1e-300, 1e300)) | st.floats(-1e6, 1e300, allow_nan=False)


@st.composite
def _study(draw) -> list[TrialTrajectory | CellFailure]:
    """Trajectories of >= 2 seeds per (function, schedule), one step count per pair, with failures mixed in."""
    records = []
    for function_id in draw(st.lists(st.sampled_from(_AGGREGATE_FUNCTIONS), min_size=1, max_size=3, unique=True)):
        for schedule_name in draw(st.lists(st.sampled_from(SCHEDULE_NAMES), min_size=1, max_size=3, unique=True)):
            steps = draw(st.integers(1, 5))
            for seed in draw(st.lists(st.integers(-5, 50), min_size=2, max_size=4, unique=True)):
                incumbents = draw(st.lists(_incumbent, min_size=steps, max_size=steps))
                records.append(_synthetic_trajectory(incumbents, function_id, schedule_name, seed))
            if draw(st.booleans()):
                records.append(CellFailure(function_id, schedule_name, 99, 2, step=1, message="boom"))
    return records


@settings(max_examples=60)
@given(records=_study(), data=st.data())
def test_aggregate_is_normalized_and_ignores_record_order(records, data) -> None:
    report = aggregate(records)
    assert all(0.0 <= c.mean <= 1.0 and c.ci_halfwidth >= 0.0 for c in report.curves)
    assert all(0.0 <= f.value <= 1.0 for f in report.finals)
    shuffled = aggregate(data.draw(st.permutations(records)))
    assert (shuffled.curves, shuffled.finals, shuffled.bounds) == (report.curves, report.finals, report.bounds)
    assert aggregate(iter(records)) == report


def test_write_report_orders_rows_and_functions_by_table_rank_with_unlisted_ids_last(tmp_path) -> None:
    # "zz" and "aa" are outside FUNCTION_IDS; "ei" appears under "zz" alone, after every "pi" and "random" row.
    means = {
        ("zz", "pi"): (0.2, 0.1), ("aa", "pi"): (0.5, 0.3), ("zz", "ei"): (0.6, 0.4),
        ("f5", "pi"): (0.9, 0.7), ("f1", "random"): (1.0, 0.8),
    }
    curves = [CurvePoint(*cell, step, values[step - 1], 0.0) for cell, values in means.items() for step in (2, 1)]
    finals = [FinalPoint(*cell, seed, values[1]) for cell, values in means.items() for seed in (3, 0)]
    assert write_report(curves, finals, tmp_path) == ["f1", "f5", "aa", "zz"]
    assert (tmp_path / "curve_zz.csv").read_text().splitlines() == [
        "function,schedule,step,mean_norm_log_regret,ci_halfwidth",
        "zz,ei,1,0.6,0.0",
        "zz,ei,2,0.4,0.0",
        "zz,pi,1,0.2,0.0",
        "zz,pi,2,0.1,0.0",
    ]
    assert (tmp_path / "violin_aa.csv").read_text().splitlines() == [
        "function,schedule,seed,final_norm_log_regret",
        "aa,pi,0,0.3",
        "aa,pi,3,0.3",
    ]
    per_function = [f"{prefix}_{fid}.csv" for prefix in ("curve", "violin") for fid in ("f1", "f5", "aa", "zz")]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["average_curve.csv", *per_function])
    # Each schedule's mean over the functions that ran it, summed in table order.
    assert (tmp_path / "average_curve.csv").read_text().splitlines() == [
        "schedule,step,mean_norm_log_regret",
        "ei,1,0.6",
        "ei,2,0.4",
        f"pi,1,{(0.9 + 0.5 + 0.2) / 3}",
        f"pi,2,{(0.7 + 0.3 + 0.1) / 3}",
        "random,1,1.0",
        "random,2,0.8",
    ]


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


# Floats that JSON round trips must keep: signed zero, the subnormal range and the ends of the finite range.
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -1e-310, -2.2250738585072014e-308, 1e-300, 1e16, 1e308, -1e308, 1.7976931348623157e308)
_SEED_ENDS = (-(2**63), 2**63 - 1)
_finite = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _record(draw) -> TrialTrajectory | CellFailure:
    function_id = draw(st.sampled_from(afsched.FUNCTION_IDS))
    schedule_name = draw(st.sampled_from(SCHEDULE_NAMES))
    seed = draw(st.sampled_from(_SEED_ENDS) | st.integers(-(2**63), 2**63 - 1))
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return CellFailure(function_id, schedule_name, seed, dim, draw(st.integers(0, 5)), draw(st.text(max_size=20)))

    def points(n: int) -> np.ndarray:
        return np.array(draw(st.lists(_finite, min_size=n * dim, max_size=n * dim))).reshape(n, dim)

    n_doe, n_steps = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    xs = points(n_steps)
    return TrialTrajectory(
        function_id=function_id,
        schedule_name=schedule_name,
        seed=seed,
        dim=dim,
        f_opt=draw(_finite),
        doe_x=points(n_doe),
        doe_y=np.array(draw(st.lists(_finite, min_size=n_doe, max_size=n_doe))),
        steps=tuple(
            StepRecord(t + 1, draw(st.sampled_from(AcquisitionKind)), xs[t], draw(_finite), draw(_finite))
            for t in range(n_steps)
        ),
    )


def _edge_records() -> list[TrialTrajectory | CellFailure]:
    """Every edge value and both seed ends in one file, next to a failure and a trajectory without steps."""
    x = np.array(_EDGE_FLOATS[:8]).reshape(4, 2)
    steps = tuple(StepRecord(t + 1, AcquisitionKind.PI, x[t], v, -v) for t, v in enumerate(_EDGE_FLOATS[-4:]))
    return [
        TrialTrajectory("f1", "ee25", _SEED_ENDS[0], 2, -0.0, x, np.array(_EDGE_FLOATS[-4:]), steps),
        TrialTrajectory("f5", "pi", _SEED_ENDS[1], 2, 5e-324, x[:1], np.array([1e308]), ()),
        CellFailure("f16", "random", _SEED_ENDS[1], 2, 0, "ValueError: caf\u00e9 \U0001f600"),
    ]


@settings(max_examples=60)
@given(records=st.lists(_record(), max_size=4))
@example(records=_edge_records())
def test_records_round_trip_bit_for_bit(tmp_path_factory, records) -> None:
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    write_records(records, path)
    loaded = read_records(path)
    assert len(loaded) == len(records)
    # run_grid's workers return their records pickled.
    for original, restored, unpickled in zip(records, loaded, pickle.loads(pickle.dumps(records))):
        if isinstance(original, CellFailure):
            assert restored == unpickled == original
        else:
            assert _fingerprint(restored) == _fingerprint(unpickled) == _fingerprint(original)


def test_a_step_record_has_no_instance_dict_and_stays_frozen() -> None:
    (step,) = _synthetic_trajectory([0.5]).steps
    assert not hasattr(step, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.y = 1.0
    assert dataclasses.replace(step, y=1.0).y == 1.0 and step.y == 0.5


@pytest.mark.parametrize("enabled", [True, False])
def test_read_records_pauses_the_cyclic_collector_and_leaves_it_as_it_found_it(tmp_path, monkeypatch, enabled) -> None:
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_records(_spelling_records(), good)
    bad.write_bytes(good.read_bytes() + b'{"function":"f1"}\n')
    seen = []
    build = runner_mod._record_from_json

    def record_from_json(payload):
        seen.append(gc.isenabled())
        return build(payload)

    monkeypatch.setattr(runner_mod, "_record_from_json", record_from_json)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(read_records(good)) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="bad.jsonl:3: missing field 'schedule'"):
            read_records(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False] * 5


@pytest.mark.parametrize("enabled", [True, False])
def test_iter_records_leaves_the_cyclic_collector_as_it_finds_it_even_when_abandoned(tmp_path, enabled) -> None:
    bad = tmp_path / "bad.jsonl"
    write_records(_spelling_records(), bad)
    bad.write_bytes(bad.read_bytes() + b'{"function":"f1"}\n')
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        stream = iter_records(bad)
        assert [record.function_id for record in itertools.islice(stream, 2)] == ["f1", "f5"]
        assert gc.isenabled() is enabled  # the generator is suspended mid-file
        with pytest.raises(ValueError, match="bad.jsonl:3: missing field 'schedule'"):
            next(stream)
        abandoned = iter_records(bad)
        next(abandoned)
        del abandoned
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def _spelling_records() -> list[TrialTrajectory | CellFailure]:
    """A trajectory whose floats json.dumps and orjson spell differently, and a failure with a non-ASCII message."""
    steps = (
        StepRecord(1, AcquisitionKind.EI, np.array([0.5, -1.25]), 1e-05, 1e-05),
        StepRecord(2, AcquisitionKind.PI, np.array([3.0, 4.0]), 7.0, 1e-05),
    )
    doe_x = np.array([[1e-05, -0.0], [1e16, 2.5]])
    return [
        TrialTrajectory("f1", "ei", 3, 2, 0.0, doe_x, np.array([0.1, 1e16]), steps),
        CellFailure("f5", "ee25", 4, 2, 1, "GpFitError: café"),
    ]


def test_written_bytes_are_pinned(tmp_path) -> None:
    path = tmp_path / "records.jsonl"
    write_records(_spelling_records(), path)
    assert path.read_bytes() == (
        b'{"af":["ei","pi"],"dim":2,"doe_x":[[0.00001,-0.0],[1e16,2.5]],"doe_y":[0.1,1e16],"f_opt":0.0,'
        b'"function":"f1","incumbent":[0.00001,0.00001],"schedule":"ei","seed":3,'
        b'"x":[[0.5,-1.25],[3.0,4.0]],"y":[0.00001,7.0]}\n'
        b'{"dim":2,"error":{"message":"GpFitError: caf\xc3\xa9","step":1},"function":"f5","schedule":"ee25","seed":4}\n'
    )


def test_files_in_the_json_dumps_spelling_still_read(tmp_path) -> None:
    records = _spelling_records()
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(runner_mod._record_to_json(r), sort_keys=True) + "\n" for r in records))
    write_records(records, new)
    text = old.read_text()
    assert "1e-05" in text and "1e+16" in text and "-0.0" in text and "\\u00e9" in text
    from_old, from_new = read_records(old), read_records(new)
    assert _fingerprint(from_old[0]) == _fingerprint(from_new[0]) == _fingerprint(records[0])
    assert from_old[1] == from_new[1] == records[1]


def test_numpy_scalars_are_written_as_numbers(tmp_path) -> None:
    (plain, _) = _spelling_records()
    steps = tuple(dataclasses.replace(s, y=np.float64(s.y), incumbent=np.float64(s.incumbent)) for s in plain.steps)
    numpy = dataclasses.replace(plain, f_opt=np.float64(plain.f_opt), steps=steps)
    plain_path, numpy_path = tmp_path / "plain.jsonl", tmp_path / "numpy.jsonl"
    write_records([plain], plain_path)
    write_records([numpy], numpy_path)
    assert numpy_path.read_bytes() == plain_path.read_bytes()
    (restored,) = read_records(numpy_path)
    assert _fingerprint(restored) == _fingerprint(numpy)


def test_a_record_without_an_exact_json_form_names_its_cell_and_leaves_no_file(tmp_path) -> None:
    (good, failure) = _spelling_records()
    inf_doe_x = good.doe_x.copy()
    inf_doe_x[1, 0] = np.inf
    cases = [
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], y=float("nan")),)),
         "f1/ei/seed=3: y holds a non-finite value"),
        (dataclasses.replace(good, doe_x=inf_doe_x), "f1/ei/seed=3: doe_x holds a non-finite value"),
        (dataclasses.replace(failure, message="bad \udcff byte"), "f5/ee25/seed=4: str is not valid UTF-8"),
        (dataclasses.replace(failure, seed=2**64), f"f5/ee25/seed={2**64}: Integer exceeds 64-bit range"),
        # Lines that read_records would reject, and records that have no line at all.
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], y="1e3"),)),
         "f1/ei/seed=3: y must hold JSON numbers, found '1e3'"),
        (dataclasses.replace(good, seed=True), "f1/ei/seed=True: seed must be a JSON integer, found True"),
        (dataclasses.replace(good, function_id=7), "7/ei/seed=3: function must be a JSON string, found 7"),
        (dataclasses.replace(good, dim=3), "f1/ei/seed=3: doe_x has rows of length [2], but dim is 3"),
        (dataclasses.replace(failure, step=1.0), "f5/ee25/seed=4: error step must be a JSON integer, found 1.0"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], af="ei"),)),
         "f1/ei/seed=3: 'str' object has no attribute 'value'"),
        (dataclasses.replace(good, doe_x=good.doe_x.tolist()), "f1/ei/seed=3: 'list' object has no attribute 'tolist'"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], x=[0.5, -1.25]),)),
         "f1/ei/seed=3: 'list' object has no attribute 'tolist'"),
        # Records whose line would read back changed: steps not numbered 1..T, and integers where floats belong.
        (dataclasses.replace(good, steps=tuple(dataclasses.replace(s, step=s.step + 4) for s in good.steps)),
         "f1/ei/seed=3: steps must be numbered 1..2, found [5, 6]"),
        (dataclasses.replace(good, f_opt=0),
         "f1/ei/seed=3: f_opt holds the integer 0, which would read back as a float"),
        (dataclasses.replace(good, f_opt=np.int64(0)), "f1/ei/seed=3: f_opt holds the integer 0"),
        (dataclasses.replace(good, doe_x=np.array([[1, 0], [7, 2]])), "f1/ei/seed=3: doe_x holds the integer 1"),
        (dataclasses.replace(good, doe_y=np.array([1, 16], dtype=np.uint8)), "f1/ei/seed=3: doe_y holds the integer 1"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], x=np.array([0, -1])),)),
         "f1/ei/seed=3: x holds the integer 0"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], y=1000),)),
         "f1/ei/seed=3: y holds the integer 1000"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], incumbent=np.int32(2)),)),
         "f1/ei/seed=3: incumbent holds the integer 2"),
        # Floats of another width than float64's, which they would read back as.
        (dataclasses.replace(good, doe_x=good.doe_x.astype(np.float32)),
         "f1/ei/seed=3: doe_x holds float32 values, which would read back as float64"),
        (dataclasses.replace(good, doe_y=good.doe_y.astype(">f4")), "f1/ei/seed=3: doe_y holds float32 values"),
        (dataclasses.replace(good, doe_y=np.array([0.5, 2.5], dtype=np.float16)),
         "f1/ei/seed=3: doe_y holds float16 values"),
        (dataclasses.replace(good, steps=(dataclasses.replace(good.steps[0], x=good.steps[0].x.astype(np.longdouble)),)),
         f"f1/ei/seed=3: x holds {np.dtype(np.longdouble).name} values"),
        # Python floats in an object array: they read back as a float64 array.
        (dataclasses.replace(good, doe_x=np.array([[0.1, 0.2], [0.3, 0.4]], dtype=object)),
         "f1/ei/seed=3: doe_x holds object values, which would read back as float64"),
    ]
    path = tmp_path / "records.jsonl"
    for bad, message in cases:
        with pytest.raises(ValueError) as caught:
            write_records([good, bad, failure], path)
        assert str(caught.value).startswith(message)
        assert not path.exists()
    # A string that spells null sends the line to the finite check, which it passes.
    write_records([dataclasses.replace(good, function_id="null"), dataclasses.replace(failure, message="null")], path)
    assert [r.function_id for r in read_records(path)] == ["null", "f5"]


# Values of another kind than their field's: a string, booleans, None, a list, an int, numpy scalars, then a float32
# and an object array.
_STRAYS = (
    "1e3", True, np.True_, None, [0.5], 3, np.float64(0.5), np.float32(0.5), np.int64(3), np.str_("ei"),
    np.array([0.5, 0.1], dtype=np.float32), np.array([0.5, 0.1], dtype=object),
)
_HEADER_ATTRS = ("function_id", "schedule_name", "seed", "dim")
_STEP_ATTRS = ("af", "x", "y", "incumbent")


class _Drawn:
    """Stands in for st.data() in an explicit example: each draw returns the next of the given values."""

    def __init__(self, *values) -> None:
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@settings(max_examples=150)
@given(record=_record(), data=st.data())
@example(record=_synthetic_trajectory([0.5]), data=_Drawn("y", 3, 0))  # a lone int step value reads back as 3.0
@example(record=_synthetic_trajectory([0.5]), data=_Drawn("incumbent", 3, 0))
@example(record=_synthetic_trajectory([0.5]), data=_Drawn("x", _STRAYS[-2], 0))  # reads back as float64
@example(record=_synthetic_trajectory([0.5]), data=_Drawn("doe_y", _STRAYS[-1]))  # reads back as float64
def test_what_the_writer_accepts_the_reader_reads_bit_for_bit(tmp_path_factory, record, data) -> None:
    if isinstance(record, CellFailure):
        attrs = (*_HEADER_ATTRS, "step", "message")
    else:
        attrs = (*_HEADER_ATTRS, "f_opt", "doe_x", "doe_y") + (_STEP_ATTRS if record.steps else ())
    attr, stray = data.draw(st.sampled_from(attrs)), data.draw(st.sampled_from(_STRAYS))
    if attr in _STEP_ATTRS:  # one step's value
        steps = list(record.steps)
        t = data.draw(st.integers(0, len(steps) - 1))
        steps[t] = dataclasses.replace(steps[t], **{attr: stray})
        bad = dataclasses.replace(record, steps=tuple(steps))
    else:
        bad = dataclasses.replace(record, **{attr: stray})
    path = tmp_path_factory.getbasetemp() / "stray.jsonl"
    try:
        write_records([bad], path)
    except ValueError as exc:
        assert str(exc).startswith(f"{bad.function_id}/{bad.schedule_name}/seed={bad.seed}: ")
        assert not path.exists()
        return
    (restored,) = read_records(path)
    if isinstance(bad, CellFailure):
        assert restored == bad
    else:
        assert _fingerprint(restored) == _fingerprint(bad)
