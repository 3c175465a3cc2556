"""Each output check passes on a good output and fails on a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import shutil
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
from afsched import ExperimentConfig, cli, runner  # noqa: E402

GRID = ExperimentConfig(dim=2, seeds=(0,), functions=("f1", "f5"), doe_size=6, bo_evals=8, gp_restarts=1)
STUDY = ExperimentConfig(dim=2, seeds=(0, 1, 2), functions=("f1", "f5"), doe_size=6, bo_evals=10)


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    runner.write_records(runner.run_grid(GRID), out / "trajectories.jsonl")
    return out


@pytest.fixture()
def records(grid_dir):
    return checks.read_jsonl(grid_dir / "trajectories.jsonl")


def _cell(records, function, schedule):
    return next(r for r in records if (r["function"], r["schedule"]) == (function, schedule))


def _lenient_baseline(records):
    """A random-search best above every f1 final regret, so only corruption fails."""
    return {r["seed"]: 2.0 * max(x["incumbent"][-1] for x in records) + 1.0 for r in records}


def test_good_grid_output_passes_every_check(records):
    assert checks.check_trajectories(records, 2, 6, 8, _lenient_baseline(records)) == []


def test_incumbent_that_is_not_a_running_minimum(records):
    rec = _cell(records, "f5", "ei")
    rec["incumbent"][3] = rec["incumbent"][3] + 1.0
    assert checks.check_incumbents(records)


def test_flipped_af_entry(records):
    rec = _cell(records, "f1", "ee50")
    rec["af"][0] = "pi"
    assert checks.check_schedules(records)


def test_lhs_column_with_two_points_in_one_stratum(records):
    rec = _cell(records, "f1", "pi")
    rec["doe_x"][1][0] = rec["doe_x"][0][0]
    assert checks.check_lhs(records)


def test_point_outside_the_domain(records):
    _cell(records, "f5", "random")["x"][2][1] = 5.0 + 1e-9
    assert checks.check_domain(records)


def test_negative_regret(records):
    _cell(records, "f1", "round_robin")["y"][0] = -1e-9
    assert checks.check_regret(records)


def test_design_not_shared_across_functions(records):
    rec = _cell(records, "f5", "ee75")
    rec["doe_x"][0][0] = float(np.nextafter(rec["doe_x"][0][0], 0.0))
    assert checks.check_shared_design(records)


def test_step_inside_the_shared_prefix_differs_from_ei(records):
    rec = _cell(records, "f1", "ee75")
    rec["x"][0][0] = float(np.nextafter(rec["x"][0][0], 0.0))
    assert checks.check_prefixes(records)


def test_final_regret_not_below_random_search(records):
    baseline = _lenient_baseline(records)
    assert checks.check_beats_random_search(records, baseline) == []
    rec = _cell(records, "f1", "ei")
    rec["incumbent"][-1] = baseline[rec["seed"]] + 1.0
    assert checks.check_beats_random_search(records, baseline)


def test_changed_byte_in_one_of_two_trajectory_files(grid_dir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    shutil.copy(grid_dir / "trajectories.jsonl", a)
    shutil.copy(grid_dir / "trajectories.jsonl", b)
    assert checks.check_identical_files(a, b) == []
    data = bytearray(b.read_bytes())
    at = data.index(b"0.", len(data) // 2)
    data[at + 2] = ord("9") if data[at + 2] != ord("9") else ord("8")
    b.write_bytes(bytes(data))
    assert checks.check_identical_files(a, b)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    records = run.synthetic_study(STUDY, seed=3)
    (out / "in").mkdir()
    runner.write_records(records, out / "in" / "trajectories.jsonl")
    assert cli.main(["aggregate", "--in", str(out / "in"), "--out", str(out / "agg")]) == 0
    assert cli.main(["report", "--agg", str(out / "agg"), "--out", str(out / "report")]) == 0
    reference = checks.reference_tables(
        {(r.function_id, r.schedule_name, r.seed): [s.incumbent for s in r.steps] for r in records}
    )
    return out, records, reference


def test_synthetic_study_uses_the_regret_clamp(study):
    _, records, _ = study
    assert any(r.final_incumbent == 0.0 for r in records)


def test_good_tables_pass(study):
    out, _, reference = study
    assert checks.check_tables(reference, out / "agg", out / "report") == []


@pytest.mark.parametrize(
    "table, column", [("agg/curves.csv", 3), ("agg/finals.csv", 3), ("report/average_curve.csv", 2)]
)
def test_table_value_moved_by_1e_9(study, tmp_path, table, column):
    out, _, reference = study
    shutil.copytree(out, tmp_path / "copy")
    path = tmp_path / "copy" / table
    header, *rows = path.read_text().splitlines()
    fields = rows[5].split(",")
    fields[column] = repr(float(fields[column]) + 1e-9)
    rows[5] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")
    assert checks.check_tables(reference, tmp_path / "copy" / "agg", tmp_path / "copy" / "report")


def test_read_back_float_that_differs(study):
    _, records, _ = study
    assert run.check_roundtrip(records, records) == []
    changed = copy.copy(records)
    rec = changed[4]
    doe_y = rec.doe_y.copy()
    doe_y[0] = np.nextafter(doe_y[0], np.inf)
    changed[4] = runner.TrialTrajectory(
        rec.function_id, rec.schedule_name, rec.seed, rec.dim, rec.f_opt, rec.doe_x, doe_y, rec.steps
    )
    assert run.check_roundtrip(records, changed)
