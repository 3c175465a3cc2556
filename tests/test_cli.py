from __future__ import annotations

import argparse
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import afsched.cli as cli_mod
import afsched.gp as gp_mod
import afsched.runner as runner_mod
from afsched.cli import _parse_seeds, main
from afsched.acquisition import AcquisitionKind
from afsched.runner import CellFailure, ExperimentConfig, StepRecord, TrialTrajectory, read_records, write_records

_RUN_FAST = ["--doe", "4", "--evals", "3", "--gp-restarts", "2"]


def _run(out_dir, schedules="ei,ee50", seeds="0..3", functions="f1"):
    return main(
        [
            "run",
            "--dim",
            "2",
            "--functions",
            functions,
            "--schedules",
            schedules,
            "--seeds",
            seeds,
            "--out",
            str(out_dir),
            *_RUN_FAST,
        ]
    )


def test_seed_parsing_half_open_and_lists() -> None:
    assert _parse_seeds("0..3") == (0, 1, 2)
    assert _parse_seeds("5..6") == (5,)
    assert _parse_seeds("3,9,1") == (3, 9, 1)


@given(lo=st.integers(-(2**63), 2**63), length=st.integers(-3, 40))
def test_seed_range_is_the_half_open_range(lo, length) -> None:
    text = f"{lo}..{lo + length}"
    if length > 0:
        assert _parse_seeds(text) == tuple(range(lo, lo + length))
    else:
        with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
            _parse_seeds(text)


@given(seeds=st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=8))
def test_seed_list_parses_to_its_integers_in_order(seeds) -> None:
    assert _parse_seeds(",".join(map(str, seeds))) == tuple(seeds)


def test_run_writes_one_record_per_cell(tmp_path, capsys) -> None:
    assert _run(tmp_path / "runs") == 0
    records = read_records(tmp_path / "runs" / "trajectories.jsonl")
    assert len(records) == 6  # 1 function x 2 schedules x 3 seeds
    assert not any(isinstance(r, CellFailure) for r in records)
    out = capsys.readouterr().out
    assert out.count("seed=") == 6


def test_run_rejects_unknown_schedule(tmp_path, capsys) -> None:
    code = main(
        [
            "run",
            "--dim",
            "2",
            "--functions",
            "f1",
            "--schedules",
            "ee30",
            "--seeds",
            "0..2",
            "--out",
            str(tmp_path / "runs"),
        ]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "ei|pi|random|round_robin|ee25|ee50|ee75" in err


def test_aggregate_requires_trajectory_files(tmp_path, capsys) -> None:
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["aggregate", "--in", str(empty), "--out", str(tmp_path / "agg")]) != 0
    assert "no trajectory files" in capsys.readouterr().err


def test_aggregate_names_a_cell_that_two_files_hold(tmp_path, capsys) -> None:
    runs = tmp_path / "runs"
    assert _run(runs, schedules="ei") == 0
    (runs / "copy.jsonl").write_bytes((runs / "trajectories.jsonl").read_bytes())
    assert main(["aggregate", "--in", str(runs), "--out", str(tmp_path / "agg")]) == 1
    assert "error: duplicate cell ('f1', 'ei', 0)" in capsys.readouterr().err
    assert not (tmp_path / "agg").exists()


def test_aggregate_warns_of_a_function_whose_log_regrets_are_all_equal(tmp_path, capsys) -> None:
    # Every incumbent is the optimum, so every log-regret is the clamp's.
    step = StepRecord(1, AcquisitionKind.EI, np.zeros(2), 0.0, 0.0)
    found = [TrialTrajectory("f5", "ei", seed, 2, 0.0, np.zeros((2, 2)), np.ones(2), (step,)) for seed in (0, 1)]
    runs = tmp_path / "runs"
    runs.mkdir()
    write_records(found, runs / "found.jsonl")
    assert main(["aggregate", "--in", str(runs), "--out", str(tmp_path / "agg")]) == 0
    assert "warning: degenerate normalization (all values equal) for: f5\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "agg" / "meta.json").read_text())["degenerate"] == ["f5"]


def test_aggregate_rejects_mixed_dimensions(tmp_path, capsys) -> None:
    runs = tmp_path / "runs"
    assert _run(runs) == 0
    assert (
        main(
            [
                "run",
                "--dim",
                "3",
                "--functions",
                "f1",
                "--schedules",
                "ei",
                "--seeds",
                "0..2",
                "--out",
                str(tmp_path / "runs3"),
                *_RUN_FAST,
            ]
        )
        == 0
    )
    merged = tmp_path / "merged"
    merged.mkdir()
    (merged / "a.jsonl").write_bytes((runs / "trajectories.jsonl").read_bytes())
    (merged / "b.jsonl").write_bytes((tmp_path / "runs3" / "trajectories.jsonl").read_bytes())
    assert main(["aggregate", "--in", str(merged), "--out", str(tmp_path / "agg")]) != 0
    assert "mixed dimensions" in capsys.readouterr().err


def test_aggregate_tables_and_idempotence(tmp_path) -> None:
    runs = tmp_path / "runs"
    assert _run(runs, schedules="ei,pi", functions="f1,f5") == 0
    agg1, agg2 = tmp_path / "agg1", tmp_path / "agg2"
    assert main(["aggregate", "--in", str(runs), "--out", str(agg1)]) == 0
    assert main(["aggregate", "--in", str(runs), "--out", str(agg2)]) == 0
    curves = (agg1 / "curves.csv").read_text().splitlines()
    assert curves[0] == "function,schedule,step,mean_norm_log_regret,ci_halfwidth"
    assert len(curves) == 1 + 2 * 2 * 3  # header + functions x schedules x steps
    finals = (agg1 / "finals.csv").read_text().splitlines()
    assert finals[0] == "function,schedule,seed,final_norm_log_regret"
    assert len(finals) == 1 + 2 * 2 * 3  # header + functions x schedules x seeds
    for name in ("curves.csv", "finals.csv", "meta.json"):
        assert (agg1 / name).read_bytes() == (agg2 / name).read_bytes()


def test_report_single_function_average_equals_curve(tmp_path) -> None:
    runs = tmp_path / "runs"
    assert _run(runs, schedules="ei,pi") == 0
    agg = tmp_path / "agg"
    assert main(["aggregate", "--in", str(runs), "--out", str(agg)]) == 0
    rep = tmp_path / "report"
    assert main(["report", "--agg", str(agg), "--out", str(rep)]) == 0

    curve_rows = (rep / "curve_f1.csv").read_text().splitlines()[1:]
    avg_rows = (rep / "average_curve.csv").read_text().splitlines()[1:]
    assert len(curve_rows) == len(avg_rows)
    for crow, arow in zip(curve_rows, avg_rows):
        _, sched_c, step_c, mean_c, _ = crow.split(",")
        sched_a, step_a, mean_a = arow.split(",")
        assert (sched_c, step_c) == (sched_a, step_a)
        assert float(mean_c) == float(mean_a)
    assert (rep / "violin_f1.csv").exists()


def test_report_averages_across_functions_in_table_order(tmp_path) -> None:
    runs = tmp_path / "runs"
    assert _run(runs, schedules="pi,ei", functions="f5,f1") == 0
    agg = tmp_path / "agg"
    assert main(["aggregate", "--in", str(runs), "--out", str(agg)]) == 0
    rep = tmp_path / "report"
    assert main(["report", "--agg", str(agg), "--out", str(rep)]) == 0

    f1_rows = (rep / "curve_f1.csv").read_text().splitlines()[1:]
    f5_rows = (rep / "curve_f5.csv").read_text().splitlines()[1:]
    avg_rows = (rep / "average_curve.csv").read_text().splitlines()[1:]
    # Schedules come out in canonical table order regardless of request order.
    assert [r.split(",")[0] for r in avg_rows] == ["ei"] * 3 + ["pi"] * 3
    for row1, row5, avg in zip(f1_rows, f5_rows, avg_rows):
        m1, m5 = float(row1.split(",")[3]), float(row5.split(",")[3])
        assert float(avg.split(",")[2]) == (m1 + m5) / 2.0


def test_report_files_split_the_aggregate_tables_by_function(tmp_path) -> None:
    runs = tmp_path / "runs"
    assert _run(runs, schedules="pi,ei", functions="f5,f1") == 0
    agg, rep = tmp_path / "agg", tmp_path / "report"
    assert main(["aggregate", "--in", str(runs), "--out", str(agg)]) == 0
    assert main(["report", "--agg", str(agg), "--out", str(rep)]) == 0
    for table, prefix in (("curves.csv", "curve"), ("finals.csv", "violin")):
        header, *body = (agg / table).read_text().splitlines()
        parts = [(rep / f"{prefix}_{fid}.csv").read_text().splitlines() for fid in ("f1", "f5")]
        assert all(part[0] == header for part in parts)
        assert [row for part in parts for row in part[1:]] == body


def test_run_builds_the_config_from_every_flag_and_the_config_defaults(tmp_path, monkeypatch) -> None:
    grids = []

    def run_grid(config, workers, progress):
        grids.append((config, workers))
        return []

    monkeypatch.setattr(cli_mod, "run_grid", run_grid)
    required = ["--dim", "3", "--functions", "f16,f5", "--schedules", "pi,ee75", "--seeds", "4..6"]
    optional = ["--doe", "7", "--evals", "5", "--gp-restarts", "3", "--workers", "2"]
    main(["run", *required, *optional, "--out", str(tmp_path / "a")])
    main(["run", *required, "--out", str(tmp_path / "b")])
    grid = dict(dim=3, seeds=(4, 5), functions=("f16", "f5"), schedules=("pi", "ee75"))
    assert grids == [
        (ExperimentConfig(**grid, doe_size=7, bo_evals=5, gp_restarts=3), 2),
        (ExperimentConfig(**grid), 1),
    ]


def test_run_exits_nonzero_when_every_cell_fails(tmp_path, monkeypatch, capsys) -> None:
    def all_failures(config, workers=1, progress=None):
        records = [
            CellFailure(f, s, seed, config.dim, step=1, message="forced")
            for f in config.functions
            for s in config.schedules
            for seed in config.seeds
        ]
        if progress is not None:
            for r in records:
                progress(r)
        return records

    monkeypatch.setattr(cli_mod, "run_grid", all_failures)
    assert _run(tmp_path / "runs") == 1
    assert "every cell failed" in capsys.readouterr().err
    # The failures are still recorded in the output file.
    records = read_records(tmp_path / "runs" / "trajectories.jsonl")
    assert all(isinstance(r, CellFailure) for r in records)


def _forbid_compute(monkeypatch) -> None:
    def run_grid(*args, **kwargs):
        raise AssertionError("run_grid called on an invalid grid")

    monkeypatch.setattr(cli_mod, "run_grid", run_grid)


def test_run_rejects_empty_function_list(tmp_path, monkeypatch, capsys) -> None:
    _forbid_compute(monkeypatch)
    assert _run(tmp_path / "runs", functions="") == 2
    assert "functions must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_duplicate_seeds(tmp_path, monkeypatch, capsys) -> None:
    _forbid_compute(monkeypatch)
    assert _run(tmp_path / "runs", seeds="0,0,1") == 2
    assert "duplicate seeds: 0" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_a_seed_outside_signed_64_bits(tmp_path, monkeypatch, capsys) -> None:
    _forbid_compute(monkeypatch)
    assert _run(tmp_path / "runs", seeds=f"0,{2**63}") == 2
    assert f"error: seeds must lie in [-2**63, 2**63); found {2**63}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_fails_before_any_cell_when_the_lbfgsb_binding_is_broken(tmp_path, monkeypatch, capsys) -> None:
    def setulb(*args):
        raise TypeError("setulb() takes 16 positional arguments but 17 were given")

    _forbid_compute(monkeypatch)
    monkeypatch.setattr(gp_mod, "setulb", setulb)
    assert _run(tmp_path / "runs") == 2
    err = capsys.readouterr().err
    assert "error: scipy's L-BFGS-B binding setulb fails on a 2-d quadratic: TypeError: setulb() takes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_run_fails_before_any_cell_when_the_lbfgsb_binding_misses_the_minimum(tmp_path, monkeypatch, capsys) -> None:
    _forbid_compute(monkeypatch)
    monkeypatch.setattr(gp_mod, "setulb", lambda *args: None)  # returns without a step or a stop
    assert _run(tmp_path / "runs") == 2
    assert "error: scipy's L-BFGS-B binding setulb misses the minimum of a 2-d quadratic" in capsys.readouterr().err


def test_run_rejects_an_output_path_that_is_a_file(tmp_path, monkeypatch, capsys) -> None:
    _forbid_compute(monkeypatch)
    out = tmp_path / "runs"
    out.write_text("not a directory\n")
    assert _run(out) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_run_rejects_an_unwritable_trajectory_file_before_any_cell(tmp_path, monkeypatch, capsys) -> None:
    def no_unit(*args):
        raise AssertionError("a (function, seed) unit ran with an unwritable output file")

    monkeypatch.setattr(runner_mod, "_run_schedules", no_unit)
    out = tmp_path / "runs"
    (out / "trajectories.jsonl").mkdir(parents=True)
    assert _run(out) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out / 'trajectories.jsonl'}" in captured.err
    assert "Traceback" not in captured.err
    assert (out / "trajectories.jsonl").is_dir()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_a_worker_count_below_one(tmp_path, monkeypatch, capsys, workers) -> None:
    def no_unit(*args):
        raise AssertionError("a (function, seed) unit ran with an invalid worker count")

    monkeypatch.setattr(runner_mod, "_run_schedules", no_unit)
    args = ["run", "--dim", "2", "--functions", "f1", "--schedules", "ei", "--seeds", "0..2"]
    assert main(args + ["--out", str(tmp_path / "runs"), "--workers", workers, *_RUN_FAST]) == 2
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "trajectories.jsonl").exists()


def test_run_reports_a_write_failure_after_the_grid(tmp_path, monkeypatch, capsys) -> None:
    def write_records(records, path):
        raise OSError(f"disk full writing {path}")

    monkeypatch.setattr(cli_mod, "write_records", write_records)
    assert _run(tmp_path / "runs") == 2
    captured = capsys.readouterr()
    assert f"error: disk full writing {tmp_path / 'runs' / 'trajectories.jsonl'}" in captured.err
    assert "Traceback" not in captured.err


def test_run_reports_a_record_it_cannot_write(tmp_path, monkeypatch, capsys) -> None:
    def run_grid(config, workers, progress):
        (record,) = runner_mod.run_grid(config, workers=workers)
        return [dataclasses.replace(record, f_opt=float("inf"))]

    monkeypatch.setattr(cli_mod, "run_grid", run_grid)
    assert _run(tmp_path / "runs", schedules="ei", seeds="3..4") == 2
    captured = capsys.readouterr()
    assert "error: f1/ei/seed=3: f_opt holds a non-finite value" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "runs" / "trajectories.jsonl").exists()


def test_run_worker_invariance_bytes(tmp_path) -> None:
    a, b = tmp_path / "w1", tmp_path / "w2"
    args = [
        "run",
        "--dim",
        "2",
        "--functions",
        "f1",
        "--schedules",
        "ei,pi",
        "--seeds",
        "0..2",
        *_RUN_FAST,
    ]
    assert main(args + ["--out", str(a), "--workers", "1"]) == 0
    assert main(args + ["--out", str(b), "--workers", "4"]) == 0
    assert (a / "trajectories.jsonl").read_bytes() == (b / "trajectories.jsonl").read_bytes()


def test_report_rejects_short_csv_rows(tmp_path, capsys) -> None:
    curves_header = "function,schedule,step,mean_norm_log_regret,ci_halfwidth\n"
    finals_header = "function,schedule,seed,final_norm_log_regret\n"
    cases = [
        (curves_header + "f1,ei,1,0.5\n", finals_header, "{agg}/curves.csv:2: expected 5 fields, found 4"),
        (curves_header, finals_header + "f1,ei,0,0.5\nf1,ei\n", "{agg}/finals.csv:3: expected 4 fields, found 2"),
        (
            curves_header + "f1,ei,1,abc,0.1\n",
            finals_header,
            "{agg}/curves.csv:2: could not convert string to float: 'abc'",
        ),
        (
            curves_header,
            finals_header + "f1,ei,0,0.5\n",
            "curves and finals name different functions; in only one of them: f1",
        ),
        (
            curves_header.replace("step", "t"),
            finals_header,
            "{agg}/curves.csv: expected columns ('function', 'schedule', 'step', 'mean_norm_log_regret', 'ci_halfwidth'),"
            " found ('function', 'schedule', 't', 'mean_norm_log_regret', 'ci_halfwidth')",
        ),
    ]
    for i, (curves, finals, message) in enumerate(cases):
        agg = tmp_path / f"agg{i}"
        agg.mkdir()
        (agg / "curves.csv").write_text(curves)
        (agg / "finals.csv").write_text(finals)
        assert main(["report", "--agg", str(agg), "--out", str(tmp_path / "report")]) == 1
        assert "error: " + message.format(agg=agg) in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_aggregate_rejects_malformed_jsonl_lines(tmp_path, capsys) -> None:
    runs = tmp_path / "runs"
    assert _run(runs) == 0
    good = (runs / "trajectories.jsonl").read_text().splitlines()
    extra_step = json.loads(good[0])
    for name in ("x", "y", "incumbent"):
        extra_step[name].append(extra_step[name][-1])
    short_doe_x = json.loads(good[0])
    short_doe_x["doe_x"].pop()

    def edited(edit) -> str:
        payload = json.loads(good[0])
        edit(payload)
        return json.dumps(payload)

    failure = '{"dim": 2, "error": {"message": "boom", "step": %s}, "function": "f1", "schedule": "ei", "seed": 0}'
    cases = [
        (good[0][: len(good[0]) // 2], "1: "),
        (good[0] + "\n" + '{"function": "f1", "schedule": "ei", "seed": 0, "dim": 2}', "2: missing field"),
        (json.dumps(extra_step), "1: step columns differ in length: {'af': 3, 'x': 4, 'y': 4, 'incumbent': 4}"),
        (json.dumps(short_doe_x), "1: doe_x has 3 rows but doe_y has 4 entries"),
        # Integers beyond 2**64 parse as floats, so a seed must be a JSON integer to read back exactly.
        (edited(lambda p: p.update(seed=2**64 + 1)), "1: seed must be a JSON integer, found 1.8446744073709552e+19"),
        (edited(lambda p: p.update(seed=3.0)), "1: seed must be a JSON integer, found 3.0"),
        (edited(lambda p: p.update(dim="2")), "1: dim must be a JSON integer, found '2'"),
        (failure % "1.0", "1: error step must be a JSON integer, found 1.0"),
        # aggregate hashes and sorts the ids, so only strings may reach it.
        (edited(lambda p: p.update(function=["f1"])), "1: function must be a JSON string, found ['f1']"),
        (edited(lambda p: p.update(function=7)), "1: function must be a JSON string, found 7"),
        (edited(lambda p: p.update(schedule=None)), "1: schedule must be a JSON string, found None"),
        (failure.replace('"boom"', "false") % "1", "1: error message must be a JSON string, found False"),
        (edited(lambda p: p["x"][1].append(0.5)), "1: x has rows of length [3], but dim is 2"),
        (edited(lambda p: p["doe_x"][0].pop()), "1: doe_x has rows of length [1], but dim is 2"),
        (edited(lambda p: p.update(x=[[0.5, 0.5, 0.5]] * 3)), "1: x has rows of length [3], but dim is 2"),
        (edited(lambda p: p.update(af=["ei", "xx", "pi"])), "1: 'xx' is not a valid AcquisitionKind"),
        (edited(lambda p: p.update(af=["ei", ["pi"], "pi"])), "1: ['pi'] is not a valid AcquisitionKind"),
        (edited(lambda p: p.update(f_opt=float("nan"))), "1: "),  # json writes the token NaN; it is not JSON
        # float() would read a numeric string or a boolean as a number.
        (edited(lambda p: p["y"].__setitem__(1, "1e3")), "1: y must hold JSON numbers, found '1e3'"),
        (edited(lambda p: p["incumbent"].__setitem__(0, True)), "1: incumbent must hold JSON numbers, found True"),
        (edited(lambda p: p.update(f_opt="0.25")), "1: f_opt must be a JSON number, found '0.25'"),
        (edited(lambda p: p["doe_y"].__setitem__(2, False)), "1: doe_y must hold JSON numbers, found False"),
        (edited(lambda p: p["x"][0].__setitem__(1, "0.5")), "1: x must hold JSON numbers, found '0.5'"),
        (edited(lambda p: p["doe_x"][1].__setitem__(0, None)), "1: doe_x must hold JSON numbers, found None"),
        ("\udcff" + good[0], "1: "),  # written below as a byte that is not UTF-8
    ]
    capsys.readouterr()
    for i, (text, message) in enumerate(cases):
        bad = tmp_path / f"bad{i}"
        bad.mkdir()
        (bad / "t.jsonl").write_bytes((text + "\n").encode("utf-8", "surrogateescape"))
        assert main(["aggregate", "--in", str(bad), "--out", str(tmp_path / "agg")]) == 1
        assert f"error: {bad / 't.jsonl'}:{message}" in capsys.readouterr().err


def test_aggregate_rejects_an_output_path_that_is_a_file(tmp_path, capsys) -> None:
    runs = tmp_path / "runs"
    assert _run(runs) == 0
    out = tmp_path / "agg"
    out.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["aggregate", "--in", str(runs), "--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"
