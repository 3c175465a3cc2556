from __future__ import annotations

import pytest

import afsched.cli as cli_mod
import afsched.runner as runner_mod
from afsched.cli import _parse_seeds, main
from afsched.runner import CellFailure, read_records

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
    cases = [
        (good[0][: len(good[0]) // 2], "1: "),
        (good[0] + "\n" + '{"function": "f1", "schedule": "ei", "seed": 0, "dim": 2}', "2: missing field"),
    ]
    capsys.readouterr()
    for i, (text, message) in enumerate(cases):
        bad = tmp_path / f"bad{i}"
        bad.mkdir()
        (bad / "t.jsonl").write_text(text + "\n")
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
