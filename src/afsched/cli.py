"""Command-line entry point: run grids, aggregate regrets, export plot data."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .benchfn import FUNCTION_IDS
from .gp import GpFitError, check_minimize
from .runner import (
    CellFailure,
    ExperimentConfig,
    aggregate,
    read_aggregate,
    read_records,
    run_grid,
    write_aggregate,
    write_records,
    write_report,
)
from .schedule import SCHEDULE_NAMES

__all__ = ["main"]


def _parse_seeds(text: str) -> tuple[int, ...]:
    """`a..b` is the half-open range [a, b); otherwise a comma list of ints."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi <= lo:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return tuple(range(lo, hi))
    return tuple(int(part) for part in text.split(",") if part)


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsched",
        description="Bayesian optimization with acquisition-function schedules on seeded benchmark landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a (functions x schedules x seeds) grid and write trajectories")
    run.add_argument("--dim", type=int, required=True, help="problem dimension")
    run.add_argument("--functions", type=_parse_list, required=True, help=f"comma list from: {','.join(FUNCTION_IDS)}")
    run.add_argument("--schedules", type=_parse_list, required=True, help=f"comma list from: {'|'.join(SCHEDULE_NAMES)}")
    run.add_argument("--seeds", type=_parse_seeds, required=True, help="half-open range a..b or comma list")
    run.add_argument("--out", type=Path, required=True, help="output directory for trajectories.jsonl")
    run.add_argument("--doe", dest="doe_size", metavar="DOE", type=int, help="initial design size (default 3*dim)")
    run.add_argument("--evals", dest="bo_evals", metavar="EVALS", type=int, help="surrogate-based evaluations (default 20*dim)")
    run.add_argument(
        "--gp-restarts", type=int, default=ExperimentConfig.gp_restarts, help="likelihood ascent restarts per fit"
    )
    run.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    agg = sub.add_parser("aggregate", help="normalize log-regrets and write the curve and finals tables")
    agg.add_argument("--in", dest="in_dir", type=Path, required=True, help="directory of trajectory .jsonl files")
    agg.add_argument("--out", type=Path, required=True, help="output directory for curves.csv / finals.csv")

    rep = sub.add_parser("report", help="emit per-function plot data and the cross-function average curve")
    rep.add_argument("--agg", type=Path, required=True, help="directory holding curves.csv / finals.csv")
    rep.add_argument("--out", type=Path, required=True, help="output directory for plot-data files")
    return parser


def _cmd_run(args) -> int:
    # Each config field is the flag whose dest is the field's name; a field without a flag fails here.
    config = ExperimentConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)})

    def progress(record):
        if isinstance(record, CellFailure):
            outcome = f"FAILED at step {record.step}: {record.message}"
        else:
            outcome = f"final_regret={record.final_incumbent - record.f_opt:.6g}"
        print(f"{record.function_id} {record.schedule_name} seed={record.seed} {outcome}")

    # A bad worker count, a scipy whose L-BFGS-B binding minimize cannot
    # drive, or a bad output path fails here, before any cell runs and
    # before the output file is touched. Opening the file to append tests
    # that it can be written without changing it.
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    check_minimize()
    path = args.out / "trajectories.jsonl"
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory: {exc}") from exc
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    # A failure inside a cell becomes a CellFailure record, so the grid runs to the end.
    records = run_grid(config, workers=args.workers, progress=progress)
    write_records(records, path)
    failures = sum(isinstance(r, CellFailure) for r in records)
    print(f"wrote {len(records)} records ({failures} failed) to {path}")
    if failures == len(records):
        print("error: every cell failed", file=sys.stderr)
        return 1
    return 0


def _cmd_aggregate(args) -> int:
    files = sorted(args.in_dir.glob("*.jsonl"))
    if not files:
        raise ValueError(f"no trajectory files (*.jsonl) in {args.in_dir}")
    report = aggregate([record for path in files for record in read_records(path)])
    write_aggregate(report, args.out)
    if report.degenerate:
        print(f"warning: degenerate normalization (all values equal) for: {', '.join(report.degenerate)}")
    print(f"wrote {args.out / 'curves.csv'} and {args.out / 'finals.csv'}")
    return 0


def _cmd_report(args) -> int:
    curves, finals = read_aggregate(args.agg)
    functions = write_report(curves, finals, args.out)
    print(f"wrote {len(functions)} curve/violin file pairs and average_curve.csv to {args.out}")
    return 0


# Each command and the exit code of its failure: bad input, a file that
# cannot be read or written, or (for run) a failed check_minimize.
_COMMANDS = {"run": (_cmd_run, 2), "aggregate": (_cmd_aggregate, 1), "report": (_cmd_report, 1)}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, error_code = _COMMANDS[args.command]
    try:
        return command(args)
    except (OSError, ValueError, GpFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return error_code


if __name__ == "__main__":
    sys.exit(main())
