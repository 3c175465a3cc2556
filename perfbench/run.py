"""Benchmark for afsched: run one workload, time it, check its outputs, print one JSON line.

    python3 perfbench/run.py --workload grid_d2 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 20 --trace 0     # every workload in turn

Workloads (see README.md for why each exists):
  grid_d2  the C6 study grid (f1, f5, f16, f23 x 7 schedules x the first
           seeds of the study, d=2, 6 design points, 40 steps, 2 GP restarts)
           through `run_grid` at 2 workers; one operation is one cell.
  cell_d5  one default-scale cell (f1 / ei / seed 0, d=5, 15 design points,
           100 steps, 8 restarts) through `run_trial`; one operation.
  analyze  a generated study-sized trajectory set (d=5, T=100, 1400 records)
           through `write_records`, `read_records` and the CLI's `aggregate`
           and `report`; one operation is one of these four stages.

With `--trace 0` the last line carries the end-to-end metrics (setup_s,
wall_s, cpu_s, peak_rss_mb); with `--trace 1` the workload runs in one
process with spans around every layer and the line carries the per-layer
metrics instead. The benchmark imports afsched from `src/` of the checkout
it sits in and writes only under `.perfbench_runs/` there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_d2", "cell_d5", "analyze")

GRID_FUNCTIONS = ("f1", "f5", "f16", "f23")
GRID_WORKERS = 2
# Wall seconds of one study seed (28 cells) at 2 workers on the reference
# machine; the grid runs round(seconds / this) seeds, at least one.
GRID_SEED_SECONDS = 25.0
# Wall seconds of one analyze round (write, read, aggregate, report); the
# workload runs round(seconds / this) rounds, at least one.
ANALYZE_ROUND_SECONDS = 5.0
ANALYZE_DOE, ANALYZE_STEPS, ANALYZE_SEEDS = 15, 100, 20


def _process_age_s() -> float:
    """Seconds since the kernel started this process (clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        after_name = handle.read().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(after_name[19]) / os.sysconf("SC_CLK_TCK")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make_config(workload: str, seconds: float):
    from afsched import ExperimentConfig

    if workload == "grid_d2":
        seeds = tuple(range(max(1, round(seconds / GRID_SEED_SECONDS))))
        return ExperimentConfig(
            dim=2, seeds=seeds, functions=GRID_FUNCTIONS, doe_size=6, bo_evals=40, gp_restarts=2
        )
    if workload == "cell_d5":
        return ExperimentConfig(dim=5, seeds=(0,), functions=("f1",), schedules=("ei",))
    return ExperimentConfig(
        dim=5, seeds=tuple(range(ANALYZE_SEEDS)), doe_size=ANALYZE_DOE, bo_evals=ANALYZE_STEPS
    )


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Timed:
    """Wall and CPU seconds (this process plus reaped workers) of a block, and peak RSS at its end."""

    def __enter__(self):
        self._cpu0 = _cpu_s()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = _cpu_s() - self._cpu0
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.peak_rss_mb = peak_kb / 1024.0
        return False


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timed: Timed | None = None
    extra_counts: dict[str, float] = field(default_factory=dict)


def _random_search_best(config, bench_seed: int) -> dict[int, float]:
    """Best f1 regret of a uniform random search with the cell's budget, per trial seed."""
    import numpy as np
    from afsched.benchfn import evaluate_many, make_instance

    best = {}
    for seed in config.seeds:
        inst = make_instance("f1", config.dim, seed)
        points = np.random.default_rng([bench_seed, seed]).uniform(
            -5.0, 5.0, size=(config.doe_size + config.bo_evals, config.dim)
        )
        best[seed] = float(np.min(evaluate_many(inst, points)) - inst.f_opt)
    return best


def _check_grid(path: Path, config, bench_seed: int) -> list[str]:
    import checks

    return checks.check_trajectories(
        checks.read_jsonl(path), config.dim, config.doe_size, config.bo_evals, _random_search_best(config, bench_seed)
    )


def _delivered(records) -> tuple[int, int]:
    """(failed cells, surrogate steps delivered by the successful ones)."""
    from afsched.runner import CellFailure

    failed = sum(isinstance(r, CellFailure) for r in records)
    steps = sum(len(r.steps) for r in records if not isinstance(r, CellFailure))
    return failed, steps


def run_grid_d2(config, seed: int, tracer, out: Path) -> Outcome:
    from afsched import runner

    import checks
    from spans import traced

    result = Outcome()
    if tracer is not None:
        with traced(tracer):
            records = runner.run_grid(config, workers=1)
            runner.write_records(records, out / "traced_workers1.jsonl")
        failed, steps = _delivered(records)
        result.attempted += len(records)
        result.failed += failed
        result.extra_counts = {
            "runner.steps_delivered": steps,
            "runner.jsonl_bytes": (out / "traced_workers1.jsonl").stat().st_size,
        }
    with Timed() as result.timed:
        records = runner.run_grid(config, workers=GRID_WORKERS)
    runner.write_records(records, out / "trajectories.jsonl")
    failed, _ = _delivered(records)
    result.attempted += len(records)
    result.failed += failed
    result.problems = _check_grid(out / "trajectories.jsonl", config, seed)
    if tracer is not None:
        result.problems += checks.check_identical_files(out / "trajectories.jsonl", out / "traced_workers1.jsonl")
    return result


def run_cell_d5(config, seed: int, tracer, out: Path) -> Outcome:
    from afsched import runner

    from spans import traced

    result = Outcome()
    result.attempted = 1
    fid, sched, trial_seed = config.functions[0], config.schedules[0], config.seeds[0]
    with traced(tracer):
        with Timed() as result.timed:
            try:
                records = [runner.run_trial(fid, sched, trial_seed, config)]
            except runner.TrialError as exc:
                print(f"FAILED: {exc}", file=sys.stderr)
                result.failed = 1
                return result
        runner.write_records(records, out / "trajectories.jsonl")
    result.extra_counts = {
        "runner.steps_delivered": len(records[0].steps),
        "runner.jsonl_bytes": (out / "trajectories.jsonl").stat().st_size,
    }
    result.problems = _check_grid(out / "trajectories.jsonl", config, seed)
    return result


def synthetic_study(config, seed: int):
    """A study-sized set of trajectories with the shape of real ones, drawn from `seed`.

    Incumbents are running minima of positive values that trend down; about
    one cell in ten observes the optimum value 0 exactly, so its log regret
    needs the 1e-12 clamp. Acquisition sequences follow each schedule.
    """
    import numpy as np
    from afsched.acquisition import AcquisitionKind
    from afsched.runner import StepRecord, TrialTrajectory

    import checks

    rng = np.random.default_rng([seed, 1400])
    d, doe, steps = config.dim, config.doe_size, config.bo_evals
    trend = np.linspace(0.0, 1.0, steps)
    records = []
    for fid in config.functions:
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        for sched in config.schedules:
            for trial_seed in config.seeds:
                doe_x = rng.uniform(-5.0, 5.0, size=(doe, d))
                doe_y = scale * rng.lognormal(0.0, 1.0, size=doe)
                x = rng.uniform(-5.0, 5.0, size=(steps, d))
                y = doe_y.min() * 10.0 ** (-rng.uniform(0.5, 6.0) * trend + rng.normal(0.0, 0.7, size=steps))
                if rng.random() < 0.1:
                    y[rng.integers(steps)] = 0.0
                incumbent = np.minimum.accumulate(np.concatenate([doe_y, y]))[doe:]
                af = checks.expected_af(sched, steps) or [("ei", "pi")[b] for b in rng.integers(0, 2, size=steps)]
                records.append(
                    TrialTrajectory(
                        function_id=fid,
                        schedule_name=sched,
                        seed=trial_seed,
                        dim=d,
                        f_opt=0.0,
                        doe_x=doe_x,
                        doe_y=doe_y,
                        steps=tuple(
                            StepRecord(t + 1, AcquisitionKind(af[t]), x[t], float(y[t]), float(incumbent[t]))
                            for t in range(steps)
                        ),
                    )
                )
    return records


def run_analyze(records, tracer, out: Path, rounds: int) -> Outcome:
    from afsched import cli, runner

    import checks
    from spans import traced

    result = Outcome()
    in_dir, agg_dir, report_dir = out / "trajectories", out / "agg", out / "report"
    in_dir.mkdir(parents=True)
    path = in_dir / "trajectories.jsonl"

    def stage(call) -> None:
        result.attempted += 1
        try:
            ok = call() in (None, 0)
        except (OSError, ValueError) as exc:
            print(f"FAILED: stage raised {exc!r}", file=sys.stderr)
            ok = False
        result.failed += int(not ok)

    loaded = []

    def read() -> None:
        loaded.clear()  # hold one copy of the read records at a time
        loaded.append(runner.read_records(path))

    # The CLI reports progress on stdout; keep stdout for the result line.
    with traced(tracer), contextlib.redirect_stdout(sys.stderr):
        with Timed() as result.timed:
            for _ in range(rounds):
                stage(lambda: runner.write_records(records, path))
                stage(read)
                stage(lambda: cli.main(["aggregate", "--in", str(in_dir), "--out", str(agg_dir)]))
                stage(lambda: cli.main(["report", "--agg", str(agg_dir), "--out", str(report_dir)]))
    result.extra_counts = {"runner.jsonl_bytes": rounds * path.stat().st_size}
    if result.failed:
        return result
    result.problems += check_roundtrip(records, loaded[-1])
    reference = checks.reference_tables(
        {(r.function_id, r.schedule_name, r.seed): [s.incumbent for s in r.steps] for r in records}
    )
    result.problems += checks.check_tables(reference, agg_dir, report_dir)
    return result


def check_roundtrip(written, read) -> list[str]:
    """read_records returns every generated float bit for bit, in order."""
    import numpy as np

    def floats(rec):
        return np.concatenate(
            [
                rec.doe_x.ravel(),
                rec.doe_y,
                np.ravel([s.x for s in rec.steps]),
                [s.y for s in rec.steps],
                [s.incumbent for s in rec.steps],
                [rec.f_opt],
            ]
        ).tobytes()

    if len(written) != len(read):
        return [f"read {len(read)} records, wrote {len(written)}"]
    for a, b in zip(written, read):
        same_keys = (a.function_id, a.schedule_name, a.seed, [s.af for s in a.steps]) == (
            b.function_id,
            b.schedule_name,
            b.seed,
            [s.af for s in b.steps],
        )
        if not same_keys or floats(a) != floats(b):
            return [f"{a.function_id}/{a.schedule_name}/seed={a.seed}: read back differs from what was written"]
    return []


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    if not (ROOT / "src" / "afsched" / "__init__.py").is_file():
        print(f"error: no afsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import afsched  # noqa: F401 - part of the timed set-up
    import afsched.cli  # noqa: F401

    config = _make_config(args.workload, args.seconds)
    setup_s = _process_age_s()

    import spans

    out = ROOT / ".perfbench_runs" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "grid_d2":
        result = run_grid_d2(config, args.seed, tracer, out)
    elif args.workload == "cell_d5":
        result = run_cell_d5(config, args.seed, tracer, out)
    else:
        rounds = max(1, round(args.seconds / ANALYZE_ROUND_SECONDS))
        result = run_analyze(synthetic_study(config, args.seed), tracer, out, rounds)

    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(result.timed.wall_s, "s"),
            "cpu_s": _metric(result.timed.cpu_s, "s"),
            "peak_rss_mb": _metric(result.timed.peak_rss_mb, "MB"),
        }
    else:
        values = spans.layer_metrics(tracer, result.extra_counts)
        values.update(spans.micro_timings(args.seed))
        metrics = {name: _metric(values[name], unit) for name, unit in spans.LAYER_METRICS + spans.micro_metric_names()}
    line = {"correct": not result.problems, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so each set-up is a cold one."""
    status = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], stdout=subprocess.PIPE, text=True)
        print(f"{workload}: {completed.stdout.strip().splitlines()[-1] if completed.stdout.strip() else 'no result'}")
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    # One BLAS thread per process, set before numpy loads (this module imports
    # it lazily): grid_d2 already runs nproc worker processes, and OpenBLAS's
    # own threads on top of them make its timings depend on thread scheduling
    # (see README.md).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = _parse(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
