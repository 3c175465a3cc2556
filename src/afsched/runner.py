"""The optimization loop and the experiment grid.

One trial = one (function, schedule, seed) cell: evaluate a Latin hypercube
initial design, then alternate surrogate fitting, acquisition maximization and
true-function evaluation for T steps. The initial design substream is keyed on
the seed alone, so every schedule (and function) under one seed shares it;
per-step substreams are keyed on (seed, function, step), so schedules that
agree on a prefix of acquisition choices produce identical trajectories over
that prefix. The runner therefore computes each shared step once: the unit of
work, and of parallel work in the grid, is a (function, seed) pair, whose
schedules run as one walk over the trie of their acquisition sequences. Every
step runs on one BLAS thread. The output follows the config's function x
schedule x seed order and is byte-identical for any worker count."""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .acquisition import AcquisitionKind
from .afopt import initial_design, maximize_af
from .benchfn import FUNCTION_IDS, evaluate, evaluate_many, from_unit, make_instance, to_unit
from .gp import GpFitError, fit
from .rng import substream
from .schedule import SCHEDULE_NAMES, kind_at

__all__ = [
    "REGRET_CLAMP",
    "ExperimentConfig",
    "StepRecord",
    "TrialTrajectory",
    "CellFailure",
    "TrialError",
    "AggregateReport",
    "CurvePoint",
    "FinalPoint",
    "run_trial",
    "run_grid",
    "log_regret",
    "aggregate",
    "write_records",
    "read_records",
    "write_aggregate",
    "read_aggregate",
    "write_report",
]

REGRET_CLAMP = 1e-12
CURVE_COLUMNS = ("function", "schedule", "step", "mean_norm_log_regret", "ci_halfwidth")
FINAL_COLUMNS = ("function", "schedule", "seed", "final_norm_log_regret")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition; doe_size and bo_evals default to 3d and 20d."""

    dim: int
    seeds: tuple[int, ...]
    functions: tuple[str, ...] = FUNCTION_IDS
    schedules: tuple[str, ...] = SCHEDULE_NAMES
    doe_size: int | None = None
    bo_evals: int | None = None
    gp_restarts: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "schedules", tuple(self.schedules))
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.doe_size is None:
            object.__setattr__(self, "doe_size", 3 * self.dim)
        if self.bo_evals is None:
            object.__setattr__(self, "bo_evals", 20 * self.dim)
        if self.doe_size < 2:
            raise ValueError("doe_size must be >= 2")
        if self.bo_evals < 1:
            raise ValueError("bo_evals must be >= 1")
        for name in ("seeds", "functions", "schedules"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"duplicate {name}: {', '.join(map(str, dict.fromkeys(repeated)))}")
        if self.gp_restarts < 1:
            raise ValueError("gp_restarts must be >= 1")
        for fid in self.functions:
            if fid not in FUNCTION_IDS:
                raise ValueError(f"unknown function id {fid!r}; implemented: {', '.join(FUNCTION_IDS)}")
        for name in self.schedules:
            if name not in SCHEDULE_NAMES:
                raise ValueError(f"unknown schedule {name!r}; valid schedules: {'|'.join(SCHEDULE_NAMES)}")


@dataclass(frozen=True, eq=False)
class StepRecord:
    step: int
    af: AcquisitionKind
    x: np.ndarray
    y: float
    incumbent: float


@dataclass(frozen=True, eq=False)
class TrialTrajectory:
    """Full record of one cell: design phase plus T surrogate-based steps."""

    function_id: str
    schedule_name: str
    seed: int
    dim: int
    f_opt: float
    doe_x: np.ndarray
    doe_y: np.ndarray
    steps: tuple[StepRecord, ...]

    @property
    def doe_incumbent(self) -> float:
        return float(np.min(self.doe_y))

    @property
    def final_incumbent(self) -> float:
        return self.steps[-1].incumbent if self.steps else self.doe_incumbent

    @property
    def incumbents(self) -> np.ndarray:
        return np.array([rec.incumbent for rec in self.steps])


@dataclass(frozen=True)
class CellFailure:
    """A cell that aborted; `step` names the surrogate step that failed."""

    function_id: str
    schedule_name: str
    seed: int
    dim: int
    step: int
    message: str


def run_trial(function_id: str, schedule_name: str, seed: int, config: ExperimentConfig) -> TrialTrajectory:
    """Run one cell; raises TrialError naming the step and the cause if a surrogate step fails."""
    (record,) = _run_schedules(function_id, (schedule_name,), seed, config)
    if isinstance(record, CellFailure):
        raise TrialError(function_id, schedule_name, seed, record.step, record.message)
    return record


class TrialError(RuntimeError):
    def __init__(self, function_id: str, schedule_name: str, seed: int, step: int, message: str):
        super().__init__(f"{function_id}/{schedule_name}/seed={seed} failed at step {step}: {message}")
        self.function_id = function_id
        self.schedule_name = schedule_name
        self.seed = seed
        self.step = step
        self.message = message


# Suffixes of the scipy_openblas thread-count functions in the OpenBLAS builds
# that numpy (64-bit integers) and scipy ship.
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS copy loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in handle if "openblas" in line})
    except OSError:  # no /proc: leave BLAS as it is
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for suffix in _OPENBLAS_SUFFIXES:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS copy on one thread; restore the counts after.

    A trial's matrices are small, run_grid's workers already take a core
    each, and a BLAS reduction split over threads rounds differently, so
    more threads would cost time and make the output depend on the core and
    worker count. A copy or function that is not there is skipped.
    """
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)


@_one_blas_thread()
def _run_schedules(
    function_id: str, schedule_names: tuple[str, ...], seed: int, config: ExperimentConfig
) -> list[TrialTrajectory | CellFailure]:
    """Run every named schedule on one (function, seed); one record per name, in order.

    The walk goes over the trie of the schedules' acquisition sequences: each
    node fits the GP once on its shared data, then maximizes and evaluates
    once per acquisition kind its schedules choose next. An exception in the
    fit becomes a CellFailure at that step for every schedule below the node,
    and one in maximize_af or evaluate for every schedule of that kind's
    branch; the other schedules go on.
    """
    total = config.bo_evals
    # kind_at is pure, so an unknown name raises here, before any fit.
    kinds = {name: [kind_at(name, t, total, seed) for t in range(1, total + 1)] for name in schedule_names}
    inst = make_instance(function_id, config.dim, seed)
    doe_x = from_unit(initial_design(config.doe_size, config.dim, substream(seed, "doe")))
    doe_y = evaluate_many(inst, doe_x)
    # The GP trains on the recorded points: to_unit(from_unit(u)) != u in the last bit.
    doe_unit = list(to_unit(doe_x))

    records: dict[str, TrialTrajectory | CellFailure] = {}
    branches: list[tuple[list[str], list[StepRecord]]] = [(list(schedule_names), [])]
    while branches:
        names, steps = branches.pop()
        xs_unit = doe_unit + [to_unit(rec.x) for rec in steps]
        ys = list(doe_y) + [rec.y for rec in steps]
        for t in range(len(steps) + 1, total + 1):
            try:
                model = fit(
                    np.asarray(xs_unit),
                    np.asarray(ys),
                    restarts=config.gp_restarts,
                    rng=substream(seed, function_id, "gp-restarts", t),
                )
            except Exception as exc:  # a failed step fails its cells, never the grid
                records.update(_failures(function_id, names, seed, config.dim, t, exc))
                break
            incumbent = steps[-1].incumbent if steps else float(np.min(doe_y))
            groups: dict[AcquisitionKind, list[str]] = {}
            for name in names:
                groups.setdefault(kinds[name][t - 1], []).append(name)
            children = []
            for af, group in groups.items():
                try:
                    x_next = from_unit(maximize_af(af, model, incumbent, substream(seed, function_id, "af-candidates", t)))
                    y_next = evaluate(inst, x_next)
                except Exception as exc:  # a failed step fails its cells, never the grid
                    records.update(_failures(function_id, group, seed, config.dim, t, exc))
                    continue
                children.append((group, StepRecord(step=t, af=af, x=x_next, y=y_next, incumbent=min(incumbent, y_next))))
            if not children:
                break
            # At a fork every child but the first gets its own copy of the steps.
            branches.extend((group, steps + [rec]) for group, rec in children[1:])
            names, rec = children[0]
            steps.append(rec)
            xs_unit.append(to_unit(rec.x))
            ys.append(rec.y)
        else:  # no step failed on this branch
            for name in names:
                records[name] = TrialTrajectory(
                    function_id=function_id,
                    schedule_name=name,
                    seed=seed,
                    dim=config.dim,
                    f_opt=inst.f_opt,
                    doe_x=doe_x,
                    doe_y=doe_y,
                    steps=tuple(steps),
                )
    return [records[name] for name in schedule_names]


def _failures(function_id: str, names: list[str], seed: int, dim: int, step: int, exc: Exception):
    """(name, CellFailure) for each named schedule; the message names the exception's type.

    A GpFitError keeps its own message, which already says what failed.
    """
    message = str(exc) if isinstance(exc, GpFitError) else f"{type(exc).__name__}: {exc}"
    return ((name, CellFailure(function_id, name, seed, dim, step, message)) for name in names)


def run_grid(
    config: ExperimentConfig, workers: int = 1, progress=None
) -> list[TrialTrajectory | CellFailure]:
    """Run the functions x schedules x seeds product.

    The unit of work, in this process or in one of `workers` processes, is a
    (function, seed) pair: its schedules share the design and every step on
    which their acquisition choices agree. Failures become CellFailure
    records instead of aborting the grid. `progress` is called with each
    record as soon as its pair is done: pairs in the config's order, functions
    outermost and seeds innermost, and within a pair the config's schedule
    order. The returned list follows the config's function x schedule x seed
    order (so functions=("f16", "f1") gives every f16 cell first), for any
    worker count. Raises ValueError, before any work, if workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    functions = [fid for fid in config.functions for _ in config.seeds]
    seeds = [seed for _ in config.functions for seed in config.seeds]
    units = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        mapper = map if pool is None else pool.map
        for records in mapper(_run_schedules, functions, repeat(config.schedules), seeds, repeat(config)):
            units.append(records)
            if progress is not None:
                for record in records:
                    progress(record)
    n_seeds = len(config.seeds)
    return [
        units[f * n_seeds + s][i]
        for f in range(len(config.functions))
        for i in range(len(config.schedules))
        for s in range(n_seeds)
    ]


def log_regret(trajectory: TrialTrajectory) -> np.ndarray:
    """log10 of clamped incumbent regret at each surrogate-based step.

    The design phase is omitted; entry t covers the incumbent after step t+1.
    """
    regret = trajectory.incumbents - trajectory.f_opt
    return np.log10(np.maximum(regret, REGRET_CLAMP))


@dataclass(frozen=True)
class CurvePoint:
    function_id: str
    schedule_name: str
    step: int
    mean: float
    ci_halfwidth: float


@dataclass(frozen=True)
class FinalPoint:
    function_id: str
    schedule_name: str
    seed: int
    value: float


@dataclass(frozen=True)
class AggregateReport:
    """Normalized log-regret statistics, one normalization per function."""

    bounds: dict[str, tuple[float, float]]
    degenerate: tuple[str, ...]
    curves: tuple[CurvePoint, ...]
    finals: tuple[FinalPoint, ...]


def _rank(value: str, order: tuple[str, ...]) -> tuple[int, str]:
    """Sort key: position in `order`, with unlisted values after it by name."""
    return (order.index(value) if value in order else len(order), value)


def aggregate(trajectories: list[TrialTrajectory]) -> AggregateReport:
    """Min-max normalize log-regrets per function and average over seeds.

    Bounds cover all schedules, seeds and steps present for a function; the
    confidence halfwidth is 1.96 * sample std / sqrt(n_seeds). Functions whose
    values are all equal normalize to 0 and are flagged as degenerate.
    """
    if not trajectories:
        raise ValueError("no trajectories to aggregate")
    by_cell: dict[tuple[str, str, int], np.ndarray] = {}
    for traj in trajectories:
        key = (traj.function_id, traj.schedule_name, traj.seed)
        if key in by_cell:
            raise ValueError(f"duplicate cell {key}")
        by_cell[key] = log_regret(traj)

    # Cells in table order: functions and schedules by rank, then seeds.
    seeds_by_fn: dict[str, dict[str, list[int]]] = {}
    for fid, sched, seed in sorted(
        by_cell, key=lambda key: (_rank(key[0], FUNCTION_IDS), _rank(key[1], SCHEDULE_NAMES), key[2])
    ):
        seeds_by_fn.setdefault(fid, {}).setdefault(sched, []).append(seed)
    for fid, seeds_by_sched in seeds_by_fn.items():
        for sched, seeds in seeds_by_sched.items():
            if len(seeds) < 2:
                raise ValueError(
                    f"need >= 2 seeds per (function, schedule) for a CI; {(fid, sched)} has {len(seeds)}"
                )

    bounds: dict[str, tuple[float, float]] = {}
    degenerate: list[str] = []
    curves: list[CurvePoint] = []
    finals: list[FinalPoint] = []
    for fid, seeds_by_sched in seeds_by_fn.items():
        values = np.concatenate(
            [by_cell[(fid, sched, seed)] for sched, seeds in seeds_by_sched.items() for seed in seeds]
        )
        lo, hi = float(values.min()), float(values.max())
        bounds[fid] = (lo, hi)
        span = hi - lo
        if span <= 0.0:
            degenerate.append(fid)

        def normalize(v: np.ndarray) -> np.ndarray:
            if span <= 0.0:
                return np.zeros_like(v)
            return (v - lo) / span

        for sched, seeds in seeds_by_sched.items():
            matrix = np.vstack([normalize(by_cell[(fid, sched, seed)]) for seed in seeds])
            means = matrix.mean(axis=0)
            halfwidths = 1.96 * matrix.std(axis=0, ddof=1) / np.sqrt(len(seeds))
            for t in range(matrix.shape[1]):
                curves.append(CurvePoint(fid, sched, t + 1, float(means[t]), float(halfwidths[t])))
            for row, seed in enumerate(seeds):
                finals.append(FinalPoint(fid, sched, seed, float(matrix[row, -1])))

    return AggregateReport(
        bounds=bounds,
        degenerate=tuple(degenerate),
        curves=tuple(curves),
        finals=tuple(finals),
    )


# ---------------------------------------------------------------------------
# File formats: trajectories as JSON lines, aggregate as two CSV tables.


def _record_to_json(record: TrialTrajectory | CellFailure) -> dict:
    if isinstance(record, CellFailure):
        return {
            "function": record.function_id,
            "schedule": record.schedule_name,
            "seed": record.seed,
            "dim": record.dim,
            "error": {"step": record.step, "message": record.message},
        }
    return {
        "function": record.function_id,
        "schedule": record.schedule_name,
        "seed": record.seed,
        "dim": record.dim,
        "f_opt": record.f_opt,
        "doe_x": record.doe_x.tolist(),
        "doe_y": record.doe_y.tolist(),
        "af": [rec.af.value for rec in record.steps],
        "x": [rec.x.tolist() for rec in record.steps],
        "y": [rec.y for rec in record.steps],
        "incumbent": [rec.incumbent for rec in record.steps],
    }


def _record_from_json(payload: dict) -> TrialTrajectory | CellFailure:
    if "error" in payload:
        return CellFailure(
            function_id=payload["function"],
            schedule_name=payload["schedule"],
            seed=int(payload["seed"]),
            dim=int(payload["dim"]),
            step=int(payload["error"]["step"]),
            message=payload["error"]["message"],
        )
    steps = tuple(
        StepRecord(
            step=t + 1,
            af=AcquisitionKind(payload["af"][t]),
            x=np.asarray(payload["x"][t], dtype=float),
            y=float(payload["y"][t]),
            incumbent=float(payload["incumbent"][t]),
        )
        for t in range(len(payload["af"]))
    )
    return TrialTrajectory(
        function_id=payload["function"],
        schedule_name=payload["schedule"],
        seed=int(payload["seed"]),
        dim=int(payload["dim"]),
        f_opt=float(payload["f_opt"]),
        doe_x=np.asarray(payload["doe_x"], dtype=float),
        doe_y=np.asarray(payload["doe_y"], dtype=float),
        steps=steps,
    )


def write_records(records, path) -> None:
    """One self-describing JSON record per line, in the given order."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_record_to_json(record), sort_keys=True))
            handle.write("\n")


def read_records(path) -> list[TrialTrajectory | CellFailure]:
    """Records of a write_records file; a malformed line raises ValueError naming path:line."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_record_from_json(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, TypeError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_value(v) for v in row) + "\n")


def write_aggregate(report: AggregateReport, out_dir) -> None:
    """Write curves.csv, finals.csv and meta.json under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "curves.csv",
        CURVE_COLUMNS,
        [(c.function_id, c.schedule_name, c.step, c.mean, c.ci_halfwidth) for c in report.curves],
    )
    _write_csv(
        out_dir / "finals.csv",
        FINAL_COLUMNS,
        [(f.function_id, f.schedule_name, f.seed, f.value) for f in report.finals],
    )
    meta = {
        "bounds": {fid: list(b) for fid, b in sorted(report.bounds.items())},
        "degenerate": sorted(report.degenerate),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_aggregate(agg_dir) -> tuple[list[CurvePoint], list[FinalPoint]]:
    """The tables of a write_aggregate directory; a malformed row raises ValueError naming path:line."""
    curves = _read_csv(
        agg_dir / "curves.csv", CURVE_COLUMNS, lambda r: CurvePoint(r[0], r[1], int(r[2]), float(r[3]), float(r[4]))
    )
    finals = _read_csv(agg_dir / "finals.csv", FINAL_COLUMNS, lambda r: FinalPoint(r[0], r[1], int(r[2]), float(r[3])))
    return curves, finals


def _read_csv(path, expected_header, parse_row) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        header = tuple(handle.readline().strip().split(","))
        if header != tuple(expected_header):
            raise ValueError(f"{path}: expected columns {expected_header}, found {header}")
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if line:
                fields = line.split(",")
                if len(fields) != len(expected_header):
                    raise ValueError(f"{path}:{lineno}: expected {len(expected_header)} fields, found {len(fields)}")
                try:
                    rows.append(parse_row(fields))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_report(curves: list[CurvePoint], finals: list[FinalPoint], out_dir) -> list[str]:
    """Write plot data under out_dir; returns the function ids in table order.

    Per function, curve_<id>.csv and violin_<id>.csv; across functions,
    average_curve.csv, the unweighted mean of the normalized curves. Rows
    follow the canonical function and schedule order. Raises ValueError,
    before writing anything, if curves and finals name different functions.
    """
    curve_fns = {c.function_id for c in curves}
    mismatched = curve_fns ^ {f.function_id for f in finals}
    if mismatched:
        names = ", ".join(sorted(mismatched, key=lambda f: _rank(f, FUNCTION_IDS)))
        raise ValueError(f"curves and finals name different functions; in only one of them: {names}")
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = sorted(
        curves, key=lambda c: (_rank(c.function_id, FUNCTION_IDS), _rank(c.schedule_name, SCHEDULE_NAMES), c.step)
    )
    finals = sorted(
        finals, key=lambda f: (_rank(f.function_id, FUNCTION_IDS), _rank(f.schedule_name, SCHEDULE_NAMES), f.seed)
    )
    functions = sorted(curve_fns, key=lambda f: _rank(f, FUNCTION_IDS))

    for fid in functions:
        _write_csv(
            out_dir / f"curve_{fid}.csv",
            CURVE_COLUMNS,
            [(c.function_id, c.schedule_name, c.step, c.mean, c.ci_halfwidth) for c in curves if c.function_id == fid],
        )
        _write_csv(
            out_dir / f"violin_{fid}.csv",
            FINAL_COLUMNS,
            [(f.function_id, f.schedule_name, f.seed, f.value) for f in finals if f.function_id == fid],
        )

    by_key: dict[tuple[str, int], list[float]] = {}
    for c in curves:
        by_key.setdefault((c.schedule_name, c.step), []).append(c.mean)
    rows = [
        (sched, step, sum(vals) / len(vals))
        for (sched, step), vals in sorted(by_key.items(), key=lambda kv: (_rank(kv[0][0], SCHEDULE_NAMES), kv[0][1]))
    ]
    _write_csv(out_dir / "average_curve.csv", ("schedule", "step", "mean_norm_log_regret"), rows)
    return functions
