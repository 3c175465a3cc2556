"""The optimization loop and the experiment grid.

One trial = one (function, schedule, seed) cell: evaluate a Latin hypercube
initial design, then alternate surrogate fitting, acquisition maximization and
true-function evaluation for T steps. The initial design substream is keyed on
the seed alone, so every schedule (and function) under one seed shares it;
per-step substreams are keyed on (seed, function, step), so schedules that
agree on a prefix of acquisition choices produce identical trajectories over
that prefix. The runner therefore computes each shared step once: the unit of
work, and of parallel work in the grid, is a (function, seed) pair, whose
schedules run as one walk over the nodes of the trie of their acquisition
sequences. A node is the schedules that agree so far plus their shared steps;
it costs one GP fit, and one maximization and evaluation per acquisition kind
its schedules choose next. A lone trial, which has no other pair to run
beside it, runs half of each fit's likelihood ascents in one helper process
instead. Every step, and the helper, runs on one BLAS thread. The output
follows the config's function x schedule x seed order and is byte-identical
for any worker count, with or without the helper."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np
import orjson

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
        object.__setattr__(self, "seeds", tuple(_integer("seeds", s) for s in self.seeds))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "dim", _integer("dim", self.dim))
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.doe_size is None:
            object.__setattr__(self, "doe_size", 3 * self.dim)
        if self.bo_evals is None:
            object.__setattr__(self, "bo_evals", 20 * self.dim)
        for name in ("doe_size", "bo_evals", "gp_restarts"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
        # Signed 64-bit seeds read back exactly from JSON; orjson turns an integer beyond 2**64 into a float.
        outside = [seed for seed in self.seeds if not -(2**63) <= seed < 2**63]
        if outside:
            raise ValueError(f"seeds must lie in [-2**63, 2**63); found {', '.join(map(str, outside))}")
        if self.gp_restarts < 1:
            raise ValueError("gp_restarts must be >= 1")
        for fid in self.functions:
            if fid not in FUNCTION_IDS:
                raise ValueError(f"unknown function id {fid!r}; implemented: {', '.join(FUNCTION_IDS)}")
        for name in self.schedules:
            if name not in SCHEDULE_NAMES:
                raise ValueError(f"unknown schedule {name!r}; valid schedules: {'|'.join(SCHEDULE_NAMES)}")


def _integer(name: str, value) -> int:
    """value as an int if operator.index takes it (numpy integers do); ValueError naming the field otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, found {value!r}") from None


@dataclass(frozen=True, eq=False, slots=True)
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
    """A cell that aborted; `step` names the surrogate step that failed, 0 for the design phase."""

    function_id: str
    schedule_name: str
    seed: int
    dim: int
    step: int
    message: str


def run_trial(function_id: str, schedule_name: str, seed: int, config: ExperimentConfig) -> TrialTrajectory:
    """Run one cell; raises TrialError naming the step and the cause if a surrogate step fails.

    With more than one GP restart, more than one usable CPU and a process
    that may have children (not a daemonic one), every fit runs half of its
    restarts in one helper process, which lives for the trial alone and
    leaves the record the same bit for bit.
    """
    with _restart_helper(config) as helper:
        (record,) = _run_schedules(function_id, (schedule_name,), seed, config, helper)
    if isinstance(record, CellFailure):
        raise TrialError(record)
    return record


class TrialError(RuntimeError):
    """A failed run_trial; `failure` is the CellFailure that run_grid would have recorded for the cell."""

    def __init__(self, failure: CellFailure):
        super().__init__(f"{_cell(failure)} failed at step {failure.step}: {failure.message}")
        self.failure = failure

    def __reduce__(self):
        # Exception pickles its message alone and would rebuild from it; rebuild from the failure instead.
        return (TrialError, (self.failure,))


def _cell(record: TrialTrajectory | CellFailure) -> str:
    """The record's cell as function/schedule/seed=N, as errors name it."""
    return f"{record.function_id}/{record.schedule_name}/seed={record.seed}"


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


def _pin_one_blas_thread() -> None:
    """Put every loaded OpenBLAS copy on one thread for the rest of the process: the restart helper's initializer.

    So the helper's reductions round as the parent's steps do, whatever its
    start method and OPENBLAS_NUM_THREADS.
    """
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


def _restart_helper(config: ExperimentConfig) -> contextlib.AbstractContextManager[ProcessPoolExecutor | None]:
    """A one-process pool for run_trial's fits to run half their restarts in, or None where it cannot help or run.

    run_grid's workers take a core each already and fit serially.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if config.gp_restarts > 1 and cores > 1 and not multiprocessing.current_process().daemon:
        return ProcessPoolExecutor(max_workers=1, initializer=_pin_one_blas_thread)
    return contextlib.nullcontext()


@_one_blas_thread()
def _run_schedules(
    function_id: str,
    schedule_names: tuple[str, ...],
    seed: int,
    config: ExperimentConfig,
    helper: ProcessPoolExecutor | None = None,
) -> list[TrialTrajectory | CellFailure]:
    """Run every named schedule on one (function, seed); one record per name, in order.

    The walk goes over the trie of the schedules' acquisition sequences, one
    node at a time. A node is the schedules that agree so far and the steps
    they share. A node with all T steps stores a record per schedule; any
    other fits the GP once on its data, then maximizes and evaluates once per
    acquisition kind its schedules choose next, each kind giving a child node.
    An exception in the design phase becomes a CellFailure at step 0 for every
    schedule, one in the fit a CellFailure at that step for every schedule of
    the node, and one in maximize_af or evaluate for every schedule of that
    kind; the other schedules go on. Each fit passes `helper` to gp.fit, and
    a failure there fails the step as one in this process would.
    """
    total = config.bo_evals
    # kind_at is pure, so an unknown name raises here, before any fit.
    kinds = {name: [kind_at(name, t, total, seed) for t in range(1, total + 1)] for name in schedule_names}
    try:
        inst = make_instance(function_id, config.dim, seed)
        doe_x = from_unit(initial_design(config.doe_size, config.dim, substream(seed, "doe")))
        doe_y = evaluate_many(inst, doe_x)
    except Exception as exc:  # a failed design fails the pair's cells, never the grid
        return [failure for _, failure in _failures(function_id, schedule_names, seed, config.dim, 0, exc)]

    records: dict[str, TrialTrajectory | CellFailure] = {}
    nodes: list[tuple[tuple[str, ...], tuple[StepRecord, ...]]] = [(schedule_names, ())]
    while nodes:
        names, steps = nodes.pop()
        t = len(steps) + 1
        if t > total:
            for name in names:
                records[name] = TrialTrajectory(function_id, name, seed, config.dim, inst.f_opt, doe_x, doe_y, steps)
            continue
        try:
            # The GP trains on the recorded points: to_unit(from_unit(u)) != u in the last bit.
            model = fit(
                to_unit(np.vstack([doe_x, *(rec.x for rec in steps)])),
                np.append(doe_y, [rec.y for rec in steps]),
                restarts=config.gp_restarts,
                rng=substream(seed, function_id, "gp-restarts", t),
                executor=helper,
            )
        except Exception as exc:  # a failed step fails its cells, never the grid
            records.update(_failures(function_id, names, seed, config.dim, t, exc))
            continue
        incumbent = steps[-1].incumbent if steps else float(np.min(doe_y))
        groups: dict[AcquisitionKind, list[str]] = {}
        for name in names:
            groups.setdefault(kinds[name][t - 1], []).append(name)
        for af, group in groups.items():
            try:
                x_next = from_unit(maximize_af(af, model, incumbent, substream(seed, function_id, "af-candidates", t)))
                y_next = evaluate(inst, x_next)
            except Exception as exc:  # a failed step fails its cells, never the grid
                records.update(_failures(function_id, group, seed, config.dim, t, exc))
                continue
            nodes.append((tuple(group), steps + (StepRecord(t, af, x_next, y_next, min(incumbent, y_next)),)))
    return [records[name] for name in schedule_names]


def _failures(function_id: str, names: list[str] | tuple[str, ...], seed: int, dim: int, step: int, exc: Exception):
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


class CurvePoint(NamedTuple):
    """One row of curves.csv, in its column order."""

    function_id: str
    schedule_name: str
    step: int
    mean: float
    ci_halfwidth: float


class FinalPoint(NamedTuple):
    """One row of finals.csv, in its column order."""

    function_id: str
    schedule_name: str
    seed: int
    value: float


@dataclass(frozen=True)
class AggregateReport:
    """Normalized log-regret statistics, one normalization per function."""

    bounds: dict[str, tuple[float, float]]
    curves: tuple[CurvePoint, ...]
    finals: tuple[FinalPoint, ...]

    @property
    def degenerate(self) -> tuple[str, ...]:
        """The functions whose log-regrets are all equal, in table order; they normalize to 0."""
        return tuple(fid for fid, (lo, hi) in self.bounds.items() if hi - lo <= 0.0)


def _rank(value: str, order: tuple[str, ...]) -> tuple[int, str]:
    """Sort key: position in `order`, with unlisted values after it by name."""
    return (order.index(value) if value in order else len(order), value)


def _table_order(row: tuple) -> tuple:
    """Sort key of a (function, schedule, step or seed, ...) row: functions and schedules by rank, then the number."""
    return (_rank(row[0], FUNCTION_IDS), _rank(row[1], SCHEDULE_NAMES), row[2])


def aggregate(records: list[TrialTrajectory | CellFailure]) -> AggregateReport:
    """Min-max normalize log-regrets per function and average over seeds.

    Takes records as run_grid and read_records return them and skips the
    CellFailures. The trajectories left must share one dimension, and the
    cells of each (function, schedule) need >= 2 seeds and one step count of
    at least 1; otherwise, or if no trajectory is left, ValueError. Bounds
    cover all schedules, seeds and steps present for a function; the
    confidence halfwidth is 1.96 * sample std / sqrt(n_seeds). Functions whose
    values are all equal normalize to 0 and are flagged as degenerate.
    """
    trajectories = [r for r in records if isinstance(r, TrialTrajectory)]
    if not trajectories:
        raise ValueError("no successful trajectories to aggregate")
    dims = {traj.dim for traj in trajectories}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions {sorted(dims)} are not comparable")
    by_cell: dict[tuple[str, str, int], np.ndarray] = {}
    for traj in trajectories:
        key = (traj.function_id, traj.schedule_name, traj.seed)
        if key in by_cell:
            raise ValueError(f"duplicate cell {key}")
        by_cell[key] = log_regret(traj)

    cells = sorted(by_cell, key=_table_order)
    bounds: dict[str, tuple[float, float]] = {}
    curves: list[CurvePoint] = []
    finals: list[FinalPoint] = []
    for fid, fn_cells in groupby(cells, key=itemgetter(0)):
        block = []  # (schedule, seeds, log-regret matrix with one row per seed)
        for sched, group in groupby(fn_cells, key=itemgetter(1)):
            seeds = [seed for _, _, seed in group]
            if len(seeds) < 2:
                raise ValueError(f"need >= 2 seeds per (function, schedule) for a CI; {(fid, sched)} has {len(seeds)}")
            rows = [by_cell[(fid, sched, seed)] for seed in seeds]
            counts = sorted({len(row) for row in rows})
            if len(counts) > 1 or counts[0] == 0:
                raise ValueError(f"the seeds of {(fid, sched)} need one step count >= 1; found {counts}")
            block.append((sched, seeds, np.vstack(rows)))
        lo = float(np.min([matrix.min() for _, _, matrix in block]))
        hi = float(np.max([matrix.max() for _, _, matrix in block]))
        bounds[fid] = (lo, hi)
        span = hi - lo
        for sched, seeds, matrix in block:
            matrix = np.zeros_like(matrix) if span <= 0.0 else (matrix - lo) / span
            means = matrix.mean(axis=0)
            halfwidths = 1.96 * matrix.std(axis=0, ddof=1) / np.sqrt(len(seeds))
            for t in range(matrix.shape[1]):
                curves.append(CurvePoint(fid, sched, t + 1, float(means[t]), float(halfwidths[t])))
            for row, seed in enumerate(seeds):
                finals.append(FinalPoint(fid, sched, seed, float(matrix[row, -1])))

    return AggregateReport(bounds=bounds, curves=tuple(curves), finals=tuple(finals))


# ---------------------------------------------------------------------------
# File formats: trajectories as JSON lines, aggregate as two CSV tables.


# Every field of a line: its name, the attribute that holds it and its kind.
# Every line has the cell header, the first four, held by TrialTrajectory and
# CellFailure alike. A failure line adds "error", an object that holds the
# next two under their attribute names; a trajectory line adds the rest, of
# which the last four are the step columns, one StepRecord value per step.
_FIELDS = (
    ("function", "function_id", "string"),
    ("schedule", "schedule_name", "string"),
    ("seed", "seed", "integer"),
    ("dim", "dim", "integer"),
    ("error step", "step", "integer"),
    ("error message", "message", "string"),
    ("f_opt", "f_opt", "number"),
    ("doe_x", "doe_x", "points"),
    ("doe_y", "doe_y", "numbers"),
    ("af", "af", "kinds"),
    ("x", "x", "points"),
    ("y", "y", "numbers"),
    ("incumbent", "incumbent", "numbers"),
)
_HEADER, _ERROR, _TRAJECTORY, _STEPS = _FIELDS[:4], _FIELDS[4:6], _FIELDS[6:], _FIELDS[9:]

# The types of a value of each kind, a number also being an element of "numbers" and of the dim-long rows of
# "points": what orjson parses it to, and the numpy int64 scalars the writer writes as the integers they hold.
# The writer takes only _FLOATS for a number, float64 scalars included: an integer would read back as a float.
_TYPES = {"string": {str}, "integer": {int, np.int64}, "number": {int, float}}
_FLOATS = {float, np.float64}

# The numbers a value of each numeric kind holds, in order.
_FLAT = {"number": lambda value: (value,), "numbers": iter, "points": chain.from_iterable}

# Acquisition kinds by their JSON value: the elements of "kinds".
_AF_BY_VALUE = {kind.value: kind for kind in AcquisitionKind}


def _record_to_json(record: TrialTrajectory | CellFailure) -> dict:
    payload = {key: getattr(record, attr) for key, attr, _ in _HEADER}
    if isinstance(record, CellFailure):
        return payload | {"error": {attr: getattr(record, attr) for _, attr, _ in _ERROR}}
    payload.update(
        f_opt=record.f_opt,
        doe_x=_tolist("doe_x", record.doe_x),
        doe_y=_tolist("doe_y", record.doe_y),
        af=[rec.af.value for rec in record.steps],
        x=[_tolist("x", rec.x) for rec in record.steps],
        y=[rec.y for rec in record.steps],
        incumbent=[rec.incumbent for rec in record.steps],
    )
    return payload


def _tolist(name: str, array: np.ndarray) -> list:
    """array.tolist(); ValueError for float16, float32, long double or object values, which would read back as float64."""
    values = array.tolist()  # AttributeError: not an array
    if array.dtype.char in "efgO":  # the floats other than float64 ("d"), in any byte order, and object
        raise ValueError(f"{name} holds {array.dtype.name} values, which would read back as float64")
    return values


def _check(payload: dict, numbers: set = _TYPES["number"]) -> None:
    """ValueError naming the first field of a line that is not of its kind in _FIELDS, a number being of `numbers`.

    A missing field raises KeyError, and a list where a value belongs, or
    the reverse, TypeError.
    """
    failure = "error" in payload
    if failure:  # the error's fields under their names in _FIELDS
        payload = {**payload, **{name: payload["error"][attr] for name, attr, _ in _ERROR}}
    for name, _, kind in _HEADER + (_ERROR if failure else _TRAJECTORY):
        value = payload[name]
        if kind in _FLAT:
            if kind == "points":
                lengths = sorted(set(map(len, value)) - {payload["dim"]})
                if lengths:
                    raise ValueError(f"{name} has rows of length {lengths}, but dim is {payload['dim']}")
            if not set(map(type, _FLAT[kind](value))) <= numbers:
                found = next(v for v in _FLAT[kind](value) if type(v) not in numbers)
                if type(found) is int or isinstance(found, np.integer):  # only the writer refuses one
                    raise ValueError(f"{name} holds the integer {found}, which would read back as a float")
                must = "be a JSON number" if kind == "number" else "hold JSON numbers"
                raise ValueError(f"{name} must {must}, found {found!r}")
        elif kind == "kinds":
            if not (set(map(type, value)) <= {str} and set(value) <= _AF_BY_VALUE.keys()):
                found = next(v for v in value if type(v) is not str or v not in _AF_BY_VALUE)
                raise ValueError(f"{found!r} is not a valid AcquisitionKind")
        elif type(value) not in _TYPES[kind]:
            raise ValueError(f"{name} must be a JSON {kind}, found {value!r}")
    if not failure:
        columns = {name: len(payload[name]) for name, _, _ in _STEPS}
        if len(set(columns.values())) > 1:
            raise ValueError(f"step columns differ in length: {columns}")
        if len(payload["doe_x"]) != len(payload["doe_y"]):
            raise ValueError(f"doe_x has {len(payload['doe_x'])} rows but doe_y has {len(payload['doe_y'])} entries")


def _record_from_json(payload: dict) -> TrialTrajectory | CellFailure:
    _check(payload)
    cell = {attr: payload[key] for key, attr, _ in _HEADER}
    if "error" in payload:
        return CellFailure(**cell, **{attr: payload["error"][attr] for _, attr, _ in _ERROR})
    doe_x, x = payload["doe_x"], payload["x"]
    steps = tuple(
        map(
            StepRecord,
            range(1, len(x) + 1),
            map(_AF_BY_VALUE.__getitem__, payload["af"]),
            np.array(x, dtype=float).reshape(len(x), cell["dim"]),
            map(float, payload["y"]),
            map(float, payload["incumbent"]),
        )
    )
    return TrialTrajectory(
        **cell,
        f_opt=float(payload["f_opt"]),
        doe_x=np.array(doe_x, dtype=float).reshape(len(doe_x), cell["dim"]),
        doe_y=np.asarray(payload["doe_y"], dtype=float),
        steps=steps,
    )


# Sorted keys make the bytes a function of the records alone; numpy scalars are written as the numbers they hold.
_ORJSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def _encode(record: TrialTrajectory | CellFailure) -> bytes:
    """The record's line; ValueError naming the cell and the cause if the line would not read back as the record."""
    cell = _cell(record)
    try:
        payload = _record_to_json(record)  # AttributeError: not an array or a kind where one belongs
        _check(payload, _FLOATS)
        # A line holds no step numbers: read_records numbers the steps 1..T.
        steps = [rec.step for rec in getattr(record, "steps", ())]
        if steps != list(range(1, len(steps) + 1)):
            raise ValueError(f"steps must be numbered 1..{len(steps)}, found {steps}")
        line = orjson.dumps(payload, option=_ORJSON_OPTIONS)
    except (AttributeError, TypeError, ValueError) as exc:  # orjson's errors are TypeErrors
        raise ValueError(f"{cell}: {exc}") from None
    # orjson writes NaN and +-Inf as null, which no checked record contains outside a string.
    if b"null" in line and "error" not in payload:
        for name, _, kind in _TRAJECTORY:
            if kind in _FLAT and not np.isfinite(np.asarray(payload[name], dtype=float)).all():
                raise ValueError(f"{cell}: {name} holds a non-finite value")
    return line


def write_records(records, path) -> None:
    """One self-describing JSON record per line, in the given order.

    A line is orjson's compact encoding with sorted keys and a newline:
    every float is the shortest string that parses back to it, so the bytes
    depend on the records alone. read_records parses it with orjson, and
    also reads files in the spacing and float spelling of Python's
    json.dumps. A record that does not fit _FIELDS, or has a non-finite
    float, an integer where a float belongs (it would read back as a float),
    steps not numbered 1..T, a string that is not valid Unicode or an
    integer outside 64 bits, raises ValueError naming its cell and the
    cause; the partly written file is then removed.
    """
    try:
        with open(path, "wb") as handle:
            for record in records:
                handle.write(_encode(record))
    except ValueError:
        os.remove(path)
        raise


@contextlib.contextmanager
def _cyclic_gc_paused():
    """Run the block with the cyclic garbage collector off; leave it on or off after, as it was before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_records(path) -> list[TrialTrajectory | CellFailure]:
    """Records of a write_records file; a malformed line raises ValueError naming path:line.

    Malformed covers a line that is not UTF-8 or not JSON (NaN and Infinity
    are not), a missing field, a field that is not of its kind in _FIELDS,
    step or design columns of different lengths and a point whose length is
    not dim.

    The cyclic garbage collector is paused while the file's records are
    built. A study file holds a StepRecord and an array view per step: every
    700 new objects would start a young-generation collection, and each time
    the survivors grew by a quarter a full one would walk every record built
    so far, none finding a cycle, as records hold none. Reference counting
    frees memory as usual, and the collector's previous state is restored
    on return and on error.
    """
    records = []
    with open(path, "rb") as handle, _cyclic_gc_paused():
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_record_from_json(orjson.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, TypeError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(str, row)) + "\n")


def write_aggregate(report: AggregateReport, out_dir) -> None:
    """Write curves.csv, finals.csv and meta.json under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "curves.csv", CURVE_COLUMNS, report.curves)
    _write_csv(out_dir / "finals.csv", FINAL_COLUMNS, report.finals)
    meta = {
        "bounds": {fid: list(b) for fid, b in report.bounds.items()},
        "degenerate": list(report.degenerate),
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
    curves, finals = sorted(curves, key=_table_order), sorted(finals, key=_table_order)
    for prefix, columns, rows in (("curve", CURVE_COLUMNS, curves), ("violin", FINAL_COLUMNS, finals)):
        for fid, fn_rows in groupby(rows, key=attrgetter("function_id")):
            _write_csv(out_dir / f"{prefix}_{fid}.csv", columns, fn_rows)

    by_key: dict[tuple[str, int], list[float]] = {}
    for c in curves:
        by_key.setdefault((c.schedule_name, c.step), []).append(c.mean)
    rows = [
        (sched, step, sum(vals) / len(vals))
        for (sched, step), vals in sorted(by_key.items(), key=lambda kv: (_rank(kv[0][0], SCHEDULE_NAMES), kv[0][1]))
    ]
    _write_csv(out_dir / "average_curve.csv", ("schedule", "step", "mean_norm_log_regret"), rows)
    return [fid for fid, _ in groupby(curves, key=attrgetter("function_id"))]
