"""Output checks made apart from afsched.

Every check takes the program's outputs as plain data (JSON records parsed
from `trajectories.jsonl`, rows parsed from the CSV tables) and returns a
list of problems, empty when the output is correct. The expected values come
from properties of the method (running minima, Latin hypercube strata,
schedule definitions, shared random substreams) or from this module's own
numpy computation, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DOMAIN = (-5.0, 5.0)
REGRET_CLAMP = 1e-12
ROUNDOFF = 1e-12
CSV_TOLERANCE = 1e-12
# Schedules whose acquisition sequence is fixed by (step, T) alone.
SWITCH_FRACTIONS = {"ee25": 0.25, "ee50": 0.50, "ee75": 0.75}
PREFIX_SCHEDULES = ("ee25", "ee50", "ee75", "round_robin")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def _cell(rec: dict) -> str:
    return f"{rec['function']}/{rec['schedule']}/seed={rec['seed']}"


def expected_af(schedule: str, steps: int) -> list[str] | None:
    """The acquisition sequence a deterministic schedule defines; None for `random`."""
    if schedule in ("ei", "pi"):
        return [schedule] * steps
    if schedule == "round_robin":
        return ["ei" if t % 2 == 1 else "pi" for t in range(1, steps + 1)]
    if schedule in SWITCH_FRACTIONS:
        switch = math.floor(SWITCH_FRACTIONS[schedule] * steps)
        return ["ei" if t <= switch else "pi" for t in range(1, steps + 1)]
    return None


def check_shapes(records: list[dict], dim: int, doe_size: int, steps: int) -> list[str]:
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        shapes = (
            np.shape(rec["doe_x"]) == (doe_size, dim),
            len(rec["doe_y"]) == doe_size,
            np.shape(rec["x"]) == (steps, dim),
            len(rec["y"]) == len(rec["incumbent"]) == len(rec["af"]) == steps,
            rec["dim"] == dim,
        )
        if not all(shapes):
            problems.append(f"{_cell(rec)}: record shapes do not match d={dim}, doe={doe_size}, T={steps}")
    return problems


def check_incumbents(records: list[dict]) -> list[str]:
    """Each incumbent is exactly the running minimum over doe_y then y."""
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        observed = np.concatenate([rec["doe_y"], rec["y"]])
        expected = np.minimum.accumulate(observed)[len(rec["doe_y"]):]
        if not np.array_equal(expected, np.asarray(rec["incumbent"], dtype=float)):
            step = int(np.flatnonzero(expected != np.asarray(rec["incumbent"]))[0]) + 1
            problems.append(f"{_cell(rec)}: incumbent at step {step} is not the running minimum")
    return problems


def check_domain(records: list[dict]) -> list[str]:
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        points = np.concatenate([np.asarray(rec["doe_x"]), np.asarray(rec["x"])])
        if not np.all((points >= DOMAIN[0]) & (points <= DOMAIN[1])):
            problems.append(f"{_cell(rec)}: a point lies outside [-5, 5]^d")
    return problems


def check_regret(records: list[dict]) -> list[str]:
    """Regret y - f_opt is never below 0 beyond round-off."""
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        values = np.concatenate([rec["doe_y"], rec["y"], rec["incumbent"]]) - rec["f_opt"]
        if not np.all(values >= -ROUNDOFF):
            problems.append(f"{_cell(rec)}: negative regret {float(values.min()):.3g}")
    return problems


def check_lhs(records: list[dict]) -> list[str]:
    """Each design coordinate has exactly one point in each of n equal strata."""
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        doe = np.asarray(rec["doe_x"], dtype=float)
        n = doe.shape[0]
        strata = np.floor((doe - DOMAIN[0]) / (DOMAIN[1] - DOMAIN[0]) * n).astype(int)
        for j in range(doe.shape[1]):
            if sorted(strata[:, j]) != list(range(n)):
                problems.append(f"{_cell(rec)}: design coordinate {j} is not one point per stratum")
    return problems


def check_shared_design(records: list[dict]) -> list[str]:
    """All cells under one seed share the design bitwise, across schedules and functions."""
    problems = []
    first: dict[int, dict] = {}
    for rec in records:
        if "error" in rec:
            continue
        ref = first.setdefault(rec["seed"], rec)
        if np.asarray(rec["doe_x"]).tobytes() != np.asarray(ref["doe_x"]).tobytes():
            problems.append(f"{_cell(rec)}: design differs from {_cell(ref)}")
    return problems


def check_schedules(records: list[dict]) -> list[str]:
    """Deterministic schedules follow their definition; `random` uses only EI and PI."""
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        expected = expected_af(rec["schedule"], len(rec["af"]))
        if expected is None:
            if not set(rec["af"]) <= {"ei", "pi"}:
                problems.append(f"{_cell(rec)}: unknown acquisition kind")
        elif rec["af"] != expected:
            step = next(t for t, (a, b) in enumerate(zip(rec["af"], expected), 1) if a != b)
            problems.append(f"{_cell(rec)}: af at step {step} is {rec['af'][step - 1]}, definition says {expected[step - 1]}")
    return problems


def check_prefixes(records: list[dict]) -> list[str]:
    """ee25/ee50/ee75/round_robin equal ei bitwise until their AF sequences diverge.

    Per-step random substreams are keyed on (seed, function, step) and not on
    the schedule, so two schedules that chose the same acquisition functions
    so far have taken the same steps.
    """
    problems = []
    by_key = {(r["function"], r["schedule"], r["seed"]): r for r in records if "error" not in r}
    for (fid, sched, seed), rec in by_key.items():
        base = by_key.get((fid, "ei", seed))
        if sched not in PREFIX_SCHEDULES or base is None:
            continue
        same = 0
        while same < len(rec["af"]) and rec["af"][same] == base["af"][same]:
            same += 1
        for key in ("x", "y", "incumbent"):
            a = np.asarray(rec[key][:same], dtype=float)
            b = np.asarray(base[key][:same], dtype=float)
            if a.tobytes() != b.tobytes():
                problems.append(f"{_cell(rec)}: {key} differs from ei within the first {same} shared steps")
    return problems


def check_beats_random_search(records: list[dict], random_best: dict[int, float]) -> list[str]:
    """On f1 every final regret is below a same-budget uniform random search's best."""
    problems = []
    for rec in records:
        if "error" in rec or rec["function"] != "f1":
            continue
        final = rec["incumbent"][-1] - rec["f_opt"]
        if not final < random_best[rec["seed"]]:
            problems.append(f"{_cell(rec)}: final regret {final:.3g} is not below random search's {random_best[rec['seed']]:.3g}")
    return problems


def check_trajectories(
    records: list[dict], dim: int, doe_size: int, steps: int, random_best: dict[int, float]
) -> list[str]:
    """Every per-record and cross-record property of a grid's trajectories."""
    problems = check_shapes(records, dim, doe_size, steps)
    if problems:
        return problems
    return (
        check_incumbents(records)
        + check_domain(records)
        + check_regret(records)
        + check_lhs(records)
        + check_shared_design(records)
        + check_schedules(records)
        + check_prefixes(records)
        + check_beats_random_search(records, random_best)
    )


def check_identical_files(a: Path, b: Path) -> list[str]:
    da, db = Path(a).read_bytes(), Path(b).read_bytes()
    if da == db:
        return []
    at = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y), min(len(da), len(db)))
    return [f"{Path(a).name} and {Path(b).name} differ from byte {at}"]


# ---------------------------------------------------------------------------
# The aggregate and report tables, recomputed from the trajectories.


def reference_tables(incumbents: dict[tuple[str, str, int], np.ndarray], f_opt: float = 0.0) -> dict:
    """Clamped log10 regret, per-function min-max normalization, mean and CI per step.

    `incumbents` maps (function, schedule, seed) to the incumbent after each
    surrogate step. Returns dicts keyed like the CSV rows.
    """
    logs = {key: np.log10(np.maximum(np.asarray(inc, dtype=float) - f_opt, REGRET_CLAMP)) for key, inc in incumbents.items()}
    functions = sorted({k[0] for k in logs})
    bounds, norm = {}, {}
    for fid in functions:
        values = np.concatenate([v for k, v in logs.items() if k[0] == fid])
        lo, hi = float(values.min()), float(values.max())
        bounds[fid] = (lo, hi)
        for k, v in logs.items():
            if k[0] == fid:
                norm[k] = (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)
    curves, finals = {}, {}
    for fid, sched in sorted({k[:2] for k in norm}):
        seeds = sorted(k[2] for k in norm if k[:2] == (fid, sched))
        matrix = np.vstack([norm[(fid, sched, s)] for s in seeds])
        means = matrix.mean(axis=0)
        half = 1.96 * matrix.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        for t in range(matrix.shape[1]):
            curves[(fid, sched, t + 1)] = (means[t], half[t])
        for row, s in enumerate(seeds):
            finals[(fid, sched, s)] = matrix[row, -1]
    average = {}
    for (fid, sched, step), (mean, _) in curves.items():
        average.setdefault((sched, step), []).append(mean)
    average = {key: float(np.mean(vals)) for key, vals in average.items()}
    return {"bounds": bounds, "curves": curves, "finals": finals, "average": average}


def _compare(name: str, expected: dict, found: dict) -> list[str]:
    if expected.keys() != found.keys():
        missing = len(expected.keys() - found.keys())
        extra = len(found.keys() - expected.keys())
        return [f"{name}: {missing} rows missing, {extra} unexpected"]
    problems = []
    for key, want in expected.items():
        got = found[key]
        if not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= CSV_TOLERANCE):
            problems.append(f"{name}: row {key} is {got}, expected {want}")
            if len(problems) >= 5:
                break
    return problems


def check_tables(ref: dict, agg_dir: Path, report_dir: Path) -> list[str]:
    """curves.csv, finals.csv, meta.json and average_curve.csv against `ref`."""
    _, rows = read_csv(agg_dir / "curves.csv")
    curves = {(r[0], r[1], int(r[2])): (float(r[3]), float(r[4])) for r in rows}
    _, rows = read_csv(agg_dir / "finals.csv")
    finals = {(r[0], r[1], int(r[2])): float(r[3]) for r in rows}
    _, rows = read_csv(report_dir / "average_curve.csv")
    average = {(r[0], int(r[1])): float(r[2]) for r in rows}
    meta = json.loads((agg_dir / "meta.json").read_text(encoding="utf-8"))
    bounds = {fid: tuple(b) for fid, b in meta["bounds"].items()}

    problems = (
        _compare("curves.csv", ref["curves"], curves)
        + _compare("finals.csv", ref["finals"], finals)
        + _compare("average_curve.csv", ref["average"], average)
        + _compare("meta.json bounds", ref["bounds"], bounds)
    )
    normalized = [m for m, _ in curves.values()] + list(finals.values()) + list(average.values())
    if not all(0.0 <= v <= 1.0 for v in normalized):
        problems.append("a normalized value lies outside [0, 1]")
    for fid, (lo, hi) in ref["bounds"].items():
        if hi > lo and min(v for k, v in finals.items() if k[0] == fid) != 0.0:
            problems.append(f"{fid}: no final value reaches the normalized minimum 0")
    return problems
