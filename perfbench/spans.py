"""Spans around afsched's public functions, and the per-layer metrics they give.

`traced(tracer)` replaces, for the duration of a `with` block, every module
attribute of `afsched.*` that is bound to one of the wrapped functions (the
defining module's name and every `from ... import` of it) with a wrapper that
records a span: name, start, end and the index of the enclosing span. The
wrappers also count rows and read scipy's L-BFGS results. Spans stay in
memory; `layer_metrics` reduces them to calls, total and self time per name.
Only single-process runs are traced: worker processes would not report back.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import Counter

import numpy as np

_START, _END = 1, 2  # span layout: [name, start, end, parent index]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """`name` is a string, or a function of the call's arguments giving one."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name if isinstance(name, str) else name(*args), 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}


def _count_lbfgs(counts, args, result) -> None:
    counts["gp.lml.evals"] += int(result.nfev)
    counts["gp.lbfgs.iters"] += int(result.nit)
    counts["gp.lbfgs.unconverged"] += int(not result.success)
    message = result.message if isinstance(result.message, str) else result.message.decode()
    counts["gp.lbfgs.abnormal"] += int("ABNORMAL" in message)


def _count_rows(key: str, arg: int):
    def count(counts, args, result) -> None:
        counts[key] += int(np.shape(args[arg])[0])

    return count


def _targets():
    """(span name, defining module, attribute, counter) for every wrapped function."""
    from afsched import acquisition, afopt, benchfn, cli, gp, rng, runner, schedule

    return [
        ("gp.fit", gp, "fit", None),
        ("gp.build_model", gp, "build_model", None),
        ("gp.predict_batch", gp, "predict_batch", _count_rows("gp.predict_batch.rows", 1)),
        # scipy.optimize.minimize as gp binds it: one span per L-BFGS run.
        ("gp.lbfgs", gp, "minimize", _count_lbfgs),
        ("afopt.maximize_af", afopt, "maximize_af", None),
        ("afopt.initial_design", afopt, "initial_design", None),
        ("acquisition.scores", acquisition, "scores", _count_rows("afopt.rows_scored", 1)),
        ("benchfn.evaluate", benchfn, "evaluate", None),
        ("benchfn.evaluate_many", benchfn, "evaluate_many", _count_rows("benchfn.evaluate_many.rows", 1)),
        ("schedule.kind_at", schedule, "kind_at", None),
        ("rng.substream", rng, "substream", None),
        ("runner.run_trial", runner, "run_trial", None),
        ("runner.write_records", runner, "write_records", None),
        ("runner.read_records", runner, "read_records", None),
        ("runner.aggregate", runner, "aggregate", None),
        ("runner.write_aggregate", runner, "write_aggregate", None),
        ("runner.read_aggregate", runner, "read_aggregate", None),
        ("cli", cli, "main", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer | None):
    """Wrap every binding of the target functions in afsched's modules; restore on exit.

    With no tracer the block runs untouched.
    """
    if tracer is None:
        yield None
        return
    modules = [m for name, m in list(sys.modules.items()) if name == "afsched" or name.startswith("afsched.")]
    saved = []
    for name, module, attr, count in _targets():
        original = getattr(module, attr)
        if name == "cli":
            name = lambda argv: f"cli.{argv[0]}"  # noqa: E731 - one span name per sub-command
        wrapper = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
    try:
        yield tracer
    finally:
        for mod, key, original in saved:
            setattr(mod, key, original)


# (metric name, unit) in the order they are printed; every traced run reports all of them.
LAYER_METRICS = [
    ("gp.fit.calls", "count"),
    ("gp.fit.s", "s"),
    ("gp.lbfgs.runs", "count"),
    ("gp.lbfgs.s", "s"),
    ("gp.lml.evals", "count"),
    ("gp.lbfgs.iters", "count"),
    ("gp.lbfgs.unconverged", "count"),
    ("gp.lbfgs.abnormal", "count"),
    ("gp.lml.us_per_eval_in_fit", "us"),
    ("gp.build_model.s", "s"),
    ("gp.predict_batch.calls", "count"),
    ("gp.predict_batch.rows", "count"),
    ("gp.predict_batch.s", "s"),
    ("afopt.maximize_af.calls", "count"),
    ("afopt.maximize_af.s", "s"),
    ("afopt.maximize_af.self_s", "s"),
    ("afopt.rows_scored", "count"),
    ("afopt.initial_design.s", "s"),
    ("acquisition.scores.calls", "count"),
    ("acquisition.scores.s", "s"),
    ("benchfn.evaluate.calls", "count"),
    ("benchfn.evaluate.s", "s"),
    ("benchfn.evaluate_many.rows", "count"),
    ("benchfn.evaluate_many.s", "s"),
    ("schedule.kind_at.calls", "count"),
    ("schedule.kind_at.s", "s"),
    ("rng.substream.calls", "count"),
    ("rng.substream.s", "s"),
    ("runner.run_trial.calls", "count"),
    ("runner.run_trial.s", "s"),
    ("runner.run_trial.self_s", "s"),
    ("runner.steps_delivered", "count"),
    ("runner.write_records.s", "s"),
    ("runner.read_records.s", "s"),
    ("runner.aggregate.s", "s"),
    ("runner.write_aggregate.s", "s"),
    ("runner.read_aggregate.s", "s"),
    ("runner.jsonl_bytes", "B"),
    ("cli.aggregate.s", "s"),
    ("cli.report.s", "s"),
]


def layer_metrics(tracer: Tracer, extra_counts: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans, the wrapper counts and `extra_counts`."""
    totals = tracer.totals()
    counts = Counter(tracer.counts)
    counts.update(extra_counts)
    values: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        calls, total, self_s = totals.get(span, (0, 0.0, 0.0))
        if field in ("calls", "runs"):
            values[metric] = calls
        elif field == "s":
            values[metric] = total
        elif field == "self_s":
            values[metric] = self_s
        else:
            values[metric] = counts[metric]
    evals = values["gp.lml.evals"]
    values["gp.lml.us_per_eval_in_fit"] = 1e6 * values["gp.lbfgs.s"] / evals if evals else 0.0
    return values


# ---------------------------------------------------------------------------
# Standalone timings of single public calls, after a warm-up.


def _median_call_us(call, batch_s: float = 0.01, batches: int = 9) -> float:
    """Median over `batches` of the mean time of one call, in microseconds."""
    for _ in range(3):
        call()
    start = time.perf_counter()
    call()
    per_batch = max(1, int(batch_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(per_batch):
            call()
        samples.append((time.perf_counter() - start) / per_batch)
    return 1e6 * statistics.median(samples)


MICRO_LML = [(n, d) for d in (2, 5) for n in (21, 50, 115)]
MICRO_ROWS = 1024


def micro_metric_names() -> list[tuple[str, str]]:
    from afsched.benchfn import FUNCTION_IDS

    return (
        [(f"gp.lml_us.n{n}_d{d}", "us") for n, d in MICRO_LML]
        + [(f"benchfn.{fid}.us_per_row", "us") for fid in FUNCTION_IDS]
        + [(f"gp.predict_batch_us.rows{MICRO_ROWS}", "us")]
    )


def micro_timings(seed: int) -> dict[str, float]:
    """log_marginal_likelihood at each (n, d); evaluate_many and predict_batch at 1024 rows, d=5."""
    from afsched.benchfn import FUNCTION_IDS, evaluate_many, make_instance
    from afsched.gp import KernelParams, build_model, log_marginal_likelihood, predict_batch

    rng = np.random.default_rng([seed, 7])
    out = {}
    for n, d in MICRO_LML:
        params = KernelParams(np.full(d, np.log(0.3)), 0.0, float(np.log(1e-4)))
        x, y = rng.random((n, d)), rng.standard_normal(n)
        out[f"gp.lml_us.n{n}_d{d}"] = _median_call_us(lambda: log_marginal_likelihood(params, x, y))
    rows = rng.uniform(-5.0, 5.0, size=(MICRO_ROWS, 5))
    for fid in FUNCTION_IDS:
        inst = make_instance(fid, 5, seed)
        out[f"benchfn.{fid}.us_per_row"] = _median_call_us(lambda: evaluate_many(inst, rows)) / MICRO_ROWS
    params = KernelParams(np.full(5, np.log(0.3)), 0.0, float(np.log(1e-4)))
    model = build_model(rng.random((50, 5)), rng.standard_normal(50), params)
    unit_rows = rng.random((MICRO_ROWS, 5))
    out[f"gp.predict_batch_us.rows{MICRO_ROWS}"] = _median_call_us(lambda: predict_batch(model, unit_rows))
    return out
