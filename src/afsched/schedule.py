"""Acquisition-function schedules over the surrogate-based evaluation budget.

Seven schedules: the two statics (always EI, always PI), two alternating
baselines (fair random coin, strict round robin starting with EI), and three
single-switch schedules `eeNN` that run EI for the first floor(NN% of T)
steps and PI for the rest.
"""

from __future__ import annotations

from .acquisition import AcquisitionKind
from .rng import substream

__all__ = ["SCHEDULE_NAMES", "kind_at"]

# Canonical ordering used in configuration and output files.
SCHEDULE_NAMES = ("ei", "pi", "random", "round_robin", "ee25", "ee50", "ee75")


def kind_at(name: str, step: int, total_bo_evals: int, seed: int) -> AcquisitionKind:
    """Acquisition function schedule `name` uses at 1-based `step` of 1..total_bo_evals.

    Pure in its arguments: the random schedule hashes (seed, step) into a
    dedicated coin substream, so repeated calls agree and other consumers of
    the seed are never perturbed.
    """
    if not 1 <= step <= total_bo_evals:
        raise ValueError(f"step {step} outside 1..{total_bo_evals}")
    if name == "ei":
        return AcquisitionKind.EI
    if name == "pi":
        return AcquisitionKind.PI
    if name == "round_robin":
        return AcquisitionKind.EI if step % 2 == 1 else AcquisitionKind.PI
    if name == "random":
        coin = substream(seed, "schedule-coin", step)
        return AcquisitionKind.EI if coin.random() < 0.5 else AcquisitionKind.PI
    if name in ("ee25", "ee50", "ee75"):
        # Integer form of step <= floor(tau * T); exact for every T.
        return AcquisitionKind.EI if step <= total_bo_evals * int(name[2:]) // 100 else AcquisitionKind.PI
    raise ValueError(f"unknown schedule {name!r}; valid schedules: {'|'.join(SCHEDULE_NAMES)}")
