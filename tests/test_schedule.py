from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from afsched.acquisition import AcquisitionKind
from afsched.schedule import SCHEDULE_NAMES, kind_at

EI = AcquisitionKind.EI
PI = AcquisitionKind.PI


def trace(name: str, total: int, seed: int) -> list[AcquisitionKind]:
    """kind_at for every step 1..total."""
    return [kind_at(name, step, total, seed) for step in range(1, total + 1)]


def test_table_order_of_names() -> None:
    assert SCHEDULE_NAMES == ("ei", "pi", "random", "round_robin", "ee25", "ee50", "ee75")


def test_statics() -> None:
    assert trace("pi", 3, seed=0) == [PI, PI, PI]
    assert trace("ei", 3, seed=0) == [EI, EI, EI]


def test_round_robin_alternates_starting_with_ei() -> None:
    assert trace("round_robin", 4, seed=0) == [EI, PI, EI, PI]


def test_explore_exploit_switch_boundary() -> None:
    assert kind_at("ee25", 25, 100, seed=0) is EI
    assert kind_at("ee25", 26, 100, seed=0) is PI


def test_explore_exploit_tiny_budget_switches_immediately() -> None:
    # floor(0.5 * 1) = 0, so the single step already exploits.
    assert kind_at("ee50", 1, 1, seed=0) is PI


def test_explore_exploit_counts_are_exact() -> None:
    for tau, name in ((0.25, "ee25"), (0.5, "ee50"), (0.75, "ee75")):
        for total in (1, 2, 3, 7, 40, 99, 100, 101):
            kinds = trace(name, total, seed=0)
            assert kinds.count(EI) == int(tau * total // 1)
            assert kinds.count(EI) == len([k for k in kinds if k is EI])


def test_explore_exploit_trace_is_monotone() -> None:
    for name in ("ee25", "ee50", "ee75"):
        seen_pi = False
        for kind in trace(name, 37, seed=5):
            if kind is PI:
                seen_pi = True
            elif seen_pi:
                pytest.fail("EI after the first PI")


def test_ee75_of_100_is_75_then_25() -> None:
    kinds = trace("ee75", 100, seed=0)
    assert kinds[:75] == [EI] * 75
    assert kinds[75:] == [PI] * 25


def test_random_is_pure_in_spec_step_seed() -> None:
    for step in (1, 17, 50):
        assert kind_at("random", step, 50, seed=99) is kind_at("random", step, 50, seed=99)
    assert trace("random", 50, seed=99) == trace("random", 50, seed=99)


def test_random_seeds_differ() -> None:
    assert trace("random", 64, seed=0) != trace("random", 64, seed=1)


def test_random_coin_is_roughly_fair() -> None:
    frac = trace("random", 10_000, seed=0).count(EI) / 10_000
    assert 0.48 <= frac <= 0.52


def test_step_out_of_range() -> None:
    with pytest.raises(ValueError):
        kind_at("ei", 0, 5, seed=0)
    with pytest.raises(ValueError):
        kind_at("ei", 6, 5, seed=0)


def test_unknown_name_lists_valid_ones() -> None:
    with pytest.raises(ValueError, match=r"ei\|pi\|random\|round_robin\|ee25\|ee50\|ee75"):
        kind_at("ee30", 1, 10, seed=0)


@st.composite
def _call(draw) -> tuple[str, int, int, int]:
    """Arguments of one valid kind_at call: a name, a step within a budget of 1..500, the budget and a seed."""
    total = draw(st.integers(1, 500))
    return draw(st.sampled_from(SCHEDULE_NAMES)), draw(st.integers(1, total)), total, draw(st.integers(-(2**63), 2**63))


@given(call=_call(), other=_call())
def test_kind_at_is_pure(call, other) -> None:
    first = kind_at(*call)
    kind_at(*other)
    assert kind_at(*call) is first


@given(percent=st.sampled_from((25, 50, 75)), total=st.integers(1, 500))
def test_explore_exploit_runs_ei_for_exactly_the_floor_of_its_share(percent, total) -> None:
    switch = math.floor(Fraction(percent, 100) * total)
    assert trace(f"ee{percent}", total, seed=0) == [EI] * switch + [PI] * (total - switch)
