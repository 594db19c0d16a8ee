"""Tests of the benchmark's own logic on synthetic inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from loadgen import poisson_arrivals  # noqa: E402
from stats import (  # noqa: E402
    beyond,
    check_answer,
    percentile,
    quartile_spread,
    search_ladder,
    summarize_failures,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(reversed(values)), 95) == 95


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_counts_samples_above_the_percentile():
    assert beyond(100, 95) == 5
    assert beyond(1000, 95) == 50
    assert beyond(10, 50) == 5
    values = list(np.random.default_rng(0).random(333))
    p = percentile(values, 95)
    assert sum(v > p for v in values) == beyond(len(values), 95)


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles(n=4) gives 2.75, 5.5, 8.25 for these values.
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def _search(capacity_rung, n=40, start=10, trials=8, flaky=()):
    """Run the ladder search against a synthetic system.

    Rungs at or below ``capacity_rung`` pass; the probes listed in
    ``flaky`` (by call number) give the wrong verdict.
    """
    calls = []

    async def probe(rung):
        calls.append(rung)
        verdict = rung <= capacity_rung
        return (not verdict) if len(calls) - 1 in flaky else verdict

    return asyncio.run(search_ladder(n, start, probe, trials)), calls


@pytest.mark.parametrize("capacity", [0, 1, 9, 10, 11, 17, 25, 38, 39])
def test_ladder_search_settles_between_the_last_pass_and_the_first_failure(capacity):
    found, calls = _search(capacity)
    assert capacity <= found < capacity + 1


def test_ladder_search_reports_minus_one_when_nothing_passes():
    found, _ = _search(-1)
    assert found == -1


def test_ladder_search_strides_halves_then_walks_one_rung_at_a_time():
    found, calls = _search(17, start=10, trials=6)
    assert 17 <= found < 18
    # Pass, pass, a failure confirmed by a second probe, two halvings of
    # the bracket 14..18, then the staircase from the boundary.
    assert calls == [10, 14, 18, 18, 16, 17, 18, 17, 18, 17, 18, 17]


def test_ladder_search_awaits_between_before_each_staircase_probe():
    events = []

    async def probe(rung):
        events.append(rung)
        return rung <= 17

    async def between():
        events.append("window")

    asyncio.run(search_ladder(40, 10, probe, 3, between=between))
    assert events == [10, 14, 18, 18, 16, 17, "window", 18, "window", 17, "window", 18]


def test_the_staircase_median_ignores_the_walk_in():
    # Striding down from a start far above capacity, then walking back up.
    found, calls = _search(5, start=30, trials=12)
    assert calls[:8] == [30, 30, 26, 26, 22, 22, 18, 18]
    assert 5 <= found < 6


def test_single_wrong_verdicts_do_not_move_the_result():
    # A spurious failure below capacity and a spurious pass above it.
    for flaky in ({0}, {4}, {5}, {6}):
        found, _ = _search(17, start=10, trials=10, flaky=flaky)
        assert 17 <= found < 18, flaky


def test_noisy_verdicts_settle_near_capacity():
    # Near capacity the verdict is a coin flip; far from it, it is sure.
    rng = np.random.default_rng(3)

    async def probe(rung):
        p_pass = min(1.0, max(0.0, 0.5 - (rung - 20) * 0.25))
        return bool(rng.random() < p_pass)

    found = [asyncio.run(search_ladder(40, 10, probe, 8)) for _ in range(50)]
    assert all(18 <= f <= 22 for f in found)


def test_check_answer_flags_every_kind_of_wrong_answer():
    good = {"output": 3, "default_used": False, "models_missing": []}
    assert check_answer(good, {3}) is None
    assert check_answer(good, {1, 3, 5}) is None
    assert check_answer(None, {3}) == "no answer"
    assert check_answer(dict(good, default_used=True), {3}) == "default output"
    assert check_answer(dict(good, models_missing=["m:1"]), {3}) == "model missing"
    assert check_answer(dict(good, output=4), {3}) == "wrong label"
    assert check_answer(dict(good, output=np.int64(3)), {3}) is None


def test_summarize_failures_counts_reasons():
    reasons = [None, "wrong label", None, "no answer", "wrong label"]
    assert summarize_failures(reasons) == {"wrong label": 2, "no answer": 1}


def test_poisson_arrivals_are_seeded_and_at_the_rate():
    a = poisson_arrivals(np.random.default_rng(5), 1000.0, 2.0)
    b = poisson_arrivals(np.random.default_rng(5), 1000.0, 2.0)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[-1] < 2.0
    assert 1800 < len(a) < 2200
