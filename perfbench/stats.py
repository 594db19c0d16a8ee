"""Pure helpers: percentiles, the capacity search and output checks.

Nothing here touches the serving stack, so the tests in
``test_perfbench.py`` call these functions with synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Awaitable, Callable, Dict, Iterable, Optional, Sequence

#: Rungs the capacity search moves per step before the verdict first flips.
LADDER_STRIDE = 4


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


async def search_ladder(
    n_rungs: int,
    start: int,
    probe: Callable[[int], Awaitable[bool]],
    trials: int,
    between: Optional[Callable[[], Awaitable[None]]] = None,
) -> float:
    """The rung around which probes pass half the time, or -1 if none passes.

    Near capacity a probe's verdict is noisy, so no single verdict decides.
    The search strides ``LADDER_STRIDE`` rungs at a time from ``start``
    (up after a pass, down after a failure; a failure counts only when a
    second probe of the same rung fails too) until the verdict flips.  It
    halves the bracket between the last rung that passed and the first
    that failed until the two are neighbours, so the staircase begins at
    the boundary.  Then it runs a one-rung staircase of ``trials`` probes,
    up after a pass and down after a failure, which settles into stepping
    between the last rung that passes and the first that fails.  The
    walk-in before the staircase first turns round is dropped (except its
    last step), and the result is the mean of the remaining rungs.  It
    lies between the two rungs the staircase steps between, so its whole
    part is the highest rung that passes.  ``between``, if given, is
    awaited before each probe of the staircase.
    """
    if n_rungs < 1:
        raise ValueError("the ladder needs at least one rung")
    passes = 0

    async def run(rung: int) -> bool:
        nonlocal passes
        passed = await probe(rung)
        passes += passed
        return passed

    async def confirmed(rung: int) -> bool:
        return await run(rung) or await run(rung)

    def clamp(rung: int) -> int:
        return min(max(rung, 0), n_rungs - 1)

    rung = clamp(start)
    first = last = await confirmed(rung)
    while True:
        following = clamp(rung + (LADDER_STRIDE if first else -LADDER_STRIDE))
        if following == rung:
            break
        previous, rung = rung, following
        last = await confirmed(rung)
        if last != first:
            low, high = (previous, rung) if first else (rung, previous)
            while high - low > 1:
                middle = (low + high) // 2
                if await run(middle):
                    low = middle
                else:
                    high = middle
            rung, last = low, True
            break
    visited, verdicts = [], []
    for _ in range(trials):
        rung = clamp(rung + (1 if last else -1))
        if between is not None:
            await between()
        last = await run(rung)
        visited.append(rung)
        verdicts.append(last)
    if not passes:
        return -1
    turn = next((i for i, v in enumerate(verdicts) if v != verdicts[0]), 0)
    kept = visited[max(0, turn - 1):]
    return sum(kept) / len(kept)


def check_answer(answer: Optional[Dict], allowed: Iterable) -> Optional[str]:
    """Why one predict answer is wrong, or None when it is right.

    ``answer`` is the decoded response (None when the request failed);
    ``allowed`` holds the labels the models give for the input when the
    benchmark calls them directly.
    """
    if answer is None:
        return "no answer"
    if answer.get("default_used"):
        return "default output"
    if answer.get("models_missing"):
        return "model missing"
    if answer.get("output") not in set(allowed):
        return "wrong label"
    return None


def summarize_failures(reasons: Iterable[Optional[str]]) -> Dict[str, int]:
    """Count failure reasons, ignoring successes."""
    counts: Dict[str, int] = {}
    for reason in reasons:
        if reason is not None:
            counts[reason] = counts.get(reason, 0) + 1
    return counts
