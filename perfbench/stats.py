"""Small statistics and result helpers shared by every workload."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow sample cannot define it, and only when that
#: percentile is at least TAIL_MIN_PERCENTILE (a tail, not a median).
TAIL_MIN_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0

#: The failure kinds an operation can end in; ``None`` means success.
FAIL_EXCEPTION = "exception"
FAIL_WRONG_ANSWER = "wrong-answer"
FAIL_NOT_SERVED = "not-served"
FAIL_EXIT_CODE = "nonzero-exit"


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(
    values: Sequence[float],
    min_beyond: int = TAIL_MIN_BEYOND,
    min_percentile: float = TAIL_MIN_PERCENTILE,
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, beyond)``: the sample with exactly
    ``min_beyond`` samples after it in sorted order, and its percentile
    ``100 * (n - min_beyond) / n``; or ``None`` when the sample is too
    small for that percentile to reach ``min_percentile``.
    """
    n = len(values)
    if n <= min_beyond:
        return None
    percentile = 100.0 * (n - min_beyond) / n
    if percentile < min_percentile:
        return None
    return percentile, float(sorted(values)[n - min_beyond - 1]), min_beyond


def classify_failure(
    exception: Optional[BaseException] = None,
    correct: Optional[bool] = None,
    outcome: Optional[str] = None,
    exit_code: Optional[int] = None,
) -> Optional[str]:
    """The failure kind of one operation, or ``None`` if it succeeded.

    An exception outranks everything; then a nonzero CLI exit, a serve
    outcome other than ``served``, and finally a wrong answer.
    """
    if exception is not None:
        return FAIL_EXCEPTION
    if exit_code is not None and exit_code != 0:
        return FAIL_EXIT_CODE
    if outcome is not None and outcome != "served":
        return FAIL_NOT_SERVED
    if correct is False:
        return FAIL_WRONG_ANSWER
    return None


class Tally:
    """Attempted/failed counts and per-operation wall latencies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.latencies: List[float] = []
        self.first_failure: Optional[str] = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, seconds: float, failure: Optional[str], what: str = "") -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1
            if self.first_failure is None:
                self.first_failure = f"{failure}: {what}"


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB of this process or its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def latency_summary(latencies: Iterable[float]) -> Dict[str, object]:
    """Median and tail latency (ms) with the tail's percentile and count."""
    ms = [1000.0 * s for s in latencies]
    summary: Dict[str, object] = {"samples": len(ms), "p50_ms": median(ms)}
    tail = tail_percentile(ms)
    if tail is not None:
        pct, value, beyond = tail
        summary.update(tail_ms=value, tail_percentile=pct, tail_beyond=beyond)
    return summary
