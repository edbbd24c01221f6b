"""Summary statistics of the benchmark and the ``--compare`` verdicts.

Timings are reported as a median and the highest tail percentile that has at
least :data:`MIN_SAMPLES_BEYOND` samples beyond it; fewer samples make a
tail figure a reading of one or two outliers.  Run-to-run spread is the
distance between the first and third quartile of a metric's values, as a
share of their median (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "MIN_SAMPLES_BEYOND",
    "percentile",
    "supported_percentile",
    "latency_summary",
    "quartiles",
    "relative_spread",
    "compare_metric",
]

#: Samples a tail percentile needs beyond it before it is reported.
MIN_SAMPLES_BEYOND = 10
_TAILS = (99.9, 99.0, 90.0, 50.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def supported_percentile(n_samples: int) -> float | None:
    """The highest of p99.9/p99/p90/p50 with enough samples beyond it."""
    for q in _TAILS:
        if n_samples * (1.0 - q / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9:
            return q
    return None


def latency_summary(seconds) -> dict:
    """p50, p90, p99 (ms), the sample count and the highest supported percentile."""
    values = list(seconds)
    return {
        "p50_ms": percentile(values, 50.0) * 1e3,
        "p90_ms": percentile(values, 90.0) * 1e3,
        "p99_ms": percentile(values, 99.0) * 1e3,
        "n": len(values),
        "supported": supported_percentile(len(values)),
    }


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def compare_metric(before, after, better: str, bound: float | None) -> dict:
    """Medians, quartiles and the verdict for one metric across two run sets.

    ``delta`` is the change of the median as a share of the ``before``
    median, signed so that positive is worse.  The verdict is
    ``unresolved`` when either side's spread is wider than ``bound`` (unless
    every ``after`` run beats every ``before`` run), ``worse`` when the delta
    exceeds the bound, ``better``/``same`` otherwise.  Metrics without a
    bound get no verdict.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    qa, qb = quartiles(before), quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else math.inf
    result = {"before": qa, "after": qb, "delta": delta, "verdict": None}
    if bound is None:
        return result
    all_better = (
        max(after) < min(before) if better == "lower" else min(after) > max(before)
    )
    spread = max(relative_spread(before), relative_spread(after))
    if spread > bound and not all_better:
        result["verdict"] = "unresolved"
    elif delta > bound:
        result["verdict"] = "worse"
    elif delta < 0.0:
        result["verdict"] = "better"
    else:
        result["verdict"] = "same"
    return result
