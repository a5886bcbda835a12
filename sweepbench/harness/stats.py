"""Summaries of repeated measurements and baseline verdicts."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-quantile (0 < q < 1), or ``None`` with too few samples.

    ``None`` whenever fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond it, so a tail is never read off a handful of points.
    """
    beyond = len(values) - math.ceil(round(q * len(values), 9))
    if not values or beyond < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: list[float]) -> dict:
    """Median, first and third quartile, IQR and sample count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def _worse_by(better: str, value: float, reference: float) -> float:
    """Relative amount by which ``value`` is worse than ``reference``."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def verdict(metric: dict, baseline: dict, values: list[float]) -> str:
    """``better``, ``same``, ``worse`` or ``unresolved`` against a baseline.

    ``metric`` carries ``better`` and ``bound``; ``baseline`` is a
    :func:`summarize` of the reference runs.  Unresolved: the new runs'
    IQR is wider than the bound and not every run reads better than the
    baseline median.  Worse: the median is worse by more than the bound.
    Better: the median is better by more than the baseline's own IQR.
    """
    current = summarize(values)
    reference = baseline["median"]
    all_better = all(_worse_by(metric["better"], value, reference) < 0 for value in values)
    if current["iqr"] / current["median"] > metric["bound"] and not all_better:
        return "unresolved"
    worse_by = _worse_by(metric["better"], current["median"], reference)
    if worse_by > metric["bound"]:
        return "worse"
    if -worse_by > baseline["iqr"] / reference:
        return "better"
    return "same"
