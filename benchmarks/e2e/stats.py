"""Small statistics the harness reports with: percentiles that refuse
thin tails, quartile spread, and the minimum-timed-work repetition rule.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["TooFewSamples", "percentile", "quartiles", "spread",
           "repeat_timed", "MIN_BEYOND"]

#: A percentile is only reported when at least this many samples lie
#: beyond it; with fewer, it is one or two outliers, not a percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has too thin a tail to be reported."""


def percentile(samples, q: float, *, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond the percentile (``len * (1 - q/100) < min_beyond``).
    """
    ordered = sorted(samples)
    if not ordered:
        raise TooFewSamples("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    beyond = len(ordered) * (1.0 - q / 100.0)
    if q > 50.0 and beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond:.1f} beyond it; "
            f"{min_beyond} are required")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def repeat_timed(measure, *, min_seconds: float,
                 min_repetitions: int = 3) -> list[float]:
    """Repeat ``measure()`` until the minimum-timed-work rule holds.

    ``measure`` runs one repetition and returns its duration in
    seconds.  Repetitions continue until their total reaches
    ``min_seconds`` *and* there are at least ``min_repetitions`` of
    them -- one fewer when a single repetition already exceeds
    ``min_seconds``.  The caller reports the median repetition.
    """
    durations: list[float] = []
    while True:
        durations.append(measure())
        needed = min_repetitions - (max(durations) > min_seconds)
        if sum(durations) >= min_seconds and len(durations) >= needed:
            return durations
