"""Benchmark parameter searching (paper Appendix B).

End-to-end validation benchmarks only need a window of steady-state
steps, not a full training run.  Appendix B searches offline for the
warm-up step count ``w`` and measurement step count ``n`` that
minimize total steps while keeping the window self-similar within the
similarity threshold ``alpha``:

1. estimate the step-throughput cycle period ``p`` with classical
   seasonal decomposition by moving averages;
2. split the series into cycles and walk from the start, looking for a
   run of consecutive cycles that are mutually similar;
3. set ``w`` to the beginning of that run and ``n`` to cover it;
4. across nodes, pick the candidate window that maximizes average
   pairwise similarity (repeatability).

statsmodels is not available offline, so the decomposition is
implemented here directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchsuite.runner import StepWindow
from repro.core.ecdf import as_sample
from repro.core.fastdist import SortedSampleBatch, batch_gap_integrals
from repro.core.repeatability import pairwise_repeatability
from repro.exceptions import BenchmarkError

__all__ = [
    "seasonal_decompose",
    "estimate_period",
    "search_window",
    "tune_window_across_nodes",
]


@dataclass(frozen=True)
class SeasonalDecomposition:
    """Multiplicative decomposition ``series = trend * seasonal * resid``."""

    trend: np.ndarray
    seasonal: np.ndarray
    resid: np.ndarray
    period: int


def _centered_moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with NaN padding at the edges.

    Even windows use the standard 2x(window) convention so the average
    stays centered on a step.
    """
    n = series.size
    out = np.full(n, np.nan)
    if window >= n:
        return out
    if window % 2 == 1:
        kernel = np.ones(window) / window
        valid = np.convolve(series, kernel, mode="valid")
        half = window // 2
        out[half:half + valid.size] = valid
    else:
        kernel = np.ones(window + 1) / window
        kernel[0] = kernel[-1] = 0.5 / window
        valid = np.convolve(series, kernel, mode="valid")
        half = window // 2
        out[half:half + valid.size] = valid
    return out


def seasonal_decompose(series, period: int) -> SeasonalDecomposition:
    """Classical multiplicative seasonal decomposition by moving averages."""
    values = as_sample(series)
    if period < 2:
        raise BenchmarkError(f"period must be at least 2, got {period}")
    if values.size < 2 * period:
        raise BenchmarkError(
            f"series of {values.size} steps is too short for period {period}"
        )
    trend = _centered_moving_average(values, period)
    with np.errstate(invalid="ignore"):
        detrended = values / trend
    seasonal_means = np.ones(period)
    for phase in range(period):
        phase_values = detrended[phase::period]
        phase_values = phase_values[np.isfinite(phase_values)]
        if phase_values.size:
            seasonal_means[phase] = phase_values.mean()
    seasonal_means /= seasonal_means.mean()
    seasonal = np.tile(seasonal_means, values.size // period + 1)[:values.size]
    with np.errstate(invalid="ignore"):
        resid = values / (trend * seasonal)
    return SeasonalDecomposition(trend=trend, seasonal=seasonal,
                                 resid=resid, period=period)


def estimate_period(series, *, min_period: int = 8,
                    max_period: int | None = None) -> int:
    """Estimate the dominant cycle period via autocorrelation.

    The series is detrended with a long moving average first so slow
    warm-up drift does not masquerade as a cycle.
    """
    values = as_sample(series)
    n = values.size
    if max_period is None:
        max_period = max(min_period + 1, n // 4)
    if n < 2 * min_period:
        raise BenchmarkError("series too short for period estimation")

    trend = _centered_moving_average(values, min(max(n // 8, 3), n - 1))
    centered = values - np.where(np.isfinite(trend), trend, values.mean())
    centered -= centered.mean()
    denominator = float(np.dot(centered, centered))
    if denominator <= 0.0:
        return min_period

    lags = np.arange(min_period, min(max_period, n - 1) + 1)
    acf = np.array([
        float(np.dot(centered[:-lag], centered[lag:])) / denominator
        for lag in lags
    ])
    # Residual slow trend inflates the ACF at *every* small lag, so the
    # global maximum would collapse to min_period; a true cycle shows
    # up as a local peak instead.
    peaks = [i for i in range(1, acf.size - 1)
             if acf[i] > acf[i - 1] and acf[i] >= acf[i + 1]]
    if peaks:
        best = max(peaks, key=lambda i: acf[i])
        return int(lags[best])
    return int(lags[int(np.argmax(acf))])


def search_window(series, alpha: float = 0.95, *, period: int | None = None,
                  min_similar_cycles: int = 16) -> StepWindow:
    """Appendix B window search on one node's full step series.

    Finds the earliest run of ``min_similar_cycles`` consecutive cycles
    whose pairwise similarity exceeds ``alpha`` and returns the
    corresponding :class:`StepWindow`.  Falls back to the second half
    of the series when no such run exists (a high-variance benchmark).
    """
    values = as_sample(series)
    p = period if period is not None else estimate_period(values)
    n_cycles = values.size // p
    if n_cycles < 2:
        raise BenchmarkError(
            f"series of {values.size} steps has fewer than two {p}-step cycles"
        )
    # All consecutive-cycle similarities in one row-wise kernel call:
    # row i of the "a" rows against row i+1 of the "b" rows.
    cycles = np.sort(values[:n_cycles * p].reshape(n_cycles, p), axis=1)
    adjacent_sims = 1.0 - batch_gap_integrals(
        SortedSampleBatch.from_rows(cycles[:-1]),
        SortedSampleBatch.from_rows(cycles[1:]))

    run_start = 0
    run_length = 1
    for i in range(1, n_cycles):
        if adjacent_sims[i - 1] > alpha:
            run_length += 1
        else:
            run_start, run_length = i, 1
        if run_length >= min_similar_cycles:
            warmup = run_start * p
            measure = run_length * p
            return StepWindow(warmup=warmup, measure=measure)
    # Fallback: keep the second half (conservative but always valid).
    half = values.size // 2
    return StepWindow(warmup=half, measure=values.size - half)


def tune_window_across_nodes(node_series: dict[str, np.ndarray],
                             alpha: float = 0.95, *,
                             min_similar_cycles: int = 16) -> StepWindow:
    """Pick the candidate window maximizing cross-node repeatability.

    Each node's series proposes a candidate window (its own
    :func:`search_window` result); every candidate is scored by the
    average pairwise similarity of the *windowed* series across all
    nodes, and the best-scoring window wins.  Ties break toward fewer
    total steps.
    """
    if len(node_series) < 2:
        raise BenchmarkError("window tuning needs series from at least two nodes")
    series_list = [as_sample(s) for s in node_series.values()]
    candidates = []
    for series in series_list:
        try:
            candidates.append(search_window(series, alpha,
                                            min_similar_cycles=min_similar_cycles))
        except BenchmarkError:
            continue
    if not candidates:
        raise BenchmarkError("no node produced a valid candidate window")

    def score(window: StepWindow) -> float:
        windowed = []
        for series in series_list:
            if series.size >= window.total_steps:
                windowed.append(window.apply(series))
        if len(windowed) < 2:
            return -np.inf
        return pairwise_repeatability(windowed)

    best = max(candidates, key=lambda w: (score(w), -w.total_steps))
    return best
