"""Telemetry sanitization at ingestion.

Every measurement window crosses this layer before the Validator sees
it.  Implausible values are *quarantined* -- removed from the window
and recorded with full provenance (node, benchmark, metric, fault
class, example raw value) in a :class:`TelemetryLedger` -- instead of
raised, so one corrupted measurement can neither crash fleet-wide
criteria learning nor evict a healthy node.

Fault taxonomy (the classes a record's ``fault`` field can carry):

* ``non-finite`` -- NaN/Inf values inside a window; the values are
  dropped, the rest of the window stays usable.
* ``out-of-range`` -- pointwise values outside the schema's plausible
  range (including sign violations); dropped likewise.
* ``unit-scale`` -- the *whole* window sits a scale factor above the
  plausible range (driver/image update reporting in the wrong unit);
  the window is quarantined outright, because rescaling it silently
  would launder a telemetry bug into a health verdict.
* ``truncated-window`` -- fewer clean values than the schema's floor
  remain; the window supports no verdict and is quarantined.

Semantics the rest of the system relies on:

* an **empty** raw window passes through untouched -- that is a crash,
  an execution failure, and must keep evicting the node;
* an **all-non-finite** window cleans down to empty and likewise flows
  on as an execution failure -- that is a hang, a defect by definition
  (paper §3.4);
* a **quarantined** metric (unit-scale or truncated) yields *no
  verdict*: the Validator skips it online and criteria learning
  excludes it, because dirty telemetry is evidence about the
  measurement pipeline, not about the node.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro.benchsuite.base import BenchmarkResult
from repro.quality.schema import MetricSchema, schemas_for_suite

__all__ = [
    "FAULT_NON_FINITE", "FAULT_OUT_OF_RANGE", "FAULT_UNIT_SCALE",
    "FAULT_TRUNCATED", "QuarantineRecord", "TelemetryLedger",
    "SanitizedWindow", "sanitize_window", "Sanitizer",
]

FAULT_NON_FINITE = "non-finite"
FAULT_OUT_OF_RANGE = "out-of-range"
FAULT_UNIT_SCALE = "unit-scale"
FAULT_TRUNCATED = "truncated-window"

#: Fault classes that quarantine the whole window (no verdict).
_WINDOW_FAULTS = (FAULT_UNIT_SCALE, FAULT_TRUNCATED)


@dataclass(frozen=True)
class QuarantineRecord:
    """Provenance of one quarantine action on one window.

    ``count`` is the number of affected values (for window-level
    faults, the number of values the window still held); ``example``
    preserves one offending raw value for debugging.
    """

    node_id: str
    benchmark: str
    metric: str
    fault: str
    count: int
    example: float | None = None
    detail: str = ""


class TelemetryLedger:
    """Thread-safe accumulator of quarantine records.

    Aggregate counters are unbounded; the raw record trail keeps the
    most recent ``max_records`` entries so a long soak cannot grow the
    ledger without bound.
    """

    def __init__(self, max_records: int = 4096):
        self._lock = threading.Lock()
        self.records: deque[QuarantineRecord] = deque(maxlen=max_records)
        self.by_fault: Counter = Counter()
        self.by_node: Counter = Counter()
        self.values_quarantined = 0
        self.windows_quarantined = 0

    def record(self, rec: QuarantineRecord) -> None:
        with self._lock:
            self.records.append(rec)
            self.by_fault[rec.fault] += 1
            self.by_node[rec.node_id] += 1
            self.values_quarantined += rec.count
            if rec.fault in _WINDOW_FAULTS:
                self.windows_quarantined += 1

    def summary(self) -> dict:
        with self._lock:
            return {
                "values_quarantined": self.values_quarantined,
                "windows_quarantined": self.windows_quarantined,
                "by_fault": dict(self.by_fault),
                "by_node": dict(self.by_node),
            }

    def format_table(self) -> str:
        # Function-level import: quality must stay importable below the
        # analytics layer, which owns the one shared table formatter.
        from repro.analytics.report import kv_table
        summary = self.summary()
        rows = sorted(summary["by_fault"].items())
        rows.append(("values quarantined", summary["values_quarantined"]))
        rows.append(("windows quarantined", summary["windows_quarantined"]))
        return kv_table(rows, header=("fault class", "windows"))


@dataclass
class SanitizedWindow:
    """One window after sanitization.

    ``excluded`` marks windows that support no verdict (unit-scale or
    truncated); ``values`` then still holds whatever survived cleaning,
    for forensics.
    """

    values: np.ndarray
    records: tuple[QuarantineRecord, ...]
    excluded: bool


def sanitize_window(values, schema: MetricSchema, *, node_id: str,
                    benchmark: str, metric: str) -> SanitizedWindow:
    """Apply one schema to one raw window.  Never raises."""
    arr = np.asarray(values, dtype=float).ravel()
    records: list[QuarantineRecord] = []
    if arr.size == 0:
        # Crash: no telemetry to sanitize; stays an execution failure.
        return SanitizedWindow(arr, (), excluded=False)

    # Clean windows are nearly all of them, and two reductions decide
    # it: a NaN makes both extrema NaN, +-inf is one of them, and a
    # median above ``upper`` (the unit-scale test) needs a value above
    # it.  Anything else takes the full classification below.  A
    # single value is both extrema, read without two array reductions.
    if arr.size == 1:
        low = high = float(arr[0])
    else:
        low, high = float(arr.min()), float(arr.max())
    if (arr.size >= schema.min_samples
            and math.isfinite(low) and math.isfinite(high)
            and (schema.lower is None or low >= schema.lower)
            and (schema.upper is None or high <= schema.upper)):
        return SanitizedWindow(arr, (), excluded=False)

    finite = np.isfinite(arr)
    if not np.all(finite):
        bad = arr[~finite]
        records.append(QuarantineRecord(
            node_id=node_id, benchmark=benchmark, metric=metric,
            fault=FAULT_NON_FINITE, count=int(bad.size),
            example=float(bad[0])))
        arr = arr[finite]
    if arr.size == 0:
        # Hang (all-NaN): flows on empty, an execution failure.
        return SanitizedWindow(arr, tuple(records), excluded=False)

    # Unit-scale glitch: the whole window is implausibly high but lands
    # back in range after dividing by the scale factor.
    if schema.upper is not None:
        median = float(np.median(arr))
        rescaled = median / schema.unit_scale_factor
        if (median > schema.upper
                and (schema.lower is None or rescaled >= schema.lower)
                and rescaled <= schema.upper):
            records.append(QuarantineRecord(
                node_id=node_id, benchmark=benchmark, metric=metric,
                fault=FAULT_UNIT_SCALE, count=int(arr.size),
                example=median,
                detail=f"median {median:.4g} is ~x{schema.unit_scale_factor:g} "
                       f"above the plausible range"))
            return SanitizedWindow(arr, tuple(records), excluded=True)

    out = np.zeros(arr.size, dtype=bool)
    if schema.lower is not None:
        out |= arr < schema.lower
    if schema.upper is not None:
        out |= arr > schema.upper
    if np.any(out):
        bad = arr[out]
        records.append(QuarantineRecord(
            node_id=node_id, benchmark=benchmark, metric=metric,
            fault=FAULT_OUT_OF_RANGE, count=int(bad.size),
            example=float(bad[0])))
        arr = arr[~out]

    if arr.size < schema.min_samples:
        records.append(QuarantineRecord(
            node_id=node_id, benchmark=benchmark, metric=metric,
            fault=FAULT_TRUNCATED, count=int(arr.size),
            detail=f"{arr.size} clean value(s) < floor {schema.min_samples}"))
        return SanitizedWindow(arr, tuple(records), excluded=True)
    return SanitizedWindow(arr, tuple(records), excluded=False)


class Sanitizer:
    """Schema-driven result sanitizer shared by runner and pool.

    Thread-safe: sanitization itself is pure, and the ledger locks its
    own updates, so one sanitizer instance can serve a whole parallel
    sweep.
    """

    def __init__(self, schemas: dict, *,
                 ledger: TelemetryLedger | None = None):
        self.schemas = dict(schemas)
        self.ledger = ledger if ledger is not None else TelemetryLedger()

    @classmethod
    def for_suite(cls, suite, *, runner=None, span_factor: float = 100.0,
                  min_window_fraction: float = 0.25,
                  ledger: TelemetryLedger | None = None,
                  skus=None) -> "Sanitizer":
        """Sanitizer with default schemas derived from the suite.

        ``skus`` adds per-hardware-class schemas centred on each
        class's scaled healthy level (see
        :func:`~repro.quality.schema.schemas_for_suite`).
        """
        return cls(schemas_for_suite(suite, span_factor=span_factor,
                                     min_window_fraction=min_window_fraction,
                                     runner=runner, skus=skus),
                   ledger=ledger)

    def schema_for(self, benchmark: str, metric: str,
                   sku: str = "unknown") -> MetricSchema | None:
        """The governing schema: the window's SKU-specific schema when
        one is registered, else the class-agnostic fallback."""
        schema = self.schemas.get((sku, benchmark, metric))
        if schema is not None:
            return schema
        return self.schemas.get((benchmark, metric))

    def sanitize_result(self, spec, result: BenchmarkResult) -> BenchmarkResult:
        """Clean every metric window of one benchmark result.

        Idempotent: windows already carrying ``sanitized=True``
        provenance crossed this layer before (e.g. inside the runner)
        and pass through untouched -- no re-check, no double-counted
        ledger entries, no second quarantine verdict.  Metrics without
        a schema also pass untouched (and unmarked: nothing was
        checked, so nothing may claim to have been).  A result in
        which no window needs a crossing is returned as it came, so the
        pool's pass over a runner-sanitized result allocates nothing.
        Quarantined (no-verdict) windows keep their raw series for
        forensics.
        """
        windows = None
        for index, metric_window in enumerate(result.windows):
            if metric_window.sanitized:
                continue
            schema = self.schema_for(result.benchmark, metric_window.metric,
                                     metric_window.sku)
            if schema is None:
                continue
            outcome = sanitize_window(metric_window.values, schema,
                                      node_id=result.node_id,
                                      benchmark=result.benchmark,
                                      metric=metric_window.metric)
            for rec in outcome.records:
                self.ledger.record(rec)
            faults = tuple(rec.fault for rec in outcome.records)
            if windows is None:
                windows = list(result.windows)
            if outcome.excluded:
                windows[index] = metric_window.mark_sanitized(
                    quarantined=True, faults=faults)
            else:
                windows[index] = metric_window.mark_sanitized(
                    values=outcome.values, faults=faults)
        if windows is None:
            return result
        return result.with_windows(tuple(windows))
