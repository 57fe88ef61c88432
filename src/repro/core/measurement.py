"""The typed measurement spine: windows and batches with provenance.

Every measurement the system handles -- from a benchmark execution on
one node all the way to the control plane's journal -- is a
:class:`MetricWindow`: one 1-D sample array plus the provenance the
rest of the pipeline needs to handle it correctly (node, SKU,
benchmark, metric, polarity, schema version, sanitization and
quarantine state).  A :class:`MeasurementBatch` groups the fleet's
windows for one (sku, benchmark, metric) triple, which is the unit the
distance backend scores and criteria learning consumes; the batch
constructor rejects a window from any other SKU, so cross-SKU mixing
is structurally impossible rather than merely discouraged.

Two invariants this model enforces that ad-hoc dict/array plumbing
could not:

* **Sanitization happens exactly once.**  A window that crossed the
  sanitization layer carries ``sanitized=True``; the sanitizer skips
  such windows, so a result that passes through both a runner-side and
  a pool-side sanitizer is never schema-checked (or quarantined, or
  double-counted in the telemetry ledger) twice.
* **The non-finite policy is resolved per batch, not per call.**
  :attr:`MeasurementBatch.nonfinite_policy` derives the policy from
  provenance -- fully sanitized batches can afford the strict
  ``"reject"`` policy because sanitization already removed non-finite
  values, while raw batches get the tolerant ``"mask"`` policy -- so
  no caller threads ``nonfinite=`` keyword arguments through the call
  stack (see :mod:`repro.core.backend`).

:class:`PipelineStats` is the observability seam of the spine:
lightweight per-stage counters and wall-clock timings (execute,
sanitize, score, learn) that the runner and Validator feed and the
:class:`~repro.core.system.Anubis` facade surfaces through
``pipeline_stats()`` / ``history_summary()`` and the CLI.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.ecdf import as_sample
from repro.exceptions import SkuMismatchError

__all__ = [
    "SCHEMA_VERSION",
    "NONFINITE_REJECT",
    "NONFINITE_MASK",
    "MetricWindow",
    "MeasurementBatch",
    "PipelineStats",
]

#: Version of the window/batch payload schema.  Bumped on incompatible
#: payload changes so a journal written by a future layout is detected
#: instead of silently misread.  Version history:
#:
#: * **1** -- the pre-SKU layout; replayed with ``sku="unknown"``.
#: * **2** -- windows and batches carry a ``sku`` provenance field.
SCHEMA_VERSION = 2

#: Non-finite policy: any NaN/Inf in a sample is an error.
NONFINITE_REJECT = "reject"
#: Non-finite policy: NaN/Inf values are masked out per window.
NONFINITE_MASK = "mask"


@dataclass(frozen=True, eq=False)
class MetricWindow:
    """One metric's measurement window with full provenance.

    Attributes
    ----------
    node_id, benchmark, metric:
        Where the window came from.
    sku:
        Hardware class of the producing node.  Part of the window's
        identity: criteria are namespaced per SKU and a window is only
        ever scored against its own SKU's criteria.  Windows replayed
        from pre-SKU (v1) payloads land in the ``"unknown"`` bucket.
    values:
        The raw (or, after sanitization, cleaned) 1-D sample array.
    higher_is_better:
        Metric polarity; latency-like metrics set this to ``False``.
    sanitized:
        ``True`` once the window crossed the sanitization layer with a
        schema applied.  The sanitizer never touches such a window
        again -- this flag is what makes re-sanitization a no-op.
    quarantined:
        ``True`` when sanitization decided the window supports no
        verdict (unit-scale glitch, truncated window); ``values`` then
        still holds the raw series for forensics.
    faults:
        Fault classes sanitization recorded for this window (see
        :mod:`repro.quality.sanitize`), newest provenance the verdict
        travels with.
    schema_version:
        Payload schema version, for journal round-trips.
    """

    node_id: str
    benchmark: str
    metric: str
    values: np.ndarray
    higher_is_better: bool = True
    sanitized: bool = False
    quarantined: bool = False
    faults: tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION
    sku: str = "unknown"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def n(self) -> int:
        """Number of values in the window."""
        return int(self.values.size)

    def sample(self) -> np.ndarray:
        """The window as a validated sample (strict policy).

        Raises :class:`~repro.exceptions.InvalidSampleError` on an
        empty window or any non-finite value -- the online filter
        treats both as execution failures.
        """
        return as_sample(self.values)

    def with_values(self, values: object) -> "MetricWindow":
        """Same provenance, new values (window slicing, fault injection)."""
        return self._derive(values, self.sanitized, self.quarantined,
                            self.faults)

    def mark_sanitized(self, *, values: object | None = None,
                       quarantined: bool = False,
                       faults: tuple[str, ...] = ()) -> "MetricWindow":
        """The window after one sanitization crossing.

        ``values`` replaces the series (cleaned survivors) unless the
        window was quarantined, in which case the raw series stays for
        forensics.
        """
        return self._derive(self.values if values is None else values, True,
                            bool(quarantined), self.faults + tuple(faults))

    def _derive(self, values: object, sanitized: bool, quarantined: bool,
                faults: tuple[str, ...]) -> "MetricWindow":
        """This window's identity and polarity with new state, built by
        one constructor call (``dataclasses.replace`` re-reads the
        field list on every call)."""
        return MetricWindow(self.node_id, self.benchmark, self.metric, values,
                            self.higher_is_better, sanitized, quarantined,
                            faults, self.schema_version, self.sku)

    def to_payload(self) -> dict:
        """Plain-JSON-types payload (journal serialization)."""
        return {
            "schema_version": self.schema_version,
            "node_id": self.node_id,
            "sku": self.sku,
            "benchmark": self.benchmark,
            "metric": self.metric,
            "values": [float(v) for v in self.values],
            "higher_is_better": self.higher_is_better,
            "sanitized": self.sanitized,
            "quarantined": self.quarantined,
            "faults": list(self.faults),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MetricWindow":
        """Rebuild a window from :meth:`to_payload` output.

        Raises ``ValueError`` on malformed payloads or an unknown
        schema version, so journal replay can skip (not misread) them.
        Pre-SKU (v1) payloads load with ``sku="unknown"`` -- the
        legacy bucket every per-SKU consumer renders explicitly.
        """
        try:
            version = int(payload.get("schema_version", SCHEMA_VERSION))
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"window payload schema version {version} is newer "
                    f"than supported version {SCHEMA_VERSION}")
            return cls(
                node_id=str(payload["node_id"]),
                sku=str(payload.get("sku", "unknown")),
                benchmark=str(payload["benchmark"]),
                metric=str(payload["metric"]),
                values=np.asarray(payload["values"], dtype=float),
                higher_is_better=bool(payload["higher_is_better"]),
                sanitized=bool(payload["sanitized"]),
                quarantined=bool(payload["quarantined"]),
                faults=tuple(str(f) for f in payload.get("faults", [])),
                schema_version=version,
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed window payload: {error}") from error


@dataclass(frozen=True, eq=False)
class MeasurementBatch:
    """The fleet's windows for one (sku, benchmark, metric) triple.

    This is the unit the distance backend scores in one kernel call
    and criteria learning consumes; the batch-level provenance
    (SKU, polarity, sanitization state) is what lets the non-finite
    policy be resolved once here instead of threaded through the call
    stack.  SKU homogeneity is enforced structurally: a window from
    any other hardware class raises
    :class:`~repro.exceptions.SkuMismatchError` at construction, so a
    batch can never silently mix classes whose "normal" levels differ.
    """

    benchmark: str
    metric: str
    windows: tuple[MetricWindow, ...]
    higher_is_better: bool = True
    schema_version: int = SCHEMA_VERSION
    sku: str = "unknown"

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        for window in self.windows:
            if (window.benchmark != self.benchmark
                    or window.metric != self.metric):
                raise ValueError(
                    f"window for {window.benchmark}/{window.metric} does "
                    f"not belong in a {self.benchmark}/{self.metric} batch")
            if window.sku != self.sku:
                raise SkuMismatchError(
                    f"window from node {window.node_id!r} carries SKU "
                    f"{window.sku!r} and does not belong in a {self.sku!r} "
                    f"batch for {self.benchmark}/{self.metric}")

    @classmethod
    def from_results(cls, results: Iterable[object], *, benchmark: str,
                     metric: str, higher_is_better: bool = True,
                     sku: str | None = None) -> "MeasurementBatch":
        """Collect one metric's windows from many benchmark results.

        ``results`` yields :class:`~repro.benchsuite.base.
        BenchmarkResult`-like objects; results missing the metric are
        skipped (the Validator separately flags them as execution
        failures with the index bookkeeping it needs).  ``sku=None``
        adopts the first collected window's SKU; the constructor's
        homogeneity check then rejects any stray window from another
        class.
        """
        windows: list[MetricWindow] = []
        for result in results:
            try:
                window = result.window(metric)  # type: ignore[attr-defined]
            except (AttributeError, KeyError):
                continue
            windows.append(window)
        if sku is None:
            sku = windows[0].sku if windows else "unknown"
        return cls(benchmark=benchmark, metric=metric,
                   windows=tuple(windows),
                   higher_is_better=higher_is_better, sku=sku)

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Node ids in window order."""
        return tuple(window.node_id for window in self.windows)

    @property
    def sanitized(self) -> bool:
        """True when every window crossed the sanitization layer."""
        return bool(self.windows) and all(w.sanitized for w in self.windows)

    @property
    def quarantined_nodes(self) -> tuple[str, ...]:
        """Node ids whose window supports no verdict."""
        return tuple(w.node_id for w in self.windows if w.quarantined)

    @property
    def nonfinite_policy(self) -> str:
        """The batch's resolved non-finite policy.

        Fully sanitized batches use :data:`NONFINITE_REJECT` --
        sanitization already removed non-finite values, so anything
        left is a pipeline bug worth failing loudly on.  Batches with
        raw windows use :data:`NONFINITE_MASK` so one stray NaN cannot
        abort a fleet-wide operation.
        """
        return NONFINITE_REJECT if self.sanitized else NONFINITE_MASK

    def scoreable(self) -> tuple[MetricWindow, ...]:
        """Windows that support a verdict (not quarantined)."""
        return tuple(w for w in self.windows if not w.quarantined)

    def samples(self) -> list[np.ndarray]:
        """Raw value arrays of the scoreable windows, in order."""
        return [w.values for w in self.scoreable()]

    def to_payload(self) -> dict:
        """Plain-JSON-types payload (journal serialization)."""
        return {
            "schema_version": self.schema_version,
            "sku": self.sku,
            "benchmark": self.benchmark,
            "metric": self.metric,
            "higher_is_better": self.higher_is_better,
            "windows": [window.to_payload() for window in self.windows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MeasurementBatch":
        """Rebuild a batch (and all window provenance) from its payload.

        Pre-SKU (v1) payloads replay into the ``"unknown"`` bucket,
        which their windows default to as well -- the homogeneity
        check holds across the migration.
        """
        try:
            version = int(payload.get("schema_version", SCHEMA_VERSION))
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"batch payload schema version {version} is newer "
                    f"than supported version {SCHEMA_VERSION}")
            return cls(
                benchmark=str(payload["benchmark"]),
                metric=str(payload["metric"]),
                windows=tuple(MetricWindow.from_payload(w)
                              for w in payload["windows"]),
                higher_is_better=bool(payload["higher_is_better"]),
                schema_version=version,
                sku=str(payload.get("sku", "unknown")),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed batch payload: {error}") from error


class PipelineStats:
    """Thread-safe per-stage counters and timings for the spine.

    Stages are free-form strings; the conventional ones are
    ``"execute"``, ``"sanitize"``, ``"score"`` and ``"learn"``.  One
    instance can serve a whole parallel sweep (the runner is shared by
    pool worker threads).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()
        self._seconds: defaultdict[str, float] = defaultdict(float)

    def record(self, stage: str, *, count: int = 1,
               seconds: float = 0.0) -> None:
        """Fold one observation into a stage's counters."""
        with self._lock:
            self._counts[stage] += int(count)
            self._seconds[stage] += float(seconds)

    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Context manager recording one timed pass through a stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage, seconds=time.perf_counter() - start)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Stage name -> ``{"count": n, "seconds": s}``, sorted by stage."""
        with self._lock:
            return {
                stage: {"count": float(self._counts[stage]),
                        "seconds": self._seconds[stage]}
                for stage in sorted(self._counts)
            }

    def merge(self, other: "PipelineStats | None") -> "PipelineStats":
        """New stats combining this instance with ``other`` (if any)."""
        merged = PipelineStats()
        for source in (self, other):
            if source is None:
                continue
            for stage, entry in source.snapshot().items():
                merged.record(stage, count=int(entry["count"]),
                              seconds=entry["seconds"])
        return merged
