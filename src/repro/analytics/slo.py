"""Composable, deterministic SLO reducers over journal records.

Each reducer folds :class:`~repro.service.store.JournalRecord` objects
in one at a time and produces a plain-JSON result (``result``), so the
same reducer set serves a one-shot snapshot report, a follow-mode
tail, and the replay benchmark.  Reducers are **deterministic**:
results depend only on the record stream, never on wall-clock or
iteration order, so two replays of the same journal yield
byte-identical reports.

The reducer contract (:class:`Reducer`):

* **A kind table.**  ``HANDLERS`` maps each record kind a reducer
  reads to the method that folds such a record in; kinds it lacks are
  never handed to it.  :data:`EVERY_RECORD` keys a handler that sees
  every record, whatever its kind.
* **One routed fold.**  :func:`fold` -- behind both
  :func:`reduce_records` and
  :func:`~repro.analytics.report.build_report` -- merges the tables
  once and hands each record only to the handlers of its kind.
  ``consume(record)`` routes one record the same way, so feeding a
  reducer directly (any record, any kind) gives the same result.
* **O(1) work per record**, beyond walking the record's own payload:
  no handler rescans state the reducer has accumulated (availability
  keeps a running count of unavailable nodes).
* **Clean shutdown is read from the last record**, by an
  :data:`EVERY_RECORD` handler, not from an end-of-stream hook, so a
  direct ``consume`` caller and the fold agree on it.

Time axes -- the journal carries no wall-clock timestamps (by design:
replay determinism), so the reducers use the two clocks the records
*do* carry:

* **modeled node-hours** -- each completed validation covers
  ``len(validated_nodes) * duration_hours`` of modeled fleet
  operation; MTBI is measured against this axis, mirroring the
  simulation layer's MTBI-in-hours.
* **validation wall-clock** -- ``validation_seconds`` per completed
  event is the measured cost of validating; the availability curve
  plots against its cumulative sum (the paper's Fig. 8/9 trade-off:
  availability bought per hour spent validating).

The sequence number is the ordering axis for depth-over-time series
(DLQ depth).
"""

from __future__ import annotations

from collections import Counter

from repro.service.store import JournalRecord, RecordKind

__all__ = [
    "EVERY_RECORD",
    "Reducer",
    "ServiceCountersReducer",
    "MTBIReducer",
    "AvailabilityOverheadReducer",
    "EvictionPrecisionReducer",
    "BreakerReducer",
    "RollbackReducer",
    "DLQReducer",
    "SanitizationReducer",
    "SkuReducer",
    "SupervisorReducer",
    "default_reducers",
    "fold",
    "reduce_records",
]

#: Lifecycle states that keep a node out of the schedulable pool.
_UNAVAILABLE_STATES = frozenset({"quarantined", "in-repair", "returning"})

#: The ``HANDLERS`` key of a handler that sees every record.
EVERY_RECORD = None


def _round(value: float, digits: int = 6) -> float:
    """Stable rounding so float noise cannot leak into report bytes."""
    return round(float(value), digits)


class Reducer:
    """Base of the SLO reducers: a kind table and routed ``consume``.

    Subclasses set ``name`` (their report section) and ``HANDLERS``
    (record kind -> name of the method folding that kind in; the key
    :data:`EVERY_RECORD` for a handler every record goes to).
    """

    name = ""
    HANDLERS: dict = {}

    def handlers(self) -> dict:
        """The kind table bound to this reducer: kind -> callable."""
        return {kind: getattr(self, method)
                for kind, method in self.HANDLERS.items()}

    def consume(self, record: JournalRecord) -> None:
        """Fold one record of any kind in, as :func:`fold` would."""
        for kind in (EVERY_RECORD, record.kind):
            method = self.HANDLERS.get(kind)
            if method is not None:
                getattr(self, method)(record)


class ServiceCountersReducer(Reducer):
    """Fleet-level throughput and latency counters.

    Aggregates what the control plane's :class:`ServiceMetrics` tracks
    in memory, but derived purely from the journal -- so it survives
    restarts and counts exactly what was durably recorded.

    In the routed fold every record this reducer reads still enters
    through :meth:`consume` (see :meth:`handlers`), so ``consume`` stays
    its one per-record entry point: whatever wraps it sees each record.
    """

    name = "service"
    HANDLERS = {
        RecordKind.EVENT_ENQUEUED: "_enqueued",
        RecordKind.EVENT_COMPLETED: "_completed",
        **dict.fromkeys((RecordKind.EVENT_COALESCED, RecordKind.EVENT_FAILED,
                         RecordKind.EVENT_DEAD_LETTERED,
                         RecordKind.CRITERIA_SNAPSHOT), "_count"),
    }

    def __init__(self) -> None:
        self.events_enqueued = 0
        self.events_completed = 0
        #: Records of each kind that is only counted.  Criteria
        #: snapshots count criteria *changes*: a snapshot is journaled
        #: only when its content differs from the previous one (plus
        #: one per compaction rewrite, which always carries them).
        self.counts: Counter[str] = Counter()
        self.policy_skips = 0
        self.validations_run = 0
        self.nodes_validated = 0
        self.nodes_quarantined = 0
        self.by_kind: Counter[str] = Counter()
        self.queue_latency_total = 0.0
        self.queue_latency_max = 0.0
        self.validation_seconds_total = 0.0

    def handlers(self) -> dict:
        return dict.fromkeys(self.HANDLERS, self.consume)

    def _enqueued(self, record: JournalRecord) -> None:
        self.events_enqueued += 1
        event = record.payload.get("event", {})
        self.by_kind[str(event.get("kind", "unknown"))] += 1

    def _count(self, record: JournalRecord) -> None:
        self.counts[record.kind] += 1

    def _completed(self, record: JournalRecord) -> None:
        payload = record.payload
        self.events_completed += 1
        latency = float(payload.get("queue_latency_seconds", 0.0))
        self.queue_latency_total += latency
        self.queue_latency_max = max(self.queue_latency_max, latency)
        if payload.get("skipped", False):
            self.policy_skips += 1
        else:
            self.validations_run += 1
            self.nodes_validated += len(payload.get("validated_nodes", []))
            self.nodes_quarantined += len(payload.get("defective", []))
            self.validation_seconds_total += float(
                payload.get("validation_seconds", 0.0))

    def result(self) -> dict:
        completed = max(self.events_completed, 1)
        return {
            "events_enqueued": self.events_enqueued,
            "events_coalesced": self.counts[RecordKind.EVENT_COALESCED],
            "events_completed": self.events_completed,
            "events_failed": self.counts[RecordKind.EVENT_FAILED],
            "events_dead_lettered": self.counts[
                RecordKind.EVENT_DEAD_LETTERED],
            "events_by_kind": dict(sorted(self.by_kind.items())),
            "policy_skips": self.policy_skips,
            "validations_run": self.validations_run,
            "nodes_validated": self.nodes_validated,
            "nodes_quarantined": self.nodes_quarantined,
            "defect_rate": _round(
                self.nodes_quarantined / max(self.nodes_validated, 1)),
            "criteria_snapshots": self.counts[RecordKind.CRITERIA_SNAPSHOT],
            "queue_latency_mean_s": _round(
                self.queue_latency_total / completed),
            "queue_latency_max_s": _round(self.queue_latency_max),
            "validation_total_s": _round(self.validation_seconds_total),
        }


class MTBIReducer(Reducer):
    """MTBI trend, fleet-wide and per node, over modeled node-hours.

    An *incident* is a node entering quarantine.  The observation
    clock is modeled node-hours: each completed validation of N nodes
    over a ``duration_hours`` horizon contributes ``N * hours``.
    Fleet MTBI = observed node-hours / incidents; the trend splits the
    stream into ``buckets`` equal spans of node-hours so an improving
    fleet (validation catching defects early, as the paper's Fig. 9
    MTBI-improvement argues) shows a rising curve.
    """

    name = "mtbi"
    HANDLERS = {RecordKind.EVENT_COMPLETED: "_completed",
                RecordKind.TRANSITION: "_transition"}

    def __init__(self, buckets: int = 8):
        self.buckets = max(int(buckets), 1)
        self.node_hours = 0.0
        self.incidents = 0
        self.per_node_hours: Counter[str] = Counter()
        self.per_node_incidents: Counter[str] = Counter()
        #: (cumulative node-hours, cumulative incidents) observations,
        #: one per incident-bearing or hour-bearing record.
        self._points: list[tuple[float, int]] = []

    def _completed(self, record: JournalRecord) -> None:
        payload = record.payload
        nodes = payload.get("validated_nodes", [])
        hours = float(payload.get("duration_hours", 0.0))
        if nodes and hours > 0.0:
            self.node_hours += hours * len(nodes)
            for node_id in nodes:
                self.per_node_hours[str(node_id)] += hours
            self._points.append((self.node_hours, self.incidents))

    def _transition(self, record: JournalRecord) -> None:
        payload = record.payload
        if payload.get("new") == "quarantined":
            self.incidents += 1
            self.per_node_incidents[str(payload.get("node_id", ""))] += 1
            self._points.append((self.node_hours, self.incidents))

    def _trend(self) -> list[dict]:
        if not self._points or self.node_hours <= 0.0:
            return []
        span = self.node_hours / self.buckets
        trend = []
        cursor = 0
        prev_hours, prev_incidents = 0.0, 0
        for bucket in range(1, self.buckets + 1):
            edge = span * bucket
            hours_at_edge, incidents_at_edge = prev_hours, prev_incidents
            while cursor < len(self._points) and self._points[cursor][0] <= edge:
                hours_at_edge, incidents_at_edge = self._points[cursor]
                cursor += 1
            bucket_hours = hours_at_edge - prev_hours
            bucket_incidents = incidents_at_edge - prev_incidents
            trend.append({
                "node_hours": _round(bucket_hours),
                "incidents": bucket_incidents,
                "mtbi_hours": (_round(bucket_hours / bucket_incidents)
                               if bucket_incidents else None),
            })
            prev_hours, prev_incidents = hours_at_edge, incidents_at_edge
        return trend

    def result(self) -> dict:
        worst = sorted(
            self.per_node_incidents.items(),
            key=lambda item: (-item[1], item[0]))[:10]
        return {
            "node_hours_observed": _round(self.node_hours),
            "incidents": self.incidents,
            "fleet_mtbi_hours": (_round(self.node_hours / self.incidents)
                                 if self.incidents else None),
            "trend": self._trend(),
            "worst_nodes": [
                {"node_id": node_id, "incidents": count,
                 "mtbi_hours": (_round(self.per_node_hours[node_id] / count)
                                if count else None)}
                for node_id, count in worst
            ],
        }


class AvailabilityOverheadReducer(Reducer):
    """Availability vs. cumulative validation overhead (Fig. 8/9).

    Tracks every node's lifecycle state from transition records;
    availability at any point is the fraction of known nodes *not*
    stuck in the repair pipeline (quarantined / in-repair /
    returning).  Each completed validation appends a curve point at
    x = cumulative validation wall-clock seconds, so the curve reads
    as "how much availability did each hour spent validating buy".
    Down-sampled to at most ``curve_points`` evenly spread points
    (first and last always kept).  The count of unavailable nodes is
    kept up to date as states change, so a curve point costs O(1).
    """

    name = "availability"
    HANDLERS = {RecordKind.TRANSITION: "_transition",
                RecordKind.STATE_SNAPSHOT: "_snapshot",
                RecordKind.EVENT_COMPLETED: "_completed"}

    def __init__(self, curve_points: int = 16, fleet_size: int | None = None):
        self.curve_points = max(int(curve_points), 2)
        self.fleet_size = fleet_size
        self.validation_seconds = 0.0
        self.states: dict[str, str] = {}
        #: How many of ``states`` are in :data:`_UNAVAILABLE_STATES`.
        self.unavailable = 0
        self._curve: list[dict] = []
        self._availability_weighted = 0.0
        self._availability_points = 0

    def _fleet(self) -> int:
        if self.fleet_size is not None:
            return max(int(self.fleet_size), len(self.states), 1)
        return max(len(self.states), 1)

    def _availability(self) -> float:
        return 1.0 - self.unavailable / self._fleet()

    def _set_state(self, node_id: str, state: str) -> None:
        old = self.states.get(node_id)
        self.states[node_id] = state
        self.unavailable += ((state in _UNAVAILABLE_STATES)
                             - (old in _UNAVAILABLE_STATES))

    def _transition(self, record: JournalRecord) -> None:
        payload = record.payload
        self._set_state(str(payload.get("node_id", "")),
                        str(payload.get("new", "")))

    def _snapshot(self, record: JournalRecord) -> None:
        for node_id, state in record.payload.get("states", {}).items():
            self._set_state(str(node_id), str(state))

    def _completed(self, record: JournalRecord) -> None:
        self.validation_seconds += float(
            record.payload.get("validation_seconds", 0.0))
        availability = self._availability()
        self._availability_weighted += availability
        self._availability_points += 1
        self._curve.append({
            "validation_s": _round(self.validation_seconds),
            "availability": _round(availability),
        })

    def result(self) -> dict:
        curve = self._curve
        if len(curve) > self.curve_points:
            step = (len(curve) - 1) / (self.curve_points - 1)
            curve = [curve[round(i * step)]
                     for i in range(self.curve_points)]
        return {
            "fleet_size": self._fleet() if self.states else 0,
            "validation_total_s": _round(self.validation_seconds),
            "availability_now": (_round(self._availability())
                                 if self.states else None),
            "availability_mean": (
                _round(self._availability_weighted
                       / self._availability_points)
                if self._availability_points else None),
            "curve": curve,
        }


class EvictionPrecisionReducer(Reducer):
    """Eviction-precision proxies from quarantine / repair outcomes.

    The journal has no ground truth about which evictions were
    justified, so this reducer reports the two observable proxies:

    * ``repeat_offender_rate`` -- of the nodes ever quarantined, the
      fraction quarantined again after completing repair.  A high rate
      suggests real recurring hardware faults (evictions were
      precise) or ineffective repair.
    * ``repair_return_rate`` -- completed repairs per quarantine; a
      rate well below 1 means nodes are piling up mid-pipeline.
    """

    name = "eviction"
    HANDLERS = {RecordKind.TRANSITION: "_transition"}

    def __init__(self) -> None:
        self.quarantines = 0
        self.repairs_completed = 0
        self.requarantines_after_repair = 0
        self._quarantined_ever: set[str] = set()
        self._repaired_once: set[str] = set()
        self._repeat_offenders: set[str] = set()

    def _transition(self, record: JournalRecord) -> None:
        payload = record.payload
        node_id = str(payload.get("node_id", ""))
        new = payload.get("new")
        if new == "quarantined":
            self.quarantines += 1
            if node_id in self._repaired_once:
                self.requarantines_after_repair += 1
                self._repeat_offenders.add(node_id)
            self._quarantined_ever.add(node_id)
        elif new == "healthy" and payload.get("reason") == "repair-complete":
            self.repairs_completed += 1
            self._repaired_once.add(node_id)

    def result(self) -> dict:
        evicted = len(self._quarantined_ever)
        return {
            "quarantines": self.quarantines,
            "nodes_evicted": evicted,
            "repairs_completed": self.repairs_completed,
            "requarantines_after_repair": self.requarantines_after_repair,
            "repeat_offender_rate": _round(
                len(self._repeat_offenders) / evicted) if evicted else None,
            "repair_return_rate": (_round(
                self.repairs_completed / self.quarantines)
                if self.quarantines else None),
            "repeat_offenders": sorted(self._repeat_offenders),
        }


class BreakerReducer(Reducer):
    """Circuit-breaker churn per benchmark."""

    name = "breakers"
    HANDLERS = {RecordKind.BREAKER_TRANSITION: "_transition"}

    def __init__(self) -> None:
        self.opens: Counter[str] = Counter()
        self.closes: Counter[str] = Counter()
        self.transitions = 0

    def _transition(self, record: JournalRecord) -> None:
        payload = record.payload
        benchmark = str(payload.get("benchmark", ""))
        self.transitions += 1
        if payload.get("new") == "open":
            self.opens[benchmark] += 1
        elif payload.get("new") == "closed":
            self.closes[benchmark] += 1

    def result(self) -> dict:
        return {
            "transitions": self.transitions,
            "opens_by_benchmark": dict(sorted(self.opens.items())),
            "closes_by_benchmark": dict(sorted(self.closes.items())),
        }


class RollbackReducer(Reducer):
    """Guarded-rollout rejections per (sku, benchmark, metric).

    Pre-SKU rollback records (no ``sku`` field) fold into the
    ``"unknown"`` legacy bucket.
    """

    name = "rollbacks"
    HANDLERS = {RecordKind.CRITERIA_ROLLBACK: "_rollback"}

    def __init__(self) -> None:
        self.rollbacks: Counter[tuple[str, str, str]] = Counter()
        self.reasons: list[str] = []

    def _rollback(self, record: JournalRecord) -> None:
        payload = record.payload
        key = (str(payload.get("sku", "unknown")),
               str(payload.get("benchmark", "")),
               str(payload.get("metric", "")))
        self.rollbacks[key] += 1
        reason = str(payload.get("reason", ""))
        if reason and len(self.reasons) < 20:
            self.reasons.append(f"{key[0]}/{key[1]}/{key[2]}: {reason}")

    def result(self) -> dict:
        by_sku: Counter[str] = Counter()
        for (sku, _b, _m), count in self.rollbacks.items():
            by_sku[sku] += count
        return {
            "total": sum(self.rollbacks.values()),
            "by_pair": {f"{s}/{b}/{m}": count for (s, b, m), count
                        in sorted(self.rollbacks.items())},
            "by_sku": dict(sorted(by_sku.items())),
            "reasons": list(self.reasons),
        }


class DLQReducer(Reducer):
    """Dead-letter-queue depth over the journal sequence axis."""

    name = "dlq"
    HANDLERS = {RecordKind.EVENT_DEAD_LETTERED: "_dead_lettered",
                RecordKind.STATE_SNAPSHOT: "_snapshot"}

    def __init__(self, curve_points: int = 16):
        self.curve_points = max(int(curve_points), 2)
        self.depth = 0
        self.parked = 0
        self._series: list[dict] = []

    def _dead_lettered(self, record: JournalRecord) -> None:
        self.depth += 1
        self.parked += 1
        self._series.append({"seq": record.seq, "depth": self.depth})

    def _snapshot(self, record: JournalRecord) -> None:
        # Compaction re-baselines the depth to the snapshot's carried
        # dead letters.
        self.depth = len(record.payload.get("dead_letters", []))
        self._series.append({"seq": record.seq, "depth": self.depth})

    def result(self) -> dict:
        series = self._series
        if len(series) > self.curve_points:
            step = (len(series) - 1) / (self.curve_points - 1)
            series = [series[round(i * step)]
                      for i in range(self.curve_points)]
        return {
            "events_parked": self.parked,
            "depth_now": self.depth,
            "depth_series": series,
        }


class SanitizationReducer(Reducer):
    """Sanitization / quarantine rates by (sku, benchmark, metric).

    Consumes the compact per-event ``batch-provenance`` summaries the
    control plane journals after each validation, plus any full
    ``measurement-batch`` records, and reports per-slice window
    counts, quarantine rates and fault-class histograms.  Pre-SKU
    records fold into the ``"unknown"`` legacy bucket.
    """

    name = "sanitization"
    HANDLERS = {RecordKind.BATCH_PROVENANCE: "_provenance",
                RecordKind.MEASUREMENT_BATCH: "_batch"}

    def __init__(self) -> None:
        self.windows: Counter[tuple[str, str, str]] = Counter()
        self.sanitized: Counter[tuple[str, str, str]] = Counter()
        self.quarantined: Counter[tuple[str, str, str]] = Counter()
        self.faults: dict[tuple[str, str, str], Counter[str]] = {}

    def _fold(self, key: tuple[str, str, str], windows: int,
              sanitized: int, quarantined: int, faults: dict) -> None:
        self.windows[key] += windows
        self.sanitized[key] += sanitized
        self.quarantined[key] += quarantined
        if faults:
            bucket = self.faults.setdefault(key, Counter())
            for fault, count in faults.items():
                bucket[str(fault)] += int(count)

    def _provenance(self, record: JournalRecord) -> None:
        for entry in record.payload.get("provenance", []):
            get = entry.get
            self._fold((str(get("sku", "unknown")), str(get("benchmark", "")),
                        str(get("metric", ""))),
                       int(get("windows", 0)), int(get("sanitized", 0)),
                       int(get("quarantined", 0)), get("faults", {}))

    def _batch(self, record: JournalRecord) -> None:
        payload = record.payload
        key = (str(payload.get("sku", "unknown")),
               str(payload.get("benchmark", "")),
               str(payload.get("metric", "")))
        windows = payload.get("windows", [])
        faults: Counter[str] = Counter()
        for window in windows:
            for fault in window.get("faults", []):
                faults[str(fault)] += 1
        self._fold(key, len(windows),
                   sum(1 for w in windows if w.get("sanitized")),
                   sum(1 for w in windows if w.get("quarantined")),
                   dict(faults))

    def result(self) -> dict:
        pairs = {}
        for key in sorted(self.windows):
            windows = self.windows[key]
            pairs[f"{key[0]}/{key[1]}/{key[2]}"] = {
                "windows": windows,
                "sanitized_rate": (_round(self.sanitized[key] / windows)
                                   if windows else None),
                "quarantine_rate": (_round(self.quarantined[key] / windows)
                                    if windows else None),
                "faults": dict(sorted(self.faults.get(key, {}).items())),
            }
        by_sku: dict[str, dict] = {}
        for (sku, _b, _m), windows in self.windows.items():
            entry = by_sku.setdefault(sku, {"windows": 0, "quarantined": 0})
            entry["windows"] += windows
            entry["quarantined"] += self.quarantined[(sku, _b, _m)]
        for entry in by_sku.values():
            entry["quarantine_rate"] = (
                _round(entry["quarantined"] / entry["windows"])
                if entry["windows"] else None)
        return {
            "windows_total": sum(self.windows.values()),
            "windows_quarantined": sum(self.quarantined.values()),
            "by_pair": pairs,
            "by_sku": dict(sorted(by_sku.items())),
        }


class SkuReducer(Reducer):
    """Per-hardware-class fleet health: MTBI, evictions, telemetry.

    The heterogeneous-fleet rollup: every journal signal that carries
    (or implies) a SKU is folded into one row per hardware class --
    observed node-hours and incidents (per-SKU MTBI), quarantines and
    repairs (eviction pipeline), criteria rollbacks, and sanitization
    window counts.  Records from pre-SKU journals carry no ``sku``
    field and land in the ``"unknown"`` legacy bucket, so a v1 journal
    replays into a one-row table instead of failing.

    Node-hours come from ``event-completed`` records, which list node
    ids but not classes; the reducer learns each node's class from the
    ``transition`` records that do carry one and resolves the
    attribution at :meth:`result` time.
    """

    name = "sku"
    HANDLERS = {RecordKind.EVENT_COMPLETED: "_completed",
                RecordKind.TRANSITION: "_transition",
                RecordKind.CRITERIA_ROLLBACK: "_rollback",
                RecordKind.BATCH_PROVENANCE: "_provenance"}

    def __init__(self) -> None:
        self._node_sku: dict[str, str] = {}
        self._node_hours: Counter[str] = Counter()
        self.incidents: Counter[str] = Counter()
        self.repairs: Counter[str] = Counter()
        self.rollbacks: Counter[str] = Counter()
        self.windows: Counter[str] = Counter()
        self.quarantined_windows: Counter[str] = Counter()
        self._repaired_once: set[str] = set()
        self.requarantines: Counter[str] = Counter()

    def _sku_of(self, node_id: str) -> str:
        return self._node_sku.get(node_id, "unknown")

    def _completed(self, record: JournalRecord) -> None:
        payload = record.payload
        hours = float(payload.get("duration_hours", 0.0))
        if hours > 0.0:
            for node_id in payload.get("validated_nodes", []):
                self._node_hours[str(node_id)] += hours

    def _transition(self, record: JournalRecord) -> None:
        payload = record.payload
        node_id = str(payload.get("node_id", ""))
        sku = str(payload.get("sku", "unknown"))
        if sku != "unknown":
            self._node_sku[node_id] = sku
        if payload.get("new") == "quarantined":
            self.incidents[self._sku_of(node_id)] += 1
            if node_id in self._repaired_once:
                self.requarantines[self._sku_of(node_id)] += 1
        elif (payload.get("new") == "healthy"
                and payload.get("reason") == "repair-complete"):
            self.repairs[self._sku_of(node_id)] += 1
            self._repaired_once.add(node_id)

    def _rollback(self, record: JournalRecord) -> None:
        self.rollbacks[str(record.payload.get("sku", "unknown"))] += 1

    def _provenance(self, record: JournalRecord) -> None:
        for entry in record.payload.get("provenance", []):
            sku = str(entry.get("sku", "unknown"))
            self.windows[sku] += int(entry.get("windows", 0))
            self.quarantined_windows[sku] += int(entry.get("quarantined", 0))

    def result(self) -> dict:
        hours: Counter[str] = Counter()
        for node_id, node_hours in self._node_hours.items():
            hours[self._sku_of(node_id)] += node_hours
        skus = sorted(set(hours) | set(self.incidents) | set(self.rollbacks)
                      | set(self.windows) | set(self.repairs)
                      | set(self._node_sku.values()))
        by_sku = {}
        for sku in skus:
            windows = self.windows[sku]
            incidents = self.incidents[sku]
            by_sku[sku] = {
                "node_hours": _round(hours[sku]),
                "incidents": incidents,
                "mtbi_hours": (_round(hours[sku] / incidents)
                               if incidents and hours[sku] else None),
                "repairs_completed": self.repairs[sku],
                "requarantines_after_repair": self.requarantines[sku],
                "rollbacks": self.rollbacks[sku],
                "windows": windows,
                "quarantine_rate": (
                    _round(self.quarantined_windows[sku] / windows)
                    if windows else None),
            }
        return {"by_sku": by_sku}


class SupervisorReducer(Reducer):
    """Supervision-tree health from shard-fabric journal records.

    A sharded deployment runs one journal per shard; this reducer is
    written to work per shard (one journal's records) *or* over a
    concatenation of several shards' records -- per-shard figures are
    keyed by the shard index the records carry.  Reported:

    * **restarts** -- the per-shard restart high-water mark carried by
      ``shard-heartbeat`` records (the supervisor stamps each beat
      with the shard's restart count);
    * **failovers** -- ``shard-handoff`` records (events moved off a
      degraded shard) and ``shard-degraded`` escalations with reasons;
    * **shed rate** -- ``load-shed`` records per enqueued event, the
      fraction of accepted work admission control dropped under
      overload;
    * **process fabric** -- ``proc-heartbeat`` liveness beats and
      ``proc-restart`` respawns journaled by the process supervisor
      (:mod:`repro.service.procfabric`), per shard.  A worker journals
      one beat per ``status`` probe it *answers*, and a busy worker's
      sample rides its command replies instead, so
      ``proc_heartbeats`` counts probes answered (idle rounds, first
      samples, drain checks), not supervision rounds;
    * **clean shutdown** -- a journal whose *final* record is a
      ``fabric-drain`` was shut down gracefully (drained, fsynced);
      anything after the last drain means the writer came back up, and
      no drain at all means the last incarnation crashed.
    """

    name = "supervisor"
    HANDLERS = {
        EVERY_RECORD: "_last",
        RecordKind.EVENT_ENQUEUED: "_enqueued",
        RecordKind.FABRIC_DRAIN: "_drain",
        RecordKind.PROC_HEARTBEAT: "_proc_heartbeat",
        RecordKind.PROC_RESTART: "_proc_restart",
        RecordKind.LOAD_SHED: "_shed",
        RecordKind.SHARD_HANDOFF: "_handoff",
        RecordKind.SHARD_DEGRADED: "_degraded",
        RecordKind.SHARD_HEARTBEAT: "_heartbeat",
    }

    def __init__(self) -> None:
        self.heartbeats = 0
        self.events_enqueued = 0
        self.events_shed = 0
        self.shed_by_kind: Counter[str] = Counter()
        self.handoffs = 0
        self.handoffs_by_target: Counter[str] = Counter()
        self.degraded: list[dict] = []
        self.restarts_by_shard: dict[str, int] = {}
        self.last_beat_by_shard: dict[str, dict] = {}
        self.drains = 0
        self.drain_reasons: Counter[str] = Counter()
        self.proc_heartbeats = 0
        self.proc_restarts = 0
        self.proc_restarts_by_shard: Counter[str] = Counter()
        self._last_was_drain = False
        self._saw_record = False

    def _last(self, record: JournalRecord) -> None:
        self._saw_record = True
        self._last_was_drain = record.kind == RecordKind.FABRIC_DRAIN

    def _enqueued(self, record: JournalRecord) -> None:
        self.events_enqueued += 1

    def _drain(self, record: JournalRecord) -> None:
        self.drains += 1
        self.drain_reasons[str(record.payload.get("reason", "unknown"))] += 1

    def _proc_heartbeat(self, record: JournalRecord) -> None:
        self.proc_heartbeats += 1

    def _proc_restart(self, record: JournalRecord) -> None:
        self.proc_restarts += 1
        self.proc_restarts_by_shard[
            str(record.payload.get("shard", "?"))] += 1

    def _shed(self, record: JournalRecord) -> None:
        self.events_shed += 1
        self.shed_by_kind[str(record.payload.get("kind", "unknown"))] += 1

    def _handoff(self, record: JournalRecord) -> None:
        self.handoffs += 1
        self.handoffs_by_target[
            str(record.payload.get("to_shard", "?"))] += 1

    def _degraded(self, record: JournalRecord) -> None:
        payload = record.payload
        self.degraded.append({
            "shard": int(payload.get("shard", -1)),
            "restarts": int(payload.get("restarts", 0)),
            "reason": str(payload.get("reason", "")),
        })

    def _heartbeat(self, record: JournalRecord) -> None:
        payload = record.payload
        self.heartbeats += 1
        shard = str(payload.get("shard", "?"))
        restarts = int(payload.get("restarts", 0))
        self.restarts_by_shard[shard] = max(
            self.restarts_by_shard.get(shard, 0), restarts)
        self.last_beat_by_shard[shard] = {
            "tick": int(payload.get("tick", 0)),
            "progress": int(payload.get("progress", 0)),
            "queue_depth": int(payload.get("queue_depth", 0)),
        }

    def result(self) -> dict:
        return {
            "heartbeats": self.heartbeats,
            "restarts_total": sum(self.restarts_by_shard.values()),
            "restarts_by_shard": dict(sorted(
                self.restarts_by_shard.items())),
            "shards_degraded": len(self.degraded),
            "degraded": sorted(self.degraded,
                               key=lambda d: (d["shard"], d["reason"])),
            "handoffs": self.handoffs,
            "handoffs_by_target": dict(sorted(
                self.handoffs_by_target.items())),
            "events_shed": self.events_shed,
            "shed_by_kind": dict(sorted(self.shed_by_kind.items())),
            "shed_rate": _round(
                self.events_shed / max(self.events_enqueued, 1)),
            "last_heartbeat_by_shard": dict(sorted(
                self.last_beat_by_shard.items())),
            "drains": self.drains,
            "drain_reasons": dict(sorted(self.drain_reasons.items())),
            "clean_shutdown": bool(self._saw_record
                                   and self._last_was_drain),
            "proc_heartbeats": self.proc_heartbeats,
            "proc_restarts": self.proc_restarts,
            "proc_restarts_by_shard": dict(sorted(
                self.proc_restarts_by_shard.items())),
        }


def default_reducers(*, fleet_size: int | None = None,
                     buckets: int = 8, curve_points: int = 16) -> list:
    """The standard fleet-report reducer set, in section order."""
    return [
        ServiceCountersReducer(),
        MTBIReducer(buckets=buckets),
        AvailabilityOverheadReducer(curve_points=curve_points,
                                    fleet_size=fleet_size),
        EvictionPrecisionReducer(),
        BreakerReducer(),
        RollbackReducer(),
        DLQReducer(curve_points=curve_points),
        SanitizationReducer(),
        SkuReducer(),
        SupervisorReducer(),
    ]


def fold(records, reducers) -> None:
    """Hand each record to the handlers its kind routes to.

    The reducers' kind tables are merged once into kind -> handlers
    (each :data:`EVERY_RECORD` handler joins every kind's list), so a
    record costs one lookup plus a call per reducer that reads its
    kind.
    """
    table: dict = {EVERY_RECORD: []}
    for reducer in reducers:
        for kind, handler in reducer.handlers().items():
            table.setdefault(kind, []).append(handler)
    every = table.pop(EVERY_RECORD)
    routes = {kind: handlers + every for kind, handlers in table.items()}
    for record in records:
        for handler in routes.get(record.kind, every):
            handler(record)


def reduce_records(records, reducers=None) -> dict:
    """Fold ``records`` into ``reducers`` (:class:`Reducer` objects,
    :func:`default_reducers` when ``None``); section name -> result."""
    reducers = default_reducers() if reducers is None else reducers
    fold(records, reducers)
    return {reducer.name: reducer.result() for reducer in reducers}
