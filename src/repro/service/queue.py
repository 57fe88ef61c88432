"""Risk-prioritized event queue with coalescing and a dead-letter side.

Orchestrators emit far more validation triggers than a fleet can
absorb: repeated job allocations on the same nodes, periodic ticks
that re-flag the same risky node, incident storms.  The queue orders
pending :class:`~repro.core.system.ValidationEvent`s by the
Selector-predicted incident probability (highest risk first, FIFO
within ties) and *coalesces* repeats -- an event for the same (kind,
node set) that is already pending merges into the existing entry
instead of growing the queue, keeping the higher priority and longer
usage duration of the two.

The dead-letter side handles *poison* events: an entry whose
processing keeps failing is eventually parked as a
:class:`DeadLetter` instead of being retried forever, where it stays
inspectable (:meth:`EventQueue.dead_letters`) without blocking the
rest of the queue.  The control plane decides *when* to park (after
``max_event_attempts`` failed ticks); the queue only provides the
mechanism.

:class:`JournalState` is the service's durable state as its journal
tells it -- lifecycle states, flap counts, the queue, dead letters,
handoff state, metrics, coverage and the criteria fingerprint -- and
the one fold of journal records into it.  Its payload is the
``checkpoint`` record.
"""

from __future__ import annotations

import base64
import heapq
import itertools
import json
import sys
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.persistence import payload_fingerprint
from repro.core.system import ValidationEvent
from repro.exceptions import JournalError
from repro.service.lifecycle import NodeState
from repro.service.store import RecordKind

__all__ = ["QueuedEvent", "DeadLetter", "EventQueue", "Aggregate",
           "JournalState", "COUNTER_FIELDS", "AGGREGATE_FIELDS",
           "as_origin", "encode_origins", "decode_origins",
           "pack_entries", "unpack_entries"]

#: ``sum()`` adds floats with Neumaier compensation from Python 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _node_key(node) -> str:
    """A node's identity in a coalesce key: its ``node_id``.  Only an
    object that has none (a bare string) is stringified -- ``str()`` of
    a real node is a dataclass repr over its arrays."""
    try:
        return node.node_id
    except AttributeError:
        return str(node)


def _coalesce_key(event: ValidationEvent) -> tuple:
    return (event.kind.value, tuple(sorted(map(_node_key, event.nodes))))


@dataclass
class QueuedEvent:
    """One pending queue entry (possibly several coalesced events)."""

    event_id: int
    event: ValidationEvent
    priority: float
    enqueued_at: float = 0.0
    coalesced: int = 0  # how many later duplicates merged into this entry
    attempts: int = 0   # failed processing attempts so far
    #: ``(source_shard, source_event_id)`` when this entry was handed
    #: off from a degraded sibling shard; the marker rides through the
    #: journal so handoff reconciliation can tell a delivered event
    #: from one lost mid-handoff (no drops, no duplicates).
    origin: tuple[int, int] | None = None
    #: Set when admission control journaled this entry as shed.
    shed: bool = False
    #: The (kind, node set) identity repeats coalesce on.  Computed
    #: once per entry: the queue compares it on every push, peek, pop
    #: and remove, and merging a longer ``duration_hours`` into
    #: ``event`` does not change it.  Not journaled -- a recovered
    #: entry derives it from its event again.
    key: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if not self.key:
            self.key = _coalesce_key(self.event)

    @property
    def sort_key(self) -> tuple[float, int]:
        """Max-priority first; FIFO by event id within a priority."""
        return (-self.priority, self.event_id)

    def to_payload(self) -> dict:
        """Journal payload for one pending entry.

        Embeds the event via its canonical schema
        (:meth:`~repro.core.system.ValidationEvent.to_payload`) -- the
        queue, the journal and the recovery path all share the one
        serialization.
        """
        payload = {
            "event_id": self.event_id,
            "priority": self.priority,
            "attempts": self.attempts,
            "event": self.event.to_payload(),
        }
        if self.origin is not None:
            payload["origin"] = [int(self.origin[0]), int(self.origin[1])]
        return payload

    @classmethod
    def from_payload(cls, payload: dict, fleet_index: dict) -> "QueuedEvent":
        """Rebuild one pending entry from its :meth:`to_payload` form."""
        try:
            event = ValidationEvent.from_payload(payload["event"], fleet_index)
            origin = payload.get("origin")
            return cls(
                event_id=int(payload["event_id"]),
                event=event,
                priority=float(payload.get("priority", 0.0)),
                attempts=int(payload.get("attempts", 0)),
                origin=(None if origin is None
                        else (int(origin[0]), int(origin[1]))),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(
                f"malformed queue-entry payload: {error}") from error


@dataclass(frozen=True)
class DeadLetter:
    """One poison event, parked after repeated processing failures."""

    entry: QueuedEvent
    reason: str = ""

    @property
    def event_id(self) -> int:
        return self.entry.event_id

    def to_payload(self) -> dict:
        """Journal payload: the entry's payload plus the parking reason."""
        payload = self.entry.to_payload()
        payload["reason"] = self.reason
        return payload


class EventQueue:
    """Priority queue keyed on predicted incident probability.

    The heap holds ``(sort_key, entry)`` tuples; priority *raises*
    (from coalescing) push a fresh tuple and the stale one is lazily
    discarded on pop, so both push and pop stay O(log n).
    """

    def __init__(self):
        self._heap: list[tuple[tuple[float, int], QueuedEvent]] = []
        self._pending: dict[tuple, QueuedEvent] = {}
        self._dead: list[DeadLetter] = []
        self._ids = itertools.count(1)
        self.coalesced_total = 0
        #: Highest event id handed out or reserved so far -- the
        #: high-water mark a checkpoint must persist so a recovered
        #: queue never reuses an id.
        self.last_event_id = 0

    def __len__(self) -> int:
        return len(self._pending)

    def next_event_id(self) -> int:
        """Allocate a fresh event id (used by recovery to stay ahead
        of journaled ids)."""
        event_id = next(self._ids)
        self.last_event_id = max(self.last_event_id, event_id)
        return event_id

    def reserve_ids(self, up_to: int) -> None:
        """Ensure future ids are strictly greater than ``up_to``."""
        self._ids = itertools.count(up_to + 1)
        self.last_event_id = max(self.last_event_id, up_to)

    def push(self, event: ValidationEvent, priority: float, *,
             event_id: int | None = None, enqueued_at: float = 0.0,
             origin: tuple[int, int] | None = None) -> tuple[QueuedEvent, bool]:
        """Enqueue (or coalesce) one event.

        Returns ``(entry, created)``; ``created`` is False when the
        event merged into an already-pending entry for the same
        (kind, node set).
        """
        key = _coalesce_key(event)
        existing = self._pending.get(key)
        if existing is not None:
            existing.coalesced += 1
            self.coalesced_total += 1
            if event.duration_hours > existing.event.duration_hours:
                existing.event = replace(
                    existing.event, duration_hours=event.duration_hours)
            if priority > existing.priority:
                existing.priority = priority
                heapq.heappush(self._heap, (existing.sort_key, existing))
            return existing, False
        entry = QueuedEvent(
            event_id=event_id if event_id is not None else self.next_event_id(),
            event=event, priority=float(priority), enqueued_at=enqueued_at,
            origin=origin, key=key,
        )
        self._pending[key] = entry
        heapq.heappush(self._heap, (entry.sort_key, entry))
        return entry, True

    def requeue(self, entry: QueuedEvent) -> QueuedEvent:
        """Re-insert a popped entry (after a failed processing attempt).

        Keeps the entry's id, priority and attempt count.  If a fresh
        entry for the same (kind, node set) was submitted while this
        one was being processed, the two merge: the pending entry
        survives and inherits the higher attempt count and priority.
        """
        key = entry.key
        existing = self._pending.get(key)
        if existing is not None:
            existing.attempts = max(existing.attempts, entry.attempts)
            if entry.priority > existing.priority:
                existing.priority = entry.priority
                heapq.heappush(self._heap, (existing.sort_key, existing))
            return existing
        self._pending[key] = entry
        heapq.heappush(self._heap, (entry.sort_key, entry))
        return entry

    def remove(self, entry: QueuedEvent) -> bool:
        """Withdraw a pending entry (journal-failure rollback).

        Returns False when the entry is no longer pending (already
        popped, or superseded).  The heap tuple is discarded lazily by
        :meth:`pop`, like a stale priority raise.
        """
        if self._pending.get(entry.key) is not entry:
            return False
        del self._pending[entry.key]
        return True

    def pop(self) -> QueuedEvent | None:
        """Highest-priority pending entry, or ``None`` when empty."""
        while self._heap:
            sort_key, entry = heapq.heappop(self._heap)
            if (self._pending.get(entry.key) is not entry
                    or sort_key != entry.sort_key):
                continue  # stale tuple from a coalesced priority raise
            del self._pending[entry.key]
            return entry
        return None

    def peek(self) -> QueuedEvent | None:
        """The entry :meth:`pop` would return, without removing it.

        Discards stale heap tuples on the way, so amortized cost
        matches pop.  The cross-shard scheduler uses this to compare
        the riskiest pending work across shards without consuming it.
        """
        while self._heap:
            sort_key, entry = self._heap[0]
            if (self._pending.get(entry.key) is not entry
                    or sort_key != entry.sort_key):
                heapq.heappop(self._heap)
                continue
            return entry
        return None

    def shed_lowest(self) -> QueuedEvent | None:
        """Withdraw the lowest-priority pending entry (admission control).

        The victim is the minimum by ``(priority, event_id)`` -- the
        lowest predicted risk, oldest first within a tie -- which under
        the control plane's priority scheme is always a coalescable
        probabilistic event while any full-validation event (priority
        above the probability range) is pending.  Returns ``None`` on
        an empty queue.  The victim's stale heap tuples are discarded
        lazily by :meth:`pop`, like any removed entry's.
        """
        if not self._pending:
            return None
        victim = min(self._pending.values(),
                     key=lambda entry: (entry.priority, entry.event_id))
        del self._pending[victim.key]
        victim.shed = True
        return victim

    def pending(self) -> list[QueuedEvent]:
        """Pending entries in pop order (does not consume the queue)."""
        return sorted(self._pending.values(), key=lambda e: e.sort_key)

    # ------------------------------------------------------------------
    # Dead letters
    # ------------------------------------------------------------------
    def dead_letter(self, entry: QueuedEvent, reason: str = "") -> DeadLetter:
        """Park one poison entry; it will never be popped again."""
        letter = DeadLetter(entry=entry, reason=reason)
        self._dead.append(letter)
        return letter

    def dead_letters(self) -> list[DeadLetter]:
        """Parked poison events, oldest first (inspection API)."""
        return list(self._dead)


# ----------------------------------------------------------------------
# Journal -> state fold
# ----------------------------------------------------------------------

def as_origin(raw) -> tuple[int, int]:
    """An origin marker as journals and frames carry it (a 2-list)
    back in the hashable form the dedupe sets hold."""
    return (int(raw[0]), int(raw[1]))


def encode_origins(origins) -> list:
    """A set of origin markers as a checkpoint carries them.

    Each source's markers go as one ``[source, first, bitmap]`` entry
    (bit ``i`` of the base64, little-endian bitmap marks event id
    ``first + i``) where that is shorter than listing them as
    ``[source, event_id]`` pairs.  The process fabric's parent marks
    every delivery ``(-1, seq)`` with a rising ``seq``, so a shard's
    whole history of those costs about a bit per delivery, not a pair.
    """
    by_source: dict[int, list[int]] = {}
    for source, event_id in origins:
        by_source.setdefault(int(source), []).append(int(event_id))
    encoded: list[list] = []
    for source in sorted(by_source):
        ids = np.array(sorted(by_source[source]), dtype=np.int64)
        first = int(ids[0])
        span = int(ids[-1]) - first + 1
        if span > 64 * len(ids):
            encoded.extend([source, int(event_id)] for event_id in ids)
            continue
        bits = np.zeros(span, dtype=bool)
        bits[ids - first] = True
        encoded.append([source, first, base64.b64encode(
            np.packbits(bits, bitorder="little")).decode("ascii")])
    return encoded


def decode_origins(encoded) -> set[tuple[int, int]]:
    """The origin markers :func:`encode_origins` encoded."""
    origins: set[tuple[int, int]] = set()
    for raw in encoded:
        if len(raw) == 2:
            origins.add(as_origin(raw))
            continue
        source, first = int(raw[0]), int(raw[1])
        bits = np.unpackbits(np.frombuffer(base64.b64decode(raw[2]),
                                           dtype=np.uint8),
                             bitorder="little")
        origins.update((source, first + int(offset))
                       for offset in np.flatnonzero(bits))
    return origins


def pack_entries(entries: list[dict]) -> str:
    """Queue-entry payloads as a checkpoint carries its pending queue:
    their JSON, zlib-compressed and base64-encoded.  The events' status
    covariates make the plain JSON most of a checkpoint's bytes, and it
    compresses about threefold."""
    return base64.b64encode(zlib.compress(json.dumps(
        entries, separators=(",", ":")).encode())).decode("ascii")


def unpack_entries(packed: str) -> list[dict]:
    """The entry payloads :func:`pack_entries` packed."""
    return json.loads(zlib.decompress(base64.b64decode(packed)))


def _pending_entry(payload: dict) -> dict:
    """A :class:`JournalState` ``pending`` value from one entry's
    :meth:`QueuedEvent.to_payload` form.  The event is a copy: merges
    raise its duration, and the record it came from must not change."""
    origin = payload.get("origin")
    return {
        "event": dict(payload["event"]),
        "priority": float(payload["priority"]),
        "attempts": int(payload.get("attempts", 0)),
        "origin": None if origin is None else as_origin(origin),
    }


@dataclass
class Aggregate:
    """Count, sum and maximum of a stream of floats, in constant memory.

    The sum is made of the same additions, in the same order, that
    ``sum()`` over the whole stream would make (left to right, and
    compensated where the interpreter's ``sum()`` compensates), so
    :attr:`total` is bit-identical to summing a list of the values.
    """

    count: int = 0
    running: float = 0.0
    compensation: float = 0.0
    peak: float = 0.0

    def add(self, value: float) -> None:
        if _COMPENSATED_SUM:
            running = self.running + value
            if abs(self.running) >= abs(value):
                self.compensation += (self.running - running) + value
            else:
                self.compensation += (value - running) + self.running
            self.running = running
        else:
            self.running += value
        if not self.count or value > self.peak:
            self.peak = value
        self.count += 1

    @property
    def total(self):
        """``sum()`` of the values (the int 0 when there are none)."""
        return self.running + self.compensation if self.count else 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_payload(self) -> list:
        return [self.count, self.running, self.compensation, self.peak]

    @classmethod
    def from_payload(cls, raw) -> "Aggregate":
        return cls(int(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))


#: ``ServiceMetrics`` counters and :class:`Aggregate` fields a
#: :class:`JournalState` holds.
COUNTER_FIELDS = (
    "events_submitted", "events_coalesced", "events_processed",
    "policy_skips", "validations_run", "nodes_validated",
    "nodes_quarantined", "tick_failures", "events_dead_lettered",
    "repair_failures", "events_shed",
)

AGGREGATE_FIELDS = ("queue_latency", "validation")


#: Record kinds that carry an ``event_id`` and move a queue entry.
_QUEUE_KINDS = frozenset(kind.value for kind in (
    RecordKind.EVENT_ENQUEUED, RecordKind.EVENT_COALESCED,
    RecordKind.EVENT_FAILED, RecordKind.EVENT_COMPLETED,
    RecordKind.EVENT_DEAD_LETTERED, RecordKind.LOAD_SHED,
    RecordKind.SHARD_HANDOFF))


@dataclass
class JournalState:
    """What a service's journal says about its state: the one journal
    -> state fold and the one checkpoint format.

    A restarting service folds its journal from the newest checkpoint
    on and installs the result; a supervisor reads a **dead** shard's
    pending work and handoff state with :meth:`read`, without building
    a service; a checkpoint is :meth:`to_payload` of the state a live
    service builds (``ValidationService.journal_state``).  :meth:`apply`
    starts over from the state a ``checkpoint`` carries, so folding
    from the newest checkpoint on gives what folding every record would.
    """

    #: Event id -> ``{"event", "priority", "attempts", "origin"}``, with
    #: every later ``event-coalesced`` / ``event-failed`` merged in.
    pending: dict[int, dict] = field(default_factory=dict)
    #: Every ``(source_shard, source_event_id)`` handoff marker accepted.
    origins_seen: set = field(default_factory=set)
    #: Event id -> the ``shard-handoff`` payload that moved it out.
    handed_off: dict[int, dict] = field(default_factory=dict)
    last_event_id: int = 0
    #: Node id -> :class:`NodeState` for every node a transition names,
    #: HEALTHY included, in first-transition order.
    states: dict[str, NodeState] = field(default_factory=dict)
    #: Node id -> quarantines: the flap damper's counts.
    flap_counts: dict[str, int] = field(default_factory=dict)
    #: Dead-letter payloads (:meth:`DeadLetter.to_payload`), oldest first.
    dead_letters: list[dict] = field(default_factory=list)
    #: :data:`COUNTER_FIELDS` then :data:`AGGREGATE_FIELDS`, by name.
    metrics: dict = field(default_factory=lambda: {
        **dict.fromkeys(COUNTER_FIELDS, 0),
        **{name: Aggregate() for name in AGGREGATE_FIELDS}})
    #: Benchmark -> node ids its violations flagged: this journal's
    #: share of the selector's coverage table.
    coverage: dict[str, set] = field(default_factory=dict)
    #: ``criteria_fingerprint`` of the journal's newest criteria snapshot.
    criteria: bytes | None = None
    #: That snapshot's payload, when it follows the fold's start.
    criteria_snapshot: dict | None = None
    #: Whether the last record applied is a ``fabric-drain``.
    sealed: bool = False

    def apply(self, record) -> None:
        """Fold one journal record into the state."""
        kind, payload = record.kind, record.payload
        self.sealed = kind == RecordKind.FABRIC_DRAIN
        if kind == RecordKind.CHECKPOINT:
            # The whole state: start over from it.
            vars(self).update(vars(JournalState.from_payload(payload)))
        elif kind == RecordKind.TRANSITION:
            node_id, new = payload["node_id"], NodeState(payload["new"])
            self.states[node_id] = new
            if new is NodeState.QUARANTINED:
                counts = self.flap_counts
                counts[node_id] = counts.get(node_id, 0) + 1
        elif kind == RecordKind.CRITERIA_SNAPSHOT:
            self.criteria_snapshot = payload
            self.criteria = payload_fingerprint(payload)
        elif kind in _QUEUE_KINDS:
            self._apply_queue(kind, int(payload["event_id"]), payload)

    def _apply_queue(self, kind: str, event_id: int, payload: dict) -> None:
        entry = self.pending.get(event_id)
        if kind == RecordKind.EVENT_ENQUEUED:
            self.last_event_id = max(self.last_event_id, event_id)
            entry = self.pending[event_id] = _pending_entry(payload)
            if entry["origin"] is not None:
                self.origins_seen.add(entry["origin"])
        elif kind == RecordKind.EVENT_COALESCED:
            # A re-delivery that merged into a pending entry still
            # counts as delivered; the entry keeps the higher risk
            # and the longer usage window, like the live queue.
            if payload.get("origin") is not None:
                self.origins_seen.add(as_origin(payload["origin"]))
            if entry is not None:
                entry["priority"] = max(entry["priority"],
                                        float(payload["priority"]))
                entry["event"]["duration_hours"] = max(
                    float(entry["event"]["duration_hours"]),
                    float(payload.get("duration_hours", 0.0)))
        elif kind == RecordKind.EVENT_FAILED:
            if entry is not None:
                entry["attempts"] = max(entry["attempts"],
                                        int(payload.get("attempts", 0)))
        else:  # completed, dead-lettered, shed, handed off: terminal here
            self.last_event_id = max(self.last_event_id, event_id)
            self.pending.pop(event_id, None)
            if kind == RecordKind.SHARD_HANDOFF:
                self.handed_off[event_id] = dict(payload)
            elif kind == RecordKind.LOAD_SHED:
                self.metrics["events_shed"] += 1
            elif kind == RecordKind.EVENT_DEAD_LETTERED:
                self.dead_letters.append(payload)
                self.metrics["events_dead_lettered"] += 1
            else:
                self._apply_completed(payload)

    def _apply_completed(self, payload: dict) -> None:
        """One completed event's metrics and coverage."""
        metrics = self.metrics
        metrics["events_processed"] += 1
        metrics["queue_latency"].add(
            float(payload.get("queue_latency_seconds", 0.0)))
        if payload.get("skipped", False):
            metrics["policy_skips"] += 1
            return
        metrics["validations_run"] += 1
        metrics["nodes_validated"] += len(payload.get("validated_nodes", []))
        metrics["nodes_quarantined"] += len(payload.get("defective", []))
        metrics["validation"].add(
            float(payload.get("validation_seconds", 0.0)))
        for benchmark in payload.get("benchmarks_run", []):
            self.coverage.setdefault(benchmark, set())
        for violation in payload.get("violations", []):
            self.coverage.setdefault(violation[1], set()).add(violation[0])

    @classmethod
    def fold(cls, records) -> "JournalState":
        """The state journal ``records`` describe."""
        state = cls()
        for record in records:
            state.apply(record)
        return state

    @classmethod
    def read(cls, store) -> "JournalState":
        """The state a journal holds, folded from its newest checkpoint
        on: how a supervisor reads a **dead** shard."""
        return cls.fold(store.replay(offset=store.checkpoint_offset()))

    def to_payload(self) -> dict:
        """The ``checkpoint`` record's payload.

        Nodes in the default HEALTHY state are left out, origin markers
        go as bitmaps (:func:`encode_origins`), pending entries as
        compressed JSON in pop order (:func:`pack_entries`), and the
        criteria fingerprint in hex; the newest snapshot's payload and
        ``sealed`` are not state and stay out.
        """
        pending = []
        for event_id, info in sorted(
                self.pending.items(),
                key=lambda item: (-item[1]["priority"], item[0])):
            entry = {"event_id": event_id, "priority": info["priority"],
                     "attempts": info["attempts"], "event": info["event"]}
            if info["origin"] is not None:
                entry["origin"] = [int(part) for part in info["origin"]]
            pending.append(entry)
        return {
            "states": {node_id: state.value
                       for node_id, state in self.states.items()
                       if state is not NodeState.HEALTHY},
            "flap_counts": dict(self.flap_counts),
            "last_event_id": self.last_event_id,
            "dead_letters": list(self.dead_letters),
            # Losing a handed-off payload could drop the event (the
            # supervisor could no longer re-deliver it), losing an
            # origin marker could duplicate one (a re-delivery would
            # no longer dedupe).
            "handed_off": [self.handed_off[event_id]
                           for event_id in sorted(self.handed_off)],
            "origins_seen": encode_origins(self.origins_seen),
            "metrics": {name: (value.to_payload()
                               if name in AGGREGATE_FIELDS else value)
                        for name, value in self.metrics.items()},
            "pending": pack_entries(pending),
            "coverage": {benchmark: sorted(node_ids)
                         for benchmark, node_ids
                         in sorted(self.coverage.items())},
            "criteria": None if self.criteria is None else self.criteria.hex(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalState":
        """The state a :meth:`to_payload` payload carries."""
        metrics = payload["metrics"]
        criteria = payload["criteria"]
        return cls(
            pending={int(entry["event_id"]): _pending_entry(entry)
                     for entry in unpack_entries(payload["pending"])},
            origins_seen=decode_origins(payload["origins_seen"]),
            handed_off={int(handoff["event_id"]): dict(handoff)
                        for handoff in payload["handed_off"]},
            last_event_id=int(payload["last_event_id"]),
            states={node_id: NodeState(value)
                    for node_id, value in payload["states"].items()},
            flap_counts={node_id: int(count) for node_id, count
                         in payload["flap_counts"].items()},
            dead_letters=list(payload["dead_letters"]),
            metrics={**{name: int(metrics[name])
                        for name in COUNTER_FIELDS},
                     **{name: Aggregate.from_payload(metrics[name])
                        for name in AGGREGATE_FIELDS}},
            coverage={benchmark: set(node_ids) for benchmark, node_ids
                      in payload["coverage"].items()},
            criteria=None if criteria is None else bytes.fromhex(criteria),
        )
