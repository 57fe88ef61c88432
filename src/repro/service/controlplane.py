"""The validation control plane: a durable service around Anubis.

:class:`ValidationService` turns the synchronous
:class:`~repro.core.system.Anubis` facade into the operational loop
the paper deploys (§3.1 Figure 7, §4): orchestration events are
*submitted* into a risk-prioritized queue (coalescing repeats), a
``tick`` pops the riskiest event, applies exactly the facade's policy
via :meth:`Anubis.plan`, executes it on the parallel
:class:`~repro.service.pool.ValidationPool`, and walks every touched
node through the enforced lifecycle state machine.  All of it is
journaled through :class:`~repro.service.store.JournalStore`, so a
killed service recovers its queue, lifecycle states, learned criteria
and coverage history from disk.

The service separates three clocks deliberately:

* *queue latency* -- submit to pop, per event;
* *validation wall-clock* -- parallel sweep duration, per event;
* *repair pipeline* -- quarantined nodes advance one lifecycle stage
  per tick (QUARANTINED -> IN_REPAIR -> RETURNING -> HEALTHY),
  mirroring the hot-buffer swap flow without wall-clock coupling.

The paper's premise cuts both ways: a validator policing a
gray-failing fleet must itself survive the failure modes it detects
(§3.4 counts crashes and hangs as defects).  The control plane is
therefore hardened against its *own* machinery failing:

* a tick that raises (journal write fault, poison event, injected
  chaos) releases the event's nodes, re-queues the event, and after
  ``max_event_attempts`` failed ticks parks it in the dead-letter
  queue instead of retrying forever;
* repair-stage failures are absorbed and retried next tick;
* nodes that flap through quarantine are held down exponentially
  (:class:`~repro.service.lifecycle.FlapDamper`);
* recovery installs the states its journal folds to, unchecked, so a
  record lost to a write fault cannot wedge a restart, then resets
  nodes stranded in VALIDATING/SCHEDULED by a mid-tick crash;
* every :data:`CHECKPOINT_EVERY` journal records the service appends
  a ``checkpoint`` -- its whole live state -- so recovery folds only
  the records from the newest one on, and a restart costs the same
  whatever the uptime;
* ``compact_every`` bounds the journal's disk use by periodically
  rewriting it as its criteria and one checkpoint.

Event processing is **at-least-once**: a crash after validation ran
but before its completion record landed re-runs the event on
recovery.  Re-validation is safe -- it touches no cluster state
beyond coverage counters and may re-quarantine an already-defective
node, which the lifecycle absorbs.

Fault injection for all of this lives in
:mod:`repro.service.chaos`; the ``tick_hook`` / ``repair_hook``
attributes are its (and any test's) seams into the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.persistence import (
    criteria_fingerprint,
    criteria_from_payload,
    criteria_payload,
)
from repro.core.system import (
    FULL_VALIDATION_KINDS,
    Anubis,
    EventKind,
    ValidationEvent,
    ValidationOutcome,
)
from repro.core.validator import ValidationReport
from repro.exceptions import JournalError, ServiceError
from repro.quality.rollout import RolloutDecision, evaluate_rollout
from repro.service.lifecycle import FlapDamper, NodeLifecycle, NodeState
from repro.service.pool import PoolConfig, ValidationPool
from repro.service.queue import (
    DeadLetter,
    EventQueue,
    JournalState,
    QueuedEvent,
    ServiceMetrics,
)
from repro.service.store import JournalStore, RecordKind

__all__ = ["ServiceConfig", "ServiceMetrics", "TickResult",
           "ValidationService", "CHECKPOINT_EVERY"]

#: Journal records between two checkpoints.  A checkpoint costs about
#: as much as ten records (it leaves out healthy nodes, and packs origin
#: markers and pending entries), so this keeps checkpoints under 1 % of
#: the journal's bytes, and recovery replays at most about this many
#: records after the newest one.
CHECKPOINT_EVERY = 1000

#: Queue priority for kinds that bypass the Selector (incident-reported,
#: node-added, software-upgraded); above the [0, 1] probability range so
#: they always jump the queue.
FULL_VALIDATION_PRIORITY = 2.0

#: Lifecycle stages a node moves through after quarantine, advanced
#: one stage per tick (later stages first so one tick moves one stage).
_REPAIR_PIPELINE = (
    (NodeState.RETURNING, NodeState.HEALTHY, "repair-complete"),
    (NodeState.IN_REPAIR, NodeState.RETURNING, "repair-finished"),
    (NodeState.QUARANTINED, NodeState.IN_REPAIR, "repair-started"),
)

_REPAIR_STATES = frozenset(current for current, _target, _reason
                           in _REPAIR_PIPELINE)

@dataclass(frozen=True)
class ServiceConfig:
    """Control-plane knobs.

    Attributes
    ----------
    pool:
        Parallel-executor configuration (including circuit breakers).
    snapshot_every:
        Every N completed events the learned criteria are
        fingerprinted (a content hash, no encode) and journaled as a
        ``criteria-snapshot`` only if they differ from the newest
        snapshot the journal holds -- which is what catches criteria
        refreshed out-of-band -- and the ``pipeline-stats`` counters
        are journaled.
    max_event_attempts:
        Failed processing attempts before an event is parked in the
        dead-letter queue instead of retried (1 = no retries).
    max_queue_depth:
        Bound on distinct pending queue entries.  When a submit would
        leave more than this many entries pending, admission control
        sheds the lowest-risk entry (journaled as ``LOAD_SHED``) so
        overload degrades coverage gracefully instead of growing
        memory without bound.  ``None`` (the default) keeps the queue
        unbounded -- exactly the pre-backpressure behavior.
    journal_fsync:
        Force every journal append to stable storage (durability over
        throughput); the default flushes to the OS only.
    compact_every:
        Rewrite the journal as its criteria and one checkpoint every N
        completed events, so its disk use stays bounded; ``None``
        disables compaction.  Recovery cost is bounded without it, by
        periodic checkpoints.
    flap_base_holddown_ticks / flap_multiplier / flap_max_holddown_ticks:
        Exponential hold-down for nodes flapping through quarantine:
        the K-th quarantine holds the node for
        ``base * multiplier**(K-1)`` ticks, capped.  K counts every
        quarantine the journal holds; it is never forgiven.
    sanitizer:
        Optional :class:`repro.quality.Sanitizer`; when set, every
        benchmark result entering the service (pool sweeps and the
        validator's own runs) crosses telemetry sanitization, and the
        shared ledger accumulates quarantine provenance.
    rollout:
        Optional :class:`repro.quality.RolloutConfig`; when set,
        :meth:`ValidationService.learn_criteria` shadow-evaluates
        every freshly learned criteria before activation and rolls
        back (journaled) candidates that would blow the eviction
        budget.  ``None`` activates new criteria unconditionally.
    """

    pool: PoolConfig = field(default_factory=PoolConfig)
    snapshot_every: int = 25
    max_event_attempts: int = 3
    max_queue_depth: int | None = None
    journal_fsync: bool = False
    compact_every: int | None = None
    flap_base_holddown_ticks: int = 1
    flap_multiplier: float = 2.0
    flap_max_holddown_ticks: int = 32
    sanitizer: object | None = None
    rollout: object | None = None

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ServiceError("snapshot_every must be at least 1")
        if self.max_event_attempts < 1:
            raise ServiceError("max_event_attempts must be at least 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be at least 1")
        if self.compact_every is not None and self.compact_every < 1:
            raise ServiceError("compact_every must be at least 1")

    def build_damper(self) -> FlapDamper:
        """The flap damper these knobs describe (validates them too)."""
        return FlapDamper(
            base_holddown_ticks=self.flap_base_holddown_ticks,
            multiplier=self.flap_multiplier,
            max_holddown_ticks=self.flap_max_holddown_ticks,
        )


@dataclass
class TickResult:
    """What one tick did.

    ``failed`` ticks carry no outcome: the event's processing raised,
    its nodes were released, and the event was re-queued (or
    dead-lettered once out of attempts).
    """

    event_id: int
    outcome: ValidationOutcome | None
    queue_latency_seconds: float
    validation_seconds: float
    quarantined: list[str] = field(default_factory=list)
    skipped_nodes: list[str] = field(default_factory=list)
    failed: bool = False
    error: str | None = None


class ValidationService:
    """Durable, parallel control plane around one Anubis facade.

    Parameters
    ----------
    anubis:
        The policy facade (Validator + Selector).  The service drives
        :meth:`Anubis.plan` and :meth:`Anubis.record` so the facade's
        history and summary stay authoritative.
    nodes:
        The fleet this service validates; journaled events reference
        these nodes by id.
    journal_dir:
        Directory for the journal; ``None`` runs purely in memory.
        When the directory already holds a journal, the service
        recovers queue, lifecycle, criteria and coverage from it.
    config:
        Control-plane knobs; see :class:`ServiceConfig`.
    clock:
        Monotonic-seconds source (injectable for tests).

    Attributes
    ----------
    tick_hook:
        Optional callable ``(entry) -> None`` invoked after an event
        is popped, before processing; raising fails the tick.  Fault
        injection seam (see :mod:`repro.service.chaos`).
    repair_hook:
        Optional callable ``(node_id, target_state) -> None`` invoked
        before each repair-pipeline advance; raising skips the
        advance for this tick (retried next tick).
    """

    def __init__(self, anubis: Anubis, nodes, *, journal_dir=None,
                 config: ServiceConfig | None = None, clock=time.monotonic):
        self.anubis = anubis
        self.fleet_index = {node.node_id: node for node in nodes}
        self.config = config or ServiceConfig()
        self.clock = clock
        self.queue = EventQueue()
        self.lifecycle = NodeLifecycle()
        self.damper = self.config.build_damper()
        self.pool = ValidationPool(self.config.pool,
                                   sanitizer=self.config.sanitizer)
        # One sanitization crossing per result: the validator's own
        # runner gets the service sanitizer unless it brought its own
        # (in which case the pool defers to it, see ValidationPool).
        if (self.config.sanitizer is not None
                and getattr(self.anubis.validator.runner, "sanitizer",
                            None) is None):
            self.anubis.validator.runner.sanitizer = self.config.sanitizer
        self.metrics = ServiceMetrics()
        self.tick_hook = None
        self.repair_hook = None
        #: Handoff payloads replayed from SHARD_HANDOFF records (the
        #: supervisor journals them while this shard is down), keyed
        #: by event id.  The supervisor reconciles these against
        #: sibling shards' :attr:`origins_seen` after a restart.
        self.handed_off: dict[int, dict] = {}
        #: Every ``(source_shard, source_event_id)`` handoff marker
        #: this service has durably accepted -- the dedupe set that
        #: makes handoff re-delivery idempotent.
        self.origins_seen: set[tuple[int, int]] = set()
        # Previous learning windows per (sku, benchmark, metric): the
        # shadow set guarded rollout scores candidates against.  Held
        # in memory only -- after a restart the first re-learn falls
        # back to the bootstrap self-consistency check.
        self._shadow_windows: dict[tuple[str, str, str], list] = {}
        # Per-benchmark count of breaker transitions already journaled.
        self._breaker_seen: dict[str, int] = {}
        self._completed_since_snapshot = 0
        self._completed_since_compaction = 0
        #: :func:`criteria_fingerprint` of the newest criteria snapshot
        #: this journal holds; ``None`` while it holds none.
        self._journaled_criteria: bytes | None = None
        #: The part of the selector's coverage table this journal's
        #: completed events built, benchmark -> defective node ids (the
        #: rest is the factory's), as a checkpoint carries it.
        self._coverage: dict[str, set[str]] = {}
        #: Seq of this journal's newest checkpoint (0: none yet).
        self._checkpoint_seq = 0
        #: :meth:`ServiceMetrics.unrecorded` as folding the journal
        #: restores them: the newest checkpoint's.
        self._unrecorded_base = self.metrics.unrecorded()
        #: An event was parked but its dead-letter record never reached
        #: the journal; checkpoints stop until a restart re-reads it.
        self._unrecorded_park = False
        self.store = (JournalStore(journal_dir,
                                   fsync=self.config.journal_fsync)
                      if journal_dir is not None else None)
        if self.store is not None:
            self._recover()
            if self._journaled_criteria is None:
                self._snapshot()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, event: ValidationEvent, *,
               origin: tuple[int, int] | None = None) -> QueuedEvent:
        """Queue one orchestration event, risk-prioritized.

        Repeat events for the same (kind, node set) coalesce into the
        already-pending entry.  Healthy nodes move to SCHEDULED.

        If the enqueue record cannot be journaled, the entry is rolled
        back out of the queue and the error re-raised: an event must
        never be accepted in memory only, or a restart would silently
        drop it.

        ``origin`` marks a cross-shard handoff delivery with the
        source's ``(shard_index, event_id)``; the marker is journaled
        inside the enqueue record and remembered in
        :attr:`origins_seen`, which is how handoff reconciliation
        tells a delivered event from one lost mid-handoff.

        With ``config.max_queue_depth`` set, a submit that leaves the
        queue over its bound sheds the lowest-risk pending entry
        (journaled as ``LOAD_SHED``); the shed victim may be the entry
        just created, which is then returned with ``shed`` set.
        """
        for node in event.nodes:
            if node.node_id not in self.fleet_index:
                raise ServiceError(
                    f"event references node {node.node_id!r} outside the "
                    f"service fleet")
        priority = self._priority(event)
        entry, created = self.queue.push(event, priority,
                                         enqueued_at=self.clock(),
                                         origin=origin)
        if created:
            try:
                self._journal(RecordKind.EVENT_ENQUEUED, entry.to_payload())
            except JournalError:
                self.queue.remove(entry)
                raise
            if entry.origin is not None:
                self.origins_seen.add(entry.origin)
            self.metrics.events_submitted += 1
            for node in event.nodes:
                if self.lifecycle.state(node.node_id) is NodeState.HEALTHY:
                    self._transition(node.node_id, NodeState.SCHEDULED,
                                     reason=f"event-{entry.event_id}")
            self._shed_for_admission()
        else:
            self.metrics.events_submitted += 1
            self.metrics.events_coalesced += 1
            payload = {
                "event_id": entry.event_id,
                "priority": entry.priority,
                "duration_hours": entry.event.duration_hours,
            }
            if origin is not None:
                # A handoff re-delivery that merged into an already
                # pending entry still counts as delivered; the marker
                # must be journaled or a restart would re-deliver.
                payload["origin"] = [int(origin[0]), int(origin[1])]
            self._journal(RecordKind.EVENT_COALESCED, payload)
            if origin is not None:
                self.origins_seen.add((int(origin[0]), int(origin[1])))
        return entry

    def schedule_periodic(self, statuses, *,
                          lookahead_hours: float = 24.0) -> QueuedEvent | None:
        """Enqueue one PERIODIC event for nodes due re-validation.

        Runs the Selector's regular-validation check (§3.1 step 1) over
        ``statuses`` and submits a single event covering every node
        whose predicted risk crossed p0.  Returns ``None`` when no
        node is due.
        """
        due = self.anubis.selector.nodes_due_for_regular_validation(
            list(statuses), lookahead_hours)
        due = [s for s in due
               if self.lifecycle.state(s.node_id) is NodeState.HEALTHY]
        if not due:
            return None
        event = ValidationEvent(
            kind=EventKind.PERIODIC,
            nodes=tuple(self.fleet_index[s.node_id] for s in due),
            statuses=tuple(due),
            duration_hours=lookahead_hours,
        )
        return self.submit(event)

    def _shed_for_admission(self) -> QueuedEvent | None:
        """Enforce ``max_queue_depth`` by shedding the lowest-risk entry.

        The shed is journaled *before* the victim's nodes are
        released, so a restart that replays the ``LOAD_SHED`` record
        drops the entry exactly like the running service did.  If the
        shed record itself cannot be journaled, the victim is
        re-queued (the queue rides over its bound until the journal
        heals) -- shedding in memory only would leave the event
        resurrected-on-restart yet unaccounted while running.
        """
        depth = self.config.max_queue_depth
        if depth is None or len(self.queue) <= depth:
            return None
        victim = self.queue.shed_lowest()
        if victim is None:
            return None
        shed_record = {
            "event_id": victim.event_id,
            "kind": victim.event.kind.value,
            "priority": victim.priority,
            "coalesced": victim.coalesced,
            "reason": "queue-full",
        }
        if not self._journal_best_effort(RecordKind.LOAD_SHED, shed_record):
            victim.shed = False
            self.queue.requeue(victim)
            return None
        self.metrics.events_shed += 1
        covered = {node.node_id
                   for pending in self.queue.pending()
                   for node in pending.event.nodes}
        for node in victim.event.nodes:
            if (node.node_id not in covered
                    and self.lifecycle.state(node.node_id)
                    is NodeState.SCHEDULED):
                self._transition_best_effort(node.node_id, NodeState.HEALTHY,
                                             reason="load-shed")
        return victim

    def _priority(self, event: ValidationEvent) -> float:
        if event.kind in FULL_VALIDATION_KINDS:
            return FULL_VALIDATION_PRIORITY
        if not event.statuses:
            return 0.0
        probs = self.anubis.selector.incident_probabilities(
            list(event.statuses), event.duration_hours)
        return float(probs.max()) if probs.size else 0.0

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------
    def tick(self) -> TickResult | None:
        """Advance repairs one stage, then process the riskiest event.

        Returns ``None`` when the queue was empty (repairs still
        advanced).  A processing failure does not propagate: the
        event's nodes are released, the event is re-queued (or
        dead-lettered after ``max_event_attempts``), and a ``failed``
        result is returned.  Only a simulated process kill
        (:class:`~repro.service.chaos.SimulatedKill`, a
        ``BaseException``) escapes, exactly like a real ``kill -9``
        would.
        """
        self.advance_repairs()
        entry = self.queue.pop()
        if entry is None:
            return None
        try:
            if self.tick_hook is not None:
                self.tick_hook(entry)
            return self._process(entry)
        except Exception as error:
            return self._fail_tick(entry, error)

    def _process(self, entry: QueuedEvent) -> TickResult:
        queue_latency = max(self.clock() - entry.enqueued_at, 0.0)
        event = entry.event

        eligible = []
        skipped_nodes = []
        for node in event.nodes:
            # HEALTHY is eligible too: an overlapping earlier event may
            # have validated the node and returned it to the pool while
            # this event sat queued.
            if self.lifecycle.state(node.node_id) in (NodeState.SCHEDULED,
                                                      NodeState.HEALTHY):
                eligible.append(node)
            else:
                # Node drifted into the repair pipeline while the event
                # was queued; validating it now would be illegal.
                skipped_nodes.append(node.node_id)

        plan = self.anubis.plan(event)
        validation_seconds = 0.0
        quarantined: list[str] = []
        short_circuited: list[str] = []
        if not plan.validates or not eligible:
            for node in eligible:
                if self.lifecycle.state(node.node_id) is NodeState.SCHEDULED:
                    self._transition(node.node_id, NodeState.HEALTHY,
                                     reason="selector-skip")
            outcome = ValidationOutcome(event=event, selection=plan.selection,
                                        report=None)
        else:
            for node in eligible:
                if self.lifecycle.state(node.node_id) is NodeState.HEALTHY:
                    self._transition(node.node_id, NodeState.SCHEDULED,
                                     reason=f"event-{entry.event_id}")
                self._transition(node.node_id, NodeState.VALIDATING,
                                 reason=f"event-{entry.event_id}")
            started = self.clock()
            report, sweeps = self.pool.validate(
                self.anubis.validator, eligible, plan.benchmarks)
            validation_seconds = max(self.clock() - started, 0.0)
            short_circuited = sorted({
                run.benchmark for sweep in sweeps
                for run in sweep.short_circuited_runs})
            self._record_coverage(report)
            self._journal_provenance(entry.event_id, sweeps)
            self._journal_breaker_transitions()
            outcome = ValidationOutcome(
                event=event, selection=plan.selection, report=report,
                defective_node_ids=report.defective_nodes,
            )
            defective = set(report.defective_nodes)
            for node in eligible:
                if node.node_id in defective:
                    self._transition(node.node_id, NodeState.QUARANTINED,
                                     reason=f"event-{entry.event_id}")
                    self.damper.record_quarantine(node.node_id)
                    quarantined.append(node.node_id)
                else:
                    self._transition(node.node_id, NodeState.HEALTHY,
                                     reason="validation-passed")

        completed = {
            "event_id": entry.event_id,
            "kind": event.kind.value,
            "duration_hours": event.duration_hours,
            "skipped": outcome.skipped,
            "validated_nodes": (list(outcome.report.validated_nodes)
                                if outcome.report else []),
            "benchmarks_run": (list(outcome.report.benchmarks_run)
                               if outcome.report else []),
            "violations": ([[v.node_id, v.benchmark, v.metric, v.reason,
                             v.sku]
                            for v in outcome.report.violations]
                           if outcome.report else []),
            "defective": list(outcome.defective_node_ids),
            "short_circuited": short_circuited,
            "queue_latency_seconds": queue_latency,
            "validation_seconds": validation_seconds,
        }
        self._journal(RecordKind.EVENT_COMPLETED, completed)
        # Counted from the record, once it is journaled: a refused
        # append fails the tick and the retry counts the event once.
        self.metrics.count_completed(completed)
        self.anubis.record(outcome)
        self._completed_since_snapshot += 1
        self._completed_since_compaction += 1
        if (self.config.compact_every is not None
                and self._completed_since_compaction
                >= self.config.compact_every):
            self.compact_journal()
        elif self._completed_since_snapshot >= self.config.snapshot_every:
            self._snapshot()
        self._checkpoint()
        return TickResult(
            event_id=entry.event_id,
            outcome=outcome,
            queue_latency_seconds=queue_latency,
            validation_seconds=validation_seconds,
            quarantined=quarantined,
            skipped_nodes=skipped_nodes,
        )

    def _fail_tick(self, entry: QueuedEvent, error: Exception) -> TickResult:
        """Contain one failed processing attempt.

        Releases the event's nodes (SCHEDULED/VALIDATING back to
        HEALTHY -- QUARANTINED nodes flagged before the failure keep
        their verdict), then re-queues the event or, once its attempts
        are exhausted, parks it in the dead-letter queue.  Journaling
        here is best-effort: the failure being handled may *be* a
        journal fault, and a lost record is healed by forced replay
        plus the recovery reset.
        """
        self.metrics.tick_failures += 1
        reason = f"{type(error).__name__}: {error}"
        for node in entry.event.nodes:
            if self.lifecycle.state(node.node_id) in (NodeState.SCHEDULED,
                                                      NodeState.VALIDATING):
                self._transition_best_effort(node.node_id, NodeState.HEALTHY,
                                             reason="tick-failed")
        entry.attempts += 1
        if entry.attempts >= self.config.max_event_attempts:
            letter = self.queue.dead_letter(entry, reason)
            self.metrics.events_dead_lettered += 1
            if not self._journal_best_effort(RecordKind.EVENT_DEAD_LETTERED,
                                             letter.to_payload()):
                # The journal still holds the event pending; a
                # checkpoint must not claim it parked.
                self._unrecorded_park = True
        else:
            self.queue.requeue(entry)
            self._journal_best_effort(RecordKind.EVENT_FAILED, {
                "event_id": entry.event_id,
                "attempts": entry.attempts,
                "error": reason,
            })
        return TickResult(
            event_id=entry.event_id,
            outcome=None,
            queue_latency_seconds=max(self.clock() - entry.enqueued_at, 0.0),
            validation_seconds=0.0,
            failed=True,
            error=reason,
        )

    def drain(self, *, max_ticks: int = 100_000) -> list[TickResult]:
        """Tick until the queue is empty and every repair completed.

        Dead-lettered events do not block draining -- that is the
        point of the dead-letter queue.
        """
        results: list[TickResult] = []
        for _ in range(max_ticks):
            result = self.tick()
            if result is not None:
                results.append(result)
                continue
            if not self.repairs_in_flight():
                return results
        raise ServiceError(f"drain did not converge in {max_ticks} ticks")

    def seal(self, *, reason: str = "drain",
             extra: dict | None = None) -> None:
        """Durably mark a clean shutdown of this service's journal.

        Appends a ``fabric-drain`` record carrying ``reason`` plus a
        small state digest, then fsyncs the journal tail, so (a) a
        journal whose final records include a drain is provably a
        clean shutdown, not a crash, and (b) nothing appended before
        the drain can be lost to the machine afterwards.  Safe to call
        on a journal-less (in-memory) service: nothing is written.
        Either way the pool's idle threads are released.
        """
        self.pool.close()
        if self.store is None:
            return
        payload = {
            "reason": reason,
            "pending": len(self.queue),
            "events_processed": self.metrics.events_processed,
            "dead_letters": len(self.queue.dead_letters()),
        }
        if extra:
            payload.update(extra)
        self._journal_best_effort(RecordKind.FABRIC_DRAIN, payload)
        self.store.sync()
        self.store.close()

    def dead_letters(self) -> list[DeadLetter]:
        """Parked poison events (inspection API)."""
        return self.queue.dead_letters()

    def repairs_in_flight(self) -> bool:
        """Whether any node is still in the repair pipeline."""
        return self.lifecycle.any_in(_REPAIR_STATES)

    def advance_repairs(self) -> None:
        """Advance the repair pipeline one stage without processing
        any event.

        The shard supervisor's cross-shard scheduler processes one
        event per supervisor tick (the globally riskiest); every
        *other* running shard with repairs in flight still gets its
        pipeline advanced through this, so quarantined nodes keep
        flowing back to HEALTHY regardless of which shard holds the
        riskiest work.
        """
        self.damper.tick()
        for current, target, reason in _REPAIR_PIPELINE:
            for node_id in self.lifecycle.nodes_in(current):
                if (current is NodeState.QUARANTINED
                        and not self.damper.ready(node_id)):
                    continue  # flap hold-down: stay quarantined
                if self.repair_hook is not None:
                    try:
                        self.repair_hook(node_id, target)
                    except Exception:
                        # Repair-stage failure: the node stays at its
                        # current stage and the advance retries next
                        # tick.
                        self.metrics.repair_failures += 1
                        continue
                self._transition_best_effort(node_id, target, reason=reason)

    # ------------------------------------------------------------------
    # Criteria management
    # ------------------------------------------------------------------
    def learn_criteria(self, nodes, benchmarks=None) -> list[RolloutDecision]:
        """Offline criteria learning with guarded rollout.

        Freshly learned criteria are *candidates*: with a rollout guard
        configured (``config.rollout``), each candidate is
        shadow-evaluated against the *previous* learning window
        (:func:`repro.quality.rollout.evaluate_rollout`) before it goes
        live -- scoring against the previous window is what catches
        coherent telemetry poisoning, where the new windows and the
        criteria learned from them agree perfectly with each other and
        with nothing else.  Without a previous window (first learn, or
        first re-learn after a restart) the candidate is checked for
        self-consistency against its own windows under the bootstrap
        eviction cap.

        A rejected candidate is rolled back to the previously active
        criteria -- the journal records the rollback, so a restart
        recovers the active criteria, never the poisoned candidate --
        and its windows are discarded (the shadow set keeps the last
        *trusted* window).  The post-learn snapshot captures only what
        survived the guard.  Returns the per-(benchmark, metric)
        decisions (empty without a guard).
        """
        validator = self.anubis.validator
        previous = dict(validator.criteria)
        windows = validator.learn_criteria(nodes, benchmarks)
        self._journal_learn(windows)
        decisions: list[RolloutDecision] = []
        if self.config.rollout is None:
            self._shadow_windows.update(windows)
        else:
            for key, current in windows.items():
                candidate = validator.criteria.get(key)
                if candidate is None:
                    continue
                learn_path = self._learn_path(key)
                prior = previous.get(key)
                shadow = self._shadow_windows.get(key)
                if prior is None or shadow is None:
                    decision = evaluate_rollout(
                        current, candidate.criteria, None,
                        alpha=candidate.alpha,
                        higher_is_better=candidate.higher_is_better,
                        config=self.config.rollout,
                        benchmark=key[1], metric=key[2], sku=key[0],
                        learn_path=learn_path)
                else:
                    decision = evaluate_rollout(
                        shadow, candidate.criteria, prior.criteria,
                        alpha=candidate.alpha,
                        higher_is_better=candidate.higher_is_better,
                        config=self.config.rollout,
                        benchmark=key[1], metric=key[2], sku=key[0],
                        learn_path=learn_path)
                decisions.append(decision)
                if decision.accepted:
                    self._shadow_windows[key] = current
                    continue
                if prior is not None:
                    validator.criteria[key] = prior
                else:
                    del validator.criteria[key]
                # Pin the next learn for this key to the exact path:
                # after a rejection the approximation does not get a
                # second try.
                validator.invalidate_criteria_state(key)
                self._journal_best_effort(RecordKind.CRITERIA_ROLLBACK, {
                    "sku": key[0],
                    "benchmark": key[1],
                    "metric": key[2],
                    "candidate_rate": decision.candidate_rate,
                    "baseline_rate": decision.baseline_rate,
                    "reason": decision.reason,
                    "learn_path": learn_path,
                })
        self._snapshot()
        return decisions

    def _learn_path(self, key: tuple[str, str, str]) -> str:
        """Engine path that produced the latest candidate for ``key``."""
        state = self.anubis.validator.criteria_states.get(key)
        return state.path if state is not None else ""

    def _journal_learn(self, windows) -> None:
        """Journal one compact record per learning pass (best-effort).

        Records each key's engine path and in-learn seconds, so the
        analytics plane can tell what each path costs.  Skipped
        entirely for classic exact-only learns (no engine path to
        report).
        """
        states = self.anubis.validator.criteria_states
        entries = [
            {"sku": key[0], "benchmark": key[1], "metric": key[2],
             "path": states[key].path,
             "seconds": states[key].seconds}
            for key in sorted(windows) if key in states
        ]
        if entries:
            self._journal_best_effort(RecordKind.CRITERIA_LEARN,
                                      {"learned": entries})

    def _snapshot(self) -> None:
        """Journal the criteria if they are not what the journal's
        newest snapshot holds.

        Called at start-up over a journal without a snapshot, after
        every learn and every ``snapshot_every`` completed events.  The
        comparison is by content, so a learn that changed nothing (or
        whose candidates were all rolled back) writes nothing, while a
        key replaced or an array edited out-of-band is journaled at
        the next call.
        """
        if self.store is None:
            return
        validator = self.anubis.validator
        if not validator.criteria:
            return
        fingerprint = criteria_fingerprint(validator.criteria)
        if fingerprint != self._journaled_criteria:
            self.store.append(RecordKind.CRITERIA_SNAPSHOT,
                              criteria_payload(validator))
            self._journaled_criteria = fingerprint
        # Snapshot moments double as the cadence for journaling the
        # measurement spine's stage counters (analytics reads these;
        # recovery ignores them), so the read path sees pipeline cost
        # without a per-event record.
        self._journal_best_effort(RecordKind.PIPELINE_STATS,
                                  {"stages": self.anubis.pipeline_stats()})
        self._completed_since_snapshot = 0

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def compact_journal(self) -> int:
        """Rewrite the journal as a checkpoint of live state.

        The replacement journal holds the newest criteria snapshot, a
        ``pipeline-stats`` record and one ``checkpoint`` -- so its size
        tracks live state, not uptime.  Returns the number of records
        written (0 without a store).
        """
        if self.store is None:
            return 0
        records: list[tuple[str, dict]] = []
        validator = self.anubis.validator
        state = self.journal_state()
        state.criteria = None
        if validator.criteria:
            records.append((RecordKind.CRITERIA_SNAPSHOT,
                            criteria_payload(validator)))
            state.criteria = criteria_fingerprint(validator.criteria)
        records.append((RecordKind.PIPELINE_STATS,
                        {"stages": self.anubis.pipeline_stats()}))
        # No record precedes this checkpoint, so the fold restores the
        # unrecorded counters to the values it carries: the live ones.
        state.metrics = self.metrics
        records.append((RecordKind.CHECKPOINT, state.to_payload()))
        count = self.store.rewrite(records)
        self._checkpoint_seq = count      # the checkpoint is the last record
        self.metrics.journal_compactions += 1
        self._journaled_criteria = state.criteria
        self._unrecorded_base = self.metrics.unrecorded()
        self._unrecorded_park = False     # the checkpoint holds every park
        self._completed_since_snapshot = 0
        self._completed_since_compaction = 0
        return count

    def journal_state(self) -> JournalState:
        """The live state as folding the journal would give it (the
        counters no record moves at their folded values): a checkpoint's
        payload, and a live shard's answer to the supervisor."""
        return JournalState(
            pending={entry.event_id: {"event": entry.event.to_payload(),
                                      "priority": entry.priority,
                                      "attempts": entry.attempts,
                                      "origin": entry.origin}
                     for entry in self.queue.pending()},
            origins_seen=self.origins_seen,
            handed_off=self.handed_off,
            last_event_id=self.queue.last_event_id,
            states=self.lifecycle.states(),
            flap_counts=self.damper.flap_counts(),
            dead_letters=[letter.to_payload()
                          for letter in self.queue.dead_letters()],
            metrics=replace(self.metrics, **self._unrecorded_base),
            coverage=self._coverage,
            criteria=self._journaled_criteria)

    def _checkpoint(self) -> None:
        """Append a checkpoint once :data:`CHECKPOINT_EVERY` records
        follow the previous one (best-effort: a lost checkpoint costs
        only recovery time)."""
        store = self.store
        if (store is None or self._unrecorded_park
                or store.next_seq - self._checkpoint_seq <= CHECKPOINT_EVERY):
            return
        try:
            self._checkpoint_seq = store.append(
                RecordKind.CHECKPOINT, self.journal_state().to_payload())
        except JournalError:
            pass

    def _journal(self, kind: str, payload: dict) -> None:
        if self.store is not None:
            self.store.append(kind, payload)

    def _journal_best_effort(self, kind: str, payload: dict) -> bool:
        """Journal if possible; a write fault must not mask the
        failure currently being handled."""
        try:
            self._journal(kind, payload)
            return True
        except JournalError:
            return False

    def _journal_provenance(self, event_id: int, sweeps) -> None:
        """Journal one compact sanitization-provenance summary.

        Aggregates the per-window provenance flags of everything the
        sweeps measured into one record per event, keyed by
        (sku, benchmark, metric) -- the slice the analytics
        sanitization reducer reports on.  Best-effort: observability
        records must never fail a tick that already validated
        successfully.
        """
        provenance: dict[tuple[str, str, str], dict] = {}
        for sweep in sweeps:
            for run in sweep.runs:
                if run.result is None:
                    continue
                for window in run.result.windows:
                    key = (window.sku, window.benchmark, window.metric)
                    entry = provenance.setdefault(key, {
                        "windows": 0, "sanitized": 0, "quarantined": 0,
                        "faults": {}})
                    entry["windows"] += 1
                    entry["sanitized"] += int(window.sanitized)
                    entry["quarantined"] += int(window.quarantined)
                    for fault in window.faults:
                        entry["faults"][fault] = \
                            entry["faults"].get(fault, 0) + 1
        if not provenance:
            return
        self._journal_best_effort(RecordKind.BATCH_PROVENANCE, {
            "event_id": event_id,
            "provenance": [
                {"sku": sku, "benchmark": benchmark, "metric": metric,
                 **entry}
                for (sku, benchmark, metric), entry
                in sorted(provenance.items())
            ],
        })

    def _journal_breaker_transitions(self) -> None:
        """Journal breaker state changes since the last sweep.

        The pool accumulates each breaker's transition history
        in-process; this diffs against the per-benchmark high-water
        mark so every transition is journaled exactly once.
        Best-effort, like all observability records.
        """
        for benchmark in sorted(self.pool.breakers):
            transitions = self.pool.breakers[benchmark].transitions
            seen = self._breaker_seen.get(benchmark, 0)
            for transition in transitions[seen:]:
                self._journal_best_effort(RecordKind.BREAKER_TRANSITION, {
                    "benchmark": transition.benchmark,
                    "old": transition.old.value,
                    "new": transition.new.value,
                    "reason": transition.reason,
                })
            self._breaker_seen[benchmark] = len(transitions)

    def _transition(self, node_id: str, new: NodeState, *,
                    reason: str = "") -> None:
        applied = self.lifecycle.transition(node_id, new, reason=reason)
        node = self.fleet_index.get(node_id)
        self._journal(RecordKind.TRANSITION, {
            "node_id": node_id,
            "sku": node.sku if node is not None else "unknown",
            "old": applied.old.value,
            "new": applied.new.value,
            "reason": reason,
        })

    def _transition_best_effort(self, node_id: str, new: NodeState, *,
                                reason: str = "") -> None:
        """Apply a transition whose journal record may be sacrificed.

        Used on failure-handling paths: the in-memory state must
        advance even when the journal is refusing writes.  A lost
        record leaves a gap that recovery crosses by installing states
        unchecked, plus the stranded-node reset.
        """
        try:
            self._transition(node_id, new, reason=reason)
        except JournalError:
            pass

    def _recover(self) -> None:
        """Rebuild queue, lifecycle, criteria and coverage from disk.

        Folds the journal from its newest valid checkpoint on (from its
        first line when it holds none) into a :class:`JournalState`,
        installs it, and heals the nodes a crash stranded: recovery
        from a checkpoint and from the first line take the same path.
        """
        offset = self.store.checkpoint_offset()
        records = self.store.replay(offset=offset)
        self._checkpoint_seq = records[0].seq if offset else 0
        self._install(JournalState.fold(records), offset)
        self._reset_interrupted_nodes()

    def _install(self, state: JournalState, offset: int) -> None:
        """Take on ``state``, folded from the journal at ``offset``."""
        self.lifecycle.restore(state.states)
        self.damper.restore(state.flap_counts)
        self.metrics = state.metrics
        self._unrecorded_base = state.metrics.unrecorded()
        for letter in state.dead_letters:
            self.queue.dead_letter(
                QueuedEvent.from_payload(letter, self.fleet_index),
                letter["reason"])
        for event_id in sorted(state.pending):
            info = state.pending[event_id]
            event = ValidationEvent.from_payload(info["event"],
                                                 self.fleet_index)
            entry, _created = self.queue.push(
                event, info["priority"], event_id=event_id,
                enqueued_at=self.clock(), origin=info["origin"])
            entry.attempts = info["attempts"]
        self.queue.reserve_ids(state.last_event_id)
        self.handed_off = state.handed_off
        self.origins_seen = state.origins_seen
        for benchmark, node_ids in state.coverage.items():
            self.anubis.selector.coverage.record(benchmark, node_ids)
        self._coverage = state.coverage
        self._restore_criteria(state, offset)

    def _restore_criteria(self, state: JournalState, offset: int) -> None:
        """Install the journal's newest criteria snapshot: the one the
        fold met, else the one before the checkpoint at ``offset`` whose
        fingerprint the checkpoint carries -- unless that is what the
        service was built with, which needs no build."""
        validator = self.anubis.validator
        snapshot = state.criteria_snapshot
        if snapshot is None and state.criteria is not None:
            if state.criteria == criteria_fingerprint(validator.criteria):
                self._journaled_criteria = state.criteria
                return
            found = self.store.find_last(RecordKind.CRITERIA_SNAPSHOT,
                                         before=offset)
            snapshot = None if found is None else found[0].payload
        if snapshot is not None:
            restored = criteria_from_payload(
                validator, snapshot, source=str(self.store.path))
            validator.criteria.update(restored)
            self._journaled_criteria = criteria_fingerprint(restored)

    def _reset_interrupted_nodes(self) -> None:
        """Heal nodes stranded by a mid-tick crash.

        A node left VALIDATING has no durably-recorded verdict -- the
        process died mid-validation -- so it returns to the healthy
        pool and will be re-validated when its (still pending) event
        is re-ticked.  A node left SCHEDULED with no pending event
        covering it would otherwise sit in SCHEDULED forever.
        """
        covered = {node.node_id
                   for entry in self.queue.pending()
                   for node in entry.event.nodes}
        for node_id in list(self.lifecycle.nodes_in(NodeState.VALIDATING)):
            self._transition_best_effort(node_id, NodeState.HEALTHY,
                                         reason="crash-recovery")
        for node_id in list(self.lifecycle.nodes_in(NodeState.SCHEDULED)):
            if node_id not in covered:
                self._transition_best_effort(node_id, NodeState.HEALTHY,
                                             reason="crash-recovery")
        for node_id, state in self.lifecycle.states().items():
            if state is NodeState.QUARANTINED:
                # Conservative: serve the full hold-down again rather
                # than guess how much elapsed before the crash.
                self.damper.arm(node_id)
            else:
                self.damper.release(node_id)

    def _record_coverage(self, report: ValidationReport) -> None:
        """Fold one validation into the selector's coverage history,
        keeping this journal's share of the table for checkpoints."""
        self.anubis.selector.record_validation(report)
        for benchmark in report.benchmarks_run:
            self._coverage.setdefault(benchmark, set())
        for benchmark, node_ids in report.violations_by_benchmark().items():
            self._coverage.setdefault(benchmark, set()).update(node_ids)
