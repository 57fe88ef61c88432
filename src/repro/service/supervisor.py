"""The supervised shard fabric: one supervision state machine.

:class:`Supervisor` is the parent of one shard per ring member and
enforces the fabric's robustness contracts over a narrow
:class:`~repro.service.shard.ShardTransport`; it never asks *how* a
shard is reached.  :class:`ShardSupervisor` runs every shard's control
plane in this thread; :class:`~repro.service.procfabric.ProcessFabric`
puts each in its own OS process behind a pipe.  The two differ in
construction and shutdown only.

**Liveness (watchdog + restart-with-backoff).**  Every round samples
each running shard once (``status``; a sample the transport had to
ask the shard for is journaled there as its heartbeat).  A transport
fault -- a crashed shard, a dead PID, a missed RPC deadline -- is
conclusive; otherwise the stall watchdog (``watchdog_stall_ticks``)
decides.  Either way the shard is made provably dead and restarted
after an exponential backoff.  Restarting *is* the kill-safe journal
recovery: a fresh incarnation replays the shard's own journal.

**Containment (degradation + journaled handoff).**  A shard that
exhausts ``max_shard_restarts`` is escalated to ``DEGRADED``: out of
rotation, its pending events failed over to live siblings.  Each
failover is two durable writes -- a ``shard-handoff`` record in the
source journal, then the sibling's ``event-enqueued`` record carrying
an ``origin`` marker -- and a crash between the two is healed by
:meth:`Supervisor.reconcile_handoffs`.  The event is neither dropped
nor duplicated at any kill point.

**Exactly-once delivery.**  A part that carries an origin and cannot
be handed to its shard right now is parked under that origin and
retried every round; shards dedupe against the origins they have
durably accepted, so retrying a delivery whose ACK was lost is
harmless.  Failover re-delivers under the entry's *original* origin
when it has one, so every path that could re-deliver a part shares
one dedupe key.

**Global risk ordering.**  Each round processes one event: the
highest-priority queue head across all responsive shards.  Shards
with repairs in flight still advance their repair pipeline, so
quarantined nodes flow back to HEALTHY wherever the riskiest work
sits.

A :class:`~repro.service.chaos.ShardCrash` raised inside an in-thread
shard is caught *here*, at the shard boundary; a plain
:class:`~repro.service.chaos.SimulatedKill` -- the whole process
dying -- passes through untouched.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.core.system import ValidationEvent
from repro.exceptions import JournalError, ServiceError
from repro.service.chaos import ShardCrash
from repro.service.controlplane import ServiceConfig
from repro.service.queue import as_origin
from repro.service.shard import (
    HashRing,
    Shard,
    ShardState,
    ShardTransport,
    TransportFault,
)
from repro.service.store import RecordKind

__all__ = ["SupervisorConfig", "SupervisorMetrics", "Supervisor",
           "ShardSupervisor", "PARENT_ORIGIN", "PARKED"]

#: Origin "shard index" the supervisor stamps on its own deliveries.
#: A real shard can never be negative, so parent origins and failover
#: origins share one dedupe namespace without colliding.
PARENT_ORIGIN = -1

#: What :meth:`Supervisor.submit` reports for a part it could not hand
#: to its shard yet: parked, and delivered by a later round.
PARKED = {"queued": True}

#: How a shard's death surfaces at the transport boundary.
_FAULTS = (TransportFault, ShardCrash)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision-tree knobs.

    Attributes
    ----------
    shard_count / virtual_nodes:
        Ring geometry (see :class:`~repro.service.shard.HashRing`).
        Both must stay stable across restarts of the same journal
        root, or recovered journals would be read under the wrong
        ownership.
    watchdog_stall_ticks:
        Consecutive supervision rounds in which the scheduler
        *attempted* a shard holding pending work and its next liveness
        sample showed no progress -- or in which its heartbeat never
        arrived -- before the watchdog declares it unhealthy.  A
        transport fault (a crash, a dead PID, a missed RPC deadline)
        does not wait for this: it is conclusive at once.
    restart_backoff_base_ticks / restart_backoff_multiplier /
    restart_backoff_max_ticks:
        Exponential restart backoff, in supervisor ticks: the K-th
        restart waits ``base * multiplier**(K-1)`` ticks, capped.
    max_shard_restarts:
        Restarts a shard may consume before escalation to DEGRADED
        (pending work handed off, new work routed around it).
    restart_forgive_after_ticks:
        Progress-making rounds since its last restart after which a
        shard's restart budget refills -- a transient storm should
        not permanently count against a shard that has long since
        recovered.  ``None`` never forgives.
    sku_affinity:
        Route by the node's hardware class instead of its id: every
        node of one SKU lands on the same shard, criteria learning
        for a namespace stays within one failure domain, and a
        failover moves a whole SKU to one live sibling instead of
        scattering it.  Like the ring geometry, this must stay stable
        across restarts of the same journal root.
    service:
        The per-shard :class:`~repro.service.controlplane.ServiceConfig`
        (one config, applied to every shard).
    """

    shard_count: int = 4
    virtual_nodes: int = 64
    sku_affinity: bool = False
    watchdog_stall_ticks: int = 3
    restart_backoff_base_ticks: int = 1
    restart_backoff_multiplier: float = 2.0
    restart_backoff_max_ticks: int = 16
    max_shard_restarts: int = 3
    restart_forgive_after_ticks: int | None = None
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self):
        if self.shard_count < 1:
            raise ServiceError("shard_count must be at least 1")
        if self.virtual_nodes < 1:
            raise ServiceError("virtual_nodes must be at least 1")
        if self.watchdog_stall_ticks < 1:
            raise ServiceError("watchdog_stall_ticks must be at least 1")
        if self.restart_backoff_base_ticks < 1:
            raise ServiceError("restart_backoff_base_ticks must be at least 1")
        if self.restart_backoff_multiplier < 1.0:
            raise ServiceError("restart_backoff_multiplier must be >= 1")
        if self.restart_backoff_max_ticks < self.restart_backoff_base_ticks:
            raise ServiceError(
                "restart_backoff_max_ticks must be >= the base")
        if self.max_shard_restarts < 1:
            raise ServiceError("max_shard_restarts must be at least 1")
        if (self.restart_forgive_after_ticks is not None
                and self.restart_forgive_after_ticks < 1):
            raise ServiceError(
                "restart_forgive_after_ticks must be at least 1")

    def backoff_ticks(self, restarts: int) -> int:
        """Ticks to wait before restart number ``restarts + 1``."""
        ticks = (self.restart_backoff_base_ticks
                 * self.restart_backoff_multiplier ** max(restarts, 0))
        return max(1, min(int(ticks), self.restart_backoff_max_ticks))


@dataclass
class SupervisorMetrics:
    """What the supervision tree has done so far."""

    shard_restarts: int = 0
    #: Transport faults observed on a running shard (crashes, dead
    #: PIDs, missed deadlines); ``rpc_timeouts`` is the hang subset.
    shard_crashes: int = 0
    rpc_timeouts: int = 0
    watchdog_trips: int = 0
    heartbeats_lost: int = 0
    shards_degraded: int = 0
    events_failed_over: int = 0
    handoffs_reconciled: int = 0
    deliveries_deduped: int = 0

    def summary(self) -> dict:
        return dataclasses.asdict(self)


def _handoff_origin(source: int, payload: dict) -> tuple[int, int]:
    """The dedupe key a handed-off entry is (re-)delivered under: its
    own origin when it was itself delivered under one, else the
    identity it had on the shard it left."""
    origin = payload.get("origin")
    if origin is not None:
        return as_origin(origin)
    return (source, int(payload["event_id"]))


class Supervisor:
    """Drive one shard fabric: route, schedule, watch, restart, shed.

    Subclasses build ``self.transports`` (one
    :class:`~repro.service.shard.ShardTransport` per ring member, in
    index order) and then call :meth:`reconcile_handoffs` -- the
    previous incarnation may have died between a handoff record and
    its delivery.

    Attributes
    ----------
    tick_filter:
        Optional ``(transport) -> bool`` chaos seam: returning False
        means the shard is unresponsive this round (a hang) -- its
        tick simply never executes, and only the watchdog's stall
        detection can recover it.
    heartbeat_filter:
        Optional ``(transport) -> bool`` chaos seam: returning False
        drops this round's liveness sample; the supervisor cannot tell
        a lost heartbeat from a dead shard, so it conservatively
        counts it as a stalled round and schedules nothing there.
    on_restart:
        Optional ``(transport) -> None`` called after a shard restarts
        -- the seam chaos uses to re-arm fault injection on the
        replacement.
    """

    def __init__(self, config: SupervisorConfig, sku_index: dict[str, str]):
        self.config = config
        self.ring = HashRing(config.shard_count,
                             virtual_nodes=config.virtual_nodes)
        #: node id -> hardware class, as the shards know the fleet.
        self._sku_index = sku_index
        self.transports: list[ShardTransport] = []
        self.tick_index = 0
        self.metrics = SupervisorMetrics()
        #: Undelivered event parts: origin -> {"target", "event"}.
        self._undelivered: dict[tuple[int, int], dict] = {}
        self._origin_seq = 0
        #: Shards the scheduler tried to tick in the previous round.
        self._attempted: set[int] = set()
        self.tick_filter = None
        self.heartbeat_filter = None
        self.on_restart = None

    # ------------------------------------------------------------------
    # Routing / ingest
    # ------------------------------------------------------------------
    def _alive(self) -> set[int]:
        """Shards whose journals still accept work (not DEGRADED).

        RESTARTING shards stay in the set: ownership must be stable
        across a bounded outage, so their parts wait for the restart
        rather than migrating to a sibling.
        """
        return {transport.index for transport in self.transports
                if transport.state is not ShardState.DEGRADED}

    def _routing_key(self, node_id: str) -> str:
        """What the ring hashes for this node: its id, or -- under
        ``sku_affinity`` -- its hardware class, so one SKU's nodes
        co-locate and fail over together."""
        if not self.config.sku_affinity:
            return node_id
        return self._sku_index.get(node_id, "unknown")

    def _owner(self, part: dict, alive: set[int]) -> int:
        """The live shard a whole part belongs to (failover, parked
        retries): where the ring puts its first node."""
        return self.ring.owner(self._routing_key(min(part["nodes"])),
                               alive=alive)

    def route(self, node_id: str) -> int:
        """The shard responsible for ``node_id`` right now.

        The ring owner, unless that shard is degraded -- then the
        node falls through the ring to its first live successor.
        """
        return self.ring.owner(self._routing_key(node_id),
                               alive=self._alive())

    def submit(self, event: ValidationEvent) -> dict:
        """Split one event along shard ownership and deliver each part.

        Returns the shard's receipt per shard index (:data:`PARKED`
        for a part owed to a temporarily dead shard).  Splitting is
        the isolation boundary at work: an event spanning many shards
        becomes independent per-shard events, so one shard's failure
        cannot hold another shard's nodes hostage.
        """
        groups: dict[int, list] = {}
        for node in event.nodes:
            groups.setdefault(self.route(node.node_id), []).append(node)
        statuses = {status.node_id: status for status in event.statuses}
        accepted = {}
        for index in sorted(groups):
            nodes = tuple(groups[index])
            part = ValidationEvent(
                kind=event.kind,
                nodes=nodes,
                statuses=tuple(statuses[node.node_id] for node in nodes
                               if node.node_id in statuses),
                duration_hours=event.duration_hours,
            )
            transport = self.transports[index]
            if transport.ack_can_be_lost:
                self._origin_seq += 1
                accepted[index] = self._deliver(
                    index, part.to_payload(),
                    (PARENT_ORIGIN, self._origin_seq))
            else:
                # No ACK to lose: nothing to dedupe a retry by and no
                # reason to park, so the part is accepted now or
                # refused to the submitter's face -- and costs its
                # journal no origin.
                accepted[index] = transport.accept(part)
        return accepted

    def _deliver(self, target: int, part: dict, origin: tuple[int, int]):
        """Deliver one part; park it under its origin on failure.

        Returns the shard's receipt (``None`` when the shard had
        already accepted this origin), or :data:`PARKED`.
        """
        transport = self.transports[target]
        if transport.state is ShardState.RUNNING:
            try:
                receipt = transport.deliver(part, origin)
            except _FAULTS as fault:
                self._note_fault(transport, fault)
            except JournalError:
                pass  # refused: durable acceptance or nothing
            else:
                if receipt is None:
                    self.metrics.deliveries_deduped += 1
                self._undelivered.pop(origin, None)
                return receipt
        self._undelivered[origin] = {"target": target, "event": part}
        return PARKED

    def _retry_undelivered(self) -> None:
        if not self._undelivered:
            return
        alive = self._alive()
        for origin in list(self._undelivered):
            info = self._undelivered.get(origin)
            if info is None:
                continue  # un-parked by a failover earlier in this loop
            if info["target"] not in alive:
                # Owner degraded for good: fall through the ring.
                info["target"] = self._owner(info["event"], alive)
            if self.transports[info["target"]].state is ShardState.RUNNING:
                self._deliver(info["target"], info["event"], origin)

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def tick(self) -> list:
        """One supervision round.

        Fires due restarts, samples every running shard (and runs the
        stall watchdog on the sample), processes the globally
        riskiest pending event on the highest-priority *responsive*
        shard, advances the repair pipeline wherever else repairs are
        in flight, then retries parked deliveries.
        """
        self.tick_index += 1
        for transport in self.transports:
            if (transport.state is ShardState.RESTARTING
                    and transport.restart_due_tick is not None
                    and self.tick_index >= transport.restart_due_tick):
                self._restart(transport)
        statuses = {}
        for transport in self.transports:
            if transport.state is ShardState.RUNNING:
                status = self._sample(transport)
                if status is not None:
                    statuses[transport.index] = status
        heads = sorted((-status.head_priority, index)
                       for index, status in statuses.items()
                       if status.head_priority is not None)
        results = []
        ticked = None
        attempted: set[int] = set()
        for _priority, index in heads:
            transport = self.transports[index]
            if transport.state is not ShardState.RUNNING:
                continue  # lost to a sibling's failover since its sample
            attempted.add(index)
            if self.tick_filter is not None and not self.tick_filter(transport):
                continue  # hung: the tick never executes; watchdog's job
            try:
                result = transport.tick()
            except _FAULTS as fault:
                # The shard died; the supervisor did not.  Its journal
                # is intact up to the crash point, so a restart
                # recovers everything durably accepted.
                self._note_fault(transport, fault)
                continue
            ticked = index
            if result is not None:
                results.append(result)
            break
        self._attempted = attempted
        for index, status in statuses.items():
            transport = self.transports[index]
            if (index != ticked and status.repairs_in_flight
                    and transport.state is ShardState.RUNNING):
                try:
                    transport.advance_repairs()
                except _FAULTS as fault:
                    self._note_fault(transport, fault)
        self._retry_undelivered()
        return results

    def _sample(self, transport: ShardTransport):
        """Take one shard's heartbeat and run the stall watchdog.

        Returns the sample, or ``None`` when the shard gave no usable
        signal this round (lost heartbeat, fault, watchdog trip).  A
        shard is only blamed for lack of progress over rounds where
        the scheduler actually *attempted* it -- a shard whose pending
        work simply lost the cross-shard priority race is waiting,
        not hung.
        """
        status = None
        if (self.heartbeat_filter is not None
                and not self.heartbeat_filter(transport)):
            self.metrics.heartbeats_lost += 1
            transport.stalled_ticks += 1
        else:
            try:
                status = transport.status(self.tick_index)
            except _FAULTS as fault:
                self._note_fault(transport, fault)
                return None
            # No baseline (first sample of an incarnation): no verdict.
            baseline = transport.last_progress
            progressed = baseline is not None and status.progress > baseline
            if progressed or status.queue_depth == 0:
                transport.stalled_ticks = 0
            elif baseline is not None and transport.index in self._attempted:
                transport.stalled_ticks += 1
            if progressed:
                transport.progress_ticks += 1
                forgive = self.config.restart_forgive_after_ticks
                if forgive is not None and transport.progress_ticks >= forgive:
                    transport.restarts = 0
                    transport.progress_ticks = 0
            transport.last_progress = status.progress
        if transport.stalled_ticks >= self.config.watchdog_stall_ticks:
            self.metrics.watchdog_trips += 1
            self._declare_unhealthy(transport, reason="watchdog-stall")
            return None
        return status

    # ------------------------------------------------------------------
    # Restart / degrade / failover
    # ------------------------------------------------------------------
    def _note_fault(self, transport: ShardTransport, fault) -> None:
        """One fault is conclusive either way: a crash or a dead pipe
        means the shard is gone, and a single missed deadline leaves a
        request/response channel desynchronized, so the shard could
        not be spoken to again even if it woke up."""
        if transport.state is not ShardState.RUNNING:
            return
        self.metrics.shard_crashes += 1
        if getattr(fault, "timed_out", False):
            self.metrics.rpc_timeouts += 1
        self._declare_unhealthy(transport, reason=f"crash: {fault}")

    def _declare_unhealthy(self, transport: ShardTransport, *,
                           reason: str) -> None:
        if transport.state is not ShardState.RUNNING:
            return
        transport.ensure_dead()
        if transport.restarts >= self.config.max_shard_restarts:
            self._degrade(transport, reason=reason)
            return
        transport.state = ShardState.RESTARTING
        transport.restart_due_tick = (
            self.tick_index + self.config.backoff_ticks(transport.restarts))
        transport.stalled_ticks = 0

    def _restart(self, transport: ShardTransport) -> None:
        transport.restarts += 1
        try:
            transport.restart(self.tick_index)
        except _FAULTS as fault:
            # The replacement died before it was ready: that spends
            # the restart just charged, and backs off again.
            transport.state = ShardState.RUNNING
            self._note_fault(transport, fault)
            return
        transport.state = ShardState.RUNNING
        transport.restart_due_tick = None
        transport.stalled_ticks = 0
        transport.progress_ticks = 0
        transport.last_progress = None
        self.metrics.shard_restarts += 1
        if self.on_restart is not None:
            self.on_restart(transport)
        # The shard may have recovered handoff state, or a sibling's
        # delivery may have been lost with the old incarnation.
        self.reconcile_handoffs()

    def _degrade(self, transport: ShardTransport, *, reason: str) -> None:
        """Write the shard off and hand its pending events to live
        siblings.

        Per entry, riskiest first: journal ``shard-handoff`` in the
        *source* journal, then deliver to the target under the entry's
        handoff origin.  If the source journal refuses a handoff
        record, that entry stays pending on the degraded shard --
        still durable, still accounted for, re-deliverable by a later
        full restart.
        """
        transport.state = ShardState.DEGRADED
        self.metrics.shards_degraded += 1
        # Read before the first append: a dead shard's journal is read
        # once, and that read is also what numbers the records below.
        try:
            state = transport.queue_state()
        except JournalError:
            state = None
        try:
            transport.append(RecordKind.SHARD_DEGRADED, {
                "shard": transport.index,
                "tick": self.tick_index,
                "restarts": transport.restarts,
                "reason": reason,
            })
        except (JournalError, ShardCrash):
            pass  # observability; the shard is being written off anyway
        alive = self._alive()
        if not alive:
            raise ServiceError(
                "every shard degraded; no failover target remains")
        if state is None:
            return  # unreadable: whatever is pending stays journaled there
        # Every origin this shard durably accepted is a delivery that
        # DID land -- only its ACK was lost.  Un-park those now, or
        # the retry would re-route them to a sibling under one origin
        # while the failover below delivers the same event under
        # another path.
        for origin in [origin for origin in self._undelivered
                       if origin in state.origins_seen]:
            del self._undelivered[origin]
        for event_id, info in sorted(
                state.pending.items(),
                key=lambda item: (-item[1]["priority"], item[0])):
            target = self._owner(info["event"], alive)
            payload = {
                "event_id": event_id,
                "event": info["event"],
                "priority": info["priority"],
                "attempts": info["attempts"],
                "to_shard": target,
            }
            if info["origin"] is not None:
                payload["origin"] = list(info["origin"])
            try:
                transport.append(RecordKind.SHARD_HANDOFF, payload)
            except (JournalError, ShardCrash):
                continue
            self.metrics.events_failed_over += 1
            self._deliver(target, info["event"],
                          _handoff_origin(transport.index, payload))

    def reconcile_handoffs(self) -> int:
        """Re-deliver journaled handoffs that never reached a sibling.

        For every ``shard-handoff`` record whose handoff origin
        appears in no *other* shard's accepted-origin set, deliver the
        event to its target (or, if the target is gone, to the part's live
        ring successor).  The origin set makes this idempotent: a
        handoff delivered just before a crash is recognized and
        skipped, one lost mid-flight is re-delivered exactly once.
        Returns the number re-delivered.
        """
        alive = self._alive()
        if not alive:
            return 0
        seen: dict[int, set] = {}
        handed: list[tuple[int, dict]] = []
        for transport in self.transports:
            try:
                state = transport.queue_state()
            except _FAULTS as fault:
                self._note_fault(transport, fault)
                continue
            except JournalError:
                continue
            seen[transport.index] = state.origins_seen
            handed.extend((transport.index, state.handed_off[event_id])
                          for event_id in sorted(state.handed_off))
        # Parent origins must stay unique across supervisor restarts
        # over the same journals: resume after the highest one seen.
        self._origin_seq = max(
            [self._origin_seq, *(sequence for origins in seen.values()
                                 for source, sequence in origins
                                 if source == PARENT_ORIGIN)])
        landed: set[tuple[int, int]] = set()
        for source, payload in handed:
            origin = _handoff_origin(source, payload)
            # The source itself accepted the entry under this origin
            # when it had one; only a *sibling* having seen it proves
            # the handoff landed.
            if origin in landed or any(
                    origin in origins for index, origins in seen.items()
                    if index != source):
                continue
            target = int(payload.get("to_shard", -1))
            if target not in alive:
                target = self._owner(payload["event"], alive)
            if self._deliver(target, payload["event"], origin) is not PARKED:
                landed.add(origin)
                self.metrics.handoffs_reconciled += 1
        return len(landed)

    # ------------------------------------------------------------------
    # Draining and reporting
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No pending work, repairs, parked parts or scheduled
        restarts anywhere.

        A degraded shard's leftovers (handoff blocked by a broken
        journal) do not block quiescence -- they are durable and
        re-deliverable, and the shard is out of rotation.
        """
        if self._undelivered:
            return False
        for transport in self.transports:
            if transport.state is ShardState.RESTARTING:
                return False
            if transport.state is ShardState.DEGRADED:
                continue
            try:
                status = transport.status()
            except _FAULTS as fault:
                self._note_fault(transport, fault)
                return False
            if status.queue_depth > 0 or status.repairs_in_flight:
                return False
        return True

    def drain(self, *, max_ticks: int = 100_000) -> list:
        """Tick until the whole fabric is quiescent."""
        results = []
        for _ in range(max_ticks):
            results.extend(self.tick())
            if self.quiescent():
                return results
        raise ServiceError(
            f"supervisor drain did not converge in {max_ticks} ticks")

    def seal(self, *, reason: str = "drain") -> dict[int, bool]:
        """Durably mark a clean shutdown of every non-degraded shard.

        Each shard appends a ``fabric-drain`` record to its journal
        and fsyncs the tail (see
        :meth:`~repro.service.controlplane.ValidationService.seal`),
        so ``repro report`` can tell this shutdown from a crash and no
        unsynced record can be lost after the supervisor exits.
        Best-effort per shard: one refusing journal must not block the
        others' clean shutdown.  Returns, per shard index, whether
        the shard confirmed its seal.
        """
        sealed = {}
        for transport in self.transports:
            sealed[transport.index] = False
            if transport.state is ShardState.DEGRADED:
                continue
            try:
                sealed[transport.index] = transport.seal(reason,
                                                         self.tick_index)
            except (JournalError, *_FAULTS):
                continue
        return sealed

    def summary(self) -> dict:
        """Fabric-level health: supervisor counters plus per-shard state."""
        return {
            "tick_index": self.tick_index,
            **self.metrics.summary(),
            "undelivered": len(self._undelivered),
            "shards": {f"shard-{transport.index:02d}": transport.describe()
                       for transport in self.transports},
        }


class ShardSupervisor(Supervisor):
    """The fabric with every shard's control plane in this thread.

    Parameters
    ----------
    anubis_factory:
        Zero-argument callable building a fresh Anubis facade; called
        once per shard (re)start.
    nodes:
        The full fleet; ownership is derived from the ring.
    journal_root:
        Parent directory -- shard N journals under
        ``journal_root/shard-NN``.  ``None`` runs in memory.
    config:
        :class:`SupervisorConfig`.
    clock:
        Monotonic-seconds source shared by every shard (injectable).
    """

    def __init__(self, anubis_factory, nodes, *, journal_root=None,
                 config: SupervisorConfig | None = None,
                 clock=time.monotonic):
        self.fleet = list(nodes)
        super().__init__(config or SupervisorConfig(),
                         {node.node_id: getattr(node, "sku", "unknown")
                          for node in self.fleet})
        self.clock = clock
        assignment: dict[int, list[str]] = {
            index: [] for index in range(self.config.shard_count)}
        for node in self.fleet:
            owner = self.ring.owner(self._routing_key(node.node_id))
            assignment[owner].append(node.node_id)
        self.shards = self.transports = [
            Shard(index, assignment[index], self.fleet,
                  anubis_factory=anubis_factory, journal_root=journal_root,
                  service_config=self.config.service, clock=clock)
            for index in range(self.config.shard_count)
        ]
        self.reconcile_handoffs()
