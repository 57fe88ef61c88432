"""Failure-domain sharding of the control plane by consistent hashing.

One :class:`~repro.service.controlplane.ValidationService` over one
journal is one crash, one corrupt journal or one breaker storm away
from stalling the whole fleet.  This module partitions the fleet into
*shards* -- each a full control plane with its **own**
:class:`~repro.service.store.JournalStore` (separate journal
directory, separate compaction), its own
:class:`~repro.service.queue.EventQueue`, its own
:class:`~repro.service.pool.ValidationPool` (and therefore its own
circuit breakers) and its own lifecycle map -- so every failure mode
the control plane hardens against is *contained* to the shard it
happened in.

Placement is a consistent-hash ring (:class:`HashRing`): each shard
projects ``virtual_nodes`` points onto the CRC32 ring and a node id
hashes to the first shard point at or after it.  Consistent hashing
buys two properties a modulo partition lacks:

* **stable ownership** -- placement depends only on (shard count,
  virtual-node count, node id), so a restarted supervisor recovers
  exactly the same assignment its journals were written under;
* **local failover** -- when a shard is degraded, each of its node
  ids falls through to the *next* ring point owned by a live shard,
  spreading the orphaned load over the survivors instead of dumping
  it all on one sibling.

The supervision state machine (:mod:`repro.service.supervisor`)
reaches a shard only through a :class:`ShardTransport` and keeps its
per-shard bookkeeping on the transport object.  :class:`Shard` is the
in-thread transport (every call is a method call on the shard's
:class:`~repro.service.controlplane.ValidationService`); the
subprocess one is :mod:`repro.service.procfabric`'s worker handle.
"""

from __future__ import annotations

import bisect
import enum
import time
import zlib
from pathlib import Path
from typing import NamedTuple

from repro.core.system import ValidationEvent
from repro.exceptions import JournalError, ServiceError
from repro.service.controlplane import ServiceConfig, ValidationService
from repro.service.queue import JournalState
from repro.service.store import RecordKind

__all__ = ["HashRing", "ShardState", "ShardStatus", "ShardTransport",
           "TransportFault", "Shard", "deliver_part", "sample"]


class HashRing:
    """Consistent-hash ring mapping node ids to shard indexes.

    Parameters
    ----------
    shard_count:
        Number of shards (ring members).
    virtual_nodes:
        Ring points per shard; more points smooth the load split at
        the cost of a larger (still tiny) ring.
    """

    def __init__(self, shard_count: int, *, virtual_nodes: int = 64):
        if shard_count < 1:
            raise ServiceError("shard_count must be at least 1")
        if virtual_nodes < 1:
            raise ServiceError("virtual_nodes must be at least 1")
        self.shard_count = int(shard_count)
        self.virtual_nodes = int(virtual_nodes)
        points: list[tuple[int, int]] = []
        for shard in range(self.shard_count):
            for replica in range(self.virtual_nodes):
                point = zlib.crc32(f"shard-{shard}/vn-{replica}".encode())
                points.append((point, shard))
        # CRC32 collisions between virtual nodes are possible in
        # principle; sort on (point, shard) so even a collision
        # resolves deterministically.
        points.sort()
        self._points = [point for point, _shard in points]
        self._shards = [shard for _point, shard in points]

    def owner(self, node_id: str, *, alive=None) -> int:
        """The shard owning ``node_id``.

        With ``alive`` (a set of shard indexes), ownership falls
        through dead shards to the next ring point owned by a live
        one -- the failover placement for a degraded owner's nodes.
        """
        if alive is not None and not alive:
            raise ServiceError("no live shard to own nodes")
        point = zlib.crc32(str(node_id).encode())
        start = bisect.bisect_left(self._points, point)
        for offset in range(len(self._shards)):
            shard = self._shards[(start + offset) % len(self._shards)]
            if alive is None or shard in alive:
                return shard
        raise ServiceError("no live shard to own nodes")

    def assignment(self, node_ids) -> dict[int, list[str]]:
        """Owned node ids per shard index (every shard present)."""
        owned: dict[int, list[str]] = {i: [] for i in range(self.shard_count)}
        for node_id in node_ids:
            owned[self.owner(node_id)].append(node_id)
        return owned


class ShardState(enum.Enum):
    """Supervisor-visible health of one shard."""

    #: Ticking normally.
    RUNNING = "running"
    #: Declared unhealthy; a restart is scheduled (backoff pending).
    RESTARTING = "restarting"
    #: Out of restart budget; pending work handed off to siblings and
    #: new work for its nodes routed around it.
    DEGRADED = "degraded"


class TransportFault(ServiceError):
    """The shard behind a transport died or stopped answering.
    Conclusive: one is enough for the supervisor to declare the shard
    unhealthy.  ``timed_out`` tells a missed deadline (a hang) from a
    death, for the counters only."""

    timed_out = False


class ShardStatus(NamedTuple):
    """One liveness sample of a shard."""

    queue_depth: int
    #: Priority of the entry the shard would pop next (``None``: idle).
    head_priority: float | None
    #: Monotonic count of tick *attempts* (completions plus contained
    #: failures): a shard grinding through a poison event is making
    #: progress; one whose count is flat while work is pending is hung.
    progress: int
    repairs_in_flight: bool


class ShardTransport:
    """What the supervisor needs from one shard, and what it remembers
    about it (state, restart budget, watchdog counters).

    Implemented by :class:`Shard` (in-thread), by the process fabric's
    worker handle, and by the scripted fake the state-machine tests
    drive.  A call raises :class:`TransportFault` (in-thread: lets a
    :class:`~repro.service.chaos.ShardCrash` through) when the shard
    is dead or deaf, and :class:`~repro.exceptions.JournalError` when
    it is alive but its journal refused the write.

    Event parts cross this interface in their journal/wire form
    (``ValidationEvent.to_payload()``): it is what a dead shard's
    journal yields, what a handoff record stores and what a pipe
    carries, so parking, failover and reconciliation never need the
    fleet's node objects.
    """

    #: Whether a delivery's ACK can be lost *after* the shard durably
    #: accepted the part (a pipe to a process that may die mid-reply).
    #: The supervisor then stamps even its own submissions with an
    #: origin, so a blind retry dedupes instead of double-enqueueing.
    ack_can_be_lost = False

    def __init__(self, index: int):
        self.index = int(index)
        self.state = ShardState.RUNNING
        #: Restarts charged against ``max_shard_restarts`` (refilled
        #: by ``restart_forgive_after_ticks``).
        self.restarts = 0
        #: Supervisor tick at which a scheduled restart fires.
        self.restart_due_tick: int | None = None
        #: Consecutive stalled rounds (see ``watchdog_stall_ticks``).
        self.stalled_ticks = 0
        #: ``progress`` at the previous sample; ``None`` until this
        #: incarnation has been sampled once.
        self.last_progress: int | None = None
        #: Progress-making rounds since the last restart (forgiveness).
        self.progress_ticks = 0

    def accept(self, event: ValidationEvent):
        """Durably enqueue one event the supervisor's caller just
        submitted, synchronously and without an origin; returns the
        shard's receipt.  Only for a transport that cannot lose an ACK
        (there is nothing to dedupe a retry by)."""
        raise NotImplementedError

    def deliver(self, part: dict, origin: tuple[int, int]):
        """Durably enqueue one origin-marked part; returns the shard's
        receipt, or ``None`` when ``origin`` was already accepted (the
        retry of a delivery whose ACK was lost)."""
        raise NotImplementedError

    def status(self, tick: int | None = None) -> ShardStatus:
        """Sample the shard.  With ``tick`` this is the round's
        liveness sample: a transport journals the ones it asks the
        shard for as heartbeats, and may answer from the shard's own
        latest reply when nothing can have changed the shard since."""
        raise NotImplementedError

    def tick(self):
        """Process the riskiest pending event; returns its result
        (``None`` if nothing ran)."""
        raise NotImplementedError

    def advance_repairs(self) -> None:
        raise NotImplementedError

    def ensure_dead(self) -> None:
        """Make sure nothing behind this transport can still write its
        journal.  From here until :meth:`restart` the journal, not the
        shard, answers :meth:`queue_state`, and the supervisor may
        :meth:`append` to it."""
        raise NotImplementedError

    def queue_state(self) -> JournalState:
        """The shard's state, for its pending entries, accepted origins
        and journaled handoffs."""
        raise NotImplementedError

    def append(self, kind, payload: dict) -> None:
        """Write one record into the (dead) shard's journal."""
        raise NotImplementedError

    def restart(self, tick: int) -> None:
        """Replace the shard with a fresh incarnation recovered from
        its journal."""
        raise NotImplementedError

    def seal(self, reason: str, tick: int) -> bool:
        """Journal the clean-shutdown marker and fsync; returns
        whether the shard confirmed it."""
        raise NotImplementedError

    def describe(self) -> dict:
        """This shard's entry in the fabric summary."""
        return {"state": self.state.value, "restarts": self.restarts}


# What a live ValidationService answers to the transport calls -- used
# by Shard directly and by the worker process on the far end of a pipe.

def deliver_part(service: ValidationService, part: dict,
                 origin: tuple[int, int]):
    if origin in service.origins_seen:
        return None
    event = ValidationEvent.from_payload(part, service.fleet_index)
    return service.submit(event, origin=origin)


def sample(service: ValidationService) -> ShardStatus:
    head = service.queue.peek()
    return ShardStatus(
        queue_depth=len(service.queue),
        head_priority=None if head is None else head.priority,
        progress=(service.metrics.events_processed
                  + service.metrics.tick_failures),
        repairs_in_flight=service.repairs_in_flight())


class Shard(ShardTransport):
    """One failure domain in this thread: a full control plane over
    owned nodes.

    Parameters
    ----------
    index:
        Ring position / stable identity of this shard.
    node_ids:
        Node ids this shard owns under the current ring.
    fleet:
        The **full** fleet.  Every shard's service indexes the whole
        fleet so a handed-off event referencing a degraded sibling's
        nodes is still submittable; *ownership* (which shard work is
        routed to) is the supervisor's job, not the service's.
    anubis_factory:
        Zero-argument callable building a fresh
        :class:`~repro.core.system.Anubis` facade.  Called once per
        (re)start so a crash cannot leak tainted in-memory policy
        state into the next incarnation -- journal recovery restores
        criteria and coverage from disk instead.
    journal_root:
        Parent directory; this shard journals under
        ``journal_root/shard-NN``.  ``None`` runs in memory (no
        recovery, for tests).
    service_config:
        Per-shard :class:`~repro.service.controlplane.ServiceConfig`
        (including ``max_queue_depth`` backpressure).
    clock:
        Monotonic-seconds source shared with the supervisor.
    """

    def __init__(self, index: int, node_ids, fleet, *, anubis_factory,
                 journal_root=None, service_config: ServiceConfig | None = None,
                 clock=time.monotonic):
        super().__init__(index)
        self.node_ids = frozenset(node_ids)
        self.fleet = list(fleet)
        self.anubis_factory = anubis_factory
        self.journal_dir = (None if journal_root is None
                            else Path(journal_root) / f"shard-{self.index:02d}")
        self.service_config = service_config or ServiceConfig()
        self.clock = clock
        self.dead = False
        self.service: ValidationService = self._build_service()

    def _build_service(self) -> ValidationService:
        return ValidationService(
            self.anubis_factory(), self.fleet,
            journal_dir=self.journal_dir, config=self.service_config,
            clock=self.clock)

    def accept(self, event: ValidationEvent):
        """Also while RESTARTING: the journal is intact, so the submit
        is durably accepted and recovered by the restart."""
        return self.service.submit(event)

    def deliver(self, part: dict, origin: tuple[int, int]):
        return deliver_part(self.service, part, origin)

    def status(self, tick: int | None = None) -> ShardStatus:
        status = sample(self.service)
        if tick is not None and self.service.store is not None:
            try:
                self.service.store.append(RecordKind.SHARD_HEARTBEAT, {
                    "shard": self.index,
                    "tick": tick,
                    "progress": status.progress,
                    "queue_depth": status.queue_depth,
                    "restarts": self.restarts,
                    "stalled_ticks": self.stalled_ticks,
                })
            except JournalError:
                pass  # observability only
        return status

    def tick(self):
        return self.service.tick()

    def advance_repairs(self) -> None:
        self.service.advance_repairs()

    def ensure_dead(self) -> None:
        """Nothing to kill in-thread; what changes is whom to believe.
        A crashed or hung incarnation's memory is gone or suspect (the
        entry it was processing has left its queue), so its journal
        speaks for it."""
        self.dead = True

    def queue_state(self) -> JournalState:
        if not self.dead:
            return self.service.journal_state()
        # In memory there is no journal and so nothing to recover: the
        # shard's pending work died with it.
        store = self.service.store
        return JournalState() if store is None else JournalState.read(store)

    def append(self, kind, payload: dict) -> None:
        if self.service.store is not None:
            self.service.store.append(kind, payload)

    def restart(self, tick: int) -> None:
        """This *is* the kill-safe recovery path: the old incarnation
        is dropped wholesale and the replacement replays the shard's
        own journal -- pending events, lifecycle, criteria, handoff
        state."""
        if self.service.store is not None:
            self.service.store.close()
        self.service.pool.close()
        self.service = self._build_service()
        self.dead = False

    def seal(self, reason: str, tick: int) -> bool:
        self.service.seal(reason=reason,
                          extra={"shard": self.index, "tick": tick})
        return True

    def describe(self) -> dict:
        service = self.service
        return {
            **super().describe(),
            "owned_nodes": len(self.node_ids),
            "queue_depth": len(service.queue),
            "events_processed": service.metrics.events_processed,
            "events_shed": service.metrics.events_shed,
            "events_dead_lettered": service.metrics.events_dead_lettered,
            "handed_off": len(service.handed_off),
        }
