"""Durable, parallel validation control plane (the operational layer).

The paper runs SuperBench/ANUBIS as a long-lived service wired into a
cluster orchestrator; this subpackage supplies that missing layer
around the in-process facade:

``repro.service.queue``
    Risk-prioritized, coalescing event queue with a dead-letter side
    for poison events; :class:`JournalState`, the one fold of journal
    records into service state, and the checkpoint format;
    :class:`ServiceMetrics`, the service's counters.
``repro.service.pool``
    Parallel benchmark executor with timeouts, retries, crash
    isolation and per-benchmark circuit breakers.
``repro.service.lifecycle``
    Enforced node state machine (HEALTHY -> SCHEDULED -> VALIDATING ->
    QUARANTINED -> IN_REPAIR -> RETURNING) plus flap damping.
``repro.service.store``
    Append-only, CRC32-checksummed JSONL journal with embedded
    criteria snapshots, optional fsync and atomic compaction.
``repro.service.controlplane``
    :class:`ValidationService` -- the tick/drain orchestrator with
    per-event metrics, failure containment and kill-and-restart
    recovery.
``repro.service.shard``
    Consistent-hash partitioning of the fleet into isolated failure
    domains, each a full control plane over its own journal; the
    narrow shard transport interface and its in-thread implementation.
``repro.service.supervisor``
    The one supervision state machine: per-shard watchdogs, restart
    backoff, degradation with journaled cross-shard handoff, parked
    delivery, and the global risk-priority scheduler.
``repro.service.procfabric``
    The subprocess shard transport: one OS process per shard, a
    length-prefixed JSON pipe protocol, PID/deadline liveness, and
    graceful signal-driven drain -- real crash containment.
``repro.service.chaos``
    Deterministic, seeded fault injection against all of the above:
    one :class:`ChaosPlan`, injected per transport -- inline into one
    service, through the supervisor's seams into in-thread shards, and
    as real ``SIGKILL``/``SIGSTOP`` signals inside worker processes.
    ``chaos.TRANSPORT_FIELDS`` is the support table: a plan that sets
    a fault its transport cannot inject is refused.
"""

from repro.service.chaos import (
    ChaosJournalStore,
    ChaosMonkey,
    ChaosPlan,
    ChaosRunner,
    ShardCrash,
    SimulatedKill,
    install_chaos,
)
from repro.service.controlplane import (
    ServiceConfig,
    TickResult,
    ValidationService,
)
from repro.service.lifecycle import (
    LEGAL_TRANSITIONS,
    FlapDamper,
    NodeLifecycle,
    NodeState,
    Transition,
)
from repro.service.pool import (
    BenchmarkRun,
    BreakerState,
    BreakerTransition,
    CircuitBreaker,
    PoolConfig,
    SweepResult,
    ValidationPool,
)
from repro.service.procfabric import (
    ProcessFabric,
    WorkerDied,
    WorkerFault,
    WorkerSpec,
    WorkerUnresponsive,
    default_builder,
)
from repro.service.queue import (
    DeadLetter,
    EventQueue,
    JournalState,
    QueuedEvent,
    ServiceMetrics,
)
from repro.service.shard import HashRing, Shard, ShardState
from repro.service.store import (
    JournalRecord,
    JournalStore,
    event_from_payload,
    event_to_payload,
)
from repro.service.supervisor import (
    PARENT_ORIGIN,
    ShardSupervisor,
    SupervisorConfig,
    SupervisorMetrics,
)

__all__ = [
    "BenchmarkRun",
    "BreakerState",
    "BreakerTransition",
    "ChaosJournalStore",
    "ChaosMonkey",
    "ChaosPlan",
    "ChaosRunner",
    "CircuitBreaker",
    "DeadLetter",
    "EventQueue",
    "FlapDamper",
    "HashRing",
    "JournalRecord",
    "JournalState",
    "JournalStore",
    "LEGAL_TRANSITIONS",
    "NodeLifecycle",
    "NodeState",
    "PARENT_ORIGIN",
    "PoolConfig",
    "ProcessFabric",
    "QueuedEvent",
    "ServiceConfig",
    "ServiceMetrics",
    "Shard",
    "ShardCrash",
    "ShardState",
    "ShardSupervisor",
    "SimulatedKill",
    "SupervisorConfig",
    "SupervisorMetrics",
    "SweepResult",
    "TickResult",
    "Transition",
    "ValidationPool",
    "ValidationService",
    "WorkerDied",
    "WorkerFault",
    "WorkerSpec",
    "WorkerUnresponsive",
    "default_builder",
    "event_from_payload",
    "event_to_payload",
    "install_chaos",
]
