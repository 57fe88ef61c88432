"""Integration: the supervised shard fabric under faults.

The acceptance bars for the failure-domain layer, mirroring the
single-service chaos suite one level up:

* **routing + isolation** -- events split along consistent-hash
  ownership, each part processed by its owning shard's own control
  plane over its own journal;
* **backpressure** -- a bounded queue sheds the lowest-risk entries,
  journaled as ``load-shed`` and exact across restart;
* **supervision** -- a hung shard trips the watchdog, restarts with
  backoff, and escalates to DEGRADED with journaled handoff of its
  pending work to live siblings;
* **handoff exactly-once** -- a simulated process kill at *every*
  append prefix of the failover sequence (including between the
  handoff record and the sibling's enqueue record) recovers to the
  event pending exactly once fleet-wide: neither dropped nor
  duplicated;
* **blast radius (soak)** -- seeded shard-level chaos aimed at one
  shard restarts/degrades only that shard while sibling shards stay
  clean, and every accepted event is accounted for.
"""

from collections import Counter

import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.service import (
    ChaosPlan,
    JournalStore,
    NodeState,
    PoolConfig,
    ServiceConfig,
    ShardState,
    ShardSupervisor,
    SimulatedKill,
    SupervisorConfig,
    ValidationService,
    install_chaos,
)
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

SUITE = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
FAST_POOL = PoolConfig(max_workers=4, benchmark_timeout_seconds=2.0,
                       max_attempts=1, backoff_base_seconds=0.0,
                       poll_interval_seconds=0.005)


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(12, seed=5)


@pytest.fixture(scope="module")
def risk_model():
    trace = generate_incident_trace(50, 800.0, seed=11)
    dataset = extract_status_samples(trace)
    return ExponentialModel().fit(dataset), dataset


def make_factory(fleet, risk_model):
    model, _dataset = risk_model

    def factory():
        validator = Validator(SUITE, runner=SuiteRunner(seed=9))
        validator.learn_criteria(fleet.nodes[:6])
        selector = Selector(model, analytic_coverage_table(SUITE),
                            suite_durations(SUITE), p0=0.05)
        return Anubis(validator, selector)

    return factory


def build_supervisor(fleet, risk_model, journal_root, *, shards=3,
                     max_queue_depth=None, **overrides):
    config = SupervisorConfig(
        shard_count=shards,
        service=ServiceConfig(pool=FAST_POOL,
                              max_queue_depth=max_queue_depth),
        **overrides)
    return ShardSupervisor(make_factory(fleet, risk_model), fleet.nodes,
                           journal_root=journal_root, config=config)


def make_event(fleet, dataset, node_indices, kind, duration=24.0):
    nodes = tuple(fleet.nodes[i] for i in node_indices)
    statuses = tuple(
        NodeStatus(node_id=node.node_id,
                   covariates=dataset.covariates[i % len(dataset)])
        for i, node in enumerate(nodes))
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=duration)


def owned_indices(supervisor, fleet, shard_index):
    """Fleet indexes of the nodes one shard owns."""
    owned = supervisor.shards[shard_index].node_ids
    return [i for i, node in enumerate(fleet.nodes)
            if node.node_id in owned]


def pending_keys(supervisor) -> Counter:
    """(kind, node set) multiset of every pending entry fleet-wide."""
    keys: Counter = Counter()
    for shard in supervisor.shards:
        for entry in shard.service.queue.pending():
            keys[(entry.event.kind.value,
                  tuple(sorted(n.node_id for n in entry.event.nodes)))] += 1
    return keys


def event_key(event) -> tuple:
    return (event.kind.value,
            tuple(sorted(n.node_id for n in event.nodes)))


class TestFabricRouting:
    def test_submit_splits_along_ownership_and_drains(self, fleet,
                                                      risk_model, tmp_path):
        _model, dataset = risk_model
        supervisor = build_supervisor(fleet, risk_model, tmp_path / "fabric")
        event = make_event(fleet, dataset, list(range(12)),
                           EventKind.INCIDENT_REPORTED)
        accepted = supervisor.submit(event)
        # Every part's nodes sit inside the accepting shard's domain.
        assert len(accepted) >= 2  # 12 nodes over 3 shards must split
        for index, entry in accepted.items():
            part_nodes = {n.node_id for n in entry.event.nodes}
            assert part_nodes <= supervisor.shards[index].node_ids
        covered = {n.node_id for entry in accepted.values()
                   for n in entry.event.nodes}
        assert covered == {n.node_id for n in fleet.nodes}

        supervisor.drain()
        assert supervisor.quiescent()
        processed = sum(s.service.metrics.events_processed
                        for s in supervisor.shards)
        assert processed == len(accepted)
        for shard in supervisor.shards:
            assert shard.state is ShardState.RUNNING
            assert shard.restarts == 0
        assert supervisor.metrics.watchdog_trips == 0

    def test_each_shard_owns_a_separate_journal(self, fleet, risk_model,
                                                tmp_path):
        root = tmp_path / "journals"
        supervisor = build_supervisor(fleet, risk_model, root)
        dirs = sorted(p.name for p in root.iterdir())
        assert dirs == ["shard-00", "shard-01", "shard-02"]
        for shard in supervisor.shards:
            assert shard.service.store is not None
            assert shard.service.store.directory == root / f"shard-{shard.index:02d}"

    def test_route_falls_through_degraded_shard(self, fleet, risk_model,
                                                tmp_path):
        supervisor = build_supervisor(fleet, risk_model, tmp_path / "route")
        victim = supervisor.shards[0]
        node_id = sorted(victim.node_ids)[0]
        assert supervisor.route(node_id) == 0
        victim.state = ShardState.DEGRADED
        rerouted = supervisor.route(node_id)
        assert rerouted in (1, 2)
        # Nodes the siblings already owned do not move.
        for sibling in supervisor.shards[1:]:
            for owned in sibling.node_ids:
                assert supervisor.route(owned) == sibling.index


class TestLoadShedding:
    def build_service(self, fleet, risk_model, journal_dir, *, depth):
        factory = make_factory(fleet, risk_model)
        return ValidationService(
            factory(), fleet.nodes, journal_dir=journal_dir,
            config=ServiceConfig(pool=FAST_POOL, max_queue_depth=depth))

    def test_overload_sheds_journaled_and_releases_nodes(self, fleet,
                                                         risk_model,
                                                         tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "shed"
        service = self.build_service(fleet, risk_model, journal, depth=2)
        for index in range(4):
            service.submit(make_event(fleet, dataset, [index],
                                      EventKind.JOB_ALLOCATION))
        assert len(service.queue) == 2
        assert service.metrics.events_shed == 2

        records = JournalStore(journal).replay()
        shed = [r for r in records if r.kind == "load-shed"]
        assert len(shed) == 2
        assert all(r.payload["reason"] == "queue-full" for r in shed)

        # A shed entry's nodes go back to HEALTHY -- shedding must not
        # leave nodes parked in SCHEDULED with nothing pending for them.
        scheduled = set(service.lifecycle.nodes_in(NodeState.SCHEDULED))
        covered = {n.node_id for e in service.queue.pending()
                   for n in e.event.nodes}
        assert scheduled <= covered

        service.drain()
        assert service.metrics.events_processed == 2

    def test_shed_state_is_exact_across_restart(self, fleet, risk_model,
                                                tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "shed-restart"
        service = self.build_service(fleet, risk_model, journal, depth=2)
        for index in range(5):
            service.submit(make_event(fleet, dataset, [index],
                                      EventKind.JOB_ALLOCATION))
        pending_before = sorted(e.event_id for e in service.queue.pending())

        factory = make_factory(fleet, risk_model)
        recovered = ValidationService(
            factory(), fleet.nodes, journal_dir=journal,
            config=ServiceConfig(pool=FAST_POOL, max_queue_depth=2))
        assert recovered.metrics.events_shed == 3
        assert (sorted(e.event_id for e in recovered.queue.pending())
                == pending_before)
        recovered.drain()
        assert len(recovered.queue) == 0


class TestWatchdogAndRestart:
    def test_hung_shard_trips_watchdog_and_restarts(self, fleet, risk_model,
                                                    tmp_path):
        _model, dataset = risk_model
        supervisor = build_supervisor(
            fleet, risk_model, tmp_path / "watchdog", shards=2,
            watchdog_stall_ticks=2, restart_backoff_base_ticks=1)
        indices = owned_indices(supervisor, fleet, 0)
        supervisor.submit(make_event(fleet, dataset, indices[:1],
                                     EventKind.INCIDENT_REPORTED))

        supervisor.tick_filter = lambda shard: shard.index != 0
        for _ in range(10):
            supervisor.tick()
            if supervisor.shards[0].state is ShardState.RESTARTING:
                break
        shard = supervisor.shards[0]
        assert shard.state is ShardState.RESTARTING
        assert supervisor.metrics.watchdog_trips == 1
        # Restart scheduled within the backoff bound for restart #1.
        bound = supervisor.config.backoff_ticks(shard.restarts)
        assert shard.restart_due_tick <= supervisor.tick_index + bound

        supervisor.tick_filter = None
        supervisor.drain()
        assert shard.state is ShardState.RUNNING
        assert supervisor.metrics.shard_restarts == 1
        assert shard.service.metrics.events_processed == 1
        # Blast radius: the sibling never restarted.
        assert supervisor.shards[1].restarts == 0

    def test_waiting_shard_is_not_blamed_as_stalled(self, fleet, risk_model,
                                                    tmp_path):
        """A shard that merely loses the cross-shard priority race has
        flat progress but must not trip the watchdog."""
        _model, dataset = risk_model
        supervisor = build_supervisor(fleet, risk_model, tmp_path / "fair",
                                      shards=3, watchdog_stall_ticks=2)
        for shard_index in range(3):
            indices = owned_indices(supervisor, fleet, shard_index)
            for i in indices:
                supervisor.submit(make_event(fleet, dataset, [i],
                                             EventKind.INCIDENT_REPORTED))
        supervisor.drain()
        assert supervisor.metrics.watchdog_trips == 0
        assert supervisor.metrics.shard_restarts == 0


class TestDegradationAndFailover:
    def test_repeatedly_hung_shard_degrades_and_hands_off(self, fleet,
                                                          risk_model,
                                                          tmp_path):
        _model, dataset = risk_model
        root = tmp_path / "degrade"
        supervisor = build_supervisor(
            fleet, risk_model, root, shards=3, watchdog_stall_ticks=1,
            restart_backoff_base_ticks=1, max_shard_restarts=1)
        indices = owned_indices(supervisor, fleet, 0)
        event = make_event(fleet, dataset, indices[:1],
                           EventKind.INCIDENT_REPORTED)
        supervisor.submit(event)

        supervisor.tick_filter = lambda shard: shard.index != 0
        for _ in range(20):
            supervisor.tick()
            if supervisor.shards[0].state is ShardState.DEGRADED:
                break
        shard = supervisor.shards[0]
        assert shard.state is ShardState.DEGRADED
        assert supervisor.metrics.shards_degraded == 1
        assert supervisor.metrics.events_failed_over == 1

        # The handoff is durable on both sides: a shard-handoff record
        # in the source journal, an origin-marked enqueue in a sibling.
        source = JournalStore(root / "shard-00").replay()
        handoffs = [r for r in source if r.kind == "shard-handoff"]
        assert len(handoffs) == 1
        target_index = handoffs[0].payload["to_shard"]
        assert target_index in (1, 2)
        target = JournalStore(root / f"shard-{target_index:02d}").replay()
        origins = [r.payload.get("origin") for r in target
                   if r.kind == "event-enqueued"
                   and r.payload.get("origin") is not None]
        assert origins == [[0, handoffs[0].payload["event_id"]]]

        supervisor.tick_filter = None
        supervisor.drain()
        # The sibling completed the degraded shard's work.
        assert (supervisor.shards[target_index]
                .service.metrics.events_processed >= 1)
        for sibling in supervisor.shards[1:]:
            assert sibling.restarts == 0
        # New work for the degraded shard's nodes routes around it.
        resubmitted = supervisor.submit(event)
        assert 0 not in resubmitted
        supervisor.drain()


class _PrefixKiller:
    """Journal wrapper killing the whole process after N more appends.

    The budget list is shared across every shard's wrapper so the cut
    point sweeps the *global* append sequence of the failover -- the
    handoff record in the source journal and the enqueue/transition
    records in the target journal are all candidate kill points.
    """

    def __init__(self, store, budget: list):
        self._store = store
        self._budget = budget

    def append(self, kind, payload, fsync=None):
        if self._budget[0] <= 0:
            raise SimulatedKill("prefix kill before journal append")
        self._budget[0] -= 1
        return self._store.append(kind, payload, fsync=fsync)

    def __getattr__(self, name):
        return getattr(self._store, name)


class TestCrossShardHandoffKillAtEveryPrefix:
    """Satellite 4: kill the process at every append prefix of a
    degradation failover -- including between the handoff record and
    the sibling's enqueue record -- and demand recovery to the events
    pending exactly once fleet-wide (no drop, no duplicate)."""

    def _run_failover(self, fleet, risk_model, root, *, budget):
        """Submit two shard-0 events, then degrade shard 0 with every
        journal wrapped by a shared-budget killer.  Returns the events
        and whether the kill fired."""
        _model, dataset = risk_model
        supervisor = build_supervisor(
            fleet, risk_model, root, shards=3, max_shard_restarts=1)
        indices = owned_indices(supervisor, fleet, 0)
        assert len(indices) >= 2, "fixture fleet must give shard 0 two nodes"
        events = [make_event(fleet, dataset, [indices[0]],
                             EventKind.INCIDENT_REPORTED),
                  make_event(fleet, dataset, [indices[1]],
                             EventKind.INCIDENT_REPORTED)]
        for event in events:
            supervisor.submit(event)
        for shard in supervisor.shards:
            shard.service.store = _PrefixKiller(shard.service.store, budget)
        shard0 = supervisor.shards[0]
        shard0.restarts = supervisor.config.max_shard_restarts
        killed = False
        try:
            supervisor._declare_unhealthy(shard0, reason="induced")
        except SimulatedKill:
            killed = True
        return events, killed

    def _assert_exactly_once(self, fleet, risk_model, root, events, cut):
        recovered = build_supervisor(fleet, risk_model, root, shards=3)
        keys = pending_keys(recovered)
        for event in events:
            assert keys[event_key(event)] == 1, \
                f"cut={cut}: event not pending exactly once: {keys}"
        recovered.drain()
        assert recovered.quiescent()

        # Journal-level exactly-once: each event completed once across
        # the whole fabric, and no origin was enqueued twice.
        completions: Counter = Counter()
        origins: Counter = Counter()
        for index in range(3):
            for record in JournalStore(root / f"shard-{index:02d}").replay():
                if record.kind == "event-completed":
                    completions[tuple(sorted(
                        record.payload["validated_nodes"]))] += 1
                elif (record.kind == "event-enqueued"
                      and record.payload.get("origin") is not None):
                    origins[tuple(record.payload["origin"])] += 1
        for event in events:
            nodes = tuple(sorted(n.node_id for n in event.nodes))
            assert completions[nodes] == 1, f"cut={cut}"
        assert all(count == 1 for count in origins.values()), f"cut={cut}"

    def test_kill_at_every_failover_prefix(self, fleet, risk_model,
                                           tmp_path):
        # Uninterrupted baseline counts the failover's appends.
        budget = [10_000]
        events, killed = self._run_failover(
            fleet, risk_model, tmp_path / "baseline", budget=budget)
        assert not killed
        total_appends = 10_000 - budget[0]
        assert total_appends >= 4  # 2x handoff + 2x delivery at minimum
        self._assert_exactly_once(fleet, risk_model, tmp_path / "baseline",
                                  events, cut="baseline")

        for cut in range(total_appends):
            root = tmp_path / f"kill-{cut}"
            events, killed = self._run_failover(fleet, risk_model, root,
                                                budget=[cut])
            assert killed, f"cut={cut} never reached append {cut + 1}"
            self._assert_exactly_once(fleet, risk_model, root, events, cut)

    def test_handoff_journaled_but_undelivered_is_reconciled(self, fleet,
                                                             risk_model,
                                                             tmp_path):
        """The narrowest window, pinned explicitly: the handoff record
        is durable but the process dies before the sibling's enqueue.
        Startup reconciliation must re-deliver exactly once."""
        _model, dataset = risk_model
        root = tmp_path / "window"
        supervisor = build_supervisor(fleet, risk_model, root, shards=3)
        index = owned_indices(supervisor, fleet, 0)[0]
        event = make_event(fleet, dataset, [index],
                           EventKind.INCIDENT_REPORTED)
        supervisor.submit(event)
        shard0 = supervisor.shards[0]
        entry = shard0.service.queue.pop()
        shard0.append("shard-handoff", {**entry.to_payload(), "to_shard": 1})
        # "Kill": the delivery never happens; a fresh supervisor over
        # the same journals reconciles at startup.
        recovered = build_supervisor(fleet, risk_model, root, shards=3)
        assert recovered.metrics.handoffs_reconciled == 1
        keys = pending_keys(recovered)
        assert keys[event_key(event)] == 1
        pending = recovered.shards[1].service.queue.pending()
        assert [e.origin for e in pending] == [(0, entry.event_id)]
        recovered.drain()

        # And a second recovery does NOT deliver it again.
        twin = build_supervisor(fleet, risk_model, root, shards=3)
        assert twin.metrics.handoffs_reconciled == 0
        assert pending_keys(twin)[event_key(event)] == 0


SOAK_SEED = 2203


@pytest.mark.soak
class TestShardChaosSoak:
    """Fleet-scale blast-radius containment under seeded shard chaos."""

    def test_blast_radius_containment(self, fleet, risk_model, tmp_path):
        _model, dataset = risk_model
        root = tmp_path / "soak"
        supervisor = build_supervisor(
            fleet, risk_model, root, shards=3, watchdog_stall_ticks=2,
            restart_backoff_base_ticks=1, max_shard_restarts=2,
            max_queue_depth=8)
        monkey = install_chaos(supervisor, ChaosPlan(
            seed=SOAK_SEED,
            target_shards=frozenset({0}),
            crash_rate=0.25,
            hang_rate=0.10,
            heartbeat_loss_rate=0.10,
            journal_error_rate=0.03,
            journal_corrupt_rate=0.05,
        ))

        import numpy as np

        from repro.exceptions import ServiceError
        rng = np.random.default_rng(SOAK_SEED)
        submitted = 0
        rejected = 0
        for step in range(120):
            count = int(rng.integers(1, 4))
            indices = rng.choice(12, size=count, replace=False)
            event = make_event(fleet, dataset, [int(i) for i in indices],
                               EventKind.INCIDENT_REPORTED)
            try:
                supervisor.submit(event)
                submitted += 1
            except ServiceError:
                rejected += 1  # journal fault rejected the enqueue
            supervisor.tick()
        assert sum(monkey.injections.values()) > 0, "chaos never fired"
        assert supervisor.metrics.shard_restarts >= 1

        # Containment while chaos was live: only the target shard was
        # ever restarted or degraded; siblings stayed clean.
        for sibling in supervisor.shards[1:]:
            assert sibling.restarts == 0
            assert sibling.state is ShardState.RUNNING
            assert sibling.service.dead_letters() == []

        monkey.uninstall()
        supervisor.tick_filter = None
        supervisor.heartbeat_filter = None
        supervisor.on_restart = None

        # Chaos-free rebuild over the same journals: every durably
        # accepted event must be recovered and finished -- nothing
        # silently lost to the faults.
        recovered = build_supervisor(
            fleet, risk_model, root, shards=3, watchdog_stall_ticks=2,
            restart_backoff_base_ticks=1, max_shard_restarts=2,
            max_queue_depth=8)
        recovered.drain()
        assert recovered.quiescent()
        for shard in recovered.shards:
            assert len(shard.service.queue) == 0

        # Journal accounting, per shard: every enqueued event id ends
        # completed, dead-lettered, shed or handed off.
        for index in range(3):
            reader_records = JournalStore(
                root / f"shard-{index:02d}").replay()
            enqueued = {r.payload["event_id"] for r in reader_records
                        if r.kind == "event-enqueued"}
            resolved = {r.payload["event_id"] for r in reader_records
                        if r.kind in ("event-completed",
                                      "event-dead-lettered", "load-shed",
                                      "shard-handoff")}
            assert enqueued <= resolved, f"shard {index} lost events"

        # Sibling journals were never corrupted (the corruption fault
        # was scoped to shard 0).
        from repro.analytics import JournalReader
        for index in (1, 2):
            reader = JournalReader(root / f"shard-{index:02d}")
            reader.read_all()
            assert reader.health()["corrupt_lines"] == 0

        # Every node converges back to HEALTHY.
        for shard in recovered.shards:
            for state in (NodeState.SCHEDULED, NodeState.VALIDATING,
                          NodeState.QUARANTINED, NodeState.IN_REPAIR,
                          NodeState.RETURNING):
                assert shard.service.lifecycle.nodes_in(state) == []
