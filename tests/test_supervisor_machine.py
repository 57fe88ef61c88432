"""The supervision state machine on its own.

A scripted in-memory :class:`FakeTransport` stands in for a shard, so
every supervisory decision -- split/route, crash -> backoff ->
restart, budget exhausted -> degrade -> failover -> reconcile,
lost-ACK redelivery, the stall watchdog, quiescent/drain/seal -- is
driven deterministically, with no worker process and no
``ValidationService`` anywhere.  What the two real transports do with
the same decisions is ``tests/test_fabric_contract.py``'s job.
"""

from types import SimpleNamespace

import pytest

from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.exceptions import JournalError, ServiceError
from repro.service.queue import JournalState
from repro.service.shard import (
    ShardState,
    ShardStatus,
    ShardTransport,
    TransportFault,
)
from repro.service.supervisor import (
    PARENT_ORIGIN,
    PARKED,
    Supervisor,
    SupervisorConfig,
)

NODE_IDS = [f"node-{i:02d}" for i in range(12)]


class FakeTransport(ShardTransport):
    """A shard reduced to what its journal would hold.

    ``entries`` / ``origins_seen`` / ``handed_off`` play the journal:
    they survive ``restart`` and stay readable after ``ensure_dead``.
    ``dead`` is the process: while set, every live call raises
    :class:`TransportFault`.  A part's priority is its
    ``duration_hours`` (the tests' knob for risk order).
    """

    ack_can_be_lost = True

    def __init__(self, index):
        super().__init__(index)
        self.entries: dict[int, dict] = {}
        self.origins_seen: set = set()
        self.handed_off: dict[int, dict] = {}
        self.journal_log: list = []
        self.next_event_id = 1
        self.progress = 0
        self.repairs = 0
        self.dead = False
        self.lose_next_ack = False
        self.refuse_deliveries = False
        self.refuse_handoffs = False
        self.fail_restarts = 0
        self.kills = 0
        self.starts = 1
        self.sealed_with = None
        self.calls: list[str] = []

    def _live(self, call):
        self.calls.append(call)
        if self.dead:
            raise TransportFault(f"shard {self.index} is dead")

    def accept(self, event):
        return self._enqueue(event.to_payload(), None)

    def deliver(self, part, origin):
        self._live("deliver")
        if origin in self.origins_seen:
            return None
        return self._enqueue(part, origin)

    def _enqueue(self, part, origin):
        if self.refuse_deliveries:
            raise JournalError("journal refused the enqueue")
        event_id = self.next_event_id
        self.next_event_id += 1
        self.entries[event_id] = {"event": part,
                                  "priority": part["duration_hours"],
                                  "attempts": 0, "origin": origin}
        if origin is not None:
            self.origins_seen.add(origin)
        if self.lose_next_ack:
            self.lose_next_ack = False
            self.dead = True
            raise TransportFault("died after accepting, before the ACK")
        return {"event_id": event_id}

    def _head(self):
        if not self.entries:
            return None
        return min(self.entries,
                   key=lambda i: (-self.entries[i]["priority"], i))

    def status(self, tick=None):
        self._live("status" if tick is None else "heartbeat")
        head = self._head()
        return ShardStatus(
            len(self.entries),
            None if head is None else self.entries[head]["priority"],
            self.progress, self.repairs > 0)

    def tick(self):
        self._live("tick")
        head = self._head()
        if head is None:
            return None
        entry = self.entries.pop(head)
        self.progress += 1
        return {"shard": self.index, "event_id": head,
                "nodes": entry["event"]["nodes"]}

    def advance_repairs(self):
        self._live("advance_repairs")
        self.repairs -= 1

    def queue_state(self):
        self.calls.append("queue_state")
        return JournalState(pending={i: dict(e)
                                     for i, e in self.entries.items()},
                            origins_seen=set(self.origins_seen),
                            handed_off=dict(self.handed_off))

    def append(self, kind, payload):
        kind = str(getattr(kind, "value", kind))
        if kind != "shard-handoff":
            self.journal_log.append((kind, payload))
            return
        if self.refuse_handoffs:
            raise JournalError("journal refused the handoff")
        del self.entries[payload["event_id"]]
        self.handed_off[payload["event_id"]] = payload

    def ensure_dead(self):
        self.kills += 1
        self.dead = True

    def restart(self, tick):
        if self.fail_restarts:
            self.fail_restarts -= 1
            raise TransportFault("replacement died before it was ready")
        self.dead = False
        self.starts += 1

    def seal(self, reason, tick):
        self._live("seal")
        self.sealed_with = reason
        return True


class FakeFabric(Supervisor):
    def __init__(self, shards=3, sku_index=None, **config):
        super().__init__(SupervisorConfig(shard_count=shards, **config),
                         sku_index or {})
        self.transports = [FakeTransport(i) for i in range(shards)]
        self.reconcile_handoffs()


def make_event(node_ids, *, priority=1.0):
    return ValidationEvent(
        kind=EventKind.JOB_ALLOCATION,
        nodes=tuple(SimpleNamespace(node_id=n) for n in node_ids),
        statuses=tuple(NodeStatus(node_id=n, covariates=[0.0])
                       for n in node_ids),
        duration_hours=priority)


def owned(fabric, index):
    return [n for n in NODE_IDS if fabric.route(n) == index]


def all_pending(fabric):
    """Node sets pending anywhere in the fabric, as a sorted list."""
    return sorted(tuple(e["event"]["nodes"])
                  for t in fabric.transports for e in t.entries.values())


def tick_until(fabric, predicate, *, limit=50):
    for _ in range(limit):
        if predicate():
            return
        fabric.tick()
    raise AssertionError("condition not reached")


class TestSplitAndRoute:
    def test_submit_splits_along_ring_ownership(self):
        fabric = FakeFabric()
        accepted = fabric.submit(make_event(NODE_IDS))
        assert len(accepted) == 3  # 12 nodes over 3 shards must split
        for index, transport in enumerate(fabric.transports):
            (entry,) = transport.entries.values()
            assert entry["event"]["nodes"] == owned(fabric, index)
            assert accepted[index] == {"event_id": 1}

    def test_lossy_transport_gets_fresh_parent_origins(self):
        fabric = FakeFabric()
        fabric.submit(make_event(NODE_IDS))
        fabric.submit(make_event(NODE_IDS, priority=2.0))
        origins = sorted(o for t in fabric.transports
                         for o in t.origins_seen)
        assert origins == [(PARENT_ORIGIN, n) for n in range(1, 7)]

    def test_lossless_transport_is_delivered_without_an_origin(self):
        fabric = FakeFabric()
        for transport in fabric.transports:
            transport.ack_can_be_lost = False
        fabric.submit(make_event(NODE_IDS))
        assert all(e["origin"] is None for t in fabric.transports
                   for e in t.entries.values())
        # Nothing to dedupe a retry by, so a refusal is the
        # submitter's to handle -- it is never parked.
        fabric.transports[0].refuse_deliveries = True
        with pytest.raises(JournalError):
            fabric.submit(make_event(owned(fabric, 0)))
        assert not fabric._undelivered

    def test_route_falls_through_a_degraded_shard_only(self):
        fabric = FakeFabric()
        before = {n: fabric.route(n) for n in NODE_IDS}
        fabric.transports[0].state = ShardState.DEGRADED
        for node_id, home in before.items():
            if home == 0:
                assert fabric.route(node_id) in (1, 2)
            else:
                assert fabric.route(node_id) == home

    def test_sku_affinity_routes_by_hardware_class(self):
        skus = {n: ("H100" if i % 2 else "A100")
                for i, n in enumerate(NODE_IDS)}
        fabric = FakeFabric(sku_index=skus, sku_affinity=True)
        for sku in ("A100", "H100"):
            homes = {fabric.route(n) for n in NODE_IDS if skus[n] == sku}
            assert len(homes) == 1

    def test_riskiest_head_across_shards_is_ticked_first(self):
        fabric = FakeFabric()
        for index, priority in ((0, 0.2), (1, 0.9), (2, 0.5)):
            fabric.submit(make_event(owned(fabric, index)[:1],
                                     priority=priority))
        order = [fabric.tick()[0]["shard"] for _ in range(3)]
        assert order == [1, 2, 0]

    def test_repairs_advance_only_where_in_flight_and_not_ticked(self):
        fabric = FakeFabric()
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        for transport in fabric.transports:
            transport.repairs = 1 if transport.index != 2 else 0
        fabric.tick()
        assert "advance_repairs" not in fabric.transports[0].calls  # ticked
        assert "advance_repairs" in fabric.transports[1].calls
        assert "advance_repairs" not in fabric.transports[2].calls  # idle

    def test_one_heartbeat_per_running_shard_per_round(self):
        fabric = FakeFabric()
        fabric.tick()
        fabric.tick()
        for transport in fabric.transports:
            assert transport.calls.count("heartbeat") == 2


class TestCrashBackoffRestart:
    def test_crash_backs_off_then_restarts_and_keeps_the_work(self):
        fabric = FakeFabric(restart_backoff_base_ticks=2)
        victim = fabric.transports[0]
        fabric.submit(make_event(owned(fabric, 0)[:2]))
        victim.dead = True
        fabric.tick()
        assert victim.state is ShardState.RESTARTING
        assert victim.kills == 1  # made provably dead before anything else
        assert victim.restart_due_tick == fabric.tick_index + 2
        assert fabric.metrics.shard_crashes == 1
        assert not fabric.quiescent()
        results = fabric.drain()
        assert victim.state is ShardState.RUNNING
        assert (victim.starts, victim.restarts) == (2, 1)
        assert fabric.metrics.shard_restarts == 1
        assert [r["shard"] for r in results] == [0]

    def test_backoff_grows_with_consecutive_restarts(self):
        fabric = FakeFabric(restart_backoff_base_ticks=1,
                            restart_backoff_multiplier=2.0)
        victim = fabric.transports[0]
        waits = []
        for _ in range(3):
            victim.dead = True
            fabric.tick()
            waits.append(victim.restart_due_tick - fabric.tick_index)
            tick_until(fabric,
                       lambda: victim.state is ShardState.RUNNING)
        assert waits == [1, 2, 4]

    def test_failed_restart_spends_budget_and_backs_off_again(self):
        fabric = FakeFabric(max_shard_restarts=3)
        victim = fabric.transports[0]
        victim.dead = True
        victim.fail_restarts = 1
        fabric.tick()
        tick_until(fabric, lambda: victim.state is ShardState.RUNNING)
        assert victim.restarts == 2
        assert fabric.metrics.shard_restarts == 1
        assert fabric.metrics.shard_crashes == 2

    def test_on_restart_seam_sees_the_replacement(self):
        fabric = FakeFabric()
        seen = []
        fabric.on_restart = lambda t: seen.append((t.index, t.starts))
        fabric.transports[1].dead = True
        tick_until(fabric, lambda: seen)
        assert seen == [(1, 2)]

    def test_timeouts_are_counted_apart_from_deaths(self):
        fabric = FakeFabric()

        class Hang(TransportFault):
            timed_out = True

        def frozen(tick=None):
            raise Hang("missed its deadline")

        fabric.transports[0].status = frozen
        fabric.tick()
        assert fabric.metrics.rpc_timeouts == 1
        assert fabric.metrics.shard_crashes == 1
        assert fabric.transports[0].state is ShardState.RESTARTING

    def test_forgiveness_refills_the_restart_budget(self):
        fabric = FakeFabric(restart_forgive_after_ticks=2)
        victim = fabric.transports[0]
        victim.dead = True
        tick_until(fabric, lambda: victim.starts == 2)
        assert victim.restarts == 1
        for node_id in owned(fabric, 0)[:3]:
            fabric.submit(make_event([node_id]))
        fabric.drain()
        fabric.tick()  # the sample that sees the last tick's progress
        assert victim.restarts == 0

    def test_without_forgiveness_the_budget_stays_spent(self):
        fabric = FakeFabric()
        victim = fabric.transports[0]
        victim.dead = True
        tick_until(fabric, lambda: victim.starts == 2)
        for node_id in owned(fabric, 0)[:3]:
            fabric.submit(make_event([node_id]))
        fabric.drain()
        fabric.tick()
        assert victim.restarts == 1


class TestStallWatchdog:
    def test_hung_shard_trips_after_the_configured_attempts(self):
        fabric = FakeFabric(watchdog_stall_ticks=2)
        victim = fabric.transports[0]
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        fabric.tick_filter = lambda t: t.index != 0
        fabric.tick()  # baseline sample, first hung attempt
        fabric.tick()  # flat after an attempt: 1 stalled round
        assert victim.state is ShardState.RUNNING
        assert victim.stalled_ticks == 1
        fabric.tick()  # 2 stalled rounds: trip
        assert victim.state is ShardState.RESTARTING
        assert fabric.metrics.watchdog_trips == 1
        assert fabric.metrics.shard_crashes == 0
        assert victim.kills == 1

    def test_shard_losing_the_priority_race_is_not_blamed(self):
        fabric = FakeFabric(watchdog_stall_ticks=1)
        for node_id in owned(fabric, 0)[:3]:
            fabric.submit(make_event([node_id], priority=0.9))
        fabric.submit(make_event(owned(fabric, 1)[:1], priority=0.1))
        fabric.drain()
        assert fabric.metrics.watchdog_trips == 0

    def test_lost_heartbeats_count_as_stalled_rounds(self):
        fabric = FakeFabric(watchdog_stall_ticks=2)
        fabric.heartbeat_filter = lambda t: t.index != 1
        fabric.submit(make_event(owned(fabric, 1)[:1]))
        fabric.tick()
        # No signal, so nothing is scheduled there either.
        assert "tick" not in fabric.transports[1].calls
        fabric.tick()
        assert fabric.metrics.heartbeats_lost == 2
        assert fabric.metrics.watchdog_trips == 1
        assert fabric.transports[1].state is ShardState.RESTARTING


class TestDegradeFailoverReconcile:
    def degrade(self, fabric, index):
        victim = fabric.transports[index]
        victim.restarts = fabric.config.max_shard_restarts
        victim.dead = True
        self.results = fabric.tick()  # the round goes on to tick a sibling
        assert victim.state is ShardState.DEGRADED
        return victim

    def test_budget_exhausted_hands_pending_work_to_siblings(self):
        fabric = FakeFabric()
        nodes = owned(fabric, 0)
        fabric.submit(make_event(nodes[:1], priority=0.3))
        fabric.submit(make_event(nodes[1:2], priority=0.8))
        victim = self.degrade(fabric, 0)
        assert fabric.metrics.shards_degraded == 1
        assert fabric.metrics.events_failed_over == 2
        assert [kind for kind, _ in victim.journal_log] == ["shard-degraded"]
        assert not victim.entries
        # Riskiest first, each under its ORIGINAL (parent) origin, to
        # the part's live ring successor.
        handoffs = list(victim.handed_off.values())
        assert [h["priority"] for h in handoffs] == [0.8, 0.3]
        for handoff in handoffs:
            assert handoff["origin"][0] == PARENT_ORIGIN
            target = fabric.transports[handoff["to_shard"]]
            assert handoff["to_shard"] == fabric.route(
                handoff["event"]["nodes"][0])
            assert tuple(handoff["origin"]) in target.origins_seen
        # New work for the degraded shard's nodes routes around it.
        assert 0 not in fabric.submit(make_event(nodes[2:3], priority=0.5))
        results = self.results + fabric.drain()
        assert sorted(r["nodes"] for r in results) == [
            [node] for node in nodes[:3]]
        assert all(r["shard"] != 0 for r in results)
        assert fabric.quiescent()

    def test_entry_without_an_origin_fails_over_under_its_source_identity(self):
        fabric = FakeFabric()
        fabric.transports[0].ack_can_be_lost = False
        node = owned(fabric, 0)[0]
        fabric.submit(make_event([node]))
        victim = self.degrade(fabric, 0)
        (handoff,) = victim.handed_off.values()
        assert "origin" not in handoff
        target = fabric.transports[handoff["to_shard"]]
        assert (0, handoff["event_id"]) in target.origins_seen

    def test_refused_handoff_record_leaves_the_entry_pending_at_source(self):
        fabric = FakeFabric()
        victim = fabric.transports[0]
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        victim.refuse_handoffs = True
        self.degrade(fabric, 0)
        assert fabric.metrics.events_failed_over == 0
        assert len(victim.entries) == 1
        assert fabric.quiescent()  # parked leftovers do not block

    def test_handoff_journaled_but_undelivered_is_reconciled_once(self):
        fabric = FakeFabric()
        node = owned(fabric, 0)[0]
        fabric.submit(make_event([node]))
        source = fabric.transports[0]
        (event_id, entry), = source.entries.items()
        # The kill window: handoff durable, delivery never happened.
        source.append("shard-handoff", {
            "event_id": event_id, "event": entry["event"], "priority": 1.0,
            "attempts": 0, "origin": list(entry["origin"]), "to_shard": 1})
        source.origins_seen.clear()  # as a journal without the enqueue
        assert fabric.reconcile_handoffs() == 1
        assert fabric.metrics.handoffs_reconciled == 1
        assert all_pending(fabric) == [(node,)]
        assert entry["origin"] in fabric.transports[1].origins_seen
        assert fabric.reconcile_handoffs() == 0

    def test_reconcile_reroutes_when_the_recorded_target_is_gone(self):
        fabric = FakeFabric()
        node = owned(fabric, 0)[0]
        source = fabric.transports[0]
        source.handed_off[7] = {
            "event_id": 7, "event": make_event([node]).to_payload(),
            "priority": 1.0, "attempts": 0, "to_shard": 1}
        source.state = ShardState.DEGRADED
        fabric.transports[1].state = ShardState.DEGRADED
        assert fabric.reconcile_handoffs() == 1
        assert (0, 7) in fabric.transports[2].origins_seen

    def test_parent_origin_sequence_resumes_past_recovered_origins(self):
        fabric = FakeFabric()
        fabric.transports[2].origins_seen.add((PARENT_ORIGIN, 41))
        fabric.reconcile_handoffs()
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        assert (PARENT_ORIGIN, 42) in fabric.transports[0].origins_seen

    def test_every_shard_degraded_is_an_error(self):
        fabric = FakeFabric(shards=2, max_shard_restarts=1)
        for transport in fabric.transports:
            transport.restarts = 1
            transport.dead = True
        with pytest.raises(ServiceError, match="every shard degraded"):
            fabric.tick()


class TestParkedDelivery:
    def test_part_for_a_restarting_shard_parks_and_lands_after_restart(self):
        fabric = FakeFabric(restart_backoff_base_ticks=3)
        victim = fabric.transports[0]
        victim.dead = True
        fabric.tick()
        accepted = fabric.submit(make_event(owned(fabric, 0)[:1]))
        assert accepted[0] is PARKED
        assert "deliver" not in victim.calls
        assert not fabric.quiescent()
        fabric.drain()
        assert victim.progress == 1
        assert not fabric._undelivered

    def test_refused_enqueue_parks_and_retries(self):
        fabric = FakeFabric()
        victim = fabric.transports[0]
        victim.refuse_deliveries = True
        assert fabric.submit(make_event(owned(fabric, 0)[:1]))[0] is PARKED
        fabric.tick()
        assert len(fabric._undelivered) == 1
        victim.refuse_deliveries = False
        fabric.drain()
        assert victim.progress == 1

    def test_lost_ack_is_redelivered_and_deduped_by_origin(self):
        fabric = FakeFabric()
        victim = fabric.transports[0]
        victim.lose_next_ack = True
        assert fabric.submit(make_event(owned(fabric, 0)[:1]))[0] is PARKED
        assert len(victim.entries) == 1  # durably accepted all the same
        results = fabric.drain()
        assert len(results) == 1  # processed once, not twice
        assert fabric.metrics.deliveries_deduped == 1
        assert not fabric._undelivered

    def test_lost_ack_then_degrade_fails_over_once_under_one_origin(self):
        fabric = FakeFabric()
        victim = fabric.transports[0]
        victim.restarts = fabric.config.max_shard_restarts
        victim.lose_next_ack = True
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        assert victim.state is ShardState.DEGRADED
        (handoff,) = victim.handed_off.values()
        assert tuple(handoff["origin"]) == (PARENT_ORIGIN, 1)
        results = fabric.drain()
        assert len(results) == 1
        assert not fabric._undelivered

    def test_parked_part_follows_the_ring_when_its_owner_degrades(self):
        fabric = FakeFabric(restart_backoff_base_ticks=5)
        victim = fabric.transports[0]
        victim.dead = True
        fabric.tick()
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        victim.state = ShardState.DEGRADED
        results = fabric.drain()
        assert [r["shard"] for r in results] != [0]
        assert len(results) == 1


class TestQuiescentDrainSeal:
    def test_quiescent_waits_for_queues_repairs_and_restarts(self):
        fabric = FakeFabric()
        assert fabric.quiescent()
        fabric.transports[1].repairs = 2
        assert not fabric.quiescent()
        fabric.drain()
        assert fabric.transports[1].repairs == 0
        fabric.transports[2].dead = True
        fabric.tick()
        assert not fabric.quiescent()  # a restart is scheduled

    def test_quiescent_probe_is_not_a_heartbeat(self):
        fabric = FakeFabric()
        fabric.quiescent()
        assert fabric.transports[0].calls == ["queue_state", "status"]

    def test_drain_gives_up_after_max_ticks(self):
        fabric = FakeFabric()
        fabric.submit(make_event(owned(fabric, 0)[:1]))
        fabric.tick_filter = lambda t: False
        fabric.config = SupervisorConfig(shard_count=3,
                                         watchdog_stall_ticks=10_000)
        with pytest.raises(ServiceError, match="did not converge"):
            fabric.drain(max_ticks=5)

    def test_seal_skips_degraded_and_survives_one_bad_shard(self):
        fabric = FakeFabric()
        fabric.transports[0].state = ShardState.DEGRADED
        fabric.transports[1].dead = True
        sealed = fabric.seal(reason="test")
        assert sealed == {0: False, 1: False, 2: True}
        assert fabric.transports[2].sealed_with == "test"

    def test_summary_reports_counters_and_every_shard(self):
        fabric = FakeFabric()
        fabric.transports[0].dead = True
        fabric.tick()
        summary = fabric.summary()
        assert summary["shard_crashes"] == 1
        assert summary["undelivered"] == 0
        assert summary["shards"]["shard-00"]["state"] == "restarting"
        assert sorted(summary["shards"]) == ["shard-00", "shard-01",
                                             "shard-02"]
