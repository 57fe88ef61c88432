"""One supervision contract, two shard transports.

Every scenario here runs twice -- over in-thread shards
(:class:`ShardSupervisor`) and over real worker processes
(:class:`ProcessFabric`) -- with the *same* control plane behind each
(one builder makes the fleet, criteria, selector and service config
for both), and judges the outcome from the shard journals alone.  The
supervisory policy is shared code, so what is checked is that each
transport honours it: same routing, same restart/degrade/failover
decisions, same exactly-once accounting.

The scripted-fake suite (``tests/test_supervisor_machine.py``) covers
the state machine's decisions exhaustively and cheaply; this file
keeps to what only a real transport can get wrong.
"""

import os
import signal
from pathlib import Path

import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.persistence import load_criteria, save_criteria
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.service import (
    JournalStore,
    PoolConfig,
    ProcessFabric,
    ServiceConfig,
    ShardCrash,
    ShardState,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.service.store import RecordKind
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

REPO = Path(__file__).resolve().parents[1]
SUITE = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
MIX = {"A100": 0.5, "H100": 0.25, "MI250X": 0.25}
SHARDS = 3
TRANSPORTS = ["thread", "process"]


def build_fleet_and_dataset():
    fleet = build_fleet(12, seed=2, sku_mix=MIX)
    dataset = extract_status_samples(
        generate_incident_trace(50, 800.0, seed=11))
    return fleet, dataset


def build_worker(args: dict):
    """``(anubis, nodes, service_config)`` for one shard -- resolved
    by name inside worker processes, called directly for in-thread
    shards.  ``fail_once_flag`` names a file whose presence makes the
    next planned event raise (one contained tick failure)."""
    fleet, dataset = build_fleet_and_dataset()
    validator = Validator(SUITE, runner=SuiteRunner(seed=9))
    load_criteria(validator, args["criteria_path"])
    selector = Selector(ExponentialModel().fit(dataset),
                        analytic_coverage_table(SUITE),
                        suite_durations(SUITE), p0=0.05)
    anubis = Anubis(validator, selector)
    flag = args.get("fail_once_flag")
    if flag is not None:
        plan = anubis.plan

        def plan_or_fail(event):
            if os.path.exists(flag):
                os.unlink(flag)
                raise RuntimeError("injected tick failure")
            return plan(event)

        anubis.plan = plan_or_fail
    pool = PoolConfig(max_workers=2, benchmark_timeout_seconds=2.0,
                      max_attempts=1, backoff_base_seconds=0.0,
                      poll_interval_seconds=0.005)
    return anubis, fleet.nodes, ServiceConfig(pool=pool)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    fleet, dataset = build_fleet_and_dataset()
    validator = Validator(SUITE, runner=SuiteRunner(seed=9))
    validator.learn_criteria(fleet.nodes)
    path = tmp_path_factory.mktemp("criteria") / "criteria.json"
    save_criteria(validator, path)
    return fleet, dataset, str(path)


class Fabric:
    """One fabric of either transport, plus the two things the
    transports do differently by nature: how a shard is made to die,
    and how the fabric is put away."""

    def __init__(self, transport, root, world, monkeypatch, *,
                 fail_once_flag=None, **config):
        self.transport = transport
        self.root = Path(root)
        self.fleet, self.dataset, criteria_path = world
        args = {"criteria_path": criteria_path,
                "fail_once_flag": fail_once_flag}
        if transport == "process":
            # Workers resolve the builder by module name.
            monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
                [str(REPO), os.environ.get("PYTHONPATH", "")]))
            self.fabric = ProcessFabric(
                builder="tests.test_fabric_contract:build_worker",
                builder_args=args, journal_root=root,
                config=SupervisorConfig(shard_count=SHARDS, **config),
                status_deadline_seconds=30.0, tick_deadline_seconds=60.0)
        else:
            _anubis, nodes, service = build_worker(args)
            self.fabric = ShardSupervisor(
                lambda: build_worker(args)[0], nodes, journal_root=root,
                config=SupervisorConfig(shard_count=SHARDS, service=service,
                                        **config))
        self.shards = self.fabric.transports

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self.transport == "process":
            return self.fabric.shutdown()
        return self.fabric.seal(reason="shutdown")

    def event(self, indices, *, duration=24.0,
              kind=EventKind.INCIDENT_REPORTED):
        nodes = tuple(self.fleet.nodes[i] for i in indices)
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=self.dataset.covariates[
                           i % len(self.dataset)])
            for i, node in enumerate(nodes))
        return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                               duration_hours=duration)

    def owned(self, shard):
        """Fleet indexes of the nodes routed to ``shard`` right now."""
        return [i for i, node in enumerate(self.fleet.nodes)
                if self.fabric.route(node.node_id) == shard]

    def crash(self, shard):
        """Kill one shard: a real ``SIGKILL`` for a worker process, a
        :class:`ShardCrash` out of its next tick for an in-thread
        shard (so that one needs pending work to be noticed)."""
        if self.transport == "process":
            os.kill(self.shards[shard].proc.pid, signal.SIGKILL)
            return

        def crash_hook(entry):
            raise ShardCrash(f"injected crash of shard {shard}")

        self.shards[shard].service.tick_hook = crash_hook

    def exhaust_budget(self, shard):
        self.shards[shard].restarts = self.fabric.config.max_shard_restarts

    def records(self, shard, kind=None):
        records = JournalStore(
            self.root / f"shard-{shard:02d}").replay()
        return [r for r in records if kind is None or r.kind == kind]


def part_key(payload):
    return frozenset(payload["event"]["nodes"])


def assert_exactly_once(fabric, expected_parts):
    """Every expected node set was enqueued once fabric-wide (counting
    a handed-off entry at its final shard only), every enqueue that
    was not handed off completed, and no origin was accepted twice."""
    placed, origins = [], []
    for shard in range(SHARDS):
        moved = {r.payload["event_id"]
                 for r in fabric.records(shard, RecordKind.SHARD_HANDOFF)}
        done = {r.payload["event_id"]
                for r in fabric.records(shard, RecordKind.EVENT_COMPLETED)}
        for record in fabric.records(shard, RecordKind.EVENT_ENQUEUED):
            event_id = record.payload["event_id"]
            if event_id in moved:
                continue  # counted where it landed, under the same origin
            if record.payload.get("origin") is not None:
                origins.append(tuple(record.payload["origin"]))
            placed.append(part_key(record.payload))
            assert event_id in done, (
                f"shard {shard} event {event_id} never completed")
    assert sorted(placed, key=sorted) == sorted(expected_parts, key=sorted)
    assert len(origins) == len(set(origins))


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFabricContract:
    def test_split_drain_seal(self, transport, tmp_path, world,
                              monkeypatch):
        with Fabric(transport, tmp_path / "j", world, monkeypatch) as f:
            accepted = f.fabric.submit(f.event(range(12)))
            assert len(accepted) >= 2  # 12 nodes over 3 shards must split
            expected = [frozenset(f.fleet.nodes[i].node_id
                                  for i in f.owned(shard))
                        for shard in accepted]
            results = f.fabric.drain(max_ticks=300)
            assert len(results) == len(accepted)
            assert f.fabric.quiescent()
            assert f.fabric.metrics.shard_crashes == 0
            assert all(f.close().values())
        assert_exactly_once(f, expected)
        for shard in range(SHARDS):
            assert f.records(shard)[-1].kind == RecordKind.FABRIC_DRAIN

    def test_crashed_shard_restarts_from_its_journal(
            self, transport, tmp_path, world, monkeypatch):
        with Fabric(transport, tmp_path / "j", world, monkeypatch) as f:
            victim = f.owned(0)
            other = f.owned(1)
            events = [f.event([victim[0]]), f.event([victim[1]]),
                      f.event([other[0]])]
            for event in events:
                f.fabric.submit(event)
            f.crash(0)
            results = f.fabric.drain(max_ticks=300)
            assert len(results) == 3
            assert f.shards[0].state is ShardState.RUNNING
            assert f.shards[0].restarts == 1
            assert f.fabric.metrics.shard_crashes == 1
            assert f.fabric.metrics.shard_restarts == 1
            # Blast radius: no sibling was restarted.
            assert all(s.restarts == 0 for s in f.shards[1:])
        assert_exactly_once(
            f, [frozenset(n.node_id for n in e.nodes) for e in events])

    def test_degraded_shard_hands_off_its_merged_queue_state(
            self, transport, tmp_path, world, monkeypatch):
        """A coalesced repeat (longer window, higher risk) and a
        contained tick failure change a pending entry *after* its
        enqueue record; what fails over must be the entry as it stood
        at death, not as it was first journaled."""
        flag = tmp_path / "fail-once"
        with Fabric(transport, tmp_path / "j", world, monkeypatch,
                    fail_once_flag=str(flag)) as f:
            index = f.owned(0)[0]
            first = f.event([index], duration=24.0,
                            kind=EventKind.JOB_ALLOCATION)
            f.fabric.submit(first)
            f.fabric.submit(f.event([index], duration=240.0,
                                    kind=EventKind.JOB_ALLOCATION))
            flag.touch()
            assert f.fabric.tick() and not flag.exists()  # one failed tick
            f.exhaust_budget(0)
            f.crash(0)
            results = f.fabric.drain(max_ticks=300)
            assert f.shards[0].state is ShardState.DEGRADED
            assert f.fabric.metrics.events_failed_over == 1
            assert len(results) == 1
            # New work for the degraded shard's nodes routes around it.
            assert 0 not in f.fabric.submit(first)
            f.fabric.drain(max_ticks=300)

        (enqueued,) = f.records(0, RecordKind.EVENT_ENQUEUED)
        (coalesced,) = f.records(0, RecordKind.EVENT_COALESCED)
        (handoff,) = f.records(0, RecordKind.SHARD_HANDOFF)
        assert coalesced.payload["priority"] > enqueued.payload["priority"]
        assert handoff.payload["priority"] == coalesced.payload["priority"]
        assert handoff.payload["event"]["duration_hours"] == 240.0
        assert handoff.payload["attempts"] == 1
        # The sibling's entry is the merged event, under the origin
        # the entry always had (or its identity at the source).
        target = handoff.payload["to_shard"]
        origin = (enqueued.payload.get("origin")
                  or [0, enqueued.payload["event_id"]])
        (landed, _resubmitted) = f.records(target, RecordKind.EVENT_ENQUEUED)
        assert landed.payload["origin"] == origin
        assert landed.payload["event"]["duration_hours"] == 240.0
        assert landed.payload["priority"] == pytest.approx(
            coalesced.payload["priority"])

    def test_undelivered_handoff_is_reconciled_exactly_once(
            self, transport, tmp_path, world, monkeypatch):
        """The narrowest kill window: the handoff record is durable,
        the sibling's enqueue never happened."""
        root = tmp_path / "j"
        with Fabric(transport, root, world, monkeypatch) as f:
            event = f.event([f.owned(0)[0]])
            f.fabric.submit(event)
        (enqueued,) = f.records(0, RecordKind.EVENT_ENQUEUED)
        JournalStore(root / "shard-00").append(
            RecordKind.SHARD_HANDOFF, {**enqueued.payload, "to_shard": 1})

        with Fabric(transport, root, world, monkeypatch) as f:
            assert f.fabric.metrics.handoffs_reconciled == 1
            assert len(f.fabric.drain(max_ticks=300)) == 1
        with Fabric(transport, root, world, monkeypatch) as f:
            assert f.fabric.metrics.handoffs_reconciled == 0
            assert f.fabric.quiescent()
        assert_exactly_once(f, [frozenset(n.node_id for n in event.nodes)])
        assert len(f.records(1, RecordKind.EVENT_ENQUEUED)) == 1

    def test_sku_affinity_colocates_and_fails_over_as_a_unit(
            self, transport, tmp_path, world, monkeypatch):
        with Fabric(transport, tmp_path / "j", world, monkeypatch,
                    sku_affinity=True) as f:
            def homes():
                routes = {}
                for node in f.fleet.nodes:
                    routes.setdefault(node.sku, set()).add(
                        f.fabric.route(node.node_id))
                return routes

            before = homes()
            assert set(before) == set(MIX)
            assert all(len(shards) == 1 for shards in before.values())
            (victim,) = before["H100"]
            h100 = [i for i, node in enumerate(f.fleet.nodes)
                    if node.sku == "H100"]
            for index in h100[:2]:
                f.fabric.submit(f.event([index]))
            assert len(f.records(victim, RecordKind.EVENT_ENQUEUED)) == 2

            f.exhaust_budget(victim)
            f.crash(victim)
            results = f.fabric.drain(max_ticks=300)
            assert f.shards[victim].state is ShardState.DEGRADED
            assert len(results) == 2
            after = homes()
            (fallback,) = after["H100"]
            assert fallback != victim
            for sku in after:
                if before[sku] == {victim}:
                    assert after[sku] == {fallback}  # moved whole
                else:
                    assert after[sku] == before[sku]  # never moved
        handoffs = f.records(victim, RecordKind.SHARD_HANDOFF)
        assert [h.payload["to_shard"] for h in handoffs] == [fallback] * 2

    def test_restart_budget_is_forgiven_after_sustained_progress(
            self, transport, tmp_path, world, monkeypatch):
        with Fabric(transport, tmp_path / "j", world, monkeypatch,
                    restart_forgive_after_ticks=2) as f:
            owned = f.owned(0)
            f.fabric.submit(f.event([owned[0]]))
            f.crash(0)
            f.fabric.drain(max_ticks=300)
            assert f.shards[0].restarts == 1
            for index in owned[1:4]:
                f.fabric.submit(f.event([index]))
            f.fabric.drain(max_ticks=300)
            f.fabric.tick()  # the sample that sees the last tick's progress
            assert f.shards[0].restarts == 0
            assert f.fabric.metrics.shard_restarts == 1

    def test_lost_heartbeats_trip_the_one_watchdog(
            self, transport, tmp_path, world, monkeypatch):
        with Fabric(transport, tmp_path / "j", world, monkeypatch,
                    watchdog_stall_ticks=2) as f:
            event = f.event([f.owned(0)[0]])
            f.fabric.submit(event)
            f.fabric.heartbeat_filter = lambda shard: shard.index != 0
            f.fabric.tick()
            assert f.shards[0].state is ShardState.RUNNING
            f.fabric.tick()
            assert f.shards[0].state is ShardState.RESTARTING
            assert f.fabric.metrics.watchdog_trips == 1
            assert f.fabric.metrics.heartbeats_lost == 2
            f.fabric.heartbeat_filter = None
            assert len(f.fabric.drain(max_ticks=300)) == 1
            assert f.shards[0].state is ShardState.RUNNING
        assert_exactly_once(f, [frozenset(n.node_id for n in event.nodes)])

    def test_live_state_of_a_quiescent_shard_is_its_journal_fold(
            self, transport, tmp_path, world, monkeypatch):
        """What a running shard answers for its state is what its
        journal folds to once it is dead: one state, read two ways."""
        with Fabric(transport, tmp_path / "j", world, monkeypatch) as f:
            owned = f.owned(0)
            f.fabric.submit(f.event(range(12)))
            for index in owned[:2]:
                f.fabric.submit(f.event([index],
                                        kind=EventKind.JOB_ALLOCATION))
            f.fabric.drain(max_ticks=300)
            assert f.fabric.quiescent()
            shard = f.shards[0]
            live = shard.queue_state()
            f.crash(0)
            shard.ensure_dead()
            dead = shard.queue_state()
        assert live.metrics.events_processed >= 1
        assert live.coverage and live.criteria is not None
        assert dead.to_payload() == live.to_payload()
