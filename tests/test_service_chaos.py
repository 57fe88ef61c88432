"""Unit tests: the deterministic chaos harness (plan, wrappers,
install/uninstall)."""

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analytics.reader import JournalReader
from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.exceptions import ChaosError, JournalError, ServiceError
from repro.service import (
    ChaosPlan,
    ChaosRunner,
    JournalStore,
    NodeState,
    QueuedEvent,
    SimulatedKill,
    install_chaos,
)
from repro.service.chaos import (
    ChaosJournalStore,
    ChaosMonkey,
    ShardChaosMonkey,
    ShardCrash,
    poison_key,
)


@dataclass(frozen=True)
class FakeSpec:
    name: str


@dataclass(frozen=True)
class FakeNode:
    node_id: str


class EchoRunner:
    """Plain runner the wrappers delegate to."""

    marker = "echo"

    def __init__(self):
        self.calls = []

    def run(self, spec, node):
        self.calls.append((node.node_id, spec.name))
        return f"result:{node.node_id}:{spec.name}"


def make_event(node_ids, kind=EventKind.JOB_ALLOCATION):
    nodes = tuple(FakeNode(n) for n in node_ids)
    statuses = tuple(
        NodeStatus(node_id=n, covariates=np.zeros(3)) for n in node_ids)
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=24.0)


class RecordingStore:
    """Stand-in journal: records the appends that reach it."""

    def __init__(self):
        self.kinds = []

    def append(self, kind, payload, *, fsync=None):
        self.kinds.append(kind)
        return len(self.kinds)


def stand_in_service(store=None):
    return SimpleNamespace(
        anubis=SimpleNamespace(validator=SimpleNamespace(runner=EchoRunner())),
        store=store, tick_hook=None, repair_hook=None)


def stand_in_shard(index, restarts=0):
    return SimpleNamespace(
        index=index, restarts=restarts,
        service=SimpleNamespace(store=RecordingStore(), tick_hook=None))


#: The record kinds the journal decisions below were pinned over, in
#: the order they cycle.  A literal, so a kind added to or dropped from
#: the registry cannot move the pins.
PINNED_KINDS = (
    "event-enqueued", "event-coalesced", "event-completed", "event-failed",
    "event-dead-lettered", "transition", "criteria-snapshot",
    "criteria-rollback", "criteria-learn", "state-snapshot",
    "measurement-batch", "batch-provenance", "breaker-transition",
    "pipeline-stats", "load-shed", "shard-heartbeat", "shard-degraded",
    "shard-handoff", "fabric-drain", "proc-heartbeat", "proc-restart",
)


def journal_kinds(count, *, inline=False):
    """``(n, kind)`` for appends 1..``count``, cycling :data:`PINNED_KINDS`.

    Inline draws key on ``str(kind)`` of a registry member
    (``"RecordKind.EVENT_ENQUEUED"``), shard draws on its value, so
    ``inline`` gives the first form and the default the second.
    """
    kinds = PINNED_KINDS
    if inline:
        kinds = tuple("RecordKind." + kind.upper().replace("-", "_")
                      for kind in kinds)
    return [(n, kinds[n % len(kinds)]) for n in range(1, count + 1)]


def make_monkey(plan):
    """A ChaosMonkey over a minimal stand-in service object."""
    return ChaosMonkey(stand_in_service(), plan)


class TestChaosPlan:
    @pytest.mark.parametrize("kwargs", [
        {"executor_crash_rate": -0.1},
        {"executor_crash_rate": 1.5},
        {"journal_error_rate": 2.0},
        {"kill_rate": -1.0},
        {"tick_error_rate": 1.01},
        {"repair_failure_rate": -0.5},
        {"hang_seconds": -1.0},
        {"kill_after_appends": -1},
        {"broken_benchmark_crashes": -1},
        {"hang_rate": 1.5},
        {"hang_after_ticks": -1},
        {"incarnation": -1},
    ])
    def test_invalid_plan_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            ChaosPlan(seed=0, **kwargs)

    def test_chance_is_deterministic_per_key(self):
        plan_a = ChaosPlan(seed=42)
        plan_b = ChaosPlan(seed=42)
        keys = [("executor-crash", f"n{i}", "bench", i) for i in range(64)]
        draws_a = [plan_a.chance(0.3, *key) for key in keys]
        draws_b = [plan_b.chance(0.3, *key) for key in keys]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)  # rate actually bites

    def test_chance_extremes(self):
        plan = ChaosPlan(seed=1)
        assert not plan.chance(0.0, "x")
        assert plan.chance(1.0, "x")

    def test_different_seeds_draw_differently(self):
        keys = [("k", i) for i in range(128)]
        a = [ChaosPlan(seed=1).chance(0.5, *key) for key in keys]
        b = [ChaosPlan(seed=2).chance(0.5, *key) for key in keys]
        assert a != b

    def test_payload_round_trip_keeps_set_fields(self):
        plan = ChaosPlan(
            seed=3, target_shards=(2, 0), fault_nodes=frozenset({"n1"}),
            poison_event_keys=frozenset({("job-allocation", ("a", "b"))}))
        payload = json.loads(json.dumps(plan.to_payload()))
        assert ChaosPlan.from_payload(payload) == plan
        assert ChaosPlan.from_payload({"seed": 3}) == ChaosPlan(seed=3)

    def test_poison_key_matches_coalescing_identity(self):
        event = make_event(["b", "a"])
        assert poison_key(event) == ("job-allocation", ("a", "b"))


class TestChaosRunner:
    def test_passthrough_without_faults(self):
        monkey = make_monkey(ChaosPlan(seed=0))
        inner = EchoRunner()
        runner = ChaosRunner(inner, monkey.plan, monkey)
        assert runner.run(FakeSpec("b"), FakeNode("n0")) == "result:n0:b"
        assert inner.calls == [("n0", "b")]
        assert runner.marker == "echo"  # __getattr__ delegation

    def test_crash_rate_one_always_raises(self):
        monkey = make_monkey(ChaosPlan(seed=0, executor_crash_rate=1.0))
        runner = ChaosRunner(EchoRunner(), monkey.plan, monkey)
        with pytest.raises(ChaosError, match="injected executor crash"):
            runner.run(FakeSpec("b"), FakeNode("n0"))
        assert monkey.injections["executor_crash"] == 1

    def test_hang_sleeps_then_fails_without_running(self):
        monkey = make_monkey(ChaosPlan(seed=0, executor_hang_rate=1.0,
                                       hang_seconds=0.0))
        inner = EchoRunner()
        runner = ChaosRunner(inner, monkey.plan, monkey)
        with pytest.raises(ChaosError, match="injected executor hang"):
            runner.run(FakeSpec("b"), FakeNode("n0"))
        # The hung execution never reaches the wrapped runner: a late
        # run would perturb its keyed measurement stream.
        assert inner.calls == []
        assert monkey.injections["executor_hang"] == 1

    def test_fault_nodes_scopes_injection(self):
        monkey = make_monkey(ChaosPlan(seed=0, executor_crash_rate=1.0,
                                       fault_nodes=frozenset({"bad"})))
        runner = ChaosRunner(EchoRunner(), monkey.plan, monkey)
        assert runner.run(FakeSpec("b"), FakeNode("ok")) == "result:ok:b"
        with pytest.raises(ChaosError):
            runner.run(FakeSpec("b"), FakeNode("bad"))

    def test_broken_benchmark_crashes_then_heals(self):
        monkey = make_monkey(ChaosPlan(
            seed=0, broken_benchmarks=frozenset({"bad-bench"}),
            broken_benchmark_crashes=3))
        runner = ChaosRunner(EchoRunner(), monkey.plan, monkey)
        for _ in range(3):
            with pytest.raises(ChaosError, match="harness regression"):
                runner.run(FakeSpec("bad-bench"), FakeNode("n0"))
        # Healed: the fourth execution (and others) pass through.
        assert runner.run(FakeSpec("bad-bench"),
                          FakeNode("n0")) == "result:n0:bad-bench"
        assert runner.run(FakeSpec("other"), FakeNode("n0")) == "result:n0:other"
        assert monkey.injections["broken_benchmark_crash"] == 3


def armed_store(tmp_path, plan):
    """An inline-armed journal over ``tmp_path`` and its monkey."""
    service = stand_in_service(JournalStore(tmp_path))
    monkey = install_chaos(service, plan)
    return service.store, monkey


class TestChaosJournalStore:
    def test_kill_after_appends_is_exact(self, tmp_path):
        store, monkey = armed_store(tmp_path,
                                    ChaosPlan(seed=0, kill_after_appends=2))
        assert store.append("a", {}) == 1
        assert store.append("b", {}) == 2
        with pytest.raises(SimulatedKill):
            store.append("c", {})
        # The kill happened *before* the write: two durable records.
        assert [r.kind for r in JournalStore(tmp_path).replay()] == ["a", "b"]
        assert monkey.injections["kill"] == 1

    def test_kill_after_zero_appends_dies_immediately(self, tmp_path):
        store, _ = armed_store(tmp_path,
                               ChaosPlan(seed=0, kill_after_appends=0))
        with pytest.raises(SimulatedKill):
            store.append("a", {})
        assert JournalStore(tmp_path).replay() == []

    def test_journal_error_rate_one_always_raises(self, tmp_path):
        store, monkey = armed_store(tmp_path,
                                    ChaosPlan(seed=0, journal_error_rate=1.0))
        with pytest.raises(JournalError, match="injected journal write"):
            store.append("a", {})
        assert monkey.injections["journal_error"] == 1

    def test_replay_and_attributes_pass_through(self, tmp_path):
        JournalStore(tmp_path).append("a", {"x": 1})
        store, _ = armed_store(tmp_path, ChaosPlan(seed=0))
        assert [r.kind for r in store.replay()] == ["a"]
        assert store.path == JournalStore(tmp_path).path


class TestShardJournalCorruption:
    """``journal_corrupt_rate`` picks its victim by each line's decoded
    kind, so it fires whatever separators the journal was written with."""

    def test_corrupt_rate_one_truncates_a_redundant_line(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("event-enqueued", {"event_id": 1})
        store.append("shard-heartbeat", {"depth": 0})
        store.append("event-completed", {"event_id": 1})
        shard = SimpleNamespace(index=0, restarts=0,
                                service=SimpleNamespace(store=store))
        monkey = ShardChaosMonkey(SimpleNamespace(shards=[shard]),
                                  ChaosPlan(seed=0,
                                            journal_corrupt_rate=1.0))
        assert monkey.heartbeat_filter(shard)
        assert monkey.injections["journal_corruption"] >= 1

        replayed = [r.kind for r in JournalStore(tmp_path).replay()]
        assert len(replayed) == 2
        assert replayed[0] == "event-enqueued"   # never a victim
        reader = JournalReader(tmp_path)
        assert [r.kind for r in reader.read_all()] == replayed
        assert reader.corrupt_lines == 1


class TestTransportFit:
    """A plan setting a fault its transport cannot inject is refused on
    install, not silently ignored (the process transport's twin is in
    ``tests/test_procfabric.py``)."""

    def test_inline_refuses_shard_faults(self):
        service = stand_in_service()
        with pytest.raises(ServiceError,
                           match="inline transport cannot inject crash_rate"):
            install_chaos(service, ChaosPlan(seed=1, crash_rate=0.1))
        assert service.tick_hook is None

    def test_thread_refuses_prefix_kill(self):
        supervisor = SimpleNamespace(shards=[stand_in_shard(0)],
                                     tick_filter=None)
        with pytest.raises(ServiceError, match="thread transport cannot "
                                               "inject kill_after_appends"):
            install_chaos(supervisor, ChaosPlan(seed=1, kill_after_appends=3))
        assert supervisor.tick_filter is None

    def test_unknown_target_is_refused(self):
        with pytest.raises(ServiceError, match="ProcessFabric"):
            install_chaos(object(), ChaosPlan(seed=1))


class TestInstallUninstall:
    def test_install_wraps_and_uninstall_restores(self, tmp_path):
        runner = EchoRunner()
        store = JournalStore(tmp_path)
        service = SimpleNamespace(
            anubis=SimpleNamespace(validator=SimpleNamespace(runner=runner)),
            store=store, tick_hook=None, repair_hook=None)
        monkey = install_chaos(service, ChaosPlan(seed=0))
        assert isinstance(service.anubis.validator.runner, ChaosRunner)
        assert isinstance(service.store, ChaosJournalStore)
        assert service.tick_hook == monkey.tick_hook
        assert service.repair_hook == monkey.repair_hook
        monkey.uninstall()
        assert service.anubis.validator.runner is runner
        assert service.store is store
        assert service.tick_hook is None and service.repair_hook is None

    def test_poison_event_always_fails_tick_hook(self):
        event = make_event(["a", "b"])
        monkey = make_monkey(ChaosPlan(
            seed=0, poison_event_keys=frozenset({poison_key(event)})))
        entry = QueuedEvent(event_id=1, event=event, priority=0.5)
        with pytest.raises(ChaosError, match="poison"):
            monkey.tick_hook(entry)
        assert monkey.injections["poison_tick"] == 1
        # Other events pass.
        other = QueuedEvent(event_id=2, event=make_event(["c"]), priority=0.5)
        monkey.tick_hook(other)

    def test_repair_hook_injects_at_rate_one(self):
        monkey = make_monkey(ChaosPlan(seed=0, repair_failure_rate=1.0))
        with pytest.raises(ChaosError, match="injected repair failure"):
            monkey.repair_hook("n0", NodeState.IN_REPAIR)
        assert monkey.injections["repair_failure"] == 1


#: The decision points the oracle below pins (measured once; frozen).
EXECUTOR_FIRED = {
    ("crash", "n0", "b1", 2), ("crash", "n0", "b1", 3),
    ("crash", "n0", "b2", 1), ("crash", "n1", "b0", 1),
    ("crash", "n1", "b1", 1), ("crash", "n1", "b2", 1),
    ("crash", "n1", "b2", 3), ("hang", "n0", "b2", 2),
    ("hang", "n1", "b0", 3), ("hang", "n2", "b0", 0),
}
INLINE_JOURNAL_FIRED = {
    ("error", 1), ("error", 3), ("error", 4), ("error", 9), ("error", 10),
    ("error", 12), ("error", 18), ("error", 25), ("error", 28),
    ("kill", 14), ("kill", 19), ("kill", 33),
}
TICK_FIRED = {
    ("incident-reported", ("a",), 0), ("incident-reported", ("a",), 4),
    ("incident-reported", ("a", "b"), 0),
    ("incident-reported", ("a", "b"), 3),
    ("incident-reported", ("a", "b"), 4),
    ("incident-reported", ("b", "d"), 2),
    ("incident-reported", ("c",), 1), ("incident-reported", ("c",), 3),
}
REPAIR_FIRED = {
    ("n1", "in-repair", 0), ("n1", "returning", 1), ("n1", "returning", 2),
    ("n1", "returning", 3), ("n2", "healthy", 0), ("n2", "returning", 3),
    ("n3", "in-repair", 2), ("n3", "in-repair", 3),
}
SHARD_FIRED = {
    ("crash", 0, 0, 0), ("crash", 1, 1, 0), ("crash", 1, 1, 3),
    ("crash", 1, 2, 3),
    ("error", 0, 0, 11), ("error", 0, 1, 10), ("error", 0, 1, 11),
    ("error", 1, 0, 5), ("error", 1, 1, 5), ("error", 1, 1, 11),
    ("error", 1, 2, 2), ("error", 1, 2, 7), ("error", 1, 2, 9),
    ("error", 1, 2, 10),
    ("hang", 0, 0, 0), ("hang", 0, 2, 6),
    ("heartbeat", 0, 1), ("heartbeat", 0, 4), ("heartbeat", 1, 0),
    ("heartbeat", 1, 5),
    ("kill", 0, 0, 2),
}
CORRUPT_PICKS = [5, 5, 1, 0, 4, 4, 0, 2, 5, 6, 2, 1]
PROCESS_KILLS = {
    (0, 1, 1), (0, 1, 7), (0, 1, 8), (0, 1, 9), (0, 1, 10),
    (1, 1, 1), (1, 1, 2), (1, 1, 7), (1, 1, 8), (1, 1, 9), (1, 1, 10),
    (1, 2, 8), (1, 2, 9),
}
PROCESS_STOPS = {
    (0, 1, 1), (0, 1, 5), (0, 1, 6), (0, 1, 7), (0, 1, 8), (0, 1, 9),
    (0, 1, 10), (1, 0, 9), (1, 1, 5), (1, 1, 6), (1, 1, 7), (1, 1, 8),
    (1, 1, 9), (1, 1, 10),
}


class TestDecisionOracle:
    """Every seeded decision point, pinned to the exact set that fires.

    The literals were measured once and must never change: a refactor
    of the chaos harness that keeps them keeps every seeded soak
    injecting the same faults at the same points.
    """

    def test_executor_crash_and_hang(self):
        service = stand_in_service()
        install_chaos(service, ChaosPlan(
            seed=11, executor_crash_rate=0.15, executor_hang_rate=0.15,
            hang_seconds=0.0))
        runner = service.anubis.validator.runner
        fired = set()
        for node in ("n0", "n1", "n2", "n3"):
            for bench in ("b0", "b1", "b2"):
                for call in range(4):
                    try:
                        runner.run(FakeSpec(bench), FakeNode(node))
                    except ChaosError as error:
                        fault = "crash" if "crash" in str(error) else "hang"
                        fired.add((fault, node, bench, call))
        assert fired == EXECUTOR_FIRED

    def test_inline_journal_kill_and_error(self):
        service = stand_in_service(RecordingStore())
        install_chaos(service, ChaosPlan(seed=5, kill_rate=0.08,
                                         journal_error_rate=0.15))
        fired = set()
        for n, kind in journal_kinds(40, inline=True):
            try:
                service.store.append(kind, {})
            except SimulatedKill:
                fired.add(("kill", n))
            except JournalError:
                fired.add(("error", n))
        assert fired == INLINE_JOURNAL_FIRED

    def test_tick_and_repair_hooks(self):
        service = stand_in_service()
        monkey = install_chaos(service, ChaosPlan(
            seed=17, tick_error_rate=0.2, repair_failure_rate=0.25))
        ticks = set()
        for kind in (EventKind.JOB_ALLOCATION, EventKind.INCIDENT_REPORTED):
            for nodes in (("a",), ("a", "b"), ("c",), ("b", "d")):
                for attempts in range(5):
                    entry = QueuedEvent(event_id=1,
                                        event=make_event(nodes, kind),
                                        priority=0.5, attempts=attempts)
                    try:
                        monkey.tick_hook(entry)
                    except ChaosError:
                        ticks.add((kind.value, nodes, attempts))
        repairs = set()
        for node in ("n0", "n1", "n2", "n3"):
            for target in (NodeState.IN_REPAIR, NodeState.RETURNING,
                           NodeState.HEALTHY):
                for attempt in range(4):
                    try:
                        monkey.repair_hook(node, target)
                    except ChaosError:
                        repairs.add((node, target.value, attempt))
        assert ticks == TICK_FIRED
        assert repairs == REPAIR_FIRED

    def test_shard_faults(self):
        shards = [stand_in_shard(0), stand_in_shard(1)]
        supervisor = SimpleNamespace(shards=shards, tick_filter=None,
                                     heartbeat_filter=None, on_restart=None)
        monkey = install_chaos(supervisor, ChaosPlan(
            seed=23, crash_rate=0.1, hang_rate=0.1, heartbeat_loss_rate=0.2,
            journal_error_rate=0.1, kill_rate=0.05))
        fired = set()
        for index, shard in enumerate(shards):
            for restarts in range(3):
                if restarts:
                    shards[index] = shard = stand_in_shard(index, restarts)
                    monkey.on_restart(shard)
                for call in range(8):
                    try:
                        shard.service.tick_hook(SimpleNamespace(event_id=call))
                    except ShardCrash:
                        fired.add(("crash", index, restarts, call))
                for call in range(8):
                    before = monkey.injections["shard_hang"]
                    monkey.tick_filter(shard)
                    if monkey.injections["shard_hang"] > before:
                        fired.add(("hang", index, restarts, call))
                for n, kind in journal_kinds(12):
                    try:
                        shard.service.store.append(kind, {})
                    except ShardCrash:
                        fired.add(("kill", index, restarts, n))
                    except JournalError:
                        fired.add(("error", index, restarts, n))
            for beat in range(10):
                if not monkey.heartbeat_filter(shard):
                    fired.add(("heartbeat", index, beat))
        assert fired == SHARD_FIRED
        picks = [monkey.plan.pick(7, "corrupt-line", index, call)
                 for index in range(2) for call in range(6)]
        assert picks == CORRUPT_PICKS

    def test_process_kill_and_stop(self):
        plan = ChaosPlan(seed=31, target_shards=(0, 1),
                         kill_after_appends=6, incarnation=1,
                         kill_rate=0.05, hang_after_ticks=4,
                         hang_rate=0.05)
        grid = [(shard, incarnation, counter) for shard in range(3)
                for incarnation in range(3) for counter in range(1, 11)]
        kills = {point for point in grid if plan.should_kill(*point)}
        stops = {point for point in grid if plan.should_stop(*point)}
        assert kills == PROCESS_KILLS
        assert stops == PROCESS_STOPS
