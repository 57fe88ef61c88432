"""Unit tests: the deterministic chaos harness (plan, wrappers,
install/uninstall)."""

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
    ShardChaosPlan,
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


def make_monkey(plan):
    """A ChaosMonkey over a minimal stand-in service object."""
    service = SimpleNamespace(
        anubis=SimpleNamespace(validator=SimpleNamespace(runner=EchoRunner())),
        store=None, tick_hook=None, repair_hook=None)
    return ChaosMonkey(service, plan)


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


class TestChaosJournalStore:
    def test_kill_after_appends_is_exact(self, tmp_path):
        monkey = make_monkey(ChaosPlan(seed=0, kill_after_appends=2))
        store = ChaosJournalStore(JournalStore(tmp_path), monkey.plan, monkey)
        assert store.append("a", {}) == 1
        assert store.append("b", {}) == 2
        with pytest.raises(SimulatedKill):
            store.append("c", {})
        # The kill happened *before* the write: two durable records.
        assert [r.kind for r in JournalStore(tmp_path).replay()] == ["a", "b"]
        assert monkey.injections["kill"] == 1

    def test_kill_after_zero_appends_dies_immediately(self, tmp_path):
        monkey = make_monkey(ChaosPlan(seed=0, kill_after_appends=0))
        store = ChaosJournalStore(JournalStore(tmp_path), monkey.plan, monkey)
        with pytest.raises(SimulatedKill):
            store.append("a", {})
        assert JournalStore(tmp_path).replay() == []

    def test_journal_error_rate_one_always_raises(self, tmp_path):
        monkey = make_monkey(ChaosPlan(seed=0, journal_error_rate=1.0))
        store = ChaosJournalStore(JournalStore(tmp_path), monkey.plan, monkey)
        with pytest.raises(JournalError, match="injected journal write"):
            store.append("a", {})
        assert monkey.injections["journal_error"] == 1

    def test_replay_and_attributes_pass_through(self, tmp_path):
        inner = JournalStore(tmp_path)
        inner.append("a", {"x": 1})
        store = ChaosJournalStore(inner, ChaosPlan(seed=0),
                                  make_monkey(ChaosPlan(seed=0)))
        assert [r.kind for r in store.replay()] == ["a"]
        assert store.path == inner.path


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
                                  ShardChaosPlan(seed=0,
                                                 journal_corrupt_rate=1.0))
        assert monkey.heartbeat_filter(shard)
        assert monkey.injections["journal_corruption"] >= 1

        replayed = [r.kind for r in JournalStore(tmp_path).replay()]
        assert len(replayed) == 2
        assert replayed[0] == "event-enqueued"   # never a victim
        reader = JournalReader(tmp_path)
        assert [r.kind for r in reader.read_all()] == replayed
        assert reader.corrupt_lines == 1


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
