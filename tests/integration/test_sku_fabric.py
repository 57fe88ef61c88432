"""Mixed-fleet chaos soak: shard handoff preserves SKU routing.

With :attr:`SupervisorConfig.sku_affinity` the shard fabric routes by
hardware class instead of node id -- one class per shard, so a class's
criteria namespace lives (and fails over) as a unit.  These soaks
prove the two halves of that contract on a 3-SKU fleet:

* **affinity** -- every node of one SKU routes to the same shard, and
  the assignment is stable across a supervisor rebuild over the same
  journal root (restart cannot silently re-shuffle classes);
* **handoff** -- when the shard owning one class degrades under
  chaos, the *whole class* fails over to the same live sibling, the
  sibling completes the work (it holds the full criteria namespace
  map), and no sibling shard is restarted or degraded in the process.
"""

from collections import Counter

import numpy as np
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
    PoolConfig,
    ServiceConfig,
    ShardState,
    ShardSupervisor,
    SupervisorConfig,
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
MIX = {"A100": 0.5, "H100": 0.25, "MI250X": 0.25}
SOAK_SEED = 4177


@pytest.fixture(scope="module")
def fleet():
    fleet = build_fleet(16, seed=2, sku_mix=MIX)
    # The soak needs every class present with enough nodes to learn
    # per-SKU criteria from.
    assert all(count >= 2 for count in fleet.sku_counts().values())
    return fleet


@pytest.fixture(scope="module")
def risk_model():
    trace = generate_incident_trace(50, 800.0, seed=13)
    dataset = extract_status_samples(trace)
    return ExponentialModel().fit(dataset), dataset


def make_factory(fleet, risk_model):
    model, _dataset = risk_model

    def factory():
        validator = Validator(SUITE, runner=SuiteRunner(seed=9))
        validator.learn_criteria(fleet.nodes)
        selector = Selector(model, analytic_coverage_table(SUITE),
                            suite_durations(SUITE), p0=0.05)
        return Anubis(validator, selector)

    return factory


def build_supervisor(fleet, risk_model, journal_root, **overrides):
    config = SupervisorConfig(
        shard_count=3, sku_affinity=True,
        service=ServiceConfig(pool=FAST_POOL),
        **overrides)
    return ShardSupervisor(make_factory(fleet, risk_model), fleet.nodes,
                           journal_root=journal_root, config=config)


def make_event(fleet, dataset, node_indices, duration=24.0):
    nodes = tuple(fleet.nodes[i] for i in node_indices)
    statuses = tuple(
        NodeStatus(node_id=node.node_id,
                   covariates=dataset.covariates[i % len(dataset)])
        for i, node in enumerate(nodes))
    return ValidationEvent(kind=EventKind.INCIDENT_REPORTED, nodes=nodes,
                           statuses=statuses, duration_hours=duration)


def routes_by_sku(supervisor, fleet) -> dict[str, set[int]]:
    """SKU -> the set of shards its nodes currently route to."""
    routes: dict[str, set[int]] = {}
    for node in fleet.nodes:
        routes.setdefault(node.sku, set()).add(
            supervisor.route(node.node_id))
    return routes


@pytest.mark.soak
class TestSkuAffinityRouting:
    def test_each_sku_routes_to_one_shard(self, fleet, risk_model,
                                          tmp_path):
        supervisor = build_supervisor(fleet, risk_model, tmp_path / "aff")
        routes = routes_by_sku(supervisor, fleet)
        assert set(routes) == set(fleet.sku_counts())
        for sku, shards in routes.items():
            assert len(shards) == 1, f"{sku} split across shards {shards}"

    def test_affinity_is_stable_across_rebuild(self, fleet, risk_model,
                                               tmp_path):
        root = tmp_path / "stable"
        first = routes_by_sku(
            build_supervisor(fleet, risk_model, root), fleet)
        second = routes_by_sku(
            build_supervisor(fleet, risk_model, root), fleet)
        assert first == second


@pytest.mark.soak
class TestSkuHandoffSoak:
    def test_handoff_preserves_sku_routing(self, fleet, risk_model,
                                           tmp_path):
        _model, dataset = risk_model
        root = tmp_path / "soak"
        supervisor = build_supervisor(
            fleet, risk_model, root, watchdog_stall_ticks=1,
            restart_backoff_base_ticks=1, max_shard_restarts=1)
        before = routes_by_sku(supervisor, fleet)
        # Aim the chaos at the shard owning H100 (crashes exhaust its
        # restart budget so the watchdog degrades it).
        (target_shard,) = before["H100"]
        monkey = install_chaos(supervisor, ChaosPlan(
            seed=SOAK_SEED,
            target_shards=frozenset({target_shard}),
            crash_rate=0.30,
            hang_rate=0.15,
            heartbeat_loss_rate=0.10,
        ))

        h100_indices = [i for i, node in enumerate(fleet.nodes)
                        if node.sku == "H100"]
        rng = np.random.default_rng(SOAK_SEED)
        for _ in range(60):
            if supervisor.shards[target_shard].state is ShardState.DEGRADED:
                break
            index = int(rng.choice(h100_indices))
            supervisor.submit(make_event(fleet, dataset, [index]))
            supervisor.tick()
        assert sum(monkey.injections.values()) > 0, "chaos never fired"
        assert supervisor.shards[target_shard].state is ShardState.DEGRADED

        # The whole class failed over together: every H100 node now
        # routes to one and the same live sibling.
        after = routes_by_sku(supervisor, fleet)
        (fallback,) = after["H100"]
        assert fallback != target_shard
        assert supervisor.shards[fallback].state is ShardState.RUNNING
        # Classes on other shards never moved.  (The hash ring may
        # co-locate two classes on one shard; a co-located class
        # fails over with H100, which is the affinity contract --
        # classes move whole or not at all.)
        for sku in after:
            if before[sku] != {target_shard}:
                assert after[sku] == before[sku], f"{sku} was re-routed"
            else:
                assert len(after[sku]) == 1
                assert after[sku] != {target_shard}

        # Blast radius: no sibling restarted or degraded.
        for shard in supervisor.shards:
            if shard.index != target_shard:
                assert shard.restarts == 0
                assert shard.state is ShardState.RUNNING

        monkey.uninstall()
        supervisor.tick_filter = None
        supervisor.heartbeat_filter = None
        supervisor.on_restart = None
        supervisor.drain()

        # The sibling actually completed H100 work -- it holds the
        # H100 criteria namespace, so a handed-off event validates
        # instead of dying on missing criteria.
        assert (supervisor.shards[fallback]
                .service.metrics.events_processed >= 1)
        for shard in supervisor.shards:
            assert shard.service.dead_letters() == []

        # New H100 work routes straight to the sibling.
        resubmitted = supervisor.submit(
            make_event(fleet, dataset, h100_indices[:1]))
        assert list(resubmitted) == [fallback]
        supervisor.drain()

        # Journal accounting fleet-wide: every enqueued event ends
        # completed, shed, dead-lettered or handed off.
        totals: Counter = Counter()
        for index in range(3):
            for record in JournalStore(root / f"shard-{index:02d}").replay():
                totals[record.kind] += 1
        assert totals["event-enqueued"] >= 1
        resolved = (totals["event-completed"] + totals["load-shed"]
                    + totals["event-dead-lettered"] + totals["shard-handoff"])
        assert resolved >= totals["event-enqueued"]
