"""Integration: the control plane under injected chaos.

Three escalating acceptance bars for the hardened service layer:

* **robustness** -- poison events dead-letter (and recover from the
  journal), failed submits roll back, flapping nodes are held down,
  compaction preserves state across a restart;
* **kill-at-every-prefix** -- a simulated ``kill -9`` between *every*
  pair of operational journal records, each followed by a chaos-free
  restart that must recover a consistent state and finish the work;
* **seeded chaos soak** -- hundreds of ticks under every fault kind at
  once, deterministic under its seed (two runs, identical digests),
  converging to a drained queue, a healthy fleet and the poison
  events parked in the dead-letter queue -- plus an exact circuit
  breaker open/half-open/close lifecycle under a chaos-injected
  benchmark regression.
"""

from collections import Counter

import numpy as np
import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.exceptions import JournalError
from repro.hardware.fleet import build_fleet
from repro.service import (
    BreakerState,
    ChaosPlan,
    JournalStore,
    NodeState,
    PoolConfig,
    ServiceConfig,
    SimulatedKill,
    ValidationService,
    install_chaos,
)
from repro.service.chaos import poison_key
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

SUITE = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
FAST_POOL = PoolConfig(max_workers=4, benchmark_timeout_seconds=0.5,
                       max_attempts=1, backoff_base_seconds=0.0,
                       poll_interval_seconds=0.005)
BUSY_STATES = (NodeState.SCHEDULED, NodeState.VALIDATING,
               NodeState.QUARANTINED, NodeState.IN_REPAIR,
               NodeState.RETURNING)
#: Integer metric counters every digest/restart comparison uses.
METRIC_FIELDS = ("events_processed", "policy_skips", "validations_run",
                 "nodes_validated", "nodes_quarantined", "tick_failures",
                 "events_dead_lettered", "repair_failures")


class FailingRunner(SuiteRunner):
    """Real runner that crashes on every benchmark of one node."""

    def __init__(self, broken_node, **kwargs):
        super().__init__(**kwargs)
        self.broken_node = broken_node

    def run(self, spec, node):
        if node.node_id == self.broken_node:
            raise RuntimeError("simulated hardware fault")
        return super().run(spec, node)


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(12, seed=5)


@pytest.fixture(scope="module")
def risk_model():
    trace = generate_incident_trace(50, 800.0, seed=11)
    dataset = extract_status_samples(trace)
    return ExponentialModel().fit(dataset), dataset


def build_service(fleet, risk_model, journal_dir, *, runner=None, learn=True,
                  config=None):
    """A complete service stack with its own (fresh) policy objects."""
    model, _dataset = risk_model
    validator = Validator(SUITE, runner=runner or SuiteRunner(seed=9))
    if learn:
        validator.learn_criteria(fleet.nodes[:6])
    selector = Selector(model, analytic_coverage_table(SUITE),
                        suite_durations(SUITE), p0=0.05)
    anubis = Anubis(validator, selector)
    return ValidationService(
        anubis, fleet.nodes, journal_dir=journal_dir,
        config=config or ServiceConfig(pool=FAST_POOL))


def make_event(fleet, dataset, node_indices, kind, duration=24.0):
    nodes = tuple(fleet.nodes[i] for i in node_indices)
    statuses = tuple(
        NodeStatus(node_id=node.node_id,
                   covariates=dataset.covariates[i % len(dataset)])
        for i, node in enumerate(nodes))
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=duration)


def busy_nodes(service):
    return [node_id for state in BUSY_STATES
            for node_id in service.lifecycle.nodes_in(state)]


class TestControlPlaneRobustness:
    def test_poison_event_dead_letters_and_recovers(self, fleet, risk_model,
                                                    tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        service = build_service(
            fleet, risk_model, journal,
            config=ServiceConfig(pool=FAST_POOL, max_event_attempts=2))
        poison = make_event(fleet, dataset, [0, 1], EventKind.JOB_ALLOCATION)
        monkey = install_chaos(service, ChaosPlan(
            seed=0, poison_event_keys=frozenset({poison_key(poison)})))
        service.submit(poison)

        # First failed tick: re-queued with one burned attempt, nodes
        # released.
        first = service.tick()
        assert first.failed and "poison" in first.error
        requeued = [e for e in service.queue.pending()
                    if poison_key(e.event) == poison_key(poison)]
        assert requeued[0].attempts == 1
        assert service.lifecycle.state(fleet.nodes[0].node_id) \
            is NodeState.HEALTHY

        service.submit(make_event(fleet, dataset, [2],
                                  EventKind.INCIDENT_REPORTED))
        results = service.drain()
        assert service.metrics.events_dead_lettered == 1
        assert service.metrics.tick_failures == 2
        letters = service.dead_letters()
        assert [poison_key(l.entry.event) for l in letters] \
            == [poison_key(poison)]
        assert letters[0].entry.attempts == 2
        assert "poison" in letters[0].reason
        # The healthy event still processed; nothing is stuck.
        assert any(not r.failed for r in results)
        assert busy_nodes(service) == []
        monkey.uninstall()

        # The dead letter survives a restart via the journal.
        recovered = build_service(
            fleet, risk_model, journal, learn=False,
            config=ServiceConfig(pool=FAST_POOL, max_event_attempts=2))
        assert [(l.entry.event_id, l.entry.attempts, l.reason)
                for l in recovered.dead_letters()] \
            == [(letters[0].entry.event_id, 2, letters[0].reason)]
        assert len(recovered.queue) == 0
        assert recovered.metrics.events_dead_lettered == 1

    def test_submit_rolls_back_on_journal_fault(self, fleet, risk_model,
                                                tmp_path):
        _model, dataset = risk_model
        service = build_service(fleet, risk_model, tmp_path / "journal")
        monkey = install_chaos(service, ChaosPlan(seed=0,
                                                  journal_error_rate=1.0))
        event = make_event(fleet, dataset, [0, 1], EventKind.JOB_ALLOCATION)
        with pytest.raises(JournalError, match="injected journal write"):
            service.submit(event)
        # Rolled back completely: not queued, not counted, not scheduled.
        assert len(service.queue) == 0
        assert service.metrics.events_submitted == 0
        assert service.lifecycle.states() == {}
        monkey.uninstall()
        assert {r.kind for r in service.store.replay()} \
            == {"criteria-snapshot", "pipeline-stats"}

        # The same event is accepted once the journal heals.
        service.submit(event)
        assert len(service.queue) == 1
        assert service.metrics.events_submitted == 1

    def test_flapping_node_is_held_down_exponentially(self, fleet,
                                                      risk_model, tmp_path):
        _model, dataset = risk_model
        broken = fleet.nodes[7].node_id
        config = ServiceConfig(pool=FAST_POOL, flap_base_holddown_ticks=3,
                               flap_multiplier=2.0,
                               flap_max_holddown_ticks=32)
        service = build_service(fleet, risk_model, tmp_path / "journal",
                                runner=FailingRunner(broken, seed=9),
                                config=config)
        incident = make_event(fleet, dataset, [7], EventKind.INCIDENT_REPORTED)
        service.submit(incident)
        assert broken in service.tick().quarantined
        # Held down for base_holddown_ticks=3 ticks before repair starts.
        for _ in range(2):
            service.tick()
            assert service.lifecycle.state(broken) is NodeState.QUARANTINED
        service.tick()
        assert service.lifecycle.state(broken) is NodeState.IN_REPAIR
        service.drain()
        assert service.lifecycle.state(broken) is NodeState.HEALTHY

        # A second quarantine doubles the hold-down.
        service.submit(incident)
        service.tick()
        assert service.lifecycle.state(broken) is NodeState.QUARANTINED
        assert service.damper.flap_count(broken) == 2
        assert service.damper.holddown_remaining(broken) == 6
        for _ in range(5):
            service.tick()
            assert service.lifecycle.state(broken) is NodeState.QUARANTINED
        service.drain()
        assert service.lifecycle.state(broken) is NodeState.HEALTHY

    def test_compaction_preserves_state_across_restart(self, fleet,
                                                       risk_model, tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        config = ServiceConfig(pool=FAST_POOL, compact_every=2,
                               snapshot_every=1000)
        service = build_service(fleet, risk_model, journal, config=config)
        for i in range(5):
            service.submit(make_event(fleet, dataset, [i, i + 1],
                                      EventKind.JOB_ALLOCATION,
                                      duration=8.0 + i))
        # Incidents are always validated; some quarantine a node, which
        # the selector's coverage table must remember across restarts.
        for i in range(len(fleet.nodes)):
            service.submit(make_event(fleet, dataset, [i],
                                      EventKind.INCIDENT_REPORTED))
        service.drain()
        last_id = service.queue.last_event_id
        assert service.metrics.journal_compactions >= 2
        assert service.metrics.nodes_quarantined > 0
        assert any(service._coverage.values())
        # The journal was rewritten: it now *starts* at the checkpoint.
        records = JournalStore(journal).replay()
        assert [record.kind for record in records[:3]] == [
            "criteria-snapshot", "pipeline-stats", "checkpoint"]

        recovered = build_service(fleet, risk_model, journal, learn=False,
                                  config=config)
        assert ({node.node_id: recovered.lifecycle.state(node.node_id)
                 for node in fleet.nodes}
                == {node.node_id: service.lifecycle.state(node.node_id)
                    for node in fleet.nodes})
        for name in METRIC_FIELDS:
            assert (getattr(recovered.metrics, name)
                    == getattr(service.metrics, name)), name
        assert recovered._coverage == service._coverage
        assert (recovered.anubis.selector.coverage.all_defects()
                == service.anubis.selector.coverage.all_defects())
        assert recovered.handed_off == service.handed_off
        assert recovered.origins_seen == service.origins_seen
        assert len(recovered.queue) == 0
        # Event ids keep climbing: the checkpoint carried the high-water
        # mark, so a recycled id cannot alias an old journal record.
        fresh = recovered.submit(make_event(fleet, dataset, [9],
                                            EventKind.JOB_ALLOCATION))
        assert fresh.event_id > last_id


class TestKillAtEveryPrefix:
    """Crash-safety as a property: kill the service before every
    single operational journal append, restart chaos-free, and demand
    a consistent recovery plus a finished workload."""

    def _events(self, fleet, dataset):
        return [
            make_event(fleet, dataset, [0, 1, 2], EventKind.JOB_ALLOCATION,
                       duration=12.0),
            make_event(fleet, dataset, [3], EventKind.INCIDENT_REPORTED),
            make_event(fleet, dataset, [4, 5], EventKind.JOB_ALLOCATION,
                       duration=8.0),
        ]

    def test_restart_from_every_journal_prefix(self, fleet, risk_model,
                                               tmp_path):
        _model, dataset = risk_model
        events = self._events(fleet, dataset)

        # Uninterrupted baseline: counts the operational appends and
        # pins down the converged end state.
        baseline = build_service(fleet, risk_model, tmp_path / "baseline")
        install_chaos(baseline, ChaosPlan(seed=0))  # inert: counts appends
        for event in events:
            baseline.submit(event)
        baseline.drain()
        total_appends = baseline.store.appends
        assert total_appends > 10
        assert busy_nodes(baseline) == []
        baseline_processed = baseline.metrics.events_processed

        for cut in range(total_appends):
            journal = tmp_path / f"kill-{cut}"
            service = build_service(fleet, risk_model, journal)
            install_chaos(service, ChaosPlan(seed=0, kill_after_appends=cut))
            killed = False
            try:
                for event in events:
                    service.submit(event)
                service.drain()
            except SimulatedKill:
                killed = True
            assert killed, f"cut={cut} never reached append {cut + 1}"

            # What the journal promises: every accepted-but-unfinished
            # event must come back, and nothing else.
            records = JournalStore(journal).replay()
            enqueued = {r.payload["event_id"] for r in records
                        if r.kind == "event-enqueued"}
            finished = {r.payload["event_id"] for r in records
                        if r.kind in ("event-completed",
                                      "event-dead-lettered")}

            recovered = build_service(fleet, risk_model, journal, learn=False)
            assert recovered.anubis.validator.criteria  # snapshot replayed
            assert ({e.event_id for e in recovered.queue.pending()}
                    == enqueued - finished), f"cut={cut}"
            # No node is stuck mid-validation, and every scheduled
            # node is still covered by a pending event.
            assert recovered.lifecycle.nodes_in(NodeState.VALIDATING) == [], \
                f"cut={cut}"
            covered = {node.node_id for e in recovered.queue.pending()
                       for node in e.event.nodes}
            assert set(recovered.lifecycle.nodes_in(NodeState.SCHEDULED)) \
                <= covered, f"cut={cut}"

            # Replay is idempotent: a second recovery over the journal
            # (which now also holds the first recovery's healing
            # records) lands in the identical state.
            twin = build_service(fleet, risk_model, journal, learn=False)
            assert twin.lifecycle.states() == recovered.lifecycle.states(), \
                f"cut={cut}"
            assert ([(e.event_id, e.priority, e.attempts)
                     for e in twin.queue.pending()]
                    == [(e.event_id, e.priority, e.attempts)
                        for e in recovered.queue.pending()]), f"cut={cut}"

            # The restarted service finishes the whole workload
            # (resubmission coalesces into surviving entries).
            for event in events:
                recovered.submit(event)
            recovered.drain()
            assert len(recovered.queue) == 0, f"cut={cut}"
            assert recovered.dead_letters() == [], f"cut={cut}"
            assert busy_nodes(recovered) == [], f"cut={cut}"
            assert (recovered.metrics.events_processed
                    >= baseline_processed), f"cut={cut}"


SOAK_SEED = 1129
SOAK_TICK_FLOOR = 220
SOAK_CONFIG = ServiceConfig(pool=FAST_POOL, snapshot_every=50,
                            max_event_attempts=3, compact_every=25,
                            flap_base_holddown_ticks=1, flap_multiplier=2.0,
                            flap_max_holddown_ticks=4)


def soak_plan(seed):
    return ChaosPlan(
        seed=seed,
        executor_crash_rate=0.05,
        executor_hang_rate=0.02,
        hang_seconds=1.5,          # well past the 0.5 s benchmark timeout
        journal_error_rate=0.02,
        kill_rate=0.01,
        tick_error_rate=0.05,
        repair_failure_rate=0.2,
        poison_event_keys=frozenset(SOAK_POISON_KEYS),
    )


def soak_events(fleet, dataset):
    """A deterministic 50-event storm over nodes 0-8, plus two poison
    events on nodes 9-11 (kept disjoint so no random event shares a
    poison key)."""
    rng = np.random.default_rng(424242)
    kinds = ([EventKind.JOB_ALLOCATION] * 6
             + [EventKind.INCIDENT_REPORTED] * 3
             + [EventKind.NODE_ADDED])
    events = []
    for _ in range(48):
        kind = kinds[int(rng.integers(len(kinds)))]
        size = int(rng.integers(1, 4))
        indices = sorted(int(i) for i in rng.choice(9, size=size,
                                                    replace=False))
        events.append(make_event(fleet, dataset, indices, kind,
                                 duration=float(rng.uniform(4.0, 48.0))))
    events.insert(10, make_event(fleet, dataset, [9, 10],
                                 EventKind.JOB_ALLOCATION, duration=12.0))
    events.insert(30, make_event(fleet, dataset, [11],
                                 EventKind.INCIDENT_REPORTED, duration=6.0))
    return events


SOAK_POISON_KEYS = (
    ("job-allocation", ("node-0009", "node-0010")),
    ("incident-reported", ("node-0011",)),
)


def drive_soak(service, events, state):
    """Submit-and-tick until the storm is fully absorbed.

    Resumable: ``state`` carries the submission cursor across
    simulated kills.  A submit the journal rejects is retried a few
    times (fresh appends redraw the fault), then counted as dropped;
    a submit interrupted by a kill is *not* advanced past, so the
    event is retried after the restart (at-least-once from the
    client's side too)."""
    guard = 0
    while True:
        guard += 1
        assert guard < 5000, "soak failed to converge"
        if state["submitted"] < len(events):
            event = events[state["submitted"]]
            for _ in range(5):
                try:
                    service.submit(event)
                    break
                except JournalError:
                    continue
            else:
                state["dropped"] += 1
            state["submitted"] += 1
        service.tick()
        state["ticks"] += 1
        if (state["submitted"] >= len(events) and len(service.queue) == 0
                and not busy_nodes(service)):
            break
    while state["ticks"] < SOAK_TICK_FLOOR:
        service.tick()  # empty ticks: no appends, so no further kills
        state["ticks"] += 1


def run_soak(fleet, risk_model, journal):
    _model, dataset = risk_model
    events = soak_events(fleet, dataset)
    state = {"submitted": 0, "ticks": 0, "dropped": 0, "restarts": 0}
    injections = Counter()
    service = build_service(fleet, risk_model, journal, config=SOAK_CONFIG)
    monkey = install_chaos(service, soak_plan(SOAK_SEED))
    while True:
        try:
            drive_soak(service, events, state)
            break
        except SimulatedKill:
            injections.update(monkey.injections)
            state["restarts"] += 1
            assert state["restarts"] < 40, "soak kill-looped"
            service = build_service(fleet, risk_model, journal, learn=False,
                                    config=SOAK_CONFIG)
            # Shift the seed per incarnation: the append counter
            # restarts at zero, and an unshifted plan would
            # deterministically re-kill at the same append forever.
            monkey = install_chaos(service,
                                   soak_plan(SOAK_SEED + state["restarts"]))
    injections.update(monkey.injections)
    return service, injections, state


def soak_digest(service, injections, state):
    """Everything the soak asserts on, minus wall-clock measurements."""
    return {
        "states": sorted((node_id, node_state.value) for node_id, node_state
                         in service.lifecycle.states().items()),
        "metrics": {name: getattr(service.metrics, name)
                    for name in METRIC_FIELDS},
        "dead_letters": sorted(
            (letter.entry.event_id, letter.entry.attempts,
             poison_key(letter.entry.event))
            for letter in service.dead_letters()),
        "injections": sorted(injections.items()),
        "state": dict(state),
    }


class TestChaosSoak:
    def test_soak_converges_and_is_deterministic(self, fleet, risk_model,
                                                 tmp_path):
        service, injections, state = run_soak(fleet, risk_model,
                                              tmp_path / "run-a")
        digest = soak_digest(service, injections, state)

        assert state["ticks"] >= 200
        assert state["restarts"] >= 1  # kills actually interrupted the run
        # Every fault kind fired at least once: the storm was real.
        for kind in ("executor_crash", "executor_hang", "journal_error",
                     "kill", "tick_error", "repair_failure", "poison_tick"):
            assert injections[kind] >= 1, kind
        # ... and was absorbed: queue drained, fleet healthy, poison
        # parked rather than retried forever.
        assert len(service.queue) == 0
        assert busy_nodes(service) == []
        assert set(SOAK_POISON_KEYS) <= {
            poison_key(letter.entry.event)
            for letter in service.dead_letters()}
        # Each poison event burned all its attempts before parking
        # (counted via injections: the per-incarnation metrics counter
        # resets on restarts that precede a compaction snapshot).
        assert injections["poison_tick"] >= 6  # 2 poisons x 3 attempts

        # Same seed, fresh journal: byte-identical digest.
        replay_service, replay_injections, replay_state = run_soak(
            fleet, risk_model, tmp_path / "run-b")
        assert soak_digest(replay_service, replay_injections,
                           replay_state) == digest

    def test_breaker_lifecycle_under_injected_regression(self, fleet,
                                                         risk_model,
                                                         tmp_path):
        """A chaos-broken benchmark drives one breaker through its
        exact open -> half-open -> open -> half-open -> closed arc."""
        _model, dataset = risk_model
        pool = PoolConfig(max_workers=4, benchmark_timeout_seconds=0.5,
                          max_attempts=1, backoff_base_seconds=0.0,
                          poll_interval_seconds=0.005,
                          breaker_failure_threshold=2,
                          breaker_cooldown_sweeps=1)
        service = build_service(fleet, risk_model, tmp_path / "journal",
                                config=ServiceConfig(pool=pool))
        monkey = install_chaos(service, ChaosPlan(
            seed=0, broken_benchmarks=frozenset({"mem-bw"}),
            broken_benchmark_crashes=3))
        # Four single-node incidents: each tick is one full-validation
        # sweep, so the broken benchmark fails fleet-wide 3 times
        # (sweeps 1-3), then heals into the sweep-4 probe.
        for i in range(4):
            service.submit(make_event(fleet, dataset, [i],
                                      EventKind.INCIDENT_REPORTED))
            result = service.tick()
            assert not result.failed

        assert monkey.injections["broken_benchmark_crash"] == 3
        breaker = service.pool.breakers["mem-bw"]
        assert [(t.old, t.new, t.reason) for t in breaker.transitions] == [
            (BreakerState.CLOSED, BreakerState.OPEN, "failure-threshold"),
            (BreakerState.OPEN, BreakerState.HALF_OPEN, "cooldown-elapsed"),
            (BreakerState.HALF_OPEN, BreakerState.OPEN, "probe-failed"),
            (BreakerState.OPEN, BreakerState.HALF_OPEN, "cooldown-elapsed"),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED, "probe-succeeded"),
        ]
        assert breaker.state is BreakerState.CLOSED
        # The healthy benchmark's breaker never moved.
        assert service.pool.breakers["ib-loopback"].transitions == []
        # The crashes quarantined their nodes; the probe's survivor
        # stayed healthy; drain repairs the rest.
        assert service.lifecycle.state(fleet.nodes[3].node_id) \
            is NodeState.HEALTHY
        service.drain()
        assert busy_nodes(service) == []
        monkey.uninstall()
