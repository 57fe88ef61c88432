"""Integration: the durable control plane (kill-and-restart recovery,
hang quarantine, end-to-end draining).

The acceptance bar for the service layer: kill a service mid-stream,
start a fresh one (fresh Validator, fresh Selector) on the same
journal directory, and get back identical lifecycle states, queue
contents and learned criteria -- then finish the remaining work.
"""

import time

import numpy as np
import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core.persistence import criteria_payload
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.exceptions import ServiceError
from repro.hardware.fleet import build_fleet
from repro.service import (
    NodeState,
    PoolConfig,
    ServiceConfig,
    ValidationService,
)
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

SUITE = full_suite()
FAST_POOL = PoolConfig(max_workers=4, benchmark_timeout_seconds=2.0,
                       max_attempts=1, backoff_base_seconds=0.0,
                       poll_interval_seconds=0.01)


class FailingRunner(SuiteRunner):
    """Real runner that crashes on every benchmark of one node."""

    def __init__(self, broken_node, **kwargs):
        super().__init__(**kwargs)
        self.broken_node = broken_node

    def run(self, spec, node):
        if node.node_id == self.broken_node:
            raise RuntimeError("simulated hardware fault")
        return super().run(spec, node)


class HangingRunner(SuiteRunner):
    """Real runner that hangs on one (node, benchmark) cell.

    Hanging a single cell keeps the test fast: an abandoned execution
    still occupies its worker thread until the sleep returns, so
    hanging every cell of a node would serially exhaust the pool.
    """

    def __init__(self, hung_node, hung_benchmark, hang_seconds=10.0,
                 **kwargs):
        super().__init__(**kwargs)
        self.hung_node = hung_node
        self.hung_benchmark = hung_benchmark
        self.hang_seconds = hang_seconds

    def run(self, spec, node):
        if (node.node_id == self.hung_node
                and spec.name == self.hung_benchmark):
            time.sleep(self.hang_seconds)
        return super().run(spec, node)


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(12, seed=5)


@pytest.fixture(scope="module")
def risk_model():
    trace = generate_incident_trace(50, 800.0, seed=11)
    dataset = extract_status_samples(trace)
    return ExponentialModel().fit(dataset), dataset


def build_service(fleet, risk_model, journal_dir, *, runner=None,
                  learn=True):
    """A complete service stack with its own (fresh) policy objects."""
    model, _dataset = risk_model
    validator = Validator(SUITE, runner=runner or SuiteRunner(seed=9))
    if learn:
        validator.learn_criteria(fleet.nodes[:6])
    selector = Selector(model, analytic_coverage_table(SUITE),
                        suite_durations(SUITE), p0=0.05)
    anubis = Anubis(validator, selector)
    return ValidationService(anubis, fleet.nodes, journal_dir=journal_dir,
                             config=ServiceConfig(pool=FAST_POOL))


def make_event(fleet, dataset, node_indices, kind, duration=24.0):
    nodes = tuple(fleet.nodes[i] for i in node_indices)
    statuses = tuple(
        NodeStatus(node_id=node.node_id,
                   covariates=dataset.covariates[i % len(dataset)])
        for i, node in enumerate(nodes))
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=duration)


def queue_digest(service):
    return [
        (entry.event_id, entry.priority, entry.event.kind.value,
         tuple(sorted(n.node_id for n in entry.event.nodes)),
         entry.event.duration_hours)
        for entry in service.queue.pending()
    ]


class TestKillAndRestart:
    def test_recovery_is_exact(self, fleet, risk_model, tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        service = build_service(fleet, risk_model, journal)

        # A burst of events: an incident (jumps the queue), two
        # allocations (one duplicated, so it coalesces).
        service.submit(make_event(fleet, dataset, [0, 1, 2],
                                  EventKind.JOB_ALLOCATION, duration=12.0))
        service.submit(make_event(fleet, dataset, [3],
                                  EventKind.INCIDENT_REPORTED))
        service.submit(make_event(fleet, dataset, [4, 5],
                                  EventKind.JOB_ALLOCATION, duration=8.0))
        service.submit(make_event(fleet, dataset, [0, 1, 2],
                                  EventKind.JOB_ALLOCATION, duration=30.0))
        assert service.metrics.events_coalesced == 1
        assert len(service.queue) == 3

        # Process the two riskiest events, then "kill" the process.
        assert service.tick() is not None
        assert service.tick() is not None
        assert len(service.queue) == 1

        recovered = build_service(fleet, risk_model, journal, learn=False)
        assert recovered.lifecycle.states() == service.lifecycle.states()
        assert queue_digest(recovered) == queue_digest(service)
        assert (criteria_payload(recovered.anubis.validator)
                == criteria_payload(service.anubis.validator))
        for key in ("events_processed", "policy_skips", "validations_run",
                    "nodes_validated", "nodes_quarantined"):
            assert (getattr(recovered.metrics, key)
                    == getattr(service.metrics, key)), key

        # The recovered service finishes the remaining work.
        results = recovered.drain()
        assert len(recovered.queue) == 0
        assert not any(
            recovered.lifecycle.nodes_in(state)
            for state in (NodeState.SCHEDULED, NodeState.VALIDATING,
                          NodeState.QUARANTINED, NodeState.IN_REPAIR,
                          NodeState.RETURNING))
        assert recovered.metrics.events_processed >= 3 + len(results) - 1

    def test_recovery_survives_truncated_tail(self, fleet, risk_model,
                                              tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        service = build_service(fleet, risk_model, journal)
        service.submit(make_event(fleet, dataset, [0, 1],
                                  EventKind.JOB_ALLOCATION))
        service.tick()
        # Crash mid-append: the final journal line is half-written.
        text = service.store.path.read_text()
        service.store.path.write_text(text[:len(text) - 20])

        recovered = build_service(fleet, risk_model, journal, learn=False)
        assert recovered.metrics.events_processed <= 1
        recovered.drain()

    def test_restart_continues_event_ids(self, fleet, risk_model, tmp_path):
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        service = build_service(fleet, risk_model, journal)
        first = service.submit(make_event(fleet, dataset, [0],
                                          EventKind.JOB_ALLOCATION))
        recovered = build_service(fleet, risk_model, journal, learn=False)
        fresh = recovered.submit(make_event(fleet, dataset, [1],
                                            EventKind.JOB_ALLOCATION))
        assert fresh.event_id > first.event_id


class TestRecoveryReadsTheJournalOnce:
    def test_restart_decodes_each_line_once(self, fleet, risk_model,
                                            tmp_path, monkeypatch):
        from repro.service import store as store_module
        _model, dataset = risk_model
        journal = tmp_path / "journal"
        service = build_service(fleet, risk_model, journal)
        for i in range(6):
            service.submit(make_event(fleet, dataset, [i],
                                      EventKind.JOB_ALLOCATION))
        service.tick()
        service.tick()
        lines = service.store.path.read_text().splitlines()
        assert len(lines) > 12

        decoded = []
        decode = store_module.decode_journal_line

        def counting(line, **kwargs):
            decoded.append(line)
            return decode(line, **kwargs)

        monkeypatch.setattr(store_module, "decode_journal_line", counting)
        recovered = build_service(fleet, risk_model, journal, learn=False)
        assert decoded == lines     # each line once, in order
        # ... and the seq that read found numbers the next record.
        recovered.submit(make_event(fleet, dataset, [7],
                                    EventKind.JOB_ALLOCATION))
        assert decoded == lines
        seqs = [record.seq for record in recovered.store.replay()]
        assert seqs == list(range(1, len(seqs) + 1))


class TestQuarantineFlow:
    def test_broken_node_is_quarantined_then_repaired(self, fleet,
                                                      risk_model, tmp_path):
        _model, dataset = risk_model
        broken = fleet.nodes[7].node_id
        service = build_service(fleet, risk_model, tmp_path / "journal",
                                runner=FailingRunner(broken, seed=9))
        service.submit(make_event(fleet, dataset, [6, 7, 8],
                                  EventKind.INCIDENT_REPORTED))
        result = service.tick()
        assert broken in result.quarantined
        assert service.lifecycle.state(broken) is NodeState.QUARANTINED
        # Drain walks the repair pipeline back to healthy.
        service.drain()
        assert service.lifecycle.state(broken) is NodeState.HEALTHY

    def test_hung_node_sweep_completes_and_quarantines(self, fleet,
                                                       risk_model, tmp_path):
        _model, dataset = risk_model
        hung = fleet.nodes[9].node_id
        service = build_service(
            fleet, risk_model, None,
            runner=HangingRunner(hung, SUITE[0].name, hang_seconds=10.0,
                                 seed=9))
        service.submit(make_event(fleet, dataset, list(range(12)),
                                  EventKind.NODE_ADDED))
        start = time.monotonic()
        result = service.tick()
        assert time.monotonic() - start < 8.0  # did not wait out the hang
        assert hung in result.quarantined
        others = [n.node_id for n in fleet.nodes if n.node_id != hung]
        assert all(
            service.lifecycle.state(n) in (NodeState.HEALTHY,
                                           NodeState.QUARANTINED)
            for n in others)


class TestServiceGuards:
    def test_submit_rejects_foreign_nodes(self, fleet, risk_model, tmp_path):
        service = build_service(fleet, risk_model, None)
        # Same Node type, but an id the 12-node service fleet lacks.
        stranger = build_fleet(14, seed=5).nodes[13]
        assert stranger.node_id not in service.fleet_index
        event = ValidationEvent(
            kind=EventKind.JOB_ALLOCATION, nodes=(stranger,),
            statuses=(NodeStatus(node_id=stranger.node_id,
                                 covariates=np.zeros(3)),))
        with pytest.raises(ServiceError, match="outside the service fleet"):
            service.submit(event)

    def test_tick_on_empty_queue_returns_none(self, fleet, risk_model):
        service = build_service(fleet, risk_model, None)
        assert service.tick() is None
