"""One set of service counters, counted once per journaled completion.

The running service, the journal fold, a checkpoint and the fleet
report's service section all count a completed event from its
``event-completed`` record.  Two ways they used to drift apart:

* an ``event-completed`` append the journal refuses fails the tick, and
  the retry completes the event again -- the live counters must count
  it once, as the fold of the journal does;
* a compacted journal opens with a checkpoint carrying the completions
  before it -- the report must count those, not only the records after.
"""

import pytest

from repro.analytics.report import build_report
from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.exceptions import JournalError
from repro.hardware.fleet import build_fleet
from repro.service.queue import Aggregate, JournalState
from repro.service.store import RecordKind
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel
from tests.test_criteria_snapshots import build_service

@pytest.fixture(scope="module")
def fleet():
    return build_fleet(8, seed=5)


@pytest.fixture(scope="module")
def risk():
    dataset = extract_status_samples(generate_incident_trace(50, 800.0,
                                                             seed=11))
    return ExponentialModel().fit(dataset), dataset


class RefuseOnce:
    """A journal store that refuses the first append of one kind."""

    def __init__(self, store, kind):
        self._store = store
        self._kind = kind
        self.refused = 0

    def append(self, kind, payload):
        if kind == self._kind and not self.refused:
            self.refused += 1
            raise JournalError(f"refused {kind} append")
        return self._store.append(kind, payload)

    def __getattr__(self, name):
        return getattr(self._store, name)


#: The counters a completion moves, by their checkpoint names.
COMPLETION = ("events_processed", "policy_skips", "validations_run",
              "nodes_validated", "nodes_quarantined")


def run_events(service, fleet, risk, count, *, first=0):
    """Submit and drain ``count`` single-node events, every other one a
    node addition (always validated) and the rest job allocations (the
    selector may skip them)."""
    dataset = risk[1]
    for index in range(first, first + count):
        node = fleet.nodes[index % len(fleet.nodes)]
        kind = (EventKind.NODE_ADDED if index % 2 == 0
                else EventKind.JOB_ALLOCATION)
        service.submit(ValidationEvent(
            kind=kind, nodes=(node,),
            statuses=(NodeStatus(
                node_id=node.node_id,
                covariates=dataset.covariates[index % len(dataset)]),),
            duration_hours=1.0))
        service.drain()


class TestRefusedCompletion:
    def test_live_counters_equal_the_fold(self, fleet, risk, tmp_path):
        service = build_service(fleet, risk, tmp_path)
        store = service.store
        service.store = RefuseOnce(store, RecordKind.EVENT_COMPLETED)
        run_events(service, fleet, risk, 6)
        assert service.store.refused == 1
        assert service.metrics.tick_failures == 1
        folded = JournalState.fold(store.replay()).to_payload()["metrics"]
        assert folded["events_processed"] == 6
        assert folded["validations_run"] >= 3
        summary = service.metrics.summary()
        assert {name: summary[name] for name in COMPLETION} == {
            name: folded[name] for name in COMPLETION}
        latency = Aggregate.from_payload(folded["queue_latency"])
        validation = Aggregate.from_payload(folded["validation"])
        assert summary["queue_latency_mean_s"] == latency.mean
        assert summary["validation_total_s"] == validation.total
        assert service.journal_state().to_payload()["metrics"] == folded
        # The facade's history counts the event once too.
        assert len(service.anubis.history) == 6


class TestReportAfterCompaction:
    def test_report_counts_what_the_service_counted(self, fleet, risk,
                                                    tmp_path):
        service = build_service(fleet, risk, tmp_path)
        run_events(service, fleet, risk, 30)
        service.compact_journal()
        run_events(service, fleet, risk, 5, first=30)
        metrics = service.metrics
        assert metrics.events_processed == 35
        assert metrics.validations_run >= 15
        section = build_report(service.store.replay())["service"]
        assert section["events_completed"] == metrics.events_processed
        assert section["policy_skips"] == metrics.policy_skips
        assert section["validations_run"] == metrics.validations_run
        assert section["nodes_validated"] == metrics.nodes_validated
        assert section["nodes_quarantined"] == metrics.nodes_quarantined
        assert section["events_dead_lettered"] == (
            metrics.events_dead_lettered)
        assert section["queue_latency_mean_s"] == round(
            metrics.queue_latency.mean, 6)
        assert section["queue_latency_max_s"] == round(
            metrics.queue_latency.peak, 6)
        assert section["validation_total_s"] == round(
            float(metrics.validation.total), 6)
