"""Criteria snapshots are journaled when the criteria change.

``snapshot_every`` is how often the criteria are *fingerprinted*; a
``criteria-snapshot`` record lands only when the content differs from
the newest snapshot the journal holds.  Every assertion here is a
record count, so a timer-driven snapshot fails it.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.persistence import criteria_fingerprint
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.quality import RolloutConfig
from repro.service import PoolConfig, ServiceConfig, ValidationService
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel
from tests.test_quality_rollout import PoisoningRunner

SUITE = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
SNAPSHOT = "criteria-snapshot"
STATS = "pipeline-stats"
EVERY = 25


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(8, seed=5)


@pytest.fixture(scope="module")
def risk():
    dataset = extract_status_samples(generate_incident_trace(50, 800.0,
                                                             seed=11))
    return ExponentialModel().fit(dataset), dataset


def build_service(fleet, risk, journal_dir, *, learn_on=4, **config):
    """A service with its own fresh policy objects; the validator has
    learned on the first ``learn_on`` nodes before the service starts
    (0: no criteria yet)."""
    validator = Validator(SUITE, runner=PoisoningRunner(seed=9))
    if learn_on:
        validator.learn_criteria(fleet.nodes[:learn_on])
    selector = Selector(risk[0], analytic_coverage_table(SUITE),
                        suite_durations(SUITE), p0=0.05)
    return ValidationService(
        Anubis(validator, selector), fleet.nodes,
        journal_dir=str(journal_dir),
        config=ServiceConfig(pool=PoolConfig(max_workers=2),
                             snapshot_every=EVERY, **config))


def complete(service, fleet, risk, count):
    """Submit and tick ``count`` single-node events to completion."""
    dataset = risk[1]
    before = service.metrics.events_processed
    for i in range(count):
        node = fleet.nodes[i % len(fleet.nodes)]
        service.submit(ValidationEvent(
            kind=EventKind.JOB_ALLOCATION, nodes=(node,),
            statuses=(NodeStatus(
                node_id=node.node_id,
                covariates=dataset.covariates[i % len(dataset)]),),
            duration_hours=1.0))
        service.drain()
    assert service.metrics.events_processed == before + count


def kinds(service) -> Counter:
    return Counter(record.kind for record in service.store.replay())


class TestSnapshotOnChange:
    def test_unchanged_criteria_are_not_rejournaled(self, fleet, risk,
                                                    tmp_path):
        service = build_service(fleet, risk, tmp_path)
        assert kinds(service)[SNAPSHOT] == 1    # the start-up snapshot
        stats = kinds(service)[STATS]
        complete(service, fleet, risk, 4 * EVERY)
        after = kinds(service)
        assert after[SNAPSHOT] == 1
        assert after[STATS] == stats + 4

    def test_key_replaced_out_of_band_is_journaled_once(self, fleet, risk,
                                                        tmp_path):
        service = build_service(fleet, risk, tmp_path)
        criteria = service.anubis.validator.criteria
        key = sorted(criteria)[0]
        criteria[key] = dataclasses.replace(
            criteria[key],
            criteria=np.asarray(criteria[key].criteria, dtype=float) * 1.01)
        complete(service, fleet, risk, EVERY - 1)
        assert kinds(service)[SNAPSHOT] == 1    # not before the cadence
        complete(service, fleet, risk, 1)
        assert kinds(service)[SNAPSHOT] == 2
        complete(service, fleet, risk, EVERY)
        assert kinds(service)[SNAPSHOT] == 2

    def test_array_edited_in_place_is_journaled_once(self, fleet, risk,
                                                     tmp_path):
        service = build_service(fleet, risk, tmp_path)
        criteria = service.anubis.validator.criteria
        criteria[sorted(criteria)[-1]].criteria[0] += 1.0
        complete(service, fleet, risk, EVERY)
        assert kinds(service)[SNAPSHOT] == 2
        complete(service, fleet, risk, EVERY)
        assert kinds(service)[SNAPSHOT] == 2
        newest = [record for record in service.store.replay()
                  if record.kind == SNAPSHOT][-1]
        recovered = build_service(fleet, risk, tmp_path, learn_on=0)
        assert len(newest.payload["entries"]) == len(criteria)
        assert (criteria_fingerprint(recovered.anubis.validator.criteria)
                == criteria_fingerprint(criteria))

    def test_a_learn_that_changes_the_criteria_journals_one(self, fleet,
                                                            risk, tmp_path):
        service = build_service(fleet, risk, tmp_path)
        before = criteria_fingerprint(service.anubis.validator.criteria)
        service.learn_criteria(fleet.nodes)
        assert (criteria_fingerprint(service.anubis.validator.criteria)
                != before)
        assert kinds(service)[SNAPSHOT] == 2
        complete(service, fleet, risk, EVERY)
        assert kinds(service)[SNAPSHOT] == 2

    def test_a_learn_rolled_back_entirely_journals_none(self, fleet, risk,
                                                        tmp_path):
        service = build_service(fleet, risk, tmp_path, learn_on=0,
                                rollout=RolloutConfig())
        assert kinds(service)[SNAPSHOT] == 0    # nothing learned yet
        service.learn_criteria(fleet.nodes)
        assert kinds(service)[SNAPSHOT] == 1
        before = criteria_fingerprint(service.anubis.validator.criteria)
        service.anubis.validator.runner.poisoning = True
        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and not any(d.accepted for d in decisions)
        after = kinds(service)
        assert after["criteria-rollback"] == len(decisions)
        assert (criteria_fingerprint(service.anubis.validator.criteria)
                == before)
        assert after[SNAPSHOT] == 1

    def test_restart_appends_none_and_recovers_the_same_criteria(
            self, fleet, risk, tmp_path):
        service = build_service(fleet, risk, tmp_path)
        service.learn_criteria(fleet.nodes)
        complete(service, fleet, risk, 3)
        lines = len(service.store.path.read_text().splitlines())
        recovered = build_service(fleet, risk, tmp_path, learn_on=0)
        assert len(recovered.store.path.read_text().splitlines()) == lines
        assert (criteria_fingerprint(recovered.anubis.validator.criteria)
                == criteria_fingerprint(service.anubis.validator.criteria))
        # ... and it knows the journal already holds them.
        complete(recovered, fleet, risk, EVERY)
        assert kinds(recovered)[SNAPSHOT] == 2

    def test_compaction_keeps_one_snapshot_and_remembers_it(self, fleet,
                                                            risk, tmp_path):
        service = build_service(fleet, risk, tmp_path)
        service.learn_criteria(fleet.nodes)
        complete(service, fleet, risk, 3)
        assert kinds(service)[SNAPSHOT] == 2
        service.compact_journal()
        assert kinds(service)[SNAPSHOT] == 1
        complete(service, fleet, risk, EVERY)
        assert kinds(service)[SNAPSHOT] == 1

    def test_corrupted_only_snapshot_is_healed_at_start_up(self, fleet, risk,
                                                           tmp_path):
        service = build_service(fleet, risk, tmp_path)
        complete(service, fleet, risk, 2)
        path = service.store.path
        lines = path.read_text().splitlines()
        (index,) = [i for i, line in enumerate(lines) if SNAPSHOT in line]
        lines[index] = lines[index][:len(lines[index]) // 2]
        path.write_text("\n".join(lines) + "\n")
        # The restarted process brings its loaded criteria, as `serve`
        # does from a criteria file; the journal gets them back.
        healed = build_service(fleet, risk, tmp_path)
        assert kinds(healed)[SNAPSHOT] == 1
        assert healed.metrics.events_processed == 2
        recovered = build_service(fleet, risk, tmp_path, learn_on=0)
        assert (criteria_fingerprint(recovered.anubis.validator.criteria)
                == criteria_fingerprint(healed.anubis.validator.criteria))


class TestCriteriaFingerprint:
    def test_insertion_order_does_not_matter(self, fleet):
        validator = Validator(SUITE, runner=SuiteRunner(seed=9))
        validator.learn_criteria(fleet.nodes[:4])
        criteria = validator.criteria
        reordered = {key: criteria[key] for key in reversed(list(criteria))}
        assert criteria_fingerprint(reordered) == criteria_fingerprint(criteria)

    def test_every_persisted_field_matters(self, fleet):
        validator = Validator(SUITE, runner=SuiteRunner(seed=9))
        validator.learn_criteria(fleet.nodes[:4])
        criteria = validator.criteria
        key = sorted(criteria)[0]
        entry = criteria[key]
        base = criteria_fingerprint(criteria)
        values = np.asarray(entry.criteria, dtype=float)
        variants = [
            dataclasses.replace(entry, alpha=entry.alpha / 2),
            dataclasses.replace(
                entry, higher_is_better=not entry.higher_is_better),
            dataclasses.replace(entry, criteria=values[:-1]),
            dataclasses.replace(entry, criteria=-values),
        ]
        for variant in variants:
            assert criteria_fingerprint({**criteria, key: variant}) != base
        without = {k: v for k, v in criteria.items() if k != key}
        assert criteria_fingerprint(without) != base
        moved = {**without, ("other-sku",) + key[1:]: entry}
        assert criteria_fingerprint(moved) != base
