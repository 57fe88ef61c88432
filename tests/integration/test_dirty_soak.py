"""Dirty-telemetry soak (``-m soak``): the ISSUE acceptance scenario.

A fleet is validated under 10% telemetry contamination spanning all
four fault classes (NaN bursts, truncated windows, unit-scale
glitches, duplicated samples).  With sanitization at ingestion:

* criteria learning completes without error;
* the false-eviction rate of healthy nodes stays bounded relative to
  a clean control run;
* a deliberately poisoned criteria update is rejected by the guarded
  rollout and the previous criteria stays active.

Marked ``soak`` so tier-1 stays fast; CI runs it as a separate job.
"""

import numpy as np
import pytest

from repro.benchsuite.base import BenchmarkResult
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.selector import Selector
from repro.core.system import Anubis
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.hardware.node import Node
from repro.quality import RolloutConfig, Sanitizer
from repro.service import PoolConfig, ServiceConfig, ValidationService
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.dirty import dirty_runner
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

pytestmark = pytest.mark.soak

CONTAMINATION = 0.10
FLEET_SIZE = 24

# Multi-sample benchmarks: the sanitizer can mask and quarantine inside
# a window instead of losing the whole measurement.
SUITE = (suite_by_name("gpu-burn"), suite_by_name("matmul-allreduce-overlap"))


def fleet_nodes(n=FLEET_SIZE):
    return [Node(node_id=f"n{i:04d}") for i in range(n)]


@pytest.fixture(scope="module")
def soak():
    """One contaminated validation campaign, shared by the assertions."""
    nodes = fleet_nodes()

    clean_validator = Validator(SUITE, runner=SuiteRunner(seed=11))
    clean_validator.learn_criteria(nodes)
    clean_report = clean_validator.validate(nodes)

    sanitizer = Sanitizer.for_suite(SUITE)
    dirty_validator = Validator(
        SUITE,
        runner=dirty_runner(contamination=CONTAMINATION, seed=11,
                            sanitizer=sanitizer),
        contamination=CONTAMINATION,
    )
    dirty_validator.learn_criteria(nodes)
    dirty_report = dirty_validator.validate(nodes)

    return {
        "nodes": nodes,
        "sanitizer": sanitizer,
        "dirty_validator": dirty_validator,
        "clean_evicted": set(clean_report.defective_nodes),
        "dirty_evicted": set(dirty_report.defective_nodes),
    }


class TestContaminatedCampaign:
    def test_learning_completes_under_contamination(self, soak):
        criteria = soak["dirty_validator"].criteria
        skus = {node.sku for node in soak["nodes"]}
        expected = {(sku, spec.name, m.name) for sku in skus
                    for spec in SUITE for m in spec.metrics}
        assert set(criteria) == expected

    def test_faults_were_actually_injected(self, soak):
        summary = soak["sanitizer"].ledger.summary()
        injected = {kind for _, _, kind
                    in soak["dirty_validator"].runner.injected}
        assert injected  # the contamination lottery fired
        assert (summary["values_quarantined"] > 0
                or summary["windows_quarantined"] > 0)

    def test_false_eviction_rate_bounded(self, soak):
        false_evictions = soak["dirty_evicted"] - soak["clean_evicted"]
        # 10% contamination must not translate into fleet-scale false
        # evictions: dirty telemetry indicts the pipeline, not the
        # node.  Allow a small residue for windows degraded enough
        # (e.g. heavily truncated) to drift past the filter.
        assert len(false_evictions) <= max(2, FLEET_SIZE // 10)

    def test_no_mass_eviction(self, soak):
        assert len(soak["dirty_evicted"]) < FLEET_SIZE // 2


class PoisoningRunner(SuiteRunner):
    """Coherent fleet-wide skew, togglable -- the rollout adversary."""

    def __init__(self, factor=3.0, **kwargs):
        super().__init__(**kwargs)
        self.factor = factor
        self.poisoning = False

    def _execute(self, spec, node):
        result = super()._execute(spec, node)
        if not self.poisoning:
            return result
        return BenchmarkResult(
            benchmark=result.benchmark, node_id=result.node_id,
            metrics={name: series * self.factor
                     for name, series in result.metrics.items()})


class TestGuardedRolloutSoak:
    def test_poisoned_update_rejected_previous_criteria_active(self):
        runner = PoisoningRunner(seed=23)
        validator = Validator(SUITE, runner=runner)
        trace = generate_incident_trace(50, 800.0, seed=29)
        model = ExponentialModel().fit(extract_status_samples(trace))
        selector = Selector(model, analytic_coverage_table(SUITE),
                            suite_durations(SUITE), p0=0.05)
        service = ValidationService(
            Anubis(validator, selector), build_fleet(12, seed=31).nodes,
            config=ServiceConfig(pool=PoolConfig(max_workers=2),
                                 rollout=RolloutConfig()))
        nodes = fleet_nodes(12)

        bootstrap = service.learn_criteria(nodes)
        assert bootstrap and all(d.accepted for d in bootstrap)
        active = {key: np.asarray(c.criteria, dtype=float).copy()
                  for key, c in validator.criteria.items()}

        runner.poisoning = True
        decisions = service.learn_criteria(nodes)
        assert decisions and all(not d.accepted for d in decisions)
        for key, criteria in validator.criteria.items():
            np.testing.assert_array_equal(
                np.asarray(criteria.criteria, dtype=float), active[key])
