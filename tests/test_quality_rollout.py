"""Guarded criteria rollout: shadow evaluation, rejection, rollback."""

import numpy as np
import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.benchsuite.base import BenchmarkResult
from repro.core.drift import predicted_eviction_rate, shadow_evictions
from repro.core.selector import Selector
from repro.core.system import Anubis
from repro.core.validator import Validator
from repro.exceptions import InvalidSampleError, ReproError
from repro.hardware.fleet import build_fleet
from repro.quality import RolloutConfig, evaluate_rollout
from repro.service import PoolConfig, ServiceConfig, ValidationService
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.dirty import poisoned_windows
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel
from tests.test_validator import make_fleet, tiny_suite

ALPHA = 0.95


def healthy_windows(n=12, base=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return [base * (1.0 + 0.02 * rng.standard_normal(32)) for _ in range(n)]


class TestPredictedEvictionRate:
    def test_matching_criteria_evicts_nobody(self):
        windows = healthy_windows()
        criteria = np.concatenate(windows)
        assert predicted_eviction_rate(windows, criteria, alpha=ALPHA) == 0.0

    def test_inflated_criteria_evicts_everyone(self):
        windows = healthy_windows()
        criteria = np.concatenate(windows) * 3.0
        assert predicted_eviction_rate(windows, criteria, alpha=ALPHA) == 1.0

    def test_dead_windows_count_as_evictions(self):
        windows = healthy_windows(n=4)
        criteria = np.concatenate(windows)
        windows.append(np.full(8, np.nan))
        rate = predicted_eviction_rate(windows, criteria, alpha=ALPHA)
        assert rate == pytest.approx(1 / 5)

    def test_partially_non_finite_windows_evicted(self):
        # Online, one NaN in a window is an execution failure; the gate
        # predicts the same instead of scoring the finite rest.
        windows = healthy_windows(n=6)
        criteria = np.concatenate(windows)
        windows[0] = np.concatenate([windows[0], [np.nan, np.inf]])
        rate = predicted_eviction_rate(windows, criteria, alpha=ALPHA)
        assert rate == pytest.approx(1 / 6)

    def test_empty_window_list_rejected(self):
        with pytest.raises(InvalidSampleError):
            predicted_eviction_rate([], np.arange(4.0), alpha=ALPHA)


class TestGateMatchesVerdict:
    """The gate decides each shadow window as the online filter would."""

    def test_shadow_evictions_equal_check_results(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=3))
        fleet = make_fleet(n_healthy=10, defects=("ib_hca_degraded",))
        validator.learn_criteria(fleet)
        for spec in validator.suite:
            metric = spec.metrics[0]
            results = [validator.runner.run(spec, node) for node in fleet]
            width = results[0].sample(metric.name).size
            with_nan = results[0].sample(metric.name).copy()
            with_nan[width // 2] = np.nan
            dirty = (with_nan, np.full(width, np.nan), np.empty(0))
            results += [
                BenchmarkResult(benchmark=spec.name, node_id=f"dirty-{i}",
                                metrics={metric.name: window})
                for i, window in enumerate(dirty)]
            criteria = validator.criteria[("unknown", spec.name, metric.name)]
            gate = shadow_evictions(
                [result.sample(metric.name) for result in results],
                [criteria.criteria], alpha=criteria.alpha,
                higher_is_better=criteria.higher_is_better)[0]
            flagged = {violation.node_id for violation
                       in validator.check_results(spec, results)
                       if violation.metric == metric.name}
            verdicts = [result.node_id in flagged for result in results]
            assert gate.tolist() == verdicts
            # The three dirty windows are execution failures; the
            # degraded NIC is scored out of the loopback benchmark.
            assert verdicts[-3:] == [True] * 3
            assert verdicts[len(fleet) - 1] == (spec.name == "tiny-loopback")
            assert not any(verdicts[:len(fleet) - 1])


class TestEvaluateRollout:
    def test_bootstrap_within_cap_accepted(self):
        windows = healthy_windows()
        decision = evaluate_rollout(windows, np.concatenate(windows), None,
                                    alpha=ALPHA)
        assert decision.accepted
        assert decision.baseline_rate is None

    def test_bootstrap_poisoned_candidate_rejected(self):
        windows = healthy_windows()
        poisoned = np.concatenate(windows) * 3.0
        decision = evaluate_rollout(windows, poisoned, None, alpha=ALPHA)
        assert not decision.accepted
        assert decision.candidate_rate == 1.0

    def test_poisoned_update_rejected_against_previous(self):
        windows = healthy_windows()
        previous = np.concatenate(windows)
        decision = evaluate_rollout(windows, previous * 3.0, previous,
                                    alpha=ALPHA)
        assert not decision.accepted
        assert decision.baseline_rate == 0.0
        assert decision.candidate_rate == 1.0
        assert "jumped" in decision.reason

    def test_honest_refresh_accepted(self):
        windows = healthy_windows(seed=1)
        previous = np.concatenate(healthy_windows(seed=0))
        candidate = np.concatenate(windows)
        decision = evaluate_rollout(windows, candidate, previous, alpha=ALPHA)
        assert decision.accepted

    def test_abstains_below_min_shadow_windows(self):
        windows = healthy_windows(n=1)
        poisoned = windows[0] * 3.0
        decision = evaluate_rollout(windows, poisoned, None, alpha=ALPHA)
        assert decision.accepted
        assert "abstained" in decision.reason

    def test_config_validation(self):
        with pytest.raises(ReproError):
            RolloutConfig(max_eviction_jump=1.5)
        with pytest.raises(ReproError):
            RolloutConfig(min_shadow_windows=0)

    def test_lower_is_better_direction(self):
        # For a latency-like metric, *lower* values are better: a
        # candidate shifted far below the windows evicts them all.
        windows = healthy_windows()
        poisoned = np.concatenate(windows) / 3.0
        decision = evaluate_rollout(windows, poisoned, None, alpha=ALPHA,
                                    higher_is_better=False)
        assert not decision.accepted


class PoisoningRunner(SuiteRunner):
    """Reports every measurement a factor too high from sweep N on.

    Models the guarded-rollout adversary: a collector regression that
    skews the whole fleet coherently, so re-learned criteria would
    evict every healthy node.
    """

    def __init__(self, factor=3.0, **kwargs):
        super().__init__(**kwargs)
        self.factor = factor
        self.poisoning = False

    def _execute(self, spec, node):
        result = super()._execute(spec, node)
        if not self.poisoning:
            return result
        from repro.benchsuite.base import BenchmarkResult
        return BenchmarkResult(
            benchmark=result.benchmark, node_id=result.node_id,
            metrics={name: series * self.factor
                     for name, series in result.metrics.items()},
            sku=result.sku)


def build_guarded_service(journal_dir=None):
    suite = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
    fleet = build_fleet(8, seed=5)
    runner = PoisoningRunner(seed=9)
    validator = Validator(suite, runner=runner)
    trace = generate_incident_trace(50, 800.0, seed=11)
    model = ExponentialModel().fit(extract_status_samples(trace))
    selector = Selector(model, analytic_coverage_table(suite),
                        suite_durations(suite), p0=0.05)
    config = ServiceConfig(pool=PoolConfig(max_workers=2),
                           rollout=RolloutConfig())
    service = ValidationService(Anubis(validator, selector), fleet.nodes,
                                journal_dir=journal_dir, config=config)
    return service, fleet, runner


class TestGuardedServiceLearning:
    def test_bootstrap_learn_accepted(self):
        service, fleet, _runner = build_guarded_service()
        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and all(d.accepted for d in decisions)
        assert service.anubis.validator.criteria

    def test_poisoned_relearn_rolled_back(self, tmp_path):
        service, fleet, runner = build_guarded_service(str(tmp_path))
        service.learn_criteria(fleet.nodes)
        before = dict(service.anubis.validator.criteria)

        runner.poisoning = True
        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and all(not d.accepted for d in decisions)
        # Previous criteria still active, object for object.
        assert service.anubis.validator.criteria == before
        # The fleet still validates under them without a mass
        # eviction: the poisoning was in the telemetry, and the guard
        # kept the criteria anchored to reality.  (A single marginal
        # node may still trip ordinary noise on a later sweep.)
        runner.poisoning = False
        report = service.anubis.validator.validate(fleet.nodes)
        assert len(report.defective_nodes) <= 1

    def test_rollback_journaled_and_recovery_safe(self, tmp_path):
        service, fleet, runner = build_guarded_service(str(tmp_path))
        service.learn_criteria(fleet.nodes)
        runner.poisoning = True
        service.learn_criteria(fleet.nodes)

        kinds = [record.kind for record in service.store.replay()]
        assert "criteria-rollback" in kinds

        # A fresh service on the same journal recovers the *active*
        # (pre-poison) criteria and ignores the rollback records.
        reborn, _, _ = build_guarded_service()
        reborn_service = ValidationService(
            reborn.anubis, fleet.nodes, journal_dir=str(tmp_path),
            config=ServiceConfig(pool=PoolConfig(max_workers=2),
                                 rollout=RolloutConfig()))
        restored = reborn_service.anubis.validator.criteria
        active = service.anubis.validator.criteria
        assert set(restored) == set(active)
        for key in active:
            np.testing.assert_allclose(
                np.asarray(restored[key].criteria, dtype=float),
                np.asarray(active[key].criteria, dtype=float))

    def test_poisoned_windows_generator_is_rejected(self):
        # The simulation-layer adversary and the guard agree.
        windows = healthy_windows()
        candidate = np.concatenate(
            poisoned_windows(n_windows=12, base_value=100.0))
        decision = evaluate_rollout(windows, candidate,
                                    np.concatenate(windows), alpha=ALPHA)
        assert not decision.accepted
