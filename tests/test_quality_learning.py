"""Contamination-resistant learning: non-finite policies, trimmed
medoid aggregation, and the fleet-wide-abort regression."""

import warnings

import numpy as np
import pytest

from repro.benchsuite.base import BenchmarkResult
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.criteria import learn_criteria, medoid_index
from repro.core.ecdf import as_sample
from repro.core.incremental import learn_criteria_incremental
from repro.core.fastdist import SortedSampleBatch, pairwise_similarity_matrix
from repro.core.validator import Validator
from repro.exceptions import CriteriaError, InvalidSampleError
from repro.hardware.node import Node


def healthy_fleet(n=10, base=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return [base * (1.0 + 0.02 * rng.standard_normal(24)) for _ in range(n)]


class TestAsSamplePolicies:
    def test_reject_is_the_default(self):
        with pytest.raises(InvalidSampleError):
            as_sample([1.0, np.nan])

    def test_mask_drops_non_finite(self):
        out = as_sample([1.0, np.nan, 2.0, np.inf, -np.inf, 3.0],
                        nonfinite="mask")
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_mask_of_entirely_non_finite_rejected(self):
        with pytest.raises(InvalidSampleError, match="entirely non-finite"):
            as_sample([np.nan, np.inf], nonfinite="mask")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            as_sample([1.0], nonfinite="ignore")

    def test_batch_masks_before_padding(self):
        # +inf padding must never be confused with an observed +inf:
        # masking happens first, so the observed inf is gone and the
        # padded row still scores like its finite part.
        dirty = [np.array([1.0, 2.0, np.inf]), np.array([1.0, 2.0])]
        batch = SortedSampleBatch.from_samples(dirty, nonfinite="mask")
        clean = SortedSampleBatch.from_samples(
            [np.array([1.0, 2.0]), np.array([1.0, 2.0])])
        np.testing.assert_array_equal(batch.data, clean.data)
        np.testing.assert_array_equal(batch.sizes, clean.sizes)


class TestTrimmedMedoid:
    def test_zero_trim_matches_plain_medoid(self):
        samples = healthy_fleet()
        sim = pairwise_similarity_matrix(samples)
        active = np.ones(len(samples), dtype=bool)
        assert medoid_index(sim, active) == medoid_index(sim, active,
                                                         trim_fraction=0.0)

    def test_trim_fraction_ignores_planted_outliers(self):
        # Breakdown point: with trim t = floor(f * (k - 1)), up to t
        # adversarial windows cannot drag the medoid off the healthy
        # cluster.  Plant 2 of 12 poisoned windows and trim for them.
        samples = healthy_fleet(n=10) + [np.full(24, 1e5), np.full(24, 2e5)]
        sim = pairwise_similarity_matrix(samples)
        active = np.ones(len(samples), dtype=bool)
        trimmed = medoid_index(sim, active, trim_fraction=0.2)
        assert trimmed < 10

    def test_contamination_budget_shapes_learning(self):
        samples = healthy_fleet(n=10) + [np.full(24, 1e5), np.full(24, 2e5)]
        learned = learn_criteria(samples, 0.95, centroid="medoid",
                                 contamination=0.2)
        assert learned.centroid_index < 10
        assert {10, 11} <= set(learned.defect_indices)

    def test_invalid_contamination_rejected(self):
        samples = healthy_fleet(n=4)
        for bad in (-0.1, 0.5, 1.0):
            with pytest.raises(CriteriaError):
                learn_criteria(samples, 0.95, contamination=bad)


class TestNonFiniteLearning:
    def test_unknown_policy_rejected_by_both_learners(self):
        # Any string but "reject" would otherwise take the mask branch.
        samples = healthy_fleet()
        with pytest.raises(CriteriaError, match="nonfinite policy"):
            learn_criteria(samples, 0.95, nonfinite="ignore")
        with pytest.raises(CriteriaError, match="nonfinite policy"):
            learn_criteria_incremental(samples, 0.95, nonfinite="ignore")

    def test_masked_learning_matches_clean_learning(self):
        clean = healthy_fleet()
        dirty = [s.copy() for s in clean]
        dirty[3] = np.concatenate([dirty[3], [np.nan, np.inf]])
        a = learn_criteria(clean, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = learn_criteria(dirty, 0.95, nonfinite="mask")
        np.testing.assert_allclose(np.sort(a.criteria), np.sort(b.criteria))

    def test_masking_warns(self):
        dirty = healthy_fleet()
        dirty[0][0] = np.nan
        with pytest.warns(RuntimeWarning, match="non-finite"):
            learn_criteria(dirty, 0.95, nonfinite="mask")

    def test_fully_dead_window_excluded_not_fatal(self):
        samples = healthy_fleet() + [np.full(24, np.nan)]
        with pytest.warns(RuntimeWarning):
            learned = learn_criteria(samples, 0.95,
                                     nonfinite="mask")
        assert learned.excluded_indices == (len(samples) - 1,)
        assert learned.similarities[-1] == 0.0

    def test_reject_policy_still_raises(self):
        samples = healthy_fleet()
        samples[0][0] = np.nan
        with pytest.raises(InvalidSampleError):
            learn_criteria(samples, 0.95, nonfinite="reject")


class TestFleetWideAbortRegression:
    """Regression (the dirty-telemetry bug this PR fixes): one node's
    non-finite sample used to be able to abort, or silently shrink,
    fleet-wide criteria learning."""

    SUITE = (suite_by_name("mem-bw"),)

    def _results(self, n=8, seed=0):
        runner = SuiteRunner(seed=seed)
        spec = self.SUITE[0]
        return spec, {f"n{i}": runner.run(spec, Node(node_id=f"n{i}"))
                      for i in range(n)}

    def test_one_nan_node_does_not_abort_learning(self):
        spec, results = self._results()
        poisoned = results["n0"]
        results["n0"] = BenchmarkResult(
            benchmark=poisoned.benchmark, node_id=poisoned.node_id,
            metrics={name: np.full_like(series, np.nan, dtype=float)
                     for name, series in poisoned.metrics.items()})
        validator = Validator(self.SUITE)
        validator.learn_criteria_from_results(spec, results)
        assert all(("unknown", spec.name, m.name) in validator.criteria
                   for m in spec.metrics)

    def test_partial_nan_window_still_contributes(self):
        # Multi-sample window with one NaN: the finite part must stay
        # in the learning set (mask), not drop the whole node.
        spec = suite_by_name("gemm-flops")
        runner = SuiteRunner(seed=1)
        results = {f"n{i}": runner.run(spec, Node(node_id=f"n{i}"))
                   for i in range(8)}
        target = results["n3"]
        dirty_metrics = {}
        for name, series in target.metrics.items():
            series = np.asarray(series, dtype=float).copy()
            if series.size > 1:
                series[0] = np.nan
            dirty_metrics[name] = series
        results["n3"] = BenchmarkResult(benchmark=target.benchmark,
                                        node_id=target.node_id,
                                        metrics=dirty_metrics)
        validator = Validator((spec,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            validator.learn_criteria_from_results(spec, results)
        for metric in spec.metrics:
            learning = validator.criteria[("unknown", spec.name, metric.name)].learning
            # All 8 windows entered learning; none were excluded.
            assert len(learning.similarities) == 8
            assert learning.excluded_indices == ()

    def test_quarantined_metric_skipped_for_learning(self):
        spec, results = self._results()
        scaled = results["n0"]
        results["n0"] = BenchmarkResult(
            benchmark=scaled.benchmark, node_id=scaled.node_id,
            metrics={name: np.asarray(series, dtype=float) * 1000.0
                     for name, series in scaled.metrics.items()},
            quarantined=tuple(scaled.metrics))
        validator = Validator(self.SUITE)
        validator.learn_criteria_from_results(spec, results)
        for metric in spec.metrics:
            learning = validator.criteria[("unknown", spec.name, metric.name)].learning
            assert len(learning.similarities) == 7
