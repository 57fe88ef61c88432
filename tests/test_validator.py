"""Unit tests for the Validator: criteria learning and defect filtering."""

import dataclasses
import re

import numpy as np
import pytest

from repro.benchsuite.base import (
    BenchmarkKind,
    BenchmarkResult,
    BenchmarkSpec,
    E2eProfile,
    MetricSpec,
    Phase,
)
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core import distance, fastdist
from repro.core import validator as validator_module
from repro.core.ecdf import as_sample
from repro.core.validator import ValidationReport, Validator, Violation
from repro.exceptions import CriteriaError, SkuMismatchError
from repro.hardware.components import Component, defect_mode
from repro.hardware.node import Node


def tiny_suite():
    """Two benchmarks: a NIC micro and a CNN end-to-end."""
    micro = BenchmarkSpec(
        name="tiny-loopback", kind=BenchmarkKind.MICRO, phase=Phase.SINGLE_NODE,
        duration_minutes=2.0, sensitivity={Component.NIC: 1.0},
        metrics=(MetricSpec(name="bw", unit="GB/s", base_value=25.0,
                            noise_cv=0.001, run_cv=0.0005, node_cv=0.0005),),
    )
    e2e = BenchmarkSpec(
        name="tiny-resnet", kind=BenchmarkKind.E2E, phase=Phase.SINGLE_NODE,
        duration_minutes=5.0,
        sensitivity={Component.E2E_CNN_PATH: 1.0, Component.GPU_COMPUTE: 0.5},
        metrics=(MetricSpec(name="throughput", unit="samples/s", base_value=2900.0,
                            noise_cv=0.008, run_cv=0.003, node_cv=0.003,
                            series_length=160),),
        e2e_profile=E2eProfile(warmup_steps=24, period=16),
    )
    return (micro, e2e)


def make_fleet(n_healthy=12, defects=()):
    rng = np.random.default_rng(0)
    nodes = [Node(node_id=f"h-{i}") for i in range(n_healthy)]
    for index, mode_name in enumerate(defects):
        node = Node(node_id=f"d-{index}")
        node.apply_defect(defect_mode(mode_name), rng)
        nodes.append(node)
    return nodes


class TestCriteriaLearning:
    def test_learn_creates_criteria_per_metric(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=1))
        validator.learn_criteria(make_fleet())
        assert ("unknown", "tiny-loopback", "bw") in validator.criteria
        assert ("unknown", "tiny-resnet", "throughput") in validator.criteria

    def test_check_without_criteria_raises(self):
        validator = Validator(tiny_suite())
        result = BenchmarkResult(benchmark="tiny-loopback", node_id="x",
                                 metrics={"bw": np.array([25.0])})
        with pytest.raises(CriteriaError):
            validator.check_result(validator.spec("tiny-loopback"), result)

    def test_unknown_benchmark_lookup(self):
        validator = Validator(tiny_suite())
        with pytest.raises(KeyError):
            validator.spec("nope")

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            Validator(())


class TestValidation:
    def test_healthy_fleet_mostly_passes(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=2))
        fleet = make_fleet(n_healthy=16)
        validator.learn_criteria(fleet)
        report = validator.validate(fleet)
        assert len(report.defective_nodes) <= 1  # allow one unlucky node

    def test_nic_defect_caught_by_loopback_only(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=3))
        fleet = make_fleet(n_healthy=14, defects=("ib_hca_degraded",))
        validator.learn_criteria(fleet[:14])
        report = validator.validate(fleet)
        assert "d-0" in report.defective_nodes
        benchmarks = {v.benchmark for v in report.violations if v.node_id == "d-0"}
        assert "tiny-loopback" in benchmarks

    def test_cnn_path_defect_caught_by_e2e_only(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=4))
        fleet = make_fleet(n_healthy=14, defects=("cnn_path_regression",))
        validator.learn_criteria(fleet[:14])
        report = validator.validate(fleet)
        benchmarks = {v.benchmark for v in report.violations if v.node_id == "d-0"}
        assert benchmarks == {"tiny-resnet"}

    def test_subset_validation_runs_only_selected(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=5))
        fleet = make_fleet()
        validator.learn_criteria(fleet)
        report = validator.validate(fleet, benchmarks=["tiny-loopback"])
        assert report.benchmarks_run == ["tiny-loopback"]

    def test_execution_failure_flags_node(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=6))
        fleet = make_fleet()
        validator.learn_criteria(fleet)
        bad = BenchmarkResult(benchmark="tiny-loopback", node_id="crash",
                              metrics={"bw": np.array([])})
        violations = validator.check_result(validator.spec("tiny-loopback"), bad)
        assert len(violations) == 1
        assert "execution-failure" in violations[0].reason

    def test_nan_result_flags_node(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=7))
        fleet = make_fleet()
        validator.learn_criteria(fleet)
        bad = BenchmarkResult(benchmark="tiny-loopback", node_id="hang",
                              metrics={"bw": np.array([float("nan")])})
        violations = validator.check_result(validator.spec("tiny-loopback"), bad)
        assert violations and violations[0].similarity == 0.0


class TestValidationReport:
    def test_defective_nodes_deduplicated_in_order(self):
        report = ValidationReport(validated_nodes=["a", "b"])
        report.violations = [
            Violation("b", "x", "m", 0.5),
            Violation("a", "x", "m", 0.5),
            Violation("b", "y", "m", 0.4),
        ]
        assert report.defective_nodes == ["b", "a"]
        # 4 096 violations over 64 nodes, first seen in a stride order.
        report.violations = [Violation(f"n{(7 * i) % 64}", "x", "m", 0.5)
                             for i in range(4096)]
        assert report.defective_nodes == [f"n{(7 * i) % 64}"
                                          for i in range(64)]

    def test_healthy_nodes_complement(self):
        report = ValidationReport(validated_nodes=["a", "b", "c"])
        report.violations = [Violation("b", "x", "m", 0.5)]
        assert report.healthy_nodes == ["a", "c"]

    def test_violations_by_benchmark(self):
        report = ValidationReport(validated_nodes=["a", "b"])
        report.violations = [
            Violation("a", "x", "m", 0.5),
            Violation("b", "x", "m", 0.5),
            Violation("a", "y", "m", 0.4),
        ]
        grouped = report.violations_by_benchmark()
        assert grouped == {"x": {"a", "b"}, "y": {"a"}}


def ragged_spec():
    """One benchmark whose metrics differ in window length and polarity;
    ``thr`` and ``thr2`` share a shape."""
    def metric(name, length, higher=True):
        return MetricSpec(name=name, unit="u", base_value=100.0,
                          noise_cv=0.01, run_cv=0.002, node_cv=0.002,
                          series_length=length, higher_is_better=higher)
    return BenchmarkSpec(
        name="ragged", kind=BenchmarkKind.MICRO, phase=Phase.SINGLE_NODE,
        duration_minutes=1.0, sensitivity={Component.NIC: 1.0},
        metrics=(metric("bw", 1), metric("lat", 1, higher=False),
                 metric("thr", 48), metric("thr2", 48),
                 metric("jit", 32, higher=False)))


def violation_rows(violations):
    return [(v.node_id, v.benchmark, v.metric, v.reason, v.sku)
            for v in violations]


class TestBatchedScoring:
    """check_results(spec, k results) is a loop of check_result -- same
    verdicts, same order -- at a kernel call per window shape."""

    SKUS = ("A100", "H100", "MI250X")

    @pytest.fixture()
    def scored(self):
        spec = ragged_spec()
        nodes = [Node(node_id=f"{sku}-{i}", sku=sku)
                 for sku in self.SKUS for i in range(4)]
        validator = Validator((spec,), runner=SuiteRunner(seed=11))
        validator.learn_criteria(nodes)
        results = [validator.runner.run(spec, node) for node in nodes]
        return spec, validator, results

    @staticmethod
    def with_window(result, metric, **changes):
        return result.with_windows(tuple(
            dataclasses.replace(window, **changes)
            if window.metric == metric else window
            for window in result.windows))

    def dirty(self, results):
        """The clean results plus every window the scorer must treat
        specially: shorter, quarantined, empty, non-finite."""
        results = list(results)
        results[1] = self.with_window(
            results[1], "thr", values=results[1].sample("thr")[:40])
        results[2] = self.with_window(results[2], "bw", quarantined=True)
        results[5] = self.with_window(results[5], "thr2", values=np.array([]))
        results[9] = self.with_window(
            results[9], "jit", values=np.full(32, np.nan))
        return results

    def test_equals_a_check_result_loop_and_the_scalar_oracle(self, scored):
        spec, validator, results = scored
        results = self.dirty(results)
        validator.alpha = 2.0   # every scored window reports its similarity
        batched = validator.check_results(spec, results)
        looped = [violation for result in results
                  for violation in validator.check_result(spec, result)]
        assert violation_rows(batched) == violation_rows(looped)
        assert [v.similarity for v in batched] == [v.similarity
                                                   for v in looped]

        by_cell = {(v.node_id, v.metric): v for v in batched}
        for result in results:
            for metric in spec.metrics:
                verdict = by_cell.get((result.node_id, metric.name))
                window = result.window(metric.name)
                if window.quarantined:
                    assert verdict is None
                elif not window.n or not np.isfinite(window.values).all():
                    assert verdict.reason.startswith("execution-failure")
                    assert verdict.similarity == 0.0
                else:
                    criteria = validator.criteria[
                        (result.sku, spec.name, metric.name)]
                    oracle = distance.one_sided_similarity(
                        window.values, criteria.criteria,
                        higher_is_better=metric.higher_is_better)
                    assert verdict.reason == "below-threshold"
                    assert verdict.sku == result.sku
                    assert abs(verdict.similarity - oracle) <= 1e-12
        # Node-major, then the spec's metric order.
        nodes = [result.node_id for result in results]
        metrics = [metric.name for metric in spec.metrics]
        order = [(nodes.index(v.node_id), metrics.index(v.metric))
                 for v in batched]
        assert order == sorted(order)

    def test_real_threshold_flags_the_same_cells(self, scored):
        spec, validator, results = scored
        results = self.dirty(results)
        batched = validator.check_results(spec, results)
        looped = [violation for result in results
                  for violation in validator.check_result(spec, result)]
        assert violation_rows(batched) == violation_rows(looped)
        assert {(v.node_id, v.metric) for v in batched} >= {
            (results[5].node_id, "thr2"), (results[9].node_id, "jit")}

    def test_missing_namespace_and_misfiled_criteria_still_raise(self, scored):
        spec, validator, results = scored
        misfiled = dict(validator.criteria)
        misfiled[("H100", "ragged", "thr")] = misfiled[
            ("A100", "ragged", "thr")]
        validator.criteria = misfiled
        with pytest.raises(SkuMismatchError):
            validator.check_results(spec, results)
        del misfiled[("H100", "ragged", "thr")]
        with pytest.raises(CriteriaError, match="H100/ragged/thr"):
            validator.check_results(spec, results)

    def test_one_kernel_call_per_window_shape(self, scored, monkeypatch):
        spec, validator, results = scored
        calls = []
        for name in ("batch_gap_integrals", "one_vs_many_distances"):
            original = getattr(fastdist, name)
            monkeypatch.setattr(
                fastdist, name, lambda *args, _original=original, **kw:
                (calls.append(1), _original(*args, **kw))[1])
        validator.check_results(spec, results)
        # 12 nodes x 5 metrics x 3 SKUs score in one call per (window
        # length, reference length, polarity).
        shapes = {(result.window(metric.name).n,
                   validator.criteria[(result.sku, spec.name,
                                       metric.name)].criteria.size,
                   metric.higher_is_better)
                  for result in results for metric in spec.metrics}
        assert 1 <= len(calls) <= len(shapes) < len(spec.metrics) * 3

    def test_cached_reference_is_never_validated_again(self, scored,
                                                       monkeypatch):
        spec, validator, results = scored
        validator.check_results(spec, results)      # fills the cache
        validated = []
        for module in (validator_module, fastdist):
            monkeypatch.setattr(
                module, "as_sample", lambda values, _original=as_sample, **kw:
                (validated.append(1), _original(values, **kw))[1])
        validator.check_results(spec, results)
        assert len(validated) == len(results) * len(spec.metrics)


class TestPhaseScoring:
    """check_sweep scores a whole phase -- every spec's windows -- with
    one kernel call per window shape, and returns exactly the verdicts
    of a per-spec check_results loop, bit for bit."""

    SKUS = ("A100", "H100", "MI250X")
    PARTS = (slice(0, 1), slice(1, 3), slice(3, 6), slice(5, 12))

    @pytest.fixture(scope="class")
    def learned(self):
        suite = full_suite()
        # SKUs interleaved, so every part of three or more nodes spans
        # all three namespaces.
        nodes = [Node(node_id=f"{sku}-{i}", sku=sku)
                 for i in range(4) for sku in self.SKUS]
        validator = Validator(suite, runner=SuiteRunner(seed=13))
        validator.learn_criteria(nodes)
        validator.alpha = 2.0   # every scored window reports its similarity
        return suite, nodes, validator

    def phases(self, learned):
        """Every phase of the suite on every part, the seven-node part's
        micro phase holding a quarantined metric, an empty window and a
        NaN window."""
        suite, nodes, validator = learned
        for part in self.PARTS:
            part = nodes[part]
            for number, specs in enumerate(validator.execution_phases(suite)):
                phase = [(spec, [validator.runner.run(spec, node)
                                 for node in part]) for spec in specs]
                if len(part) == 7 and number == 0:
                    dirty = TestBatchedScoring.with_window
                    (_, kernel), (_, gemm), (_, burn) = (
                        phase[0], phase[1], phase[4])
                    kernel[1] = dirty(kernel[1], kernel[1].windows[0].metric,
                                      quarantined=True)
                    gemm[3] = dirty(gemm[3], gemm[3].windows[0].metric,
                                    values=np.array([]))
                    burn[5] = dirty(burn[5], burn[5].windows[0].metric,
                                    values=np.full(60, np.nan))
                yield phase

    def test_equals_a_per_spec_loop_and_the_scalar_oracle(self, learned):
        _suite, _nodes, validator = learned
        dirty_seen = set()
        for phase in self.phases(learned):
            swept = validator.check_sweep(phase)
            looped = [violation for spec, results in phase
                      for violation in validator.check_results(spec, results)]
            assert violation_rows(swept) == violation_rows(looped)
            assert ([v.similarity.hex() for v in swept]
                    == [v.similarity.hex() for v in looped])

            by_cell = {(v.benchmark, v.node_id, v.metric): v for v in swept}
            cells = []
            for spec, results in phase:
                for result in results:
                    for metric in spec.metrics:
                        cell = (spec.name, result.node_id, metric.name)
                        verdict = by_cell.get(cell)
                        window = result.window(metric.name)
                        if window.quarantined:
                            assert verdict is None
                            dirty_seen.add("quarantined")
                            continue
                        cells.append(cell)
                        if (not window.n
                                or not np.isfinite(window.values).all()):
                            assert verdict.reason.startswith(
                                "execution-failure")
                            assert verdict.similarity == 0.0
                            dirty_seen.add("empty" if not window.n
                                           else "non-finite")
                            continue
                        criteria = validator.criteria[
                            (result.sku, spec.name, metric.name)]
                        expected = distance.one_sided_similarity(
                            window.values, criteria.criteria,
                            higher_is_better=metric.higher_is_better)
                        assert verdict.reason == "below-threshold"
                        assert verdict.sku == result.sku
                        assert abs(verdict.similarity - expected) <= 1e-12
            # Every unquarantined window is reported, in (benchmark,
            # node, metric) order.
            assert [(v.benchmark, v.node_id, v.metric)
                    for v in swept] == cells
        assert dirty_seen == {"quarantined", "empty", "non-finite"}

    def test_one_kernel_call_per_window_shape_across_specs(self, learned,
                                                           monkeypatch):
        suite, nodes, validator = learned
        calls = []
        original = fastdist.batch_gap_integrals
        monkeypatch.setattr(
            fastdist, "batch_gap_integrals", lambda *args, **kw:
            (calls.append(1), original(*args, **kw))[1])
        phase = [(spec, [validator.runner.run(spec, node)
                         for node in nodes[:3]])
                 for spec in validator.execution_phases(suite)[0]]
        validator.check_sweep(phase)

        def shapes(spec, results):
            return {(result.window(metric.name).n,
                     validator.criteria[(result.sku, spec.name,
                                         metric.name)].criteria.size,
                     metric.higher_is_better)
                    for result in results for metric in spec.metrics}

        per_spec = sum(len(shapes(spec, results)) for spec, results in phase)
        across = set().union(*(shapes(spec, results)
                               for spec, results in phase))
        assert len(calls) == len(across) < per_spec

    def test_missing_namespace_and_misfiled_criteria_raise(self, learned):
        suite, nodes, validator = learned
        specs = validator.execution_phases(suite)[0]
        phase = [(spec, [validator.runner.run(spec, node)
                         for node in nodes[:3]]) for spec in specs]
        key = ("H100", specs[-1].name, specs[-1].metrics[0].name)
        criteria = validator.criteria
        try:
            validator.criteria = dict(criteria)
            validator.criteria[key] = criteria[("A100",) + key[1:]]
            with pytest.raises(SkuMismatchError):
                validator.check_sweep(phase)
            del validator.criteria[key]
            with pytest.raises(CriteriaError, match=re.escape("/".join(key))):
                validator.check_sweep(phase)
        finally:
            validator.criteria = criteria
