"""Unit tests for the benchmark suite registry and measurement model."""

import zlib

import numpy as np
import pytest

from repro.benchsuite.base import (
    BenchmarkKind,
    BenchmarkSpec,
    E2eProfile,
    MetricSpec,
    Phase,
    _node_metric_factor,
    measure_metric,
    run_benchmark,
)
from repro.benchsuite.suite import (
    e2e_suite,
    full_suite,
    micro_suite,
    multi_node_suite,
    single_node_suite,
    suite_by_name,
    total_duration_minutes,
    total_metric_count,
)
from repro.exceptions import BenchmarkError
from repro.hardware.components import defect_mode
from repro.hardware.node import Node


class TestSuiteRegistry:
    def test_twenty_four_benchmarks(self):
        # The paper's cluster dataset: 24 benchmarks.
        assert len(full_suite()) == 24

    def test_phases_partition_suite(self):
        assert len(single_node_suite()) + len(multi_node_suite()) == 24

    def test_kinds_partition_suite(self):
        assert len(micro_suite()) + len(e2e_suite()) == 24

    def test_unique_names(self):
        names = [s.name for s in full_suite()]
        assert len(set(names)) == len(names)

    def test_lookup(self):
        assert suite_by_name("gemm-flops").kind is BenchmarkKind.MICRO
        with pytest.raises(KeyError):
            suite_by_name("nope")

    def test_table2_families_present(self):
        names = {s.name for s in full_suite()}
        for expected in ("ib-loopback", "mem-bw", "nccl-bw-nvlink", "disk-fio",
                         "resnet-models", "bert-models", "gpt-models",
                         "matmul-allreduce-overlap", "all-pair-rdma"):
            assert expected in names

    def test_metric_count_substantial(self):
        assert total_metric_count() >= 40

    def test_total_duration_hours_scale(self):
        # A full-set validation costs a few hours, per the paper.
        assert 180.0 < total_duration_minutes() < 600.0

    def test_e2e_benchmarks_have_profiles(self):
        for spec in e2e_suite():
            assert spec.e2e_profile is not None

    def test_every_metric_has_positive_base(self):
        for spec in full_suite():
            for metric in spec.metrics:
                assert metric.base_value > 0


class TestSpecValidation:
    def test_duplicate_metric_names_rejected(self):
        metric = MetricSpec(name="m", unit="x", base_value=1.0)
        with pytest.raises(BenchmarkError):
            BenchmarkSpec(name="b", kind=BenchmarkKind.MICRO,
                          phase=Phase.SINGLE_NODE, duration_minutes=1.0,
                          sensitivity={}, metrics=(metric, metric))

    def test_e2e_without_profile_rejected(self):
        metric = MetricSpec(name="m", unit="x", base_value=1.0, series_length=10)
        with pytest.raises(BenchmarkError):
            BenchmarkSpec(name="b", kind=BenchmarkKind.E2E,
                          phase=Phase.SINGLE_NODE, duration_minutes=1.0,
                          sensitivity={}, metrics=(metric,))

    def test_metric_lookup(self):
        spec = suite_by_name("mem-bw")
        assert spec.metric("h2d_bw_gbs").unit == "GB/s"
        with pytest.raises(KeyError):
            spec.metric("nope")


class TestMeasurementModel:
    def test_healthy_node_measures_near_base(self):
        spec = suite_by_name("gemm-flops")
        metric = spec.metric("fp16_tflops")
        node = Node(node_id="n0")
        rng = np.random.default_rng(0)
        values = [measure_metric(spec, metric, node, rng)[0] for _ in range(50)]
        assert np.mean(values) == pytest.approx(metric.base_value, rel=0.03)

    def test_defective_node_measures_lower(self):
        spec = suite_by_name("ib-loopback")
        metric = spec.metrics[0]
        rng = np.random.default_rng(1)
        bad = Node(node_id="bad")
        bad.apply_defect(defect_mode("ib_hca_degraded"), rng)
        good_value = measure_metric(spec, metric, Node(node_id="ok"), rng)[0]
        bad_value = measure_metric(spec, metric, bad, rng)[0]
        assert bad_value < 0.95 * good_value

    def test_latency_polarity(self):
        spec = suite_by_name("cpu-memory-latency")
        metric = spec.metric("memory_latency_ns")
        rng = np.random.default_rng(2)
        bad = Node(node_id="bad")
        bad.apply_defect(defect_mode("dram_latency"), rng)
        good_value = measure_metric(spec, metric, Node(node_id="ok"), rng)[0]
        bad_value = measure_metric(spec, metric, bad, rng)[0]
        assert bad_value > good_value  # slower memory = higher latency

    def test_node_factor_stable_across_runs(self):
        spec = suite_by_name("gemm-flops")
        node = Node(node_id="fixed")
        a = run_benchmark(spec, node, np.random.default_rng(3))
        b = run_benchmark(spec, node, np.random.default_rng(4))
        # Same node: means within run-to-run variation, not node_cv apart.
        for name in a.metrics:
            assert a.metrics[name][0] == pytest.approx(b.metrics[name][0], rel=0.02)

    def test_node_factor_is_the_seeded_draw_and_drawn_once(self, monkeypatch):
        """The silicon-lottery factor is memoised: bit-identical to a
        generator seeded from the three names, and the second run of a
        benchmark on a node seeds no generator for it."""
        spec = suite_by_name("gemm-flops")
        node = Node(node_id="lottery-node")
        seeded = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng",
            lambda *args: (seeded.append(args), default_rng(*args))[1])
        rng = default_rng(3)
        first = run_benchmark(spec, node, rng)
        assert len(seeded) == len(spec.metrics)
        for metric in spec.metrics:
            key = f"{node.node_id}/{spec.name}/{metric.name}".encode()
            draw = default_rng(zlib.crc32(key)).standard_normal()
            assert _node_metric_factor(node, spec, metric) == (
                1.0 + metric.node_cv * float(draw))
        again = run_benchmark(spec, node, default_rng(3))
        assert len(seeded) == len(spec.metrics)
        for name in first.metrics:
            np.testing.assert_array_equal(first.metrics[name],
                                          again.metrics[name])

    def test_series_length_override(self):
        spec = suite_by_name("resnet-models")
        node = Node(node_id="n0")
        result = run_benchmark(spec, node, np.random.default_rng(5), n_steps=100)
        assert all(len(series) == 100 for series in result.metrics.values())

    def test_warmup_ramp_visible_in_e2e(self):
        spec = suite_by_name("resnet-models")
        node = Node(node_id="n0")
        result = run_benchmark(spec, node, np.random.default_rng(6), n_steps=400)
        series = result.metrics["fp32_throughput"]
        assert series[:5].mean() < 0.8 * series[-50:].mean()

    def test_invalid_steps_rejected(self):
        spec = suite_by_name("resnet-models")
        with pytest.raises(BenchmarkError):
            run_benchmark(spec, Node(node_id="n0"),
                          np.random.default_rng(7), n_steps=0)

    def test_samples_strictly_positive(self):
        spec = suite_by_name("kernel-launch")
        result = run_benchmark(spec, Node(node_id="n0"), np.random.default_rng(8))
        for series in result.metrics.values():
            assert np.all(series > 0)

    def test_result_sample_lookup(self):
        spec = suite_by_name("mem-bw")
        result = run_benchmark(spec, Node(node_id="n0"), np.random.default_rng(9))
        assert result.sample("h2d_bw_gbs").shape == (1,)
        with pytest.raises(KeyError):
            result.sample("nope")


class TestE2eProfile:
    def test_shape_starts_low_and_recovers(self):
        profile = E2eProfile(warmup_steps=50, period=20, ramp_depth=0.4)
        shape = profile.shape(400)
        assert shape[0] < 0.65
        assert shape[-1] == pytest.approx(1.0, abs=0.05)

    def test_seasonality_has_requested_period(self):
        profile = E2eProfile(warmup_steps=1, period=25,
                             seasonal_amplitude=0.05, ramp_depth=0.0)
        shape = profile.shape(100)
        assert shape[0] == pytest.approx(shape[25], rel=0.02)
