"""One benchmark run, one pass: byte-identity against the per-metric path.

``SuiteRunner.run`` draws a run's noise in one call, slices the
measurement window before building a window, and sanitizes by building
each window once.  The oracle below is the path it replaced, kept
as it was: a scalar then a vector draw per metric, the full series
built and then cut by ``with_values``, the generator seeded from the
entropy tuple, and every sanitized window rebuilt by
``dataclasses.replace``.  Every window must match it byte for byte.
"""

import dataclasses
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.base import (
    BenchmarkKind,
    BenchmarkResult,
    measure_metric,
)
from repro.benchsuite.faults import FaultInjectingRunner
from repro.benchsuite.runner import StepWindow, SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core.measurement import MetricWindow
from repro.exceptions import BenchmarkError
from repro.hardware.components import Component
from repro.hardware.node import Node
from repro.hardware.sku import performance_factor
from repro.quality.sanitize import Sanitizer, sanitize_window

SUITE = full_suite()
SKUS = ("A100", "H100", "MI250X")


# ----------------------------------------------------------------------
# The oracle: the per-metric path, as it was
# ----------------------------------------------------------------------
def oracle_measure(spec, metric, node, rng, n_steps=None):
    multiplier = node.performance_multiplier(spec.metric_sensitivity(metric))
    key = f"{node.node_id}/{spec.name}/{metric.name}".encode()
    if metric.node_cv != 0.0:
        draw = np.random.default_rng(zlib.crc32(key)).standard_normal()
        multiplier *= 1.0 + metric.node_cv * float(draw)
    multiplier *= performance_factor(node.sku)
    run_factor = 1.0 + metric.run_cv * float(rng.standard_normal())
    length = int(n_steps) if n_steps is not None else metric.series_length
    if length < 1:
        raise BenchmarkError("n_steps must be at least 1")
    if metric.higher_is_better:
        level = metric.base_value * multiplier
    else:
        level = metric.base_value / max(multiplier, 1e-6)
    level *= max(run_factor, 0.01)
    noise = 1.0 + metric.noise_cv * rng.standard_normal(length)
    series = level * noise
    if spec.e2e_profile is not None and metric.higher_is_better:
        series = series * spec.e2e_profile.shape(length)
    return np.maximum(series, 1e-9)


def oracle_run_benchmark(spec, node, rng, n_steps=None):
    windows = tuple(
        MetricWindow(
            node_id=node.node_id, benchmark=spec.name, metric=metric.name,
            values=oracle_measure(spec, metric, node, rng, n_steps),
            higher_is_better=metric.higher_is_better, sku=node.sku)
        for metric in spec.metrics)
    return BenchmarkResult(benchmark=spec.name, node_id=node.node_id,
                           windows=windows, sku=node.sku)


def oracle_mark_sanitized(window, *, values=None, quarantined=False,
                          faults=()):
    new_values = window.values if values is None else values
    return dataclasses.replace(
        window, values=np.asarray(new_values, dtype=float).ravel(),
        sanitized=True, quarantined=bool(quarantined),
        faults=window.faults + tuple(faults))


def oracle_sanitize_result(sanitizer, result):
    windows = []
    for window in result.windows:
        schema = sanitizer.schema_for(result.benchmark, window.metric,
                                      window.sku)
        if window.sanitized or schema is None:
            windows.append(window)
            continue
        outcome = sanitize_window(window.values, schema,
                                  node_id=result.node_id,
                                  benchmark=result.benchmark,
                                  metric=window.metric)
        for rec in outcome.records:
            sanitizer.ledger.record(rec)
        faults = tuple(rec.fault for rec in outcome.records)
        if outcome.excluded:
            windows.append(oracle_mark_sanitized(
                window, quarantined=True, faults=faults))
        else:
            windows.append(oracle_mark_sanitized(
                window, values=outcome.values, faults=faults))
    return result.with_windows(tuple(windows))


class OracleRunner(SuiteRunner):
    def _measurement_rng(self, spec, node):
        key = (node.node_id, spec.name)
        repeat = self._repeat_counts.get(key, 0)
        self._repeat_counts[key] = repeat + 1
        entropy = (self.seed, zlib.crc32(node.node_id.encode()),
                   zlib.crc32(spec.name.encode()), repeat)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def _execute(self, spec, node):
        window = self.window_for(spec)
        rng = self._measurement_rng(spec, node)
        if spec.kind is BenchmarkKind.E2E and window is not None:
            raw = oracle_run_benchmark(spec, node, rng, window.total_steps)
            return raw.with_windows(tuple(
                w.with_values(window.apply(w.values)) for w in raw.windows))
        return oracle_run_benchmark(spec, node, rng)

    def run(self, spec, node):
        with self.stats.timed("execute"):
            result = self._execute(spec, node)
        if self.sanitizer is not None:
            with self.stats.timed("sanitize"):
                result = oracle_sanitize_result(self.sanitizer, result)
        return result


class OracleFaultRunner(FaultInjectingRunner, OracleRunner):
    """Faults injected over the oracle's execution (MRO: the fault
    runner's ``super()._execute`` is :meth:`OracleRunner._execute`)."""


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _provenance(window):
    return (window.node_id, window.benchmark, window.metric, window.sku,
            window.higher_is_better, window.sanitized, window.quarantined,
            window.faults, window.schema_version)


def assert_same_result(got, want):
    assert (got.benchmark, got.node_id, got.sku) == (
        want.benchmark, want.node_id, want.sku)
    assert len(got.windows) == len(want.windows)
    for mine, theirs in zip(got.windows, want.windows):
        assert _provenance(mine) == _provenance(theirs)
        assert mine.values.dtype == theirs.values.dtype == np.float64
        assert mine.values.tobytes() == theirs.values.tobytes()


def _stage_counts(runner):
    return {stage: entry["count"]
            for stage, entry in runner.stats.snapshot().items()}


def _node(sku, index, degraded, component, health):
    node = Node(node_id=f"{sku.lower()}-{index:03d}", sku=sku,
                performance_spread=1.0 + 0.01 * (index % 3 - 1))
    if degraded:
        node.health[component] = health
    return node


NODES = st.builds(
    _node, sku=st.sampled_from(SKUS), index=st.integers(0, 40),
    degraded=st.booleans(), component=st.sampled_from(list(Component)),
    health=st.floats(min_value=0.05, max_value=0.99))
WINDOWS = st.one_of(st.none(), st.builds(
    StepWindow, warmup=st.integers(0, 200), measure=st.integers(1, 300)))
FAULTS = {
    "none": None,
    "execution": dict(crash_rate=0.3, hang_rate=0.3, garbage_rate=0.2),
    "telemetry": dict(telemetry_nan_rate=0.25, telemetry_truncate_rate=0.25,
                      telemetry_scale_rate=0.25,
                      telemetry_duplicate_rate=0.25),
}


def _runner_pair(seed, windows, sanitize, faults):
    def sanitizer():
        return (Sanitizer.for_suite(SUITE, skus=SKUS) if sanitize else None)

    options = FAULTS[faults]
    if options is None:
        return (SuiteRunner(seed=seed, windows=windows, sanitizer=sanitizer()),
                OracleRunner(seed=seed, windows=windows,
                             sanitizer=sanitizer()))
    return (FaultInjectingRunner(seed=seed, windows=windows,
                                 sanitizer=sanitizer(), **options),
            OracleFaultRunner(seed=seed, windows=windows,
                              sanitizer=sanitizer(), **options))


class TestRunMatchesOracle:
    @given(seed=st.one_of(st.integers(0, 2 ** 32 - 1),
                          st.integers(2 ** 32, 2 ** 40)),
           spec=st.sampled_from(SUITE), nodes=st.lists(NODES, min_size=1,
                                                        max_size=3),
           window=WINDOWS, sanitize=st.booleans(),
           faults=st.sampled_from(sorted(FAULTS)))
    @settings(max_examples=300, deadline=None)
    def test_every_window_is_byte_identical(self, seed, spec, nodes, window,
                                            sanitize, faults):
        windows = {spec.name: window} if window is not None else None
        runner, oracle = _runner_pair(seed, windows, sanitize, faults)
        for node in nodes:
            for _repeat in range(3):
                assert_same_result(runner.run(spec, node),
                                   oracle.run(spec, node))
        if runner.sanitizer is not None:
            assert (runner.sanitizer.ledger.summary()
                    == oracle.sanitizer.ledger.summary())
        assert getattr(runner, "injected", None) == getattr(
            oracle, "injected", None)
        assert _stage_counts(runner) == _stage_counts(oracle)

    def test_the_whole_suite_on_three_skus(self):
        # Every benchmark (micro, end-to-end and multi-node), the
        # default windows, healthy and degraded nodes of each SKU.
        runner, oracle = _runner_pair(9, None, True, "none")
        nodes = [_node(sku, index, index == 1, Component.GPU_COMPUTE, 0.6)
                 for sku in SKUS for index in range(2)]
        for node in nodes:
            for spec in SUITE:
                assert_same_result(runner.run(spec, node),
                                   oracle.run(spec, node))
        assert _stage_counts(runner) == _stage_counts(oracle) == {
            "execute": len(nodes) * len(SUITE),
            "sanitize": len(nodes) * len(SUITE)}

    @given(seed=st.integers(0, 2 ** 32 - 1), spec=st.sampled_from(SUITE),
           node=NODES, n_steps=st.one_of(st.none(), st.integers(1, 400)))
    @settings(max_examples=200, deadline=None)
    def test_measure_metric_draws_like_the_oracle(self, seed, spec, node,
                                                  n_steps):
        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        for metric in spec.metrics:
            got = measure_metric(spec, metric, node, rng, n_steps=n_steps)
            want = oracle_measure(spec, metric, node, oracle_rng, n_steps)
            assert got.tobytes() == want.tobytes()
        # Both generators are left in the same state.
        assert rng.standard_normal() == oracle_rng.standard_normal()


class TestOneCrossing:
    def test_second_crossing_returns_the_same_result(self):
        sanitizer = Sanitizer.for_suite(SUITE, skus=SKUS)
        runner = FaultInjectingRunner(
            seed=3, sanitizer=sanitizer, telemetry_scale_rate=0.5,
            telemetry_nan_rate=0.5)
        node = _node("H100", 7, False, Component.CPU, 1.0)
        for spec in SUITE:
            once = runner.run(spec, node)
            before = sanitizer.ledger.summary()
            assert sanitizer.sanitize_result(spec, once) is once
            assert sanitizer.ledger.summary() == before

    def test_unschemaed_result_is_returned_as_is(self):
        result = BenchmarkResult(benchmark="b", node_id="n0",
                                 metrics={"m": np.array([1.0, 2.0])})
        assert Sanitizer({}).sanitize_result(None, result) is result

    def test_windows_do_not_share_the_cached_shape(self):
        spec = next(s for s in SUITE if s.kind is BenchmarkKind.E2E)
        node = _node("A100", 0, False, Component.CPU, 1.0)
        first = SuiteRunner(seed=1).run(spec, node)
        for window in first.windows:
            window.values[:] = -1.0
        again = SuiteRunner(seed=1).run(spec, node)
        assert_same_result(again, OracleRunner(seed=1).run(spec, node))
