"""Telemetry sanitization: schemas, the fault taxonomy, ingestion wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.base import BenchmarkResult
from repro.benchsuite.faults import FaultInjectingRunner
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite, suite_by_name
from repro.core.validator import Validator
from repro.exceptions import ReproError
from repro.hardware.node import Node
from repro.quality import (
    FAULT_NON_FINITE,
    FAULT_OUT_OF_RANGE,
    FAULT_TRUNCATED,
    FAULT_UNIT_SCALE,
    MetricSchema,
    QuarantineRecord,
    Sanitizer,
    TelemetryLedger,
    sanitize_window,
    schemas_for_suite,
)


def _schema(**kwargs):
    defaults = dict(benchmark="b", metric="m", lower=1.0, upper=1000.0,
                    min_samples=4)
    defaults.update(kwargs)
    return MetricSchema(**defaults)


class TestMetricSchema:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ReproError):
            MetricSchema(benchmark="b", metric="m", lower=10.0, upper=1.0)

    def test_min_samples_floor(self):
        with pytest.raises(ReproError):
            MetricSchema(benchmark="b", metric="m", min_samples=0)

    def test_unit_scale_factor_must_exceed_one(self):
        with pytest.raises(ReproError):
            MetricSchema(benchmark="b", metric="m", unit_scale_factor=1.0)

    def test_suite_schemas_cover_every_metric(self):
        suite = full_suite()
        schemas = schemas_for_suite(suite)
        expected = {(spec.name, m.name) for spec in suite for m in spec.metrics}
        assert set(schemas) == expected

    def test_suite_schemas_bracket_base_value(self):
        suite = (suite_by_name("mem-bw"),)
        schemas = schemas_for_suite(suite, span_factor=50.0)
        for spec in suite:
            for metric in spec.metrics:
                schema = schemas[(spec.name, metric.name)]
                assert schema.lower == pytest.approx(metric.base_value / 50.0)
                assert schema.upper == pytest.approx(metric.base_value * 50.0)
                assert schema.lower <= metric.base_value <= schema.upper


class TestSanitizeWindow:
    def test_clean_window_untouched(self):
        values = np.array([10.0, 20.0, 30.0, 40.0])
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert not window.excluded
        assert window.records == ()
        np.testing.assert_array_equal(window.values, values)

    def test_empty_window_passes_through_as_crash(self):
        window = sanitize_window(np.array([]), _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert not window.excluded
        assert window.values.size == 0
        assert window.records == ()

    def test_non_finite_values_dropped_and_recorded(self):
        values = np.array([10.0, np.nan, 30.0, np.inf, 40.0, 50.0])
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert not window.excluded
        np.testing.assert_array_equal(window.values, [10.0, 30.0, 40.0, 50.0])
        (record,) = window.records
        assert record.fault == FAULT_NON_FINITE
        assert record.count == 2

    def test_all_non_finite_flows_on_empty_as_hang(self):
        window = sanitize_window(np.full(8, np.nan), _schema(min_samples=1),
                                 node_id="n0", benchmark="b", metric="m")
        assert not window.excluded
        assert window.values.size == 0
        assert window.records[0].fault == FAULT_NON_FINITE

    def test_unit_scale_glitch_quarantines_whole_window(self):
        values = np.array([10.0, 11.0, 12.0, 13.0]) * 1000.0
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert window.excluded
        assert window.records[0].fault == FAULT_UNIT_SCALE
        # Raw values preserved for forensics.
        np.testing.assert_array_equal(window.values, values)

    def test_out_of_range_values_dropped_pointwise(self):
        values = np.array([10.0, -5.0, 30.0, 1e7, 40.0, 50.0])
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert not window.excluded
        np.testing.assert_array_equal(window.values, [10.0, 30.0, 40.0, 50.0])
        (record,) = window.records
        assert record.fault == FAULT_OUT_OF_RANGE
        assert record.count == 2

    def test_truncated_window_quarantined(self):
        values = np.array([10.0, 20.0])  # below min_samples=4
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert window.excluded
        assert window.records[-1].fault == FAULT_TRUNCATED

    def test_degraded_but_plausible_window_survives(self):
        # A genuinely slow node (4x degradation) stays inside the
        # plausible range: sanitization must not launder real defects.
        values = np.full(6, 25.0)  # healthy ~100, schema upper 1000
        window = sanitize_window(values, _schema(), node_id="n0",
                                 benchmark="b", metric="m")
        assert not window.excluded
        assert window.records == ()


def _classify_in_full(values, schema, **where):
    """The fault taxonomy applied step by step, with no shortcut for
    clean windows: the oracle ``sanitize_window`` must agree with."""
    arr = np.asarray(values, dtype=float).ravel()
    records = []

    def record(fault, count, example=None, detail=""):
        records.append(QuarantineRecord(
            fault=fault, count=count, example=example, detail=detail,
            **where))

    if arr.size == 0:
        return arr, (), False
    finite = np.isfinite(arr)
    if not finite.all():
        record(FAULT_NON_FINITE, int((~finite).sum()),
               float(arr[~finite][0]))
        arr = arr[finite]
    if arr.size == 0:
        return arr, tuple(records), False
    if schema.upper is not None:
        median = float(np.median(arr))
        rescaled = median / schema.unit_scale_factor
        if (median > schema.upper and rescaled <= schema.upper
                and (schema.lower is None or rescaled >= schema.lower)):
            record(FAULT_UNIT_SCALE, int(arr.size), median,
                   f"median {median:.4g} is ~x{schema.unit_scale_factor:g} "
                   f"above the plausible range")
            return arr, tuple(records), True
    out = np.zeros(arr.size, dtype=bool)
    if schema.lower is not None:
        out |= arr < schema.lower
    if schema.upper is not None:
        out |= arr > schema.upper
    if out.any():
        record(FAULT_OUT_OF_RANGE, int(out.sum()), float(arr[out][0]))
        arr = arr[~out]
    if arr.size < schema.min_samples:
        record(FAULT_TRUNCATED, int(arr.size),
               detail=f"{arr.size} clean value(s) < floor "
                      f"{schema.min_samples}")
        return arr, tuple(records), True
    return arr, tuple(records), False


# Values that sit on, just inside and just outside the bounds 1 and
# 1000, a unit-scale multiple of the range, and every non-finite kind.
_WINDOW_VALUES = st.one_of(
    st.sampled_from([1.0, 1000.0, np.nextafter(1.0, 0.0),
                     np.nextafter(1000.0, np.inf), 0.0, -5.0, 1e4, 5e5, 1e9,
                     np.nan, np.inf, -np.inf]),
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(allow_nan=True, allow_infinity=True, width=64))


class TestCleanWindowShortcut:
    """Two reductions decide "clean"; every other window still gets the
    full classification, record for record."""

    WHERE = dict(node_id="n0", benchmark="b", metric="m")

    @given(values=st.lists(_WINDOW_VALUES, max_size=12),
           lower=st.sampled_from([None, 1.0]),
           upper=st.sampled_from([None, 1000.0]),
           min_samples=st.integers(min_value=1, max_value=6))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_full_classification(self, values, lower, upper,
                                                 min_samples):
        schema = _schema(lower=lower, upper=upper, min_samples=min_samples)
        expected_values, expected_records, expected_excluded = (
            _classify_in_full(values, schema, **self.WHERE))
        got = sanitize_window(values, schema, **self.WHERE)
        np.testing.assert_array_equal(got.values, expected_values)
        # By repr: a record's example may be NaN, which equals nothing.
        assert repr(got.records) == repr(expected_records)
        assert got.excluded == expected_excluded

        # Through the layer's public entry point: same ledger counts.
        sanitizer = Sanitizer({("b", "m"): schema})
        sanitizer.sanitize_result(None, BenchmarkResult(
            benchmark="b", node_id="n0", metrics={"m": np.array(values)}))
        expected_ledger = TelemetryLedger()
        for rec in expected_records:
            expected_ledger.record(rec)
        assert sanitizer.ledger.summary() == expected_ledger.summary()

    @pytest.mark.parametrize("bounds", [
        dict(lower=1.0, upper=1000.0), dict(lower=None, upper=1000.0),
        dict(lower=1.0, upper=None), dict(lower=None, upper=None)])
    def test_clean_window_costs_no_median_or_isfinite(self, monkeypatch,
                                                      bounds):
        calls = []
        for name in ("median", "isfinite"):
            original = getattr(np, name)
            monkeypatch.setattr(
                np, name, lambda *args, _name=name, _original=original, **kw:
                (calls.append(_name), _original(*args, **kw))[1])
        values = np.array([1.0, 20.0, 30.0, 1000.0])  # on both bounds
        window = sanitize_window(values, _schema(**bounds), **self.WHERE)
        assert not window.excluded and window.records == ()
        np.testing.assert_array_equal(window.values, values)
        assert calls == []
        # ... and a dirty one still pays for its classification.
        sanitize_window(np.array([1.0, np.nan, 30.0, 40.0, 50.0]),
                        _schema(**bounds), **self.WHERE)
        assert "isfinite" in calls


class TestLedger:
    def test_counters_accumulate(self):
        ledger = TelemetryLedger()
        sch = _schema()
        for node in ("n0", "n1"):
            window = sanitize_window(np.array([np.nan, 10.0, 20.0, 30.0, 40.0]),
                                     sch, node_id=node, benchmark="b",
                                     metric="m")
            for record in window.records:
                ledger.record(record)
        summary = ledger.summary()
        assert summary["by_fault"] == {FAULT_NON_FINITE: 2}
        assert summary["values_quarantined"] == 2
        assert summary["by_node"] == {"n0": 1, "n1": 1}
        assert FAULT_NON_FINITE in ledger.format_table()

    def test_record_trail_is_bounded(self):
        ledger = TelemetryLedger(max_records=4)
        sch = _schema()
        for i in range(10):
            window = sanitize_window(np.array([np.nan, 10.0, 20.0, 30.0, 40.0]),
                                     sch, node_id=f"n{i}", benchmark="b",
                                     metric="m")
            ledger.record(window.records[0])
        assert len(ledger.records) == 4
        assert ledger.summary()["values_quarantined"] == 10


class TestSanitizerIntegration:
    def test_runner_sanitizes_results(self):
        suite = (suite_by_name("mem-bw"),)
        sanitizer = Sanitizer.for_suite(suite)
        runner = FaultInjectingRunner(seed=0, telemetry_scale_rate=1.0,
                                      sanitizer=sanitizer)
        result = runner.run(suite[0], Node(node_id="n0"))
        assert set(result.quarantined) == {m.name for m in suite[0].metrics}
        assert sanitizer.ledger.summary()["by_fault"][FAULT_UNIT_SCALE] > 0

    def test_clean_run_identical_through_sanitizer(self):
        suite = (suite_by_name("mem-bw"),)
        spec = suite[0]
        node = Node(node_id="n0")
        bare = SuiteRunner(seed=7).run(spec, node)
        sanitized = SuiteRunner(seed=7,
                                sanitizer=Sanitizer.for_suite(suite)).run(
            spec, node)
        assert sanitized.quarantined == ()
        for name in bare.metrics:
            np.testing.assert_array_equal(bare.metrics[name],
                                          sanitized.metrics[name])

    def test_metrics_without_schema_pass_through(self):
        sanitizer = Sanitizer({})
        result = BenchmarkResult(benchmark="b", node_id="n0",
                                 metrics={"m": np.array([np.nan])})
        out = sanitizer.sanitize_result(None, result)
        assert np.isnan(out.metrics["m"][0])
        assert out.quarantined == ()

    def test_quarantined_metric_yields_no_verdict(self):
        suite = (suite_by_name("mem-bw"),)
        spec = suite[0]
        nodes = [Node(node_id=f"n{i}") for i in range(6)]
        validator = Validator(suite, runner=SuiteRunner(seed=1))
        validator.learn_criteria(nodes)
        clean = validator.runner.run(spec, nodes[0])
        quarantined = BenchmarkResult(
            benchmark=spec.name, node_id=nodes[0].node_id,
            metrics={name: series * 1000.0
                     for name, series in clean.metrics.items()},
            quarantined=tuple(clean.metrics))
        violations = validator.check_result(spec, quarantined)
        assert violations == []

    def test_pool_applies_service_sanitizer_once(self):
        from repro.service.pool import PoolConfig, ValidationPool

        suite = (suite_by_name("mem-bw"),)
        sanitizer = Sanitizer.for_suite(suite)
        runner = FaultInjectingRunner(seed=0, telemetry_scale_rate=1.0)
        pool = ValidationPool(PoolConfig(max_workers=2), sanitizer=sanitizer)
        sweep = pool.run_benchmarks(suite, [Node(node_id="n0")], runner)
        (run,) = sweep.runs
        assert run.ok
        assert set(run.result.quarantined) == {m.name for m in suite[0].metrics}

    def test_pool_defers_to_runner_sanitizer(self):
        from repro.service.pool import PoolConfig, ValidationPool

        suite = (suite_by_name("mem-bw"),)
        runner_ledger = TelemetryLedger()
        runner = FaultInjectingRunner(
            seed=0, telemetry_scale_rate=1.0,
            sanitizer=Sanitizer.for_suite(suite, ledger=runner_ledger))
        pool_ledger = TelemetryLedger()
        pool = ValidationPool(
            PoolConfig(max_workers=2),
            sanitizer=Sanitizer.for_suite(suite, ledger=pool_ledger))
        pool.run_benchmarks(suite, [Node(node_id="n0")], runner)
        assert runner_ledger.summary()["windows_quarantined"] > 0
        assert pool_ledger.summary()["windows_quarantined"] == 0


class TestSanitizeExactlyOnce:
    """Regression: a window must never be schema-checked or quarantined
    twice.  The runner and the pool used to both sanitize; the
    ``sanitized`` provenance flag now makes the second crossing a no-op."""

    def test_resanitizing_a_result_is_a_noop(self):
        suite = (suite_by_name("mem-bw"),)
        spec = suite[0]
        ledger = TelemetryLedger()
        sanitizer = Sanitizer.for_suite(suite, ledger=ledger)
        runner = FaultInjectingRunner(seed=0, telemetry_nan_rate=1.0)
        result = runner.run(spec, Node(node_id="n0"))

        once = sanitizer.sanitize_result(spec, result)
        counts_after_one = ledger.summary()["values_quarantined"]
        assert counts_after_one > 0
        assert all(w.sanitized for w in once.windows)

        twice = sanitizer.sanitize_result(spec, once)
        assert ledger.summary()["values_quarantined"] == counts_after_one
        for before, after in zip(once.windows, twice.windows):
            assert after is before  # untouched, not merely equal

    def test_quarantine_verdict_not_issued_twice(self):
        suite = (suite_by_name("mem-bw"),)
        spec = suite[0]
        ledger = TelemetryLedger()
        sanitizer = Sanitizer.for_suite(suite, ledger=ledger)
        runner = FaultInjectingRunner(seed=0, telemetry_scale_rate=1.0)
        result = runner.run(spec, Node(node_id="n0"))

        once = sanitizer.sanitize_result(spec, result)
        windows_once = ledger.summary()["windows_quarantined"]
        assert windows_once > 0
        sanitizer.sanitize_result(spec, once)
        assert ledger.summary()["windows_quarantined"] == windows_once
        for window in once.windows:
            assert window.quarantined
            assert window.faults.count(FAULT_UNIT_SCALE) == 1

    def test_runner_plus_pool_sanitize_once_end_to_end(self):
        from repro.service.pool import PoolConfig, ValidationPool

        suite = (suite_by_name("mem-bw"),)
        shared = TelemetryLedger()
        runner = FaultInjectingRunner(
            seed=0, telemetry_scale_rate=1.0,
            sanitizer=Sanitizer.for_suite(suite, ledger=shared))
        pool = ValidationPool(
            PoolConfig(max_workers=2),
            sanitizer=Sanitizer.for_suite(suite, ledger=shared))
        sweep = pool.run_benchmarks(suite, [Node(node_id="n0")], runner)
        (run,) = sweep.runs
        # One quarantine verdict per metric window, despite two
        # sanitizers in the path sharing one ledger.
        assert shared.summary()["windows_quarantined"] == len(
            suite[0].metrics)
        for window in run.result.windows:
            assert window.sanitized
            assert window.faults.count(FAULT_UNIT_SCALE) == 1
