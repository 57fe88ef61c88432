"""SKU as a first-class provenance axis: heterogeneous-fleet criteria.

Covers the (sku, benchmark, metric) keying spine end to end: mixed
fleet construction, per-SKU measurement envelopes, the cross-SKU
isolation invariant (every verdict's criteria provenance equals the
window's SKU; crossing namespaces raises
:class:`~repro.exceptions.SkuMismatchError`), per-SKU guarded-rollout
isolation (a bad H100 candidate rolls back without touching A100
namespaces), and schema-version migration (pre-SKU payloads replay
into the ``"unknown"`` bucket).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.base import BenchmarkResult, measure_metric
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.measurement import SCHEMA_VERSION, MeasurementBatch, MetricWindow
from repro.core.persistence import (
    apply_criteria_payload,
    criteria_payload,
    load_criteria,
    save_criteria,
)
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.exceptions import CriteriaError, SkuMismatchError
from repro.hardware import (
    DEFAULT_SKU,
    SKU_REGISTRY,
    GpuSpec,
    Node,
    build_fleet,
    gpu_spec,
    performance_factor,
)
from repro.hardware.components import defect_mode
from repro.quality import RolloutConfig
from repro.quality.sanitize import Sanitizer
from repro.service import PoolConfig, ServiceConfig, ValidationService
from repro.service.store import JournalStore, RecordKind
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel
from tests.test_service_pool import HangingSuiteRunner

MIX = {"A100": 0.5, "H100": 0.3, "MI250X": 0.2}


def small_suite():
    return (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))


class TestSkuRegistry:
    def test_default_sku_is_neutral_envelope(self):
        spec = SKU_REGISTRY[DEFAULT_SKU]
        assert spec.performance_factor == 1.0
        assert spec.defect_scale == 1.0

    def test_unregistered_sku_falls_back_to_neutral(self):
        spec = gpu_spec("does-not-exist")
        assert isinstance(spec, GpuSpec)
        assert spec.performance_factor == 1.0
        assert performance_factor("does-not-exist") == 1.0

    def test_registered_classes_have_distinct_envelopes(self):
        assert SKU_REGISTRY["H100"].performance_factor > 1.0
        assert SKU_REGISTRY["MI250X"].memory_banks != \
            SKU_REGISTRY["A100"].memory_banks


class TestMixedFleetConstruction:
    def test_sku_mix_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1.0"):
            build_fleet(16, seed=0, sku_mix={"A100": 0.5, "H100": 0.4})

    def test_sku_mix_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            build_fleet(16, seed=0, sku_mix={"A100": 1.2, "H100": -0.2})

    def test_sku_mix_rejects_empty(self):
        with pytest.raises(ValueError):
            build_fleet(16, seed=0, sku_mix={})

    def test_homogeneous_fleet_defaults_to_default_sku(self):
        fleet = build_fleet(8, seed=3)
        assert all(node.sku == DEFAULT_SKU for node in fleet.nodes)
        assert fleet.sku_counts() == {DEFAULT_SKU: 8}

    def test_mix_composition_roughly_matches_fractions(self):
        fleet = build_fleet(300, seed=7, sku_mix=MIX)
        counts = fleet.sku_counts()
        assert set(counts) <= set(MIX)
        for sku, fraction in MIX.items():
            assert counts.get(sku, 0) == pytest.approx(
                300 * fraction, rel=0.35)

    def test_mix_is_seed_deterministic(self):
        first = build_fleet(64, seed=11, sku_mix=MIX)
        second = build_fleet(64, seed=11, sku_mix=MIX)
        assert [n.sku for n in first.nodes] == [n.sku for n in second.nodes]

    def test_hand_built_node_defaults_to_unknown(self):
        assert Node(node_id="x").sku == "unknown"


class TestSkuMeasurementEnvelope:
    def test_faster_sku_measures_higher_throughput(self):
        spec = suite_by_name("mem-bw")
        metric = spec.metrics[0]
        assert metric.higher_is_better
        a100 = measure_metric(spec, metric, Node(node_id="n", sku="A100"),
                              np.random.default_rng(0))
        h100 = measure_metric(spec, metric, Node(node_id="n", sku="H100"),
                              np.random.default_rng(0))
        ratio = float(np.mean(h100) / np.mean(a100))
        assert ratio == pytest.approx(
            SKU_REGISTRY["H100"].performance_factor, rel=0.05)

    def test_run_benchmark_stamps_node_sku(self):
        runner = SuiteRunner(seed=1)
        result = runner.run(suite_by_name("mem-bw"),
                            Node(node_id="n", sku="MI250X"))
        assert result.sku == "MI250X"
        assert all(w.sku == "MI250X" for w in result.windows)


class TestMeasurementSchemaMigration:
    def test_schema_version_is_two(self):
        assert SCHEMA_VERSION == 2

    def test_window_round_trip_preserves_sku(self):
        window = MetricWindow(node_id="n", benchmark="b", metric="m",
                              values=np.arange(4.0), sku="H100")
        assert MetricWindow.from_payload(window.to_payload()).sku == "H100"

    def test_v1_window_payload_loads_with_unknown_sku(self):
        window = MetricWindow(node_id="n", benchmark="b", metric="m",
                              values=np.arange(4.0), sku="H100")
        payload = window.to_payload()
        del payload["sku"]
        payload["schema_version"] = 1
        restored = MetricWindow.from_payload(payload)
        assert restored.sku == "unknown"
        np.testing.assert_array_equal(restored.values, window.values)

    def test_v1_batch_payload_loads_with_unknown_sku(self):
        batch = MeasurementBatch(
            benchmark="b", metric="m",
            windows=(MetricWindow(node_id="n", benchmark="b", metric="m",
                                  values=np.arange(3.0), sku="A100"),),
            sku="A100")
        payload = batch.to_payload()
        del payload["sku"]
        payload["schema_version"] = 1
        for window_payload in payload["windows"]:
            del window_payload["sku"]
            window_payload["schema_version"] = 1
        restored = MeasurementBatch.from_payload(payload)
        assert restored.sku == "unknown"
        assert restored.windows[0].sku == "unknown"

    def test_batch_rejects_mixed_sku_windows(self):
        windows = (
            MetricWindow(node_id="a", benchmark="b", metric="m",
                         values=np.arange(3.0), sku="A100"),
            MetricWindow(node_id="h", benchmark="b", metric="m",
                         values=np.arange(3.0), sku="H100"),
        )
        with pytest.raises(SkuMismatchError):
            MeasurementBatch(benchmark="b", metric="m", windows=windows,
                             sku="A100")


def mixed_fleet(n=18, seed=0, defects=()):
    fleet = build_fleet(n, seed=seed, sku_mix=MIX)
    rng = np.random.default_rng(seed + 1)
    # Worsen a few nodes so validation produces violations to inspect.
    for index, mode_name in enumerate(defects):
        fleet.nodes[index].apply_defect(defect_mode(mode_name), rng)
    return fleet


class TestCrossSkuIsolation:
    def test_criteria_learned_per_sku_namespace(self):
        fleet = mixed_fleet(n=24, seed=2)
        validator = Validator(small_suite(), runner=SuiteRunner(seed=2))
        validator.learn_criteria(fleet.nodes)
        skus_learned = {key[0] for key in validator.criteria}
        assert skus_learned == set(fleet.sku_counts())
        for key, criteria in validator.criteria.items():
            assert criteria.sku == key[0]

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_verdict_provenance_matches_window_sku(self, seed):
        """Isolation invariant: on any mixed fleet, every violation's
        criteria-provenance SKU equals the violating node's SKU."""
        fleet = mixed_fleet(n=18, seed=seed,
                            defects=("ib_hca_degraded", "dram_latency"))
        node_sku = {node.node_id: node.sku for node in fleet.nodes}
        validator = Validator(small_suite(), runner=SuiteRunner(seed=seed))
        validator.learn_criteria(fleet.nodes)
        report = validator.validate(fleet.nodes)
        for violation in report.violations:
            assert violation.sku == node_sku[violation.node_id]

    def test_forced_cross_sku_scoring_raises(self):
        """Criteria mis-filed under another SKU's namespace must fail
        loudly, not silently score foreign hardware."""
        fleet = mixed_fleet(n=24, seed=4)
        validator = Validator(small_suite(), runner=SuiteRunner(seed=4))
        validator.learn_criteria(fleet.nodes)
        (sku_a, sku_b) = sorted({key[0] for key in validator.criteria})[:2]
        for key in list(validator.criteria):
            if key[0] == sku_a:
                # Overwrite namespace A's entries with namespace B's
                # criteria objects -- provenance now disagrees with
                # the dict key.
                donor = (sku_b,) + key[1:]
                validator.criteria[key] = validator.criteria[donor]
        spec = small_suite()[0]
        nodes = [n for n in fleet.nodes if n.sku == sku_a]
        runner = SuiteRunner(seed=4)
        results = [runner.run(spec, n) for n in nodes]
        with pytest.raises(SkuMismatchError):
            validator.check_results(spec, results)

    def test_missing_namespace_is_criteria_error(self):
        fleet = mixed_fleet(n=24, seed=5)
        validator = Validator(small_suite(), runner=SuiteRunner(seed=5))
        only_a100 = [n for n in fleet.nodes if n.sku == "A100"]
        validator.learn_criteria(only_a100)
        spec = small_suite()[0]
        h100 = [n for n in fleet.nodes if n.sku == "H100"]
        runner = SuiteRunner(seed=5)
        results = [runner.run(spec, n) for n in h100]
        with pytest.raises(CriteriaError, match="H100"):
            validator.check_results(spec, results)


class TestTimeoutVerdictProvenance:
    def test_timed_out_cell_is_journaled_with_the_nodes_sku(self, tmp_path):
        """A cell the pool gave up on is a verdict like any other: its
        journaled violation names the node's hardware class, not
        ``"unknown"``."""
        suite = small_suite()
        fleet = mixed_fleet(n=18, seed=3)
        assert set(fleet.sku_counts()) == set(MIX)
        hung = next(node for node in fleet.nodes if node.sku == "H100")
        others = [next(node for node in fleet.nodes if node.sku == sku)
                  for sku in ("A100", "MI250X")]
        validator = Validator(suite, runner=HangingSuiteRunner(
            hung.node_id, suite[0].name, hang_seconds=1.0, seed=3))
        validator.learn_criteria([n for n in fleet.nodes if n is not hung])
        trace = generate_incident_trace(50, 800.0, seed=11)
        dataset = extract_status_samples(trace)
        selector = Selector(ExponentialModel().fit(dataset),
                            analytic_coverage_table(suite),
                            suite_durations(suite), p0=0.05)
        service = ValidationService(
            Anubis(validator, selector), fleet.nodes,
            journal_dir=tmp_path / "journal",
            config=ServiceConfig(pool=PoolConfig(
                max_workers=4, benchmark_timeout_seconds=0.2,
                max_attempts=1, poll_interval_seconds=0.01)))
        nodes = (others[0], hung, others[1])
        service.submit(ValidationEvent(
            kind=EventKind.NODE_ADDED, nodes=nodes,
            statuses=tuple(NodeStatus(node_id=node.node_id,
                                      covariates=dataset.covariates[i])
                           for i, node in enumerate(nodes))))
        assert hung.node_id in service.tick().quarantined

        (completed,) = [
            record for record in JournalStore(tmp_path / "journal").replay()
            if record.kind == RecordKind.EVENT_COMPLETED]
        timeouts = [row for row in completed.payload["violations"]
                    if row[0] == hung.node_id and "timeout" in row[3]]
        assert [row[1:3] for row in timeouts] == [
            [suite[0].name, metric.name] for metric in suite[0].metrics]
        assert {row[4] for row in timeouts} == {"H100"}


class SkuPoisoningRunner(SuiteRunner):
    """Poisons measurements from one hardware class only."""

    def __init__(self, target_sku: str, factor=3.0, **kwargs):
        super().__init__(**kwargs)
        self.target_sku = target_sku
        self.factor = factor
        self.poisoning = False

    def _execute(self, spec, node):
        result = super()._execute(spec, node)
        if not self.poisoning or node.sku != self.target_sku:
            return result
        return BenchmarkResult(
            benchmark=result.benchmark, node_id=result.node_id,
            metrics={name: series * self.factor
                     for name, series in result.metrics.items()},
            sku=result.sku)


class TestPerSkuRolloutIsolation:
    def test_bad_h100_candidate_leaves_a100_untouched(self):
        suite = small_suite()
        fleet = build_fleet(16, seed=6,
                            sku_mix={"A100": 0.5, "H100": 0.5})
        runner = SkuPoisoningRunner("H100", seed=9)
        validator = Validator(suite, runner=runner)
        trace = generate_incident_trace(50, 800.0, seed=11)
        model = ExponentialModel().fit(extract_status_samples(trace))
        selector = Selector(model, analytic_coverage_table(suite),
                            suite_durations(suite), p0=0.05)
        config = ServiceConfig(pool=PoolConfig(max_workers=2),
                               rollout=RolloutConfig())
        service = ValidationService(Anubis(validator, selector), fleet.nodes,
                                    config=config)

        service.learn_criteria(fleet.nodes)
        before = dict(validator.criteria)
        assert {key[0] for key in before} == {"A100", "H100"}

        runner.poisoning = True
        decisions = service.learn_criteria(fleet.nodes)
        by_sku = {}
        for decision in decisions:
            by_sku.setdefault(decision.sku, []).append(decision)
        assert all(not d.accepted for d in by_sku["H100"])
        assert all(d.accepted for d in by_sku["A100"])
        # H100 namespaces rolled back to the trusted criteria, object
        # for object; A100 namespaces re-learned (honest refresh).
        for key, criteria in validator.criteria.items():
            if key[0] == "H100":
                assert criteria is before[key]
            else:
                assert criteria is not before[key]


class TestPersistenceNamespaces:
    def _trained(self, seed=8):
        fleet = mixed_fleet(n=24, seed=seed)
        validator = Validator(small_suite(), runner=SuiteRunner(seed=seed))
        validator.learn_criteria(fleet.nodes)
        return validator

    def test_round_trip_preserves_namespaces(self, tmp_path):
        validator = self._trained()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        fresh = Validator(small_suite())
        load_criteria(fresh, path)
        assert set(fresh.criteria) == set(validator.criteria)
        for key, restored in fresh.criteria.items():
            assert restored.sku == key[0]

    def test_pre_sku_payload_restores_into_unknown(self):
        validator = self._trained()
        payload = criteria_payload(validator)
        # Strip the SKU axis and drop to the pre-SKU format version,
        # keeping one entry per (benchmark, metric) as a v2 file would.
        legacy_entries = {}
        for entry in payload["entries"]:
            entry = dict(entry)
            del entry["sku"]
            legacy_entries[(entry["benchmark"], entry["metric"])] = entry
        import json
        import zlib
        entries = list(legacy_entries.values())
        canonical = json.dumps(entries, sort_keys=True,
                               separators=(",", ":"))
        legacy = {"version": 2, "entries": entries,
                  "checksum": zlib.crc32(canonical.encode())}
        fresh = Validator(small_suite())
        loaded = apply_criteria_payload(fresh, legacy, source="<legacy>")
        assert loaded == len(entries)
        assert {key[0] for key in fresh.criteria} == {"unknown"}


class TestPerSkuSanitization:
    def test_sku_schema_governs_when_registered(self):
        suite = small_suite()
        sanitizer = Sanitizer.for_suite(suite, skus=("A100", "H100"))
        spec = suite[0]
        metric = spec.metrics[0]
        sku_schema = sanitizer.schema_for(spec.name, metric.name, "H100")
        fallback = sanitizer.schema_for(spec.name, metric.name, "unknown")
        assert sku_schema.sku == "H100"
        assert fallback.sku == "unknown"
        factor = SKU_REGISTRY["H100"].performance_factor
        if metric.higher_is_better:
            assert sku_schema.upper == pytest.approx(fallback.upper * factor)
        else:
            assert sku_schema.upper == pytest.approx(fallback.upper / factor)

    def test_unlisted_sku_falls_back_to_class_agnostic(self):
        suite = small_suite()
        sanitizer = Sanitizer.for_suite(suite, skus=("A100",))
        spec = suite[0]
        metric = spec.metrics[0]
        schema = sanitizer.schema_for(spec.name, metric.name, "MI250X")
        assert schema is not None
        assert schema.sku == "unknown"
