"""Unit tests for criteria persistence and fault injection."""

import numpy as np
import pytest

from repro.benchsuite.faults import FaultInjectingRunner
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.persistence import load_criteria, save_criteria
from repro.core.validator import Validator
from repro.exceptions import CriteriaError
from repro.hardware.node import Node


def small_suite():
    return (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))


def trained_validator(seed=0):
    validator = Validator(small_suite(), runner=SuiteRunner(seed=seed))
    nodes = [Node(node_id=f"n{i}") for i in range(10)]
    validator.learn_criteria(nodes)
    return validator, nodes


class TestPersistence:
    def test_round_trip_preserves_decisions(self, tmp_path):
        validator, nodes = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)

        fresh = Validator(small_suite(), runner=SuiteRunner(seed=0))
        loaded = load_criteria(fresh, path)
        assert loaded == len(validator.criteria)
        report_a = validator.validate(nodes)
        report_b = fresh.validate(nodes)
        assert report_a.defective_nodes == report_b.defective_nodes

    def test_round_trip_preserves_values(self, tmp_path):
        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        fresh = Validator(small_suite())
        load_criteria(fresh, path)
        for key, original in validator.criteria.items():
            restored = fresh.criteria[key]
            assert np.allclose(np.asarray(original.criteria),
                               np.asarray(restored.criteria))
            assert restored.alpha == original.alpha
            assert restored.higher_is_better == original.higher_is_better

    def test_unknown_benchmarks_skipped(self, tmp_path):
        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        shrunken = Validator((suite_by_name("ib-loopback"),))
        loaded = load_criteria(shrunken, path)
        assert loaded == 1  # only the loopback metric

    def test_empty_validator_rejected(self, tmp_path):
        validator = Validator(small_suite())
        with pytest.raises(CriteriaError):
            save_criteria(validator, tmp_path / "x.json")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(CriteriaError):
            load_criteria(Validator(small_suite()), path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"version": 9, "entries": []}')
        with pytest.raises(CriteriaError):
            load_criteria(Validator(small_suite()), path)


class TestFaultInjection:
    def test_no_faults_means_identical_behavior(self):
        spec = suite_by_name("ib-loopback")
        node = Node(node_id="n0")
        plain = SuiteRunner(seed=1).run(spec, node)
        faulty = FaultInjectingRunner(seed=1).run(spec, node)
        assert np.allclose(plain.sample("ib_write_bw_gbs"),
                           faulty.sample("ib_write_bw_gbs"))

    def test_crash_produces_empty_samples(self):
        runner = FaultInjectingRunner(crash_rate=1.0, seed=2)
        result = runner.run(suite_by_name("ib-loopback"), Node(node_id="n0"))
        assert result.sample("ib_write_bw_gbs").size == 0
        assert runner.injected[0][2] == "crash"

    def test_hang_produces_nan(self):
        runner = FaultInjectingRunner(hang_rate=1.0, seed=3)
        result = runner.run(suite_by_name("mem-bw"), Node(node_id="n0"))
        assert np.all(np.isnan(result.sample("h2d_bw_gbs")))

    def test_hang_handles_integer_metric_series(self, monkeypatch):
        """Regression: the hang fault used ``np.full_like(series,
        np.nan)``, which raises on an integer-dtype series (NaN cannot
        be cast to int) -- it must coerce to float instead."""
        from repro.benchsuite.base import BenchmarkResult

        original = SuiteRunner._execute

        def int_execute(self, spec, node):
            result = original(self, spec, node)
            return BenchmarkResult(
                benchmark=result.benchmark, node_id=result.node_id,
                metrics={name: np.asarray(np.round(series), dtype=np.int64)
                         for name, series in result.metrics.items()})

        monkeypatch.setattr(SuiteRunner, "_execute", int_execute)
        runner = FaultInjectingRunner(hang_rate=1.0, seed=3)
        result = runner.run(suite_by_name("mem-bw"), Node(node_id="n0"))
        corrupted = result.sample("h2d_bw_gbs")
        assert corrupted.dtype.kind == "f"
        assert np.all(np.isnan(corrupted))

    def test_fault_scoping_to_nodes(self):
        runner = FaultInjectingRunner(crash_rate=1.0, fault_nodes={"bad"}, seed=4)
        ok = runner.run(suite_by_name("mem-bw"), Node(node_id="good"))
        assert ok.sample("h2d_bw_gbs").size == 1
        broken = runner.run(suite_by_name("mem-bw"), Node(node_id="bad"))
        assert broken.sample("h2d_bw_gbs").size == 0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingRunner(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjectingRunner(crash_rate=0.6, hang_rate=0.6)

    def test_validator_flags_crashed_nodes(self):
        """End to end: execution failures surface as defects."""
        validator = Validator(small_suite(), runner=SuiteRunner(seed=5))
        nodes = [Node(node_id=f"n{i}") for i in range(8)]
        validator.learn_criteria(nodes)
        validator.runner = FaultInjectingRunner(crash_rate=1.0,
                                                fault_nodes={"n3"}, seed=6)
        report = validator.validate(nodes)
        assert report.defective_nodes == ["n3"]
        reasons = {v.reason for v in report.violations if v.node_id == "n3"}
        assert any("execution-failure" in r for r in reasons)


class TestPersistenceHardening:
    """Atomic writes, checksum verification, backup rollback."""

    def test_save_leaves_no_tmp_file(self, tmp_path):
        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        save_criteria(validator, path)  # overwrite path too
        leftovers = {p.name for p in tmp_path.iterdir()}
        assert leftovers == {"criteria.json", "criteria.json.bak"}

    def test_payload_carries_version_and_checksum(self, tmp_path):
        import json

        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 3
        assert isinstance(payload["checksum"], int)

    def test_bit_flip_detected_by_checksum(self, tmp_path):
        import json

        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path, keep_backup=False)
        payload = json.loads(path.read_text())
        # Still valid JSON, still version 2 -- but one value nudged.
        payload["entries"][0]["criteria"][0] += 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(CriteriaError, match="checksum"):
            load_criteria(Validator(small_suite()), path,
                          fallback_to_backup=False)

    def test_corrupt_main_file_rolls_back_to_backup(self, tmp_path):
        validator, nodes = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)   # no backup yet
        save_criteria(validator, path)   # previous file becomes .bak
        path.write_text(path.read_text()[:40])  # truncate mid-document

        fresh = Validator(small_suite(), runner=SuiteRunner(seed=0))
        loaded = load_criteria(fresh, path)
        assert loaded == len(validator.criteria)
        assert (fresh.validate(nodes).defective_nodes
                == validator.validate(nodes).defective_nodes)

    def test_corrupt_main_and_backup_raise(self, tmp_path):
        validator, _ = trained_validator()
        path = tmp_path / "criteria.json"
        save_criteria(validator, path)
        save_criteria(validator, path)
        path.write_text("garbage")
        (tmp_path / "criteria.json.bak").write_text("also garbage")
        with pytest.raises(CriteriaError):
            load_criteria(Validator(small_suite()), path)

    def test_version_1_payload_rejected(self, tmp_path):
        import json

        from repro.core.persistence import criteria_payload

        validator, _ = trained_validator()
        payload = criteria_payload(validator)
        legacy = {"version": 1, "entries": payload["entries"]}  # no checksum
        path = tmp_path / "criteria.json"
        path.write_text(json.dumps(legacy))

        fresh = Validator(small_suite(), runner=SuiteRunner(seed=0))
        with pytest.raises(CriteriaError,
                           match="unsupported criteria file version"):
            load_criteria(fresh, path)
        assert not fresh.criteria
