"""Unit tests for the repair system, policies, coverage bootstrap and the
cluster simulator."""

import numpy as np
import pytest

from repro.benchsuite.suite import full_suite, suite_by_name
from repro.core.selection import CoverageTable
from repro.exceptions import SimulationError
from repro.hardware.components import DEFECT_CATALOG, defect_mode
from repro.hardware.degradation import WearModel
from repro.simulation.cluster import ClusterSimulator, SimulationConfig
from repro.simulation.coverage import (
    analytic_coverage_table,
    detection_map,
    detects,
    expected_shift,
)
from repro.simulation.generator import (
    generate_allocation_trace,
    generate_incident_trace,
)
from repro.simulation.metrics import (
    build_policies,
    job_time_to_failure_curve,
    mean_time_between_ith_incidents,
    run_policy_comparison,
    suite_durations,
)
from repro.simulation.policies import (
    AbsencePolicy,
    FullSetPolicy,
    NodeView,
    SelectorPolicy,
)
from repro.simulation.repair import RepairSystem


class TestRepairSystem:
    def test_fast_swap_when_stocked(self):
        repair = RepairSystem(hot_buffer_size=2, swap_hours=1.0, repair_hours=36.0)
        outcome = repair.send_to_repair(10.0)
        assert outcome.swapped
        assert outcome.available_at == 11.0

    def test_slow_path_when_empty(self):
        repair = RepairSystem(hot_buffer_size=1, swap_hours=1.0, repair_hours=36.0)
        repair.send_to_repair(0.0)
        outcome = repair.send_to_repair(0.0)
        assert not outcome.swapped
        assert outcome.available_at == 36.0

    def test_repairs_restock_buffer(self):
        repair = RepairSystem(hot_buffer_size=1, swap_hours=1.0, repair_hours=10.0)
        repair.send_to_repair(0.0)
        assert repair.available_spares(5.0) == 0
        assert repair.available_spares(10.0) == 1

    def test_stats_counted(self):
        repair = RepairSystem(hot_buffer_size=1)
        repair.send_to_repair(0.0)
        repair.send_to_repair(0.0)
        assert repair.swaps_served == 1
        assert repair.swaps_missed == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            RepairSystem(hot_buffer_size=-1)
        with pytest.raises(SimulationError):
            RepairSystem(swap_hours=0.0)


class TestCoverageBootstrap:
    def test_expected_shift_of_dominant_defect(self):
        spec = suite_by_name("ib-loopback")
        mode = defect_mode("ib_hca_degraded")
        assert expected_shift(spec, mode) == pytest.approx(0.28)

    def test_insensitive_benchmark_zero_shift(self):
        spec = suite_by_name("disk-fio")
        mode = defect_mode("ib_hca_degraded")
        assert expected_shift(spec, mode) == 0.0

    def test_detects_threshold_semantics(self):
        spec = suite_by_name("ib-loopback")
        mode = defect_mode("ib_hca_degraded")
        assert detects(spec, mode, alpha=0.95)
        assert not detects(spec, mode, alpha=0.5)

    def test_full_set_detects_every_mode(self):
        detectors = detection_map(full_suite())
        for mode in DEFECT_CATALOG:
            assert detectors[mode.name], f"{mode.name} undetectable"

    def test_coverage_table_full_set_is_one(self):
        table = analytic_coverage_table(full_suite())
        assert table.coverage(table.benchmarks) == pytest.approx(1.0)

    def test_coverage_proportional_to_rates(self):
        table = analytic_coverage_table(full_suite())
        # ib-loopback covers the dominant HCA mode: large share.
        assert table.coverage(["ib-loopback"]) > 0.3

    def test_invalid_reference_rejected(self):
        with pytest.raises(ValueError):
            analytic_coverage_table(full_suite(), n_reference=0)


class TestPolicies:
    def test_absence_never_validates(self):
        decision = AbsencePolicy().decide([], 10.0)
        assert decision.benchmarks is None
        assert not decision.validates

    def test_full_set_runs_everything(self):
        durations = suite_durations()
        decision = FullSetPolicy(durations).decide([], 10.0)
        assert set(decision.benchmarks) == set(durations)
        assert decision.validation_hours == pytest.approx(
            sum(durations.values()) / 60.0)

    def test_selector_skips_fresh_nodes(self):
        policy = SelectorPolicy(suite_durations(),
                                analytic_coverage_table(full_suite()),
                                WearModel(base_mtbi_hours=100.0), p0=0.05)
        fresh = [NodeView("n0", hours_since_clean=0.5, incident_count=0)]
        decision = policy.decide(fresh, 10.0)
        assert decision.benchmarks == ()
        assert not decision.validates

    def test_selector_validates_stale_nodes(self):
        policy = SelectorPolicy(suite_durations(),
                                analytic_coverage_table(full_suite()),
                                WearModel(base_mtbi_hours=100.0), p0=0.05)
        stale = [NodeView("n0", hours_since_clean=400.0, incident_count=3)]
        decision = policy.decide(stale, 10.0)
        assert decision.validates
        assert decision.validation_hours > 0.0

    def test_selector_subset_cheaper_than_full(self):
        durations = suite_durations()
        policy = SelectorPolicy(durations, analytic_coverage_table(full_suite()),
                                WearModel(base_mtbi_hours=100.0), p0=0.10)
        stale = [NodeView("n0", hours_since_clean=200.0, incident_count=1)]
        decision = policy.decide(stale, 10.0)
        assert decision.validation_hours < sum(durations.values()) / 60.0

    def test_selector_invalid_p0(self):
        with pytest.raises(ValueError):
            SelectorPolicy(suite_durations(), CoverageTable(), WearModel(), p0=1.0)

    def test_node_probability_monotone_in_exposure(self):
        policy = SelectorPolicy(suite_durations(),
                                analytic_coverage_table(full_suite()),
                                WearModel(base_mtbi_hours=100.0))
        p_low = policy.node_probability(NodeView("a", 1.0, 0), 10.0)
        p_high = policy.node_probability(NodeView("a", 500.0, 0), 10.0)
        assert p_high > p_low


def _small_sim(policy_name, seed=0, **config_kwargs):
    config = SimulationConfig(n_nodes=16, horizon_hours=240.0, seed=seed,
                              **config_kwargs)
    trace = generate_allocation_trace(240.0, jobs_per_hour=1.0,
                                      max_job_nodes=4,
                                      mean_duration_hours=12.0, seed=seed + 1)
    policy = build_policies(config)[policy_name]
    return ClusterSimulator(config, policy, trace).run()


class TestClusterSimulator:
    def test_ideal_run_has_no_incidents(self):
        result = _small_sim("ideal")
        assert result.average_incidents == 0.0
        assert result.jobs_interrupted == 0

    def test_absence_suffers_incidents(self):
        result = _small_sim("absence")
        assert result.average_incidents > 1.0
        assert result.average_validation_hours == 0.0

    def test_full_set_validates_and_reduces_incidents(self):
        absence = _small_sim("absence")
        full = _small_sim("full-set")
        assert full.average_validation_hours > 0.0
        assert full.average_incidents < absence.average_incidents

    def test_selector_cheaper_than_full_set(self):
        full = _small_sim("full-set")
        selector = _small_sim("selector")
        assert (selector.average_validation_hours
                < full.average_validation_hours)

    def test_hours_accounting_bounded_by_horizon(self):
        result = _small_sim("selector")
        for node in result.nodes:
            total = node.up_hours + node.validation_hours + node.repair_hours
            assert total <= result.config.horizon_hours + 1e-6

    def test_daily_utilization_series_shape(self):
        result = _small_sim("full-set")
        series = result.daily_utilization()
        assert series.shape == (10,)  # 240 h = 10 days
        assert np.all(series >= 0.0) and np.all(series <= 1.0)

    def test_deterministic_given_seed(self):
        a = _small_sim("selector", seed=3)
        b = _small_sim("selector", seed=3)
        assert a.average_utilization == b.average_utilization
        assert a.jobs_completed == b.jobs_completed

    def test_mtbi_floors_at_one_incident(self):
        result = _small_sim("ideal")
        for node in result.nodes:
            assert node.mtbi() == node.up_hours

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(n_nodes=0)


class TestComparisonHelpers:
    def test_policy_comparison_table_rows(self):
        config = SimulationConfig(n_nodes=12, horizon_hours=120.0, seed=1)
        trace = generate_allocation_trace(120.0, jobs_per_hour=1.0,
                                          max_job_nodes=4,
                                          mean_duration_hours=8.0, seed=2)
        comparison = run_policy_comparison(config, trace)
        rows = comparison.table4_rows()
        assert [name for name, _, _ in rows] == ["absence", "full-set", "selector"]
        utilization = comparison.utilization_row()
        assert set(utilization) == {"absence", "full-set", "selector", "ideal"}

    @pytest.mark.parametrize("n_nodes, horizon, kwargs", [
        (120, 6000.0, {"seed": 13}),
        (40, 3000.0, {"gap_shape": 1.6, "seed": 14}),   # some i unreached
    ])
    def test_mtbi_by_index_equals_the_per_node_scan(self, n_nodes, horizon,
                                                    kwargs):
        trace = generate_incident_trace(n_nodes, horizon, **kwargs)
        gaps = [[] for _ in range(20)]
        for node_id in trace.node_ids:
            previous_end = 0.0
            for index, record in enumerate(trace.for_node(node_id)[:20]):
                gaps[index].append(record.start_hour - previous_end)
                previous_end = record.end_hour
        expected = [float(np.mean(g)) if g else float("nan") for g in gaps]
        assert np.array_equal(mean_time_between_ith_incidents(trace),
                              expected, equal_nan=True)

    def test_job_ttf_curve(self):
        curve = job_time_to_failure_curve(100.0, node_counts=(1, 10))
        assert curve[10] == pytest.approx(10.0)
        with pytest.raises(ValueError):
            job_time_to_failure_curve(0.0)
