"""Simulation analysis helpers: policy comparisons and trace statistics.

Provides the aggregation behind Figure 4 (MTBI decay by incident
index), Figure 8 (daily utilization per policy) and Table 4
(validation time / MTBI per policy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchsuite.suite import full_suite
from repro.core.selection import CoverageTable
from repro.simulation.cluster import (ClusterSimulator, SimulationConfig,
                                      SimulationResult)
from repro.simulation.coverage import analytic_coverage_table
from repro.simulation.policies import (
    AbsencePolicy,
    FullSetPolicy,
    IdealPolicy,
    SelectorPolicy,
    ValidationPolicy,
)
from repro.simulation.traces import AllocationTrace, IncidentTrace

__all__ = [
    "PolicyComparison",
    "suite_durations",
    "build_policies",
    "run_policy_comparison",
    "mean_time_between_ith_incidents",
    "job_time_to_failure_curve",
]


def suite_durations(suite=None) -> dict[str, float]:
    """Benchmark name -> nominal duration in minutes for the full set."""
    suite = suite if suite is not None else full_suite()
    return {spec.name: spec.duration_minutes for spec in suite}


def build_policies(config: SimulationConfig, *,
                   coverage: CoverageTable | None = None,
                   p0: float = 0.02) -> dict[str, ValidationPolicy]:
    """The four §5.2 policies, sharing durations and coverage history."""
    durations = suite_durations()
    coverage = coverage or analytic_coverage_table(full_suite(), alpha=config.alpha)
    return {
        "absence": AbsencePolicy(),
        "full-set": FullSetPolicy(durations),
        "selector": SelectorPolicy(durations, coverage, config.wear_model(), p0=p0),
        "ideal": IdealPolicy(),
    }


@dataclass
class PolicyComparison:
    """Results of running every policy on the same trace and seed."""

    results: dict[str, SimulationResult]

    def table4_rows(self) -> list[tuple[str, float, float]]:
        """(policy, validation hours per node, MTBI hours) rows."""
        rows = []
        for name in ("absence", "full-set", "selector"):
            if name in self.results:
                result = self.results[name]
                rows.append((name, result.average_validation_hours,
                             result.mtbi_hours))
        return rows

    def utilization_row(self) -> dict[str, float]:
        """Policy -> average node utilization (Figure 8 headline)."""
        return {name: r.average_utilization for name, r in self.results.items()}


def run_policy_comparison(config: SimulationConfig, trace: AllocationTrace, *,
                          policies: dict[str, ValidationPolicy] | None = None,
                          p0: float = 0.02) -> PolicyComparison:
    """Run all policies on one trace with one seed."""
    policies = policies or build_policies(config, p0=p0)
    results = {}
    for name, policy in policies.items():
        simulator = ClusterSimulator(config, policy, trace)
        results[name] = simulator.run()
    return PolicyComparison(results=results)


def mean_time_between_ith_incidents(trace: IncidentTrace,
                                    max_index: int = 20) -> list[float]:
    """Figure 4 (left): mean gap between the i-th and (i+1)-th incidents.

    Entry ``i`` (0-based) averages, over all nodes with at least
    ``i + 1`` incidents, the time from the ``i``-th incident's
    resolution (or node birth for ``i = 0``) to the next incident's
    start.
    """
    by_node: dict[str, list] = {}
    for record in trace.records:
        by_node.setdefault(record.node_id, []).append(record)
    gaps: list[list[float]] = [[] for _ in range(max_index)]
    for node_id in trace.node_ids:
        incidents = by_node.get(node_id, [])
        previous_end = 0.0
        for index, record in enumerate(incidents[:max_index]):
            gaps[index].append(record.start_hour - previous_end)
            previous_end = record.end_hour
    return [float(np.mean(g)) if g else float("nan") for g in gaps]


def job_time_to_failure_curve(mtbi_hours: float,
                              node_counts=(1, 8, 64, 512)) -> dict[int, float]:
    """Figure 4 (right): expected job time-to-failure at scale.

    Independent constant-rate nodes: a gang-scheduled job of ``n``
    nodes fails ``n`` times as fast as one node.
    """
    if mtbi_hours <= 0:
        raise ValueError("mtbi_hours must be positive")
    return {int(n): mtbi_hours / int(n) for n in node_counts}
