"""Benchmark selection (paper §3.3, Algorithm 1).

Given the joint incident probability ``p`` of a node set and the
historical *coverage* of every benchmark (which past defects it
identified), the Selector picks the cheapest benchmark subset whose
coverage drives the residual incident probability ``p * (1 - C)``
below the target ``p0``.  The underlying set-cover-with-costs problem
is NP-hard; Algorithm 1 is the greedy
probability-decrement-per-time-unit heuristic with O(n^2) benchmark
evaluations, and :func:`select_benchmarks_exhaustive` provides the
O(2^n) reference used by the ablation bench.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoverageTable",
    "SelectionResult",
    "joint_incident_probability",
    "select_benchmarks",
    "select_benchmarks_exhaustive",
]


@dataclass
class CoverageTable:
    """Historical validation outcomes: benchmark -> defects it found.

    The paper defines a subset's coverage as the fraction of all
    historically identified defective nodes that the subset would have
    caught.  Defect identifiers can be anything hashable (node ids,
    (node, incident) tuples, ...).
    """

    found: dict[str, set] = field(default_factory=dict)

    def record(self, benchmark: str, defects) -> None:
        """Merge newly identified defects into the history."""
        self.found.setdefault(benchmark, set()).update(defects)

    def ensure_benchmark(self, benchmark: str) -> None:
        """Register a benchmark with (so far) no identified defects."""
        self.found.setdefault(benchmark, set())

    @property
    def benchmarks(self) -> list[str]:
        """All benchmarks with recorded history."""
        return sorted(self.found)

    def all_defects(self) -> set:
        """Union of defects found by the full set."""
        result: set = set()
        for defects in self.found.values():
            result |= defects
        return result

    def coverage(self, subset) -> float:
        """Fraction of all historical defects the subset identifies."""
        total = self.all_defects()
        if not total:
            return 0.0
        covered: set = set()
        for benchmark in subset:
            covered |= self.found.get(benchmark, set())
        return len(covered) / len(total)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one benchmark selection."""

    subset: tuple[str, ...]
    coverage: float
    initial_probability: float
    residual_probability: float
    total_time_minutes: float
    skipped: bool = False


def joint_incident_probability(node_probabilities) -> float:
    """``p = 1 - prod(1 - p_i)`` over the nodes of a validation event."""
    probs = np.clip(np.asarray(list(node_probabilities), dtype=float), 0.0, 1.0)
    if probs.size == 0:
        return 0.0
    return float(1.0 - np.prod(1.0 - probs))


def select_benchmarks(node_probabilities, durations: dict[str, float],
                      coverage: CoverageTable, p0: float) -> SelectionResult:
    """Algorithm 1: greedy benchmark selection.

    Parameters
    ----------
    node_probabilities:
        Per-node incident probabilities for the validation event.
    durations:
        Benchmark name -> running time in minutes (``t_i``).
    coverage:
        Historical coverage table (the full candidate set is its keys
        intersected with ``durations``).
    p0:
        Residual incident-probability target.

    Returns a :class:`SelectionResult`; ``skipped`` is true when the
    joint probability is already below ``p0`` and validation can be
    skipped entirely to save node hours.
    """
    if p0 < 0.0:
        raise ValueError(f"p0 must be non-negative, got {p0}")
    candidates = [name for name in coverage.benchmarks if name in durations]
    p = joint_incident_probability(node_probabilities)
    if p <= p0:
        return SelectionResult(subset=(), coverage=0.0, initial_probability=p,
                               residual_probability=p, total_time_minutes=0.0,
                               skipped=True)

    # The union of all defects is taken once and the subset's covered
    # defects grow in place, so a candidate's coverage costs one set
    # difference -- the same integer ratio ``coverage.coverage(subset +
    # [name])`` computes by re-unioning every defect set.
    total = len(coverage.all_defects())
    covered: set = set()
    subset: list[str] = []
    current_coverage = 0.0
    residual = p
    remaining = list(candidates)
    while residual > p0 and remaining:
        best_name, best_gain_rate, best_coverage = None, 0.0, current_coverage
        for name in remaining:
            gained = len(coverage.found[name] - covered)
            new_coverage = (len(covered) + gained) / total if total else 0.0
            delta_p = p * (new_coverage - current_coverage)
            gain_rate = delta_p / max(durations[name], 1e-9)
            if gain_rate > best_gain_rate:
                best_name, best_gain_rate, best_coverage = name, gain_rate, new_coverage
        if best_name is None:
            # No remaining benchmark adds coverage; adding more cannot
            # reduce the residual probability.
            break
        subset.append(best_name)
        remaining.remove(best_name)
        covered |= coverage.found[best_name]
        current_coverage = best_coverage
        residual = p * (1.0 - current_coverage)

    total_time = sum(durations[name] for name in subset)
    return SelectionResult(subset=tuple(subset), coverage=current_coverage,
                           initial_probability=p, residual_probability=residual,
                           total_time_minutes=total_time)


def select_benchmarks_exhaustive(node_probabilities, durations: dict[str, float],
                                 coverage: CoverageTable,
                                 p0: float) -> SelectionResult:
    """O(2^n) optimal selection, for small candidate sets only.

    Finds the minimum-total-time subset meeting the residual target (or
    the maximum-coverage subset when no subset meets it).  Used by the
    ablation bench to quantify the greedy approximation gap.
    """
    candidates = [name for name in coverage.benchmarks if name in durations]
    if len(candidates) > 20:
        raise ValueError(
            f"exhaustive selection over {len(candidates)} benchmarks is infeasible"
        )
    p = joint_incident_probability(node_probabilities)
    if p <= p0:
        return SelectionResult(subset=(), coverage=0.0, initial_probability=p,
                               residual_probability=p, total_time_minutes=0.0,
                               skipped=True)

    best: SelectionResult | None = None
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            c = coverage.coverage(combo)
            residual = p * (1.0 - c)
            time = sum(durations[name] for name in combo)
            feasible = residual <= p0
            candidate = SelectionResult(subset=combo, coverage=c,
                                        initial_probability=p,
                                        residual_probability=residual,
                                        total_time_minutes=time)
            if best is None:
                best = candidate
                continue
            best_feasible = best.residual_probability <= p0
            if feasible and not best_feasible:
                best = candidate
            elif feasible and best_feasible and time < best.total_time_minutes:
                best = candidate
            elif not feasible and not best_feasible and c > best.coverage:
                best = candidate
    return best
