"""Ablation: greedy Algorithm 1 vs exhaustive optimal selection.

The paper argues the O(n^2) greedy heuristic is a sound replacement
for the O(2^n) exhaustive search.  On randomly drawn coverage tables
small enough to enumerate, we measure how often greedy matches the
optimal subset cost and how large the worst-case gap gets.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core.selection import (
    CoverageTable,
    select_benchmarks,
    select_benchmarks_exhaustive,
)


def random_instance(rng, n_benchmarks=8, n_defects=20):
    table = CoverageTable()
    durations = {}
    for i in range(n_benchmarks):
        name = f"b{i}"
        size = int(rng.integers(1, n_defects // 2))
        table.record(name, set(rng.choice(n_defects, size=size,
                                          replace=False).tolist()))
        durations[name] = float(rng.uniform(2.0, 60.0))
    return table, durations


@pytest.fixture(scope="module")
def gap_study():
    rng = np.random.default_rng(123)
    gaps = []
    feasible_matches = 0
    trials = 60
    for _ in range(trials):
        table, durations = random_instance(rng)
        probs = rng.uniform(0.2, 0.9, size=int(rng.integers(1, 6)))
        p0 = float(rng.uniform(0.02, 0.2))
        greedy = select_benchmarks(probs, durations, table, p0)
        optimal = select_benchmarks_exhaustive(probs, durations, table, p0)
        greedy_ok = greedy.residual_probability <= p0
        optimal_ok = optimal.residual_probability <= p0
        if greedy_ok and optimal_ok:
            ratio = (greedy.total_time_minutes
                     / max(optimal.total_time_minutes, 1e-9))
            gaps.append(ratio)
            if ratio <= 1.0 + 1e-9:
                feasible_matches += 1
        else:
            # Greedy must be feasible whenever the optimum is.
            assert greedy_ok == optimal_ok
    return np.array(gaps), feasible_matches, trials


def test_ablation_greedy_vs_exhaustive(gap_study):
    gaps, matches, trials = gap_study

    print_table("Ablation: greedy Algorithm 1 vs exhaustive optimum",
                ["statistic", "value"],
                [("feasible instances", len(gaps)),
                 ("greedy == optimal", f"{matches}/{len(gaps)}"),
                 ("mean time ratio", f"{gaps.mean():.3f}"),
                 ("worst time ratio", f"{gaps.max():.3f}")])

    # Shape: greedy matches the optimum on roughly half the instances,
    # stays within ~10% on average and is never pathological -- the
    # paper's justification for trading O(2^n) for O(n^2).
    assert matches / len(gaps) > 0.35
    assert gaps.mean() < 1.3
    assert gaps.max() < 2.5
