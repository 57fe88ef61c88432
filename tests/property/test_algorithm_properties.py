"""Property-based tests for Algorithm 1/2 invariants and the schedulers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import learn_criteria
from repro.core.selection import (
    CoverageTable,
    SelectionResult,
    joint_incident_probability,
    select_benchmarks,
)
from repro.netval.pairs import round_robin_schedule, validate_schedule


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------
coverage_strategy = st.dictionaries(
    keys=st.sampled_from([f"b{i}" for i in range(6)]),
    values=st.sets(st.integers(min_value=0, max_value=15), max_size=8),
    min_size=1, max_size=6,
)


@given(coverage_strategy)
@settings(max_examples=80, deadline=None)
def test_coverage_monotone_in_subset(found):
    table = CoverageTable(found={k: set(v) for k, v in found.items()})
    names = table.benchmarks
    running = []
    previous = 0.0
    for name in names:
        running.append(name)
        current = table.coverage(running)
        assert current >= previous - 1e-12
        previous = current
    assert table.coverage(names) <= 1.0 + 1e-12


@given(coverage_strategy,
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_selection_invariants(found, probs, p0):
    table = CoverageTable(found={k: set(v) for k, v in found.items()})
    durations = {name: 1.0 + i for i, name in enumerate(table.benchmarks)}
    result = select_benchmarks(probs, durations, table, p0)
    # Subset members are unique and known.
    assert len(set(result.subset)) == len(result.subset)
    assert set(result.subset) <= set(durations)
    # Residual probability formula holds.
    assert abs(result.residual_probability
               - result.initial_probability * (1.0 - result.coverage)) < 1e-9
    # Skipping only when already under the target.
    if result.skipped:
        assert result.initial_probability <= p0


def _greedy_by_reunion(node_probabilities, durations, coverage, p0):
    """Algorithm 1 as first written: every candidate at every step is
    scored by ``coverage.coverage(subset + [name])``, which re-unions
    every benchmark's defect set.  The oracle for the incremental form."""
    candidates = [name for name in coverage.benchmarks if name in durations]
    p = joint_incident_probability(node_probabilities)
    if p <= p0:
        return SelectionResult(subset=(), coverage=0.0, initial_probability=p,
                               residual_probability=p, total_time_minutes=0.0,
                               skipped=True)
    subset: list[str] = []
    current_coverage = 0.0
    residual = p
    remaining = list(candidates)
    while residual > p0 and remaining:
        best_name, best_gain_rate, best_coverage = None, 0.0, current_coverage
        for name in remaining:
            new_coverage = coverage.coverage(subset + [name])
            delta_p = p * (new_coverage - current_coverage)
            gain_rate = delta_p / max(durations[name], 1e-9)
            if gain_rate > best_gain_rate:
                best_name, best_gain_rate, best_coverage = (
                    name, gain_rate, new_coverage)
        if best_name is None:
            break
        subset.append(best_name)
        remaining.remove(best_name)
        current_coverage = best_coverage
        residual = p * (1.0 - current_coverage)
    return SelectionResult(
        subset=tuple(subset), coverage=current_coverage,
        initial_probability=p, residual_probability=residual,
        total_time_minutes=sum(durations[name] for name in subset))


@given(st.dictionaries(
           keys=st.sampled_from([f"b{i}" for i in range(10)]),
           values=st.sets(st.integers(min_value=0, max_value=24), max_size=10),
           max_size=10),
       st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]), min_size=10,
                max_size=10),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
       st.floats(min_value=0.0, max_value=0.5),
       st.sets(st.sampled_from([f"b{i}" for i in range(10)]), max_size=3))
@settings(max_examples=300, deadline=None)
def test_selection_matches_the_reunion_greedy(found, minutes, probs, p0,
                                              untimed):
    # Few distinct durations make equal gain rates -- the
    # first-strictly-greater tie-break -- common; ``untimed`` benchmarks
    # have history but no duration and are no candidates.
    table = CoverageTable(found={k: set(v) for k, v in found.items()})
    durations = {f"b{i}": minute for i, minute in enumerate(minutes)
                 if f"b{i}" not in untimed}
    assert (select_benchmarks(probs, durations, table, p0)
            == _greedy_by_reunion(probs, durations, table, p0))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10))
@settings(max_examples=80, deadline=None)
def test_joint_probability_bounds(probs):
    p = joint_incident_probability(probs)
    assert 0.0 <= p <= 1.0
    if probs:
        assert p >= max(probs) - 1e-12  # joint risk at least the worst node


# ---------------------------------------------------------------------------
# Algorithm 2
# ---------------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_criteria_partition_and_threshold(n_healthy, n_defective, seed):
    rng = np.random.default_rng(seed)
    samples = [rng.normal(100.0, 0.5, 40) for _ in range(n_healthy)]
    samples += [rng.normal(70.0, 0.5, 40) for _ in range(n_defective)]
    result = learn_criteria(samples, 0.95, centroid="medoid")
    # Partition invariant.
    assert sorted(result.defect_indices + result.healthy_indices) == list(
        range(len(samples)))
    # Healthy samples satisfy the threshold against the criteria.
    from repro.core.distance import similarity
    for index in result.healthy_indices:
        assert similarity(result.criteria, samples[index]) > 0.95


# ---------------------------------------------------------------------------
# Circle-method schedule
# ---------------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_round_robin_valid_for_any_n(n):
    endpoints = list(range(n))
    rounds = round_robin_schedule(endpoints)
    validate_schedule(endpoints, rounds)
    expected_rounds = n - 1 if n % 2 == 0 else n
    assert len(rounds) == expected_rounds
