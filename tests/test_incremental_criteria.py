"""The incremental criteria engine vs. the exact Algorithm 2 path.

Four layers of guarantees:

* **Agreement** -- on a fleet with separated healthy/defective
  populations, the sketch + landmark-coreset learn produces the same
  verdict set as the exact learn, and every per-window similarity
  (and the criteria itself) deviates from the exact/scalar value by
  less than the sketch's property-tested ``distance_bound``.
* **Stability** (hypothesis property) -- a full-path learn over
  perturbed inputs matches a from-scratch exact learn on those same
  inputs: identical ``excluded_indices``/``defect_indices``, criteria
  within the bound.
* **History-free** -- a learn depends on its inputs only: a Validator
  that learned another window set first ends up bit-identical to a
  fresh one.
* **Ladder** -- exact floor and forced exact mode; plus the
  service-level guarantee that a forced-bad approximation is
  journaled as ``criteria-rollback`` and pins the next learn to the
  exact path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import learn_criteria
from repro.core.distance import similarity
from repro.core.incremental import (
    IncrementalConfig,
    learn_criteria_incremental,
)
from repro.core.sketch import distance_bound
from repro.exceptions import CriteriaError

ALPHA = 0.95

# Small coreset + low exact floor so tests exercise the sketch path at
# test-sized fleets.
CONFIG = IncrementalConfig(exact_below=16, n_candidates=64, n_landmarks=16)


def fleet_windows(n=300, defects=(5, 77, 150), steps=160, seed=0,
                  shift=0.8):
    rng = np.random.default_rng(seed)
    windows = [rng.normal(100.0, 1.0, steps) for _ in range(n)]
    for idx in defects:
        if idx < n:
            windows[idx] = rng.normal(100.0 * shift, 1.0, steps)
    return windows


class TestFullPathAgreement:
    def test_same_verdicts_as_exact(self):
        windows = fleet_windows()
        exact = learn_criteria(windows, ALPHA)
        approx, state = learn_criteria_incremental(windows, ALPHA,
                                                   config=CONFIG)
        assert state.path == "full"
        assert approx.defect_indices == exact.defect_indices
        assert approx.healthy_indices == exact.healthy_indices
        assert approx.excluded_indices == exact.excluded_indices

    def test_similarities_within_bound_of_scalar_oracle(self):
        windows = fleet_windows(n=120)
        approx, _ = learn_criteria_incremental(windows, ALPHA, config=CONFIG)
        bound = distance_bound(CONFIG.sketch_size)
        # The scalar oracle scored against the *approximate* criteria:
        # isolates the sketch error from any criteria drift.
        for idx in (0, 3, 5, 60, 77, 119):
            oracle = similarity(approx.criteria, windows[idx])
            assert abs(approx.similarities[idx] - oracle) <= bound

    def test_criteria_within_bound_of_exact(self):
        windows = fleet_windows()
        exact = learn_criteria(windows, ALPHA)
        approx, _ = learn_criteria_incremental(windows, ALPHA, config=CONFIG)
        assert similarity(np.sort(approx.criteria),
                          np.sort(np.asarray(exact.criteria))) \
            > 1.0 - distance_bound(CONFIG.sketch_size)

    def test_medoid_centroid_returns_member_window(self):
        windows = fleet_windows(n=120)
        result, _ = learn_criteria_incremental(windows, ALPHA,
                                               centroid="medoid",
                                               config=CONFIG)
        assert result.centroid_index is not None
        np.testing.assert_array_equal(
            result.criteria, np.sort(windows[result.centroid_index]))

    def test_dirty_windows_excluded_like_exact(self):
        from repro.core.backend import get_backend

        backend = get_backend("mask")
        windows = fleet_windows(n=100)
        windows[4] = np.full(160, np.nan)
        windows[9] = np.array([])
        with pytest.warns(RuntimeWarning):
            exact = learn_criteria(windows, ALPHA, backend=backend)
        with pytest.warns(RuntimeWarning):
            approx, _ = learn_criteria_incremental(windows, ALPHA,
                                                   backend=backend,
                                                   config=CONFIG)
        assert approx.excluded_indices == exact.excluded_indices == (4, 9)
        assert approx.defect_indices == exact.defect_indices

    def test_alpha_too_strict_raises(self):
        rng = np.random.default_rng(1)
        windows = [rng.normal(100.0 * (1 + i), 0.1, 64) for i in range(40)]
        with pytest.raises(CriteriaError):
            learn_criteria_incremental(windows, 0.999999, centroid="mean",
                                       config=IncrementalConfig(
                                           exact_below=4))


class TestStateMachine:
    def test_exact_floor(self):
        windows = fleet_windows(n=12, defects=(3,))
        result, state = learn_criteria_incremental(windows, ALPHA,
                                                   config=CONFIG)
        assert state.path == "exact" and state.exact
        assert result.defect_indices == (3,)

    def test_forced_exact_mode(self):
        windows = fleet_windows(n=60)
        _, state = learn_criteria_incremental(windows, ALPHA, config=CONFIG)
        assert state.path == "full"
        # Same inputs above the exact floor, but mode="exact" must run
        # Algorithm 2 itself -- this is the post-rollback path.
        result, state2 = learn_criteria_incremental(windows, ALPHA,
                                                    config=CONFIG,
                                                    mode="exact")
        assert state2.path == "exact" and state2.exact
        exact = learn_criteria(windows, ALPHA)
        assert result.defect_indices == exact.defect_indices

    def test_unknown_mode_rejected(self):
        for mode in ("bogus", "full", "delta"):
            with pytest.raises(CriteriaError):
                learn_criteria_incremental([[1.0]], ALPHA, mode=mode)

    def test_config_validation(self):
        for kwargs in ({"sketch_size": 1}, {"n_landmarks": 0},
                       {"n_candidates": 0}, {"max_criteria_size": 1}):
            with pytest.raises(CriteriaError):
                IncrementalConfig(**kwargs)


# ----------------------------------------------------------------------
# Full-vs-exact stability (the satellite property test)
# ----------------------------------------------------------------------

perturbation = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "n_redraw": st.integers(min_value=0, max_value=20),
    "heal": st.booleans(),     # one planted defect becomes healthy
    "break_one": st.booleans(),  # one healthy window becomes defective
})


class TestFullPathStability:
    @given(perturbation)
    @settings(max_examples=15, deadline=None)
    def test_full_learn_matches_fresh_exact_learn(self, p):
        """Exact learn vs. full-path learn over the same inputs agree.

        ``excluded_indices`` and ``defect_indices`` must be identical,
        and the two criteria must be within the sketch distance bound
        of each other -- the engine's whole contract in one property.
        """
        windows = fleet_windows(n=260, defects=(5, 77, 150), seed=3)

        rng = np.random.default_rng(p["seed"])
        for idx in rng.choice(260, size=p["n_redraw"], replace=False):
            windows[idx] = rng.normal(100.0, 1.0, 160)
        if p["heal"]:
            windows[77] = rng.normal(100.0, 1.0, 160)
        if p["break_one"]:
            windows[30] = rng.normal(80.0, 1.0, 160)

        full_result, full_state = learn_criteria_incremental(
            windows, ALPHA, config=CONFIG)
        assert full_state.path == "full"

        exact = learn_criteria(windows, ALPHA)
        assert full_result.excluded_indices == exact.excluded_indices
        assert full_result.defect_indices == exact.defect_indices
        assert similarity(np.sort(np.asarray(full_result.criteria)),
                          np.sort(np.asarray(exact.criteria))) \
            > 1.0 - distance_bound(CONFIG.sketch_size)


# ----------------------------------------------------------------------
# A learn depends on its inputs only
# ----------------------------------------------------------------------

class TestHistoryFree:
    @pytest.mark.parametrize("exact_below, path", [(2, "full"),
                                                   (256, "exact")])
    def test_learning_a_then_b_equals_learning_b(self, exact_below, path):
        from repro.benchsuite.runner import SuiteRunner
        from repro.benchsuite.suite import suite_by_name
        from repro.core.validator import Validator
        from repro.hardware.fleet import build_fleet

        spec = suite_by_name("mem-bw")
        nodes = build_fleet(24, seed=5).nodes
        runner = SuiteRunner(seed=9)
        # Two runs of the same nodes: the repeat counter gives B new
        # noise, as a product re-learn does.
        results_a = runner.run_on_nodes(spec, nodes)
        results_b = runner.run_on_nodes(spec, nodes)

        def validator():
            return Validator((spec,), incremental=IncrementalConfig(
                exact_below=exact_below, n_candidates=8, n_landmarks=4))

        seasoned, fresh = validator(), validator()
        seasoned.learn_criteria_from_results(spec, results_a)
        after_a = {key: np.array(entry.criteria)
                   for key, entry in seasoned.criteria.items()}
        seasoned.learn_criteria_from_results(spec, results_b)
        fresh.learn_criteria_from_results(spec, results_b)

        assert seasoned.criteria.keys() == fresh.criteria.keys()
        for key, entry in fresh.criteria.items():
            np.testing.assert_array_equal(seasoned.criteria[key].criteria,
                                          entry.criteria)
            assert (seasoned.criteria_states[key].path
                    == fresh.criteria_states[key].path == path)
        # A and B really differ, so the equality above is not vacuous.
        assert any(not np.array_equal(after_a[key], entry.criteria)
                   for key, entry in fresh.criteria.items())


# ----------------------------------------------------------------------
# Forced-bad approximation through the service rollout gate
# ----------------------------------------------------------------------

class TestApproximateRollback:
    def _build_service(self, tmp_path):
        from repro.benchsuite.suite import suite_by_name
        from repro.core.selector import Selector
        from repro.core.system import Anubis
        from repro.core.validator import Validator
        from repro.hardware.fleet import build_fleet
        from repro.quality import RolloutConfig
        from repro.service import PoolConfig, ServiceConfig, ValidationService
        from repro.simulation import analytic_coverage_table, suite_durations
        from repro.simulation.generator import generate_incident_trace
        from repro.survival import extract_status_samples
        from repro.survival.exponential import ExponentialModel
        from tests.test_quality_rollout import PoisoningRunner

        suite = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
        fleet = build_fleet(8, seed=5)
        runner = PoisoningRunner(seed=9)
        # exact_below=2 forces even this 8-node fleet onto the
        # approximate sketch path.
        validator = Validator(suite, runner=runner,
                              incremental=IncrementalConfig(
                                  exact_below=2, n_candidates=8,
                                  n_landmarks=4))
        trace = generate_incident_trace(50, 800.0, seed=11)
        model = ExponentialModel().fit(extract_status_samples(trace))
        selector = Selector(model, analytic_coverage_table(suite),
                            suite_durations(suite), p0=0.05)
        config = ServiceConfig(pool=PoolConfig(max_workers=2),
                               rollout=RolloutConfig())
        service = ValidationService(Anubis(validator, selector), fleet.nodes,
                                    journal_dir=str(tmp_path), config=config)
        return service, fleet, runner

    def test_bad_approximation_rolled_back_and_journaled(self, tmp_path):
        service, fleet, runner = self._build_service(tmp_path)
        validator = service.anubis.validator

        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and all(d.accepted for d in decisions)
        assert all(d.learn_path == "full" for d in decisions)
        before = dict(validator.criteria)

        runner.poisoning = True
        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and all(not d.accepted for d in decisions)
        assert validator.criteria == before  # rolled back, object for object

        rollbacks = [r for r in service.store.replay()
                     if r.kind == "criteria-rollback"]
        assert rollbacks
        # The journal attributes each rollback to the approximate path
        # that produced the rejected candidate.
        assert all(r.payload["learn_path"] in ("full",)
                   for r in rollbacks)

        # The tainted engine state is gone and the next learn for every
        # rolled-back key is pinned to the exact path.
        runner.poisoning = False
        decisions = service.learn_criteria(fleet.nodes)
        assert decisions and all(d.accepted for d in decisions)
        assert all(d.learn_path == "exact" for d in decisions)

    def test_criteria_learn_records_journaled(self, tmp_path):
        service, fleet, _runner = self._build_service(tmp_path)
        service.learn_criteria(fleet.nodes)
        learns = [r for r in service.store.replay()
                  if r.kind == "criteria-learn"]
        assert len(learns) == 1
        assert set(learns[0].payload) == {"learned"}
        entries = learns[0].payload["learned"]
        assert entries and all(e["path"] == "full" for e in entries)
        assert all(e["seconds"] >= 0.0 for e in entries)
        # Pinned keys learn exactly; the record's shape is the same on
        # both rungs of the ladder.
        for key in service.anubis.validator.criteria:
            service.anubis.validator.invalidate_criteria_state(key)
        service.learn_criteria(fleet.nodes)
        learns = [r for r in service.store.replay()
                  if r.kind == "criteria-learn"]
        assert len(learns) == 2
        for learn in learns:
            for entry in learn.payload["learned"]:
                assert set(entry) == {"sku", "benchmark", "metric", "path",
                                      "seconds"}
                assert entry["path"] in {"exact", "full"}
        assert all(e["path"] == "exact"
                   for e in learns[1].payload["learned"])
