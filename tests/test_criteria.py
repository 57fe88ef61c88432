"""Unit tests for Algorithm 2 criteria learning."""

import numpy as np
import pytest

from repro.core import criteria as criteria_module
from repro.core.criteria import CriteriaResult, learn_criteria, medoid_index
from repro.core.distance import similarity
from repro.core.fastdist import pairwise_similarity_matrix
from repro.exceptions import CriteriaError


def _population(rng, n_healthy=20, n_defective=3, shift=0.8, steps=150):
    healthy = [rng.normal(100.0, 1.0, steps) for _ in range(n_healthy)]
    defective = [rng.normal(100.0 * shift, 1.0, steps) for _ in range(n_defective)]
    return healthy, defective


class TestMedoidIndex:
    def test_medoid_of_singleton(self):
        sims = pairwise_similarity_matrix([[1.0]])
        assert medoid_index(sims, np.array([0])) == 0

    def test_medoid_is_central_sample(self):
        samples = [[100.0], [101.0], [99.0], [150.0]]
        sims = pairwise_similarity_matrix(samples)
        # 100 is closest to everything on average.
        assert medoid_index(sims, np.arange(4)) == 0

    def test_empty_active_set_rejected(self):
        sims = pairwise_similarity_matrix([[1.0], [2.0]])
        with pytest.raises(CriteriaError):
            medoid_index(sims, np.array([], dtype=int))


class TestLearnCriteria:
    def test_excludes_planted_defects(self):
        rng = np.random.default_rng(0)
        healthy, defective = _population(rng)
        result = learn_criteria(healthy + defective, 0.95)
        assert set(result.defect_indices) == {20, 21, 22}

    def test_healthy_only_population_keeps_everything(self):
        rng = np.random.default_rng(1)
        healthy, _ = _population(rng, n_defective=0)
        result = learn_criteria(healthy, 0.95)
        assert result.defect_indices == ()
        assert len(result.healthy_indices) == 20

    def test_criteria_is_similar_to_healthy_samples(self):
        rng = np.random.default_rng(2)
        healthy, defective = _population(rng)
        result = learn_criteria(healthy + defective, 0.95)
        for sample in healthy:
            assert similarity(result.criteria, sample) > 0.95

    def test_medoid_centroid_returns_member_sample(self):
        rng = np.random.default_rng(3)
        healthy, _ = _population(rng, n_defective=0)
        result = learn_criteria(healthy, 0.95, centroid="medoid")
        assert result.centroid_index is not None
        assert np.array_equal(result.criteria,
                              np.sort(healthy[result.centroid_index]))

    def test_mean_centroid_pools_samples(self):
        rng = np.random.default_rng(4)
        healthy, _ = _population(rng, n_healthy=5, n_defective=0, steps=20)
        result = learn_criteria(healthy, 0.9, centroid="mean")
        assert result.centroid_index is None
        assert result.criteria.size == 5 * 20

    def test_hybrid_pools_only_survivors(self):
        rng = np.random.default_rng(5)
        healthy, defective = _population(rng, n_healthy=10, steps=50)
        result = learn_criteria(healthy + defective, 0.95, centroid="hybrid")
        assert result.centroid_index is None
        assert result.criteria.size == len(result.healthy_indices) * 50

    def test_single_sample_is_its_own_criteria(self):
        result = learn_criteria([[5.0, 6.0]], 0.95)
        assert result.defect_indices == ()
        assert result.criteria.tolist() == [5.0, 6.0]

    def test_alpha_validation(self):
        with pytest.raises(CriteriaError):
            learn_criteria([[1.0]], 1.0)
        with pytest.raises(CriteriaError):
            learn_criteria([[1.0]], -0.1)

    def test_unknown_centroid_rejected(self):
        with pytest.raises(CriteriaError):
            learn_criteria([[1.0]], 0.9, centroid="mode")

    def test_empty_input_rejected(self):
        with pytest.raises(CriteriaError):
            learn_criteria([], 0.9)

    def test_all_divergent_samples_collapse_to_one_survivor(self):
        # Samples so spread that nothing stays within alpha of any
        # centroid: everything except the final medoid is excluded
        # (self-similarity is always 1, so the centroid survives).
        samples = [[1.0], [10.0], [100.0], [1000.0]]
        result = learn_criteria(samples, 0.99)
        assert len(result.healthy_indices) == 1
        assert len(result.defect_indices) == 3

    def test_defect_ratio(self):
        rng = np.random.default_rng(6)
        healthy, defective = _population(rng, n_healthy=18, n_defective=2)
        result = learn_criteria(healthy + defective, 0.95)
        assert result.defect_ratio == pytest.approx(0.1)

    def test_result_type(self):
        result = learn_criteria([[1.0], [1.0]], 0.9)
        assert isinstance(result, CriteriaResult)
        assert result.alpha == 0.9

    def test_single_value_samples(self):
        samples = [[100.0], [100.5], [99.5], [70.0]]
        result = learn_criteria(samples, 0.95)
        assert result.defect_indices == (3,)


class TestKernelCallReuse:
    """The pairwise matrix is computed once, not once per iteration."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Count the calls of one kernel :mod:`criteria` imports."""
        calls = []
        kernel = getattr(criteria_module, name)
        monkeypatch.setattr(criteria_module, name, lambda *args, **kw:
                            (calls.append(1), kernel(*args, **kw))[1])
        return calls

    @staticmethod
    def _cascading_fleet():
        # Three tiers (healthy / shoulder / far) tuned so exclusion
        # cascades: the far tier falls first, re-centering then drops
        # the shoulder -- a genuinely multi-iteration learn.
        rng = np.random.default_rng(0)
        return ([rng.normal(100.0, 1.0, 120) for _ in range(12)]
                + [rng.normal(97.0, 1.0, 120) for _ in range(8)]
                + [rng.normal(90.0, 1.0, 120) for _ in range(4)])

    def test_medoid_learn_builds_matrix_exactly_once(self, monkeypatch):
        pairwise = self._count_calls(monkeypatch, "pairwise_similarities")
        one_vs_many = self._count_calls(monkeypatch,
                                        "one_vs_many_similarities")
        result = learn_criteria(self._cascading_fleet(), 0.95)
        assert result.iterations >= 2  # the regression needs >1 iteration
        assert len(pairwise) == 1
        # Medoid iterations re-score via matrix rows, not fresh kernels.
        assert not one_vs_many

    def test_hybrid_learn_builds_matrix_exactly_once(self, monkeypatch):
        pairwise = self._count_calls(monkeypatch, "pairwise_similarities")
        result = learn_criteria(self._cascading_fleet(), 0.95,
                                centroid="hybrid")
        assert result.iterations >= 2
        assert len(pairwise) == 1


class TestQuarantineWarningOrigin:
    """``stacklevel`` points the quarantine warning at the caller."""

    def test_warning_blames_this_file_not_the_library(self):
        import warnings

        samples = [[1.0, 2.0, 3.0], [1.1, 2.1, 3.1], [np.nan, np.nan]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            learn_criteria(samples, 0.9, nonfinite="mask")
        quarantine = [w for w in caught
                      if issubclass(w.category, RuntimeWarning)
                      and "unusable telemetry" in str(w.message)]
        assert len(quarantine) == 1
        assert quarantine[0].filename == __file__

    def test_incremental_warning_blames_this_file(self):
        import warnings

        from repro.core.incremental import (
            IncrementalConfig,
            learn_criteria_incremental,
        )

        rng = np.random.default_rng(0)
        samples = [rng.normal(100.0, 1.0, 40) for _ in range(30)]
        samples[3] = np.full(40, np.nan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            learn_criteria_incremental(
                samples, 0.95, nonfinite="mask",
                config=IncrementalConfig(exact_below=4))
        quarantine = [w for w in caught
                      if issubclass(w.category, RuntimeWarning)
                      and "unusable telemetry" in str(w.message)]
        assert len(quarantine) == 1
        assert quarantine[0].filename == __file__
