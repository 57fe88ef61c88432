"""Unit tests for the Eq. (2)-(4) distance and similarity metrics."""

import numpy as np
import pytest

from repro.core.distance import (
    cdf_distance,
    one_sided_distance,
    one_sided_similarity,
    similarity,
)
from repro.core.fastdist import pairwise_similarity_matrix
from repro.exceptions import InvalidSampleError


class TestCdfDistance:
    def test_identical_samples_have_zero_distance(self):
        sample = [1.0, 2.0, 3.0]
        assert cdf_distance(sample, sample) == 0.0

    def test_identical_single_values(self):
        assert cdf_distance([5.0], [5.0]) == 0.0

    def test_single_values_give_relative_regression(self):
        # d({90}, {100}) = (100 - 90) / 100 = 0.1
        assert cdf_distance([90.0], [100.0]) == pytest.approx(0.1)

    def test_twenty_percent_regression(self):
        assert cdf_distance([80.0], [100.0]) == pytest.approx(0.2)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(100.0, 2.0, 50)
        b = rng.normal(95.0, 2.0, 60)
        assert cdf_distance(a, b) == pytest.approx(cdf_distance(b, a))

    def test_bounded_in_unit_interval(self):
        assert 0.0 <= cdf_distance([1e-6], [1e6]) <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(100.0, 1.0, 40)
        b = rng.normal(90.0, 1.0, 40)
        assert cdf_distance(a, b) == pytest.approx(
            cdf_distance(a * 1000.0, b * 1000.0)
        )

    def test_larger_shift_larger_distance(self):
        rng = np.random.default_rng(2)
        base = rng.normal(100.0, 1.0, 100)
        small = cdf_distance(base * 0.98, base)
        large = cdf_distance(base * 0.80, base)
        assert large > small

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidSampleError):
            cdf_distance([], [1.0])

    def test_nan_sample_rejected(self):
        with pytest.raises(InvalidSampleError):
            cdf_distance([1.0, float("nan")], [1.0])

    def test_all_zero_samples(self):
        assert cdf_distance([0.0, 0.0], [0.0]) == 0.0


class TestSimilarity:
    def test_similarity_is_one_minus_distance(self):
        a, b = [90.0, 91.0], [100.0, 101.0]
        assert similarity(a, b) == pytest.approx(1.0 - cdf_distance(a, b))
        assert one_sided_similarity(a, b) == pytest.approx(
            1.0 - one_sided_distance(a, b))

    def test_public_names_are_the_scalar_oracle(self):
        import repro
        import repro.core
        from repro.core import distance, fastdist

        for name in ("cdf_distance", "similarity", "one_sided_distance",
                     "one_sided_similarity"):
            assert getattr(repro.core, name) is getattr(distance, name)
        assert repro.cdf_distance is distance.cdf_distance
        assert repro.one_sided_similarity is distance.one_sided_similarity
        assert (repro.core.pairwise_similarity_matrix
                is fastdist.pairwise_similarity_matrix)

    def test_ten_percent_regression_similarity(self):
        assert similarity([90.0], [100.0]) == pytest.approx(0.9)


class TestOneSidedDistance:
    def test_under_performing_observed_is_penalized(self):
        # Observed slower than criteria -> positive distance.
        assert one_sided_distance([90.0], [100.0]) > 0.0

    def test_over_performing_observed_is_free(self):
        # Observed faster than criteria -> no penalty for throughput.
        assert one_sided_distance([110.0], [100.0]) == 0.0

    def test_latency_polarity_flips(self):
        # Higher latency is worse.
        worse = one_sided_distance([120.0], [100.0], higher_is_better=False)
        better = one_sided_distance([80.0], [100.0], higher_is_better=False)
        assert worse > 0.0
        assert better == 0.0

    def test_one_sided_never_exceeds_two_sided(self):
        rng = np.random.default_rng(3)
        a = rng.normal(95.0, 3.0, 80)
        b = rng.normal(100.0, 3.0, 80)
        assert one_sided_distance(a, b) <= cdf_distance(a, b) + 1e-12

    def test_one_sided_similarity_threshold_semantics(self):
        # A 10% regression breaks alpha = 0.95; a 1% one does not.
        assert one_sided_similarity([90.0], [100.0]) < 0.95
        assert one_sided_similarity([99.0], [100.0]) > 0.95


class TestPairwiseSimilarityMatrix:
    def test_shape_and_diagonal(self):
        samples = [[1.0, 2.0], [1.1, 2.1], [5.0, 6.0]]
        matrix = pairwise_similarity_matrix(samples)
        assert matrix.shape == (3, 3)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        samples = [rng.normal(100, 2, 30) for _ in range(4)]
        matrix = pairwise_similarity_matrix(samples)
        assert np.allclose(matrix, matrix.T)

    def test_close_samples_more_similar_than_far(self):
        matrix = pairwise_similarity_matrix([[100.0], [99.0], [50.0]])
        assert matrix[0, 1] > matrix[0, 2]
