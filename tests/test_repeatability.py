"""Unit tests for the repeatability metrics."""

import numpy as np
import pytest

from repro.core.repeatability import pairwise_repeatability
from repro.exceptions import InvalidSampleError


class TestPairwiseRepeatability:
    def test_identical_samples_score_one(self):
        sample = [100.0, 101.0, 99.0]
        assert pairwise_repeatability([sample, sample, sample]) == pytest.approx(1.0)

    def test_two_identical_single_values(self):
        assert pairwise_repeatability([[5.0], [5.0]]) == pytest.approx(1.0)

    def test_lower_variance_higher_repeatability(self):
        rng = np.random.default_rng(0)
        tight = [100.0 * (1 + 0.001 * rng.standard_normal(100)) for _ in range(6)]
        loose = [100.0 * (1 + 0.05 * rng.standard_normal(100)) for _ in range(6)]
        assert pairwise_repeatability(tight) > pairwise_repeatability(loose)

    def test_needs_two_samples(self):
        with pytest.raises(InvalidSampleError):
            pairwise_repeatability([[1.0]])

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        samples = [rng.uniform(50, 150, 30) for _ in range(5)]
        value = pairwise_repeatability(samples)
        assert 0.0 <= value <= 1.0

