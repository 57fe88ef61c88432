"""The distance layer as its callers reach it.

Pairs go to the scalar Eq. (2)--(4) definitions in ``core.distance``,
collections to the ``core.fastdist`` kernels, and the non-finite policy
travels as the ``nonfinite`` string of ``as_sample`` and
``SortedSampleBatch.from_samples``.  These cases pin the public entry
points to the scalar oracle and the policy string to its effect.
"""

import numpy as np
import pytest

from repro.core import (
    cdf_distance,
    one_sided_distance,
    one_sided_similarity,
    similarity,
)
from repro.core import fastdist
from repro.core.distance import (
    _cdf_gap_integral,
    cdf_distance as scalar_cdf_distance,
    one_sided_distance as scalar_one_sided_distance,
    pairwise_similarity_matrix_reference,
)
from repro.core.ecdf import as_sample
from repro.core.fastdist import SortedSampleBatch, pairwise_similarity_matrix
from repro.core.measurement import NONFINITE_MASK, NONFINITE_REJECT
from repro.exceptions import InvalidSampleError

TOL = 1e-9


def fleet(n=6, seed=0, width=40):
    rng = np.random.default_rng(seed)
    return [rng.normal(100.0, 2.0, width) for _ in range(n)]


def scalar_one_vs_many(samples, reference, signed_direction):
    """One scalar Eq. (2)/(4) call per sample: the collection oracle."""
    ref = np.sort(as_sample(reference))
    return np.asarray([
        _cdf_gap_integral(np.sort(as_sample(s)), ref,
                          signed_direction=signed_direction,
                          assume_sorted=True)
        for s in samples
    ], dtype=float)


class TestPairSemantics:
    """Public pair entry points are the scalar oracle, on any sequence."""

    def test_cdf_distance_matches_scalar(self):
        a, b = fleet(2, seed=1)
        want = scalar_cdf_distance(np.asarray(a), np.asarray(b))
        assert cdf_distance(list(a), list(b)) == want
        kernel = fastdist.one_vs_many_distances(
            SortedSampleBatch.from_samples([a]), b)
        assert kernel[0] == pytest.approx(want, abs=1e-12)

    def test_one_sided_matches_scalar_both_polarities(self):
        a, b = fleet(2, seed=2)
        for hib in (True, False):
            want = scalar_one_sided_distance(
                np.asarray(a), np.asarray(b), higher_is_better=hib)
            assert one_sided_distance(
                list(a), list(b), higher_is_better=hib) == want
            kernel = fastdist.one_vs_many_distances(
                SortedSampleBatch.from_samples([a]), b,
                signed_direction=1 if hib else -1)
            assert kernel[0] == pytest.approx(want, abs=1e-12)

    def test_similarity_is_one_minus_distance(self):
        a, b = fleet(2, seed=3)
        assert similarity(a, b) == pytest.approx(
            1.0 - cdf_distance(a, b), abs=TOL)
        assert one_sided_similarity(a, b) == pytest.approx(
            1.0 - one_sided_distance(a, b), abs=TOL)

    def test_reject_policy_raises_on_nan(self):
        with pytest.raises(InvalidSampleError):
            cdf_distance([1.0, np.nan], [1.0, 2.0])
        with pytest.raises(InvalidSampleError):
            SortedSampleBatch.from_samples([[1.0, np.nan]],
                                           nonfinite=NONFINITE_REJECT)

    def test_mask_policy_drops_nan(self):
        masked = cdf_distance(
            as_sample([1.0, 2.0, np.nan], nonfinite=NONFINITE_MASK),
            [1.0, 2.0])
        clean = cdf_distance([1.0, 2.0], [1.0, 2.0])
        assert masked == pytest.approx(clean, abs=TOL)


class TestCollectionSemantics:
    def test_pairwise_matches_reference_with_unit_diagonal(self):
        samples = fleet()
        got = pairwise_similarity_matrix(samples)
        np.testing.assert_array_equal(np.diag(got), 1.0)
        want = pairwise_similarity_matrix_reference(samples)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_prepared_batch_is_reused(self, monkeypatch):
        samples = fleet(4, seed=5)
        batch = SortedSampleBatch.from_samples(samples)
        want = pairwise_similarity_matrix(samples)

        def rebuilt(*args, **kwargs):
            raise AssertionError("a prepared batch was rebuilt")

        monkeypatch.setattr(SortedSampleBatch, "from_samples", rebuilt)
        np.testing.assert_allclose(pairwise_similarity_matrix(batch), want,
                                   atol=TOL)

    def test_one_vs_many_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        uniform = fleet(5, seed=6)
        ragged = [rng.normal(100.0, 2.0, n) for n in (1, 9, 40, 3)]
        width_one = [rng.normal(100.0, 2.0, 1) for _ in range(5)]
        ties = [rng.integers(98, 103, n).astype(float) for n in (10, 10, 4)]
        references = [
            np.sort(uniform[0]),
            np.array([100.0]),
            np.sort(rng.normal(100.0, 2.0, 4096)),
            np.sort(rng.integers(98, 103, 4096).astype(float)),
        ]
        for samples in (uniform, ragged, width_one, ties):
            batch = SortedSampleBatch.from_samples(samples)
            for reference in references:
                for direction in (0, 1, -1):
                    got = fastdist.one_vs_many_distances(
                        batch, reference, signed_direction=direction)
                    want = scalar_one_vs_many(samples, reference, direction)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_vs_many_similarities_complement(self):
        samples = fleet(4, seed=7)
        reference = np.sort(samples[1])
        batch = SortedSampleBatch.from_samples(samples)
        np.testing.assert_allclose(
            fastdist.one_vs_many_similarities(batch, reference,
                                              assume_sorted=True),
            1.0 - fastdist.one_vs_many_distances(batch, reference),
            atol=TOL)

    def test_rowwise_similarities_match_pair_calls(self):
        samples = fleet(5, seed=8, width=30)
        rows = np.sort(np.stack(samples), axis=1)
        got = 1.0 - fastdist.batch_gap_integrals(
            SortedSampleBatch.from_rows(rows[:-1]),
            SortedSampleBatch.from_rows(rows[1:]))
        want = np.array([similarity(samples[i], samples[i + 1])
                         for i in range(len(samples) - 1)])
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_ragged_samples_supported(self):
        rng = np.random.default_rng(9)
        samples = [rng.normal(10.0, 1.0, n) for n in (3, 17, 8, 1)]
        got = pairwise_similarity_matrix(samples)
        want = pairwise_similarity_matrix_reference(samples)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_mask_backend_collection_paths(self):
        samples = fleet(4, seed=10)
        dirty = [s.copy() for s in samples]
        dirty[2] = np.concatenate([dirty[2], [np.nan]])
        with pytest.raises(InvalidSampleError):
            pairwise_similarity_matrix(dirty)
        got = pairwise_similarity_matrix(
            SortedSampleBatch.from_samples(dirty, nonfinite=NONFINITE_MASK))
        want = pairwise_similarity_matrix(samples)
        np.testing.assert_allclose(got, want, atol=TOL)
        reference = np.concatenate([samples[0], [np.inf]])
        np.testing.assert_allclose(
            fastdist.one_vs_many_distances(
                SortedSampleBatch.from_samples(dirty,
                                               nonfinite=NONFINITE_MASK),
                reference, nonfinite=NONFINITE_MASK),
            scalar_one_vs_many(samples, samples[0], 0), rtol=0, atol=1e-12)


class TestPrepare:
    def test_prepare_sorts(self):
        batch = SortedSampleBatch.from_samples([[3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(batch.row(0), [1.0, 2.0, 3.0])

    def test_prepare_assume_sorted_skips_validation(self):
        batch = SortedSampleBatch.from_sorted([np.array([1.0, 2.0, 3.0])])
        assert isinstance(batch, SortedSampleBatch)
        np.testing.assert_array_equal(batch.row(0), [1.0, 2.0, 3.0])
        # No validation: a non-finite entry passes through untouched.
        raw = SortedSampleBatch.from_sorted([np.array([1.0, np.nan])])
        assert np.isnan(raw.row(0)[1])

    def test_clean_applies_policy(self):
        assert as_sample([1.0, np.nan, 2.0],
                         nonfinite=NONFINITE_MASK).tolist() == [1.0, 2.0]
        with pytest.raises(InvalidSampleError):
            as_sample([1.0, np.nan], nonfinite=NONFINITE_REJECT)
