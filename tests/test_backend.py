"""Unit tests for the unified distance backend dispatch."""

import numpy as np
import pytest

from repro.core.backend import (
    DispatchBackend,
    DistanceBackend,
    ScalarBackend,
    VectorizedBackend,
    backend_for,
    default_backend,
    get_backend,
)
from repro.core.distance import (
    cdf_distance as scalar_cdf_distance,
    one_sided_distance as scalar_one_sided_distance,
    pairwise_similarity_matrix_reference,
)
from repro.core.fastdist import SortedSampleBatch
from repro.core.measurement import (
    NONFINITE_MASK,
    NONFINITE_REJECT,
    MeasurementBatch,
    MetricWindow,
)
from repro.exceptions import InvalidSampleError, ReproError

TOL = 1e-9


def fleet(n=6, seed=0, width=40):
    rng = np.random.default_rng(seed)
    return [rng.normal(100.0, 2.0, width) for _ in range(n)]


class TestBackendRegistry:
    def test_cached_per_policy(self):
        assert get_backend("reject") is get_backend("reject")
        assert get_backend("mask") is not get_backend("reject")
        assert default_backend().nonfinite == NONFINITE_REJECT

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError, match="nonfinite policy"):
            get_backend("ignore")

    def test_all_implementations_satisfy_the_protocol(self):
        for backend in (ScalarBackend(), VectorizedBackend(),
                        DispatchBackend()):
            assert isinstance(backend, DistanceBackend)

    def test_backend_for_reads_batch_provenance(self):
        raw = MetricWindow(node_id="n", benchmark="b", metric="m",
                           values=[1.0, 2.0])
        batch = MeasurementBatch(benchmark="b", metric="m", windows=(raw,))
        assert backend_for(batch).nonfinite == NONFINITE_MASK
        sanitized = MeasurementBatch(
            benchmark="b", metric="m", windows=(raw.mark_sanitized(),))
        assert backend_for(sanitized).nonfinite == NONFINITE_REJECT


class TestPairSemantics:
    """Pair-level dispatch must be bit-identical to the scalar oracle."""

    def test_cdf_distance_matches_scalar(self):
        a, b = fleet(2, seed=1)
        assert default_backend().cdf_distance(a, b) == scalar_cdf_distance(
            np.asarray(a), np.asarray(b))

    def test_one_sided_matches_scalar_both_polarities(self):
        a, b = fleet(2, seed=2)
        backend = default_backend()
        for hib in (True, False):
            assert backend.one_sided_distance(
                a, b, higher_is_better=hib) == scalar_one_sided_distance(
                    np.asarray(a), np.asarray(b), higher_is_better=hib)

    def test_similarity_is_one_minus_distance(self):
        a, b = fleet(2, seed=3)
        backend = default_backend()
        assert backend.similarity(a, b) == pytest.approx(
            1.0 - backend.cdf_distance(a, b), abs=TOL)
        assert backend.one_sided_similarity(a, b) == pytest.approx(
            1.0 - backend.one_sided_distance(a, b), abs=TOL)

    def test_reject_policy_raises_on_nan(self):
        with pytest.raises(InvalidSampleError):
            default_backend().cdf_distance([1.0, np.nan], [1.0, 2.0])

    def test_mask_policy_drops_nan(self):
        masked = get_backend("mask").cdf_distance([1.0, 2.0, np.nan],
                                                  [1.0, 2.0])
        clean = default_backend().cdf_distance([1.0, 2.0], [1.0, 2.0])
        assert masked == pytest.approx(clean, abs=TOL)


class TestCollectionSemantics:
    def test_pairwise_matches_reference_with_unit_diagonal(self):
        samples = fleet()
        got = default_backend().pairwise_similarities(samples)
        want = pairwise_similarity_matrix_reference(samples)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_prepared_batch_is_reused(self):
        backend = default_backend()
        samples = fleet(4, seed=5)
        batch = backend.prepare(samples)
        assert backend.prepare(batch) is batch
        np.testing.assert_allclose(
            backend.pairwise_similarities(batch),
            backend.pairwise_similarities(samples), atol=TOL)

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
        backend = default_backend()
        for samples in (uniform, ragged, width_one, ties):
            for reference in references:
                for direction in (0, 1, -1):
                    got = backend.one_vs_many_distances(
                        samples, reference, signed_direction=direction)
                    want = ScalarBackend().one_vs_many_distances(
                        samples, reference, signed_direction=direction)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_vs_many_similarities_complement(self):
        samples = fleet(4, seed=7)
        reference = np.sort(samples[1])
        backend = default_backend()
        np.testing.assert_allclose(
            backend.one_vs_many_similarities(samples, reference),
            1.0 - backend.one_vs_many_distances(samples, reference),
            atol=TOL)

    def test_rowwise_similarities_match_pair_calls(self):
        samples = fleet(5, seed=8, width=30)
        rows = np.sort(np.stack(samples), axis=1)
        backend = default_backend()
        got = backend.rowwise_similarities(rows[:-1], rows[1:],
                                           assume_sorted=True)
        want = np.array([backend.similarity(samples[i], samples[i + 1])
                         for i in range(len(samples) - 1)])
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_ragged_samples_supported(self):
        rng = np.random.default_rng(9)
        samples = [rng.normal(10.0, 1.0, n) for n in (3, 17, 8, 1)]
        got = default_backend().pairwise_similarities(samples)
        want = pairwise_similarity_matrix_reference(samples)
        np.fill_diagonal(want, 1.0)
        np.testing.assert_allclose(got, want, atol=TOL)

    def test_mask_backend_collection_paths(self):
        samples = fleet(4, seed=10)
        dirty = [s.copy() for s in samples]
        dirty[2] = np.concatenate([dirty[2], [np.nan]])
        backend = get_backend("mask")
        got = backend.pairwise_similarities(dirty)
        want = default_backend().pairwise_similarities(samples)
        np.testing.assert_allclose(got, want, atol=TOL)


class TestPrepare:
    def test_prepare_sorts(self):
        backend = default_backend()
        batch = backend.prepare([[3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(batch.row(0), [1.0, 2.0, 3.0])

    def test_prepare_assume_sorted_skips_validation(self):
        backend = default_backend()
        batch = backend.prepare([np.array([1.0, 2.0, 3.0])],
                                assume_sorted=True)
        assert isinstance(batch, SortedSampleBatch)
        np.testing.assert_array_equal(batch.row(0), [1.0, 2.0, 3.0])

    def test_clean_applies_policy(self):
        assert get_backend("mask").clean(
            [1.0, np.nan, 2.0]).tolist() == [1.0, 2.0]
        with pytest.raises(InvalidSampleError):
            default_backend().clean([1.0, np.nan])
