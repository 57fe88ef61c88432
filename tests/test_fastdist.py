"""Unit tests for the batched distance layer, caching and the pool width."""

import numpy as np
import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.core import fastdist
from repro.core.distance import (
    cdf_distance,
    one_sided_similarity,
    pairwise_similarity_matrix_reference,
    similarity,
)
from repro.core.fastdist import (
    SortedSampleBatch,
    batch_gap_integrals,
    one_vs_many_similarities,
    pairwise_similarities,
    pairwise_similarity_matrix,
)
from repro.core.validator import Validator
from repro.exceptions import InvalidSampleError
from repro.service.pool import PoolConfig
from tests.test_validator import make_fleet, tiny_suite


class TestSortedSampleBatch:
    def test_rows_are_sorted_and_padded(self):
        batch = SortedSampleBatch.from_samples(
            [np.array([3.0, 1.0, 2.0]), np.array([5.0])]
        )
        assert batch.n == 2
        assert batch.width == 3
        assert np.array_equal(batch.row(0), [1.0, 2.0, 3.0])
        assert np.array_equal(batch.row(1), [5.0])
        assert list(batch.sizes) == [3, 1]
        assert batch.mins[1] == batch.maxs[1] == 5.0
        # Presorted rows build the same batch without re-validation.
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        for presorted in (SortedSampleBatch.from_sorted(list(rows)),
                          SortedSampleBatch.from_rows(rows)):
            assert np.array_equal(presorted.data, rows)
            assert list(presorted.sizes) == [3, 3]
            assert list(presorted.maxs) == [3.0, 6.0]

    def test_take_preserves_rows(self):
        batch = SortedSampleBatch.from_samples(
            [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        )
        sub = batch.take(np.array([2, 0]))
        assert sub.n == 2
        assert np.array_equal(sub.row(0), [5.0, 6.0])
        assert np.array_equal(sub.row(1), [1.0, 2.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidSampleError):
            SortedSampleBatch.from_samples([np.array([])])
        with pytest.raises(InvalidSampleError):
            SortedSampleBatch.from_samples([np.array([1.0, np.nan])])


class TestDispatchPaths:
    """The three pairwise paths (C, NumPy, ragged) agree with the scalar."""

    def _fleet(self, seed=0, n=8, m=25):
        rng = np.random.default_rng(seed)
        return [rng.normal(100, 3, size=m) for _ in range(n)]

    def test_uniform_matches_reference(self):
        samples = self._fleet()
        got = pairwise_similarity_matrix(samples)
        want = pairwise_similarity_matrix_reference(samples)
        assert np.max(np.abs(got - want)) < 1e-9
        # A prepared batch scores exactly like the raw samples.
        batch = SortedSampleBatch.from_samples(samples)
        assert np.array_equal(pairwise_similarity_matrix(batch), got)

    def test_numpy_path_matches_reference(self, monkeypatch):
        monkeypatch.setattr(
            fastdist, "_pairwise_integrals_uniform_c", lambda data: None
        )
        samples = self._fleet(seed=1)
        got = pairwise_similarity_matrix(samples)
        want = pairwise_similarity_matrix_reference(samples)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_ragged_path_matches_reference(self):
        rng = np.random.default_rng(2)
        samples = [rng.normal(10, 1, size=k) for k in (5, 17, 1, 9, 30)]
        got = pairwise_similarity_matrix(samples)
        want = pairwise_similarity_matrix_reference(samples)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_one_vs_many_directions(self):
        rng = np.random.default_rng(4)
        uniform = self._fleet(seed=4)
        ragged = [rng.normal(100, 3, size=k) for k in (1, 7, 25, 2, 60)]
        width_one = [rng.normal(100, 3, size=1) for _ in range(6)]
        # Tie-heavy: small integers, so rows and references share values.
        ties = [rng.integers(95, 106, size=k).astype(float)
                for k in (12, 12, 3, 40)]
        references = [
            np.sort(uniform[0]),
            np.array([100.0]),                               # n = 1
            np.sort(rng.normal(100, 3, size=4096)),          # n = 4096
            np.sort(rng.integers(95, 106, size=4096).astype(float)),
            np.repeat([97.0, 100.0, 103.0], [5, 30, 5]),     # duplicates
        ]
        for samples in (uniform, ragged, width_one, ties):
            batch = SortedSampleBatch.from_samples(samples)
            for ref in references:
                for direction in (0, 1, -1):
                    got = one_vs_many_similarities(
                        batch, ref, signed_direction=direction,
                        assume_sorted=True)
                    if direction:
                        want = [one_sided_similarity(
                            s, ref, higher_is_better=direction > 0)
                            for s in samples]
                    else:
                        want = [similarity(s, ref) for s in samples]
                    assert np.max(np.abs(got - np.array(want))) <= 1e-12
            # Several references in one call equal one call per reference.
            stacked = SortedSampleBatch.from_sorted(references)
            for direction in (0, 1, -1):
                profile = fastdist.reference_similarities(
                    batch, stacked, signed_direction=direction)
                loop = np.column_stack([
                    one_vs_many_similarities(batch, ref,
                                             signed_direction=direction,
                                             assume_sorted=True)
                    for ref in references])
                assert np.max(np.abs(profile - loop)) <= 1e-12

    def test_batch_rowwise_matches_scalar(self):
        rng = np.random.default_rng(6)
        fleets = (
            self._fleet(seed=6, n=6),
            [rng.normal(20, 2, size=k) for k in (1, 39, 7, 7, 22)],  # ragged
            [np.round(rng.normal(50, 1, size=30)) for _ in range(5)],  # ties
            [np.full(12, 7.5) for _ in range(4)],                   # identical
            [np.array([v]) for v in rng.normal(5, 1, 4)],           # width 1
        )
        for samples in fleets:
            batch = SortedSampleBatch.from_samples(samples)
            left = batch.take(np.arange(batch.n - 1))
            right = batch.take(np.arange(1, batch.n))
            got = 1.0 - batch_gap_integrals(left, right)
            want = [similarity(samples[i], samples[i + 1])
                    for i in range(batch.n - 1)]
            assert np.max(np.abs(got - np.array(want))) < 1e-9
            if len({len(s) for s in samples}) == 1:
                # Uniform presorted rows, the scoring and cycle-search
                # shape, give the same numbers without a re-sort.
                rows = np.sort(np.stack(samples), axis=1)
                from_rows = 1.0 - batch_gap_integrals(
                    SortedSampleBatch.from_rows(rows[:-1]),
                    SortedSampleBatch.from_rows(rows[1:]))
                assert np.array_equal(from_rows, got)

    def test_subnormal_samples_agree_with_scalar(self):
        d = 5e-324
        samples = [np.array([-d]), np.array([0.0, -d]), np.array([3 * d]),
                   np.array([0.0, 1e-310, 2.0])]
        want = pairwise_similarity_matrix_reference(samples)
        # Wholly-subnormal samples score as zeros; a sample with a
        # normal value keeps its subnormal entries.
        assert want[0, 1] == want[1, 2] == 1.0
        assert want[0, 3] < 1.0
        got = pairwise_similarity_matrix(samples)
        assert np.max(np.abs(got - want)) < 1e-9
        uniform = [np.array([-d, 0.0]), np.array([0.0, 2 * d])]
        np.testing.assert_array_equal(pairwise_similarity_matrix(uniform),
                                      np.ones((2, 2)))
        for assume_sorted in (False, True):
            sims = one_vs_many_similarities(
                SortedSampleBatch.from_samples(samples), np.array([0.0, d]),
                assume_sorted=assume_sorted)
            loop = [similarity(s, [0.0, d]) for s in samples]
            assert np.max(np.abs(sims - np.array(loop))) < 1e-9
        rows = np.array([[-d, 0.0], [0.0, 1.0]])
        batch = SortedSampleBatch.from_rows(rows)
        np.testing.assert_array_equal(batch.data, [[0.0, 0.0], [0.0, 1.0]])
        assert rows[0, 0] == -d  # the caller's rows are not written
        np.testing.assert_array_equal(
            batch_gap_integrals(batch, SortedSampleBatch.from_rows(rows[::-1])),
            [cdf_distance(rows[0], rows[1])] * 2)

    def test_pairwise_similarities_diag_is_zero_distance(self):
        rng = np.random.default_rng(7)
        ragged = [rng.normal(10, 1, size=k) for k in (3, 17, 8, 1)]
        for samples in (self._fleet(seed=7, n=4), ragged):
            sims = pairwise_similarities(SortedSampleBatch.from_samples(samples))
            assert np.all(np.diag(sims) == 1.0)
            assert np.allclose(sims, sims.T)


class TestCriteriaCache:
    def test_cache_populated_and_reused(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=1))
        fleet = make_fleet()
        validator.learn_criteria(fleet)
        validator.validate(fleet)
        key = ("unknown", "tiny-loopback", "bw")
        assert key in validator._criteria_cache
        cached_criteria, cached_sample = validator._criteria_cache[key]
        assert cached_criteria is validator.criteria[key]
        again = validator._criteria_reference(key, validator.criteria[key])
        assert again is cached_sample

    def test_relearn_invalidates_cache(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=1))
        fleet = make_fleet()
        validator.learn_criteria(fleet)
        validator.validate(fleet)
        key = ("unknown", "tiny-loopback", "bw")
        stale_criteria, stale_sample = validator._criteria_cache[key]
        validator.learn_criteria(fleet)
        assert key not in validator._criteria_cache
        validator.validate(fleet)
        fresh_criteria, fresh_sample = validator._criteria_cache[key]
        assert fresh_criteria is validator.criteria[key]
        assert fresh_criteria is not stale_criteria
        assert fresh_sample is not stale_sample

    def test_check_results_matches_sequential_check_result(self):
        validator = Validator(tiny_suite(), runner=SuiteRunner(seed=3))
        fleet = make_fleet(n_healthy=10, defects=("ib_hca_degraded",))
        validator.learn_criteria(fleet)
        spec = validator.spec("tiny-loopback")
        results = [validator.runner.run(spec, node) for node in fleet]
        batched = validator.check_results(spec, results)
        sequential = [
            v for result in results
            for v in validator.check_result(spec, result)
        ]
        assert len(batched) == len(sequential)
        for got, want in zip(batched, sequential):
            assert got.node_id == want.node_id
            assert got.metric == want.metric
            assert got.similarity == pytest.approx(want.similarity)
            assert got.reason == want.reason


class TestWorkers:
    def test_pool_config_ignores_env(self, monkeypatch):
        # The pool's width is set by its callers, never by the
        # environment.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert PoolConfig().max_workers == 8
        assert PoolConfig(max_workers=3).max_workers == 3


class TestProfileFlag:
    def test_profile_dumps_stats(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.pstats"
        code = main([
            "--profile", "--profile-out", str(out),
            "traces", "--nodes", "4", "--hours", "24",
            "--incidents-out", str(tmp_path / "inc.jsonl"),
            "--allocations-out", str(tmp_path / "alloc.jsonl"),
        ])
        assert code == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "cumulative" in err
