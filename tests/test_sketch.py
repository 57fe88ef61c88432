"""Quantile sketches: equi-depth selection, merge, distance bound.

The load-bearing guarantee is the property test in
``TestDistanceBound``: for any pair of windows, the Eq. 2 distance
between their k-point sketches deviates from the exact scalar-oracle
distance by less than :func:`repro.core.sketch.distance_bound` -- the
incremental criteria engine's borderline-verification band is sized
from exactly this bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import similarity
from repro.core.sketch import (
    DEFAULT_SKETCH_SIZE,
    distance_bound,
    merge_sketches,
    sketch_rows,
    sketch_sorted,
)


class TestSketchSorted:
    def test_identity_when_window_fits(self):
        values = np.sort(np.random.default_rng(0).normal(size=50))
        out = sketch_sorted(values, k=64)
        np.testing.assert_array_equal(out, values)
        assert out is not values  # always a private copy

    def test_compresses_to_k_points(self):
        values = np.sort(np.random.default_rng(1).normal(size=1000))
        out = sketch_sorted(values, k=32)
        assert out.size == 32

    def test_extremes_pinned(self):
        values = np.sort(np.random.default_rng(2).lognormal(size=500))
        out = sketch_sorted(values, k=16)
        assert out[0] == values[0]
        assert out[-1] == values[-1]

    def test_output_sorted(self):
        values = np.sort(np.random.default_rng(3).normal(size=777))
        out = sketch_sorted(values, k=33)
        assert (np.diff(out) >= 0).all()

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            sketch_sorted(np.array([]), k=8)

    def test_tiny_k_rejected(self):
        with pytest.raises(ValueError):
            sketch_sorted(np.arange(10.0), k=1)
        with pytest.raises(ValueError):
            distance_bound(1)


class TestSketchRows:
    def test_matches_per_row_sketch(self):
        rng = np.random.default_rng(4)
        data = np.sort(rng.normal(size=(7, 300)), axis=1)
        rows = sketch_rows(data, k=24)
        assert rows.shape == (7, 24)
        for i in range(7):
            np.testing.assert_array_equal(rows[i],
                                          sketch_sorted(data[i], k=24))

    def test_identity_when_rows_fit(self):
        data = np.sort(np.random.default_rng(5).normal(size=(3, 10)), axis=1)
        np.testing.assert_array_equal(sketch_rows(data, k=16), data)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            sketch_rows(np.arange(10.0), k=4)


class TestMergeSketches:
    def test_uniform_merge_equals_pooled_sketch(self):
        rng = np.random.default_rng(6)
        windows = [np.sort(rng.normal(size=200)) for _ in range(5)]
        sketches = [sketch_sorted(w, k=32) for w in windows]
        merged = merge_sketches(sketches, [200] * 5, k=64)
        assert merged.size == 64
        assert merged[0] == min(s[0] for s in sketches)
        assert merged[-1] == max(s[-1] for s in sketches)
        assert (np.diff(merged) >= 0).all()

    def test_weighted_merge_respects_counts(self):
        # One sketch summarizing 10x the observations dominates the
        # pooled quantiles.
        heavy = np.linspace(0.0, 1.0, 16)
        light = np.linspace(100.0, 101.0, 16)
        merged = merge_sketches([heavy, light], [1600, 16], k=16)
        # Nearly all interior quantiles come from the heavy sketch.
        assert np.count_nonzero(merged < 50.0) >= 14

    def test_small_union_returned_exactly(self):
        a, b = np.array([1.0, 3.0]), np.array([2.0, 400.0])
        merged = merge_sketches([a, b], [10, 2], k=16)
        np.testing.assert_array_equal(merged, [1.0, 2.0, 3.0, 400.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            merge_sketches([], [], k=8)
        with pytest.raises(ValueError):
            merge_sketches([np.arange(4.0)], [4, 4], k=8)
        with pytest.raises(ValueError):
            merge_sketches([np.arange(4.0)], [2], k=8)  # count < points
        with pytest.raises(ValueError):
            merge_sketches([np.array([])], [0], k=8)


# ----------------------------------------------------------------------
# The distance bound (property-tested vs. the scalar oracle)
# ----------------------------------------------------------------------

window_strategy = st.one_of(
    # Smooth unimodal
    st.tuples(st.integers(0, 2**31 - 1),
              st.integers(min_value=150, max_value=600)).map(
        lambda t: np.random.default_rng(t[0]).normal(100.0, 5.0, t[1])),
    # Heavy-tailed
    st.tuples(st.integers(0, 2**31 - 1),
              st.integers(min_value=150, max_value=600)).map(
        lambda t: np.random.default_rng(t[0]).lognormal(3.0, 1.0, t[1])),
    # Bimodal (the healthy/defective mixture shape)
    st.tuples(st.integers(0, 2**31 - 1),
              st.integers(min_value=150, max_value=600)).map(
        lambda t: np.concatenate([
            np.random.default_rng(t[0]).normal(80.0, 2.0, t[1] // 2),
            np.random.default_rng(t[0] + 1).normal(120.0, 2.0,
                                                   t[1] - t[1] // 2)])),
    # Tie-heavy discrete
    st.tuples(st.integers(0, 2**31 - 1),
              st.integers(min_value=150, max_value=600)).map(
        lambda t: np.random.default_rng(t[0]).integers(
            0, 8, t[1]).astype(float)),
)


class TestDistanceBound:
    @given(a=window_strategy, b=window_strategy,
           k=st.sampled_from([32, 64, 128]))
    @settings(max_examples=60, deadline=None)
    def test_sketch_distance_within_bound_of_exact(self, a, b, k):
        """|sim(sketch_a, sketch_b) - sim(a, b)| < distance_bound(k).

        ``similarity`` is the scalar Eq. 2-3 oracle, so this pins the
        engine's verification band to reality across distribution
        shapes, sizes and sketch resolutions.
        """
        exact = similarity(a, b)
        approx = similarity(sketch_sorted(np.sort(a), k),
                            sketch_sorted(np.sort(b), k))
        assert abs(approx - exact) < distance_bound(k)

    def test_bound_tightens_with_k(self):
        assert distance_bound(256) < distance_bound(64) < distance_bound(16)

    def test_exact_when_windows_fit(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=40), rng.normal(size=50)
        k = DEFAULT_SKETCH_SIZE
        exact = similarity(a, b)
        approx = similarity(sketch_sorted(np.sort(a), k),
                            sketch_sorted(np.sort(b), k))
        assert approx == pytest.approx(exact, abs=1e-12)
