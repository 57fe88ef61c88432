"""Property tests: vectorized fastdist kernels are exact vs. the scalar
reference (Eq. 2-4), including the degenerate cases the scalar path has
to special-case (single values, all-identical samples, heavy ties,
negative values, unequal lengths, both one-sided orientations)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fastdist
from repro.core.backend import pairwise_similarity_matrix
from repro.core.distance import (
    one_sided_similarity,
    pairwise_similarity_matrix_reference,
    similarity,
)
from repro.core.fastdist import (
    SortedSampleBatch,
    one_vs_many_similarities,
)

TOL = 1e-9

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def sample_strategy(min_size=1, max_size=40):
    """One sample; shrunk value pool so duplicates are common."""
    pool = st.one_of(
        finite,
        st.integers(min_value=-5, max_value=5).map(float),  # tie-heavy
    )
    return st.lists(pool, min_size=min_size, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=float)
    )


uniform_fleet = st.integers(min_value=1, max_value=30).flatmap(
    lambda m: st.lists(sample_strategy(min_size=m, max_size=m),
                       min_size=2, max_size=7)
)

ragged_fleet = st.lists(sample_strategy(), min_size=2, max_size=7)

# One-vs-many inputs: ragged rows or width-1 rows, against references of
# every size from one point to a pooled 4096-point criteria.  The large
# ones draw from a small value pool that includes the tie-heavy integers
# above, so rows and reference share breakpoints.
one_vs_many_rows = st.one_of(
    ragged_fleet,
    st.lists(sample_strategy(min_size=1, max_size=1), min_size=2, max_size=7),
)


def _pooled_reference(seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.uniform(-1e6, 1e6, 64), np.arange(-5.0, 6.0)])
    return rng.choice(pool, size=4096)


references = st.one_of(
    sample_strategy(),
    finite.map(lambda v: np.array([v])),
    st.integers(min_value=0, max_value=2**32 - 1).map(_pooled_reference),
)

# The one-vs-many kernel integrates by differences of cumulative
# integrals; it must still match the scalar reference this closely.
KERNEL_TOL = 1e-12


def _assert_pairwise_exact(samples):
    want = pairwise_similarity_matrix_reference(samples)
    got = pairwise_similarity_matrix(samples)
    assert np.max(np.abs(got - want)) < TOL


@given(uniform_fleet)
@settings(max_examples=60, deadline=None)
def test_uniform_pairwise_matches_scalar(samples):
    _assert_pairwise_exact(samples)


@given(uniform_fleet)
@example([np.full(12, 7.5)] * 4)
@settings(max_examples=40, deadline=None)
def test_numpy_abel_path_matches_scalar(samples):
    # Force the NumPy Abel-summation path even when the C kernel exists.
    batch = SortedSampleBatch.from_samples(samples)
    integrals = fastdist._pairwise_integrals_uniform(batch.data)
    got = 1.0 - fastdist._normalize(
        integrals,
        batch.mins[:, None], batch.maxs[:, None],
        batch.mins[None, :], batch.maxs[None, :],
    )
    np.fill_diagonal(got, 1.0)
    want = pairwise_similarity_matrix_reference(samples)
    assert np.max(np.abs(got - want)) < TOL


@given(ragged_fleet)
@settings(max_examples=60, deadline=None)
def test_ragged_pairwise_matches_scalar(samples):
    _assert_pairwise_exact(samples)


@given(st.lists(st.builds(np.full,
                          st.integers(min_value=1, max_value=20),
                          finite),
                min_size=2, max_size=6))
@example([np.full(12, 7.5)] * 4)  # uniform width: the compiled kernel
@settings(max_examples=40, deadline=None)
def test_all_identical_samples(samples):
    _assert_pairwise_exact(samples)


@given(st.lists(finite.map(lambda v: np.array([v])),
                min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_single_value_samples(samples):
    _assert_pairwise_exact(samples)


@given(one_vs_many_rows, references, st.sampled_from([True, False]))
@settings(max_examples=60, deadline=None)
def test_one_vs_many_matches_one_sided_scalar(samples, reference, higher):
    batch = SortedSampleBatch.from_samples(samples)
    direction = 1 if higher else -1
    got = one_vs_many_similarities(
        batch, np.sort(reference), signed_direction=direction,
        assume_sorted=True,
    )
    want = np.array([
        one_sided_similarity(s, reference, higher_is_better=higher)
        for s in samples
    ])
    assert np.max(np.abs(got - want)) <= KERNEL_TOL


@given(one_vs_many_rows, references)
@settings(max_examples=60, deadline=None)
def test_one_vs_many_two_sided_matches_scalar(samples, reference):
    batch = SortedSampleBatch.from_samples(samples)
    got = one_vs_many_similarities(batch, np.sort(reference),
                                   assume_sorted=True)
    want = np.array([similarity(s, reference) for s in samples])
    assert np.max(np.abs(got - want)) <= KERNEL_TOL


@given(uniform_fleet)
@settings(max_examples=40, deadline=None)
def test_pairwise_symmetry_and_bounds(samples):
    got = pairwise_similarity_matrix(samples)
    assert np.allclose(got, got.T)
    assert np.all(got >= -TOL)
    assert np.all(got <= 1.0 + TOL)
    assert np.allclose(np.diag(got), 1.0)
