"""Batched, vectorized ECDF distance kernels (the ``fastdist`` layer).

:mod:`repro.core.distance` defines the paper's Eq. (2)--(4) metrics as
scalar functions over one pair of samples.  They are the *reference
semantics* -- short, auditable, and obviously faithful to the paper --
but every hot path in the system (Algorithm 2 criteria learning, the
online one-sided filter, the Fig. 9 / Table 5 / Table 6 regenerators)
needs the same integral over thousands of pairs, and a Python-level
pair loop re-sorting both samples per call dominates wall-clock long
before the fleet reaches production size.

This module computes the identical integrals batch-wise:

* :class:`SortedSampleBatch` validates and sorts every sample **once**
  and keeps the per-sample sizes/extrema needed for normalization, so
  no kernel ever re-sorts an input.
* :func:`batch_gap_integrals` is the core many-pairs kernel: for B
  pairs of presorted rows it builds each pair's merged breakpoint grid
  with one stable (run-merging) sort, reads both ECDFs off cumulative
  origin counts -- the counts are exactly what ``searchsorted(...,
  side="right")`` returns at each breakpoint -- and integrates the
  piecewise-constant gap with one einsum.
* :func:`pairwise_distances` / :func:`pairwise_similarities` produce
  the full symmetric Eq. (3) matrix.  Uniform-length batches (fixed
  measurement windows -- the criteria-learning shape) take a dedicated
  fast path: the integrand only depends on the pair's cumulative
  counts ``(ca, cb)``, so it is precomputed into a cache-resident
  ``(m+1) x (m+1)`` table, and Abel summation turns the gap integral
  into one gather-dot per sample pair (each observation contributes
  ``x * (F(before) - F(after))``), driven by a single global stable
  argsort instead of any per-pair sorting.  When a C compiler is on
  the host, :mod:`repro.core._cmerge` replaces even that with a
  register-resident two-pointer merge per pair; ragged batches fall
  back to the general row-block kernel.
* :func:`one_vs_many_distances` scores every sample of a batch against
  one presorted reference ECDF in a single call -- the online-filter
  shape, where the reference is a learned criteria.

Exactness
---------
The kernels are not approximations.  The merged multiset grid is a
superset of the deduplicated ``union1d`` grid the scalar path uses:
duplicate breakpoints contribute zero-width segments, segments outside
a pair's support have zero integrand, and the per-pair CDF values and
segment widths are bit-identical to the scalar path's.  Only the final
summation order differs, so results agree with the scalar reference to
floating-point accumulation error (enforced at <= 1e-9 by the property
suite and the perf-smoke CI job; observed deviation is ~1e-15).

Padding convention: rows are right-padded with ``+inf`` so real
observations always sort before padding; a segment is integrable iff
its right endpoint is finite.
"""

from __future__ import annotations

import numpy as np

from repro.core import _cmerge
from repro.core.ecdf import as_sample
from repro.exceptions import InvalidSampleError

__all__ = [
    "SortedSampleBatch",
    "batch_gap_integrals",
    "landmark_similarities",
    "one_vs_many_distances",
    "one_vs_many_similarities",
    "pairwise_distances",
    "pairwise_similarities",
]

_PAD = np.inf

# Ceiling on elements per kernel intermediate (~32 MB of float64) used to
# chunk one-vs-many scoring against very large pooled references.
_CHUNK_ELEMENTS = 4_000_000


class SortedSampleBatch:
    """N samples validated, sorted once, and padded into one matrix.

    Attributes
    ----------
    data:
        ``(n, width)`` float matrix; row *i* holds sample *i* sorted
        ascending, right-padded with ``+inf`` to the longest length.
    sizes:
        ``(n,)`` int array of true sample lengths.
    mins / maxs:
        ``(n,)`` arrays of per-sample extrema (needed for the Eq. (2)
        normalization span without touching the padded rows again).
    """

    __slots__ = ("data", "sizes", "mins", "maxs")

    def __init__(self, data: np.ndarray, sizes: np.ndarray):
        self.data = data
        self.sizes = sizes
        n = data.shape[0]
        if n:
            self.mins = data[:, 0].copy()
            self.maxs = data[np.arange(n), sizes - 1]
        else:
            self.mins = np.empty(0)
            self.maxs = np.empty(0)

    @classmethod
    def from_samples(cls, samples, *,
                     nonfinite: str = "reject") -> "SortedSampleBatch":
        """Validate (via :func:`~repro.core.ecdf.as_sample`), sort and pad.

        ``nonfinite`` is the per-row NaN/Inf policy: ``"reject"``
        (default) raises on any non-finite entry, ``"mask"`` drops the
        non-finite entries of each row and keeps the rest (raising only
        when a row has nothing finite left).  Masking happens *before*
        padding, so the ``+inf`` padding convention is never confused
        with observed infinities and every kernel scores the masked
        rows exactly as the scalar reference scores the cleaned
        samples.
        """
        arrays = [np.sort(as_sample(s, nonfinite=nonfinite)) for s in samples]
        return cls.from_sorted(arrays)

    @classmethod
    def from_sorted(cls, sorted_arrays) -> "SortedSampleBatch":
        """Build from already-sorted, already-validated 1-D arrays."""
        n = len(sorted_arrays)
        sizes = np.fromiter((a.size for a in sorted_arrays), dtype=np.intp,
                            count=n)
        if n == 0:
            return cls(np.empty((0, 0)), sizes)
        width = int(sizes.max())
        data = np.full((n, width), _PAD)
        for i, arr in enumerate(sorted_arrays):
            data[i, :arr.size] = arr
        return cls(data, sizes)

    @property
    def n(self) -> int:
        """Number of samples in the batch."""
        return self.data.shape[0]

    @property
    def width(self) -> int:
        """Padded row width (longest sample length)."""
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Sample ``i`` sorted, without padding."""
        return self.data[i, :self.sizes[i]]

    def take(self, indices) -> "SortedSampleBatch":
        """Sub-batch of the given rows (no re-sort, no re-validation)."""
        indices = np.asarray(indices, dtype=np.intp)
        return SortedSampleBatch(self.data[indices], self.sizes[indices])


def _normalize(integrals, a_mins, a_maxs, b_mins, b_maxs) -> np.ndarray:
    """Eq. (2) normalization: divide by the span of ``[min(0, lo), hi]``."""
    lo = np.minimum(0.0, np.minimum(a_mins, b_mins))
    hi = np.maximum(a_maxs, b_maxs)
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(span > 0.0, np.minimum(1.0, integrals / span), 0.0)
    return np.asarray(out, dtype=float)


def _signed_gap(scaled_a, scaled_b, signed_direction: int) -> np.ndarray:
    """Numerator of the gap integrand (symmetric or one-sided)."""
    if signed_direction == 0:
        return np.abs(scaled_a - scaled_b)
    if signed_direction > 0:
        return np.maximum(0.0, scaled_a - scaled_b)
    return np.maximum(0.0, scaled_b - scaled_a)


def _gap_integrals_vs_fixed(fixed: np.ndarray, data: np.ndarray,
                            sizes: np.ndarray, signed_direction: int,
                            fixed_is_a: bool) -> np.ndarray:
    """Unnormalized gap integrals of B padded rows against one sample.

    ``fixed`` is a sorted, unpadded 1-D sample shared by every pair;
    ``data`` holds B sorted rows right-padded with ``+inf``.  The pair
    grids are built without sorting: one ``searchsorted`` locates every
    row element inside ``fixed``, which fixes each element's slot in
    its pair's merged grid; the rest is scatters and a running count.

    The integrand is evaluated on cross-scaled counts,
    ``|count_row * n_fixed - count_fixed * n_row|`` over
    ``max(count_row * n_fixed, count_fixed * n_row)``: counts and sizes
    are small integers, so the scaled products are *exact* in float64
    and the integrand rounds exactly once -- at least as accurate as
    the reference's ``count/size`` CDF evaluations.

    ``fixed_is_a`` assigns the Eq. (4) roles: ``True`` makes ``fixed``
    the observed (``a``) side for one-sided directions.
    """
    n_rows, width = data.shape
    n_fixed = fixed.size
    merged_width = width + n_fixed

    # Merged-grid slot of data[r, t]: t row elements precede it, plus
    # every fixed element sorting before it.  Ties break fixed-first,
    # which only reorders inside zero-width segments.
    slots = np.searchsorted(fixed, data.ravel(), side="right")
    slots = slots.reshape(n_rows, width)
    slots += np.arange(width)

    row_index = np.arange(n_rows)[:, None]
    from_rows = np.zeros((n_rows, merged_width), dtype=bool)
    from_rows[row_index, slots] = True
    merged = np.empty((n_rows, merged_width))
    merged[row_index, slots] = data
    # Boolean assignment fills row-major, i.e. each row's free slots
    # ascending -- exactly where the (sorted) fixed sample belongs.
    merged[~from_rows] = np.broadcast_to(fixed, (n_rows, n_fixed)).reshape(-1)

    # count_rows[k] = data-observations <= merged[k]  (row padding is
    # +inf, so it only ever occupies trailing slots); the fixed-side
    # count is the complement of the slot index.
    count_rows = np.cumsum(from_rows, axis=1, dtype=np.float64)[:, :-1]
    positions = np.arange(1.0, merged_width)
    # Cross-scale instead of dividing: exact small-integer arithmetic.
    scaled_rows = count_rows * float(n_fixed)
    scaled_fixed = (positions - count_rows) * sizes[:, None].astype(float)
    if fixed_is_a:
        numer = _signed_gap(scaled_fixed, scaled_rows, signed_direction)
    else:
        numer = _signed_gap(scaled_rows, scaled_fixed, signed_direction)
    # max(count_a, count_b) >= 1 everywhere on the grid (the first
    # breakpoint already belongs to one sample), so the division needs
    # no guard.
    denom = np.maximum(scaled_rows, scaled_fixed)
    integrand = numer / denom

    if width > int(sizes.min()):
        # At least one padded row: zero out segments ending in padding.
        with np.errstate(invalid="ignore"):
            widths = np.where(np.isfinite(merged[:, 1:]),
                              np.diff(merged, axis=1), 0.0)
    else:
        widths = np.diff(merged, axis=1)
    return np.einsum("ij,ij->i", integrand, widths)


def _gap_integrals_padded(a_data, a_sizes, a_mins, a_maxs,
                          b_data, b_sizes, b_mins, b_maxs,
                          signed_direction: int) -> np.ndarray:
    """Row-wise Eq. (2)/(4) integrals over B independent (a, b) pairs.

    The general kernel for pairs where *both* sides vary per row (no
    shared haystack): a stable sort merges each pair's presorted runs.
    All inputs are padded/sorted per the batch convention.  Returns a
    ``(B,)`` array of normalized distances.
    """
    width_a = a_data.shape[1]
    merged_width = width_a + b_data.shape[1]
    concat = np.concatenate([a_data, b_data], axis=1)
    # A stable sort merges the two presorted runs (timsort detects
    # them), yielding each pair's full multiset breakpoint grid.
    order = np.argsort(concat, axis=1, kind="stable")
    merged = concat[np.arange(concat.shape[0])[:, None], order]

    # F_a at breakpoint k is the count of a-observations <= merged[k],
    # i.e. the running count of a-origin elements -- identical to
    # searchsorted(a, merged[k], side="right") at every breakpoint
    # that precedes a nonzero-width segment (ties only ever precede
    # zero-width segments, which the integral ignores).
    from_a = order < width_a
    count_a = np.cumsum(from_a, axis=1, dtype=np.float64)[:, :-1]
    count_b = np.arange(1.0, merged_width) - count_a

    scaled_a = count_a * b_sizes[:, None].astype(float)
    scaled_b = count_b * a_sizes[:, None].astype(float)
    numer = _signed_gap(scaled_a, scaled_b, signed_direction)
    denom = np.maximum(scaled_a, scaled_b)
    integrand = numer / denom

    # Segment k spans [merged[k], merged[k+1]); it contributes iff its
    # right endpoint is a real observation (padding is +inf, so real
    # points never follow padded ones).
    with np.errstate(invalid="ignore"):
        widths = np.where(np.isfinite(merged[:, 1:]),
                          np.diff(merged, axis=1), 0.0)
    integrals = np.einsum("ij,ij->i", integrand, widths)
    return _normalize(integrals, a_mins, a_maxs, b_mins, b_maxs)


def batch_gap_integrals(batch_a: SortedSampleBatch, batch_b: SortedSampleBatch,
                        *, signed_direction: int = 0) -> np.ndarray:
    """Row-wise distances between two equal-length batches.

    Row ``i`` of the result is the Eq. (2) (``signed_direction=0``) or
    Eq. (4) (``+1``/``-1``) distance between ``batch_a``'s and
    ``batch_b``'s ``i``-th samples -- the vectorized form of a
    ``[dist(a, b) for a, b in zip(A, B)]`` loop.
    """
    if batch_a.n != batch_b.n:
        raise InvalidSampleError(
            f"row-wise batches must match in length: {batch_a.n} != {batch_b.n}"
        )
    if batch_a.n == 0:
        return np.empty(0)
    return _gap_integrals_padded(
        batch_a.data, batch_a.sizes, batch_a.mins, batch_a.maxs,
        batch_b.data, batch_b.sizes, batch_b.mins, batch_b.maxs,
        signed_direction,
    )


def _as_reference(reference, assume_sorted: bool,
                  nonfinite: str = "reject") -> np.ndarray:
    ref = as_sample(reference, nonfinite=nonfinite)
    return ref if assume_sorted else np.sort(ref)


def one_vs_many_distances(batch: SortedSampleBatch, reference, *,
                          signed_direction: int = 0,
                          assume_sorted: bool = False,
                          nonfinite: str = "reject") -> np.ndarray:
    """Distance of every batch sample to one fixed reference sample.

    This is the online-filter kernel: ``batch`` holds the fleet's
    observed windows (the ``a`` side of Eq. (4)) and ``reference`` the
    learned criteria ECDF.  With ``assume_sorted=True`` the reference
    (e.g. a cached criteria, already sorted) is used as-is.
    ``nonfinite="mask"`` drops NaN/Inf entries of the reference instead
    of rejecting it (``assume_sorted`` implies the reference is already
    clean, so masking only applies to the unsorted path).
    """
    ref = _as_reference(reference, assume_sorted, nonfinite)
    if batch.n == 0:
        return np.empty(0)
    # Chunk rows so the (rows, width + ref.size) kernel intermediates
    # stay cache-friendly and bounded even against a huge pooled
    # reference (e.g. a criteria pooled from a whole fleet).
    merged_width = batch.width + ref.size
    block = max(1, _CHUNK_ELEMENTS // max(merged_width, 1))
    if batch.n <= block:
        integrals = _gap_integrals_vs_fixed(
            ref, batch.data, batch.sizes, signed_direction, fixed_is_a=False,
        )
    else:
        integrals = np.concatenate([
            _gap_integrals_vs_fixed(
                ref, batch.data[start:start + block],
                batch.sizes[start:start + block],
                signed_direction, fixed_is_a=False,
            )
            for start in range(0, batch.n, block)
        ])
    return _normalize(integrals, batch.mins, batch.maxs, ref[0], ref[-1])


def one_vs_many_similarities(batch: SortedSampleBatch, reference, *,
                             signed_direction: int = 0,
                             assume_sorted: bool = False,
                             nonfinite: str = "reject") -> np.ndarray:
    """``1 - one_vs_many_distances`` (Eq. (3) / Eq. (4) similarities)."""
    return 1.0 - one_vs_many_distances(
        batch, reference, signed_direction=signed_direction,
        assume_sorted=assume_sorted, nonfinite=nonfinite,
    )


def landmark_similarities(batch: SortedSampleBatch,
                          landmark_batch: SortedSampleBatch) -> np.ndarray:
    """Eq. (3) similarity of every batch row to each landmark row.

    The cross-set kernel of the incremental criteria engine: instead of
    the full ``O(n^2)`` pairwise matrix, score all ``n`` rows against
    ``L << n`` landmark rows (one chunked one-vs-many pass per
    landmark), giving the ``(n, L)`` similarity profile that seeds the
    approximate medoid.  A row that *is* a landmark scores exactly 1.0
    against itself (zero gap integral), so no diagonal fix-up is
    needed.
    """
    out = np.empty((batch.n, landmark_batch.n))
    for j in range(landmark_batch.n):
        out[:, j] = one_vs_many_similarities(
            batch, landmark_batch.row(j), assume_sorted=True)
    return out


def _integrand_table(m: int) -> np.ndarray:
    """Eq. (2) integrand for every cumulative-count state of an m-vs-m pair.

    ``table[ca, cb] = |ca - cb| / max(ca, cb)`` (the sizes cancel for
    equal-length samples).  Each entry rounds exactly once, so the
    table is at least as accurate as the reference's two CDF divisions
    plus subtraction.  ``table[0, 0]`` is 0 -- the state before any
    observation never spans a nonzero-width segment.
    """
    grade = np.arange(m + 1, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        table = (np.abs(grade[:, None] - grade[None, :])
                 / np.maximum(np.maximum(grade[:, None], grade[None, :]), 1.0))
    return np.ascontiguousarray(table)


def _pairwise_integrals_uniform_c(data: np.ndarray) -> np.ndarray | None:
    """Unnormalized pairwise integrals via the compiled merge kernel."""
    lib = _cmerge.load()
    if lib is None:
        return None
    n, m = data.shape
    padded = np.full((n, m + 1), _PAD)
    padded[:, :m] = data
    out = np.zeros((n, n))
    lib.pairwise_gap_integrals(padded, n, m, _integrand_table(m), out)
    return out


def _pairwise_integrals_uniform(data: np.ndarray) -> np.ndarray:
    """Unnormalized pairwise integrals for ``(n, m)`` uniform sorted rows.

    Abel summation: on a pair's merged grid, ``sum_k f_k * (x_{k+1} -
    x_k)`` rearranges to a per-observation sum ``sum_e x_e *
    (F(before e) - F(after e))`` (the boundary states contribute zero
    because ``F(0, 0) = F(m, m) = 0``).  Splitting the observations by
    origin sample makes the pair integral ``terms[i, j] + terms[j, i]``
    where ``terms[i, j]`` sums over sample ``j``'s observations against
    fixed sample ``i``.

    One global stable argsort fixes the merge order of *every* pair at
    once (within a tie, lower row index first -- consistently, for all
    pairs).  Per fixed row ``i``, a cumulative mark table gives each
    observation's count of preceding ``i``-observations with one
    gather, and a second gather reads the precomputed jump
    ``F(before) - F(after)`` off the integrand table, leaving a single
    einsum per row block.  No ``(n, 2m)`` intermediate is ever built.
    """
    n, m = data.shape
    flat = np.ascontiguousarray(data).ravel()
    order = np.argsort(flat, kind="stable")
    total = flat.size
    ranks = np.empty(total, dtype=np.intp)
    ranks[order] = np.arange(total, dtype=np.intp)
    ranks = ranks.reshape(n, m)

    table = _integrand_table(m)
    # jump[c, u] = F(c, u) - F(c, u+1): the drop caused by the (u+1)-th
    # moving-side observation arriving while the fixed side holds at c.
    jump = np.ascontiguousarray(table[:, :-1] - table[:, 1:])
    cols = np.arange(m, dtype=np.intp)
    count_dtype = np.int16 if m < 30000 else np.int64
    marks = np.zeros(total + 1, dtype=count_dtype)
    terms = np.empty((n, n))
    for i in range(n):
        marks[ranks[i] + 1] = 1
        below = np.cumsum(marks, dtype=count_dtype)
        preceding = below[ranks]          # i-observations before each obs
        terms[i] = np.einsum("ij,ij->i", jump[preceding, cols], data)
        marks[ranks[i] + 1] = 0
    return terms + terms.T


def pairwise_distances(batch: SortedSampleBatch) -> np.ndarray:
    """Full symmetric matrix of Eq. (2) distances (zero diagonal).

    Uniform-length batches dispatch to the compiled merge kernel when
    available, else to the table-driven Abel-summation kernel; ragged
    batches fall back to row blocks of the general kernel (row ``i``
    scored against all ``j > i`` per call).  All paths produce the same
    integrals to float64 accumulation error.
    """
    n = batch.n
    data, sizes, mins, maxs = batch.data, batch.sizes, batch.mins, batch.maxs
    if n > 1 and batch.width > 0 and int(sizes.min()) == batch.width:
        integrals = _pairwise_integrals_uniform_c(data)
        if integrals is None:
            integrals = _pairwise_integrals_uniform(data)
        out = _normalize(integrals, mins[:, None], maxs[:, None],
                         mins[None, :], maxs[None, :])
        np.fill_diagonal(out, 0.0)
        return out
    out = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        rest = slice(i + 1, n)
        integrals = _gap_integrals_vs_fixed(
            batch.row(i), data[rest], sizes[rest], 0, fixed_is_a=True,
        )
        row = _normalize(integrals, mins[i], maxs[i], mins[rest], maxs[rest])
        out[i, rest] = row
        out[rest, i] = row
    return out


def pairwise_similarities(batch: SortedSampleBatch) -> np.ndarray:
    """Full symmetric Eq. (3) similarity matrix (unit diagonal)."""
    return 1.0 - pairwise_distances(batch)
