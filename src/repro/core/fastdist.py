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
  register-resident two-pointer merge per pair; ragged batches score
  each row against the rest with the one-vs-many kernel below (Eq. (2)
  is symmetric, so either side may be the reference).
* :func:`one_vs_many_distances` scores every sample of a batch against
  one presorted reference ECDF in a single call -- the online-filter
  shape, where the reference is a learned criteria -- and
  :func:`reference_similarities` scores a batch against several
  references in one call (the incremental engine's landmark profile,
  the rollout gate's candidate and active criteria).  Neither merges
  grids: the reference's count function is integrated once into
  cumulative tables, and each row interval reads its integral off them
  in closed form, so a 4096-point pooled criteria costs one
  ``searchsorted`` per row element instead of a 4096-wide merge per
  row.

Exactness
---------
The kernels are not approximations.  The merged multiset grid is a
superset of the deduplicated ``union1d`` grid the scalar path uses:
duplicate breakpoints contribute zero-width segments, segments outside
a pair's support have zero integrand, and the per-pair CDF values and
segment widths are bit-identical to the scalar path's.  Only the final
summation order differs, so results agree with the scalar reference to
floating-point accumulation error (enforced at <= 1e-9 by the property
suite; observed deviation is ~1e-15).  The
one-vs-many kernel integrates the same piecewise-constant integrand
exactly, as differences of cumulative integrals; its rounding error is
of the same order (<= 1e-12 against the scalar reference in the tests,
~1e-15 observed).

Padding convention: rows are right-padded with ``+inf`` so real
observations always sort before padding; a segment is integrable iff
its right endpoint is finite.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache

import numpy as np

from repro.core import _cmerge
from repro.core.ecdf import TINY, as_sample, flush_subnormal
from repro.exceptions import InvalidSampleError

__all__ = [
    "SortedSampleBatch",
    "batch_gap_integrals",
    "one_vs_many_distances",
    "one_vs_many_similarities",
    "pairwise_distances",
    "pairwise_similarities",
    "pairwise_similarity_matrix",
    "reference_similarities",
]

_PAD = np.inf


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
        return cls(_flush_subnormal_rows(data, sizes), sizes)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "SortedSampleBatch":
        """Wrap a uniform 2-D array of sorted, validated rows, without copies."""
        rows = np.asarray(rows, dtype=float)
        sizes = np.full(rows.shape[0], rows.shape[1], dtype=np.intp)
        return cls(_flush_subnormal_rows(rows, sizes), sizes)

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


def _flush_subnormal_rows(data: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """:func:`~repro.core.ecdf.flush_subnormal` applied to every row.

    Returns ``data`` itself unless some row lies wholly below ``TINY``;
    then a copy with those rows zeroed (padding kept).
    """
    if data.size == 0:
        return data
    lo = data[:, 0]
    hi = data[np.arange(data.shape[0]), sizes - 1]
    flush = (-TINY < lo) & (hi < TINY) & ((lo != 0.0) | (hi != 0.0))
    if not flush.any():
        return data
    data = data.copy()
    for i in np.flatnonzero(flush):
        data[i, :sizes[i]] = 0.0
    return data


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


@lru_cache(maxsize=64)
def _ranks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``1..n`` and ``1/1..1/n`` as floats (read-only, shared).

    Reference sizes repeat (a window length, a sketch size, the
    criteria cap), and against a small reference the kernel's cost is
    per call, so the two vectors are built once per size.
    """
    ranks = np.arange(1.0, n + 1)
    inverse = 1.0 / ranks
    ranks.flags.writeable = inverse.flags.writeable = False
    return ranks, inverse


def _reference_table(refs: np.ndarray, padded: bool,
                     signed_direction: int) -> np.ndarray:
    """What the one-vs-many kernel reads off each reference, per count.

    For sorted references ``b_1..b_n`` with count function
    ``c(x) = #{b <= x}``, column ``j * (n + 1) + c`` describes the
    stretch of reference ``j`` where the count is ``c``: row 0 is its
    anchor ``b_c`` (0 for ``c = 0``, where every term it enters vanishes
    or cancels), then one row per side the direction needs holds a
    cumulative integral ``F`` at ``b_c``, then one row per side the
    slope of ``F`` there, so ``F(x) = F(b_c) + slope * (x - b_c)``:

    * lower side (``signed_direction >= 0``): the integral of ``c(x)``
      from ``b_1``, slope ``c``;
    * upper side (``signed_direction <= 0``): the integral of
      ``1 / c(x)`` up to ``b_n``, slope ``-1 / c``.  It runs from the
      right so each value the kernel subtracts is at most ``span / c``:
      the kernel scales those differences by about ``c``, so
      cancellation stays at float64 epsilon times the span.

    Padding (``+inf``) adds zero-width gaps.
    """
    n_refs, n = refs.shape
    lower, upper = signed_direction >= 0, signed_direction <= 0
    sides = lower + upper
    ranks, inverse = _ranks(n)
    table = np.zeros((1 + 2 * sides, n_refs, n + 1))
    table[0, :, 1:] = refs
    if lower:
        table[1 + sides, :, 1:] = ranks
    if upper:
        np.negative(inverse, out=table[2 * sides, :, 1:])
    if n > 1:
        if padded:
            with np.errstate(invalid="ignore"):
                gaps = refs[:, 1:] - refs[:, :-1]
            gaps[~np.isfinite(gaps)] = 0.0
        else:
            gaps = refs[:, 1:] - refs[:, :-1]
        if lower:
            np.add.accumulate(gaps * ranks[:-1], axis=1, out=table[1, :, 2:])
        if upper:
            np.add.accumulate((gaps * inverse[:-1])[:, ::-1], axis=1,
                              out=table[sides, :, n - 1:0:-1])
    return table.reshape(len(table), -1)


def _gap_integrals_vs_sorted(refs: np.ndarray, ref_sizes: np.ndarray,
                             batch: SortedSampleBatch,
                             signed_direction: int) -> np.ndarray:
    """Unnormalized gap integrals of every batch row against every reference.

    ``refs`` holds L sorted references right-padded with ``+inf`` and
    ``ref_sizes`` their lengths.  Returns ``(L, R)`` for the R rows of
    ``batch``, which take the observed (``a``) side of Eq. (4).  No
    merged grid is built.  On the row interval ``[a_k, a_{k+1})`` the
    row count is ``k`` and only the reference count ``c`` moves, so the
    integrand on cross-scaled counts, ``|k n - c m| / max(k n, c m)``,
    is ``1 - c m / (k n)`` below the crossing index ``ceil(k n / m)``
    and ``1 - k n / (c m)`` from it on.  Each side integrates in closed
    form off :func:`_reference_table`: one ``searchsorted`` per
    reference, then O(1) gathers per row element -- O(L R w log n) after
    O(L n), where a merged grid costs O(R (w + n)) per reference.

    The last interval ``[a_m, max(a_m, b_n))`` has ``k = m`` and only
    the lower side.  Before ``a_1`` the integrand is 1 wherever the
    reference has started, which the symmetric and ``-1`` directions
    count; in the symmetric direction the "1" parts add up to the width
    of the union support.  A side whose interval is empty evaluates the
    same expression at both ends and contributes exactly zero.
    """
    data, sizes = batch.data, batch.sizes
    n_refs, n = refs.shape
    width = data.shape[1]
    padded = int(ref_sizes.min()) < n
    table = _reference_table(refs, padded, signed_direction)
    sides = (len(table) - 1) // 2
    # counts[j, r, t] = c_j(a_{r, t+1}); row padding counts n_j.
    counts = np.empty((n_refs,) + data.shape, dtype=np.intp)
    for j in range(n_refs):
        counts[j] = np.searchsorted(refs[j, :ref_sizes[j]], data,
                                    side="right")

    ragged = int(sizes.min()) < width
    m = sizes[:, None] if ragged else width
    n_j = ref_sizes[:, None, None]
    scale = np.arange(1, width + 1) * n_j           # k n
    cross = (scale + (m - 1)) // m
    if ragged:
        np.minimum(cross, n_j, out=cross)           # padded intervals only
    # The crossing clipped into interval k, [a_k, a_{k+1}), and its
    # count; the last interval (and row padding) is open to the right.
    split_count = np.maximum(cross, counts)
    if n_refs > 1:
        columns = np.arange(n_refs)[:, None, None] * (n + 1)
        cross, counts, split_count = (cross + columns, counts + columns,
                                      split_count + columns)
    split = np.maximum(table[0].take(cross), data)
    if width > 1:
        np.minimum(split_count[..., :-1], counts[..., 1:],
                   out=split_count[..., :-1])
        np.minimum(split[..., :-1], data[:, 1:], out=split[..., :-1])
    at = table.take(counts, axis=1)
    at_split = table.take(split_count, axis=1)

    # Each side's cumulative integral at every row point and at every
    # crossing; their differences integrate c m / (k n) below the
    # crossing and k n / (c m) from it on (the integrand is 1 minus
    # these), the last interval having no upper side.
    with np.errstate(invalid="ignore") if ragged else nullcontext():
        at = at[1:1 + sides] + at[1 + sides:] * (data - at[0])
        at_split = (at_split[1:1 + sides]
                    + at_split[1 + sides:] * (split - at_split[0]))
        below = above = None
        if signed_direction >= 0:
            below = (m / scale) * (at_split[0] - at[0])
            if signed_direction:
                below = (split - data) - below
        if signed_direction <= 0 and width > 1:
            above = (scale[..., :-1] / m) * (at_split[-1][..., :-1]
                                             - at[-1][..., 1:])
            if signed_direction:
                above = (data[:, 1:] - split[..., :-1]) - above
    if ragged:
        if below is not None:
            below = np.where(np.arange(width) < m, below, 0.0)
        if above is not None:
            above = np.where(np.arange(1, width) < m, above, 0.0)
    if signed_direction == 0:
        if above is not None:
            below[..., :-1] += above
        ref_maxs = (refs[np.arange(n_refs), ref_sizes - 1] if padded
                    else refs[:, -1])
        support = (np.maximum(batch.maxs, ref_maxs[:, None])
                   - np.minimum(batch.mins, refs[:, :1]))
        total = support - below.sum(axis=-1)
    elif signed_direction > 0:
        total = below.sum(axis=-1)
    else:
        total = np.maximum(0.0, batch.mins - refs[:, :1])
        if above is not None:
            total += above.sum(axis=-1)
    # Each side is a difference of cumulative integrals; clamp the
    # rounding residue of an all-zero integrand (a row scored against
    # itself) so a distance never reads below 0.
    return np.maximum(total, 0.0)


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
    return flush_subnormal(ref if assume_sorted else np.sort(ref))


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
    integrals = _gap_integrals_vs_sorted(
        ref[None, :], np.array([ref.size]), batch, signed_direction)[0]
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


def reference_similarities(batch: SortedSampleBatch,
                           references: SortedSampleBatch, *,
                           signed_direction: int = 0) -> np.ndarray:
    """Similarity of every batch row to each reference row, in one call.

    Returns ``(n, L)``: column ``j`` is :func:`one_vs_many_similarities`
    against ``references.row(j)``.  Two callers hold several references
    over one batch: the incremental engine's landmark profile (``C``
    candidate sketches against ``L`` landmark sketches, Eq. (3)) and the
    rollout gate (a key's shadow windows against the candidate and the
    active criteria, Eq. (4)).
    """
    if batch.n == 0 or references.n == 0:
        return np.empty((batch.n, references.n))
    integrals = _gap_integrals_vs_sorted(references.data, references.sizes,
                                         batch, signed_direction)
    return 1.0 - _normalize(integrals.T, batch.mins[:, None],
                            batch.maxs[:, None], references.mins[None, :],
                            references.maxs[None, :])


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
        # Eq. (2) is symmetric, so row i may take the reference side.
        integrals = _gap_integrals_vs_sorted(
            data[i:i + 1], sizes[i:i + 1],
            SortedSampleBatch(data[rest], sizes[rest]), 0)[0]
        row = _normalize(integrals, mins[i], maxs[i], mins[rest], maxs[rest])
        out[i, rest] = row
        out[rest, i] = row
    return out


def pairwise_similarities(batch: SortedSampleBatch) -> np.ndarray:
    """Full symmetric Eq. (3) similarity matrix (unit diagonal)."""
    return 1.0 - pairwise_distances(batch)


def pairwise_similarity_matrix(samples) -> np.ndarray:
    """:func:`pairwise_similarities` of raw samples or of a batch.

    Raw samples are validated under the strict ``"reject"`` policy.
    """
    if not isinstance(samples, SortedSampleBatch):
        samples = SortedSampleBatch.from_samples(samples)
    return pairwise_similarities(samples)
