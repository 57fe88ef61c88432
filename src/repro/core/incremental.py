"""Incremental criteria engine: sketches and landmark medoids.

:func:`repro.core.criteria.learn_criteria` is pairwise-dominated: the
Algorithm 2 medoid seed needs the full ``O(n^2)`` similarity matrix,
which caps exact learns near 1k nodes.  This module keeps the same
clustering semantics but replaces the quadratic structure with two
bounded approximations, with the exact learner as the escape hatch:

1. **Sketches** (:mod:`repro.core.sketch`) -- every node window is
   summarized by a ``k``-point equi-depth sketch, so the whole fleet's
   similarity structure lives in ``O(n * k)`` memory and any
   sketch-to-sketch Eq. 2 evaluation deviates from the raw evaluation
   by at most :func:`repro.core.sketch.distance_bound`.
2. **Landmark/coreset medoid** -- instead of the full matrix, a
   stratified *candidate* coreset (``C`` windows evenly spaced in
   median order) is scored against ``L`` *landmark* windows, and the
   medoid is the candidate maximizing its (contamination-trimmed)
   landmark profile sum -- ``O(C * L * k)`` work in place of
   ``O(n^2 * m)``, built in one kernel call.  The alpha-exclusion loop
   then runs one one-vs-many pass per iteration over the sketch batch,
   ``O(n * k)``, mirroring the exact loop's semantics.  Windows whose
   similarity lands inside the ``distance_bound`` band around
   ``alpha`` are re-adjudicated with the exact ``fastdist`` kernel
   against the medoid's *raw* window, so borderline verdicts never
   ride on the approximation.

The ladder
----------
Every learn is from scratch -- the product re-executes the fleet on
each learn, so no window survives from one learn to the next -- and
takes one of two rungs:

* ``exact`` -- fleet at or below ``exact_below`` (small fleets are
  cheapest and bit-exact on the classic path), or ``mode="exact"``
  forced by the caller (the control plane does this after a shadow
  -evaluation rollback);
* ``full``  -- everything else: sketches + coreset.

Approximate results never go live on their own authority: the
validator routes every candidate -- exact or approximate -- through
the ``repro.quality.rollout`` shadow-evaluation gate, and a rejected
candidate both rolls back and forces the next learn for that
(sku, benchmark, metric) onto the exact path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import sketch as _sketch
from repro.core.backend import DistanceBackend, default_backend
from repro.core.criteria import (
    _MAX_ITERATIONS,
    CriteriaResult,
    _clean_and_warn,
    _pooled_sample,
    _validate_learn_args,
    learn_criteria,
)
from repro.core.fastdist import (
    SortedSampleBatch,
    one_vs_many_similarities,
    reference_similarities,
)
from repro.exceptions import CriteriaError

__all__ = [
    "CriteriaState",
    "IncrementalConfig",
    "learn_criteria_incremental",
]


@dataclass(frozen=True)
class IncrementalConfig:
    """Knobs of the incremental engine (all with production defaults)."""

    sketch_size: int = _sketch.DEFAULT_SKETCH_SIZE
    n_landmarks: int = 32
    n_candidates: int = 128
    exact_below: int = 256
    max_criteria_size: int = 4096

    def __post_init__(self) -> None:
        if self.sketch_size < 2:
            raise CriteriaError(
                f"sketch_size must be >= 2, got {self.sketch_size}")
        if self.n_landmarks < 1:
            raise CriteriaError(
                f"n_landmarks must be >= 1, got {self.n_landmarks}")
        if self.n_candidates < 1:
            raise CriteriaError(
                f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.max_criteria_size < 2:
            raise CriteriaError(
                f"max_criteria_size must be >= 2, got {self.max_criteria_size}")

    @property
    def band(self) -> float:
        """Half-width of the exact re-adjudication band around alpha:
        the sketch's property-tested distance bound."""
        return _sketch.distance_bound(self.sketch_size)


@dataclass(frozen=True)
class CriteriaState:
    """How one (sku, benchmark, metric) learn ran: the rung it took
    (``"exact"`` or ``"full"``) and the seconds spent inside it."""

    path: str
    seconds: float
    exact: bool


def _stratified(batch: SortedSampleBatch, count: int,
                within: np.ndarray | None = None) -> np.ndarray:
    """Deterministic stratified row choice: evenly spaced medians.

    Sorting windows by their median and taking ``count`` evenly spaced
    ranks covers the fleet's value range (healthy mass *and* outliers)
    without randomness, so re-learns are reproducible.  ``within``
    restricts the choice to a row subset (used when every candidate
    has been excluded and the coreset must be re-seated among the
    survivors).
    """
    rows = np.arange(batch.n) if within is None else within
    medians = batch.data[rows, (batch.sizes[rows] - 1) // 2]
    order = rows[np.argsort(medians, kind="stable")]
    ranks = np.unique(
        np.linspace(0, rows.size - 1, min(count, rows.size)).round()
        .astype(np.intp))
    return np.sort(order[ranks])


class _MedoidSeeder:
    """The landmark/coreset stand-in for ``GetCentroid``.

    Holds the ``(C, L)`` similarity profile of the candidate coreset
    against the landmark windows and answers medoid queries for any
    active subset: the winner is the active candidate maximizing its
    landmark profile sum, with landmarks that were themselves excluded
    removed from the vote and the contamination budget trimming each
    candidate's ``ceil(contamination * L)`` smallest landmark
    similarities (landmarks are a stratified fleet sample, so poisoned
    landmarks appear at about the fleet's contamination rate).
    """

    def __init__(self, batch: SortedSampleBatch, cand_idx: np.ndarray,
                 lm_idx: np.ndarray, lm_sims: np.ndarray,
                 contamination: float):
        self.batch = batch
        self.cand_idx = cand_idx
        self.lm_idx = lm_idx
        self.lm_sims = lm_sims
        self.contamination = contamination

    def medoid(self, active: np.ndarray) -> int:
        """Approximate medoid (a *global* row index) among ``active``."""
        if active.size == 0:
            raise CriteriaError(
                "cannot take the medoid of an empty sample set")
        active_mask = np.zeros(self.batch.n, dtype=bool)
        active_mask[active] = True
        cand_rows = np.flatnonzero(active_mask[self.cand_idx])
        if cand_rows.size == 0:
            # Every candidate was excluded: re-seat the coreset among
            # the survivors (rare; bounded by the iteration cap).
            self.cand_idx = _stratified(self.batch, self.cand_idx.size,
                                        within=active)
            self.lm_sims = reference_similarities(
                self.batch.take(self.cand_idx),
                self.batch.take(self.lm_idx))
            cand_rows = np.arange(self.cand_idx.size)
        cols = np.flatnonzero(active_mask[self.lm_idx])
        if cols.size == 0:
            cols = np.arange(self.lm_idx.size)
        sub = self.lm_sims[np.ix_(cand_rows, cols)]
        l_act = sub.shape[1]
        trim = 0
        if self.contamination > 0.0 and l_act > 1:
            trim = min(int(np.ceil(self.contamination * l_act)), l_act - 1)
        if trim > 0:
            sub = np.sort(sub, axis=1)[:, trim:]
        winner = cand_rows[int(np.argmax(sub.sum(axis=1)))]
        return int(self.cand_idx[winner])


def _run_sketch_loop(batch: SortedSampleBatch, seeder: _MedoidSeeder,
                     cleaned, alpha: float, centroid: str,
                     config: IncrementalConfig):
    """Algorithm 2 on sketches, with exact adjudication of the band.

    ``cleaned[i]`` is window ``i``'s raw sorted clean values.  Returns
    ``(surviving, sims, iterations, criteria, criteria_idx)`` in
    kept-index space.
    """
    all_idx = np.arange(batch.n)
    sizes_raw = np.fromiter((row.size for row in cleaned), dtype=np.intp,
                            count=len(cleaned))
    iteration_centroid = "medoid" if centroid == "hybrid" else centroid

    def centroid_of(active: np.ndarray):
        if iteration_centroid == "medoid":
            idx = seeder.medoid(active)
            return batch.row(idx), idx
        pooled = _sketch.merge_sketches(
            [batch.row(i) for i in active], sizes_raw[active],
            config.max_criteria_size)
        return pooled, None

    active = all_idx
    criteria_sample, medoid = centroid_of(active)
    sims = one_vs_many_similarities(batch, criteria_sample,
                                    assume_sorted=True)
    seen_states: set[tuple] = set()
    iterations = 0
    while iterations < _MAX_ITERATIONS:
        defective = all_idx[sims <= alpha]
        surviving = all_idx[sims > alpha]
        if surviving.size == 0:
            raise CriteriaError(
                "criteria learning excluded every sample; "
                f"alpha={alpha} is too strict for this benchmark's variance"
            )
        state_key = (medoid, tuple(defective.tolist()))
        if np.array_equal(surviving, active) or state_key in seen_states:
            active = surviving
            break
        seen_states.add(state_key)
        active = surviving
        criteria_sample, medoid = centroid_of(active)
        sims = one_vs_many_similarities(batch, criteria_sample,
                                        assume_sorted=True)
        iterations += 1

    # Exact adjudication of the borderline band: any window whose
    # sketch similarity lies within the error bound of alpha gets
    # re-scored with the exact kernel against the raw reference, so a
    # verdict can only differ from the exact path where the two sims
    # legitimately disagree by more than the bound.
    if medoid is not None:
        reference = cleaned[medoid]
    else:
        reference = _pooled_sample(cleaned, active)
    border = np.flatnonzero(np.abs(sims - alpha) <= config.band)
    if border.size:
        border_batch = SortedSampleBatch.from_sorted(
            [cleaned[i] for i in border])
        sims = sims.copy()
        sims[border] = one_vs_many_similarities(border_batch, reference,
                                                assume_sorted=True)
        surviving = all_idx[sims > alpha]
        if surviving.size == 0:
            raise CriteriaError(
                "criteria learning excluded every sample; "
                f"alpha={alpha} is too strict for this benchmark's variance"
            )
        active = surviving

    if centroid == "medoid":
        criteria = cleaned[medoid].copy()
        criteria_idx = medoid
    else:
        criteria = _sketch.merge_sketches(
            [batch.row(i) for i in active], sizes_raw[active],
            config.max_criteria_size)
        criteria_idx = None
    return active, sims, iterations, criteria, criteria_idx


def _assemble(samples, kept_arr: np.ndarray, excluded, surviving: np.ndarray,
              sims: np.ndarray, criteria: np.ndarray,
              criteria_idx: int | None, iterations: int,
              alpha: float) -> CriteriaResult:
    """Map kept-space loop output back to the input index space."""
    active_set = set(surviving.tolist())
    defect_indices = tuple(int(kept_arr[i]) for i in range(kept_arr.size)
                           if i not in active_set)
    healthy_indices = tuple(int(kept_arr[i]) for i in surviving.tolist())
    full_sims = np.zeros(len(samples))
    full_sims[kept_arr] = sims
    return CriteriaResult(
        criteria=criteria,
        defect_indices=defect_indices,
        healthy_indices=healthy_indices,
        centroid_index=(int(kept_arr[criteria_idx])
                        if criteria_idx is not None else None),
        iterations=iterations,
        alpha=alpha,
        similarities=tuple(float(s) for s in full_sims),
        excluded_indices=tuple(int(i) for i in excluded),
    )


def _sketch_batch_from_cleaned(cleaned, k: int) -> SortedSampleBatch:
    """Per-row sketches of already-sorted windows, vectorized when uniform."""
    sizes = np.fromiter((row.size for row in cleaned), dtype=np.intp,
                        count=len(cleaned))
    if sizes.size and (sizes == sizes[0]).all():
        data = np.vstack(cleaned) if len(cleaned) > 1 else cleaned[0][None, :]
        rows = _sketch.sketch_rows(data, k)
        return SortedSampleBatch(
            rows, np.full(len(cleaned), rows.shape[1], dtype=np.intp))
    return SortedSampleBatch.from_sorted(
        [_sketch.sketch_sorted(row, k) for row in cleaned])


def _full_sketch_learn(samples, alpha, centroid, contamination, backend,
                       min_sample_size, config) -> CriteriaResult:
    """Sketches + coreset from scratch (the ``full`` path)."""
    cleaned, kept, excluded = _clean_and_warn(
        samples, backend, min_sample_size, stacklevel=4)
    kept_arr = np.asarray(kept, dtype=np.intp)
    batch = _sketch_batch_from_cleaned(cleaned, config.sketch_size)
    cand_idx = _stratified(batch, config.n_candidates)
    lm_idx = _stratified(batch, config.n_landmarks)
    lm_sims = reference_similarities(batch.take(cand_idx),
                                     batch.take(lm_idx))
    seeder = _MedoidSeeder(batch, cand_idx, lm_idx, lm_sims, contamination)
    surviving, sims, iterations, criteria, criteria_idx = _run_sketch_loop(
        batch, seeder, cleaned, alpha, centroid, config)
    return _assemble(samples, kept_arr, excluded, surviving, sims,
                     criteria, criteria_idx, iterations, alpha)


def learn_criteria_incremental(samples, alpha: float = 0.95, *,
                               centroid: str = "hybrid",
                               contamination: float = 0.0,
                               backend: DistanceBackend | None = None,
                               min_sample_size: int = 1,
                               config: IncrementalConfig | None = None,
                               mode: str = "auto"):
    """Algorithm 2 with sketches and a landmark coreset.

    Drop-in alternative to :func:`repro.core.criteria.learn_criteria`
    that returns ``(result, state)``, where ``state`` says which rung
    ran and how long it took.  ``mode`` is ``"auto"`` (exact at or
    below ``config.exact_below``, the sketch path above it) or
    ``"exact"`` (force the classic exact learn, used after a rollout
    rollback).
    """
    if mode not in ("auto", "exact"):
        raise CriteriaError(f"unknown learn mode {mode!r}")
    config = config or IncrementalConfig()
    backend = backend or default_backend()
    _validate_learn_args(samples, alpha, centroid, contamination)
    t0 = time.perf_counter()
    exact = mode == "exact" or len(samples) <= config.exact_below
    if exact:
        result = learn_criteria(
            samples, alpha, centroid=centroid, contamination=contamination,
            backend=backend, min_sample_size=min_sample_size)
    else:
        result = _full_sketch_learn(samples, alpha, centroid, contamination,
                                    backend, min_sample_size, config)
    return result, CriteriaState(path="exact" if exact else "full",
                                 seconds=time.perf_counter() - t0,
                                 exact=exact)
