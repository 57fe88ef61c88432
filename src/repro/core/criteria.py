"""Benchmark criteria learning (paper §3.4, Algorithm 2).

Given one benchmark's result samples from many nodes, the Validator
learns a *criteria* sample ``S_C`` such that every non-defective sample
satisfies ``similarity(S_C, S_i) > alpha``.  The algorithm is a
similarity-based clustering: pick the medoid (the sample maximizing the
sum of pairwise similarities), exclude everything below the threshold,
re-pick the medoid among the survivors, and iterate until the surviving
set is self-consistent.

Two centroid strategies are supported, mirroring the remark in the
paper's pseudo-code:

* ``"medoid"`` -- the sample with maximal total similarity (default).
* ``"mean"``   -- the mean in distribution space, realized by pooling
  the surviving samples (the ECDF of the pooled sample is the average
  of the member ECDFs when samples have equal length).
* ``"hybrid"`` -- iterate with the medoid (robust to defective
  samples polluting a pooled mixture), then return the pool of the
  surviving healthy samples as the criteria.  The pooled criteria has
  a much smoother empirical CDF than any single run, which keeps the
  one-sided online filter's left tail quiet; this is the Validator's
  default.

Dirty-telemetry robustness
--------------------------
Criteria are learned *without ground truth*, so corrupted telemetry
flows straight into the learned boundary unless it is contained here:

* ``nonfinite="mask"`` quarantines NaN/Inf values per window instead
  of aborting the whole fleet-wide learn, and windows left below
  ``min_sample_size`` clean values are excluded from learning (reported
  via :attr:`CriteriaResult.excluded_indices`) with a warning;
* ``contamination`` is a budget for *distribution-shape* poison that
  pointwise checks cannot catch (duplicated samples, subtle scale
  glitches): the medoid is chosen by a **trimmed** similarity
  aggregation that drops each candidate's ``floor(contamination *
  (k - 1))`` smallest similarities.  Up to that many poisoned windows
  can therefore neither drag an honest candidate's score down nor lift
  a poisoned candidate into the medoid seat -- the documented
  breakdown point of the seeding step.  The subsequent alpha-exclusion
  loop then removes the poisoned windows from the surviving pool the
  same way it removes defective nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.ecdf import as_sample
from repro.core.fastdist import (
    SortedSampleBatch,
    one_vs_many_similarities,
    pairwise_similarities,
)
from repro.core.measurement import NONFINITE_MASK, NONFINITE_REJECT
from repro.exceptions import CriteriaError

__all__ = ["CriteriaResult", "learn_criteria", "medoid_index"]

_MAX_ITERATIONS = 64


@dataclass(frozen=True)
class CriteriaResult:
    """Outcome of offline criteria learning for one benchmark metric.

    Attributes
    ----------
    criteria:
        The learned criteria sample ``S_C`` (a 1-D array).
    defect_indices:
        Indices (into the input sample list) excluded as defective.
    healthy_indices:
        Indices that survived learning (complement of the defective
        and excluded sets).
    centroid_index:
        Index of the medoid sample, or ``None`` when the ``"mean"``
        centroid (a pooled synthetic sample) was used.
    iterations:
        Number of exclude/re-center rounds performed.
    alpha:
        The similarity threshold the criteria was learned against.
    excluded_indices:
        Indices quarantined *before* learning as unusable telemetry
        (all-non-finite windows or windows below the sample floor
        under ``nonfinite="mask"``).  Distinct from ``defect_indices``:
        exclusion is a data-quality verdict, not a hardware verdict.
    """

    criteria: np.ndarray
    defect_indices: tuple[int, ...]
    healthy_indices: tuple[int, ...]
    centroid_index: int | None
    iterations: int
    alpha: float
    similarities: tuple[float, ...] = field(default=())
    excluded_indices: tuple[int, ...] = field(default=())

    @property
    def defect_ratio(self) -> float:
        """Fraction of learnable samples excluded as defective."""
        total = len(self.defect_indices) + len(self.healthy_indices)
        return len(self.defect_indices) / total if total else 0.0


def medoid_index(sim_matrix: np.ndarray, active: np.ndarray, *,
                 trim_fraction: float = 0.0) -> int:
    """Index (into the full sample list) of the medoid among ``active``.

    The medoid maximizes the row-sum of pairwise similarities restricted
    to the active subset -- the ``GetCentroid`` helper of Algorithm 2.

    With ``trim_fraction > 0`` each candidate's ``floor(trim_fraction *
    (k - 1))`` smallest similarities are dropped before summing
    (trimmed aggregation).  A poisoned window has low similarity to
    every honest window, so honest candidates shed the poison from
    their scores while poisoned candidates -- whose whole row is low --
    cannot be lifted into the argmax by trimming their own tail.
    """
    if active.size == 0:
        raise CriteriaError("cannot take the medoid of an empty sample set")
    sub = sim_matrix[np.ix_(active, active)]
    k = int(active.size)
    trim = int(np.floor(trim_fraction * (k - 1))) if k > 1 else 0
    if trim > 0:
        sub = np.sort(sub, axis=1)[:, trim:]
    return int(active[int(np.argmax(sub.sum(axis=1)))])


def _pooled_sample(samples, active: np.ndarray) -> np.ndarray:
    """Mean-in-distribution-space centroid: pool the active samples."""
    return np.sort(
        np.concatenate([np.asarray(samples[i], dtype=float) for i in active]))


def _clean_samples(samples, nonfinite: str, min_sample_size: int):
    """Per-window quarantine pass before learning.

    Returns ``(cleaned, kept, masked_values, excluded)``: sorted clean
    arrays, their original indices, how many non-finite values were
    masked away, and the original indices of windows excluded outright.
    Under the ``"reject"`` policy any non-finite value raises
    (legacy strictness); under ``"mask"`` values are dropped per window
    and only windows with fewer than ``min_sample_size`` clean values
    are excluded.

    A uniform 2-D float array with no non-finite entries takes a fully
    vectorized fast path (one ``np.sort(axis=1)``), which is what keeps
    fleet-scale cleaning out of Python loops in the incremental engine.
    """
    floor = max(min_sample_size, 1)
    if (isinstance(samples, np.ndarray) and samples.ndim == 2
            and samples.shape[1] >= floor and samples.size):
        data = np.asarray(samples, dtype=float)
        if np.isfinite(data).all():
            cleaned = list(np.sort(data, axis=1))
            return cleaned, list(range(data.shape[0])), 0, []
    cleaned, kept, excluded = [], [], []
    masked_values = 0
    for index, sample in enumerate(samples):
        arr = np.asarray(sample, dtype=float).ravel()
        if nonfinite == NONFINITE_REJECT:
            finite = as_sample(arr)  # raises on empty or non-finite
        else:
            finite = arr[np.isfinite(arr)]
            masked_values += int(arr.size - finite.size)
        if finite.size < floor:
            excluded.append(index)
            continue
        kept.append(index)
        cleaned.append(np.sort(finite))
    return cleaned, kept, masked_values, excluded


def _validate_learn_args(samples, alpha: float, centroid: str,
                         contamination: float, nonfinite: str) -> None:
    """Shared argument validation for the exact and incremental learners."""
    if nonfinite not in (NONFINITE_REJECT, NONFINITE_MASK):
        raise CriteriaError(
            f"unknown nonfinite policy {nonfinite!r}; expected "
            f"{NONFINITE_REJECT!r} or {NONFINITE_MASK!r}")
    if not 0.0 <= alpha < 1.0:
        raise CriteriaError(f"alpha must be in [0, 1), got {alpha}")
    if centroid not in ("medoid", "mean", "hybrid"):
        raise CriteriaError(f"unknown centroid strategy {centroid!r}")
    if not 0.0 <= contamination < 0.5:
        raise CriteriaError(
            f"contamination must be in [0, 0.5), got {contamination}")
    if len(samples) == 0:
        raise CriteriaError("criteria learning needs at least one sample")


def _clean_and_warn(samples, nonfinite: str, min_sample_size: int,
                    *, stacklevel: int = 3):
    """:func:`_clean_samples` plus the quarantine warning at the caller.

    ``stacklevel=3`` points the warning at whoever called the learner
    (helper -> learner -> caller); both the exact and the incremental
    entry points route through here so excluded-window diagnostics
    always name the call site, never this module.
    """
    cleaned, kept, masked_values, excluded = _clean_samples(
        samples, nonfinite, min_sample_size)
    if masked_values or excluded:
        warnings.warn(
            f"criteria learning quarantined {masked_values} non-finite "
            f"value(s) and excluded {len(excluded)} of {len(samples)} "
            f"window(s) as unusable telemetry",
            RuntimeWarning, stacklevel=stacklevel)
    if not cleaned:
        raise CriteriaError(
            "criteria learning excluded every window as unusable telemetry")
    return cleaned, kept, excluded


def learn_criteria(samples, alpha: float = 0.95, *,
                   centroid: str = "medoid",
                   contamination: float = 0.0,
                   nonfinite: str = NONFINITE_REJECT,
                   min_sample_size: int = 1) -> CriteriaResult:
    """Run Algorithm 2 on ``samples`` and return the learned criteria.

    Parameters
    ----------
    samples:
        Sequence of 1-D benchmark samples, one per node (or per run).
    alpha:
        Empirical similarity threshold; samples with
        ``similarity(S_C, S_i) <= alpha`` are excluded as defects.
    centroid:
        ``"medoid"``, ``"mean"`` or ``"hybrid"`` (see module docstring).
    contamination:
        Budget (fraction in ``[0, 0.5)``) of poisoned windows the
        medoid seeding must tolerate; realized as trimmed similarity
        aggregation in :func:`medoid_index`.
    nonfinite:
        ``"reject"`` (default) raises on any non-finite value;
        ``"mask"`` quarantines non-finite values per window and
        excludes -- with a warning -- windows left below
        ``min_sample_size``, instead of aborting the fleet-wide learn.
    min_sample_size:
        Minimum clean values a window needs to participate in learning
        (only meaningful under ``"mask"``; short windows are excluded,
        never fatal).

    Raises
    ------
    CriteriaError
        If no learnable sample remains, if ``alpha`` or
        ``contamination`` is out of range, if ``nonfinite`` names no
        policy, or if the exclusion loop
        would discard every sample.
    """
    _validate_learn_args(samples, alpha, centroid, contamination, nonfinite)
    cleaned, kept, excluded = _clean_and_warn(
        samples, nonfinite, min_sample_size, stacklevel=3)
    kept_arr = np.asarray(kept, dtype=np.intp)
    n = len(cleaned)

    # One validated, sorted batch backs every similarity evaluation of
    # the run: the full pairwise matrix and each iteration's pooled
    # re-scoring (previously a fresh Python loop per iteration).
    batch = SortedSampleBatch.from_sorted(cleaned)
    sim_matrix = pairwise_similarities(batch)
    all_indices = np.arange(n)
    iteration_centroid = "medoid" if centroid == "hybrid" else centroid

    def centroid_of(active: np.ndarray) -> tuple[np.ndarray, int | None]:
        if iteration_centroid == "medoid":
            idx = medoid_index(sim_matrix, active,
                               trim_fraction=contamination)
            return cleaned[idx], idx
        return _pooled_sample(cleaned, active), None

    def sims_to(criteria_sample: np.ndarray, criteria_idx: int | None) -> np.ndarray:
        if criteria_idx is not None:
            return sim_matrix[criteria_idx]
        # _pooled_sample returns sorted output, so the reference ECDF
        # can be used as-is.
        return one_vs_many_similarities(batch, criteria_sample,
                                        assume_sorted=True)

    active = all_indices
    criteria_sample, criteria_idx = centroid_of(active)
    seen_states: set[tuple] = set()
    iterations = 0
    sims = sims_to(criteria_sample, criteria_idx)

    # Algorithm 2 main loop: exclude below-threshold samples relative to
    # the current centroid, then re-center on the survivors.  A seen-set
    # guards against the (rare) oscillation between two fixed points.
    while iterations < _MAX_ITERATIONS:
        defective = all_indices[sims <= alpha]
        surviving = all_indices[sims > alpha]
        if surviving.size == 0:
            raise CriteriaError(
                "criteria learning excluded every sample; "
                f"alpha={alpha} is too strict for this benchmark's variance"
            )
        state = (criteria_idx, tuple(defective.tolist()))
        if np.array_equal(surviving, active) or state in seen_states:
            active = surviving
            break
        seen_states.add(state)
        active = surviving
        criteria_sample, criteria_idx = centroid_of(active)
        sims = sims_to(criteria_sample, criteria_idx)
        iterations += 1

    active_set = set(active.tolist())
    defect_indices = tuple(int(kept_arr[i]) for i in all_indices
                           if i not in active_set)
    healthy_indices = tuple(int(kept_arr[i]) for i in active.tolist())
    if centroid == "hybrid":
        criteria_sample = _pooled_sample(cleaned, active)
        criteria_idx = None
    # Similarities map back to the *input* index space; excluded
    # windows were never scored and report 0.0 (maximally dissimilar).
    full_sims = np.zeros(len(samples))
    full_sims[kept_arr] = sims
    return CriteriaResult(
        criteria=criteria_sample,
        defect_indices=defect_indices,
        healthy_indices=healthy_indices,
        centroid_index=(int(kept_arr[criteria_idx])
                        if criteria_idx is not None else None),
        iterations=iterations,
        alpha=alpha,
        similarities=tuple(float(s) for s in full_sims),
        excluded_indices=tuple(int(i) for i in excluded),
    )
