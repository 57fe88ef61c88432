"""Repeatability drift detection after software updates (§3.4).

The paper's third repeatability guideline: *"After firmware/driver
updates, re-tune and re-evaluate the repeatability in case it
deteriorates on newer versions."*  A driver update can change a
benchmark's absolute level (fine -- criteria are re-learned) or its
*variance* (dangerous -- the old similarity threshold starts flagging
healthy nodes).

:func:`evaluate_drift` compares samples collected before and after an
update and reports, per benchmark metric:

* the relative level shift (new criteria needed when it exceeds the
  threshold headroom);
* the repeatability before and after (re-tuning needed when the new
  value falls below the alpha threshold's safety margin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import DistanceBackend, get_backend
from repro.core.ecdf import as_sample
from repro.core.fastdist import SortedSampleBatch, reference_similarities
from repro.core.measurement import NONFINITE_MASK
from repro.core.repeatability import pairwise_repeatability
from repro.exceptions import InvalidSampleError

__all__ = ["DriftReport", "evaluate_drift", "predicted_eviction_rate",
           "shadow_evictions"]


def _scoreable(windows) -> tuple[SortedSampleBatch, np.ndarray]:
    """Sort the windows that get a similarity; flag which ones those are.

    A window is scored when it is non-empty and entirely finite -- the
    rows :meth:`~repro.core.validator.Validator.check_results` accepts;
    it reports every other window as an execution failure.  Uniform
    windows are checked and sorted as one matrix.
    """
    arrays = [np.asarray(window, dtype=float).ravel() for window in windows]
    width = arrays[0].size
    if width and all(arr.size == width for arr in arrays):
        data = np.vstack(arrays)
        scored = np.isfinite(data).all(axis=1)
        data = np.sort(data[scored], axis=1)
        return (SortedSampleBatch(data, np.full(data.shape[0], width)),
                scored)
    scored = np.array([arr.size > 0 and bool(np.isfinite(arr).all())
                       for arr in arrays])
    return (SortedSampleBatch.from_sorted(
        [np.sort(arr) for arr, ok in zip(arrays, scored) if ok]), scored)


def shadow_evictions(windows, references, *, alpha: float,
                     higher_is_better: bool = True) -> np.ndarray:
    """Which ``windows`` the online filter would evict, per reference.

    The shadow-evaluation primitive of guarded criteria rollout
    (:mod:`repro.quality.rollout`).  Returns a ``(len(references),
    len(windows))`` boolean matrix holding, for each criteria sample,
    the decision :meth:`~repro.core.validator.Validator.check_results`
    makes for each window: an empty window or one with any non-finite
    value is an execution failure (evicted); any other is evicted when
    its Eq. (4) similarity is at most ``alpha``.  The windows are
    checked and sorted once, and every reference is scored against
    that one batch in a single kernel call.

    Raises :class:`InvalidSampleError` when ``windows`` is empty --
    a rollout decision needs at least one shadow window.
    """
    windows = list(windows)
    if not windows:
        raise InvalidSampleError(
            "predicted eviction rate needs at least one window")
    batch, scored = _scoreable(windows)
    references = SortedSampleBatch.from_samples(references,
                                                nonfinite=NONFINITE_MASK)
    evicted = np.ones((references.n, len(windows)), dtype=bool)
    sims = reference_similarities(
        batch, references, signed_direction=+1 if higher_is_better else -1)
    evicted[:, scored] = sims.T <= alpha
    return evicted


def predicted_eviction_rate(windows, criteria, *, alpha: float,
                            higher_is_better: bool = True) -> float:
    """Fraction of ``windows`` the online filter would evict under
    ``criteria`` (see :func:`shadow_evictions`)."""
    evicted = shadow_evictions(windows, [criteria], alpha=alpha,
                               higher_is_better=higher_is_better)[0]
    return np.count_nonzero(evicted) / evicted.size


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one before/after repeatability comparison.

    Attributes
    ----------
    level_shift:
        Relative change of the pooled mean (positive = faster after).
    distribution_distance:
        Eq. (2) distance between the pooled before/after samples.
    repeatability_before / repeatability_after:
        Mean pairwise similarity within each epoch.
    needs_relearn:
        The distribution moved enough that old criteria are invalid.
    needs_retune:
        Repeatability deteriorated below the safety margin; benchmark
        parameters must be re-searched (Appendix B) before the
        benchmark can keep validating.
    """

    level_shift: float
    distribution_distance: float
    repeatability_before: float
    repeatability_after: float
    needs_relearn: bool
    needs_retune: bool

    @property
    def healthy(self) -> bool:
        """True when the update changed nothing that matters."""
        return not (self.needs_relearn or self.needs_retune)


def evaluate_drift(before, after, *, alpha: float = 0.95,
                   margin: float = 0.5,
                   backend: DistanceBackend | None = None) -> DriftReport:
    """Compare per-node samples before and after a software update.

    Parameters
    ----------
    before, after:
        Sequences of per-node samples from the two software versions
        (need at least two each).
    alpha:
        The validation similarity threshold in force.
    margin:
        Fraction of the threshold headroom ``1 - alpha`` that
        repeatability loss or level drift may consume before being
        flagged.  With ``alpha=0.95`` and ``margin=0.5``: criteria must
        be re-learned when the distributions moved more than 2.5%, and
        parameters re-tuned when mean pairwise distance exceeds 2.5%.
    """
    if len(before) < 2 or len(after) < 2:
        raise InvalidSampleError("drift evaluation needs >= 2 samples per epoch")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    headroom = (1.0 - alpha) * margin
    backend = backend or get_backend(NONFINITE_MASK)

    pooled_before = np.concatenate([as_sample(s) for s in before])
    pooled_after = np.concatenate([as_sample(s) for s in after])
    level_shift = float(pooled_after.mean() / pooled_before.mean() - 1.0)
    distance = backend.cdf_distance(pooled_after, pooled_before)

    repeatability_before = pairwise_repeatability(before, backend=backend)
    repeatability_after = pairwise_repeatability(after, backend=backend)

    needs_relearn = distance > headroom
    needs_retune = repeatability_after < 1.0 - headroom
    return DriftReport(
        level_shift=level_shift,
        distribution_distance=distance,
        repeatability_before=repeatability_before,
        repeatability_after=repeatability_after,
        needs_relearn=needs_relearn,
        needs_retune=needs_retune,
    )
