"""The one distance backend: Eq. (2)--(4) behind a single dispatch.

Before this module existed the paper's distance math lived twice --
:mod:`repro.core.distance` (scalar reference) and
:mod:`repro.core.fastdist` (vectorized kernels) -- and every consumer
chose an implementation and threaded the ``nonfinite`` policy by hand.
The :class:`DistanceBackend` protocol collapses that into one
interface; ``repeatability``, ``drift``, ``criteria``, ``paramsearch``
and ``validator`` all route through it, and the scalar module survives
only as the property-test oracle (this module is its sole production
importer).

The default :class:`DispatchBackend` picks the implementation by
shape: single-pair calls go to the scalar reference (cheapest for one
pair, and bit-identical to the paper's equations), collection calls go
to the vectorized kernels: the compiled C merge or the Abel-summation
table kernel for uniform pairwise matrices, the prefix-integral
one-vs-many kernel for scoring against a reference (and for ragged
pairwise matrices, row by row), and the merged-grid row-wise kernel
for pairs that each carry their own reference.

The non-finite policy is a property of the backend *instance* --
``get_backend("reject")`` / ``get_backend("mask")`` -- resolved once
per batch from measurement provenance (see
:attr:`repro.core.measurement.MeasurementBatch.nonfinite_policy`), so
``nonfinite=`` keyword arguments no longer cross module boundaries.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

# The ONE production import of the scalar Eq. (2)-(4) reference; every
# other module reaches the scalar semantics through a backend.
from repro.core import distance as _scalar
from repro.core import fastdist as _fast
from repro.core.ecdf import as_sample
from repro.core.fastdist import SortedSampleBatch
from repro.core.measurement import (
    NONFINITE_MASK,
    NONFINITE_REJECT,
    MeasurementBatch,
)
from repro.exceptions import ReproError

__all__ = [
    "DistanceBackend",
    "ScalarBackend",
    "VectorizedBackend",
    "DispatchBackend",
    "get_backend",
    "default_backend",
    "backend_for",
    "cdf_distance",
    "similarity",
    "one_sided_distance",
    "one_sided_similarity",
    "pairwise_similarity_matrix",
]


@runtime_checkable
class DistanceBackend(Protocol):
    """What every distance implementation must provide.

    A backend owns its non-finite policy (``nonfinite``), so callers
    never pass one.  Collection entry points accept either raw samples
    or a batch previously returned by :meth:`prepare` -- preparing once
    and reusing the batch across kernels is the hot-path idiom.
    """

    nonfinite: str

    def clean(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        """Validate one sample under this backend's non-finite policy."""
        ...

    def prepare(self, samples: Iterable[np.ndarray | Sequence[float]], *,
                assume_sorted: bool = False) -> SortedSampleBatch:
        """Validate/sort many samples once, for reuse across kernels."""
        ...

    def cdf_distance(self, sample_a: np.ndarray | Sequence[float],
                     sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (2) distance for one pair."""
        ...

    def similarity(self, sample_a: np.ndarray | Sequence[float],
                   sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (3) similarity for one pair."""
        ...

    def one_sided_distance(self, observed: np.ndarray | Sequence[float],
                           reference: np.ndarray | Sequence[float], *,
                           higher_is_better: bool = True) -> float:
        """Eq. (4) one-sided distance for one pair."""
        ...

    def one_sided_similarity(self, observed: np.ndarray | Sequence[float],
                             reference: np.ndarray | Sequence[float], *,
                             higher_is_better: bool = True) -> float:
        """``1 -`` Eq. (4) for one pair."""
        ...

    def pairwise_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch) -> np.ndarray:
        """Full symmetric Eq. (3) matrix (unit diagonal)."""
        ...

    def one_vs_many_distances(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """Distance of every sample to one reference (online filter)."""
        ...

    def one_vs_many_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """Similarity of every sample to one reference."""
        ...

    def rowwise_similarities(self, rows_a: np.ndarray,
                             rows_b: np.ndarray, *,
                             signed_direction: int = 0,
                             assume_sorted: bool = False) -> np.ndarray:
        """Similarity of row ``i`` of ``rows_a`` vs row ``i`` of ``rows_b``."""
        ...


class _BackendBase:
    """Shared policy plumbing for the concrete backends."""

    def __init__(self, nonfinite: str = NONFINITE_REJECT) -> None:
        if nonfinite not in (NONFINITE_REJECT, NONFINITE_MASK):
            raise ReproError(
                f"unknown nonfinite policy {nonfinite!r}; expected "
                f"{NONFINITE_REJECT!r} or {NONFINITE_MASK!r}")
        self.nonfinite = nonfinite

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nonfinite={self.nonfinite!r})"

    def clean(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        """Validate one sample under this backend's non-finite policy."""
        return as_sample(values, nonfinite=self.nonfinite)

    def prepare(self, samples: Iterable[np.ndarray | Sequence[float]], *,
                assume_sorted: bool = False) -> SortedSampleBatch:
        """Validate/sort many samples once, for reuse across kernels."""
        if isinstance(samples, SortedSampleBatch):
            return samples
        if assume_sorted:
            return SortedSampleBatch.from_sorted(
                [np.asarray(s, dtype=float) for s in samples])
        return SortedSampleBatch.from_samples(samples,
                                              nonfinite=self.nonfinite)

    def _rows(self, rows: np.ndarray,
              assume_sorted: bool) -> SortedSampleBatch:
        """A uniform 2-D array of samples as a batch, without copies."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 2 and assume_sorted:
            sizes = np.full(arr.shape[0], arr.shape[1], dtype=np.intp)
            return SortedSampleBatch(arr, sizes)
        return self.prepare(list(arr), assume_sorted=assume_sorted)

    def one_sided_similarity(self, observed: np.ndarray | Sequence[float],
                             reference: np.ndarray | Sequence[float], *,
                             higher_is_better: bool = True) -> float:
        """``1 -`` Eq. (4) for one pair."""
        return 1.0 - self.one_sided_distance(  # type: ignore[attr-defined]
            observed, reference, higher_is_better=higher_is_better)

    def similarity(self, sample_a: np.ndarray | Sequence[float],
                   sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (3) similarity for one pair."""
        return 1.0 - self.cdf_distance(  # type: ignore[attr-defined]
            sample_a, sample_b)

    def one_vs_many_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """Similarity of every sample to one reference."""
        return 1.0 - self.one_vs_many_distances(  # type: ignore[attr-defined]
            samples, reference, signed_direction=signed_direction,
            assume_sorted=assume_sorted)

    def rowwise_similarities(self, rows_a: np.ndarray,
                             rows_b: np.ndarray, *,
                             signed_direction: int = 0,
                             assume_sorted: bool = False) -> np.ndarray:
        """Similarity of row ``i`` of ``rows_a`` vs row ``i`` of ``rows_b``.

        Eq. (3) by default; a non-zero ``signed_direction`` gives the
        one-sided Eq. (4) with ``rows_a`` the observed side -- the
        online filter's shape when every row has its own reference.
        """
        batch_a = self._rows(rows_a, assume_sorted)
        batch_b = self._rows(rows_b, assume_sorted)
        return 1.0 - _fast.batch_gap_integrals(
            batch_a, batch_b, signed_direction=signed_direction)


class ScalarBackend(_BackendBase):
    """The Eq. (2)--(4) reference semantics, one scalar call per pair.

    Exact (to the paper) and cheapest for a single pair; collection
    entry points fall back to Python loops, so only the property suite
    and single-pair dispatch should use it.
    """

    def cdf_distance(self, sample_a: np.ndarray | Sequence[float],
                     sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (2) distance for one pair."""
        return _scalar.cdf_distance(self.clean(sample_a),
                                    self.clean(sample_b))

    def one_sided_distance(self, observed: np.ndarray | Sequence[float],
                           reference: np.ndarray | Sequence[float], *,
                           higher_is_better: bool = True) -> float:
        """Eq. (4) one-sided distance for one pair."""
        return _scalar.one_sided_distance(
            self.clean(observed), self.clean(reference),
            higher_is_better=higher_is_better)

    def pairwise_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch) -> np.ndarray:
        """Full symmetric Eq. (3) matrix via the scalar pair loop."""
        if isinstance(samples, SortedSampleBatch):
            samples = [samples.row(i) for i in range(samples.n)]
        cleaned = [self.clean(s) for s in samples]
        return _scalar.pairwise_similarity_matrix_reference(cleaned)

    def one_vs_many_distances(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """Distance of every sample to one reference, one pair at a time."""
        ref = (np.asarray(reference, dtype=float) if assume_sorted
               else np.sort(self.clean(reference)))
        if isinstance(samples, SortedSampleBatch):
            rows = [samples.row(i) for i in range(samples.n)]
        elif assume_sorted:
            rows = [np.asarray(s, dtype=float) for s in samples]
        else:
            rows = [np.sort(self.clean(s)) for s in samples]
        return np.asarray([
            _scalar._cdf_gap_integral(row, ref,
                                      signed_direction=signed_direction,
                                      assume_sorted=True)
            for row in rows
        ], dtype=float)


class VectorizedBackend(_BackendBase):
    """The batched :mod:`repro.core.fastdist` kernels.

    ``fastdist`` itself picks the kernel by batch shape and host
    capability (see the module docstring); this class only adapts the
    protocol surface and applies the instance policy.
    """

    def cdf_distance(self, sample_a: np.ndarray | Sequence[float],
                     sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (2) distance for one pair, via the one-vs-many kernel."""
        batch = self.prepare([sample_a])
        return float(_fast.one_vs_many_distances(
            batch, self.clean(sample_b), nonfinite=self.nonfinite)[0])

    def one_sided_distance(self, observed: np.ndarray | Sequence[float],
                           reference: np.ndarray | Sequence[float], *,
                           higher_is_better: bool = True) -> float:
        """Eq. (4) one-sided distance for one pair."""
        direction = +1 if higher_is_better else -1
        batch = self.prepare([observed])
        return float(_fast.one_vs_many_distances(
            batch, self.clean(reference), signed_direction=direction,
            nonfinite=self.nonfinite)[0])

    def pairwise_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch) -> np.ndarray:
        """Full symmetric Eq. (3) matrix (unit diagonal)."""
        batch = self.prepare(samples)
        sims = _fast.pairwise_similarities(batch)
        np.fill_diagonal(sims, 1.0)
        return sims

    def one_vs_many_distances(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """Distance of every sample to one reference, in one kernel call."""
        batch = self.prepare(samples, assume_sorted=assume_sorted)
        return _fast.one_vs_many_distances(
            batch, reference, signed_direction=signed_direction,
            assume_sorted=assume_sorted, nonfinite=self.nonfinite)


class DispatchBackend(_BackendBase):
    """The production backend: route each call by its shape.

    Single-pair calls go to the scalar reference -- for one pair the
    scalar path is both the cheapest and the semantics the paper
    audits against -- while collection calls go to the vectorized
    kernels.  Consumers hold exactly one of these (via
    :func:`get_backend`) and never choose an implementation again.
    """

    def __init__(self, nonfinite: str = NONFINITE_REJECT) -> None:
        super().__init__(nonfinite)
        self._scalar = ScalarBackend(nonfinite)
        self._vector = VectorizedBackend(nonfinite)

    def cdf_distance(self, sample_a: np.ndarray | Sequence[float],
                     sample_b: np.ndarray | Sequence[float]) -> float:
        """Eq. (2) for one pair (scalar reference path)."""
        return self._scalar.cdf_distance(sample_a, sample_b)

    def one_sided_distance(self, observed: np.ndarray | Sequence[float],
                           reference: np.ndarray | Sequence[float], *,
                           higher_is_better: bool = True) -> float:
        """Eq. (4) for one pair (scalar reference path)."""
        return self._scalar.one_sided_distance(
            observed, reference, higher_is_better=higher_is_better)

    def pairwise_similarities(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch) -> np.ndarray:
        """Full Eq. (3) matrix (vectorized path)."""
        return self._vector.pairwise_similarities(samples)

    def one_vs_many_distances(
            self,
            samples: Iterable[np.ndarray | Sequence[float]]
            | SortedSampleBatch,
            reference: np.ndarray | Sequence[float], *,
            signed_direction: int = 0,
            assume_sorted: bool = False) -> np.ndarray:
        """One-vs-many distances (vectorized path)."""
        return self._vector.one_vs_many_distances(
            samples, reference, signed_direction=signed_direction,
            assume_sorted=assume_sorted)


_BACKENDS: dict[str, DispatchBackend] = {}


def get_backend(nonfinite: str = NONFINITE_REJECT) -> DispatchBackend:
    """The shared dispatch backend for one non-finite policy.

    Backends are stateless after construction, so one cached instance
    per policy serves the whole process.
    """
    backend = _BACKENDS.get(nonfinite)
    if backend is None:
        backend = DispatchBackend(nonfinite)
        _BACKENDS[nonfinite] = backend
    return backend


def default_backend() -> DispatchBackend:
    """The strict (``"reject"``) dispatch backend."""
    return get_backend(NONFINITE_REJECT)


def backend_for(batch: MeasurementBatch) -> DispatchBackend:
    """The backend matching one batch's resolved non-finite policy."""
    return get_backend(batch.nonfinite_policy)


def cdf_distance(sample_a: np.ndarray | Sequence[float],
                 sample_b: np.ndarray | Sequence[float]) -> float:
    """Eq. (2) under the default backend (public API convenience)."""
    return default_backend().cdf_distance(sample_a, sample_b)


def similarity(sample_a: np.ndarray | Sequence[float],
               sample_b: np.ndarray | Sequence[float]) -> float:
    """Eq. (3) under the default backend (public API convenience)."""
    return default_backend().similarity(sample_a, sample_b)


def one_sided_distance(observed: np.ndarray | Sequence[float],
                       reference: np.ndarray | Sequence[float], *,
                       higher_is_better: bool = True) -> float:
    """Eq. (4) under the default backend (public API convenience)."""
    return default_backend().one_sided_distance(
        observed, reference, higher_is_better=higher_is_better)


def one_sided_similarity(observed: np.ndarray | Sequence[float],
                         reference: np.ndarray | Sequence[float], *,
                         higher_is_better: bool = True) -> float:
    """``1 -`` Eq. (4) under the default backend."""
    return default_backend().one_sided_similarity(
        observed, reference, higher_is_better=higher_is_better)


def pairwise_similarity_matrix(
        samples: Iterable[np.ndarray | Sequence[float]]
        | SortedSampleBatch) -> np.ndarray:
    """Full symmetric Eq. (3) matrix under the default backend."""
    return default_backend().pairwise_similarities(samples)
