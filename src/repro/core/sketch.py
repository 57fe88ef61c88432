"""Mergeable equi-depth quantile sketches for bounded-memory windows.

The incremental criteria engine (``repro.core.incremental``) clusters
the fleet on summaries instead of raw windows.  Each node window is
summarized by a *k-point equi-depth sketch*: the sorted
values at the midpoint quantiles ``(j + 0.5) / k`` with the true
minimum and maximum preserved.  A sketch is itself a plain sorted
sample, so every existing Eq. 2-4 kernel in :mod:`repro.core.fastdist`
evaluates sketch-to-sketch distances unchanged -- no parallel distance
implementation to keep honest.

Design properties
-----------------
* **Bounded memory** -- ``min(m, k)`` float64 values per window
  regardless of window length ``m``; a window shorter than ``k`` is
  stored exactly (the sketch is the identity, zero approximation
  error).
* **Mergeable** -- :func:`merge_sketches` pools sketches under
  count-proportional weights, which is exactly how the hybrid
  centroid pools raw survivor windows; the pooled sketch approximates
  the pooled raw sample the same way a window sketch approximates its
  window.
* **Bounded distance error** -- the ECDF of a sketch tracks the ECDF
  of its window within ``O(1/k)`` in sup norm, so the normalized gap
  integral of Eq. 2 between two sketches deviates from the exact
  distance by at most :func:`distance_bound` (property-tested against
  the scalar oracle in ``tests/test_sketch.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_SKETCH_SIZE",
    "distance_bound",
    "merge_sketches",
    "sketch_rows",
    "sketch_sorted",
]

DEFAULT_SKETCH_SIZE = 128

# Empirical-with-margin constant for the Eq. 2 distance error between
# sketch-to-sketch and raw-to-raw evaluation.  The sup-norm ECDF error
# of an equi-depth sketch is ~1.5/k; the normalized gap integral
# amplifies it by a small constant in the region where the denominator
# max(F_a, F_b) is moderate and contributes nothing where both ECDFs
# are still zero.  The hypothesis suite in tests/test_sketch.py pins
# the realized error well below this bound across uniform, normal,
# lognormal, bimodal and heavy-duplicate windows.
_BOUND_FACTOR = 4.0


def distance_bound(k: int) -> float:
    """Upper bound on ``|d_sketch - d_exact|`` for k-point sketches.

    Valid for Eq. 2 distances (and therefore Eq. 3 similarities, which
    are ``1 - d``) between any two windows summarized at sketch size
    ``k``.  Windows with at most ``k`` values are represented exactly
    and contribute no error at all; the bound is driven by the larger
    approximation of the two sides.
    """
    if k < 2:
        raise ValueError(f"sketch size must be >= 2, got {k}")
    return _BOUND_FACTOR / float(k)


def sketch_sorted(values: np.ndarray, k: int = DEFAULT_SKETCH_SIZE) -> np.ndarray:
    """Equi-depth sketch of an already-sorted 1-D window.

    Returns a sorted float64 array of ``min(len(values), k)`` points:
    the midpoint-quantile order statistics with the first and last
    entries pinned to the window's true min and max (the Eq. 2 span
    normalization depends on the extremes, so they are never smoothed
    away).  Identity when the window already fits in ``k`` points.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if m == 0:
        raise ValueError("cannot sketch an empty window")
    if k < 2:
        raise ValueError(f"sketch size must be >= 2, got {k}")
    if m <= k:
        return values.copy()
    idx = ((np.arange(k) + 0.5) * m / k).astype(np.intp)
    out = values[np.minimum(idx, m - 1)]
    out[0] = values[0]
    out[-1] = values[-1]
    return out


def sketch_rows(data: np.ndarray, k: int = DEFAULT_SKETCH_SIZE) -> np.ndarray:
    """Vectorized :func:`sketch_sorted` over uniform sorted rows.

    ``data`` is an ``(n, m)`` array whose rows are each sorted
    ascending.  Returns an ``(n, min(m, k))`` array of per-row
    sketches -- a single fancy-index gather, which is what keeps
    full-fleet sketch construction out of Python loops.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"sketch_rows needs a 2-D array, got ndim={data.ndim}")
    n, m = data.shape
    if m == 0:
        raise ValueError("cannot sketch empty windows")
    if m <= k:
        return data.copy()
    idx = ((np.arange(k) + 0.5) * m / k).astype(np.intp)
    out = data[:, np.minimum(idx, m - 1)]
    out[:, 0] = data[:, 0]
    out[:, -1] = data[:, -1]
    return out


def merge_sketches(rows, counts, k: int = DEFAULT_SKETCH_SIZE) -> np.ndarray:
    """Pool sketches into one sketch of at most ``k`` points.

    ``rows`` is a sequence of sorted sketch arrays; ``counts[i]`` is
    the number of raw observations row ``i`` summarizes, so each of
    its points carries weight ``counts[i] / len(rows[i])``.  The merge
    is the weighted equi-depth selection over the combined point set:
    exactly the sketch of the pooled raw sample, up to the input
    sketches' own resolution.  Used by the hybrid centroid to build
    the pooled criteria from survivor sketches without touching raw
    windows.
    """
    if len(rows) == 0:
        raise ValueError("cannot merge zero sketches")
    if len(rows) != len(counts):
        raise ValueError("rows and counts must have the same length")
    if k < 2:
        raise ValueError(f"sketch size must be >= 2, got {k}")
    arrays = [np.asarray(row, dtype=float) for row in rows]
    sizes = np.fromiter((a.size for a in arrays), dtype=np.intp,
                        count=len(arrays))
    counts_arr = np.asarray(counts, dtype=float)
    if (sizes == 0).any():
        raise ValueError("cannot merge an empty sketch")
    if (counts_arr < sizes).any():
        raise ValueError("a sketch cannot claim fewer observations "
                         "than it has points")
    per_point = counts_arr / sizes
    if np.ptp(per_point) == 0.0:
        # Uniform per-point weights (the fleet-survivor case: equal
        # window lengths, equal sketch sizes): the weighted equi-depth
        # selection collapses to a plain sort + midpoint gather.
        points = np.sort(np.concatenate(arrays))
        return sketch_sorted(points, k)
    weight = np.concatenate([np.full(a.size, w)
                             for a, w in zip(arrays, per_point)])
    points = np.concatenate(arrays)
    order = np.argsort(points, kind="stable")
    points = points[order]
    weight = weight[order]
    if points.size <= k:
        return points.copy()
    cum = np.cumsum(weight)
    total = cum[-1]
    targets = (np.arange(k) + 0.5) * total / k
    idx = np.minimum(np.searchsorted(cum, targets, side="left"),
                     points.size - 1)
    out = points[idx]
    out[0] = points[0]
    out[-1] = points[-1]
    return out

