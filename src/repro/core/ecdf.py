"""Empirical cumulative distribution functions (ECDFs).

The Validator compares benchmark results in *distribution space*
(paper §3.4): a benchmark run yields a sample -- either a single scalar
(micro-benchmarks) or a time series of step metrics (end-to-end
benchmarks) -- and all comparisons are made between the empirical CDFs
of those samples.  This module provides a small, allocation-conscious
ECDF representation used by :mod:`repro.core.distance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidSampleError

__all__ = ["Ecdf", "as_sample", "flush_subnormal"]

#: Smallest positive normal float64.  Below it a value keeps no relative
#: precision, so a sample lying wholly within ``(-TINY, TINY)`` has gap
#: integrals that round to nothing.
TINY = float(np.finfo(float).tiny)


def as_sample(values, *, nonfinite: str = "reject") -> np.ndarray:
    """Coerce ``values`` into a validated 1-D float array.

    ``nonfinite`` selects the policy for NaN/Inf entries:

    * ``"reject"`` (default) -- raise :class:`InvalidSampleError`,
      which is how crashed or hung benchmark runs surface to the
      Validator;
    * ``"mask"`` -- drop the non-finite entries and keep the rest, the
      dirty-telemetry policy (one corrupted measurement must not void a
      whole window).  An all-non-finite sample still raises: a window
      with nothing left carries no signal at all.

    Raises :class:`InvalidSampleError` when the sample is empty (under
    either policy).
    """
    if nonfinite not in ("reject", "mask"):
        raise ValueError(f"unknown non-finite policy {nonfinite!r}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidSampleError("benchmark sample is empty")
    finite = np.isfinite(arr)
    if not np.all(finite):
        if nonfinite == "reject":
            raise InvalidSampleError(
                "benchmark sample contains non-finite values")
        arr = arr[finite]
        if arr.size == 0:
            raise InvalidSampleError(
                "benchmark sample is entirely non-finite")
    return arr


def flush_subnormal(sorted_sample: np.ndarray) -> np.ndarray:
    """``sorted_sample`` as zeros when all of it lies below :data:`TINY`.

    Eq. (2) is scale-free, but a pair whose union support spans less
    than the smallest normal float has integrals and spans made of a
    few subnormal units: the scalar path read ``[-5e-324]`` vs ``[0,
    -5e-324]`` as distance 0 and the batch kernels as 1.  Such a sample
    is scored as all zeros by both.  A sample with any normal-magnitude
    value is returned as is; its span is at least :data:`TINY`, which
    keeps the rounding of its integrals at float64 epsilon.
    """
    lo, hi = sorted_sample[0], sorted_sample[-1]
    if -TINY < lo and hi < TINY and (lo != 0.0 or hi != 0.0):
        return np.zeros_like(sorted_sample)
    return sorted_sample


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a 1-D sample.

    Attributes
    ----------
    points:
        The sorted sample values (ascending, duplicates preserved).
    """

    points: np.ndarray

    @classmethod
    def from_sample(cls, values) -> "Ecdf":
        """Build an ECDF from raw benchmark output."""
        return cls(points=np.sort(as_sample(values)))

    @property
    def n(self) -> int:
        """Number of observations behind the ECDF."""
        return int(self.points.size)

    @property
    def support(self) -> tuple[float, float]:
        """``(min, max)`` of the observed sample."""
        return float(self.points[0]), float(self.points[-1])

    def evaluate(self, xs) -> np.ndarray:
        """Evaluate ``F(x) = P(X <= x)`` at each point of ``xs``.

        The ECDF is right-continuous: ``F(x)`` counts observations
        less than or equal to ``x``.
        """
        xs = np.asarray(xs, dtype=float)
        counts = np.searchsorted(self.points, xs, side="right")
        return counts / self.points.size

    def quantile(self, q: float) -> float:
        """Return the empirical ``q``-quantile (linear interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.points, q))

    def mean(self) -> float:
        """Arithmetic mean of the underlying sample."""
        return float(self.points.mean())
