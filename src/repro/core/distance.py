"""The scalar Eq. (2)--(4) reference oracle.

This module is the auditable, paper-faithful definition of the
distance math and nothing more.  It serves single pairs -- the public
``repro.cdf_distance`` / ``similarity`` / ``one_sided_*`` names and
drift detection's pooled distance -- while every collection goes
through the batch kernels of :mod:`repro.core.fastdist`.  The
property suite under ``tests/property/`` compares those kernels
against these functions, which is why they stay scalar, short, and
dependency-free.

Implements Equations (2)--(4) of the paper:

* :func:`cdf_distance` -- Eq. (2), the absolute integral of the relative
  gap between two empirical CDFs.
* :func:`similarity` -- Eq. (3), ``1 - d``.
* :func:`one_sided_distance` / :func:`one_sided_similarity` -- Eq. (4),
  the filtering distance that only penalizes the *worse* direction
  (lower throughput or higher latency).

Normalization
-------------
Eq. (2) integrates ``|F1(x) - F2(x)| / max(F1(x), F2(x))`` over the
metric axis, which is not inherently bounded.  The paper states the
distance is "normalized to the [0, 1] range"; we realize that by
integrating over ``[lo, hi]`` -- where ``lo = min(0, smallest
observation)`` and ``hi`` is the largest observation across both
samples -- and dividing by ``hi - lo``.  The integrand is always in
``[0, 1]`` and vanishes outside the union support, so the result is in
``[0, 1]``, scale-invariant, and degenerates to the *relative
regression* for single-value samples: a node measuring ``90`` against a
criteria of ``100`` gets ``d = 0.1`` and similarity ``0.9``.

Metric polarity
---------------
For throughput-like metrics (higher is better) a defective node's CDF
sits *left* of (above) the criteria CDF, so the one-sided numerator is
``max(0, F_obs - F_ref)``.  For latency-like metrics the defect shifts
the CDF right, and the numerator flips to ``max(0, F_ref - F_obs)``
(the paper's "elsewise replace max with min").  Pass
``higher_is_better=False`` for the latter.
"""

from __future__ import annotations

import numpy as np

from repro.core.ecdf import as_sample, flush_subnormal

__all__ = [
    "cdf_distance",
    "similarity",
    "one_sided_distance",
    "one_sided_similarity",
    "pairwise_similarity_matrix_reference",
]


def _cdf_gap_integral(sample_a, sample_b, *, signed_direction: int,
                      assume_sorted: bool = False) -> float:
    """Shared integration core for Eq. (2) and Eq. (4).

    ``signed_direction`` selects the numerator:

    * ``0``  -> ``|F_a - F_b|``            (symmetric, Eq. 2)
    * ``+1`` -> ``max(0, F_a - F_b)``      (penalize ``a`` left of ``b``)
    * ``-1`` -> ``max(0, F_b - F_a)``      (penalize ``a`` right of ``b``)

    ``assume_sorted`` skips the validation/sort for callers that
    already hold sorted samples (batch loops used to re-sort every
    pair).
    """
    if assume_sorted:
        a = np.asarray(sample_a, dtype=float)
        b = np.asarray(sample_b, dtype=float)
    else:
        a = np.sort(as_sample(sample_a))
        b = np.sort(as_sample(sample_b))
    a, b = flush_subnormal(a), flush_subnormal(b)

    # Breakpoints of the piecewise-constant CDFs.
    xs = np.union1d(a, b)
    if xs.size == 1:
        return 0.0  # identical degenerate samples

    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size

    # On the half-open interval [xs[i], xs[i+1]) both CDFs are constant
    # at their value in xs[i].
    widths = np.diff(xs)
    fa, fb = fa[:-1], fb[:-1]
    denom = np.maximum(fa, fb)

    if signed_direction == 0:
        numer = np.abs(fa - fb)
    elif signed_direction > 0:
        numer = np.maximum(0.0, fa - fb)
    else:
        numer = np.maximum(0.0, fb - fa)

    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(denom > 0.0, numer / denom, 0.0)
    integral = float(np.dot(integrand, widths))

    lo = min(0.0, float(xs[0]))
    hi = float(xs[-1])
    span = hi - lo
    if span <= 0.0:
        # All observations identical and non-positive; the CDFs coincide.
        return 0.0
    return min(1.0, integral / span)


def cdf_distance(sample_a, sample_b) -> float:
    """Eq. (2): normalized absolute integral gap between two ECDFs.

    Symmetric, in ``[0, 1]``, and zero iff the two empirical
    distributions coincide.
    """
    return _cdf_gap_integral(sample_a, sample_b, signed_direction=0)


def similarity(sample_a, sample_b) -> float:
    """Eq. (3): ``1 - cdf_distance``."""
    return 1.0 - cdf_distance(sample_a, sample_b)


def one_sided_distance(observed, reference, *, higher_is_better: bool = True) -> float:
    """Eq. (4): distance that only counts under-performance.

    ``observed`` is the runtime sample, ``reference`` the offline
    criteria.  The result is at most :func:`cdf_distance` of the same
    pair, and zero when the observed sample is at least as good as the
    reference everywhere.
    """
    direction = +1 if higher_is_better else -1
    return _cdf_gap_integral(observed, reference, signed_direction=direction)


def one_sided_similarity(observed, reference, *,
                         higher_is_better: bool = True) -> float:
    """``1 - one_sided_distance``; compared against the threshold alpha."""
    return 1.0 - one_sided_distance(observed, reference,
                                    higher_is_better=higher_is_better)


def pairwise_similarity_matrix_reference(samples) -> np.ndarray:
    """Scalar-loop Eq. (3) matrix: the reference the kernels must match.

    One :func:`_cdf_gap_integral` call per pair over presorted samples
    -- semantically the original implementation (minus its double
    sort), kept as the comparison baseline for the property suite.
    """
    sorted_samples = [np.sort(as_sample(s)) for s in samples]
    n = len(sorted_samples)
    sims = np.ones((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            sim = 1.0 - _cdf_gap_integral(
                sorted_samples[i], sorted_samples[j], signed_direction=0,
                assume_sorted=True,
            )
            sims[i, j] = sims[j, i] = sim
    return sims
