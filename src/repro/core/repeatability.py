"""Repeatability metrics (paper §3.4, "Repeatability").

The paper defines *repeatability* as "the arithmetic mean of pairwise
similarities from N different nodes or runs".  A benchmark whose
repeatability falls below the similarity threshold ``alpha`` cannot be
used for validation because natural variance would be indistinguishable
from defects.

Two estimators are provided:

* :func:`pairwise_repeatability` -- the definition above.
* :func:`criteria_repeatability` -- the variant used in the paper's
  Table 5 / Table 6 evaluation: the mean similarity between each sample
  and the learned criteria.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastdist import (
    SortedSampleBatch,
    one_vs_many_similarities,
    pairwise_similarity_matrix,
)
from repro.exceptions import InvalidSampleError

__all__ = ["pairwise_repeatability", "criteria_repeatability"]


def pairwise_repeatability(samples) -> float:
    """Arithmetic mean of all pairwise similarities among ``samples``.

    Needs at least two samples; the diagonal (self-similarity) is
    excluded so a perfectly repeatable benchmark scores exactly 1.0.
    """
    n = len(samples)
    if n < 2:
        raise InvalidSampleError("repeatability needs at least two samples")
    sims = pairwise_similarity_matrix(samples)
    off_diagonal_sum = float(sims.sum() - np.trace(sims))
    return off_diagonal_sum / (n * (n - 1))


def criteria_repeatability(samples, criteria) -> float:
    """Mean similarity between each sample and a fixed criteria sample."""
    if len(samples) == 0:
        raise InvalidSampleError("repeatability needs at least one sample")
    batch = SortedSampleBatch.from_samples(samples)
    return float(np.mean(one_vs_many_similarities(batch, criteria)))
