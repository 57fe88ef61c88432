"""Repeatability metrics (paper §3.4, "Repeatability").

The paper defines *repeatability* as "the arithmetic mean of pairwise
similarities from N different nodes or runs".  A benchmark whose
repeatability falls below the similarity threshold ``alpha`` cannot be
used for validation because natural variance would be indistinguishable
from defects.

:func:`pairwise_repeatability` is that definition; the paper's Table 5
and Table 6 evaluations use it.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastdist import pairwise_similarity_matrix
from repro.exceptions import InvalidSampleError

__all__ = ["pairwise_repeatability"]


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

