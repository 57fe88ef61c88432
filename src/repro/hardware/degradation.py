"""Gradual hardware degradation (paper §2.2, Figure 4).

The paper's key reliability observation: the mean duration between a
node's ``i``-th and ``(i+1)``-th incidents *shrinks* as incidents
accumulate -- from 719.4 hours before the first incident to 151.7
hours by the twentieth -- because partial repairs restore only the
redundancy that broke, not overall margin.

:class:`WearModel` captures that with a power-law hazard

``rate(i) = rate_0 * (1 + i) ** gamma``

where ``i`` is the node's historical incident count.  The default
``gamma`` is calibrated so ``MTBI(0) / MTBI(19)`` matches the paper's
``719.4 / 151.7`` ratio.  The model also supplies per-category hazard
shares and job-level time-to-failure (Figure 4 right).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.components import IncidentCategory

__all__ = ["WearModel", "DEFAULT_CATEGORY_WEIGHTS", "weighted_cdf",
           "draw_weighted"]


def weighted_cdf(weights) -> list[float]:
    """The CDF ``Generator.choice(n, p=weights)`` computes and searches,
    for ``weights`` that sum to 1; build it once per distribution."""
    weights = np.asarray(weights, dtype=float)
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_weighted(cdf: list[float], rng: np.random.Generator) -> int:
    """The index ``rng.choice(n, p=...)`` draws, from the same uniform."""
    return bisect_right(cdf, rng.random())


#: Ticket-category mix behind Figure 1, normalized at construction.
DEFAULT_CATEGORY_WEIGHTS: dict[IncidentCategory, float] = {
    IncidentCategory.GPU: 0.30,
    IncidentCategory.NETWORK: 0.22,
    IncidentCategory.GPU_MEMORY: 0.13,
    IncidentCategory.CPU_MEMORY: 0.09,
    IncidentCategory.SOFTWARE: 0.08,
    IncidentCategory.PCIE: 0.06,
    IncidentCategory.NVLINK: 0.05,
    IncidentCategory.THERMAL: 0.04,
    IncidentCategory.DISK: 0.03,
}


@dataclass(frozen=True)
class WearModel:
    """Power-law incident hazard as a function of incident history.

    Attributes
    ----------
    base_mtbi_hours:
        Expected time to the *first* incident of a fresh node
        (paper: 719.4 h).
    gamma:
        Hazard growth exponent; the default reproduces the paper's
        20th-incident MTBI of 151.7 h.
    category_weights:
        Relative share of each incident category.
    """

    base_mtbi_hours: float = 719.4
    gamma: float = field(default=None)
    category_weights: dict[IncidentCategory, float] = field(default=None)
    _category_cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_mtbi_hours <= 0:
            raise ValueError("base_mtbi_hours must be positive")
        if self.gamma is None:
            # MTBI(i) = base / (1 + i)^gamma; match MTBI(19) = 151.7 h.
            target_ratio = 719.4 / 151.7
            object.__setattr__(
                self, "gamma", float(np.log(target_ratio) / np.log(20.0))
            )
        weights = self.category_weights or dict(DEFAULT_CATEGORY_WEIGHTS)
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("category weights must sum to a positive value")
        normalized = {cat: w / total for cat, w in weights.items()}
        object.__setattr__(self, "category_weights", normalized)
        object.__setattr__(self, "_category_cdf",
                           weighted_cdf(list(normalized.values())))

    def incident_rate(self, incident_count: int) -> float:
        """Hazard (incidents/hour) for a node with ``incident_count``
        historical incidents."""
        count = max(int(incident_count), 0)
        return (1.0 + count) ** self.gamma / self.base_mtbi_hours

    def mean_time_between_incidents(self, incident_count: int) -> float:
        """Expected gap between the ``i``-th and ``(i+1)``-th incident."""
        return 1.0 / self.incident_rate(incident_count)

    def sample_time_to_incident(self, incident_count: int,
                                rng: np.random.Generator) -> float:
        """Draw an exponential time to the next incident (hours)."""
        return float(rng.exponential(self.mean_time_between_incidents(incident_count)))

    def sample_category(self, rng: np.random.Generator) -> IncidentCategory:
        """Draw the ticket category of the next incident."""
        categories = list(self.category_weights)
        return categories[draw_weighted(self._category_cdf, rng)]

    def job_time_to_failure(self, node_count: int, incident_count: int) -> float:
        """Figure 4 (right): expected time to first failure of a
        gang-scheduled job.

        Assuming every node in the job has had ``incident_count``
        incidents and fails independently at the constant per-node
        rate, the job's failure rate is the sum of the node rates.
        """
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        return self.mean_time_between_incidents(incident_count) / node_count
