"""Guarded criteria rollout: shadow-evaluate before activation.

Criteria are learned without ground truth (paper §3.4), so a poisoned
learning pass -- contaminated telemetry, a bad driver rollout skewing
half the fleet's windows, an operator learning from too few nodes --
produces criteria that look perfectly well-formed and then evict
healthy nodes fleet-wide.  The guard treats every freshly learned
criteria as a *candidate* and walks it through a small state machine:

::

    CANDIDATE --shadow-eval--> ACTIVE        (accepted; journaled)
        |
        +---------------------> ROLLED_BACK  (rejected; previous
                                              criteria stays active,
                                              rollback journaled)

The shadow evaluation replays the one-sided online filter
(:func:`repro.core.drift.shadow_evictions`) over the *previous
measurement window's* per-node samples, under both the candidate and
the currently active criteria, deciding each window exactly as
:meth:`~repro.core.validator.Validator.check_results` would.  Scoring
against the previous window (not the one the candidate was learned
from) is deliberate: a coherently poisoned learning pass produces
criteria that agree perfectly with their own windows, and only the
last trusted window exposes the skew.  If the candidate's predicted
fleet-wide eviction rate jumps past the active rate by more than the
configured budget (or past the bootstrap cap when no criteria are
active yet), the candidate is rejected.

The service integration (:meth:`repro.service.controlplane.
ValidationService.learn_criteria`) applies the decision: rejected
candidates are rolled back to the previous :class:`MetricCriteria`
object and the rollback is journaled, so a restart recovers the
*active* criteria, never the poisoned candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.drift import shadow_evictions
from repro.exceptions import ReproError

__all__ = ["RolloutConfig", "RolloutDecision", "evaluate_rollout"]


@dataclass(frozen=True)
class RolloutConfig:
    """Guard thresholds for criteria activation.

    Attributes
    ----------
    max_eviction_jump:
        How far (in fleet fraction) the candidate's predicted eviction
        rate may exceed the active criteria's before the candidate is
        rejected.
    max_bootstrap_eviction_rate:
        Absolute cap applied when no criteria are active yet (first
        learn): a bootstrap candidate that would immediately evict more
        than this fraction of the fleet is itself suspect.
    min_shadow_windows:
        Below this many shadow windows the guard abstains and accepts
        (there is not enough data to out-vote the learner).
    """

    max_eviction_jump: float = 0.10
    max_bootstrap_eviction_rate: float = 0.50
    min_shadow_windows: int = 2

    def __post_init__(self):
        if not 0.0 <= self.max_eviction_jump <= 1.0:
            raise ReproError(
                f"max_eviction_jump must be in [0, 1], got "
                f"{self.max_eviction_jump}")
        if not 0.0 <= self.max_bootstrap_eviction_rate <= 1.0:
            raise ReproError(
                f"max_bootstrap_eviction_rate must be in [0, 1], got "
                f"{self.max_bootstrap_eviction_rate}")
        if self.min_shadow_windows < 1:
            raise ReproError("min_shadow_windows must be at least 1")


@dataclass(frozen=True)
class RolloutDecision:
    """Outcome of shadow-evaluating one candidate criteria.

    ``baseline_rate`` is ``None`` on bootstrap (no active criteria to
    compare against).  ``learn_path`` records which engine path
    produced the candidate (``"exact"``, ``"full"``, or ``""`` when
    the classic learner ran) -- the control plane threads it through
    so a rollback can be attributed to the approximation that produced
    the candidate.
    """

    benchmark: str
    metric: str
    accepted: bool
    candidate_rate: float
    baseline_rate: float | None
    reason: str
    learn_path: str = ""
    sku: str = "unknown"


def evaluate_rollout(windows, candidate, previous, *, alpha: float,
                     higher_is_better: bool = True,
                     config: RolloutConfig | None = None,
                     benchmark: str = "", metric: str = "",
                     learn_path: str = "",
                     sku: str = "unknown") -> RolloutDecision:
    """Shadow-evaluate one candidate criteria against one window set.

    ``windows`` are the shadow set's per-node samples -- the last
    *trusted* measurement window when updating existing criteria, or
    the candidate's own learning windows on bootstrap;  ``candidate``
    is the freshly learned criteria sample and ``previous`` the
    currently active one (``None`` on bootstrap).
    """
    config = config or RolloutConfig()
    windows = list(windows)
    if len(windows) < config.min_shadow_windows:
        return RolloutDecision(
            benchmark=benchmark, metric=metric, accepted=True,
            candidate_rate=0.0, baseline_rate=None,
            reason=f"abstained: only {len(windows)} shadow window(s)",
            learn_path=learn_path, sku=sku)

    # One batch, two references: the candidate and the active criteria
    # are scored against the same cleaned, sorted shadow windows.
    references = [candidate] if previous is None else [candidate, previous]
    rates = [np.count_nonzero(evicted) / len(windows)
             for evicted in shadow_evictions(
                 windows, references, alpha=alpha,
                 higher_is_better=higher_is_better)]
    candidate_rate = rates[0]
    if previous is None:
        accepted = candidate_rate <= config.max_bootstrap_eviction_rate
        reason = (
            "bootstrap within cap" if accepted else
            f"bootstrap candidate would evict {candidate_rate:.0%} of the "
            f"fleet (cap {config.max_bootstrap_eviction_rate:.0%})")
        return RolloutDecision(
            benchmark=benchmark, metric=metric, accepted=accepted,
            candidate_rate=candidate_rate, baseline_rate=None, reason=reason,
            learn_path=learn_path, sku=sku)

    baseline_rate = rates[1]
    accepted = candidate_rate <= baseline_rate + config.max_eviction_jump
    reason = (
        "within eviction budget" if accepted else
        f"predicted eviction rate jumped {baseline_rate:.0%} -> "
        f"{candidate_rate:.0%} (budget +{config.max_eviction_jump:.0%})")
    return RolloutDecision(
        benchmark=benchmark, metric=metric, accepted=accepted,
        candidate_rate=candidate_rate, baseline_rate=baseline_rate,
        reason=reason, learn_path=learn_path, sku=sku)
