"""repro.quality -- measurement-plane robustness layer.

Three lines of defence between raw telemetry and fleet-wide verdicts:

1. **Sanitization at ingestion** (:mod:`repro.quality.sanitize`):
   per-(benchmark, metric) plausibility schemas quarantine implausible
   samples with provenance records instead of raising.
2. **Contamination-resistant learning** lives in
   :mod:`repro.core.criteria`: trimmed medoid aggregation, and the
   ``nonfinite="mask"`` policy that drops NaN/Inf inside a window.
3. **Guarded criteria rollout** (:mod:`repro.quality.rollout`):
   shadow-evaluation of freshly learned criteria against the previous
   measurement window before activation, with journaled rollback.
"""

from repro.quality.rollout import (
    RolloutConfig,
    RolloutDecision,
    evaluate_rollout,
)
from repro.quality.sanitize import (
    FAULT_NON_FINITE,
    FAULT_OUT_OF_RANGE,
    FAULT_TRUNCATED,
    FAULT_UNIT_SCALE,
    QuarantineRecord,
    SanitizedWindow,
    Sanitizer,
    TelemetryLedger,
    sanitize_window,
)
from repro.quality.schema import MetricSchema, schemas_for_suite

__all__ = [
    "MetricSchema",
    "schemas_for_suite",
    "FAULT_NON_FINITE",
    "FAULT_OUT_OF_RANGE",
    "FAULT_TRUNCATED",
    "FAULT_UNIT_SCALE",
    "QuarantineRecord",
    "SanitizedWindow",
    "Sanitizer",
    "TelemetryLedger",
    "sanitize_window",
    "RolloutConfig",
    "RolloutDecision",
    "evaluate_rollout",
]
