"""ANUBIS/SuperBench core: Validator, Selector and the system facade.

Exports resolve lazily (PEP 562): importing one core submodule -- say
:mod:`repro.core.measurement` from the benchsuite layer -- no longer
pulls the whole validator stack, which is what lets lower layers
depend on the measurement spine without an import cycle.

Distance names (``cdf_distance``, ``similarity``, ``one_sided_*``,
``pairwise_similarity_matrix``) resolve to :mod:`repro.core.backend`,
the unified dispatch layer; the scalar :mod:`repro.core.distance`
module is the property-test oracle only.
"""

from __future__ import annotations

import importlib

# Export name -> defining submodule.  Resolved on first attribute
# access; ``from repro.core import X`` works unchanged.
_EXPORTS = {
    # backend (the unified distance dispatch; also the public homes of
    # the Eq. 2-4 entry points)
    "DistanceBackend": "backend",
    "ScalarBackend": "backend",
    "VectorizedBackend": "backend",
    "DispatchBackend": "backend",
    "get_backend": "backend",
    "default_backend": "backend",
    "backend_for": "backend",
    "cdf_distance": "backend",
    "similarity": "backend",
    "one_sided_distance": "backend",
    "one_sided_similarity": "backend",
    "pairwise_similarity_matrix": "backend",
    # measurement spine
    "SCHEMA_VERSION": "measurement",
    "NONFINITE_REJECT": "measurement",
    "NONFINITE_MASK": "measurement",
    "MetricWindow": "measurement",
    "MeasurementBatch": "measurement",
    "PipelineStats": "measurement",
    # criteria
    "CriteriaResult": "criteria",
    "learn_criteria": "criteria",
    # scalar oracle (kept importable for the property suite)
    "pairwise_similarity_matrix_reference": "distance",
    # drift
    "DriftReport": "drift",
    "evaluate_drift": "drift",
    # ecdf
    "Ecdf": "ecdf",
    "as_sample": "ecdf",
    # fastdist kernels
    "SortedSampleBatch": "fastdist",
    "batch_gap_integrals": "fastdist",
    "one_vs_many_distances": "fastdist",
    "one_vs_many_similarities": "fastdist",
    "pairwise_distances": "fastdist",
    "pairwise_similarities": "fastdist",
    # persistence
    "apply_criteria_payload": "persistence",
    "criteria_payload": "persistence",
    "load_criteria": "persistence",
    "save_criteria": "persistence",
    # paramsearch
    "estimate_period": "paramsearch",
    "search_window": "paramsearch",
    "seasonal_decompose": "paramsearch",
    "tune_window_across_nodes": "paramsearch",
    # repeatability
    "criteria_repeatability": "repeatability",
    "pairwise_repeatability": "repeatability",
    # selection
    "CoverageTable": "selection",
    "SelectionResult": "selection",
    "joint_incident_probability": "selection",
    "select_benchmarks": "selection",
    "select_benchmarks_exhaustive": "selection",
    # selector
    "NodeStatus": "selector",
    "Selector": "selector",
    # system facade
    "FULL_VALIDATION_KINDS": "system",
    "Anubis": "system",
    "EventKind": "system",
    "ValidationEvent": "system",
    "ValidationOutcome": "system",
    "ValidationPlan": "system",
    # validator
    "MetricCriteria": "validator",
    "ValidationReport": "validator",
    "Validator": "validator",
    "Violation": "validator",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: resolve each export once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
