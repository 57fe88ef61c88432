"""Synthetic trace generation (substitute for the paper's Azure traces).

Generates the two trace families §5.1 collects from production:

* :func:`generate_incident_trace` -- per-node incident event streams
  whose hazard follows the :class:`~repro.hardware.degradation.WearModel`
  (incident rate grows with historical incident count, Figure 4) plus a
  mild unobserved per-node frailty.  Troubleshooting durations follow
  the empirical Figure 2 mixture (38.1% above one day, 10.3% above two
  weeks).
* :func:`generate_allocation_trace` -- a Poisson stream of gang-
  scheduled job requests with power-of-two node counts and log-normal
  durations, shaped like published GPU-cluster traces.

Incident *components* (Figure 1) are drawn per category so the ticket
mix can be histogrammed the same way the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.components import IncidentCategory
from repro.hardware.degradation import WearModel, draw_weighted, weighted_cdf
from repro.simulation.traces import (
    AllocationRecord,
    AllocationTrace,
    IncidentRecord,
    IncidentTrace,
)

__all__ = [
    "TTR_SEGMENTS",
    "sample_time_to_resolve",
    "generate_incident_trace",
    "generate_allocation_trace",
    "CATEGORY_COMPONENTS",
]

#: Figure 2 troubleshooting-duration mixture: (low_h, high_h, probability).
#: P(>24h) = 0.381 and P(>336h) = 0.103 match the paper's quoted tail.
TTR_SEGMENTS: tuple[tuple[float, float, float], ...] = (
    (0.25, 1.0, 0.080),
    (1.0, 6.0, 0.220),
    (6.0, 24.0, 0.319),
    (24.0, 168.0, 0.200),
    (168.0, 336.0, 0.078),
    (336.0, 720.0, 0.103),
)

#: Incident source components per category (Figure 1 granularity).
CATEGORY_COMPONENTS: dict[IncidentCategory, tuple[str, ...]] = {
    IncidentCategory.GPU: ("gpu_sm", "gpu_driver_xid", "gpu_power"),
    IncidentCategory.GPU_MEMORY: ("hbm_row_remap", "hbm_ecc"),
    IncidentCategory.NETWORK: ("ib_link", "ib_hca", "tor_uplink"),
    IncidentCategory.CPU_MEMORY: ("dram_dimm", "cpu_core"),
    IncidentCategory.PCIE: ("pcie_lane",),
    IncidentCategory.NVLINK: ("nvlink_lane", "nvswitch"),
    IncidentCategory.DISK: ("nvme_ssd",),
    IncidentCategory.SOFTWARE: ("driver_stack", "firmware"),
    IncidentCategory.THERMAL: ("cooling_airflow",),
}


_TTR_PROBS = np.array([seg[2] for seg in TTR_SEGMENTS])
_TTR_CDF = weighted_cdf(_TTR_PROBS / _TTR_PROBS.sum())
_TTR_LOG_BOUNDS = tuple((np.log(low), np.log(high))
                        for low, high, _ in TTR_SEGMENTS)


def sample_time_to_resolve(rng: np.random.Generator) -> float:
    """Draw one troubleshooting duration (hours) from the Figure 2 mix.

    Log-uniform within each segment so the short segments are not
    artificially flat.
    """
    low, high = _TTR_LOG_BOUNDS[draw_weighted(_TTR_CDF, rng)]
    return float(np.exp(rng.uniform(low, high)))


def expected_time_to_resolve() -> float:
    """Mean of the Figure 2 mixture, in hours (the paper rounds this
    to ~1.5 days for the no-validation repair duration)."""
    total = 0.0
    for low, high, prob in TTR_SEGMENTS:
        # Mean of a log-uniform on [low, high].
        mean = (high - low) / (np.log(high) - np.log(low))
        total += prob * mean
    return float(total)


#: Telemetry channels attached to each node: (name, signal gain on
#: log-frailty, noise sigma).  High gain / low noise = informative.
TELEMETRY_CHANNELS: tuple[tuple[str, float, float], ...] = (
    ("telemetry_ecc_rate", 1.0, 0.18),
    ("telemetry_thermal_margin", -0.7, 0.30),
    ("telemetry_link_ber", 0.8, 0.40),
)


def generate_incident_trace(n_nodes: int, horizon_hours: float, *,
                            wear: WearModel | None = None,
                            frailty_sigma: float = 0.25,
                            gap_shape: float = 1.0,
                            telemetry: bool = True,
                            seed: int = 0) -> IncidentTrace:
    """Simulate per-node incident streams over ``horizon_hours``.

    Each node alternates up-time and repair time (Figure 2 mixture).
    The up-time gap has mean ``wear_mtbi(count) / frailty`` -- matching
    the paper's observation that gaps shrink as incidents accumulate --
    and Weibull shape ``gap_shape``: 1.0 gives memoryless exponential
    gaps; larger values give degradation with memory (a wear-out
    hazard that rises within each episode), which is what separates
    Cox-Time from the constant-rate baselines in Table 3.

    ``telemetry`` attaches per-node health counters (correctable-error
    rate, thermal margin, link BER) correlated with the node's latent
    frailty -- the monitored status data the production Selector feeds
    its probability model.
    """
    if n_nodes <= 0 or horizon_hours <= 0:
        raise ValueError("n_nodes and horizon_hours must be positive")
    if gap_shape <= 0:
        raise ValueError("gap_shape must be positive")
    wear = wear or WearModel()
    rng = np.random.default_rng(seed)
    width = max(len(str(n_nodes - 1)), 4)
    # Normalize so the Weibull draw has unit mean for any shape.
    from math import gamma as gamma_fn
    weibull_mean = gamma_fn(1.0 + 1.0 / gap_shape)

    records: list[IncidentRecord] = []
    node_ids = []
    node_attributes: dict[str, dict[str, float]] = {}
    for i in range(n_nodes):
        node_id = f"node-{i:0{width}d}"
        node_ids.append(node_id)
        frailty = float(np.exp(rng.normal(0.0, frailty_sigma)))
        if telemetry:
            log_frailty = float(np.log(frailty))
            node_attributes[node_id] = {
                name: gain * log_frailty + noise * float(rng.standard_normal())
                for name, gain, noise in TELEMETRY_CHANNELS
            }
        clock = 0.0
        incident_count = 0
        while True:
            mean_gap = wear.mean_time_between_incidents(incident_count) / frailty
            gap = mean_gap * float(rng.weibull(gap_shape)) / weibull_mean
            start = clock + gap
            if start >= horizon_hours:
                break
            category = wear.sample_category(rng)
            components = CATEGORY_COMPONENTS[category]
            component = components[int(rng.integers(len(components)))]
            duration = sample_time_to_resolve(rng)
            end = min(start + duration, horizon_hours)
            records.append(IncidentRecord(
                node_id=node_id, start_hour=start, end_hour=end,
                category=category.value, component=component,
            ))
            incident_count += 1
            clock = start + duration
            if clock >= horizon_hours:
                break
    return IncidentTrace(records=tuple(records), horizon_hours=horizon_hours,
                         node_ids=tuple(node_ids),
                         node_attributes=node_attributes)


def generate_allocation_trace(horizon_hours: float, *,
                              jobs_per_hour: float = 1.0,
                              max_job_nodes: int = 64,
                              mean_duration_hours: float = 10.0,
                              seed: int = 0) -> AllocationTrace:
    """Simulate a stream of gang-scheduled job requests.

    Job sizes are powers of two with geometrically decaying popularity
    (most jobs are small, a few span many nodes); durations are
    log-normal with the requested mean.
    """
    if horizon_hours <= 0 or jobs_per_hour <= 0:
        raise ValueError("horizon_hours and jobs_per_hour must be positive")
    rng = np.random.default_rng(seed)
    sizes = []
    size = 1
    while size <= max_job_nodes:
        sizes.append(size)
        size *= 2
    size_weights = np.array([0.55 ** k for k in range(len(sizes))])
    size_cdf = weighted_cdf(size_weights / size_weights.sum())

    # Log-normal duration with the requested mean and sigma=1.0.
    sigma = 1.0
    mu = np.log(mean_duration_hours) - sigma ** 2 / 2.0

    records = []
    clock = 0.0
    job_index = 0
    while True:
        clock += float(rng.exponential(1.0 / jobs_per_hour))
        if clock >= horizon_hours:
            break
        n_nodes = sizes[draw_weighted(size_cdf, rng)]
        duration = float(np.exp(rng.normal(mu, sigma)))
        duration = min(max(duration, 0.25), horizon_hours)
        records.append(AllocationRecord(
            job_id=f"job-{job_index:06d}", submit_hour=clock,
            n_nodes=n_nodes, duration_hours=duration,
        ))
        job_index += 1
    return AllocationTrace(records=tuple(records), horizon_hours=horizon_hours)
