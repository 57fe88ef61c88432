"""Figure 4: mean time between i-th incidents, and job time-to-failure.

Left panel: the mean duration between a node's i-th and (i+1)-th
incidents shrinks from 719.4 h (before the first incident) to 151.7 h
by the twentieth -- the redundancy-erosion signature.  Right panel:
under a constant per-node rate, a gang-scheduled job's time to failure
shrinks inversely with its node count.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.hardware.degradation import WearModel
from repro.simulation.generator import generate_incident_trace
from repro.simulation.metrics import (
    job_time_to_failure_curve,
    mean_time_between_ith_incidents,
)


@pytest.fixture(scope="module")
def long_trace():
    # The Figure 4 cluster: paper-calibrated wear, long horizon so many
    # nodes reach their 20th incident.
    wear = WearModel()  # base 719.4 h, gamma calibrated to 151.7 h at i=20
    return generate_incident_trace(600, 20_000.0, wear=wear,
                                   frailty_sigma=0.15, seed=44)


def test_fig4_mtbi_decay(long_trace):
    gaps = mean_time_between_ith_incidents(long_trace, max_index=20)

    rows = [(i + 1, f"{gap:.1f}") for i, gap in enumerate(gaps)
            if np.isfinite(gap)]
    print_table("Figure 4 (left): mean time between i-th incidents (h)",
                ["incident index", "mean gap (h)"], rows)

    # Shape: ~719 h before the first incident, decaying to ~152 h by
    # the 20th (ratio ~4.7x).
    assert gaps[0] == pytest.approx(719.4, rel=0.15)
    assert gaps[19] == pytest.approx(151.7, rel=0.25)
    assert gaps[0] / gaps[19] > 3.0
    # Monotone decay (tolerating sampling noise at the tail).
    smoothed = np.convolve(gaps, np.ones(3) / 3, mode="valid")
    assert smoothed[0] > smoothed[-1]

    # Right panel: jobs at scale, assuming the i-th incident rate.
    wear = WearModel()
    for index in (0, 9, 19):
        curve = job_time_to_failure_curve(
            wear.mean_time_between_incidents(index),
            node_counts=(1, 8, 64, 512))
        assert curve[512] == pytest.approx(curve[1] / 512.0)
    curve_first = job_time_to_failure_curve(gaps[0], node_counts=(1, 8, 64, 512))
    print_table("Figure 4 (right): job time-to-failure at the 1st incident (h)",
                ["job nodes", "expected TTF (h)"],
                [(n, f"{v:.2f}") for n, v in sorted(curve_first.items())])
