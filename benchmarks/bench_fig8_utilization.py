"""Figure 8: simulated average node utilization per selection policy.

Paper values over 30 days: Selector 90.70%, a 4.81x improvement over
no validation and 1.09x over full-set validation, with the ideal
(defect-free) bound above everything.  We regenerate the comparison on
the simulated cluster; absolute utilizations differ (our repair and
scheduling constants are not Azure's) but the ordering and the
direction of every gap must hold.
"""

import pytest

from conftest import print_table
from repro.simulation.cluster import SimulationConfig
from repro.simulation.generator import generate_allocation_trace
from repro.simulation.metrics import run_policy_comparison


@pytest.fixture(scope="module")
def comparison():
    config = SimulationConfig(n_nodes=64, horizon_hours=720.0, seed=1)
    trace = generate_allocation_trace(720.0, jobs_per_hour=24.0 / 18.0,
                                      max_job_nodes=16,
                                      mean_duration_hours=18.0, seed=2)
    return run_policy_comparison(config, trace, p0=0.02)


def test_fig8_utilization(comparison):
    utilization = comparison.utilization_row()
    paper = {"absence": 18.9, "full-set": 83.2, "selector": 90.7, "ideal": 100.0}
    rows = [(name, f"{100 * utilization[name]:.1f}%", f"~{paper[name]:.0f}%")
            for name in ("absence", "full-set", "selector", "ideal")]
    print_table("Figure 8: average node utilization, 30 days",
                ["policy", "measured", "paper"], rows)

    daily = comparison.results["selector"].daily_utilization()
    print("selector daily utilization:",
          " ".join(f"{100 * u:.0f}" for u in daily))

    # Shape: ideal > selector > full-set > absence, with a large
    # selector-over-absence factor.
    assert utilization["ideal"] > utilization["selector"]
    assert utilization["selector"] > utilization["full-set"]
    assert utilization["full-set"] > utilization["absence"]
    assert utilization["selector"] / utilization["absence"] > 1.5
