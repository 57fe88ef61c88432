"""Ablation: the Selector's residual-probability target p0.

The paper's Selector skips validation when the joint incident
probability is already below p0 and otherwise selects until the
residual falls under it.  Sweeping p0 traces the validation-cost vs
MTBI frontier between the full-set policy (p0 -> 0) and no validation
(p0 -> 1).
"""

import pytest

from conftest import print_table
from repro.simulation.cluster import ClusterSimulator, SimulationConfig
from repro.simulation.generator import generate_allocation_trace
from repro.simulation.metrics import build_policies

P0_VALUES = (0.005, 0.02, 0.10, 0.40)


@pytest.fixture(scope="module")
def sweep():
    config = SimulationConfig(n_nodes=48, horizon_hours=720.0, seed=9)
    trace = generate_allocation_trace(720.0, jobs_per_hour=1.2,
                                      max_job_nodes=12,
                                      mean_duration_hours=18.0, seed=10)
    results = {}
    for p0 in P0_VALUES:
        policy = build_policies(config, p0=p0)["selector"]
        results[p0] = ClusterSimulator(config, policy, trace).run()
    return results


def test_ablation_selector_threshold(sweep):
    rows = [(f"{p0:.3f}",
             f"{r.average_validation_hours:.1f}",
             f"{r.mtbi_hours:.1f}",
             f"{r.average_incidents:.2f}",
             f"{100 * r.average_utilization:.1f}%",
             r.validations_skipped)
            for p0, r in sweep.items()]
    print_table("Ablation: Selector residual-probability target p0",
                ["p0", "validation (h)", "MTBI (h)", "incidents/node",
                 "utilization", "skips"],
                rows)

    validation = [sweep[p].average_validation_hours for p in P0_VALUES]
    incidents = [sweep[p].average_incidents for p in P0_VALUES]
    # Shape: looser p0 -> monotonically less validation, more incidents.
    assert validation == sorted(validation, reverse=True)
    assert incidents[-1] >= incidents[0]
    # Everything on the frontier still beats no validation by far.
    assert all(r.average_incidents < 8.0 for r in sweep.values())
