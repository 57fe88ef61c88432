"""Table 4: simulated validation time and MTBI per selection policy.

Paper values over 30 days: validation time 0 / 100.40 / 7.96 hours per
node and MTBI 11.59 / 236.26 / 262.05 hours for absence / full set /
ANUBIS Selector -- i.e. the Selector cuts 92.07% of the validation
cost while *increasing* MTBI 22.61x over no validation and 1.11x over
the full set (more up time outweighs its slightly higher incident
count).
"""

import numpy as np
import pytest

from conftest import print_table
from repro.simulation.cluster import SimulationConfig
from repro.simulation.generator import generate_allocation_trace
from repro.simulation.metrics import run_policy_comparison


@pytest.fixture(scope="module")
def comparisons():
    """Three seeds averaged, mirroring the stability of the paper's sim."""
    results = []
    for seed in (1, 2, 3):
        config = SimulationConfig(n_nodes=64, horizon_hours=720.0, seed=seed)
        trace = generate_allocation_trace(720.0, jobs_per_hour=24.0 / 18.0,
                                          max_job_nodes=16,
                                          mean_duration_hours=18.0,
                                          seed=100 + seed)
        results.append(run_policy_comparison(config, trace, p0=0.02))
    return results


def _mean(values):
    return float(np.mean(values))


def test_table4_selection_policies(comparisons):
    policies = ("absence", "full-set", "selector")
    validation = {p: _mean([c.results[p].average_validation_hours
                            for c in comparisons]) for p in policies}
    mtbi = {p: _mean([c.results[p].mtbi_hours for c in comparisons])
            for p in policies}
    incidents = {p: _mean([c.results[p].average_incidents
                           for c in comparisons]) for p in policies}

    paper_validation = {"absence": 0.0, "full-set": 100.40, "selector": 7.96}
    paper_mtbi = {"absence": 11.59, "full-set": 236.26, "selector": 262.05}
    rows = [(p,
             f"{validation[p]:.2f} (paper {paper_validation[p]:.2f})",
             f"{mtbi[p]:.2f} (paper {paper_mtbi[p]:.2f})",
             f"{incidents[p]:.2f}")
            for p in policies]
    print_table("Table 4: 30-day validation time and MTBI per node (h)",
                ["policy", "validation time", "MTBI", "incidents/node"], rows)

    saving = 1.0 - validation["selector"] / validation["full-set"]
    mtbi_gain_absence = mtbi["selector"] / mtbi["absence"]
    mtbi_gain_full = mtbi["selector"] / mtbi["full-set"]
    print(f"selector saves {100 * saving:.1f}% validation time "
          f"(paper 92.07%); MTBI {mtbi_gain_absence:.1f}x over absence "
          f"(paper 22.61x), {mtbi_gain_full:.2f}x over full set (paper 1.11x)")

    # Shape assertions.
    assert validation["absence"] == 0.0
    assert saving > 0.6
    assert mtbi_gain_absence > 8.0
    assert mtbi_gain_full > 0.95  # at or above the full set
    # The paper's explanation: the Selector has slightly *more*
    # incidents than the full set but wins on up time.
    assert incidents["selector"] >= incidents["full-set"]
