"""Ablation: cold-start Selector with self-evolving coverage.

The paper's system "evolves in tandem with the latest node statuses":
validation outcomes feed the coverage table that Algorithm 1 selects
from (§3.1, Figure 7).  This bench compares three Selectors over the
same month:

* **warm** -- coverage bootstrapped from a build-out dataset (the
  default elsewhere);
* **cold + evolve** -- starts with an *empty* table; every caught
  defect and every post-mortem incident teaches it;
* **cold frozen** -- empty table, never updated: Algorithm 1 can never
  justify any benchmark, so validation effectively never runs.

Shape: cold+evolve converges toward warm (bootstrap through early
incidents), while cold-frozen degenerates to the no-validation
baseline.
"""

import pytest

from conftest import print_table
from repro.core.selection import CoverageTable
from repro.simulation.cluster import ClusterSimulator, SimulationConfig
from repro.simulation.coverage import analytic_coverage_table
from repro.simulation.generator import generate_allocation_trace
from repro.simulation.metrics import suite_durations
from repro.simulation.policies import SelectorPolicy
from repro.benchsuite.suite import full_suite


@pytest.fixture(scope="module")
def study():
    config = SimulationConfig(n_nodes=48, horizon_hours=720.0, seed=21)
    trace = generate_allocation_trace(720.0, jobs_per_hour=1.2,
                                      max_job_nodes=12,
                                      mean_duration_hours=18.0, seed=22)
    durations = suite_durations()
    wear = config.wear_model()

    def run(coverage, evolve):
        policy = SelectorPolicy(durations, coverage, wear, p0=0.02)
        simulator = ClusterSimulator(config, policy, trace,
                                     evolve_coverage=evolve)
        return simulator.run(), coverage

    warm, _ = run(analytic_coverage_table(full_suite()), evolve=False)
    evolved, evolved_table = run(CoverageTable(), evolve=True)
    frozen, _ = run(CoverageTable(), evolve=False)
    return warm, evolved, evolved_table, frozen


def test_ablation_evolving_coverage(study):
    warm, evolved, evolved_table, frozen = study

    rows = [
        ("warm (build-out bootstrap)", f"{warm.mtbi_hours:.1f}",
         f"{warm.average_incidents:.2f}", f"{warm.average_validation_hours:.1f}"),
        ("cold + self-evolving", f"{evolved.mtbi_hours:.1f}",
         f"{evolved.average_incidents:.2f}",
         f"{evolved.average_validation_hours:.1f}"),
        ("cold, frozen", f"{frozen.mtbi_hours:.1f}",
         f"{frozen.average_incidents:.2f}",
         f"{frozen.average_validation_hours:.1f}"),
    ]
    print_table("Ablation: coverage bootstrap over 30 days",
                ["selector variant", "MTBI (h)", "incidents/node",
                 "validation (h)"],
                rows)
    learned_modes = {key[0] for defects in evolved_table.found.values()
                     for key in defects}
    print(f"cold-start table learned {len(learned_modes)} defect modes, "
          f"{len(evolved_table.all_defects())} historical defects")

    # Shape: frozen coverage degenerates to no validation; the
    # self-evolving table closes most of the gap to the warm bootstrap.
    assert frozen.average_validation_hours == 0.0
    assert evolved.average_validation_hours > 0.0
    assert evolved.mtbi_hours > 2.0 * frozen.mtbi_hours
    assert evolved.mtbi_hours > 0.5 * warm.mtbi_hours
    assert len(learned_modes) >= 5
