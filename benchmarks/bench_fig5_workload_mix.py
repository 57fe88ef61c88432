"""Figure 5: GPU job percentage for diverse workloads.

The paper analyzes 56k+ GPU jobs: Transformers dominate, CNNs follow,
and a large share inside each family cannot be identified (35.5% of
Transformers) -- the diversity argument for pairing a few end-to-end
benchmarks with component-wise micro-benchmarks.
"""

import pytest

from conftest import print_table
from repro.workloads.distribution import (
    WORKLOAD_MIX,
    benchmark_coverage_of_mix,
    family_shares,
    sample_jobs,
)


def test_fig5_workload_mix():
    jobs = sample_jobs(56_000, seed=55)

    counts: dict[tuple[str, str], int] = {}
    for job in jobs:
        key = (job.family, job.model)
        counts[key] = counts.get(key, 0) + 1
    rows = [(family, model, f"{100 * count / len(jobs):.1f}%")
            for (family, model), count in sorted(counts.items(),
                                                 key=lambda kv: -kv[1])]
    print_table(f"Figure 5: workload mix over {len(jobs)} jobs",
                ["family", "model", "share"], rows)

    shares = family_shares()
    print_table("Figure 5: family aggregate",
                ["family", "share"],
                [(f, f"{100 * s:.1f}%") for f, s in sorted(shares.items(),
                                                           key=lambda kv: -kv[1])])

    # Shape: Transformers > CNN > other; large unidentified share;
    # the end-to-end benchmark set still represents most jobs.
    assert shares["transformer"] > shares["cnn"] > shares["other"]
    unidentified = sum(i.share for i in WORKLOAD_MIX if i.model == "unidentified")
    assert unidentified > 0.2
    transformer_unknown = sum(
        i.share for i in WORKLOAD_MIX
        if i.family == "transformer" and i.model == "unidentified"
    ) / shares["transformer"]
    assert transformer_unknown == pytest.approx(0.355, abs=0.08)
    assert benchmark_coverage_of_mix() > 0.8
