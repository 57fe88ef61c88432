"""Table 6: effectiveness and repeatability in real deployment.

The paper's build-out dataset (24k+ A100 GPUs / 3k+ VMs, 24 benchmarks):
per-benchmark defect shares led by IB HCA loopback (6.04%) and
H2D/D2H bandwidth (2.03%), all effective benchmarks above 97.5%
repeatability, and 10.36% of nodes filtered in total.  We regenerate
the table on a simulated build-out fleet: criteria learned on a
sample, the whole fleet screened online, repeatability measured among
healthy nodes.
"""

import pytest

from conftest import print_table
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite, total_metric_count
from repro.core.repeatability import pairwise_repeatability
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet

PAPER_SHARES = {
    "ib-loopback": 6.04, "mem-bw": 2.03, "bert-models": 1.59,
    "cpu-memory-latency": 1.33, "nccl-bw-ib-single": 1.10,
    "resnet-models": 0.73, "gpt-models": 0.53, "lstm-models": 0.46,
    "densenet-models": 0.40, "matmul-allreduce-overlap": 0.33,
    "nccl-bw-nvlink": 0.30, "gemm-flops": 0.23,
}

FLEET_SIZE = 600


@pytest.fixture(scope="module")
def deployment():
    fleet = build_fleet(FLEET_SIZE, seed=11)
    validator = Validator(full_suite(), runner=SuiteRunner(seed=3), alpha=0.95)
    validator.learn_criteria(fleet.nodes[:120])
    report = validator.validate(fleet.nodes)
    return fleet, report


def test_table6_deployment(deployment):
    fleet, report = deployment

    flagged = set(report.defective_nodes)
    by_benchmark = report.violations_by_benchmark()
    healthy = [n for n in fleet.nodes if n.node_id not in flagged][:20]
    runner = SuiteRunner(seed=17)

    rows = []
    shares = {}
    for spec in full_suite():
        share = 100 * len(by_benchmark.get(spec.name, ())) / FLEET_SIZE
        shares[spec.name] = share
        if share == 0.0 and spec.name not in PAPER_SHARES:
            continue
        samples = [runner.run(spec, n).sample(spec.metrics[0].name)
                   for n in healthy]
        repeatability = pairwise_repeatability(samples)
        paper = PAPER_SHARES.get(spec.name)
        rows.append((spec.name, f"{100 * repeatability:.2f}%",
                     f"{share:.2f}%",
                     f"{paper:.2f}%" if paper is not None else "-"))
    rows.sort(key=lambda r: -float(r[2].rstrip("%")))
    print_table(
        f"Table 6: {FLEET_SIZE} VMs, 24 benchmarks, "
        f"{total_metric_count()} metrics",
        ["benchmark", "repeatability", "defects", "paper defects"], rows)
    total_share = 100 * len(flagged) / FLEET_SIZE
    print(f"total defective nodes (deduplicated): {total_share:.2f}% "
          f"(paper 10.36%)")

    # Shape: IB HCA loopback leads, H2D/D2H second among micros; the
    # overall defect ratio lands near 10%.
    top = max(shares, key=shares.get)
    assert top == "ib-loopback"
    assert shares["ib-loopback"] > shares["mem-bw"] > shares["gemm-flops"]
    assert shares["bert-models"] >= shares["gpt-models"]
    assert 6.0 < total_share < 17.0
    # Repeatability floor of the effective benchmarks (paper: > 97.5%).
    for name, repeatability, *_ in rows:
        assert float(repeatability.rstrip("%")) > 97.0, name
