"""Ablation: the similarity threshold alpha (the paper fixes 0.95).

Sweeps alpha over the criteria-learning + online-filtering pipeline on
one fleet and reports true/false positive trade-offs: a loose alpha
misses shallow defects, a strict one drowns in natural variance --
quantifying why the paper's empirical 0.95 sits where it does.
"""

import pytest

from conftest import print_table
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.simulation.coverage import detection_map

SUBSET = ("ib-loopback", "mem-bw", "bert-models", "resnet-models",
          "cpu-memory-latency", "gemm-flops")
ALPHAS = (0.80, 0.90, 0.95, 0.98)


@pytest.fixture(scope="module")
def sweep():
    suite = tuple(suite_by_name(name) for name in SUBSET)
    fleet = build_fleet(250, seed=13)
    detectors = detection_map(suite, alpha=0.95)
    detectable = {
        node.node_id for node in fleet.defective_nodes
        if any(detectors.get(mode) for mode in node.defects)
    }
    results = {}
    for alpha in ALPHAS:
        validator = Validator(suite, runner=SuiteRunner(seed=5), alpha=alpha)
        validator.learn_criteria(fleet.nodes[:100])
        report = validator.validate(fleet.nodes)
        flagged = set(report.defective_nodes)
        truth = {n.node_id for n in fleet.defective_nodes}
        results[alpha] = {
            "tp": len(flagged & detectable),
            "fp": len(flagged - truth),
            "detectable": len(detectable),
        }
    return results


def test_ablation_alpha(sweep):
    rows = [(f"{alpha:.2f}",
             f"{r['tp']}/{r['detectable']}",
             r["fp"])
            for alpha, r in sweep.items()]
    print_table("Ablation: similarity threshold alpha",
                ["alpha", "detectable defects caught", "false positives"],
                rows)

    # Shape: recall non-decreasing in alpha; false positives explode
    # past the paper's 0.95 operating point.
    tps = [sweep[a]["tp"] for a in ALPHAS]
    assert tps == sorted(tps)
    assert sweep[0.95]["tp"] == sweep[0.95]["detectable"]
    assert sweep[0.98]["fp"] > 3 * max(sweep[0.95]["fp"], 1)
    assert sweep[0.95]["fp"] <= sweep[0.98]["fp"]
