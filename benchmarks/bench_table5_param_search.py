"""Table 5: repeatability after benchmark-parameter tuning.

The paper compares a fixed, generous step configuration (72 warm-up +
3,072 measurement steps) against Appendix B's adaptively searched
(w, n) on 64 H100 VMs: the tuned parameters keep repeatability within
1% of the fixed baseline while saving 67.5-78.3% of the validation
time across six end-to-end model families.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.benchsuite.base import run_benchmark
from repro.benchsuite.suite import suite_by_name
from repro.core.paramsearch import tune_window_across_nodes
from repro.core.repeatability import pairwise_repeatability
from repro.benchsuite.runner import StepWindow
from repro.hardware.fleet import build_fleet

MODELS = ("resnet-models", "densenet-models", "vgg-models",
          "lstm-models", "bert-models", "gpt-models")
FIXED = StepWindow(warmup=72, measure=3072)
FULL_STEPS = FIXED.total_steps


def node_series(model_name, nodes, seed):
    rng = np.random.default_rng(seed)
    spec = suite_by_name(model_name)
    metric = spec.metrics[0].name
    return {node.node_id:
            run_benchmark(spec, node, rng, n_steps=FULL_STEPS).metrics[metric]
            for node in nodes}


@pytest.fixture(scope="module")
def tuning_results():
    # 16 healthy VMs stand in for the 64-VM H100 testbed (the metric is
    # a mean of pairwise similarities; it stabilizes quickly).
    fleet = build_fleet(16, seed=77, defect_scale=0.0)
    results = {}
    for index, model in enumerate(MODELS):
        series = node_series(model, fleet.nodes, seed=700 + index)
        tuned = tune_window_across_nodes(series, 0.95)
        fixed_samples = [FIXED.apply(s) for s in series.values()]
        tuned_samples = [tuned.apply(s) for s in series.values()]
        results[model] = {
            "fixed_rep": pairwise_repeatability(fixed_samples),
            "tuned_rep": pairwise_repeatability(tuned_samples),
            "saving": 1.0 - tuned.total_steps / FULL_STEPS,
            "window": tuned,
        }
    return results


def test_table5_param_search(tuning_results):
    rows = []
    for model, r in tuning_results.items():
        rows.append((model,
                     f"{100 * r['fixed_rep']:.2f}%",
                     f"{100 * r['tuned_rep']:.2f}%",
                     f"{100 * r['saving']:.1f}%",
                     f"w={r['window'].warmup} n={r['window'].measure}"))
    print_table("Table 5: repeatability, fixed vs tuned parameters",
                ["model", "fixed", "tuned", "time saving", "tuned window"],
                rows)

    for model, r in tuning_results.items():
        # Shape: regression under 1.5% (paper: < 1%), saving in the
        # paper's 60-90% band.
        assert r["tuned_rep"] > r["fixed_rep"] - 0.015, model
        assert 0.55 < r["saving"] < 0.95, model
        # Tuned windows must still skip the warm-up transient.
        assert r["window"].warmup >= 24, model
