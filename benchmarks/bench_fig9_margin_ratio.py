"""Figure 9: margin ratios of different criteria methods.

The paper compares Algorithm 2 against IQR and k-means criteria on
step-throughput series of end-to-end benchmarks from 144 MI250X VMs:
the CDF criteria achieves better (larger) margin ratios on 4 of 5
models, because the baselines classify marginal-but-healthy nodes as
defective, collapsing the margin.  We regenerate the comparison on a
simulated 144-VM fleet across the end-to-end model families, injecting
both clear defects and marginal performers.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.baselines import iqr_criteria, kmeans_criteria, margin_ratio
from repro.benchsuite.base import run_benchmark
from repro.benchsuite.suite import suite_by_name
from repro.core.criteria import learn_criteria
from repro.hardware.components import Component
from repro.hardware.node import Node

MODELS = ("resnet-models", "densenet-models", "vgg-models",
          "lstm-models", "bert-models", "gpt-models")

#: Defective VMs per model family (defect counts differ per benchmark
#: in a real build-out; single-defect populations are where forced
#: k=2 clustering falls apart).
DEFECT_COUNTS = {
    "resnet-models": 8, "densenet-models": 1, "vgg-models": 2,
    "lstm-models": 1, "bert-models": 4, "gpt-models": 1,
}

#: Dominant pseudo-component per model family (for defect injection).
FAMILY_COMPONENT = {
    "resnet-models": Component.E2E_CNN_PATH,
    "densenet-models": Component.E2E_CNN_PATH,
    "vgg-models": Component.E2E_CNN_PATH,
    "lstm-models": Component.E2E_RNN_PATH,
    "bert-models": Component.E2E_TRANSFORMER_PATH,
    "gpt-models": Component.E2E_TRANSFORMER_PATH,
}


def collect_samples(model_name, seed):
    """144 VMs: a skewed healthy population plus clear defects.

    Healthy nodes concentrate near nominal with a thin marginal tail at
    ~2.6-3.2% slow (within the similarity threshold); a few jittery
    nodes have nominal means but doubled step noise; defective nodes
    sit at 7.5-8.2% slow, with per-model defect counts matching a real
    build-out's unevenness.  This is the paper's GPT-2 situation: the
    marginal tail falls past a mean-quartile fence, and single-defect
    populations break a forced two-way Euclidean clustering.
    """
    rng = np.random.default_rng(seed)
    spec = suite_by_name(model_name)
    component = FAMILY_COMPONENT[model_name]
    weight = spec.sensitivity[component]

    def health_for_shift(shift):
        """Component health producing the requested metric shift."""
        return float((1.0 - shift) ** (1.0 / weight))

    # Healthy population with two real-world complications:
    # * a thin *marginal* tail: slightly slow but within spec -- where
    #   mean-quartile fences land (the paper's GPT-2 complaint);
    # * a few *jittery* nodes: nominal mean but higher step variance,
    #   which Euclidean clustering confuses with defects.
    n_defects = DEFECT_COUNTS[model_name]
    n_healthy = 144 - n_defects
    shifts = np.clip(rng.gamma(1.0, 0.006, size=n_healthy - 3), 0.0, 0.02)
    shifts = np.concatenate([shifts, rng.uniform(0.026, 0.032, size=3)])
    nodes = [Node(node_id=f"vm-{i:03d}",
                  health={component: health_for_shift(s)})
             for i, s in enumerate(shifts)]
    nodes += [Node(node_id=f"bad-{i}",
                   health={component: health_for_shift(rng.uniform(0.075, 0.082))})
              for i in range(n_defects)]
    samples = []
    for node in nodes:
        series = run_benchmark(spec, node, rng, n_steps=400)
        samples.append(series.metrics[spec.metrics[0].name][150:])
    # Three jittery-but-healthy nodes (cooling fan cycling, noisy
    # neighbors): same mean, about double the step noise.
    for index in (10, 20, 30):
        extra = 1.0 + 0.012 * rng.standard_normal(samples[index].size)
        samples[index] = samples[index] * extra
    return samples


@pytest.fixture(scope="module")
def ratios():
    results = {}
    for index, model in enumerate(MODELS):
        samples = collect_samples(model, seed=900 + index)
        ours = learn_criteria(samples, 0.95, centroid="medoid")
        iqr = iqr_criteria(samples)
        km = kmeans_criteria(samples, seed=0)
        results[model] = {
            "ours": margin_ratio(samples, ours.criteria, ours.defect_indices),
            "iqr": margin_ratio(samples, iqr.criteria, iqr.defect_indices),
            "kmeans": margin_ratio(samples, km.criteria, km.defect_indices),
        }
    return results


def test_fig9_margin_ratio(ratios):
    rows = [(model,
             f"{values['ours']:.2f}",
             f"{values['iqr']:.2f}",
             f"{values['kmeans']:.2f}")
            for model, values in ratios.items()]
    print_table("Figure 9: margin ratio per criteria method (144 VMs)",
                ["model", "Algorithm 2", "IQR", "k-means"], rows)

    wins_iqr = sum(1 for v in ratios.values() if v["ours"] >= v["iqr"])
    wins_km = sum(1 for v in ratios.values() if v["ours"] >= v["kmeans"])
    print(f"Algorithm 2 >= IQR on {wins_iqr}/{len(MODELS)} models, "
          f">= k-means on {wins_km}/{len(MODELS)} (paper: 4/5 each)")

    # Shape: our criteria wins on most models and always keeps a real
    # margin (> 1 means defects are strictly farther than any healthy
    # node).
    assert wins_iqr >= len(MODELS) - 2
    assert wins_km >= len(MODELS) - 2
    assert all(v["ours"] > 1.0 for v in ratios.values())
