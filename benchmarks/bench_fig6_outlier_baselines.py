"""Figure 6: generic outlier detection misbehaves on benchmark metrics.

The paper's motivation for Algorithm 2: on benchmark-metric data with
a dense healthy cluster, a sparse-but-expected group and genuine
defects, LOF flags the low-density healthy points and the One-Class
SVM draws false boundaries inside dense intervals, while the CDF
criteria separates exactly the planted defects.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.outliers import OneClassSvm, lof_outliers
from repro.core.criteria import learn_criteria


@pytest.fixture(scope="module")
def metric_population():
    """Benchmark metric values: dense healthy cluster + sparse healthy
    stragglers (within spec) + two genuine defects far below."""
    rng = np.random.default_rng(66)
    dense = rng.normal(100.0, 0.25, 70)
    sparse = rng.normal(99.0, 1.2, 10)  # expected performance, low density
    defects = np.array([80.0, 78.5])
    values = np.concatenate([dense, sparse, defects])
    truth = set(range(80, 82))
    sparse_indices = set(range(70, 80))
    return values, truth, sparse_indices


def test_fig6_outlier_baselines(metric_population):
    values, truth, sparse_indices = metric_population

    lof = set(lof_outliers(values, k=10, threshold=1.5).tolist())
    svm = set(OneClassSvm(nu=0.1, n_iterations=300).fit(values)
              .outliers(values).tolist())
    ours = set(learn_criteria([[v] for v in values], alpha=0.95)
               .defect_indices)

    def describe(flagged):
        tp = len(flagged & truth)
        fp = len(flagged - truth)
        return f"{tp}/2", fp

    rows = []
    for name, flagged in (("LOF", lof), ("One-Class SVM", svm),
                          ("CDF criteria (Alg. 2)", ours)):
        tp, fp = describe(flagged)
        rows.append((name, tp, fp))
    print_table("Figure 6: outlier methods on one benchmark metric "
                f"({values.size} nodes, 2 true defects)",
                ["method", "defects found", "false positives"], rows)

    # Shape: all methods find the true defects, but only the CDF
    # criteria does it with zero false positives; the baselines flag
    # expected-but-sparse points (the paper's complaint).
    assert truth <= ours and len(ours - truth) == 0
    assert truth <= lof
    assert len(lof - truth) > 0 and (lof & sparse_indices)
    assert len(svm - truth) > 0
