"""Table 1: GPU memory row-remapping impact on end-to-end workloads.

The paper: 3.19% of nodes accumulate 1-10 remapped correctable errors
and 0.18% accumulate more than 10; the latter group regresses in
end-to-end workloads 83.3% of the time versus 5.6%.  We regenerate the
table from a large simulated fleet with burn-in HBM errors, sampling
end-to-end regressions from the Table 1 conditional model.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.hardware.fleet import build_fleet
from repro.hardware.gpu import REMAP_THRESHOLD, row_remap_regression_probability


@pytest.fixture(scope="module")
def fleet():
    # Defects off: isolate the row-remapping mechanism.
    return build_fleet(20_000, seed=31, defect_scale=0.0, hbm_error_rate=0.034)


def test_table1_row_remapping(fleet):
    rng = np.random.default_rng(7)
    low, high = [], []
    for node in fleet.nodes:
        remapped = node.gpu_memory.total_remapped
        if remapped == 0:
            continue
        regressed = rng.random() < node.gpu_memory.regression_probability()
        (low if remapped <= REMAP_THRESHOLD else high).append(regressed)

    n = len(fleet)
    low_node_ratio = len(low) / n
    high_node_ratio = len(high) / n
    low_regression = float(np.mean(low))
    high_regression = float(np.mean(high))

    print_table(
        "Table 1: row remapping impact on end-to-end workloads",
        ["correctable errors remapped", "1 ~ 10", "> 10"],
        [("row remapping node ratio",
          f"{100 * low_node_ratio:.2f}% (paper 3.19%)",
          f"{100 * high_node_ratio:.2f}% (paper 0.18%)"),
         ("regression ratio of remapping nodes",
          f"{100 * low_regression:.1f}% (paper 5.6%)",
          f"{100 * high_regression:.1f}% (paper 83.3%)")],
    )

    # Shape: small remap populations; >10 errors means ~15x higher
    # regression odds.
    assert 0.015 < low_node_ratio < 0.06
    assert 0.0005 < high_node_ratio < 0.006
    assert low_regression == pytest.approx(0.056, abs=0.03)
    assert high_regression == pytest.approx(0.833, abs=0.15)
    assert high_regression > 5.0 * low_regression
    # The underlying conditional model is exactly Table 1.
    assert row_remap_regression_probability(10) == 0.056
    assert row_remap_regression_probability(11) == 0.833
