"""Figure 2: incidents' troubleshooting-duration distribution.

The paper reports that 38.1% of incidents take more than one day to
resolve and 10.3% more than two weeks, motivating the ~1.5-day repair
expectancy used in the simulation.  We regenerate the distribution
from the trace generator's time-to-resolve mixture.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.simulation.generator import (
    expected_time_to_resolve,
    sample_time_to_resolve,
)


@pytest.fixture(scope="module")
def durations():
    # Sample the time-to-resolve distribution directly: inside a short
    # trace window, multi-week tickets would be truncated by the
    # horizon and bias the tail.
    rng = np.random.default_rng(202)
    return np.array([sample_time_to_resolve(rng) for _ in range(20_000)])


def test_fig2_ttr_distribution(durations):
    thresholds = [1.0, 6.0, 24.0, 72.0, 168.0, 336.0]
    tails = {t: float(np.mean(durations > t)) for t in thresholds}
    rows = [(f"> {t:g} h", f"{100 * share:.1f}%")
            for t, share in sorted(tails.items())]
    rows.append(("mean (h)", f"{durations.mean():.1f}"))
    rows.append(("mixture expectancy (h)", f"{expected_time_to_resolve():.1f}"))
    print_table("Figure 2: troubleshooting duration tails "
                f"({durations.size} incidents)", ["duration", "share"], rows)

    # Shape: the paper's quoted tails.
    assert tails[24.0] == pytest.approx(0.381, abs=0.04)
    assert tails[336.0] == pytest.approx(0.103, abs=0.03)
    # The repair expectancy motivates the ~36 h simulation constant.
    assert 30.0 < durations.mean() < 110.0
