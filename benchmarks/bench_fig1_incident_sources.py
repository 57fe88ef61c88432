"""Figure 1: percentage of infrastructure incidents' sources.

The paper histograms one month of Azure tickets over the component
that caused them, finding more than eight distinct sources.  We
regenerate the histogram from a synthetic one-month incident trace.
"""

import pytest

from conftest import print_table
from repro.simulation.generator import generate_incident_trace
from repro.hardware.degradation import WearModel


@pytest.fixture(scope="module")
def month_trace():
    wear = WearModel(base_mtbi_hours=400.0)
    return generate_incident_trace(500, 720.0, wear=wear, seed=101)


def test_fig1_incident_sources(month_trace):
    counts = month_trace.component_counts()
    total = sum(counts.values())
    rows = [(component, f"{100 * count / total:.1f}%")
            for component, count in sorted(counts.items(),
                                           key=lambda kv: -kv[1])]
    print_table("Figure 1: incident sources (1-month synthetic tickets)",
                ["component", "share"], rows)

    # Shape: more than 8 distinct component sources (the paper's point),
    # with GPU-side sources prominent and no single source dominating.
    assert len(counts) > 8
    shares = {c: n / total for c, n in counts.items()}
    assert max(shares.values()) < 0.5
    gpu_like = sum(v for c, v in shares.items() if c.startswith(("gpu", "hbm")))
    assert gpu_like > 0.25
