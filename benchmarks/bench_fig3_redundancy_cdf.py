"""Figure 3: 2-node all-reduce bandwidth CDFs vs. ToR uplink redundancy.

The paper's 24-node / 192-NIC fat-tree testbed: when some ToR switches
have fewer than 50% of their redundant uplinks up, concurrent 2-node
all-reduce pairs crossing them lose bus bandwidth; once every involved
ToR is repaired back to at least half redundancy, all pairs return to
normal.  We regenerate both CDFs on the simulated fabric.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.topology import FatTree, FatTreeConfig, allreduce_pair_bandwidths


def build_tree():
    return FatTree(FatTreeConfig(n_nodes=24, nodes_per_tor=4, tors_per_pod=3,
                                 uplinks_per_tor=20, redundant_uplinks=4,
                                 nics_per_node=8))


def concurrent_pairs(tree):
    pairs = []
    for tor in range(0, tree.n_tors, 2):
        pairs.extend(zip(tree.nodes_in_tor(tor), tree.nodes_in_tor(tor + 1)))
    return pairs


@pytest.fixture(scope="module")
def scenario():
    rng = np.random.default_rng(3)
    healthy_tree = build_tree()
    pairs = concurrent_pairs(healthy_tree)
    healthy = [p.bandwidth_gbps
               for p in allreduce_pair_bandwidths(healthy_tree, pairs,
                                                  noise_cv=0.004, rng=rng)]

    broken_tree = build_tree()
    broken_tree.fail_uplinks(0, 3)  # < 50% of redundancy left
    broken_tree.fail_uplinks(3, 3)
    broken = [p.bandwidth_gbps
              for p in allreduce_pair_bandwidths(broken_tree, pairs,
                                                 noise_cv=0.004, rng=rng)]
    return np.sort(healthy), np.sort(broken), broken_tree, pairs


def test_fig3_redundancy_cdf(scenario):
    healthy, broken, broken_tree, pairs = scenario

    quantiles = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = [(f"{int(100 * q)}%",
             f"{np.quantile(broken, q):.1f}",
             f"{np.quantile(healthy, q):.1f}")
            for q in quantiles]
    print_table("Figure 3: 2-node all-reduce bus bandwidth CDF (GB/s)",
                ["quantile", "<50% redundancy up", ">=50% redundancy up"], rows)

    # Shape (a): with broken ToRs the CDF is bimodal -- a degraded mode
    # well below the healthy band plus an unaffected mode inside it.
    degraded_share = np.mean(broken < 0.97 * healthy.min())
    assert 0.3 < degraded_share < 0.8
    # Shape (b): healthy CDF is tight.
    assert (healthy.max() - healthy.min()) / healthy.mean() < 0.05
    # Repairing every involved ToR to >= 50% restores all pairs.
    broken_tree.repair_uplinks(0, 1)
    broken_tree.repair_uplinks(3, 1)
    repaired = [p.bandwidth_gbps for p in allreduce_pair_bandwidths(
        broken_tree, pairs, noise_cv=0.0)]
    assert min(repaired) > 0.99 * healthy.min()
