"""Appendix A: networking-validation scan round counts and correctness.

Full scan: all N(N-1)/2 NIC pairs scheduled into N-1 rounds of N/2
concurrent, NIC-disjoint pairs (circle method) -- O(n) rounds instead
of O(n^2).  Quick scan: one round per fat-tree tier regardless of
node count -- O(1) rounds.
"""

import pytest

from conftest import print_table
from repro.netval.pairs import round_robin_schedule, validate_schedule
from repro.netval.topo_aware import quick_scan_schedule, validate_quick_scan
from repro.topology.fattree import FatTree, FatTreeConfig


@pytest.fixture(scope="module")
def scan_rows():
    rows = []
    for n in (8, 24, 64, 192, 512):
        endpoints = list(range(n))
        rounds = round_robin_schedule(endpoints)
        validate_schedule(endpoints, rounds)
        tree = FatTree(FatTreeConfig(n_nodes=n, nodes_per_tor=4,
                                     tors_per_pod=4))
        quick = quick_scan_schedule(tree)
        validate_quick_scan(tree, quick)
        rows.append((n, n * (n - 1) // 2, len(rounds), len(quick)))
    return rows


def test_appendix_netval_scans(scan_rows):
    print_table("Appendix A: scan rounds vs fabric size",
                ["NICs/nodes", "total pairs", "full-scan rounds",
                 "quick-scan rounds"],
                scan_rows)

    for n, pairs, full_rounds, quick_rounds in scan_rows:
        # O(n): exactly n-1 rounds for even n.
        assert full_rounds == n - 1
        # O(1): bounded by the tree depth.
        assert quick_rounds <= 3
    # Quick scan round count does not grow with the fabric.
    quick_counts = [row[3] for row in scan_rows if row[0] >= 24]
    assert len(set(quick_counts)) == 1
