"""Fat-tree (Clos) topology with redundant ToR uplinks.

Models the paper's InfiniBand testbed (§2.2, Figure 3, Appendix A):
nodes attach to top-of-rack (ToR) switches, ToRs attach to aggregation
switches within a pod, pods attach to a core tier.  Each ToR carries
*redundant* uplinks -- more capacity than the subscribed demand -- and
the paper's empirical rule is that congestion appears once more than
half of a ToR's redundant uplinks are down.

The class tracks per-ToR uplink liveness and answers the structural
queries the rest of the library needs: which ToR/pod a node lives in,
hop distances (2 intra-ToR, 4 intra-pod, 6 cross-pod), and the
grouping used by the Appendix A quick scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FatTreeConfig", "FatTree"]


@dataclass(frozen=True)
class FatTreeConfig:
    """Shape of a 3-tier fat-tree.

    Attributes
    ----------
    n_nodes:
        Number of compute nodes (VMs).
    nodes_per_tor:
        Nodes attached to each ToR switch.
    tors_per_pod:
        ToRs under each aggregation pod.
    uplinks_per_tor:
        Total uplinks from each ToR to its pod's aggregation layer.
    redundant_uplinks:
        How many of those uplinks are redundancy beyond the subscribed
        demand (the paper's testbed has 25% redundant uplinks).
    link_bandwidth_gbps:
        Capacity of one uplink.
    nics_per_node:
        InfiniBand NICs per node (8 in the paper's testbeds).
    """

    n_nodes: int = 24
    nodes_per_tor: int = 4
    tors_per_pod: int = 3
    uplinks_per_tor: int = 20
    redundant_uplinks: int = 4
    link_bandwidth_gbps: float = 200.0
    nics_per_node: int = 8

    def __post_init__(self):
        if self.n_nodes <= 0 or self.nodes_per_tor <= 0:
            raise TopologyError("n_nodes and nodes_per_tor must be positive")
        if self.tors_per_pod <= 0:
            raise TopologyError("tors_per_pod must be positive")
        if not 0 <= self.redundant_uplinks < self.uplinks_per_tor:
            raise TopologyError(
                "redundant_uplinks must be in [0, uplinks_per_tor)"
            )

    @property
    def base_uplinks(self) -> int:
        """Uplinks needed to carry subscribed demand without redundancy."""
        return self.uplinks_per_tor - self.redundant_uplinks

    @property
    def congestion_threshold(self) -> float:
        """Minimum alive uplinks before congestion appears.

        The paper's rule: at most half of the redundancies may be
        broken, i.e. ``alive >= uplinks - redundant / 2``.
        """
        return self.uplinks_per_tor - self.redundant_uplinks / 2.0


class FatTree:
    """A concrete fat-tree with mutable uplink liveness."""

    def __init__(self, config: FatTreeConfig | None = None):
        self.config = config or FatTreeConfig()
        cfg = self.config
        self.n_tors = -(-cfg.n_nodes // cfg.nodes_per_tor)  # ceil division
        self.n_pods = -(-self.n_tors // cfg.tors_per_pod)
        self._node_tor = {
            node: node // cfg.nodes_per_tor for node in range(cfg.n_nodes)
        }
        self._tor_pod = {tor: tor // cfg.tors_per_pod for tor in range(self.n_tors)}
        # Per-ToR count of *alive* uplinks; starts fully redundant.
        self._alive_uplinks = {tor: cfg.uplinks_per_tor for tor in range(self.n_tors)}
        self._graph = self._build_graph()

    def _build_graph(self) -> nx.Graph:
        """Structural graph: node -- tor -- agg(pod) -- core."""
        # Imported where a tree is built: ``import repro`` reaches this
        # module, and every worker spawn and CLI start would otherwise
        # pay ~0.1 s for a library only topology code uses.
        import networkx as nx
        g = nx.Graph()
        g.add_node("core", tier="core")
        for pod in range(self.n_pods):
            g.add_node(f"agg-{pod}", tier="agg")
            g.add_edge(f"agg-{pod}", "core")
        for tor in range(self.n_tors):
            g.add_node(f"tor-{tor}", tier="tor")
            g.add_edge(f"tor-{tor}", f"agg-{self._tor_pod[tor]}")
        for node in range(self.config.n_nodes):
            g.add_node(f"node-{node}", tier="node")
            g.add_edge(f"node-{node}", f"tor-{self._node_tor[node]}")
        return g

    @property
    def graph(self) -> nx.Graph:
        """The structural graph (read-only by convention)."""
        return self._graph

    @property
    def nodes(self) -> list[int]:
        """Compute node indices."""
        return list(range(self.config.n_nodes))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def tor_of(self, node: int) -> int:
        """ToR switch index of ``node``."""
        try:
            return self._node_tor[node]
        except KeyError:
            raise TopologyError(f"node {node} not in topology") from None

    def pod_of_tor(self, tor: int) -> int:
        """Pod (aggregation group) of ``tor``."""
        try:
            return self._tor_pod[tor]
        except KeyError:
            raise TopologyError(f"tor {tor} not in topology") from None

    def pod_of(self, node: int) -> int:
        """Pod of ``node``."""
        return self.pod_of_tor(self.tor_of(node))

    def nodes_in_tor(self, tor: int) -> list[int]:
        """Compute nodes attached to ``tor``."""
        return [n for n, t in self._node_tor.items() if t == tor]

    def tors_in_pod(self, pod: int) -> list[int]:
        """ToRs inside ``pod``."""
        return [t for t, p in self._tor_pod.items() if p == pod]

    def hop_distance(self, a: int, b: int) -> int:
        """Switch-hop distance between two nodes: 2, 4 or 6."""
        if a == b:
            raise TopologyError("hop distance needs two distinct nodes")
        if self.tor_of(a) == self.tor_of(b):
            return 2
        if self.pod_of(a) == self.pod_of(b):
            return 4
        return 6

    @property
    def tiers(self) -> int:
        """Number of switch tiers (3 for node/tor/agg/core trees)."""
        return 3

    # ------------------------------------------------------------------
    # Uplink liveness
    # ------------------------------------------------------------------
    def alive_uplinks(self, tor: int) -> int:
        """Currently alive uplinks of ``tor``."""
        if tor not in self._alive_uplinks:
            raise TopologyError(f"tor {tor} not in topology")
        return self._alive_uplinks[tor]

    def fail_uplinks(self, tor: int, count: int) -> None:
        """Mark ``count`` uplinks of ``tor`` as broken."""
        alive = self.alive_uplinks(tor)
        if count < 0 or count > alive:
            raise TopologyError(
                f"cannot fail {count} uplinks on tor {tor} with {alive} alive"
            )
        self._alive_uplinks[tor] = alive - count

    def repair_uplinks(self, tor: int, count: int | None = None) -> None:
        """Restore ``count`` uplinks of ``tor`` (all of them by default)."""
        alive = self.alive_uplinks(tor)
        capacity = self.config.uplinks_per_tor
        if count is None:
            self._alive_uplinks[tor] = capacity
            return
        if count < 0 or alive + count > capacity:
            raise TopologyError(
                f"cannot repair {count} uplinks on tor {tor}: {alive}/{capacity} alive"
            )
        self._alive_uplinks[tor] = alive + count

    def redundancy_ratio(self, tor: int) -> float:
        """Fraction of *redundant* uplinks still alive on ``tor``.

        1.0 with nothing broken, 0.0 once every redundant link is gone
        (further failures eat into base capacity and the ratio goes
        negative -- congestion is then unavoidable).
        """
        cfg = self.config
        if cfg.redundant_uplinks == 0:
            return 1.0
        broken = cfg.uplinks_per_tor - self.alive_uplinks(tor)
        return 1.0 - broken / cfg.redundant_uplinks

    def congested(self, tor: int) -> bool:
        """True when the paper's half-the-redundancy rule is violated."""
        return self.alive_uplinks(tor) < self.config.congestion_threshold
