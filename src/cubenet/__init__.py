"""Topology-reliability workbench for consortium-blockchain P2P networks.

Builds hypercube-based and hierarchical recursive physical topologies,
quantifies their partition tolerance (probability and average minimum
repair time), and runs gossip and simplified consensus simulations on
top of them.
"""

__version__ = "0.1.0"

from .topology import (  # noqa: F401
    DomainGraph,
    LinkClass,
    RecursionSpec,
    Topology,
    build_complete_hypercube,
    build_incomplete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    closed_form_link_count,
)
from .reliability import (  # noqa: F401
    PartitionReport,
    analyze_hierarchical,
    partition_tolerance,
)
from .gossip import GossipConfig, GossipMetrics, run_gossip, sweep_sizes  # noqa: F401
from .consensus import (  # noqa: F401
    ConsensusConfig,
    ThroughputReport,
    broadcast_time,
    gather_time,
    run_consensus,
    sweep_consensus,
)
