"""Cycle-driven gossip simulation over a built topology.

Each cycle every node initiates a message exchange with each of up to
`fanout` distinct physical neighbors; an exchange may be suppressed by
the delay setting, and a completed exchange counts two forwarded
messages (the push and the pull reply).

Traffic contract: a node makes at most ``min(fanout, degree)`` exchanges
per cycle, so the total is at most ``2 * sum(min(fanout, deg)) * cycles``,
with equality when ``delay_prob`` is 0.  The wiring enters the count only
through the degree sequence; link classes (distance, failure and repair
rates) are ignored.  Two graphs with the same degree sequence, such as
the 6-cube and the 2-2-2 recursive topology, therefore forward the same
total at delay 0.  Which neighbors a node picks changes no count, so
partners are not drawn.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecError
from .topology import Topology, _check_run_length


@dataclass(frozen=True)
class GossipConfig:
    cycles: int = 5000
    fanout: int = 4
    delay_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.fanout < 1:
            raise SpecError("fanout must be at least 1")
        if not 0.0 <= self.delay_prob <= 1.0:
            raise SpecError("delay_prob must lie in [0,1]")
        if self.cycles < 1:
            raise SpecError("need at least one cycle")


@dataclass
class GossipMetrics:
    forwarded_per_cycle: np.ndarray  # messages forwarded in each cycle
    total_forwarded: int

    def __post_init__(self):
        if int(self.forwarded_per_cycle.sum()) != self.total_forwarded:
            raise SpecError("per-cycle series does not sum to the total")


def run_gossip(topology: Topology, config: GossipConfig) -> GossipMetrics:
    """Deterministic (given seed): one binomial draw per cycle.

    A cycle starts ``A = sum(min(fanout, degree))`` exchanges, each
    surviving the delay on its own, so the exchanges it completes are
    ``Binomial(A, 1 - delay_prob)``; at delay 0 that is ``A`` exactly.
    """
    _check_run_length("cycles", config.cycles)
    n = topology.n_nodes
    degrees = topology.degrees()
    if degrees.min() < 1:
        raise SpecError("gossip requires every node to have at least one neighbor")
    attempts = int(np.minimum(config.fanout, degrees).sum())
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, config.cycles)))
    forwarded_per_cycle = 2 * rng.binomial(attempts, 1.0 - config.delay_prob, size=config.cycles)
    return GossipMetrics(
        forwarded_per_cycle=forwarded_per_cycle,
        total_forwarded=int(forwarded_per_cycle.sum()),
    )


@dataclass(frozen=True)
class SweepRow:
    label: str
    n_nodes: int
    mean_total: float


def sweep_sizes(
    topologies: list[tuple[str, Topology]],
    config: GossipConfig,
    seeds=(0, 1, 2),
) -> list[SweepRow]:
    """Run the gossip simulation per topology, averaging totals over seeds."""
    rows = []
    for label, topo in topologies:
        totals = [run_gossip(topo, replace(config, seed=seed)).total_forwarded for seed in seeds]
        rows.append(SweepRow(label, topo.n_nodes, float(np.mean(totals))))
    return rows

