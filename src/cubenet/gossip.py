"""Cycle-driven gossip simulation over a built topology.

Each cycle every node picks a random subset of `fanout` distinct
physical neighbors and initiates a message exchange with each; an
exchange may be suppressed by the delay setting, and a completed
exchange counts two forwarded messages (the push and the pull reply).

Traffic contract: a node makes at most ``min(fanout, degree)`` exchanges
per cycle, so the total is at most ``2 * sum(min(fanout, deg)) * cycles``,
with equality when ``delay_prob`` is 0.  The wiring enters the count only
through the degree sequence; link classes (distance, failure and repair
rates) are ignored.  Two graphs with the same degree sequence, such as
the 6-cube and the 2-2-2 recursive topology, therefore forward the same
total at delay 0.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecError
from .topology import Topology, _check_run_length

CYCLE_SLOTS = 2**15  # neighbor slots per block of cycles: 256 KB per float64 array


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
    forwarded_per_cycle: np.ndarray
    total_forwarded: int
    in_degree_histogram: np.ndarray  # per node: times selected as exchange partner
    per_node_forwarded: np.ndarray

    def __post_init__(self):
        if int(self.forwarded_per_cycle.sum()) != self.total_forwarded:
            raise SpecError("per-cycle series does not sum to the total")


def run_gossip(topology: Topology, config: GossipConfig) -> GossipMetrics:
    """Deterministic (given seed) cycle loop, one array step per block of cycles.

    Nodes with degree below the fanout use their whole neighbor set.
    Suppression is applied per exchange; the surviving partners of a
    node's cycle are a uniform subset of its neighbors, so suppression
    is drawn first and partners second: each node ranks its neighbors by
    fresh uniform keys and takes the first `successes` of them.  Each
    cycle draws its binomial and then its keys, as a per-cycle loop
    would; the keys of a block of cycles (at most CYCLE_SLOTS neighbor
    slots) fill one buffer, and the ranking and counting run once per
    block.  Without delay the block's keys are one draw, which reads the
    same stream as one draw per cycle.
    """
    _check_run_length("cycles", config.cycles)
    n = topology.n_nodes
    indptr, indices = topology.csr()
    degrees = np.diff(indptr)
    if degrees.min() < 1:
        raise SpecError("gossip requires every node to have at least one neighbor")
    attempts = np.minimum(config.fanout, degrees)
    # padded neighbor table; padding slots get keys past every valid key
    slots = np.arange(degrees.max())
    padding = slots >= degrees[:, None]
    neighbors = np.zeros(padding.size, dtype=np.int64)
    neighbors[~padding.ravel()] = indices
    row_start = slots.size * np.arange(n)[:, None]  # flat index of each row's first slot

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, config.cycles)))
    forwarded_per_cycle = np.zeros(config.cycles, dtype=np.int64)
    in_degree = np.zeros(n, dtype=np.int64)
    per_node = np.zeros(n, dtype=np.int64)
    block = min(config.cycles, max(1, CYCLE_SLOTS // padding.size))
    keys = np.empty((block, *padding.shape))
    if config.delay_prob > 0.0:
        successes = np.empty((block, n), dtype=np.int64)
    else:
        successes = np.broadcast_to(attempts, (block, n))
    # when every node has the same attempts, one scalar draw gives the
    # array draw's variates at a third of its cost
    trials, size = (int(attempts[0]), n) if (attempts == attempts[0]).all() else (attempts, None)

    for lo in range(0, config.cycles, block):
        b = min(block, config.cycles - lo)
        if config.delay_prob > 0.0:
            for c in range(b):
                successes[c] = rng.binomial(trials, 1.0 - config.delay_prob, size)
                rng.random(out=keys[c])
        else:
            rng.random(out=keys[:b])
        exchanges = successes[:b]
        forwarded_per_cycle[lo:lo + b] = 2 * exchanges.sum(axis=1)
        keys[:b, padding] = 2.0
        # each node's partners: the neighbors at its first `exchanges` key ranks
        order = np.argsort(keys[:b], axis=2) + row_start
        hits = np.bincount(neighbors[order[slots < exchanges[:, :, None]]], minlength=n)
        in_degree += hits  # one pull reply per exchange a node receives
        per_node += exchanges.sum(axis=0) + hits  # pushes plus replies

    return GossipMetrics(
        forwarded_per_cycle=forwarded_per_cycle,
        total_forwarded=int(forwarded_per_cycle.sum()),
        in_degree_histogram=in_degree,
        per_node_forwarded=per_node,
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

