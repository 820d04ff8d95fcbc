"""Simplified leader-based consortium consensus round simulator.

Abstracts the consensus protocol to propose-broadcast plus
vote-collect over a bandwidth-limited store-and-forward network: the
leader broadcasts the block along a breadth-first spanning tree (one
outgoing transfer at a time per node) and votes aggregate back along
the reverse tree.  No cryptography, no Byzantine behavior.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, SpecError
from .topology import Topology


@dataclass(frozen=True)
class ConsensusConfig:
    tx_rate: float = 60000.0  # transactions per second
    tx_size: int = 24  # bytes
    block_cap: int = 10000  # transactions per block
    max_block_bytes: int = 235_000_000
    link_bandwidth: float = 10e9  # bits per second
    link_latency: float = 0.0  # seconds per hop
    leader_policy: str = "random"  # "random" | "hub" | "rotate:<n>"
    rounds: int = 200
    seed: int = 0
    header_bytes: int = 512
    vote_bytes: int = 64  # per node, aggregated along the reverse tree

    def __post_init__(self):
        if self.block_cap * self.tx_size > self.max_block_bytes:
            raise SpecError("block_cap * tx_size exceeds max_block_bytes")
        if min(self.tx_rate, self.link_bandwidth) <= 0 or self.rounds < 1:
            raise SpecError("rates must be positive and rounds >= 1")
        if self.link_latency < 0:
            raise SpecError("latency must be non-negative")
        policy = self.leader_policy
        if policy not in ("random", "hub") and not policy.startswith("rotate:"):
            raise SpecError(f"unknown leader policy {policy!r}")
        if policy.startswith("rotate:"):
            period = policy.split(":", 1)[1]
            try:
                ok = int(period) >= 1
            except ValueError:
                ok = False
            if not ok:
                raise SpecError(f"rotation period must be an integer >= 1, got {period!r}")


# one BFS level: (nodes in queue order, their parents, their child ranks)
Level = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class ThroughputReport:
    tx_per_second: float  # overall committed / elapsed
    per_round_time: list[float]
    per_round_committed: list[int]
    leader_history: list[int]
    elapsed_s: float


def _bfs_levels(indptr: np.ndarray, indices: np.ndarray, source: int) -> list[Level]:
    """The queue-order BFS tree from `source`, one level at a time.

    Each level lists its nodes in queue order with their parents and
    their 1-based rank among the parent's children.  A FIFO queue over
    sorted adjacency lists dequeues a whole level before the next, so a
    node's parent is the first node of the level above, in queue order,
    to list it.  Concatenating the frontier's neighbor slices in queue
    order and keeping each unseen node's first occurrence therefore
    gives exactly that tree.
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    # A node is a candidate in one level and a parent in the next, so these
    # need no reset: its first position among the level's candidates, and
    # the position of its first child in the level below.
    unset = np.iinfo(np.int64).max
    first = np.full(n, unset)
    head = np.full(n, unset)
    frontier = np.array([source], dtype=np.int64)
    levels: list[Level] = []
    reached = 1
    while True:
        counts = degree[frontier]
        ends = np.cumsum(counts)
        slots = np.repeat(indptr[frontier] - ends + counts, counts) + np.arange(ends[-1])
        cand = indices[slots]
        fresh = ~seen[cand]
        cand = cand[fresh]
        if not cand.size:
            break
        parents = np.repeat(frontier, counts)[fresh]
        pos = np.arange(cand.size)
        np.minimum.at(first, cand, pos)
        keep = first[cand] == pos
        nodes, parents = cand[keep], parents[keep]
        seen[nodes] = True
        pos = pos[: nodes.size]
        np.minimum.at(head, parents, pos)
        levels.append((nodes, parents, pos - head[parents] + 1))
        reached += nodes.size
        frontier = nodes
    if reached != n:
        raise ConstructionError("broadcast source cannot reach every node")
    return levels


def _broadcast(levels: list[Level], n: int, payload_bytes: float, config: ConsensusConfig) -> float:
    transfer = payload_bytes * 8.0 / config.link_bandwidth + config.link_latency
    arrival = np.zeros(n)
    for nodes, parents, ranks in levels:
        arrival[nodes] = arrival[parents] + ranks * transfer
    return float(arrival.max())


def _gather(levels: list[Level], n: int, root: int, config: ConsensusConfig) -> float:
    size = np.ones(n, dtype=np.int64)
    done = np.zeros(n)
    for nodes, parents, ranks in reversed(levels):
        # every node of this level has its subtree size and finish time
        transfer = config.vote_bytes * size[nodes] * 8.0 / config.link_bandwidth
        transfer += config.link_latency
        # fold each parent's children in rank order; a parent has one child per rank
        by_rank = np.argsort(ranks, kind="stable")
        bounds = np.cumsum(np.bincount(ranks)).tolist()  # no rank 0: bounds[0] == 0
        for lo, hi in zip(bounds, bounds[1:]):
            sel = by_rank[lo:hi]
            p = parents[sel]
            done[p] = np.maximum(done[p], done[nodes[sel]]) + transfer[sel]
        np.add.at(size, parents, size[nodes])
    return float(done[root])


def broadcast_time(topology: Topology, source: int, payload_bytes: float, config: ConsensusConfig) -> float:
    """Time until the last node holds the payload.

    Each tree edge costs payload*8/bandwidth + latency, and a node
    serializes its outgoing transfers, so its i-th child receives i
    transfer times after the node itself finished receiving.
    """
    levels = _bfs_levels(*topology.csr(), source)
    return _broadcast(levels, topology.n_nodes, payload_bytes, config)


def gather_time(topology: Topology, root: int, config: ConsensusConfig) -> float:
    """Vote collection along the reverse broadcast tree.

    Every node contributes `vote_bytes`; a node waits for each child's
    aggregate (vote_bytes * subtree size) and receives from its
    children one at a time.
    """
    return _gather(_bfs_levels(*topology.csr(), root), topology.n_nodes, root, config)


def _leader_sequence(config: ConsensusConfig, n: int):
    if config.leader_policy == "hub":
        def pick(r: int, rng) -> int:
            return 0
    elif config.leader_policy == "random":
        def pick(r: int, rng) -> int:
            return int(rng.integers(n))
    else:
        period = int(config.leader_policy.split(":", 1)[1])

        def pick(r: int, rng) -> int:
            return (r // period) % n
    return pick


def run_consensus(topology: Topology, config: ConsensusConfig) -> ThroughputReport:
    """Round loop: pick leader, pack pending transactions up to the block
    cap, broadcast the block, collect votes, commit."""
    n = topology.n_nodes
    if n < 4:
        raise SpecError("consensus simulation needs at least 4 nodes")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n)))
    pick = _leader_sequence(config, n)
    indptr, indices = topology.csr()
    tree_root = -1

    elapsed = 0.0
    committed = 0
    per_round_time: list[float] = []
    per_round_committed: list[int] = []
    leaders: list[int] = []
    for r in range(config.rounds):
        leader = pick(r, rng)
        leaders.append(leader)
        pool = config.tx_rate * elapsed - committed
        block_tx = min(config.block_cap, int(pool))
        block_bytes = config.header_bytes + block_tx * config.tx_size
        if leader != tree_root:
            # the tree and its gather time depend only on the leader
            levels = _bfs_levels(indptr, indices, leader)
            gather = _gather(levels, n, leader, config)
            tree_root = leader
        round_time = _broadcast(levels, n, block_bytes, config)
        round_time += gather
        elapsed += round_time
        committed += block_tx
        per_round_time.append(round_time)
        per_round_committed.append(block_tx)

    return ThroughputReport(
        tx_per_second=committed / elapsed,
        per_round_time=per_round_time,
        per_round_committed=per_round_committed,
        leader_history=leaders,
        elapsed_s=elapsed,
    )


@dataclass(frozen=True)
class ConsensusSweepRow:
    kind: str
    n_nodes: int
    tx_per_second: float


def sweep_consensus(
    topologies: list[tuple[str, Topology]],
    config: ConsensusConfig,
) -> list[ConsensusSweepRow]:
    """Throughput per (kind, size); use cross-size std per kind to judge
    stability."""
    return [
        ConsensusSweepRow(label, topo.n_nodes, run_consensus(topo, config).tx_per_second)
        for label, topo in topologies
    ]


def cross_size_std(rows: list[ConsensusSweepRow], kind: str) -> float:
    values = [r.tx_per_second for r in rows if r.kind == kind]
    if not values:
        raise SpecError(f"no sweep rows for kind {kind!r}")
    return float(np.std(values))
