"""Simplified leader-based consortium consensus round simulator.

Abstracts the consensus protocol to propose-broadcast plus
vote-collect over a bandwidth-limited store-and-forward network: the
leader broadcasts the block along a breadth-first spanning tree (one
outgoing transfer at a time per node) and votes aggregate back along
the reverse tree.  No cryptography, no Byzantine behavior.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, SpecError
from .topology import Level, Topology, _bfs_levels, _check_run_length, _translation_orbits

TX_SIZE = 24  # bytes per transaction
BLOCK_CAP = 10000  # transactions per block
HEADER_BYTES = 512  # bytes per block header
VOTE_BYTES = 64  # per node, aggregated along the reverse tree
LEADER_SLOTS = 2**17  # adjacency slots per batch of leader trees: BFS arrays of at most 1 MB


@dataclass(frozen=True)
class ConsensusConfig:
    tx_rate: float = 60000.0  # transactions per second
    link_bandwidth: float = 10e9  # bits per second
    link_latency: float = 0.0  # seconds per hop
    leader_policy: str = "random"  # "random" | "hub" | "rotate:<n>"
    rounds: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("tx_rate", "link_bandwidth", "link_latency"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value}")
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


@dataclass
class ThroughputReport:
    tx_per_second: float  # overall committed / elapsed
    per_round_time: list[float]
    per_round_committed: list[int]
    leader_history: list[int]
    elapsed_s: float


def _trees(indptr: np.ndarray, indices: np.ndarray, sources: list[int]) -> list[Level]:
    """The BFS levels of the copies searched from `sources` (see
    `_bfs_levels`); ConstructionError unless each copy reaches every node."""
    k, n = len(sources), len(indptr) - 1
    levels = _bfs_levels(indptr, indices, sources)
    if k + sum(len(nodes) for nodes, _, _ in levels) != k * n:
        raise ConstructionError("broadcast source cannot reach every node")
    return levels


def _transfer(payload_bytes: float, config: ConsensusConfig) -> float:
    """The time one tree edge takes to carry `payload_bytes`."""
    return payload_bytes * 8.0 / config.link_bandwidth + config.link_latency


def _rank_depth(levels: list[Level], k: int, n: int) -> list[int]:
    """The largest root-to-node sum of child ranks in each of the k copies
    in `levels` (copy j holds the node ids [j*n, (j+1)*n))."""
    depth = np.zeros(k * n, dtype=np.int64)
    for nodes, parents, ranks in levels:
        depth[nodes] = depth[parents] + ranks
    return depth.reshape(k, n).max(axis=1).tolist()


def _gather(levels: list[Level], n: int, roots, config: ConsensusConfig) -> np.ndarray:
    """The finish time at each of `roots` of the vote gather over `levels`,
    whose node ids are below `n`; the trees of several copies fold at once."""
    size = np.ones(n, dtype=np.int64)
    done = np.zeros(n)
    for nodes, parents, ranks in reversed(levels):
        # every node of this level has its subtree size and finish time
        transfer = VOTE_BYTES * size[nodes] * 8.0 / config.link_bandwidth
        transfer += config.link_latency
        # fold each parent's children in rank order; a parent has one child per rank
        by_rank = np.argsort(ranks)
        bounds = np.cumsum(np.bincount(ranks)).tolist()  # no rank 0: bounds[0] == 0
        for lo, hi in zip(bounds, bounds[1:]):
            sel = by_rank[lo:hi]
            p = parents[sel]
            done[p] = np.maximum(done[p], done[nodes[sel]]) + transfer[sel]
        np.add.at(size, parents, size[nodes])
    return done[roots]


def broadcast_time(topology: Topology, source: int, payload_bytes: float, config: ConsensusConfig) -> float:
    """Time until the last node holds the payload.

    Each tree edge costs payload*8/bandwidth + latency, and a node
    serializes its outgoing transfers, so its i-th child receives i
    transfer times after the node itself finished receiving.  A node x
    thus holds the payload after transfer * R(x), where R(x) sums the
    child ranks on the tree path from the source to x, and the last node
    after transfer * max R.
    """
    levels = _trees(*topology.csr(), [source])
    return _transfer(payload_bytes, config) * _rank_depth(levels, 1, topology.n_nodes)[0]


def gather_time(topology: Topology, root: int, config: ConsensusConfig) -> float:
    """Vote collection along the reverse broadcast tree.

    Every node contributes VOTE_BYTES; a node waits for each child's
    aggregate (VOTE_BYTES * subtree size) and receives from its
    children one at a time.
    """
    levels = _trees(*topology.csr(), [root])
    return float(_gather(levels, topology.n_nodes, root, config))


def _xor_symmetric(topology: Topology) -> bool:
    """Whether x -> x ^ s maps the graph and its link classes onto
    themselves for every node s, and the graph is the hypercube Q_D: its
    translation orbits (`_translation_orbits`) are XOR masks, exactly D
    of them on N = 2**D nodes, each joining every node x to x ^ mask,
    and each orbit has one class.  On Q_D every FIFO BFS tree, from any
    node over any neighbor order, is the same ordered tree, the binomial
    tree: the source's child of rank j heads the subcube of the masks it
    lists after its own, so induct on D.  With more than D masks leaders
    differ (on masks {1, 2, 4, 5, 7} leaders 0 and 5 gather at different
    times).  D masks of rank below D disconnect the graph, which the BFS
    from node 0 reports."""
    orbits = _translation_orbits(topology)
    if orbits is None or not orbits.xor or len(orbits.first) != topology.n_nodes.bit_length() - 1:
        return False
    return bool((topology.class_id[orbits.first][orbits.of_link] == topology.class_id).all())


def run_consensus(topology: Topology, config: ConsensusConfig) -> ThroughputReport:
    """Round loop: pick leader, pack pending transactions up to the block
    cap, broadcast the block, collect votes, commit.

    A leader's tree does not depend on the block, so before the first
    round each distinct leader's largest rank sum R (see `broadcast_time`)
    and gather time are computed once: the leaders, in order of first
    appearance, go in batches that grow their trees as copies of the
    graph in one BFS (at most LEADER_SLOTS adjacency slots over all
    copies) and fold their gathers in one pass.  A round then takes
    transfer(block) * R + gather.  On a graph that `_xor_symmetric`
    recognizes as a hypercube every leader's tree is leader 0's, rank for
    rank, so its times are leader 0's bit for bit: only node 0's tree is
    grown.
    """
    _check_run_length("rounds", config.rounds)
    n = topology.n_nodes
    if n < 4:
        raise SpecError("consensus simulation needs at least 4 nodes")
    if config.leader_policy == "random":
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, n)))
        leaders = rng.integers(n, size=config.rounds)
    elif config.leader_policy == "hub":
        leaders = np.zeros(config.rounds, dtype=np.int64)
    else:
        period = int(config.leader_policy.split(":", 1)[1])
        leaders = np.arange(config.rounds) // period % n
    leaders = leaders.tolist()
    indptr, indices = topology.csr()
    per_batch = max(1, LEADER_SLOTS // max(1, len(indices)))
    keys = [0] * len(leaders) if _xor_symmetric(topology) else leaders
    distinct = list(dict.fromkeys(keys))
    cost: dict[int, tuple[int, float]] = {}  # leader -> (R, gather time)
    for lo in range(0, len(distinct), per_batch):
        batch = distinct[lo:lo + per_batch]
        levels = _trees(indptr, indices, batch)
        roots = np.add(batch, n * np.arange(len(batch)))
        gathers = _gather(levels, len(batch) * n, roots, config).tolist()
        cost.update(zip(batch, zip(_rank_depth(levels, len(batch), n), gathers)))

    elapsed = 0.0
    committed = 0
    per_round_time: list[float] = []
    per_round_committed: list[int] = []
    for key in keys:
        pool = config.tx_rate * elapsed - committed
        block_tx = min(BLOCK_CAP, int(pool))
        depth, gather = cost[key]
        round_time = _transfer(HEADER_BYTES + block_tx * TX_SIZE, config) * depth + gather
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
