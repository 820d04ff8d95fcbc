import math
import sys
from collections import deque

import numpy as np
import pytest

from cubenet import (
    ConsensusConfig,
    LinkClass,
    RecursionSpec,
    broadcast_time,
    build_complete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_star,
    build_rooted_tree,
    run_consensus,
    sweep_consensus,
)
from cubenet import consensus
from cubenet.consensus import (
    BLOCK_CAP,
    HEADER_BYTES,
    TX_SIZE,
    VOTE_BYTES,
    cross_size_std,
    gather_time,
)
from cubenet.errors import ConstructionError, SpecError
from cubenet.topology import _bfs_levels
from custom_graph import custom_topology
from linear_fit import linear_fit_r2


class TestConfig:
    def test_defaults_respect_block_budget(self):
        assert BLOCK_CAP * TX_SIZE <= 235_000_000

    @pytest.mark.parametrize(
        "kw",
        [
            {"rounds": 0},
            {"link_bandwidth": 0},
            {"leader_policy": "dictator"},
            {"leader_policy": "rotate:0"},
            {"leader_policy": "rotate:x"},
            {"leader_policy": "rotate:"},
            {"link_latency": -1.0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(SpecError):
            ConsensusConfig(**kw)

    @pytest.mark.parametrize("field", ["tx_rate", "link_bandwidth", "link_latency"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            ConsensusConfig(**{field: value})


class TestBroadcast:
    def test_star_hub_serializes(self):
        """The hub sends to its n-1 leaves one at a time."""
        t = build_star(9)
        cfg = ConsensusConfig(link_bandwidth=8e6)  # 1 MB/s
        assert math.isclose(broadcast_time(t, 0, 1_000_000, cfg), 8.0)

    def test_star_leaf_source(self):
        t = build_star(5)
        cfg = ConsensusConfig(link_bandwidth=8e6)
        # leaf -> hub (1 transfer), hub -> remaining 3 leaves serialized
        assert math.isclose(broadcast_time(t, 1, 1_000_000, cfg), 1.0 + 3.0)

    def test_latency_adds_per_hop(self):
        t = build_star(5)
        cfg = ConsensusConfig(link_bandwidth=8e6, link_latency=0.5)
        base = broadcast_time(t, 0, 1_000_000, ConsensusConfig(link_bandwidth=8e6))
        assert math.isclose(broadcast_time(t, 0, 1_000_000, cfg), base + 4 * 0.5)

    def test_hypercube_pipeline_beats_star(self):
        cube = build_complete_hypercube(6)
        star = build_star(64)
        cfg = ConsensusConfig(link_bandwidth=1e8)
        assert broadcast_time(cube, 0, 240_000, cfg) < broadcast_time(star, 0, 240_000, cfg)

    def test_gather_counts_all_votes(self):
        t = build_star(5)
        cfg = ConsensusConfig(link_bandwidth=8e6)
        # 4 leaves each deliver one 64-byte aggregate, serialized at the hub
        expected = 4 * 64 * 8 / 8e6
        assert math.isclose(gather_time(t, 0, cfg), expected)

    def test_unreachable_node_raises(self):
        t = custom_topology(4, [(0, 1), (2, 3)])
        cfg = ConsensusConfig(rounds=1)
        calls = (lambda: broadcast_time(t, 0, 1000, cfg), lambda: gather_time(t, 3, cfg),
                 lambda: run_consensus(t, cfg))
        for call in calls:
            with pytest.raises(ConstructionError, match="cannot reach every node"):
                call()

    def test_gather_aggregates_subtrees(self):
        t = build_rooted_tree(7, 3)  # children: 0->{1,2,3}, 1->{4,5}, 2->{6}
        cfg = ConsensusConfig(link_bandwidth=8.0)  # 1 byte/s for easy numbers
        # node 1 gathers its two leaves serialized (64 + 64 = 128), then the
        # root receives aggregates of 192, 128 and 64 bytes one at a time
        assert math.isclose(gather_time(t, 0, cfg), 128 + 192 + 128 + 64)


class TestRunConsensus:
    def test_small_network_floor(self):
        with pytest.raises(SpecError):
            run_consensus(build_ring_lattice(3, 2), ConsensusConfig(rounds=2))

    def test_ideal_throughput_matches_arrival_rate(self):
        """Fast links: the chain commits essentially everything offered."""
        t = build_complete_hypercube(2)
        report = run_consensus(t, ConsensusConfig(rounds=300, seed=0))
        assert report.tx_per_second >= 0.95 * 60000

    def test_throughput_capped_by_arrival_rate(self):
        t = build_complete_hypercube(4)
        report = run_consensus(t, ConsensusConfig(rounds=200, seed=1))
        assert report.tx_per_second <= 60000 + 1e-6

    def test_determinism(self):
        t = build_complete_hypercube(4)
        cfg = ConsensusConfig(rounds=100, seed=9)
        a = run_consensus(t, cfg)
        b = run_consensus(t, cfg)
        assert a.tx_per_second == b.tx_per_second
        assert a.leader_history == b.leader_history

    def test_hub_policy(self):
        t = build_star(8)
        report = run_consensus(t, ConsensusConfig(rounds=20, leader_policy="hub"))
        assert set(report.leader_history) == {0}

    def test_rotate_policy(self):
        t = build_complete_hypercube(3)
        report = run_consensus(t, ConsensusConfig(rounds=20, leader_policy="rotate:2"))
        assert report.leader_history == [(r // 2) % 8 for r in range(20)]

    def test_random_policy_uses_seed(self):
        t = build_complete_hypercube(3)
        a = run_consensus(t, ConsensusConfig(rounds=30, seed=0))
        b = run_consensus(t, ConsensusConfig(rounds=30, seed=1))
        assert a.leader_history != b.leader_history

    def test_accounting(self):
        t = build_complete_hypercube(3)
        cfg = ConsensusConfig(rounds=50, seed=4, link_bandwidth=1e8)
        report = run_consensus(t, cfg)
        assert sum(report.per_round_committed) == round(report.tx_per_second * report.elapsed_s)
        assert math.isclose(sum(report.per_round_time), report.elapsed_s)
        assert all(c <= BLOCK_CAP for c in report.per_round_committed)


class TestSweep:
    def test_hypercube_stable_star_degrades(self):
        cfg = ConsensusConfig(rounds=60, seed=0, link_bandwidth=1e8)
        cubes = [("cube", build_complete_hypercube(d)) for d in (2, 4, 6)]
        stars = [("star", build_star(2**d)) for d in (2, 4, 6)]
        rows = sweep_consensus(cubes + stars, cfg)
        assert cross_size_std(rows, "cube") < cross_size_std(rows, "star")

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            cross_size_std([], "cube")

    def test_hub_round_time_linear_in_n(self):
        """Star rounds are hub-serialized, so round time grows ~linearly."""
        cfg = ConsensusConfig(rounds=30, seed=0, link_bandwidth=1e8, leader_policy="hub")
        ns, times = [], []
        for d in (3, 4, 5, 6):
            t = build_star(2**d)
            report = run_consensus(t, cfg)
            ns.append(2**d)
            times.append(float(np.mean(report.per_round_time[5:])))
        assert linear_fit_r2(ns, times) > 0.99


# -- oracle: the per-edge queue BFS and the recursive gather, kept as the
# reference the array implementation must reproduce bit for bit ----------


def _oracle_children(topology, source):
    indptr, indices = topology.csr()
    adj = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(topology.n_nodes)]
    children = [[] for _ in range(topology.n_nodes)]
    seen = [False] * topology.n_nodes
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                children[u].append(v)
                queue.append(v)
    assert all(seen)
    return children


def _oracle_units(topology, source):
    """The most transfer times any node waits: a node's i-th child receives
    i transfers after the node itself."""
    children = _oracle_children(topology, source)
    units = [0] * topology.n_nodes
    order = deque([source])
    while order:
        u = order.popleft()
        for idx, c in enumerate(children[u], start=1):
            units[c] = units[u] + idx
            order.append(c)
    return max(units)


def _oracle_broadcast(topology, source, payload_bytes, config):
    transfer = payload_bytes * 8.0 / config.link_bandwidth + config.link_latency
    return _oracle_units(topology, source) * transfer


def _oracle_gather(topology, root, config):
    children = _oracle_children(topology, root)

    def finish(u):
        t = 0.0
        size = 1
        for c in children[u]:
            child_done, child_size = finish(c)
            transfer = VOTE_BYTES * child_size * 8.0 / config.link_bandwidth
            transfer += config.link_latency
            t = max(t, child_done) + transfer
            size += child_size
        return t, size

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, topology.n_nodes + 100))
    try:
        return finish(root)[0]
    finally:
        sys.setrecursionlimit(old)


def _oracle_rounds(topology, config):
    n = topology.n_nodes
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n)))
    elapsed, committed = 0.0, 0
    times, blocks, leaders = [], [], []
    for r in range(config.rounds):
        if config.leader_policy == "hub":
            leader = 0
        elif config.leader_policy == "random":
            leader = int(rng.integers(n))
        else:
            leader = (r // int(config.leader_policy.split(":", 1)[1])) % n
        block_tx = min(BLOCK_CAP, int(config.tx_rate * elapsed - committed))
        block_bytes = HEADER_BYTES + block_tx * TX_SIZE
        round_time = _oracle_broadcast(topology, leader, block_bytes, config)
        round_time += _oracle_gather(topology, leader, config)
        elapsed += round_time
        committed += block_tx
        times.append(round_time)
        blocks.append(block_tx)
        leaders.append(leader)
    return times, leaders, blocks


ORACLE_GRAPHS = {
    "star9": lambda: build_star(9),
    "tree40": lambda: build_rooted_tree(40, 3),
    "ring32": lambda: build_ring_lattice(32, 4),
    "cube5": lambda: build_complete_hypercube(5),
    "rec222": lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
}
ORACLE_CONFIGS = {
    "no-latency": ConsensusConfig(link_bandwidth=1e8),
    "latency": ConsensusConfig(link_bandwidth=1e8, link_latency=3.7e-4),
}


class TestOracle:
    @pytest.mark.parametrize("latency", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("graph", sorted(ORACLE_GRAPHS))
    def test_every_source_matches(self, graph, latency):
        t = ORACLE_GRAPHS[graph]()
        cfg = ORACLE_CONFIGS[latency]
        for source in range(t.n_nodes):
            assert broadcast_time(t, source, 240_536, cfg) == _oracle_broadcast(t, source, 240_536, cfg)
            assert gather_time(t, source, cfg) == _oracle_gather(t, source, cfg)

    @pytest.mark.parametrize("policy", ["random", "hub", "rotate:3"])
    def test_rounds_match(self, policy, monkeypatch):
        """With the default slots one batch holds every leader of tree40;
        at 3 leaders per batch the random and rotating runs span several."""
        t = build_rooted_tree(40, 3)  # not vertex-transitive: each leader has its own times
        cfg = ConsensusConfig(rounds=40, seed=7, link_bandwidth=1e8, link_latency=3.7e-4,
                              leader_policy=policy)
        times, leaders, blocks = _oracle_rounds(t, cfg)
        batches = []
        grow = consensus._trees
        monkeypatch.setattr(consensus, "_trees",
                            lambda *args: batches.append(args[2]) or grow(*args))
        for per_batch in (None, 3):
            if per_batch is not None:
                monkeypatch.setattr(consensus, "LEADER_SLOTS", per_batch * 2 * t.n_links)
            batches.clear()
            report = run_consensus(t, cfg)
            assert report.per_round_time == times
            assert report.leader_history == leaders
            assert report.per_round_committed == blocks
            if per_batch is None or policy == "hub":
                assert batches == [list(dict.fromkeys(leaders))]
            else:
                assert len(batches) > 1
                assert all(len(set(batch)) == len(batch) == per_batch for batch in batches[:-1])

    def test_deep_gather_is_iterative(self, monkeypatch):
        """A 2500-level tree: same value, and the recursion limit is never touched."""
        t = build_ring_lattice(5000, 2)
        cfg = ConsensusConfig(link_bandwidth=1e8, link_latency=3.7e-4)
        expected = _oracle_gather(t, 0, cfg)
        limit = sys.getrecursionlimit()

        def refuse(_):
            raise AssertionError("gather_time changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert gather_time(t, 0, cfg) == expected
        assert sys.getrecursionlimit() == limit


class TestMultiSource:
    """Copy j of a k-source BFS is the single-source BFS from sources[j],
    shifted by j*n, and each level lists the copies in source order."""

    @staticmethod
    def _concatenated(t, sources):
        indptr, indices = t.csr()
        singles = [_bfs_levels(indptr, indices, [s]) for s in sources]
        depth = max(len(levels) for levels in singles)
        return [
            tuple(np.concatenate([levels[d][f] + (j * t.n_nodes if f < 2 else 0)
                                  for j, levels in enumerate(singles) if d < len(levels)])
                  for f in range(3))
            for d in range(depth)
        ]

    @pytest.mark.parametrize("graph, sources", [
        ("tree40", [0, 39, 5, 0]),
        ("ring32", [3, 17]),
        ("rec222", list(range(64))),
        ("star9", [0, 4, 8]),
        ("split8", [0, 7, 3, 1, 6]),  # disconnected: each copy stops on its own
    ])
    def test_equals_shifted_single_sources(self, graph, sources):
        graphs = {**ORACLE_GRAPHS,  # a path 0-1-2, a path 3-4-5-6 and the isolated node 7
                  "split8": lambda: custom_topology(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])}
        t = graphs[graph]()
        got = _bfs_levels(*t.csr(), sources)
        want = self._concatenated(t, sources)
        assert len(got) == len(want)
        for level, expected in zip(got, want):
            for a, b in zip(level, expected):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("graph", ["ring64-6", "tree40-3", "star64"])
    def test_each_copy_broadcasts_as_its_leader_alone(self, graph):
        """A round reads its leader's rank sum from the batch: copy j's equals
        the oracle's from sources[j] alone, and times the transfer it is
        `broadcast_time`, compared with ==."""
        t = {"ring64-6": lambda: build_ring_lattice(64, 6),
             "tree40-3": lambda: build_rooted_tree(40, 3),
             "star64": lambda: build_star(64)}[graph]()
        sources = [7, 0, 39, 21, 0, 2]
        cfg = ORACLE_CONFIGS["latency"]
        depths = consensus._rank_depth(consensus._trees(*t.csr(), sources), len(sources), t.n_nodes)
        assert depths == [_oracle_units(t, s) for s in sources]
        for payload in (HEADER_BYTES, 240_536):
            transfer = consensus._transfer(payload, cfg)
            assert [transfer * d for d in depths] == [broadcast_time(t, s, payload, cfg)
                                                      for s in sources]

    def test_batch_with_unreachable_source_raises(self, monkeypatch):
        """Also in `run_consensus`, where it is raised before any round."""
        def refuse(*args):
            raise AssertionError("a round ran")

        t = custom_topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ConstructionError, match="cannot reach every node"):
            consensus._trees(*t.csr(), [0, 1, 2])
        monkeypatch.setattr(consensus, "_transfer", refuse)
        cfg = ConsensusConfig(rounds=8, leader_policy="rotate:1")  # leaders 0..3 in one batch
        with pytest.raises(ConstructionError, match="cannot reach every node"):
            run_consensus(t, cfg)


# -- one tree per hypercube: every leader reuses leader 0's times --------


TWO_CLASSES = {0: LinkClass.standard(5000), 1: LinkClass.standard(420)}


def _xor_graph(n, masks, class_of=None):
    """Node x joined to x ^ g for each mask g; link classes from class_of(g)."""
    pairs = [(x, x ^ g) for g in masks for x in range(n) if x < x ^ g]
    class_ids = [class_of(x ^ y) if class_of else 0 for x, y in pairs]
    return custom_topology(n, pairs, class_ids, TWO_CLASSES)


def _relabelled(t, seed):
    perm = np.random.default_rng(seed).permutation(t.n_nodes)
    return custom_topology(t.n_nodes, perm[t.ends].tolist())


def _q4_edited(edit):
    """Q4 with link 5 removed ("drop") or given class 1 ("reclass")."""
    pairs = build_complete_hypercube(4).ends.tolist()
    class_ids = [0] * len(pairs)
    if edit == "drop":
        del pairs[5], class_ids[5]
    else:
        class_ids[5] = 1
    return custom_topology(16, pairs, class_ids, TWO_CLASSES)


SYMMETRIC_GRAPHS = {
    "Q6": lambda: build_complete_hypercube(6),
    "3-3": lambda: build_recursive(RecursionSpec.symmetric(3, 2)),
    "2-2-2": lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
    "4-2": lambda: build_recursive(RecursionSpec.semi((4, 2))),
    "4-4-4": lambda: build_recursive(RecursionSpec.symmetric(4, 3)),
    "5-4-3": lambda: build_recursive(RecursionSpec.semi((5, 4, 3))),
    "masks-1-6-4-two-classes": lambda: _xor_graph(8, [1, 6, 4], lambda g: int(g == 6)),
}
ASYMMETRIC_GRAPHS = {
    "relabelled-Q6": lambda: _relabelled(build_complete_hypercube(6), 0),
    "ring64-6": lambda: build_ring_lattice(64, 6),
    "tree64": lambda: build_rooted_tree(64),
    "star16": lambda: build_star(16),
    "three-K4-on-12": lambda: _xor_graph(12, [1, 2, 3]),  # N not a power of two
    "Q4-minus-link": lambda: _q4_edited("drop"),
    "Q4-one-reclassed": lambda: _q4_edited("reclass"),
    "five-masks-on-8": lambda: _xor_graph(8, [1, 2, 4, 5, 7]),  # more masks than dimensions
}


def _leader_times(t, leaders, config, batch=16):
    """(largest rank sum, gather time) of each leader, read from its own
    copy in batches of `batch` leader trees."""
    n = t.n_nodes
    times = {}
    for lo in range(0, len(leaders), batch):
        chunk = leaders[lo:lo + batch]
        levels = consensus._trees(*t.csr(), chunk)
        roots = np.add(chunk, n * np.arange(len(chunk)))
        gathers = consensus._gather(levels, len(chunk) * n, roots, config).tolist()
        times.update(zip(chunk, zip(consensus._rank_depth(levels, len(chunk), n), gathers)))
    return times


class TestXorSymmetric:
    @pytest.mark.parametrize("graph", list(SYMMETRIC_GRAPHS))
    def test_accepts(self, graph):
        assert consensus._xor_symmetric(SYMMETRIC_GRAPHS[graph]())

    @pytest.mark.parametrize("graph", list(ASYMMETRIC_GRAPHS))
    def test_rejects(self, graph):
        assert not consensus._xor_symmetric(ASYMMETRIC_GRAPHS[graph]())

    def test_extra_mask_breaks_leader_invariance(self):
        """Why the detector wants exactly log2 N masks: this Cayley graph of
        Z_2^3 is XOR-symmetric, yet its leaders' gather times differ."""
        t = ASYMMETRIC_GRAPHS["five-masks-on-8"]()
        times = _leader_times(t, list(range(8)), ConsensusConfig(link_bandwidth=1e8))
        assert times[5][1] != times[0][1]

    @pytest.mark.parametrize("masks, symmetric", [([1, 2], False), ([1, 2, 3], True)],
                             ids=["two-4-cycles", "two-K4"])
    def test_disconnected_raises(self, masks, symmetric):
        """Nodes 0-3 and 4-7 form two components; with three masks of rank 2
        the detector accepts the graph and the BFS from node 0 refuses it."""
        t = _xor_graph(8, masks)
        assert consensus._xor_symmetric(t) == symmetric
        for policy in ("random", "hub", "rotate:3"):
            with pytest.raises(ConstructionError, match="cannot reach every node"):
                run_consensus(t, ConsensusConfig(rounds=10, leader_policy=policy))

    @pytest.mark.parametrize("latency", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("graph", ["Q6", "3-3", "2-2-2", "4-2", "4-4-4"])
    def test_every_leader_equals_leader_zero(self, graph, latency):
        """The gate for the shortcut: each leader's own BFS tree gives leader
        0's broadcast and gather times, compared with ==."""
        t = SYMMETRIC_GRAPHS[graph]()
        leaders = list(range(t.n_nodes))
        if t.n_nodes > 64:
            leaders = [0, *np.random.default_rng(3).choice(t.n_nodes, 64, replace=False).tolist()]
        times = _leader_times(t, leaders, ORACLE_CONFIGS[latency])
        assert all(times[leader] == times[0] for leader in leaders)

    @pytest.mark.parametrize("policy", ["random", "hub", "rotate:3"])
    @pytest.mark.parametrize("graph", ["2-2-2", "4-4-4"])
    def test_reports_equal_per_leader_path(self, graph, policy, monkeypatch):
        t = SYMMETRIC_GRAPHS[graph]()
        cfg = ConsensusConfig(rounds=40, seed=5, link_bandwidth=1e8, link_latency=3.7e-4,
                              leader_policy=policy)
        calls = []
        grow = consensus._trees
        monkeypatch.setattr(consensus, "_trees",
                            lambda *args: calls.append(args[2]) or grow(*args))
        shortcut = run_consensus(t, cfg)
        assert calls == [[0]]
        monkeypatch.setattr(consensus, "_xor_symmetric", lambda topology: False)
        assert run_consensus(t, cfg) == shortcut
        assert len(calls) > 1 or policy == "hub"

    def test_rounds_match_oracle(self):
        """The shortcut against the per-leader queue BFS and recursive gather."""
        t = build_complete_hypercube(5)
        cfg = ConsensusConfig(rounds=40, seed=7, link_bandwidth=1e8, link_latency=3.7e-4)
        times, leaders, blocks = _oracle_rounds(t, cfg)
        report = run_consensus(t, cfg)
        assert (report.per_round_time, report.leader_history, report.per_round_committed) == (
            times, leaders, blocks)

    def test_sweep_equals_per_leader_path(self, monkeypatch):
        cfg = ConsensusConfig(rounds=60, seed=0, link_bandwidth=1e8)
        cubes = [("cube", build_complete_hypercube(d)) for d in (2, 4, 6, 8)]
        shortcut = sweep_consensus(cubes, cfg)
        monkeypatch.setattr(consensus, "_xor_symmetric", lambda topology: False)
        assert sweep_consensus(cubes, cfg) == shortcut


# -- one cost per distinct leader, computed before the first round ---------


def _unmemoised_rounds(topology, config, leaders):
    """`run_consensus`'s round loop over `leaders` with the same XOR
    shortcut, but with one tree per round grown from its leader alone and
    a `broadcast_time` and a `gather_time` call every round."""
    keys = [0] * config.rounds if consensus._xor_symmetric(topology) else leaders
    elapsed, committed, times, blocks = 0.0, 0, [], []
    for key in keys:
        block_tx = min(BLOCK_CAP, int(config.tx_rate * elapsed - committed))
        round_time = broadcast_time(topology, key, HEADER_BYTES + block_tx * TX_SIZE, config)
        round_time += gather_time(topology, key, config)
        elapsed += round_time
        committed += block_tx
        times.append(round_time)
        blocks.append(block_tx)
    return times, blocks, committed / elapsed, elapsed


class TestLeaderCosts:
    @pytest.mark.parametrize("graph, policy", [
        ("4-4-4", "random"), ("4-4-4", "rotate:50"), ("2-2-2", "rotate:3"),
        ("ring64-6", "random"), ("ring64-6", "rotate:3"),
    ])
    def test_each_leader_grown_once(self, graph, policy, monkeypatch):
        """Each distinct leader's tree is grown once per run, in chunks of
        at most 3 leaders in order of first appearance, also when a leader
        comes back after later ones; a hypercube grows node 0's tree alone."""
        t = {**SYMMETRIC_GRAPHS, **ASYMMETRIC_GRAPHS}[graph]()
        monkeypatch.setattr(consensus, "LEADER_SLOTS", 3 * 2 * t.n_links)
        calls = []
        grow = consensus._trees
        monkeypatch.setattr(consensus, "_trees",
                            lambda *args: calls.append(args[2]) or grow(*args))
        report = run_consensus(t, ConsensusConfig(rounds=200, seed=1, leader_policy=policy))
        if consensus._xor_symmetric(t):
            assert calls == [[0]]
        else:
            history = report.leader_history
            distinct = list(dict.fromkeys(history))
            assert calls == [distinct[lo:lo + 3] for lo in range(0, len(distinct), 3)]
            runs = 1 + sum(a != b for a, b in zip(history, history[1:]))
            assert runs > len(distinct)  # some leader comes back after another


class TestBroadcastPerBlockSize:
    """Every round equals a fresh `broadcast_time` of its block size plus
    `gather_time` from its leader (leader 0 on a hypercube)."""

    @pytest.mark.parametrize("policy", ["random", "hub", "rotate:3"])
    @pytest.mark.parametrize("graph", ["2-2-2", "4-4-4", "ring64-6"])
    def test_reports_equal_unmemoised(self, graph, policy, monkeypatch):
        """Bit for bit, also across several tree batches of the ring."""
        t = {**SYMMETRIC_GRAPHS, **ASYMMETRIC_GRAPHS}[graph]()
        cfg = ConsensusConfig(rounds=200, seed=1, link_bandwidth=1e8, link_latency=3.7e-4,
                              leader_policy=policy)
        if graph == "ring64-6":
            monkeypatch.setattr(consensus, "LEADER_SLOTS", 5 * 2 * t.n_links)
        report = run_consensus(t, cfg)  # its leader list is checked by TestOracle
        assert (report.per_round_time, report.per_round_committed, report.tx_per_second,
                report.elapsed_s) == _unmemoised_rounds(t, cfg, report.leader_history)
