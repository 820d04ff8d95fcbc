import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenet import (
    GossipConfig,
    RecursionSpec,
    build_complete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    run_gossip,
    sweep_sizes,
)
from cubenet import gossip
from cubenet.errors import SpecError
from custom_graph import custom_topology
from linear_fit import linear_fit_r2


class TestConfig:
    def test_defaults(self):
        cfg = GossipConfig()
        assert (cfg.cycles, cfg.fanout, cfg.delay_prob) == (5000, 4, 0.0)

    @pytest.mark.parametrize("kw", [{"fanout": 0}, {"delay_prob": 1.5}, {"cycles": 0}])
    def test_rejects(self, kw):
        with pytest.raises(SpecError):
            GossipConfig(**kw)


class TestRunGossip:
    def test_no_delay_total_is_closed_form(self):
        """Every cycle each node completes fanout exchanges, 2 messages each."""
        t = build_complete_hypercube(4)
        cfg = GossipConfig(cycles=100, fanout=4, seed=5)
        m = run_gossip(t, cfg)
        assert m.total_forwarded == 2 * 4 * 16 * 100
        assert (m.forwarded_per_cycle == 2 * 4 * 16).all()

    def test_isolated_node_rejected(self):
        t = custom_topology(4, [(0, 1), (1, 2)])
        with pytest.raises(SpecError, match="at least one neighbor"):
            run_gossip(t, GossipConfig(cycles=5))

    def test_fanout_clipped_by_degree(self):
        t = build_ring_lattice(8, 2)
        m = run_gossip(t, GossipConfig(cycles=10, fanout=4))
        assert m.total_forwarded == 2 * 2 * 8 * 10  # degree 2 < fanout 4

    def test_delay_scales_total(self):
        t = build_complete_hypercube(5)
        base = run_gossip(t, GossipConfig(cycles=400, fanout=4, seed=2))
        delayed = run_gossip(t, GossipConfig(cycles=400, fanout=4, delay_prob=0.5, seed=2))
        ratio = delayed.total_forwarded / base.total_forwarded
        assert abs(ratio - 0.5) < 0.02

    def test_full_delay_silences(self):
        t = build_complete_hypercube(3)
        m = run_gossip(t, GossipConfig(cycles=20, delay_prob=1.0))
        assert m.total_forwarded == 0

    def test_determinism(self):
        t = build_ring_lattice(16, 4)
        cfg = GossipConfig(cycles=50, fanout=3, delay_prob=0.3, seed=11)
        a = run_gossip(t, cfg)
        b = run_gossip(t, cfg)
        assert a.total_forwarded == b.total_forwarded
        assert (a.per_node_forwarded == b.per_node_forwarded).all()
        assert (a.in_degree_histogram == b.in_degree_histogram).all()

    def test_seed_changes_trajectory(self):
        t = build_ring_lattice(16, 4)
        a = run_gossip(t, GossipConfig(cycles=80, delay_prob=0.4, seed=0))
        b = run_gossip(t, GossipConfig(cycles=80, delay_prob=0.4, seed=1))
        assert (a.forwarded_per_cycle != b.forwarded_per_cycle).any()

    def test_conservation(self):
        """Pushes + replies over nodes equals the forwarded total."""
        t = build_complete_hypercube(4)
        m = run_gossip(t, GossipConfig(cycles=60, delay_prob=0.25, seed=3))
        assert int(m.per_node_forwarded.sum()) == m.total_forwarded
        # one reply per completed exchange
        assert int(m.in_degree_histogram.sum()) == m.total_forwarded // 2

    def test_partners_are_neighbors_star(self):
        """On a star every leaf can only ever pick the hub."""
        t = build_star(8)
        m = run_gossip(t, GossipConfig(cycles=30, fanout=2, seed=0))
        # leaves have degree 1: one exchange each; hub has degree 7: two
        assert int(m.per_node_forwarded[1:].sum()) > 0
        leaf_exchanges = 7 * 1 * 30
        hub_exchanges = 2 * 30
        assert m.total_forwarded == 2 * (leaf_exchanges + hub_exchanges)
        # every leaf-initiated exchange targets the hub
        assert m.in_degree_histogram[0] == leaf_exchanges

    def test_hub_partners_uniform_star(self):
        """The hub picks 2 of its 7 leaves per cycle, so each leaf's count is
        Binomial(7000, 2/7); padding slots and biased picks would show here."""
        t = build_star(8)
        cycles, p = 7000, 2 / 7
        m = run_gossip(t, GossipConfig(cycles=cycles, fanout=2, seed=0))
        sd = (cycles * p * (1 - p)) ** 0.5
        assert m.in_degree_histogram[0] == 7 * cycles
        assert (abs(m.in_degree_histogram[1:] - cycles * p) <= 5 * sd).all()

    def test_in_degree_uniform_mixed_degrees(self):
        """On a tree (degrees 1 and 3, fanout 2) node v is picked by neighbor
        u with probability min(2, deg u) / deg u per cycle, independently."""
        t = build_rooted_tree(40, 3)
        cycles = 3000
        m = run_gossip(t, GossipConfig(cycles=cycles, fanout=2, seed=0))
        indptr, indices = t.csr()
        adj = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(t.n_nodes)]
        p = [[min(2, len(adj[u])) / len(adj[u]) for u in adj[v]] for v in range(t.n_nodes)]
        mean = np.array([cycles * sum(pv) for pv in p])
        sd = np.sqrt([cycles * sum(q * (1 - q) for q in pv) for pv in p])
        assert (np.abs(m.in_degree_histogram - mean) <= 5 * sd + 1e-9).all()

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.integers(2, 5),
        fanout=st.integers(1, 6),
        delay=st.floats(0.0, 1.0),
        seed=st.integers(0, 100),
    )
    def test_total_bounded(self, dim, fanout, delay, seed):
        t = build_complete_hypercube(dim)
        m = run_gossip(t, GossipConfig(cycles=5, fanout=fanout, delay_prob=delay, seed=seed))
        cap = 2 * min(fanout, dim) * t.n_nodes * 5
        assert 0 <= m.total_forwarded <= cap
        assert int(m.per_node_forwarded.sum()) == m.total_forwarded


class TestSweep:
    def test_linear_in_n(self):
        topos = [(f"cube{d}", build_complete_hypercube(d)) for d in (3, 4, 5, 6)]
        rows = sweep_sizes(topos, GossipConfig(cycles=50, fanout=3), seeds=(0, 1))
        xs = [r.n_nodes for r in rows]
        ys = [r.mean_total for r in rows]
        assert linear_fit_r2(xs, ys) > 0.999
        assert ys == [2 * 3 * x * 50 for x in xs]  # every seed forwards the delay-0 total

    def test_r2_constant_series(self):
        assert linear_fit_r2([1, 2, 3], [5, 5, 5]) == 1.0


# -- oracle: the one-step-per-cycle loop, kept as the reference the block
# loop must reproduce bit for bit ---------------------------------------


def _oracle_gossip(topology, config):
    n = topology.n_nodes
    indptr, indices = topology.csr()
    degrees = np.diff(indptr)
    attempts = np.minimum(config.fanout, degrees)
    slots = np.arange(degrees.max())
    padding = slots >= degrees[:, None]
    neighbors = np.zeros(padding.shape, dtype=np.int64)
    neighbors[~padding] = indices

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, config.cycles)))
    forwarded_per_cycle = np.zeros(config.cycles, dtype=np.int64)
    in_degree = np.zeros(n, dtype=np.int64)
    per_node = np.zeros(n, dtype=np.int64)
    for cycle in range(config.cycles):
        if config.delay_prob > 0.0:
            successes = rng.binomial(attempts, 1.0 - config.delay_prob)
        else:
            successes = attempts
        forwarded_per_cycle[cycle] = 2 * int(successes.sum())
        keys = rng.random(padding.shape)
        keys[padding] = 2.0
        ranked = np.take_along_axis(neighbors, np.argsort(keys, axis=1), axis=1)
        hits = np.bincount(ranked[slots < successes[:, None]], minlength=n)
        in_degree += hits
        per_node += successes + hits
    return forwarded_per_cycle, in_degree, per_node


ORACLE_GRAPHS = {
    "q6": lambda: build_complete_hypercube(6),
    "rec222": lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
    "star9": lambda: build_star(9),  # uneven attempts: the array binomial
    "tree40": lambda: build_rooted_tree(40, 3),  # uneven attempts: the array binomial
}


class TestOracle:
    @pytest.mark.parametrize("slots", [None, 1000], ids=["default-block", "small-block"])
    @pytest.mark.parametrize("fanout", [2, 7])  # 7 is clipped by every graph's degree
    @pytest.mark.parametrize("delay", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("graph", sorted(ORACLE_GRAPHS))
    def test_bit_identical(self, monkeypatch, graph, delay, fanout, slots):
        """257 cycles is no multiple of any block here: 85 cycles of Q6 or
        2-2-2 by default; 2, 13 or 8 cycles of Q6/2-2-2, star9 or tree40
        at 1000 slots (star9 and tree40 fit whole in one default block)."""
        if slots is not None:
            monkeypatch.setattr(gossip, "CYCLE_SLOTS", slots)
        t = ORACLE_GRAPHS[graph]()
        cfg = GossipConfig(cycles=257, fanout=fanout, delay_prob=delay, seed=13)
        m = run_gossip(t, cfg)
        forwarded, in_degree, per_node = _oracle_gossip(t, cfg)
        assert np.array_equal(m.forwarded_per_cycle, forwarded)
        assert np.array_equal(m.in_degree_histogram, in_degree)
        assert np.array_equal(m.per_node_forwarded, per_node)
