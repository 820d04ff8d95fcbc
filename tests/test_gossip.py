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
        assert (a.forwarded_per_cycle == b.forwarded_per_cycle).all()

    def test_seed_changes_trajectory(self):
        t = build_ring_lattice(16, 4)
        a = run_gossip(t, GossipConfig(cycles=80, delay_prob=0.4, seed=0))
        b = run_gossip(t, GossipConfig(cycles=80, delay_prob=0.4, seed=1))
        assert (a.forwarded_per_cycle != b.forwarded_per_cycle).any()

    def test_conservation(self):
        """Every cycle forwards a push and a reply per completed exchange."""
        t = build_complete_hypercube(4)
        m = run_gossip(t, GossipConfig(cycles=60, delay_prob=0.25, seed=3))
        assert int(m.forwarded_per_cycle.sum()) == m.total_forwarded
        assert (m.forwarded_per_cycle % 2 == 0).all()

    def test_partners_are_neighbors_star(self):
        """On a star each leaf has only the hub to exchange with."""
        t = build_star(8)
        m = run_gossip(t, GossipConfig(cycles=30, fanout=2, seed=0))
        # leaves have degree 1: one exchange each; hub has degree 7: two
        leaf_exchanges = 7 * 1 * 30
        hub_exchanges = 2 * 30
        assert m.total_forwarded == 2 * (leaf_exchanges + hub_exchanges)

    @pytest.mark.parametrize("graph", ["star9", "tree40"])
    def test_delayed_exchanges_binomial(self, graph):
        """With uneven degrees a delayed cycle still completes
        Binomial(sum min(fanout, deg), 1 - delay) exchanges: the mean and
        the variance of 20 000 cycles lie within 5 sigma of it."""
        t = ORACLE_GRAPHS[graph]()
        cycles, fanout, p = 20_000, 2, 0.7
        attempts = int(np.minimum(fanout, t.degrees()).sum())
        m = run_gossip(t, GossipConfig(cycles=cycles, fanout=fanout, delay_prob=1 - p, seed=4))
        x = m.forwarded_per_cycle / 2
        mean, var = attempts * p, attempts * p * (1 - p)
        # central moments of a binomial: mu4 = var * (1 + 3 (A - 2) p q)
        mu4 = var * (1 + 3 * (attempts - 2) * p * (1 - p))
        assert abs(x.mean() - mean) <= 5 * (var / cycles) ** 0.5
        assert abs(x.var(ddof=1) - var) <= 5 * ((mu4 - var**2) / cycles) ** 0.5

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
        assert ((0 <= m.forwarded_per_cycle) & (m.forwarded_per_cycle <= cap // 5)).all()


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


# -- oracle: the per-cycle loop of scalar binomial draws, kept as the
# reference the one array draw must reproduce bit for bit -------------


def _oracle_gossip(topology, config):
    indptr, _ = topology.csr()
    attempts = sum(min(config.fanout, int(d)) for d in np.diff(indptr))
    n = topology.n_nodes
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, n, config.cycles)))
    forwarded_per_cycle = np.zeros(config.cycles, dtype=np.int64)
    for cycle in range(config.cycles):
        forwarded_per_cycle[cycle] = 2 * rng.binomial(attempts, 1.0 - config.delay_prob)
    return forwarded_per_cycle


ORACLE_GRAPHS = {
    "q6": lambda: build_complete_hypercube(6),
    "rec222": lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
    "star9": lambda: build_star(9),  # uneven min(fanout, degree)
    "tree40": lambda: build_rooted_tree(40, 3),  # uneven min(fanout, degree)
}


class TestOracle:
    @pytest.mark.parametrize("fanout", [2, 7])  # 7 is clipped by every graph's degree
    @pytest.mark.parametrize("delay", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("graph", sorted(ORACLE_GRAPHS))
    def test_bit_identical(self, graph, delay, fanout):
        t = ORACLE_GRAPHS[graph]()
        cfg = GossipConfig(cycles=257, fanout=fanout, delay_prob=delay, seed=13)
        m = run_gossip(t, cfg)
        assert np.array_equal(m.forwarded_per_cycle, _oracle_gossip(t, cfg))
