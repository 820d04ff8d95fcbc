import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys

import networkx as nx
import numpy as np
from networkx.algorithms.connectivity import (
    build_auxiliary_edge_connectivity,
    local_edge_connectivity,
)
from networkx.algorithms.flow import build_residual_network
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from cubenet import (
    LinkClass,
    RecursionSpec,
    analyze_hierarchical,
    build_complete_hypercube,
    build_incomplete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    partition_tolerance,
)
import cubenet
from cubenet import cli, reliability
from cubenet.errors import NumericError, ResourceLimitError, SpecError
from cubenet.reliability import (
    ORDER_SLOTS,
    PartitionReport,
    _arc_lists,
    _algebraic_connectivity_lb,
    _character_lam2,
    _class_values,
    _critical_counts,
    _cut_lower_bound,
    _edge_connectivity,
    _exact_states,
    _max_flow,
    _repair_times,
    binom_pmf_vector,
    default_quorum,
)
from cubenet.topology import DomainGraph, Orbits, _bfs_levels, _translation_orbits
from cubenet.unionfind import UnionFind
from bruteforce_oracle import _component_roots, exact_partition_tolerance_bruteforce
from bruteforce_oracle import max_component_sizes, repair_times
from custom_graph import custom_topology
from markov_oracle import CountChain, binomial_stationary, stationary, transition_matrix

Q5000 = (1 / 2190) / (1 / 2190 + 1 / 24)  # steady-state down probability, 5000 km


def transition_prob(i: int, j: int, L: int, lam: float, mu: float) -> float:
    """Oracle for one entry of the count chain's transition matrix:
    P(count i -> count j) in one time unit, a log-space sum over the
    number m of invalid links left unrepaired during the step."""
    m = np.arange(max(i + j - L, 0), min(i, j) + 1, dtype=float)
    if m.size == 0:
        return 0.0
    # repairs: i-m of i invalid links repaired (prob mu each)
    lg = gammaln(i + 1) - gammaln(m + 1) - gammaln(i - m + 1)
    if mu < 1.0:
        terms = lg + (i - m) * math.log(mu) + m * math.log1p(-mu)
    else:
        terms = np.where(m == 0, lg, -np.inf)
    # failures: j-m of L-i working links fail (prob lam each)
    f = j - m
    lg2 = gammaln(L - i + 1) - gammaln(f + 1) - gammaln(L - i - f + 1)
    terms = terms + lg2 + f * math.log(lam) + (L - i - f) * math.log1p(-lam)
    value = float(np.exp(logsumexp(terms)))
    return 0.0 if value < 1e-300 else value


class TestCountChain:
    def test_pmf_of_certain_failure(self):
        assert binom_pmf_vector(5, 1.0).tolist() == [0.0] * 5 + [1.0]

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1536, 100_000, 5_242_880])
    def test_windowed_pmf_equals_full(self, n):
        """Evaluated on the window around the mode, the pmf is
        bit-identical to the log pmf of every state, flushed below
        UNDERFLOW_FLOOR: q near 0 (1e-300 puts n = 1's state 1 at the
        floor) and near 1, and n = 5 242 880 (6 ms against 2.2 s on a
        2-core Xeon)."""
        qs = [Q5000] if n == 5_242_880 else [1e-320, 1e-300, 1e-12, Q5000, 0.3, 0.5,
                                             1 - 1e-9, 1 - 2**-53]
        for q in qs:
            want = np.exp(reliability._log_binom_pmf(np.arange(n + 1, dtype=float), n, q))
            want[want < reliability.UNDERFLOW_FLOOR] = 0.0
            got = binom_pmf_vector(n, q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, q)

    def test_rates_from_class(self):
        c = LinkClass.standard(5000)
        chain = CountChain(12, c.lam, c.mu)
        assert math.isclose(chain.down_prob, Q5000)

    @pytest.mark.parametrize("L", [1, 4, 12, 80])
    def test_rows_stochastic(self, L):
        P = transition_matrix(CountChain(L, 1 / 2190, 1 / 24))
        np.testing.assert_allclose(P.sum(axis=1), np.ones(L + 1), atol=1e-12)
        assert (P >= 0).all()

    def test_single_link_entries(self):
        lam, mu = 0.1, 0.4
        P = transition_matrix(CountChain(1, lam, mu))
        # a repaired link cannot fail again within the same step
        expected = np.array([[1 - lam, lam], [mu, 1 - mu]])
        np.testing.assert_allclose(P, expected, atol=1e-12)

    def test_transition_prob_matches_matrix(self):
        L = 9
        P = transition_matrix(CountChain(L, 1 / 3650, 1 / 14.4))
        for i in [0, 3, 9]:
            for j in range(L + 1):
                assert math.isclose(
                    transition_prob(i, j, L, 1 / 3650, 1 / 14.4), P[i, j], abs_tol=1e-13
                )

    @settings(max_examples=20, deadline=None)
    @given(
        L=st.integers(1, 40),
        lam=st.floats(1e-4, 0.9),
        mu=st.floats(0.05, 1.0),
    )
    def test_stationary_matches_binomial(self, L, lam, mu):
        """Independent links give a Binomial(L, lam/(lam+mu)) stationary law."""
        chain = CountChain(L, lam, mu)
        pi = stationary(chain).pi
        ref = binomial_stationary(chain)
        np.testing.assert_allclose(pi, ref, atol=1e-9)

    def test_stationary_residual_small(self):
        chain = CountChain(192, 1 / 2190, 1 / 24)
        dist = stationary(chain)
        assert dist.residual < 1e-10
        assert math.isclose(dist.pi.sum(), 1.0, abs_tol=1e-12)


def state_estimate(topology, i, k=None, budget=20000, seed=0,
                   enum_cap=reliability.ENUM_CAP_DEFAULT):
    """The estimate of P{wrong | i} for one state i >= 1, made as
    `partition_tolerance` makes it for each kept state; pi_i is NaN."""
    k = default_quorum(topology.n_nodes) if k is None else k
    states = [(i, math.nan)]
    (est,), _ = reliability._estimate_states(topology, k, states, budget, (seed, i), enum_cap)
    return est


class TestConditionalWrongProb:
    @pytest.mark.parametrize("enum_cap,budget,method", [(10**6, 0, "exact"), (0, 50, "sampled")])
    def test_disconnected_every_state_wrong(self, enum_cap, budget, method):
        """Without a 3-node component even intact, every state is wrong."""
        for i in (1, 2):
            est = state_estimate(_two_links(), i, k=3, budget=budget, enum_cap=enum_cap)
            assert est.p_wrong == 1.0 and est.method == method

    def test_cube_small_counts_exact(self):
        """Enumeration over C(12, i) failed-link subsets of the 3-cube, k=5."""
        t = build_complete_hypercube(3)
        assert state_estimate(t, 1, k=5).p_wrong == 0.0
        assert state_estimate(t, 2, k=5).p_wrong == 0.0
        # i=3: even isolating one vertex leaves a 7-node majority component
        assert state_estimate(t, 3, k=5).p_wrong == 0.0
        est4 = state_estimate(t, 4, k=5)
        assert math.isclose(est4.p_wrong, 3 / 495)

    def test_edge_connectivity_shortcut(self):
        t = build_complete_hypercube(4)
        est = state_estimate(t, 3, k=9)
        assert est.p_wrong == 0.0 and est.method == "exact"

    def test_all_failed(self):
        t = build_ring_lattice(4, 2)
        est = state_estimate(t, 4, k=3)
        assert est.p_wrong == 1.0

    def test_sampling_agrees_with_enum(self):
        t = build_ring_lattice(8, 4)
        assert _cut_lower_bound(t, 5) == 6
        # below c_lb the answer is a certified 0, with neither subsets nor orders
        zero = state_estimate(t, 4, k=5, enum_cap=0, budget=40000, seed=1)
        assert (zero.method, zero.p_wrong, zero.n_samples) == ("exact", 0.0, 0)
        for i in [6, 8]:
            exact = state_estimate(t, i, k=5, enum_cap=10**6)
            mc = state_estimate(t, i, k=5, enum_cap=0, budget=40000, seed=1)
            assert exact.method == "exact" and mc.method == "sampled"
            assert abs(mc.p_wrong - exact.p_wrong) <= 4 * max(mc.stderr, 1e-9)


def min_repair_time(topology, failed: list[int], k: int) -> float:
    """`_repair_times` of the one failure set that fails the links `failed`,
    as a column padded with link L twice."""
    L = topology.n_links
    column = np.array([*failed, L, L], dtype=np.int32)[:, None]
    return float(_repair_times(topology, k, _class_values(topology, lambda c: c.mttr_h), column)[0])


def failed_sets(failed: np.ndarray) -> np.ndarray:
    """The (r, B) failed-link sets of the rows of a (B, L) failed-link
    mask: each column lists its row's links, then link L to the end, at
    least once."""
    L = failed.shape[1]
    sets = np.full((len(failed), int(failed.sum(1).max(initial=0)) + 1), L, dtype=np.int32)
    for column, row in zip(sets, failed):
        column[:np.count_nonzero(row)] = np.flatnonzero(row)
    return sets.T


class TestRepairTime:
    def test_single_class_is_class_mttr(self):
        t = build_star(4)  # links 0 and 1 are (0, 1) and (0, 2)
        assert min_repair_time(t, [0, 1], k=3) == 24.0

    def test_multiclass_picks_cheapest_sufficient(self):
        # path 0-1-2 with a slow link (MTTR 24) and a fast link (MTTR 2.016);
        # repairing only the fast one reconnects a 2-node majority component
        t = _mixed_path()
        assert min_repair_time(t, [0, 1], k=2) == 2.016

    def test_needs_both_classes(self):
        t = _mixed_path()
        assert min_repair_time(t, [0, 1], k=3) == 24.0

    def test_no_repair_needed(self):
        t = build_complete_hypercube(3)
        assert min_repair_time(t, [0], k=5) == 0.0

    def test_unrepairable(self):
        """Two disjoint links never make a 3-node component, whatever
        is repaired."""
        with pytest.raises(NumericError, match="did not restore a good partition"):
            min_repair_time(_two_links(), [], k=3)


def _mixed_path():
    classes = {0: LinkClass.standard(5000), 1: LinkClass.standard(420)}
    return custom_topology(3, [(0, 1), (1, 2)], [0, 1], classes)


def _three_class_ring():
    """14-cycle plus chords 0-7 and 3-10, link classes 5000/3000/420 km mixed."""
    classes = dict(enumerate(map(LinkClass.standard, (5000, 3000, 420))))
    ends = sorted({(min(x, (x + 1) % 14), max(x, (x + 1) % 14)) for x in range(14)} | {(0, 7), (3, 10)})
    return custom_topology(14, ends, [(7 * u + v) % 3 for u, v in ends], classes)


def _two_links():
    return custom_topology(4, [(0, 1), (2, 3)])


def sampled_wrong_mass(topology, budget, seed, k=None):
    """(1 - p, its stderr, the per-state estimates) of the single-class
    estimator with every state i >= 1 sampled (no enumeration), as
    `partition_tolerance` runs it on a graph that is not a forest."""
    L = topology.n_links
    k = default_quorum(topology.n_nodes) if k is None else k
    (cls,) = topology.classes.values()
    pi = reliability.binom_pmf_vector(L, cls.steady_down_prob).tolist()
    states = [(i, pi[i]) for i in range(1, L + 1) if pi[i] >= reliability.TAIL_EPS]
    est, var = reliability._estimate_states(topology, k, states, budget, seed, 0)
    return sum(e.pi_i * e.p_wrong for e in est), math.sqrt(var), est


class TestPartitionTolerance:
    def test_star4_closed_form(self):
        """1 - p = 3 q^2 (1-q) + q^3 for a 4-node star with quorum 3."""
        t = build_star(4)
        report = partition_tolerance(t, budget=0, seed=0)
        q = Q5000
        expected_wrong = 3 * q * q * (1 - q) + q**3
        assert math.isclose(report.p, 1 - expected_wrong, rel_tol=1e-12)
        assert math.isclose(report.t, 24.0, rel_tol=1e-12)
        assert report.method == "exact-tree"

    def test_ring4_closed_form(self):
        t = build_ring_lattice(4, 2)
        report = partition_tolerance(t, budget=0, seed=0)
        q = Q5000
        expected_wrong = 2 * q * q * (1 - q) ** 2 + 4 * q**3 * (1 - q) + q**4
        assert math.isclose(report.p, 1 - expected_wrong, rel_tol=1e-12)

    def test_matches_bruteforce_triangle(self):
        t = build_ring_lattice(3, 2)
        p_exact, t_exact = exact_partition_tolerance_bruteforce(t, k=2)
        report = partition_tolerance(t, k=2, budget=0)
        assert math.isclose(report.p, p_exact, rel_tol=1e-12)
        assert math.isclose(report.t, t_exact, rel_tol=1e-12)

    @pytest.mark.parametrize("builder,kw", [(build_complete_hypercube, 3), (build_star, 6)])
    def test_sampled_matches_bruteforce(self, builder, kw):
        """The sampler, reached through `_estimate_states` because a star
        is a forest and `partition_tolerance` solves forests exactly."""
        t = builder(kw)
        p_exact, _ = exact_partition_tolerance_bruteforce(t)
        wrong, stderr, est = sampled_wrong_mass(t, budget=6000, seed=3)
        assert any(e.method == "sampled" for e in est)
        assert abs((1.0 - wrong) - p_exact) <= 3 * max(stderr, 1e-12)
        if builder is build_complete_hypercube:  # the path partition_tolerance takes
            assert partition_tolerance(t, budget=6000, seed=3, enum_cap=0).p == 1.0 - wrong

    def test_default_quorum(self):
        assert default_quorum(8) == 5
        assert default_quorum(64) == 33
        t = build_complete_hypercube(3)
        assert partition_tolerance(t, budget=0).k == 5

    def test_custom_quorum_monotone(self):
        t = build_ring_lattice(8, 4)
        p_strict = partition_tolerance(t, k=8, budget=0, enum_cap=10**6).p
        p_loose = partition_tolerance(t, k=5, budget=0, enum_cap=10**6).p
        assert p_strict <= p_loose

    def test_multiclass_mixed_path(self):
        classes = {0: LinkClass(5000.0, 2.0, 2.0), 1: LinkClass(420.0, 6.048, 2.016)}
        t = custom_topology(3, [(0, 1), (1, 2)], [0, 1], classes)
        report = partition_tolerance(t, k=2, budget=200000, seed=0)
        # q0 = 0.5, q1 = 0.25; wrong iff both links down -> 0.125, and
        # repairing link 0 (MTTR 2.0) restores a 2-node component
        assert abs((1 - report.p) - 0.125) <= 4 * max(report.stderr, 1e-12)
        assert report.t == 2.0
        assert exact_partition_tolerance_bruteforce(t, k=2) == (0.875, 2.0)

    def test_determinism(self):
        t = build_rooted_tree(16, 3)
        a = partition_tolerance(t, budget=2000, seed=7, enum_cap=0)
        b = partition_tolerance(t, budget=2000, seed=7, enum_cap=0)
        assert a.p == b.p and a.t == b.t

    def test_tree64_sampled_states(self):
        """Shared link orders: a wrong order at i stays wrong at every
        larger i, so the sampled P{wrong | i} never falls with i; every
        wrong state of one link class is repaired in the class MTTR."""
        t = build_rooted_tree(64, 6)
        _, _, est = sampled_wrong_mass(t, budget=300, seed=2)
        sampled = [e.p_wrong for e in est if e.method == "sampled"]
        assert len(sampled) > 10 and sampled[-1] > 0
        assert all(a <= b for a, b in zip(sampled, sampled[1:]))
        assert partition_tolerance(t, budget=300, seed=2).t == 24.0

    def test_single_sampled_state_stderr(self):
        """With one sampled state the summary stderr is pi_i * stderr_i."""
        t = build_ring_lattice(8, 4)
        report = partition_tolerance(t, k=8, budget=2000, seed=1, enum_cap=11440)
        sampled = [e for e in report.per_state if e.method == "sampled"]
        # C(16, i) <= 11440 for every other state of the 16-link graph
        assert [e.i for e in sampled] == [8] and sampled[0].p_wrong > 0
        assert math.isclose(report.stderr, sampled[0].pi_i * sampled[0].stderr, rel_tol=1e-12)

    def test_cube12_analysable(self):
        """L = 24576: the closed-form steady state has no dense-matrix limit,
        and every kept state lies below c_lb = 2048, so all are exact zeros."""
        from scipy.stats import binom

        t = build_complete_hypercube(12)
        report = partition_tolerance(t, budget=20, seed=0)
        assert len(report.per_state) == t.n_links
        i = np.array([e.i for e in report.per_state])
        pi = np.array([e.pi_i for e in report.per_state])
        np.testing.assert_allclose(pi, binom.pmf(i, t.n_links, Q5000), rtol=1e-9, atol=1e-300)
        kept = [e for e in report.per_state if e.method != "skipped"]
        assert kept and all(e.method == "exact" and e.p_wrong == 0.0 for e in kept)
        assert (report.method, report.p) == ("exact", 1.0)

    def test_disconnected_graph_raises(self):
        t = custom_topology(4, [(0, 1), (2, 3)])
        with pytest.raises(NumericError):
            partition_tolerance(t, budget=10)

    def test_graph_without_links(self):
        """Three nodes and no links: every state is wrong for k >= 2, as
        the brute force finds, and k = 1 always holds."""
        t = custom_topology(3, [])
        for k in (2, 3):
            with pytest.raises(NumericError):
                partition_tolerance(t, k=k)
            with pytest.raises(NumericError):
                exact_partition_tolerance_bruteforce(t, k=k)
        report = partition_tolerance(t, k=1)
        assert (report.p, report.t, report.method) == (1.0, None, "exact-tree")
        assert exact_partition_tolerance_bruteforce(t, k=1) == (1.0, None)

    @pytest.mark.parametrize("analysis", [
        lambda: partition_tolerance(build_star(5), budget=-5),  # a forest: exact DP
        lambda: partition_tolerance(build_complete_hypercube(3), budget=-5),  # every state exact
        lambda: analyze_hierarchical(RecursionSpec.symmetric(2, 3), budget=-5),
    ], ids=["star", "cube", "hierarchical"])
    def test_negative_budget(self, analysis):
        """Refused even where no state is sampled."""
        with pytest.raises(SpecError, match="budget must be >= 0, got -5"):
            analysis()

    def test_analysis_leaves_topology_unchanged(self):
        t = build_complete_hypercube(4)
        before = t.to_json()
        partition_tolerance(t, budget=200, seed=0)
        state_estimate(t, 3, budget=50)
        assert t.to_json() == before


# q = 0.0108, 1/3 and 1/11: the 5000 km class and two far less reliable ones
FOREST_CLASSES = {
    0: LinkClass(5000.0, 2190.0, 24.0),
    1: LinkClass(3000.0, 4.0, 2.0),
    2: LinkClass(420.0, 10.0, 1.0),
}


def wrong_mass_oracle(topology, ks):
    """Wrong mass of each quorum in `ks` by enumerating all 2^L link
    states: the summed probability of the states whose largest
    component has fewer than k nodes, never formed as 1 - p.
    Components come from min-label propagation along the up links."""
    L, n = topology.n_links, topology.n_nodes
    q = np.array([topology.classes[c].steady_down_prob for c in topology.class_id.tolist()])
    down = (np.arange(2**L)[:, None] >> np.arange(L)) & 1 == 1
    weight = np.prod(np.where(down, q, 1.0 - q), axis=1)
    label = np.tile(np.arange(n), (len(down), 1))
    while True:
        before = label.copy()
        for j, (u, v) in enumerate(topology.ends.tolist()):
            up = ~down[:, j]
            least = np.minimum(label[up, u], label[up, v])
            label[up, u] = label[up, v] = least
        if np.array_equal(label, before):
            break
    flat = (label + n * np.arange(len(label))[:, None]).ravel()
    largest = np.bincount(flat, minlength=flat.size).reshape(-1, n).max(axis=1)
    return [math.fsum(weight[largest < k]) for k in ks]


def random_forest(rng, n_links, n_trees, n_classes, relabel=True):
    """A forest of `n_trees` random trees on n_links + n_trees nodes:
    node x joins a random node below x, and the first n_trees nodes are
    the roots.  Relabelled, its nodes are permuted and its links
    shuffled and turned; link classes are drawn from `n_classes`
    classes of FOREST_CLASSES."""
    n = n_links + n_trees
    pairs = [(int(rng.integers(0, x)), x) for x in range(n_trees, n)]
    cids = rng.choice(n_classes, n_links) if n_classes > 1 else np.full(n_links, rng.integers(3))
    if relabel:
        label = rng.permutation(n)
        order = rng.permutation(n_links)
        pairs = [(label[b], label[a]) if rng.random() < 0.5 else (label[a], label[b])
                 for a, b in (pairs[j] for j in order)]
        cids = cids[order]
    used = {int(c): FOREST_CLASSES[int(c)] for c in set(cids.tolist())}
    return custom_topology(n, pairs, cids, used)


def _count_bfs(monkeypatch):
    """The roots of every `_bfs_queue` walk that reliability makes."""
    calls = []
    bfs = reliability._bfs_queue

    def counting(indptr, indices, roots):
        calls.append(roots)
        return bfs(indptr, indices, roots)

    monkeypatch.setattr(reliability, "_bfs_queue", counting)
    return calls


def bfs_levels_forest(topology):
    """`_spanning_forest` as the vectorized BFS built it: `_bfs_levels`
    from a virtual node listing every component's least node, one numpy
    step a level."""
    n, L = topology.n_nodes, topology.n_links
    indptr, indices = topology.csr()
    label = _component_roots(topology.ends, n, np.ones((1, L), dtype=bool))
    roots = (label == np.arange(n)).nonzero()[0]
    levels = _bfs_levels(np.append(indptr, indptr[-1] + roots.size),
                         np.concatenate((indices, roots)), [n])[1:]
    parent = np.full(n, n)
    for nodes, parents, _ in levels:
        parent[nodes] = parents
    u, v = topology.ends.T
    child = np.where(parent[u] == v, u, v)
    tree = parent[child] == u + v - child
    up = np.empty(n, dtype=np.int64)
    up[child[tree]] = tree.nonzero()[0]
    rest = np.random.default_rng(0).permutation(np.flatnonzero(~tree).astype(np.int32))
    return roots, [(nodes, parents, up[nodes]) for nodes, parents, _ in levels], rest


def _random_relabelled_graph():
    """40 random links among 30 of 50 nodes, relabelled: several
    components, some of them isolated nodes."""
    rng = np.random.default_rng(21)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, 30, (40, 2)).tolist() if p[0] != p[1]}
    label = rng.permutation(50)
    return custom_topology(50, [(label[a], label[b]) for a, b in rng.permutation(sorted(pairs))])


FOREST_GRAPHS = {
    "tree": lambda: build_rooted_tree(64, 6),
    "ring": lambda: build_ring_lattice(768, 4),
    "cube": lambda: build_complete_hypercube(6),
    "isolated-nodes": lambda: custom_topology(20000, []),
    "disjoint-links": lambda: custom_topology(
        20000, np.random.default_rng(3).permutation(20000).reshape(-1, 2)),
    "relabelled": _random_relabelled_graph,
}


def per_tree_wrong_mass(topology, k, q):
    """The forest DP as it ran tree by tree: each tree, in order of its
    least node, walked alone by a FIFO queue over sorted adjacency and
    folded bottom-up, level by level, each level in queue order; the
    root sums multiply in root order."""
    n = topology.n_nodes
    indptr, indices = (a.tolist() for a in topology.csr())
    link = {(lo, hi): j for j, (lo, hi) in enumerate(np.sort(topology.ends, axis=1).tolist())}
    seen = [False] * n
    dist = [np.array([0.0, 1.0])[:k] for _ in range(n)]
    wrong = 1.0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        levels, frontier = [], [root]
        while frontier:
            level = []
            for x in frontier:
                for c in indices[indptr[x]:indptr[x + 1]]:
                    if not seen[c]:
                        seen[c] = True
                        level.append((c, x))
            levels.append(level)
            frontier = [c for c, _ in level]
        for level in reversed(levels):
            for c, x in level:
                a, b, qe = dist[x], dist[c], float(q[link[min(c, x), max(c, x)]])
                merged = np.convolve(a, b)[:k] * (1.0 - qe)
                merged[:len(a)] += a * (qe * b.sum())
                dist[x] = merged
        wrong *= float(dist[root].sum())
    return wrong


class TestForestDP:
    @pytest.mark.parametrize("n_trees", [1, 2, 3])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_matches_wrong_mass_oracle(self, n_classes, n_trees):
        """Equal to the enumerated wrong mass at rel 1e-12 on random
        relabelled forests with up to 16 links, and to the DP of the same
        forest before relabelling."""
        for seed in range(8):
            n_links = int(np.random.default_rng(seed).integers(1, 17))
            plain = random_forest(np.random.default_rng((seed, n_classes, n_trees)),
                                  n_links, n_trees, n_classes, relabel=False)
            t = random_forest(np.random.default_rng((seed, n_classes, n_trees)),
                              n_links, n_trees, n_classes)
            n = t.n_nodes
            ks = sorted({1, 2, n // 2 + 1, n})
            for k, want in zip(ks, wrong_mass_oracle(t, ks)):
                got = reliability._forest_wrong_mass(t, k, reliability._down_probs(t))
                again = reliability._forest_wrong_mass(plain, k, reliability._down_probs(plain))
                assert math.isclose(got, want, rel_tol=1e-12), (seed, n, k, got, want)
                assert math.isclose(got, again, rel_tol=1e-12), (seed, n, k)
                assert (got == 0.0) == (k == 1)

    @pytest.mark.parametrize("n_trees", [1, 7, 1000])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_equals_per_tree_fold(self, n_classes, n_trees):
        """Bit-identical to the tree-by-tree fold on random relabelled
        forests; 1000 roots with at most 1000 links leave isolated nodes."""
        for seed in range(3):
            rng = np.random.default_rng((seed, n_classes, n_trees))
            t = random_forest(rng, int(rng.integers(1, 1001)), n_trees, n_classes)
            n, q = t.n_nodes, reliability._down_probs(t)
            if n_trees == 1000:
                assert np.count_nonzero(t.degrees() == 0) > 0
            for k in sorted({1, 2, 3, n // 2 + 1} & set(range(1, n + 1))):
                got = reliability._forest_wrong_mass(t, k, q)
                assert got == per_tree_wrong_mass(t, k, q), (seed, n, k)

    @pytest.mark.parametrize("pairs", [[], [(2 * j, 2 * j + 1) for j in range(10000)]],
                             ids=["isolated-nodes", "disjoint-links"])
    def test_wide_forests(self, pairs, monkeypatch):
        """20 000 isolated nodes, and 10 000 disjoint links, in one queue
        walk kept on the topology: equal to the tree-by-tree fold at k =
        1, 2, 3 and N/2 + 1."""
        label = np.random.default_rng(3).permutation(20000)
        t = custom_topology(20000, [(label[a], label[b]) for a, b in pairs],
                            classes={0: FOREST_CLASSES[1]})
        q = reliability._down_probs(t)
        calls = _count_bfs(monkeypatch)
        for k in (1, 2, 3, 10001):
            assert reliability._forest_wrong_mass(t, k, q) == per_tree_wrong_mass(t, k, q)
        assert len(calls) == 1

    def test_one_bfs_per_forest(self, monkeypatch):
        """One `_bfs_queue` walk covers every tree, and the topology keeps
        the walk: `partition_tolerance` after a direct call walks nothing
        more, and a newly built copy walks its own."""
        calls = _count_bfs(monkeypatch)
        t = random_forest(np.random.default_rng(11), 40, 9, 1)
        reliability._forest_wrong_mass(t, 5, reliability._down_probs(t))
        assert len(calls) == 1
        assert partition_tolerance(t, k=5).method == "exact-tree"
        assert len(calls) == 1
        fresh = random_forest(np.random.default_rng(11), 40, 9, 1)
        assert partition_tolerance(fresh, k=5).method == "exact-tree"
        assert len(calls) == 2

    @pytest.mark.parametrize("name", list(FOREST_GRAPHS))
    def test_queue_walk_equals_level_steps(self, name):
        """The queue-walked forest has the roots, the levels (nodes,
        parents and links, level by level, with their dtypes) and the
        `rest` of the vectorized level-by-level BFS."""
        t = FOREST_GRAPHS[name]()
        roots, levels, rest = reliability._spanning_forest(t)
        want_roots, want_levels, want_rest = bfs_levels_forest(t)
        assert np.array_equal(roots, want_roots) and np.array_equal(rest, want_rest)
        assert len(levels) == len(want_levels)
        for got, want in zip(levels, want_levels):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_one_intact_labelling_per_topology(self, monkeypatch):
        """`build_recursive`'s connectivity check, `partition_tolerance`
        and the forest walk share one labelling of the intact graph, kept
        on the topology, across repeated calls."""
        calls = []
        join = cubenet.topology._join_roots

        def counting(label, a, b):
            calls.append(label.size)
            return join(label, a, b)

        monkeypatch.setattr(cubenet.topology, "_join_roots", counting)
        # the recursive graph is labelled as it is built, before the others
        graphs = [build_recursive(RecursionSpec.symmetric(2, 2)), build_ring_lattice(64, 2),
                  build_rooted_tree(64, 6), build_complete_hypercube(3)]
        for t in graphs:
            for seed in (1, 2):
                partition_tolerance(t, budget=200, seed=seed)
            assert t.is_connected()
        assert calls == [t.n_nodes for t in graphs]

    def test_star22_no_cancellation(self):
        """At k = 2 a 22-leaf star is wrong only when every link is down:
        q^22 = 5.9e-44, which 1 - p cannot hold."""
        t = build_star(23)
        q = Q5000
        got = reliability._forest_wrong_mass(t, 2, reliability._down_probs(t))
        assert math.isclose(got, q**22, rel_tol=1e-12) and 5e-44 < got < 6e-44
        assert exact_partition_tolerance_bruteforce(t, k=2)[0] == 1.0
        assert partition_tolerance(t, k=2).p == 1.0

    def test_tree64_within_3_sigma_of_sampler(self):
        t = build_rooted_tree(64, 6)
        report = partition_tolerance(t)
        wrong, stderr, _ = sampled_wrong_mass(t, budget=4000, seed=1)
        assert abs((1.0 - report.p) - wrong) <= 3 * stderr
        assert (report.stderr, report.t, report.per_state, report.method, report.k) == (
            0.0, 24.0, [], "exact-tree", 33)

    def test_tree4096(self):
        report = partition_tolerance(build_rooted_tree(4096, 12))
        assert math.isclose(1.0 - report.p, 1.176688e-4, rel_tol=1e-6)
        assert report.method == "exact-tree"

    def test_only_single_class_forests(self):
        """A forest of several classes is exact too; a graph with fewer
        links than nodes that is not a forest (a triangle and two
        isolated nodes) is not."""
        mixed = random_forest(np.random.default_rng(5), 10, 1, 3)
        assert len(np.unique(mixed.class_id)) > 1
        assert partition_tolerance(mixed, budget=50).method == "exact-tree"
        sparse = custom_topology(5, [(0, 1), (1, 2), (0, 2)])
        assert partition_tolerance(sparse, k=3, budget=0).method == "exact"

    def test_forest_of_several_trees(self):
        """Two paths of three nodes at k = 3: wrong unless one path is
        whole, P = (1 - (1-q)^2)^2."""
        t = custom_topology(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        q = Q5000
        report = partition_tolerance(t, k=3)
        assert math.isclose(1.0 - report.p, (1 - (1 - q) ** 2) ** 2, rel_tol=1e-9)
        assert report.method == "exact-tree" and report.t == 24.0

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_matches_bruteforce(self, n_classes):
        """The wrong mass equals the enumerated one (the brute force's,
        before its 1 - p cancellation) and t the brute force's, at rel
        1e-12, on random relabelled forests with up to 14 links and 1 to
        3 trees, at every quorum of {2, 3, N/2 + 1} that the largest tree
        reaches.  t lies between the least and the largest class MTTR,
        and is the class MTTR itself (==) when there is one class."""
        checked = 0
        for seed, n_trees in itertools.product(range(8), (1, 2, 3)):
            rng = np.random.default_rng((seed, n_trees, n_classes))
            t = random_forest(rng, int(rng.integers(1, 15)), n_trees, n_classes)
            n, mttrs = t.n_nodes, _class_values(t, lambda c: c.mttr_h)
            largest = int(max_component_sizes(t, np.ones((1, t.n_links), dtype=bool))[0])
            ks = sorted({2, 3, n // 2 + 1} & set(range(1, largest + 1)))
            for k, want in zip(ks, wrong_mass_oracle(t, ks)):
                report = partition_tolerance(t, k=k)
                wrong = reliability._forest_wrong_mass(t, k, reliability._down_probs(t))
                assert report.method == "exact-tree" and report.p == 1.0 - wrong
                assert math.isclose(wrong, want, rel_tol=1e-12), (seed, n_trees, k)
                _, t_bf = exact_partition_tolerance_bruteforce(t, k=k)
                assert math.isclose(report.t, t_bf, rel_tol=1e-12), (seed, n_trees, k)
                assert mttrs.min() <= report.t <= mttrs.max()
                if n_classes == 1:
                    assert report.t == mttrs[0]
                checked += 1
        assert checked > 50

    def test_t_rounding_past_largest_mttr(self):
        """Only the 4-node path of MTTR 24 can hold k = 4 nodes, so every
        wrong state takes 24 h; the two 3-node paths of MTTR 2 and 1 never
        matter, and W_j / W_0 rounds to 1 + 4e-16 (t would be 24 + 4e-15)."""
        pairs = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)]
        t = custom_topology(10, pairs, [0, 0, 0, 1, 1, 2, 2], FOREST_CLASSES)
        assert partition_tolerance(t, k=4).t == 24.0

    def test_relabelling(self):
        """A forest and its relabelled copy get the same p and t."""
        for seed in range(10):
            plain, relabelled = (random_forest(np.random.default_rng(seed), 30, 3, 3, relabel=r)
                                 for r in (False, True))
            for k in (2, 3, 6):
                a, b = partition_tolerance(plain, k=k), partition_tolerance(relabelled, k=k)
                assert math.isclose(a.p, b.p, rel_tol=1e-12), (seed, k)
                assert math.isclose(a.t, b.t, rel_tol=1e-12), (seed, k)

    def test_tree4096_three_classes(self):
        """Exact where the sampler saw no wrong state: 1 - p is about 3e-7."""
        tree = build_rooted_tree(4096, 12)
        classes = dict(enumerate(map(LinkClass.standard, (5000, 3000, 420))))
        cids = np.random.default_rng(0).integers(0, 3, tree.n_links)
        t = custom_topology(4096, tree.ends.tolist(), cids, classes)
        report = partition_tolerance(t, budget=2000)
        assert report.method == "exact-tree" and 0.0 < 1.0 - report.p < 1e-6
        assert 2.016 < report.t < 24.0

    def test_wrong_mass_rounding_above_one(self):
        """A 200-node path of q = 1/3 at k = 89 is all but surely wrong:
        its wrong mass rounds above 1, and p is clamped to 0."""
        t = custom_topology(200, [(x, x + 1) for x in range(199)], classes={0: FOREST_CLASSES[1]})
        report = partition_tolerance(t, k=89)
        assert (report.p, report.t, report.method) == (0.0, 2.0, "exact-tree")


class TestConnectivityKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n_core=st.integers(1, 40),
        n_pairs=st.integers(0, 80),
        n_isolated=st.sampled_from([0, 3, 4000]),
        rows=st.integers(1, 40),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_core=1, n_pairs=0, n_isolated=4000, rows=37, keep=0.5, seed=0)  # no links
    @example(n_core=40, n_pairs=60, n_isolated=4000, rows=40, keep=0.6, seed=1)  # many chunks
    @example(n_core=40, n_pairs=60, n_isolated=3, rows=8, keep=0.7, seed=12)  # needs full jumps
    def test_matches_scalar_path(self, n_core, n_pairs, n_isolated, rows, keep, seed):
        """`_wrong_sets` agrees set by set with the oracle's mask search,
        at every quorum from 1 to one past the largest component, on
        random graphs whose isolated nodes are spread among the others,
        across `_component_sizes`' chunk edges (4000 isolated nodes make a
        chunk of 8 sets), with all-failed sets and padded columns."""
        rng = np.random.default_rng(seed)
        n = n_core + n_isolated
        label = rng.permutation(n)
        pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n_core, (n_pairs, 2)).tolist()}
        t = custom_topology(n, [(label[a], label[b]) for a, b in sorted(pairs) if a != b])
        present = rng.random((rows, t.n_links)) < keep
        present[0] = False
        sizes = max_component_sizes(t, present)
        sets = failed_sets(~present)
        for k in range(1, min(int(sizes.max()) + 1, n) + 1):
            got = reliability._wrong_sets(t, k, sets)
            assert got.tolist() == (sizes < k).tolist(), k

    @pytest.mark.parametrize(
        "topo,i,wrong,subsets",
        [
            (build_rooted_tree(64, 6), 2, 32, 1953),
            (build_rooted_tree(64, 6), 3, 1456, 39711),
            (build_complete_hypercube(4), 4, 0, 35960),
            (build_ring_lattice(64, 2), 2, 32, 2016),
            (build_ring_lattice(64, 2), 3, 11904, 41664),
        ],
        ids=["tree-2", "tree-3", "Q4-4", "cycle-2", "cycle-3"],
    )
    def test_exact_wrong_counts(self, topo, i, wrong, subsets):
        (est,) = _exact_states(topo, default_quorum(topo.n_nodes), [(i, math.nan)], 0, 10**6)
        assert (est.n_samples, est.p_wrong) == (subsets, wrong / subsets)

    @pytest.mark.parametrize("three_classes,k", [(False, 2), (False, 3), (True, 11)])
    def test_batched_repair_matches_min_repair_time(self, three_classes, k):
        """The batched threshold search gives every set, good or wrong,
        the time `min_repair_time` gives it alone and the oracle's mask
        search gives it, 0.0 exactly for the good ones: all failure sets
        of the two-class path, random ones of a three-class 14-node ring,
        each column padded with link L."""
        if three_classes:
            t = _three_class_ring()
            failed = np.random.default_rng(1).random((300, t.n_links)) < 0.4
        else:
            t = _mixed_path()
            failed = np.array([[a, b] for a in (False, True) for b in (False, True)])
        good = (max_component_sizes(t, ~failed) >= k).tolist()
        assert any(good) and not all(good)
        times = _repair_times(t, k, _class_values(t, lambda c: c.mttr_h), failed_sets(failed))
        times = times.tolist()
        assert [x == 0.0 for x in times] == good
        assert times == repair_times(t, k, failed).tolist()
        assert len(set(times) - {0.0}) == {2: 1, 3: 2, 11: 3}[k]  # every class MTTR is some row's
        assert times == [min_repair_time(t, np.flatnonzero(row).tolist(), k=k) for row in failed]

    def test_repair_of_no_rows(self, monkeypatch):
        """No sets give no times and make no kernel call."""
        t = _three_class_ring()
        mttr_of = _class_values(t, lambda c: c.mttr_h)
        calls = []
        monkeypatch.setattr(reliability, "_wrong_sets", lambda *args: calls.append(args))
        times = _repair_times(t, 11, mttr_of, np.zeros((3, 0), dtype=np.int32))
        assert times.shape == (0,) and calls == []


def _graph(n, pairs):
    return custom_topology(n, pairs)


class TestEdgeConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        shape=st.sampled_from(["random", "tree", "complete", "barbell"]),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, shape="random", density=0.5, seed=0)
    @example(n=2, shape="random", density=0.0, seed=0)  # two isolated nodes
    @example(n=2, shape="complete", density=0.0, seed=0)
    @example(n=14, shape="tree", density=0.0, seed=3)
    @example(n=14, shape="complete", density=0.0, seed=0)
    @example(n=12, shape="random", density=0.15, seed=5)  # several components
    @example(n=10, shape="barbell", density=0.0, seed=0)  # kappa 1 below delta 4
    def test_matches_networkx(self, n, shape, density, seed):
        """Equal to networkx on random, tree, complete and barbell graphs
        (two cliques joined by one link), relabelled at random; sparse
        random graphs are disconnected or have isolated nodes."""
        rng = np.random.default_rng(seed)
        label = rng.permutation(n).tolist()
        if shape == "tree":
            pairs = [(int(rng.integers(x)), x) for x in range(1, n)]
        elif shape == "barbell":
            pairs = [(a, b) for a, b in itertools.combinations(range(n), 2)
                     if (a < n // 2) == (b < n // 2) or (a, b) == (0, n - 1)]
        else:
            pairs = [p for p in itertools.combinations(range(n), 2)
                     if shape == "complete" or rng.random() < density]
        pairs = [tuple(sorted((label[a], label[b]))) for a, b in pairs]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        assert _edge_connectivity(_graph(n, pairs)) == nx.edge_connectivity(g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=1710)  # needs a unit sent back along a used link to be cancelled
    def test_max_flow_matches_networkx(self, seed):
        """Uncapped, the flow between every pair of nodes equals networkx's
        local edge connectivity; links are listed in random order."""
        rng = np.random.default_rng(seed)
        n, density = int(rng.integers(5, 13)), 0.3 + 0.6 * rng.random()
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < density]
        pairs = [pairs[j] for j in rng.permutation(len(pairs))]
        arcs, head = _arc_lists(_graph(n, pairs))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        aux = build_auxiliary_edge_connectivity(g)
        residual = build_residual_network(aux, "capacity")
        for s, u in itertools.combinations(range(n), 2):
            want = local_edge_connectivity(g, s, u, auxiliary=aux, residual=residual)
            assert _max_flow(s, u, arcs, head, len(pairs) + 1) == want

    @pytest.mark.parametrize(
        "build,kappa",
        [
            (lambda: build_ring_lattice(768, 4), 4),
            (lambda: build_recursive(RecursionSpec.symmetric(4, 2)), 8),
            (lambda: build_ring_lattice(64, 6), 6),
            (lambda: build_complete_hypercube(6), 6),
            (lambda: build_rooted_tree(64, 6), 1),
            (lambda: build_ring_lattice(64, 2), 2),
        ],
        ids=["ring768-4", "4-4", "ring64-6", "Q6", "tree64-6", "cycle64"],
    )
    def test_pinned_values(self, build, kappa):
        assert _edge_connectivity(build()) == kappa

    def test_no_bound_above_2048_nodes(self):
        """The max-flow has no size guard; the cut bound of a graph without
        translation orbits stops above DENSE_MAX_NODES."""
        assert _edge_connectivity(build_ring_lattice(2048, 2)) == 2
        t = _permuted_ring(2049, 2)
        assert _translation_orbits(t) is None
        assert _cut_lower_bound(t, 1025) == 0

    def test_ring_flow_count(self, monkeypatch):
        """The greedy dominating set of ring(768, 4) takes the node that
        dominates most of its undominated closed neighbourhood: at most
        160 max-flows, where every third node would take 255."""
        flows = []
        max_flow = reliability._max_flow

        def counting(*args):
            flows.append(args[1])
            return max_flow(*args)

        monkeypatch.setattr(reliability, "_max_flow", counting)
        assert _edge_connectivity(build_ring_lattice(768, 4)) == 4
        assert len(flows) <= 160


@functools.lru_cache(maxsize=None)
def _set_partitions(n):
    """Every partition of nodes 0..n-1 as an (n_partitions, n) array of
    part labels (restricted growth strings)."""
    rows = [[]]
    for _ in range(n):
        rows = [r + [c] for r in rows for c in range(max(r, default=-1) + 2)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def min_wrong_cuts(n, pairs):
    """Least failed links of a wrong state for each quorum k (index k,
    inf where no state is wrong): the least number of links between
    parts over all partitions of the nodes into parts of at most k - 1
    nodes.  Failing exactly those links leaves components inside the
    parts, and every wrong failed set holds the links between the parts
    its components form."""
    labels = _set_partitions(n)
    cut = np.zeros(len(labels), dtype=np.int64)
    for a, b in pairs:
        cut += labels[:, a] != labels[:, b]
    largest = np.stack([(labels == c).sum(1) for c in range(n)]).max(0)
    return [math.inf] + [float(cut[largest < k].min()) if (largest < k).any() else math.inf
                         for k in range(1, n + 1)]


def cut_bound_unchecked(topology, k):
    """`_cut_lower_bound` with nothing skipped or closed-form: kappa from
    the max-flow and the Fiedler term from the dense solve, always."""
    n = topology.n_nodes
    ends = topology.ends
    degree = np.bincount(ends.ravel(), minlength=n)
    lam2 = _algebraic_connectivity_lb(ends, degree) if n > 1 else 0.0
    return max(_edge_connectivity(topology), math.ceil(max(lam2, 0.0) * (n - k + 1) / 2))


CUT_BOUND_GRAPHS = {
    **{f"Q{d}": (lambda d=d: build_complete_hypercube(d), 2 ** (d - 1)) for d in range(1, 9)},
    "3-3": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)), 32),
    "2-2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 3)), 32),
    "4-2": (lambda: build_recursive(RecursionSpec.semi((4, 2))), 32),
    "4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 2)), 128),
    "ring768-4": (lambda: build_ring_lattice(768, 4), 4),
    "ring64-6": (lambda: build_ring_lattice(64, 6), 6),
    "tree64-6": (lambda: build_rooted_tree(64, 6), 1),
    "cycle64": (lambda: build_ring_lattice(64, 2), 2),
}


class TestCutLowerBound:
    def test_partition_oracle(self):
        """The oracle on graphs whose least wrong cuts are known."""
        path = [(0, 1), (1, 2), (2, 3)]
        assert min_wrong_cuts(4, path) == [math.inf, math.inf, 3, 1, 1]
        cycle = path + [(0, 3)]
        assert min_wrong_cuts(4, cycle) == [math.inf, math.inf, 4, 2, 2]
        assert min_wrong_cuts(3, []) == [math.inf, math.inf, 0, 0]
        assert len(_set_partitions(9)) == 21147  # Bell(9)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 9),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, density=0.0, seed=0)
    @example(n=8, density=0.0, seed=0)  # no links: every state of k >= 2 is wrong
    @example(n=9, density=1.0, seed=0)  # the first 16 links of K9
    @example(n=7, density=0.5, seed=179)  # k=2: Rayleigh term = Fiedler term = kappa + 1
    def test_never_above_least_wrong_cut(self, n, density, seed):
        """On random graphs of at most 9 nodes and 16 links, relabelled at
        random, c_lb never exceeds the least wrong cut for any k in
        2..N, and equals the bound with both shortcuts bypassed.  At
        k = 1 nothing is wrong."""
        rng = np.random.default_rng(seed)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < density][:16]
        label = rng.permutation(n).tolist()
        relabelled = [tuple(sorted((label[a], label[b]))) for a, b in pairs]
        oracle = min_wrong_cuts(n, pairs)
        g, h = _graph(n, pairs), _graph(n, relabelled)
        for k in range(2, n + 1):
            c_lb = _cut_lower_bound(g, k)
            assert c_lb == _cut_lower_bound(h, k) == cut_bound_unchecked(g, k)
            assert c_lb <= oracle[k]

    @pytest.mark.parametrize("name", list(CUT_BOUND_GRAPHS))
    def test_pinned_values(self, name):
        build, c_lb = CUT_BOUND_GRAPHS[name]
        t = build()
        k = default_quorum(t.n_nodes)
        assert _cut_lower_bound(t, k) == c_lb
        assert cut_bound_unchecked(t, k) == c_lb

    def test_translation_graphs_do_no_dense_work(self, monkeypatch):
        """Graphs with translation orbits, above DENSE_MAX_NODES too, take
        lam2 from character sums and kappa = delta: no BFS, no dense solve
        and no max-flow runs."""
        def refuse(*args):
            raise AssertionError("refused")

        for name in ("_bfs_queue", "_algebraic_connectivity_lb", "_edge_connectivity"):
            monkeypatch.setattr(reliability, name, refuse)
        for t, c_lb in [(build_complete_hypercube(12), 2048), (build_complete_hypercube(14), 8192),
                        (build_ring_lattice(4096, 12), 12), (build_ring_lattice(768, 4), 4),
                        (build_ring_lattice(64, 2), 2)]:
            assert _cut_lower_bound(t, default_quorum(t.n_nodes)) == c_lb

    def test_fiedler_term_skips_kappa(self, monkeypatch):
        """On Q8 as a graph the Fiedler term reaches the minimum degree,
        so no max-flow runs."""
        def refuse(*args):
            raise AssertionError("max-flow")

        monkeypatch.setattr(reliability, "_edge_connectivity", refuse)
        assert _cut_lower_bound(build_recursive(RecursionSpec.symmetric(4, 2)), 129) == 128

    def test_no_bound_above_dense_limit(self):
        """Only a graph without translation orbits loses its bound above
        DENSE_MAX_NODES."""
        assert _cut_lower_bound(build_complete_hypercube(12), 2049) == 2048
        t = _permuted_ring(4096, 12)
        assert _translation_orbits(t) is None
        assert _cut_lower_bound(t, 2049) == 0

    @pytest.mark.parametrize("name", list(CUT_BOUND_GRAPHS))
    def test_same_bound_without_orbits(self, name, monkeypatch):
        """Relabelled at random and seen without translation orbits (Q1 and
        Q2 keep theirs under every labelling), each graph takes the dense
        solve and the max-flow, and gets the same c_lb at every quorum."""
        g = CUT_BOUND_GRAPHS[name][0]()
        n = g.n_nodes
        h = custom_topology(n, np.random.default_rng(1).permutation(n)[g.ends])
        assert n <= 4 or _translation_orbits(h) is None
        want = [_cut_lower_bound(g, k) for k in range(1, n + 1)]
        monkeypatch.setattr(reliability, "_translation_orbits", lambda topology: None)
        assert [_cut_lower_bound(h, k) for k in range(1, n + 1)] == want

    def test_kept_per_topology_and_quorum(self, monkeypatch):
        """A per-state sweep on one ring computes kappa once: i = 1, 2, 3
        are certified zeros, and a second quorum reuses it.  The ring's
        nodes are permuted, so it has no translation orbits and kappa
        takes the max-flow."""
        calls = []
        kappa = reliability._edge_connectivity

        def counting(topology):
            calls.append(topology.n_nodes)
            return kappa(topology)

        monkeypatch.setattr(reliability, "_edge_connectivity", counting)
        t = _permuted_ring(768, 4)
        assert _translation_orbits(t) is None
        for i in (1, 2, 3):
            est = state_estimate(t, i, budget=50)
            assert (est.p_wrong, est.n_samples, est.method) == (0.0, 0, "exact")
        assert calls == [768]
        assert _cut_lower_bound(t, 700) == 4 and calls == [768]
        assert _cut_lower_bound(_permuted_ring(768, 4), 385) == 4 and calls == [768, 768]

    def test_quorum_free_facts_computed_once(self, monkeypatch):
        """On an incomplete 8-cube of 200 nodes (no translation orbits) three
        quorums run the dense solve once."""
        t = build_incomplete_hypercube(200)
        assert _translation_orbits(t) is None
        calls = []
        for name in ("_algebraic_connectivity_lb", "_edge_connectivity"):
            monkeypatch.setattr(reliability, name,
                                lambda *args, _f=getattr(reliability, name), _name=name:
                                calls.append(_name) or _f(*args))
        assert [_cut_lower_bound(t, k) for k in (101, 120, 150)] == [55, 45, 28]
        assert calls == ["_algebraic_connectivity_lb"]
        monkeypatch.undo()
        assert [cut_bound_unchecked(t, k) for k in (101, 120, 150)] == [55, 45, 28]

    @pytest.mark.parametrize("n, c_lb", [(48, (12, 8)), (100, (28, 19)), (200, (55, 37))])
    def test_incomplete_cube_relabelling(self, n, c_lb):
        """I(n) with its nodes renamed at random, links in the same order,
        gets the same dense-path bound and the same report, field for
        field, at the majority quorum and at floor(2n/3) + 1."""
        t = build_incomplete_hypercube(n)
        relabelled = custom_topology(n, np.random.default_rng(n).permutation(n)[t.ends])
        assert _translation_orbits(t) is None and _translation_orbits(relabelled) is None
        for k, bound in zip((n // 2 + 1, 2 * n // 3 + 1), c_lb):
            assert _cut_lower_bound(t, k) == _cut_lower_bound(relabelled, k) == bound
            a, b = (partition_tolerance(g, k, budget=4000, seed=0) for g in (t, relabelled))
            assert (a.p, a.stderr, a.t, a.method, a.per_state) == \
                (b.p, b.stderr, b.t, b.method, b.per_state)


def _permuted_ring(n, degree):
    """ring(n, degree) with its nodes renamed by a fixed random permutation."""
    label = np.random.default_rng(0).permutation(n)
    return custom_topology(n, label[build_ring_lattice(n, degree).ends])


def _circulant(n, offsets):
    """Node x joined to x + s (mod n) for each offset s, each pair once."""
    pairs = {tuple(sorted((x, (x + s) % n))) for s in offsets for x in range(n)}
    return custom_topology(n, sorted(pairs))


def _translation_orbits_oracle(t, xor):
    """The link orbits of the translations x -> x ^ s (xor) or x -> x + s
    (mod N), as a set of frozensets of link indices, by mapping every
    link under every translation; None when one of them is no automorphism."""
    n = t.n_nodes
    index = {(a, b): j for j, (a, b) in enumerate(t.ends.tolist())}
    index.update({(b, a): j for (a, b), j in list(index.items())})
    orbit_of = [set() for _ in range(t.n_links)]
    for s in range(n):
        for j, (a, b) in enumerate(t.ends.tolist()):
            image = (a ^ s, b ^ s) if xor else ((a + s) % n, (b + s) % n)
            if image not in index:
                return None
            orbit_of[j].add(index[image])
    return {frozenset(o) for o in orbit_of}


def _drop_link(t, j):
    return custom_topology(t.n_nodes, np.delete(t.ends, j, axis=0))


TRANSLATION_GRAPHS = {  # name: (build, XOR group)
    "C5": (lambda: _circulant(5, [1]), False),
    "C4": (lambda: build_ring_lattice(4, 2), True),  # also a circulant; masks come first
    "C16": (lambda: build_ring_lattice(16, 2), False),
    "ring16-4": (lambda: build_ring_lattice(16, 4), False),
    "ring12-6": (lambda: build_ring_lattice(12, 6), False),
    "moebius8": (lambda: _circulant(8, [1, 4]), False),  # offset N/2: an orbit of N/2 links
    "C8(2)": (lambda: _circulant(8, [2]), True),  # two 4-cycles
    "C9(3)": (lambda: _circulant(9, [3]), False),  # three triangles
    "two-K4": (lambda: custom_topology(8, [(x, x ^ g) for g in (1, 2, 3) for x in range(8)
                                            if x < x ^ g]), True),
    "cycle64": (lambda: build_ring_lattice(64, 2), False),
    "ring64-6": (lambda: build_ring_lattice(64, 6), False),
    **{f"Q{d}": (lambda d=d: build_complete_hypercube(d), True) for d in range(1, 11)},
    "2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 2)), True),
    "3-3": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)), True),
    "2-2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 3)), True),
    "4-2": (lambda: build_recursive(RecursionSpec.semi((4, 2))), True),
    "3-2-2": (lambda: build_recursive(RecursionSpec.semi((3, 2, 2))), True),
    "4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 2)), True),
}
NO_TRANSLATION_GRAPHS = {
    "relabelled-ring16-4": lambda: custom_topology(
        16, np.random.default_rng(0).permutation(16)[build_ring_lattice(16, 4).ends]),
    "tree16": lambda: build_rooted_tree(16),
    "star16": lambda: build_star(16),
    "ring16-4-minus-link": lambda: _drop_link(build_ring_lattice(16, 4), 0),
    "Q4-minus-link": lambda: _drop_link(build_complete_hypercube(4), 5),
    "C8-plus-chord": lambda: custom_topology(8, build_ring_lattice(8, 2).ends.tolist() + [[0, 4]]),
}


class TestTranslationSymmetry:
    @pytest.mark.parametrize("name", [name for name in TRANSLATION_GRAPHS
                                      if name not in ("Q9", "Q10")])
    def test_accepts(self, name):
        """The detector's orbits are those of the group it names, found by
        mapping every link under every translation (up to 256 nodes)."""
        build, xor = TRANSLATION_GRAPHS[name]
        t = build()
        orbits = _translation_orbits(t)
        assert orbits is not None and orbits.xor == xor
        found = {frozenset(np.flatnonzero(orbits.of_link == o).tolist())
                 for o in range(len(orbits.first))}
        assert found == _translation_orbits_oracle(t, xor)
        assert orbits.first.tolist() == [int(np.flatnonzero(orbits.of_link == o)[0])
                                         for o in range(len(orbits.first))]
        assert orbits.size.tolist() == np.bincount(orbits.of_link).tolist()
        assert _translation_orbits(t) is orbits  # kept on the topology

    @pytest.mark.parametrize("name", list(NO_TRANSLATION_GRAPHS))
    def test_rejects(self, name):
        """None exactly when neither group maps the graph onto itself."""
        t = NO_TRANSLATION_GRAPHS[name]()
        assert _translation_orbits(t) is None
        assert _translation_orbits_oracle(t, False) is None
        assert not t.n_nodes & (t.n_nodes - 1) and _translation_orbits_oracle(t, True) is None

    def test_orbit_shapes(self):
        """Offset N/2 makes an orbit of N/2 links; each mask one of N/2."""
        moebius = _translation_orbits(_circulant(8, [1, 4]))
        assert (moebius.xor, moebius.size.tolist()) == (False, [8, 4])
        q4 = _translation_orbits(build_complete_hypercube(4))
        assert (q4.xor, q4.size.tolist()) == (True, [8, 8, 8, 8])
        assert _translation_orbits(build_ring_lattice(12, 6)).size.tolist() == [12, 12, 12]

    @pytest.mark.parametrize("name", list(TRANSLATION_GRAPHS))
    def test_cut_bound_without_flow_or_cube_solve(self, name, monkeypatch):
        """Mader: kappa is the minimum degree on a connected graph with
        translation orbits (0 on a disconnected one), and the character
        sums' lam2 gives the dense solve's bound.  For every k, c_lb
        equals max(kappa, ceil(lam2 (N - k + 1) / 2)) from the max-flow
        and the dense solve, neither of which runs."""
        build, _ = TRANSLATION_GRAPHS[name]
        t = build()
        n = t.n_nodes
        degree = np.bincount(t.ends.ravel(), minlength=n)
        kappa = _edge_connectivity(t)
        assert kappa == (int(degree.min()) if t.is_connected() else 0)
        lam2 = _algebraic_connectivity_lb(t.ends, degree) if n > 1 else 0.0
        if n > 1:  # the solve less its margin lies within the margin below
            closed = _character_lam2(n, t.ends, _translation_orbits(t))
            assert lam2 <= closed <= lam2 + 2e-9 * n * 2 * int(degree.max())

        def refuse(*args):
            raise AssertionError("refused")

        monkeypatch.setattr(reliability, "_edge_connectivity", refuse)
        monkeypatch.setattr(reliability, "_algebraic_connectivity_lb", refuse)
        got = [_cut_lower_bound(t, k) for k in range(1, n + 1)]
        assert got == [max(kappa, math.ceil(max(lam2, 0.0) * (n - k + 1) / 2))
                       for k in range(1, n + 1)]

    @pytest.mark.parametrize("offsets", [
        *[(n, range(1, degree // 2 + 1)) for n, degree in [
            (3, 2), (5, 2), (5, 4), (6, 2), (7, 6), (8, 2), (8, 4), (9, 4), (12, 6), (16, 2),
            (16, 4), (32, 4), (48, 4), (64, 2), (64, 6), (64, 20), (768, 4), (2048, 2)]],
        (8, [1, 4]), (6, [2, 3])],
        ids=lambda offsets: f"C{offsets[0]}({','.join(map(str, offsets[1]))})")
    def test_circulant_lam2_matches_eigvalsh(self, offsets):
        """On the suite's connected circulants of at most 2048 nodes (its
        ring lattices, the Moebius ladder and the prism C_6(2, 3), whose
        lam2 comes from the offset N/2) the character sums less their
        margin lie below the dense eigenvalue, and within twice the
        margin of it."""
        n = offsets[0]
        t = _circulant(*offsets)
        orbits = _translation_orbits(t)
        assert not orbits.xor
        lap = np.diag(np.bincount(t.ends.ravel(), minlength=n).astype(float))
        np.add.at(lap, (t.ends[:, 0], t.ends[:, 1]), -1.0)
        np.add.at(lap, (t.ends[:, 1], t.ends[:, 0]), -1.0)
        eig = float(np.linalg.eigvalsh(lap)[1])
        closed = _character_lam2(n, t.ends, orbits)
        assert closed <= eig <= closed * (1 + 2e-9)

    def test_disconnected_lam2_is_zero(self):
        """C_8(2) (two 4-cycles, by its offset or by its masks) and masks
        {1, 2} on 8 nodes (two 4-cycles), C_9(3) (three triangles): lam2
        is exactly 0, and so is c_lb at every quorum."""
        masks12 = custom_topology(8, [(x, x ^ g) for g in (1, 2) for x in range(8) if x < x ^ g])
        c8_2 = _circulant(8, [2])
        by_offset = Orbits(False, np.array([0]), np.array([8]), np.zeros(8, dtype=np.int64))
        assert _character_lam2(8, c8_2.ends, by_offset) == 0.0
        for t in (c8_2, masks12, _circulant(9, [3])):
            orbits = _translation_orbits(t)
            assert orbits.xor == (t.n_nodes == 8)
            assert _character_lam2(t.n_nodes, t.ends, orbits) == 0.0
            assert [_cut_lower_bound(t, k) for k in range(1, t.n_nodes + 1)] == [0] * t.n_nodes

    @pytest.mark.parametrize("name", ["C16", "ring16-4", "ring12-6", "Q4", "2-2", "C8(2)"])
    def test_orbit_count_equals_enumeration(self, name, monkeypatch):
        """For every i with C(L, i) <= 10**5 the per-orbit count of wrong
        i-subsets gives the full enumeration's state, at two quorums."""
        t = TRANSLATION_GRAPHS[name][0]()
        n_orbits = len(_translation_orbits(t).first)
        states = [i for i in range(1, t.n_links + 1) if math.comb(t.n_links, i) <= 10**5]
        assert any(n_orbits * i < t.n_links for i in states)
        for k in (3, default_quorum(t.n_nodes)):
            by_orbit = _exact_states(t, k, [(i, math.nan) for i in states], 0, 10**5)
            with monkeypatch.context() as m:
                m.setattr(reliability, "_translation_orbits", lambda topology: None)
                full = _exact_states(t, k, [(i, math.nan) for i in states], 0, 10**5)
            assert [(e.p_wrong, e.n_samples) for e in by_orbit] == \
                [(e.p_wrong, e.n_samples) for e in full]

    def test_cycle64_kernel_rows(self, monkeypatch):
        """The 64-cycle at enum cap 10**5 enumerates i = 2 and 3 (i = 1 lies
        below c_lb = 2) through one orbit: 63 + 1953 sets, not 43 680, in
        one batch of the forest kernel."""
        batches = []
        kernel = reliability._wrong_sets

        def counting(topology, k, sets):
            batches.append(sets.shape)
            return kernel(topology, k, sets)

        monkeypatch.setattr(reliability, "_wrong_sets", counting)
        report = partition_tolerance(build_ring_lattice(64, 2), budget=4000, seed=1,
                                     enum_cap=10**5)
        exact = [e for e in report.per_state if e.method == "exact" and e.n_samples]
        assert [(e.i, e.n_samples) for e in exact] == [(2, 2016), (3, 41664)]
        assert batches == [(3, 63 + 1953)]

    @pytest.mark.parametrize("orbits", [True, False], ids=["orbits", "no-orbits"])
    @pytest.mark.parametrize("slots", [ORDER_SLOTS, 40 * 24], ids=["one-batch", "many-batches"])
    @pytest.mark.parametrize("build", [
        lambda: build_complete_hypercube(3),
        lambda: build_ring_lattice(12, 4),
        lambda: _drop_link(build_ring_lattice(10, 4), 3),
        lambda: custom_topology(24, [(x, (x + 1) % 16) for x in range(16)]),
    ], ids=["Q3", "ring12-4", "ring10-4-less-one", "cycle16-isolated"])
    def test_batched_counts_equal_brute_force(self, build, slots, orbits, monkeypatch):
        """Every state's count, all states in one pass (split into batches
        of `slots` slots, or not), equals the wrong i-subsets counted one
        (rows, L) mask at a time through the oracle's mask search, at two
        quorums."""
        t = build()
        L, n = t.n_links, t.n_nodes
        monkeypatch.setattr(reliability, "ORDER_SLOTS", slots)
        if not orbits:
            monkeypatch.setattr(reliability, "_translation_orbits", lambda topology: None)
        states = [i for i in range(1, L + 1) if math.comb(L, i) <= 3000]
        for k in (3, default_quorum(n)):
            got = _exact_states(t, k, [(i, math.nan) for i in states], 0, 3000)
            for e, i in zip(got, states):
                present = np.ones((math.comb(L, i), L), dtype=bool)
                for row, combo in zip(present, itertools.combinations(range(L), i)):
                    row[list(combo)] = False
                wrong = int(np.count_nonzero(max_component_sizes(t, present) < k))
                assert (e.i, e.n_samples, e.p_wrong) == (i, len(present), wrong / len(present))

    def test_orbit_sum_not_divisible(self, monkeypatch):
        """A false orbit (link 0 of a 5-node path standing for 3 links)
        makes an orbit sum that i does not divide: NumericError."""
        t = custom_topology(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        false = Orbits(False, np.array([0]), np.array([3]), np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(reliability, "_translation_orbits", lambda topology: false)
        with pytest.raises(NumericError, match="not divisible"):
            _exact_states(t, 3, [(2, math.nan)], 0, 100)


def _two_class_cycle():
    """8-cycle whose links alternate between classes down 40 % and 33 %
    of the time: c_lb = 2 at k = 5, and two opposite failed links make
    a wrong state at exactly c_lb."""
    classes = {0: LinkClass(5000.0, 3.0, 2.0), 1: LinkClass(3000.0, 3.0, 1.5)}
    ends = [(min(x, (x + 1) % 8), max(x, (x + 1) % 8)) for x in range(8)]
    return custom_topology(8, ends, [x % 2 for x in range(8)], classes)


def _unreliable_2_2():
    """2-2 with links down 40 % and 33 % of the time: c_lb = 8 at k = 9
    splits the sampled states, and some of those above it are wrong."""
    classes = (LinkClass(5000.0, 3.0, 2.0), LinkClass(3000.0, 3.0, 1.5))
    return build_recursive(RecursionSpec((2, 2), classes))


class TestCutBoundWork:
    @pytest.mark.parametrize(
        "build",
        [lambda: build_recursive(RecursionSpec.symmetric(4, 2)),
         lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
         _unreliable_2_2, _two_class_cycle],
        ids=["4-4", "2-2-2", "2-2-unreliable", "cycle8-two-class"],
    )
    def test_multiclass_report_unchanged_without_bound(self, monkeypatch, build):
        """The multi-class sampler keeps its random stream: checking only
        the rows with at least c_lb failed links gives the report of
        checking every row."""
        t = build()
        fast = partition_tolerance(t, budget=2000, seed=5)
        monkeypatch.setattr(reliability, "_cut_lower_bound", lambda topology, k: 0)
        slow = partition_tolerance(t, budget=2000, seed=5)
        assert fast.method == slow.method == "sampled"
        assert (fast.per_state, fast.p, fast.stderr, fast.t) == \
            (slow.per_state, slow.p, slow.stderr, slow.t)

    @pytest.mark.parametrize("build,c_lb", [(_unreliable_2_2, 8), (_two_class_cycle, 2)])
    def test_unreliable_cases_exercise_both_sides(self, build, c_lb):
        """Some sampled states lie below c_lb, and some wrong ones at it."""
        t = build()
        report = partition_tolerance(t, budget=2000, seed=5)
        assert _cut_lower_bound(t, report.k) == c_lb
        assert sum(e.n_samples for e in report.per_state if e.i < c_lb) > 0
        assert 0.0 < report.p < 1.0 and report.t is not None
        if c_lb == 2:
            assert [e.p_wrong > 0 for e in report.per_state if e.i == c_lb] == [True]

    def test_multiclass_rows_checked(self, monkeypatch):
        """4-4 at budget 10000: no sampled state reaches c_lb = 128 failed
        links, so the connectivity kernel is never called."""
        rows = []
        kernel = reliability._wrong_sets

        def counting(topology, k, sets):
            rows.append(sets.shape[1])
            return kernel(topology, k, sets)

        monkeypatch.setattr(reliability, "_wrong_sets", counting)
        report = partition_tolerance(build_recursive(RecursionSpec.symmetric(4, 2)),
                                     budget=10000, seed=1)
        assert sum(e.n_samples for e in report.per_state) == 10000
        assert rows == [] and report.p == 1.0

    def test_table3_cube_row_draws_no_orders(self, monkeypatch):
        """Every kept state of Table 3's 6-cube row lies below c_lb = 32:
        all are exact zeros, and no link order is drawn."""
        def refuse(*args):
            raise AssertionError("link orders drawn")

        monkeypatch.setattr(reliability, "_critical_counts", refuse)
        kind, _, spec = cli.TABLE3_N64[2]
        p, neglog, t, method = cli._reliability_columns(kind, 64, 6, spec, 4000, 1)
        assert (p, neglog, t, method) == ("1.0", "inf", "", "exact")


def _hot_three_class_ring():
    """`_three_class_ring` with MTBFs of 40, 30 and 5 h: about a third of
    its states are wrong, and their repair times take every class MTTR."""
    classes = {0: LinkClass(5000.0, 40.0, 24.0), 1: LinkClass(3000.0, 30.0, 14.4),
               2: LinkClass(420.0, 5.0, 2.016)}
    return dataclasses.replace(_three_class_ring(), classes=classes)


def _alternating_ring():
    """ring(64,6) whose links alternate between MTBFs of 2.0 h and 2.2 h
    (MTTR 2 h, links down about half the time): p is near 0.97 at budget
    400, and every row reaches the repair search (c_lb = 6)."""
    t = build_ring_lattice(64, 6)
    classes = {0: LinkClass(5000.0, 2.0, 2.0), 1: LinkClass(5000.0, 2.2, 2.0)}
    return dataclasses.replace(t, class_id=np.arange(t.n_links) % 2, classes=classes)


def _hot_4_4():
    """4-4 with every MTBF three times its MTTR (links down a quarter of
    the time): every row fails about 256 links, above c_lb = 128, and
    reaches the repair search."""
    t = build_recursive(RecursionSpec.symmetric(4, 2))
    return dataclasses.replace(t, classes={c: dataclasses.replace(cls, mtbf_h=3 * cls.mttr_h)
                                           for c, cls in t.classes.items()})


class TestMulticlassSampler:
    @pytest.mark.parametrize("build", [_two_class_cycle, _hot_three_class_ring],
                             ids=["cycle8-two-class", "ring14-hot"])
    def test_matches_bruteforce(self, build):
        """p within 3 stderr of the enumerated value, t within 5 %."""
        t = build()
        report = partition_tolerance(t, budget=20000, seed=1)
        p_exact, t_exact = exact_partition_tolerance_bruteforce(t, k=report.k)
        assert report.method == "sampled" and 0.0 < p_exact < 1.0
        assert abs(report.p - p_exact) <= 3 * report.stderr
        assert report.t == pytest.approx(t_exact, rel=0.05)

    def test_hot_ring_report_pinned(self):
        """The hot ring's report at seed 1, every per-state row included:
        pins the per-class failure counts and the failed links placed in
        each chunk (the brute force gives p = 0.674619, t = 8.8649)."""
        report = partition_tolerance(_hot_three_class_ring(), budget=20000, seed=1)
        assert (report.p, report.stderr, report.t, report.k, report.method) == \
            (0.6731, 0.0033168990789591416, 8.812236157847531, 8, "sampled")
        rows = [(0, 36, 0), (1, 279, 0), (2, 990, 0), (3, 2217, 0), (4, 3613, 79),
                (5, 4216, 759), (6, 3728, 1671), (7, 2548, 1813), (8, 1429, 1287),
                (9, 639, 624), (10, 229, 229), (11, 65, 65), (12, 10, 10), (13, 1, 1)]
        assert report.per_state == [
            reliability.StateEstimate(i, n / 20000, w / n, math.sqrt(w / n * (1 - w / n) / n),
                                      n, "sampled")
            for i, n, w in rows
        ]

    @pytest.mark.parametrize("build,budget,summary,rows", [
        (_alternating_ring, 400, (0.975, 0.007806247497997998, 2.0, 33), [
            (75, 1, 0), (76, 1, 0), (77, 2, 0), (79, 5, 0), (80, 3, 0), (81, 6, 0), (82, 6, 0),
            (83, 4, 0), (84, 11, 0), (85, 11, 0), (86, 7, 0), (87, 7, 0), (88, 19, 0),
            (89, 17, 0), (90, 19, 0), (91, 26, 0), (92, 19, 0), (93, 23, 0), (94, 22, 0),
            (95, 32, 0), (96, 22, 0), (97, 21, 0), (98, 14, 0), (99, 18, 2), (100, 20, 2),
            (101, 9, 0), (102, 14, 0), (103, 6, 0), (104, 10, 0), (105, 5, 1), (106, 11, 0),
            (107, 1, 1), (108, 2, 0), (109, 2, 1), (110, 2, 1), (112, 1, 1), (115, 1, 1)]),
        (_hot_4_4, 2000, (1.0, 0.0, None, 129), [(i, n, 0) for i, n in zip(
            [208, 212, *range(216, 299), 305],
            [1, 1, 1, 1, 1, 4, 5, 1, 7, 3, 5, 4, 6, 9, 7, 8, 12, 9, 15, 17, 16, 16, 12, 21, 25,
             33, 25, 29, 35, 42, 40, 42, 41, 56, 54, 41, 59, 59, 61, 49, 56, 45, 67, 49, 61, 65,
             50, 51, 67, 45, 52, 37, 40, 31, 34, 39, 36, 34, 31, 23, 22, 23, 22, 17, 18, 21, 14,
             14, 11, 7, 3, 7, 6, 4, 4, 2, 5, 3, 2, 1, 2, 1, 2, 1, 1, 1])]),
    ], ids=["ring64-alternating", "4-4-hot"])
    def test_hot_report_pinned(self, build, budget, summary, rows):
        """The report at seed 1, every per-state row included: pins the
        failure counts, the links placed in each chunk and the repair
        search's verdicts, on a graph whose rows all reach c_lb."""
        report = partition_tolerance(build(), budget=budget, seed=1)
        assert (report.p, report.stderr, report.t, report.k, report.method) == \
            (*summary, "sampled")
        assert report.per_state == [
            reliability.StateEstimate(i, n / budget, w / n, math.sqrt(w / n * (1 - w / n) / n),
                                      n, "sampled")
            for i, n, w in rows
        ]

    def test_one_repair_search_per_block(self, monkeypatch):
        """All hot rows of a count block go through one `_repair_times`
        search, which asks the forest kernel once per threshold it
        reaches, first about every row: the hot ring's 20 000 rows are 5
        blocks of 4096 or fewer (2 chunks of 2048 each)."""
        t = _hot_three_class_ring()
        searches, batches = [], []
        search, kernel = reliability._repair_times, reliability._wrong_sets

        def counting_search(topology, k, mttr_of, sets):
            searches.append(sets.shape[1])
            batches.append([])
            return search(topology, k, mttr_of, sets)

        def counting_kernel(topology, k, sets):
            batches[-1].append(sets.shape[1])
            return kernel(topology, k, sets)

        monkeypatch.setattr(reliability, "_repair_times", counting_search)
        monkeypatch.setattr(reliability, "_wrong_sets", counting_kernel)
        report = partition_tolerance(t, budget=20000, seed=1)
        c_lb = _cut_lower_bound(t, report.k)
        assert sum(searches) == sum(e.n_samples for e in report.per_state if e.i >= c_lb)
        assert len(searches) == 5 and all(1 <= len(b) <= 4 for b in batches)
        assert [b[0] for b in batches] == searches
        assert all(b == sorted(b, reverse=True) for b in batches)

    @pytest.mark.parametrize("build", [_alternating_ring, _hot_three_class_ring],
                             ids=["ring64-alternating", "ring14-hot"])
    def test_better_class_never_lowers_p(self, build):
        """Common random numbers: at one seed, a class with a longer MTBF
        fails in every row a subset of the links it failed, so p never
        drops (and somewhere rises)."""
        t = build()
        rises = 0
        for seed in range(15):
            base = partition_tolerance(t, budget=400, seed=seed).p
            for c, cls in t.classes.items():
                better = dataclasses.replace(cls, mtbf_h=1.1 * cls.mtbf_h)
                p = partition_tolerance(dataclasses.replace(t, classes={**t.classes, c: better}),
                                        budget=400, seed=seed).p
                assert p >= base, (seed, c, base, p)
                rises += p > base
        assert rises > 0

    def test_failure_count_distribution(self):
        """Each state's share of rows matches the exact convolution of the
        classes' Binomial(|M_c|, q_c) laws within 5 sigma."""
        from scipy.stats import binom

        t, budget = _hot_three_class_ring(), 20000
        exact = np.ones(1)
        for c, cls in t.classes.items():
            size = int(np.count_nonzero(t.class_id == c))
            exact = np.convolve(exact, binom.pmf(np.arange(size + 1), size, cls.steady_down_prob))
        seen = np.zeros(t.n_links + 1)
        for e in partition_tolerance(t, budget=budget, seed=1).per_state:
            seen[e.i] = e.n_samples / budget
        sigma = np.sqrt(exact * (1 - exact) / budget)
        assert np.all(np.abs(seen - exact) <= 5 * sigma + 1e-12), np.c_[seen, exact]

    @pytest.mark.parametrize("build", [_two_class_cycle, _hot_three_class_ring],
                             ids=["cycle8-two-class", "ring14-hot"])
    def test_report_unchanged_by_count_block(self, monkeypatch, build):
        """The count uniforms read the stream in row order and each chunk
        places from its own stream, so a block of one chunk of rows (here
        5 or 10 blocks, not 3 or 5) gives the same report.  The chunk is
        held while KERNEL_SLOTS shrinks the block."""
        t = build()
        wide = partition_tolerance(t, budget=20000, seed=3)
        step = reliability._chunk_rows(t.n_nodes, t.n_links)
        monkeypatch.setattr(reliability, "_chunk_rows", lambda n_nodes, n_links: step)
        monkeypatch.setattr(reliability, "KERNEL_SLOTS", 1)
        narrow = partition_tolerance(t, budget=20000, seed=3)
        assert (wide.per_state, wide.p, wide.stderr, wide.t) == \
            (narrow.per_state, narrow.p, narrow.stderr, narrow.t)


def _first_k_component(uf, ends, links, k):
    """1-based position in `links` of the link whose join first gives the
    union-find `uf` a k-node component; None if none does."""
    for pos, j in enumerate(links, start=1):
        u, v = ends[j]
        uf.union(u, v)
        if uf.size[uf.find(u)] >= k:
            return pos
    return None


def critical_counts_oracle(topology, k, budget, seed, cap):
    """min(c*, cap + 1) of each order, one pure-Python union-find per
    order: its tail comes from `_failed_tails`, batch by batch as
    `_critical_counts` draws them; the graph less the tail joins as a
    set, and then the tail's links, last first, until a k-node component."""
    L, n = topology.n_links, topology.n_nodes
    cap = min(cap, L)
    ends = topology.ends.tolist()
    step = max(1, reliability.ORDER_SLOTS // max(n, L))
    out = []
    for lo in range(0, budget, step):
        for tail in reliability._failed_tails(seed, lo, min(step, budget - lo), L, cap).T.tolist():
            uf = UnionFind(n)
            failed = set(tail)
            for j in range(L):
                if j not in failed:
                    uf.union(*ends[j])
            if uf.max_component_size() >= k:
                out.append(cap + 1)
                continue
            pos = _first_k_component(uf, ends, tail[::-1], k)
            out.append(0 if pos is None else cap + 1 - pos)
    return np.array(out, dtype=np.int64)


def _isolated_cycle64():
    """A 64-cycle spread at random among 2**14 isolated nodes: 63 orders
    per lockstep batch, fewer than its 64 links."""
    label = np.random.default_rng(4).permutation(64 + 2**14).tolist()
    return _graph(64 + 2**14, [tuple(sorted((label[x], label[(x + 1) % 64]))) for x in range(64)])


def _complete_graph(n):
    return _graph(n, list(itertools.combinations(range(n), 2)))


def _assert_capped_counts(topo, k, budget, seed):
    """`_critical_counts` at caps 0, 1, c_lb, L - k + 1 and L equals the
    oracle's counts at that cap; returns those at cap L."""
    L = topo.n_links
    for cap in (0, 1, _cut_lower_bound(topo, k), L - k + 1, L):
        got = _critical_counts(topo, k, budget, seed, cap)
        assert np.array_equal(got, critical_counts_oracle(topo, k, budget, seed, cap)), cap
    return got


def _batch_orders(topo, budget):
    return min(budget, reliability.ORDER_SLOTS // max(topo.n_nodes, topo.n_links))


def _cycle_wrong_share(n, i, k):
    """P{wrong | i} on the n-cycle: the share of i-subsets of its links
    whose gaps (arcs of nodes) are all below k, n * (compositions of n
    into i parts of at most k - 1) / i of the C(n, i)."""
    ways = [1] + [0] * n  # compositions of each total into parts 1..k-1
    for _ in range(i):
        ways = [sum(ways[s - p] for p in range(1, min(k - 1, s) + 1)) for s in range(n + 1)]
    subsets, rest = divmod(n * ways[n], i)
    assert rest == 0
    return subsets / math.comb(n, i)


class TestCriticalCounts:
    @pytest.mark.parametrize(
        "topo",
        [build_rooted_tree(64, 6), build_complete_hypercube(6), build_ring_lattice(64, 6),
         build_ring_lattice(64, 2)],
        ids=["tree64-6", "Q6", "ring64-6", "cycle64"],
    )
    @pytest.mark.parametrize("quorum", ["default", "all"])
    def test_matches_oracle(self, topo, quorum):
        """Wide batches: at least as many orders as links."""
        k = default_quorum(topo.n_nodes) if quorum == "default" else topo.n_nodes
        assert _batch_orders(topo, 400) >= topo.n_links
        _assert_capped_counts(topo, k, 400, (7, 3))

    def test_across_batches(self, monkeypatch):
        """A budget over three batches draws each batch's tails from its
        own stream, keyed by its first order."""
        t = _isolated_cycle64()
        rows = ORDER_SLOTS // max(t.n_nodes, t.n_links)
        budget = 2 * rows + 5
        assert 1 < rows < budget // 2 and rows < t.n_links
        firsts = []
        tails = reliability._failed_tails

        def spy(seed, lo, B, L, cap):
            firsts.append((lo, B))
            return tails(seed, lo, B, L, cap)

        monkeypatch.setattr(reliability, "_failed_tails", spy)
        got = _assert_capped_counts(t, 20, budget, 11)
        assert len(set(got.tolist())) > 1
        assert firsts[:3] == [(0, rows), (rows, rows), (2 * rows, 5)]

    @pytest.mark.parametrize("topo, budget", [(build_ring_lattice(768, 4), 50),
                                              (_complete_graph(24), 100)],
                             ids=["ring768-4", "K24"])
    @pytest.mark.parametrize("quorum", ["default", "all"])
    def test_narrow_batches(self, topo, budget, quorum):
        """Fewer orders than links off the BFS forest: the kernel folds
        those links."""
        k = default_quorum(topo.n_nodes) if quorum == "default" else topo.n_nodes
        assert _batch_orders(topo, budget) < reliability._spanning_forest(topo)[2].size
        _assert_capped_counts(topo, k, budget, (7, 3))

    @pytest.mark.parametrize("rows", [7, 1])
    @pytest.mark.parametrize("topo, budget, k", [
        (build_ring_lattice(64, 6), 400, default_quorum(64)),
        (build_ring_lattice(768, 4), 50, default_quorum(768)),
        (_complete_graph(24), 100, default_quorum(24)),
        (_isolated_cycle64(), 2 * (ORDER_SLOTS // (64 + 2**14)) + 5, 20),
    ], ids=["ring64-6", "ring768-4", "K24", "cycle64-isolated"])
    def test_chunked_draws(self, topo, budget, k, rows, monkeypatch):
        """A budget drawn `rows` orders at a time, each batch on its own
        stream, gives the oracle's counts: 7 divides none of the budgets,
        so the last batch is short.  The batches are narrow but for the
        isolated cycle's, whose one link off the forest is stepped."""
        monkeypatch.setattr(reliability, "ORDER_SLOTS", rows * max(topo.n_nodes, topo.n_links))
        assert _batch_orders(topo, budget) == rows
        _assert_capped_counts(topo, k, budget, (7, 3))

    @pytest.mark.parametrize("L, B", [(12, 40), (192, 4000), (64, 63)])
    def test_failed_tails(self, L, B):
        """Each tail lists distinct links, and a larger cap extends every
        tail, in a batch of any first order; at cap L a tail is a whole
        order.  Batches of other first orders read other streams."""
        full = {}
        for lo in (0, B):
            full[lo] = reliability._failed_tails((7, 3), lo, B, L, L)
            assert full[lo].dtype == np.int32 and full[lo].shape == (L, B)
            assert np.array_equal(np.sort(full[lo], axis=0), np.tile(np.arange(L)[:, None], B))
            for cap in (0, 1, 5):
                tails = reliability._failed_tails((7, 3), lo, B, L, cap)
                assert np.array_equal(tails, full[lo][:cap]), (lo, cap)
        assert not np.array_equal(full[0], full[B])

    def test_last_links_uniform(self):
        """The last link, and the last two as an ordered pair, are uniform
        within 4 sigma over 13 200 orders of 12 links."""
        B, L = 13200, 12
        last, second = reliability._failed_tails(2, 0, B, L, 2)
        for cells, counts in ((L, np.bincount(last, minlength=L)),
                              (L * (L - 1), np.bincount(last * L + second, minlength=L * L))):
            want = B / cells
            counts = counts[counts > 0]
            assert counts.size == cells
            assert np.abs(counts - want).max() <= 4 * math.sqrt(want * (1 - 1 / cells))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cycle64_composition_counts(self, seed):
        """On the 64-cycle at k = 33, the share of orders with c* <= i
        lies within 4 sigma of the exact composition count, for i = 4, 8
        and 12."""
        t, budget = build_ring_lattice(64, 2), 4000
        got = _critical_counts(t, 33, budget, seed, 12)
        for i in (4, 8, 12):
            p = _cycle_wrong_share(64, i, 33)
            share = np.count_nonzero(got <= i) / budget
            assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / budget), (i, share, p)

    def test_batch_stays_int32(self, monkeypatch):
        """Table 3's ring(64,6) at budget 4000 hands `_links_added` one
        int32 (18, 4000) block of tails, 288 KB, that owns its data: a
        view would keep the (192, 4000) draw scratch alive through the
        evolution."""
        batches = []
        links_added = reliability._links_added

        def spy(topology, k, tails):
            batches.append((tails.dtype, tails.shape, tails.base is None))
            return links_added(topology, k, tails)

        monkeypatch.setattr(reliability, "_links_added", spy)
        partition_tolerance(build_ring_lattice(64, 6), budget=4000)
        assert batches == [(np.dtype(np.int32), (18, 4000), True)]

    @pytest.mark.parametrize(
        "topo", [build_ring_lattice(16, 4), build_complete_hypercube(4), build_rooted_tree(16, 3)],
        ids=["ring16-4", "Q4", "tree16-3"],
    )
    def test_lockstep_union_find(self, topo):
        """With k = n every order of a wide batch of whole link orders runs
        to the link that spans the graph.  Each root's size is then the
        number of nodes that chase to it, and `added` is where one
        union-find per order first spans the graph."""
        L, n, B = topo.n_links, topo.n_nodes, 40
        rng = np.random.default_rng(np.random.SeedSequence(3))
        batch = np.stack([rng.permutation(L) for _ in range(B)], axis=1).astype(np.int32)
        parent = np.arange(B * n, dtype=np.int32)
        size = np.ones(B * n, dtype=np.int32)
        added = np.full(B, L + 1, dtype=np.int64)
        reliability._add_in_lockstep(np.ascontiguousarray(topo.ends.T), n, n, batch, 0, parent,
                                     size, np.arange(B, dtype=np.int32), added)
        roots = parent
        while not np.array_equal(parent[roots], roots):
            roots = parent[roots]
        is_root = parent == np.arange(B * n)
        assert np.array_equal(size[is_root], np.bincount(roots, minlength=B * n)[is_root])
        ends = topo.ends.tolist()
        assert added.tolist() == [_first_k_component(UnionFind(n), ends, order, n)
                                  for order in batch.T.tolist()]

    def test_ring768_work(self, monkeypatch):
        """ring(768,4) at budget 50: the sampled states end at 52 and k = 385.
        Its BFS tree leaves every order short of k; the kernel then folds
        the other 769 links in their shared arrangement, each order's
        failed ones as self-loops, in blocks ending at 384 and 768 links, and every order is
        done before its tail: the per-step loop runs no step."""
        t = build_ring_lattice(768, 4)
        n = t.n_nodes
        rest = reliability._spanning_forest(t)[2]
        assert rest.size == t.n_links - (n - 1)
        place = np.full(t.n_links, -1)
        place[rest] = np.arange(rest.size)
        link_of = {pair: j for j, pair in enumerate(map(tuple, t.ends.tolist()))}
        caps, tails, blocks = [], [], []
        counts, links_added = reliability._critical_counts, reliability._links_added
        join_roots = reliability._join_roots

        def capped(topo, k, budget, seed, cap):
            caps.append((k, cap))
            return counts(topo, k, budget, seed, cap)

        def drawn(topology, k, block):
            tails.append(block)
            return links_added(topology, k, block)

        def folding(label, a, b):
            real = a != b  # an order's failed link comes as a self-loop
            order, u, v = a[real] // n, a[real] % n, b[real] % n
            links = np.array([link_of[min(x, y), max(x, y)]
                              for x, y in zip(u.tolist(), v.tolist())])
            assert not np.isin(links + t.n_links * order,
                               tails[0] + t.n_links * np.arange(50)).any()
            blocks.append((np.unique(order).size, place[links].min(), place[links].max()))
            return join_roots(label, a, b)

        def refuse(*args):
            raise AssertionError("per-step loop ran")

        monkeypatch.setattr(reliability, "_critical_counts", capped)
        monkeypatch.setattr(reliability, "_links_added", drawn)
        monkeypatch.setattr(reliability, "_join_roots", folding)
        monkeypatch.setattr(reliability, "_add_in_lockstep", refuse)
        partition_tolerance(t, budget=50, seed=1)
        assert caps == [(385, 52)] and len(tails) == 1
        assert [b[0] for b in blocks] == [50, 2]
        assert blocks[0][1] >= 0 and blocks[0][2] < 384 <= blocks[1][1] and blocks[1][2] < 768

    def test_no_k_component(self):
        assert _critical_counts(_two_links(), 3, 50, 0, 2).tolist() == [0] * 50
        for cap in (0, 10, 64):  # narrow batches
            assert _critical_counts(_isolated_cycle64(), 65, 100, 0, cap).tolist() == [0] * 100

    def test_quorum_one(self):
        t = build_ring_lattice(16, 4)
        got = _critical_counts(t, 1, 50, 0, t.n_links)
        assert got.tolist() == [t.n_links + 1] * 50
        assert np.array_equal(got, critical_counts_oracle(t, 1, 50, 0, t.n_links))
        assert _critical_counts(t, 1, 50, 0, 5).tolist() == [6] * 50

    @pytest.mark.parametrize("topo, budget, enum_cap", [
        (build_ring_lattice(768, 4), 50, reliability.ENUM_CAP_DEFAULT),
        (build_ring_lattice(64, 6), 4000, reliability.ENUM_CAP_DEFAULT),
        (build_complete_hypercube(4), 4000, reliability.ENUM_CAP_DEFAULT),
        (build_ring_lattice(64, 2), 4000, 100000),
    ], ids=["ring768-4", "ring64-6", "Q4", "cycle64"])
    def test_cap_leaves_estimates(self, topo, budget, enum_cap, monkeypatch):
        """Every per-state row and the variance equal those read from the
        uncapped counts (cap = L)."""
        L = topo.n_links
        (cls,) = topo.classes.values()
        pi = reliability.binom_pmf_vector(L, cls.steady_down_prob).tolist()
        states = [(i, pi[i]) for i in range(1, L + 1) if pi[i] >= reliability.TAIL_EPS]
        k = default_quorum(topo.n_nodes)
        caps = []
        counts = reliability._critical_counts

        def capped(topo, k, budget, seed, cap):
            caps.append(cap)
            return counts(topo, k, budget, seed, cap)

        monkeypatch.setattr(reliability, "_critical_counts", capped)
        got = reliability._estimate_states(topo, k, states, budget, 5, enum_cap)
        monkeypatch.setattr(reliability, "_critical_counts",
                            lambda topo, k, budget, seed, cap: counts(topo, k, budget, seed, L))
        assert got == reliability._estimate_states(topo, k, states, budget, 5, enum_cap)
        assert caps == [max(e.i for e in got[0] if e.method == "sampled")] and caps[0] < L


def test_analysis_runs_without_networkx():
    """Every analysis and simulation entry point, κ included, runs on
    numpy alone: networkx and scipy are test oracles only."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from cubenet import *\n"
        "from cubenet import reliability\n"
        "t = build_ring_lattice(16, 4)\n"
        "partition_tolerance(t, budget=50, seed=0, enum_cap=100)\n"
        "reliability._estimate_states(t, 9, [(5, float('nan'))], 50, (0, 5), 0)\n"
        "spec = RecursionSpec.symmetric(2, 2)\n"
        "mixed = build_recursive(spec)\n"
        "partition_tolerance(mixed, budget=50, seed=0)\n"
        "reliability._repair_times(mixed, 9, reliability._class_values(mixed, lambda c: c.mttr_h),\n"
        "                          np.arange(mixed.n_links)[:, None])\n"
        "analyze_hierarchical(spec, budget=50, seed=0)\n"
        "run_gossip(mixed, GossipConfig(cycles=3, seed=0))\n"
        "run_consensus(mixed, ConsensusConfig(rounds=3, seed=0))\n"
    )
    src = os.path.dirname(os.path.dirname(cubenet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _level_reports(spec, budget, seed):
    """`partition_tolerance` of each level's hypercube, as `analyze_hierarchical`
    runs it: the level's link class, default quorum, seed + level."""
    reports = []
    for m, (dim, cls) in enumerate(zip(spec.dims, spec.classes), start=1):
        cube = dataclasses.replace(build_complete_hypercube(dim), classes={0: cls})
        reports.append(partition_tolerance(cube, budget=budget, seed=seed + m))
    return reports


class TestAggregation:
    def test_two_level_formula(self):
        """4-2: one level-1 domain and 16 level-2 domains, each reached
        when the level-1 domain holds."""
        spec = RecursionSpec.semi((4, 2))
        agg = analyze_hierarchical(spec, budget=20000, seed=0)
        r1, r2 = _level_reports(spec, 20000, 0)
        w1, w2 = 1 - r1.p, 16 * r1.p * (1 - r2.p)
        assert w1 > 0 and w2 > 0
        assert math.isclose(1 - agg.p, w1 + w2, rel_tol=1e-12)
        assert math.isclose(agg.t, (w1 * r1.t + w2 * r2.t) / (w1 + w2), rel_tol=1e-12)

    def test_three_level_formula(self):
        """2-2-2: level m has prod_{j<m} 4 domains, each reached when
        every ancestor holds."""
        spec = RecursionSpec.symmetric(2, 3)
        agg = analyze_hierarchical(spec, budget=500, seed=3)
        r1, r2, r3 = _level_reports(spec, 500, 3)
        w = [1 - r1.p, 4 * r1.p * (1 - r2.p), 16 * r1.p * r2.p * (1 - r3.p)]
        assert all(x > 0 for x in w)
        assert math.isclose(1 - agg.p, sum(w), rel_tol=1e-12)
        t = (w[0] * r1.t + w[1] * r2.t + w[2] * r3.t) / sum(w)
        assert math.isclose(agg.t, t, rel_tol=1e-12)

    def test_clamp_flag(self):
        """Links down about half the time: the level sum exceeds 1, so p
        is clamped to 0."""
        classes = (LinkClass(5000.0, 2.0, 1.9), LinkClass(3000.0, 2.0, 1.9))
        spec = RecursionSpec((3, 2), classes)
        r1, r2 = _level_reports(spec, 200, 0)
        assert (1 - r1.p) + 8 * r1.p * (1 - r2.p) > 1
        assert analyze_hierarchical(spec, budget=200, seed=0).p == 0.0

    def test_nonstandard_distance(self):
        """A class's distance is only a label: a spec whose distances have
        no standard indicators gives the result of the same MTBF/MTTR
        pairs at standard distances."""
        rates = ((500.0, 5.0), (800.0, 3.0))
        results = []
        for dists in ((100.0, 50.0), (5000.0, 420.0)):
            classes = tuple(LinkClass(d, *r) for d, r in zip(dists, rates))
            spec = RecursionSpec((3, 2), classes)
            results.append(analyze_hierarchical(spec, budget=200, seed=0))
        assert results[0] == results[1]
        assert 0.0 < results[0].p < 1.0

    def test_explicit_domains_refused(self):
        """A spec is asymmetric by its levels: an explicit domain map is
        refused, and int levels through the asymmetric constructor are
        the semi-symmetric spec."""
        two = cubenet.DomainGraph(2, ((0, 1),))
        with pytest.raises(SpecError, match="needs a symmetric or semi-symmetric spec"):
            analyze_hierarchical(RecursionSpec.asymmetric((1, {(0,): two, (1,): two})))
        assert analyze_hierarchical(RecursionSpec.asymmetric((3, 2)), budget=200) == \
            analyze_hierarchical(RecursionSpec.semi((3, 2)), budget=200)

    def test_hierarchical_4_2_repair(self):
        result = analyze_hierarchical(RecursionSpec.semi((4, 2)), budget=2000, seed=0)
        # level-2 repairs dominate: every per-domain failure is a level-1
        # 4-cube event, every cross-domain failure a level-2 1-cube event
        assert math.isclose(result.t, 14.4, rel_tol=1e-6)
        assert 0.0 <= result.p <= 1.0


class TestErrors:
    def test_quorum_out_of_range(self):
        t = build_star(4)
        for k in (0, t.n_nodes + 1):
            with pytest.raises(SpecError):
                partition_tolerance(t, k=k, budget=0)
            with pytest.raises(SpecError):
                exact_partition_tolerance_bruteforce(t, k=k)

    def test_sampled_states_need_a_budget(self):
        with pytest.raises(SpecError, match="need sampling but the budget is 0"):
            partition_tolerance(build_ring_lattice(64, 6), budget=0)

    def test_aggregation_refuses_asymmetric_spec(self):
        spec = RecursionSpec.asymmetric((2, {(a,): DomainGraph(2, ((0, 1),)) for a in range(4)}))
        with pytest.raises(SpecError, match="symmetric or semi-symmetric"):
            analyze_hierarchical(spec)

    def test_negative_enum_cap(self):
        """A negative cap is an error, not a cap of 0, at every entry point
        that takes one, also where no state would be enumerated."""
        t, spec = build_ring_lattice(8, 4), RecursionSpec.symmetric(2, 2)
        calls = [
            lambda: partition_tolerance(t, budget=10, enum_cap=-1),
            lambda: partition_tolerance(build_recursive(spec), budget=10, enum_cap=-1),
        ]
        for call in calls:
            with pytest.raises(SpecError, match="enum_cap"):
                call()

    @pytest.mark.parametrize("p, t, message", [
        (1.5, None, r"partition tolerance probability 1.5 outside \[0,1\]"),
        (0.5, -1.0, "negative repair time"),
    ], ids=["p-above-1", "negative-t"])
    def test_report_checks(self, p, t, message):
        with pytest.raises(NumericError, match=message):
            PartitionReport(p=p, stderr=0.0, t=t, per_state=[], method="exact", k=1)

    def test_multiclass_zero_budget(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        assert np.unique(t.class_id).size == 2
        with pytest.raises(SpecError):
            partition_tolerance(t, budget=0)

    def test_bruteforce_size_guard(self):
        t = build_complete_hypercube(5)  # 80 links
        with pytest.raises(ResourceLimitError):
            exact_partition_tolerance_bruteforce(t)
