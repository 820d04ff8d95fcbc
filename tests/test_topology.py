import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenet import (
    DomainGraph,
    LinkClass,
    NodeId,
    RecursionSpec,
    Topology,
    build_complete_hypercube,
    build_incomplete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    closed_form_link_count,
    connected_components,
)
from cubenet.errors import ConstructionError, ResourceLimitError, SpecError
from cubenet.topology import _gray_hypercube_edges


class TestLinkClass:
    def test_standard_rates(self):
        c = LinkClass.standard(5000)
        assert c.mtbf_h == 2190 and c.mttr_h == 24
        assert abs(c.lam * c.mtbf_h - 1) < 1e-12
        assert abs(c.mu * c.mttr_h - 1) < 1e-12

    def test_rejects_mttr_above_mtbf(self):
        with pytest.raises(SpecError):
            LinkClass(0, 100, mtbf_h=10, mttr_h=20)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(SpecError):
            LinkClass(0, 100, mtbf_h=2000, mttr_h=0.5)  # mu > 1


class TestCompleteHypercube:
    @pytest.mark.parametrize("dim,nodes,links", [(3, 8, 12), (0, 1, 0), (5, 32, 80)])
    def test_sizes(self, dim, nodes, links):
        t = build_complete_hypercube(dim)
        assert (t.n_nodes, t.n_links) == (nodes, links)

    @pytest.mark.parametrize("dim", range(0, 11))
    def test_hamming_property(self, dim):
        t = build_complete_hypercube(dim)
        have = {lk.key() for lk in t.links}
        for u in range(2**dim):
            for v in range(u + 1, 2**dim):
                expected = bin(u ^ v).count("1") == 1
                assert ((u, v) in have) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
    def test_regular(self, dim):
        t = build_complete_hypercube(dim)
        assert set(t.degrees()) == {dim}

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_complete_hypercube(21)

    def test_connected_all_working(self):
        t = build_complete_hypercube(4)
        assert t.is_connected()


class TestIncompleteHypercube:
    def test_drop_one_node(self):
        t = build_incomplete_hypercube(4, present_nodes=set(range(15)))
        # enumeration of Hamming-1 pairs among the 15 remaining ids
        assert (t.n_nodes, t.n_links) == (15, 28)

    def test_no_removals_equals_complete(self):
        full = build_complete_hypercube(3)
        t = build_incomplete_hypercube(3)
        assert {lk.key() for lk in t.links} == {lk.key() for lk in full.links}

    def test_five_removed_links(self):
        removed = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        t = build_incomplete_hypercube(5, removed_links=removed)
        assert (t.n_nodes, t.n_links) == (32, 75)

    def test_disconnected_rejected(self):
        # removing all three links of node 0 isolates it
        with pytest.raises(ConstructionError):
            build_incomplete_hypercube(3, removed_links=[(0, 1), (0, 2), (0, 4)])


class TestRecursive:
    def test_two_level_cyclic_numbering(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        assert (t.n_nodes, t.n_links) == (16, 32)
        label = {nd.flat: nd.label() for nd in t.nodes}
        neighbors_00 = {label[v] for v in t.adjacency()[0]}
        assert {"10", "30"} <= neighbors_00

    def test_semi_4_3(self):
        t = build_recursive(RecursionSpec.semi((4, 3)))
        assert (t.n_nodes, t.n_links) == (128, 448)

    def test_symmetric_3_levels(self):
        t = build_recursive(RecursionSpec.symmetric(3, 3))
        assert (t.n_nodes, t.n_links) == (512, 2304)

    def test_uniform_degree_is_dim_sum(self):
        t = build_recursive(RecursionSpec.semi((3, 2)))
        assert set(t.degrees()) == {5}

    @pytest.mark.parametrize("dim", range(9))
    def test_gray_edges_match_relabeled_hamming_rule(self, dim):
        """The closed-form Gray-code neighbours give the sorted list of
        Hamming edges relabeled through the inverse Gray code, so
        recursive link order is unchanged."""
        inv = {u ^ (u >> 1): u for u in range(2**dim)}
        oracle = sorted(
            tuple(sorted((inv[a], inv[a ^ (1 << b)])))
            for a in range(2**dim) for b in range(dim) if a < a ^ (1 << b)
        )
        assert _gray_hypercube_edges(dim) == oracle

    def test_single_level_isomorphic_to_hypercube(self):
        import networkx as nx

        a = build_recursive(RecursionSpec.symmetric(4, 1))
        b = build_complete_hypercube(4)
        ga = nx.Graph((lk.u, lk.v) for lk in a.links)
        gb = nx.Graph((lk.u, lk.v) for lk in b.links)
        assert nx.is_isomorphic(ga, gb)

    def test_domain_number_is_smallest_member(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        for nd in t.nodes:
            if nd.levels[1] == 0:  # first node of its domain
                domain = [m.flat for m in t.nodes if m.levels[0] == nd.levels[0]]
                assert nd.flat == min(domain)

    def test_level_classes(self):
        t = build_recursive(RecursionSpec.symmetric(2, 3))
        assert t.class_census() == {0: 64, 1: 64, 2: 64}
        by_level = t.level_census()
        assert by_level == {1: 64, 2: 64, 3: 64}

    def test_asymmetric_equal_domains(self):
        mesh = DomainGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        spec = RecursionSpec.asymmetric((2, {(0,): mesh, (1,): mesh, (2,): mesh, (3,): mesh}))
        t = build_recursive(spec)
        assert t.n_nodes == 16
        # 4 domains x 6 mesh links + 4 parent links x 4 suffixes
        assert t.n_links == 24 + 16

    def test_asymmetric_unequal_domains_rejected(self):
        spec = RecursionSpec.asymmetric(
            (1, {(0,): DomainGraph(2, ((0, 1),)), (1,): DomainGraph(3, ((0, 1), (1, 2)))})
        )
        with pytest.raises(ConstructionError, match="unequal"):
            build_recursive(spec)


class TestClosedForms:
    @pytest.mark.parametrize(
        "spec,n,links",
        [
            (RecursionSpec.symmetric(4, 3), 4096, 24576),
            (RecursionSpec.semi((4, 3, 2)), 512, 2304),
            (RecursionSpec.symmetric(2, 1), 4, 4),
        ],
    )
    def test_values(self, spec, n, links):
        assert closed_form_link_count(spec) == (n, links)

    def test_asymmetric_unsupported(self):
        spec = RecursionSpec.asymmetric((2, {(i,): DomainGraph(2, ((0, 1),)) for i in range(4)}))
        with pytest.raises(SpecError):
            closed_form_link_count(spec)

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_built_graph_matches_closed_form(self, dims):
        if sum(dims) > 12:
            return
        spec = RecursionSpec.semi(dims)
        topo = build_recursive(spec)
        n, links = closed_form_link_count(spec)
        assert (topo.n_nodes, topo.n_links) == (n, links)
        # per-level recurrence terms: level m contributes 2^(sum-1) * dim_m
        total = sum(dims)
        for m, dim in enumerate(dims, start=1):
            assert topo.level_census()[m] == 2 ** (total - 1) * dim


class TestBaselines:
    @pytest.mark.parametrize("n,links", [(64, 63), (1, 0), (4096, 4095)])
    def test_tree_links(self, n, links):
        assert build_rooted_tree(n, 6).n_links == links

    def test_tree_internal_degree(self):
        t = build_rooted_tree(64, 6)
        degs = t.degrees()
        assert degs[0] == 6
        internal = [d for d in degs[1:] if d > 1]
        # all internal nodes are full except possibly the last one filled
        assert max(internal) == 6
        assert sum(1 for d in internal if d < 6) <= 1

    @pytest.mark.parametrize("n,degree,links", [(64, 6, 192), (4, 2, 4), (4096, 12, 24576)])
    def test_ring_links(self, n, degree, links):
        assert build_ring_lattice(n, degree).n_links == links

    def test_ring_odd_degree_rejected(self):
        with pytest.raises(SpecError):
            build_ring_lattice(10, 3)

    @pytest.mark.parametrize("n", [4, 16])
    def test_star(self, n):
        t = build_star(n)
        assert t.n_links == n - 1
        assert t.degree(0) == n - 1


class TestTable3Census:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (RecursionSpec.symmetric(2, 3), (64, 64, 64)),
            (RecursionSpec.semi((4, 2)), (128, 64)),
            (RecursionSpec.symmetric(6, 1), (192,)),
        ],
    )
    def test_counts(self, spec, expected):
        census = build_recursive(spec).class_census()
        assert tuple(census[cid] for cid in sorted(census)) == expected


class TestComponents:
    def test_intact(self):
        t = build_complete_hypercube(3)
        assert [len(c) for c in connected_components(t)] == [8]

    def test_isolated_vertex(self):
        t = build_complete_hypercube(3)
        comps = connected_components(t, [(0, 1), (0, 2), (0, 4)])
        assert [len(c) for c in comps] == [7, 1]

    def test_path_split(self):
        t = build_rooted_tree(3, 2)  # path 0-1, 0-2
        comps = connected_components(t, [(0, 1)])
        assert [len(c) for c in comps] == [2, 1]

    def test_numpy_indices_match_list(self):
        t = build_complete_hypercube(3)
        mask = np.zeros(t.n_links, dtype=bool)
        mask[[0, 1, 2]] = True
        assert connected_components(t, np.flatnonzero(mask)) == connected_components(t, [0, 1, 2])

    def test_numpy_index_out_of_range(self):
        with pytest.raises(SpecError):
            connected_components(build_complete_hypercube(3), np.array([12]))

    @settings(max_examples=25, deadline=None)
    @given(fail=st.sets(st.integers(0, 11), max_size=12))
    def test_partition_property(self, fail):
        t = build_complete_hypercube(3)
        comps = connected_components(t, fail)
        flat = sorted(x for c in comps for x in c)
        assert flat == list(range(8))


class TestSerialization:
    @pytest.mark.parametrize(
        "topo",
        [
            build_complete_hypercube(3),
            build_recursive(RecursionSpec.semi((3, 2))),
            build_ring_lattice(8, 4),
        ],
    )
    def test_round_trip(self, topo):
        text = topo.to_json()
        again = Topology.from_json(text)
        assert again.to_json() == text
        assert again.n_nodes == topo.n_nodes
        assert {lk.key() for lk in again.links} == {lk.key() for lk in topo.links}

    def test_version_check(self):
        doc = build_star(4).to_dict()
        doc["version"] = 99
        with pytest.raises(SpecError):
            Topology.from_dict(doc)


def test_node_id_requires_levels():
    with pytest.raises(SpecError):
        NodeId((), 0)
