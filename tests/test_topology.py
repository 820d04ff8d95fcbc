import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenet import (
    DomainGraph,
    Link,
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
from cubenet import topology
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

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"removed_links": [(0, 3)]}, "removed_links must be hypercube edges"),
            ({"removed_links": [(5, 5)]}, "removed_links must be hypercube edges"),
            ({"removed_links": [(16, 0)]}, "removed_links must be hypercube edges"),
            ({"removed_links": [(-1, 0)]}, "removed_links must be hypercube edges"),
            ({"present_nodes": [0, 1, 16]}, "present_nodes must be hypercube node ids"),
            ({"present_nodes": [-1, 0]}, "present_nodes must be hypercube node ids"),
            ({"present_nodes": []}, "present_nodes must not be empty"),
        ],
        ids=["non-edge", "self-pair", "out-of-range-pair", "negative-pair",
             "out-of-range-node", "negative-node", "no-nodes"],
    )
    def test_rejects_non_hypercube_items(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            build_incomplete_hypercube(4, **kwargs)

    def test_duplicate_present_nodes(self):
        t = build_incomplete_hypercube(3, present_nodes=[3, 1, 0, 1, 2, 3])
        assert t.labels.ravel().tolist() == [0, 1, 2, 3]
        assert (t.n_nodes, t.n_links) == (4, 4)


class TestRecursive:
    def test_two_level_cyclic_numbering(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        assert (t.n_nodes, t.n_links) == (16, 32)
        label = {nd.flat: nd.label() for nd in t.nodes}
        indptr, indices = t.csr()
        neighbors_00 = {label[v] for v in indices[indptr[0]:indptr[1]].tolist()}
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
        assert _gray_hypercube_edges(dim).tolist() == [list(e) for e in oracle]

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RecursionSpec.semi((-1, 2)),
            lambda: RecursionSpec.semi((2, -3)),
            lambda: RecursionSpec.symmetric(-1, 2),
            lambda: RecursionSpec.asymmetric((2, -1)),
            lambda: RecursionSpec.asymmetric(({(): DomainGraph(2, ((0, 1),))}, -2)),
        ],
        ids=["semi-first", "semi-last", "symmetric", "asymmetric", "asymmetric-after-explicit"],
    )
    def test_negative_dimension_rejected(self, make):
        with pytest.raises(SpecError, match="non-negative"):
            make()

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

    def test_zero_dimension_is_one_node(self):
        n, links = closed_form_link_count(RecursionSpec.symmetric(0, 1))
        assert (n, links) == (1, 0)
        assert type(n) is int and type(links) is int

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


_MESH = DomainGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
_PATH3 = DomainGraph(3, ((0, 1), (1, 2)))
_ASYM_MESH = RecursionSpec.asymmetric((2, {(a,): _MESH for a in range(4)}))
_ASYM_TRIANGLE = RecursionSpec.asymmetric(
    ({(): DomainGraph(3, ((0, 1), (1, 2), (0, 2)))}, {(a,): _PATH3 for a in range(3)}, 1)
)

# name: (builder, sha256 of to_json(), sha256 of the [u, v, class_id, level]
# link sequence), as the per-link object builders produced them: trees,
# ring lattices, the star and cubes serialised before; Table 3's twelve
# graphs; the benchmark's analyze and protocols graphs (full and toy
# size, and the 12-cube probe); every other builder, asymmetric included.
SERIALIZATION_PINS = {
    "tree1": (lambda: build_rooted_tree(1, 3),
        "e58dd9b13f8b81d72bda77ab175470c0776f183b2fb9bcf7adea15de2e29e548",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "tree64-6": (lambda: build_rooted_tree(64, 6),
        "6f1da2663930deaaf17b0e7c73ea73c5be25be84d659426bd59f67cbb97869fc",
        "337986bb23ef1c717932bc6627ce40cb690b2dc41446e2c455e3c535f4707566"),
    "tree4096-12": (lambda: build_rooted_tree(4096, 12),
        "1b8b729c536afda713eeaa02ac9ba40f5c5429f37906ccf0d9910b0a88852d4a",
        "43b61c15561201e2e07b6463efb44b51bf1ba167982a505484aa7761141144db"),
    "tree40-3": (lambda: build_rooted_tree(40, 3),
        "9efc52051ed09f35e2750c8c2c558f42fb232ed8a7f60f9353b327c13d4027fc",
        "705faa07c43a2aacc533ea151735a049d9173d7d31bfc98883a85996dacc405e"),
    "tree10-2": (lambda: build_rooted_tree(10, 2),
        "7d34b84fc5b7291762ce040d62cc9d97edff942241b500660ba9ed0a76286d11",
        "8ce4f25817541e6cf5ce6f1fb77e663a1bba5d608016452b9af5404a8d91112f"),
    "ring5-4": (lambda: build_ring_lattice(5, 4),
        "cf56c3a908c48908f3d52a1ccd98b020642e2bb3e2d4058ee42556054f975af0",
        "397f4eb852cdd974c96345a0544cd0d59533ecdc52ed273f8a93fb06d201d6e4"),
    "ring5-2": (lambda: build_ring_lattice(5, 2),
        "ee6f3af5bd0f8372e8900ddffb73af288d57407217796c22fca2358626cfe94a",
        "dad019f724f95ed0b5b561aea2c0a171ef9ba609aae6be64997a44d4ae0c484f"),
    "ring64-6": (lambda: build_ring_lattice(64, 6),
        "23b89914f835a7bc7a906f3bfb1d91eb6d4f9e0f8fa3155f0d226977d6736d10",
        "cb282e6ff523e3ca26ae5afc2321af79d83fa131e35f4790b984610c3c4a4d06"),
    "ring768-4": (lambda: build_ring_lattice(768, 4),
        "be605f58d3a94e5d5296fe3c3eabda50c058c42f259e78b6c05fb9006d4ca231",
        "387f47f56f948959774a7405b250f455fe2213adbfc306ad8687281acc017275"),
    "ring4096-12": (lambda: build_ring_lattice(4096, 12),
        "7fef3fb4a56e8ebe89247242e59042e5dcbaf9170033fc7f4fb82d923e8d4c00",
        "fb0e9774e8f5925fd70fb40b22c568324685c23d6ac0a14fa54a6a349912b075"),
    "ring7-6": (lambda: build_ring_lattice(7, 6),
        "cd8c7cadb4134aabcee635791796e55e8d8a657a8c0e5eea3d94b474d2d712ca",
        "621c69265c653af25d23b362386df0eca6ea304ce899f1dae6a31bd13a0979e4"),
    "ring8-2-420": (lambda: build_ring_lattice(8, 2, distance_km=420.0),
        "327e70fba483c045228a9a7ea8985b370c14f17dc4aad5e03a6383cae082254d",
        "de2b546090a490a5778e462d18a941e5fe7dc88bcfc501e6adf4cfdf45d9fbbd"),
    "ring64-2": (lambda: build_ring_lattice(64, 2),
        "8390e6e4c7fa4d643745875cf0d7daee3e14864409fc2a2507ffc9246628fee7",
        "f7d66400361fa88b4678b44039eeebca5039dce9439d22272ad00e31c6ff52f1"),
    "ring48-4": (lambda: build_ring_lattice(48, 4),
        "138ef6d7b316939538cbf4a8ba59ef580fb5a731bbffcf488177650aa2233405",
        "1e7bf5424d9bc94276bb42bed478e2de7eb2ada4d6b8aa492667b719c9472ac8"),
    "ring16-2": (lambda: build_ring_lattice(16, 2),
        "9670117bb8f90dad5e8a684ee491c93a581af5141dcc9151e9170b040c577891",
        "fbfa430dd8f716c408f322cc56116738791740a94c7b2a067147ad3c62986a1c"),
    "star9": (lambda: build_star(9),
        "95fca16f0bb809f2f563f62d55af88f2e10d93969384119fdbb656983f168769",
        "4bc7b4520d95fd74065e8498b29fc8982c7d73df768e2d7ecad1843537867464"),
    "cube0": (lambda: build_complete_hypercube(0),
        "e85a3b7be9949c94a952ad55d6c8089d6c42e0351ae5e201e7372b62b17bd21e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cube6": (lambda: build_complete_hypercube(6),
        "d243ccf76e9d847de4844b888eae9be4ec2df7be453966bde05334101c489f0d",
        "76da44276192b0dd75e4677164b994363c515193a663524a4dcf7c239a60fb44"),
    "cube12": (lambda: build_complete_hypercube(12),
        "67e5e6134fdbca6469fea7c96d0558885b75c3a7018c734d7aa8d3b5c1830ba9",
        "227ea999dc1b6489b1dc38a3312cb6bab13b7723a3a7a0577e5c2e6b32fe0919"),
    "incomplete4-15": (lambda: build_incomplete_hypercube(4, present_nodes=set(range(15))),
        "a0d7764eee0d697659a9912ff8a0d034afcfc6d5f7515efd6e9d53ef9128b8a0",
        "e8c873308f9a7721f1c1f1c565a7ba9af6f07a32755b21dff265a2a9eedabf46"),
    "incomplete5-rm": (lambda: build_incomplete_hypercube(5, removed_links=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
        "d7137584b80f4bb7712b772875da44223d9a6d25fe39b13d9f250c6af657edb7",
        "932c80b6e0ccf53511fefcc2aeab14f82228c37b8eb0ee2a1652aa84936379e4"),
    "incomplete4-mix": (lambda: build_incomplete_hypercube(4, present_nodes=[0, 1, 2, 3, 5, 6, 7, 9, 11, 13, 15], removed_links=[(1, 3)]),
        "6cbfee02cf3c1baf3719e07a4da1a82e0b07adf3d0bc56313123f2d43f38b9be",
        "2eddc64dcd6b1e1681a42ee35f0a792b1cf76d9b03d1450d8896c2073b321b1f"),
    "rec6": (lambda: build_recursive(RecursionSpec.symmetric(6, 1)),
        "f9c8124ab841a42b66651ac4b59d7d1815ee8fa7067dc1e17f016ee6e35e79b8",
        "cb13845e36348bfad65f11eb12c415bb6da6bd0e317afc93d9849512ea81c070"),
    "rec3-3": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)),
        "189ed1c0b76d639658870f08ed0391d9ab87ce2c137d2f20bf8173a59dff9b72",
        "c7d140148dc4e9088560f2c36ffda45f69e305415691c3da93f956ab9838893c"),
    "rec2-2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
        "88e8169f756755dab967ab6b810c60b84f4dba6f2e82e83e8602e96a9140f32e",
        "d9d730955d914f0eed4639d26cb5591d763878db6bfd2a5d523a175825b99e01"),
    "rec4-2": (lambda: build_recursive(RecursionSpec.semi((4, 2))),
        "33467f858a58147bee5b91dc9962518338c707acc6dbb0c03c9952679e252207",
        "847fdff8702a02080adc192c38e26b9dcc5c264655bff23548341ce70c94763f"),
    "rec12": (lambda: build_recursive(RecursionSpec.symmetric(12, 1)),
        "7bb1d685b5a350f8711ed612830c1c2a9d81f9c18b99562b310e80e641401ba5",
        "84123f14c200eedaa70069eb43f76e980bb1599605297367856f6bb8c4c4be75"),
    "rec6-6": (lambda: build_recursive(RecursionSpec.symmetric(6, 2)),
        "31c4bb1cb0a28769d435146c6eceb7b0f822cdd1083811340f2305e1be1098d7",
        "d2376cbc22b400d6cc6d2b1dd9e297a875f822fce7adc6ec2956e413ac6bd0a9"),
    "rec4-4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 3)),
        "149ee9d385842ccfdd009717dc439411beb5049c981c813a0de9b2c73a20a932",
        "6eb6e419532bac9d64265a14632801ddfd9e9dd2818f80628a30d1104629d9b6"),
    "rec5-4-3": (lambda: build_recursive(RecursionSpec.semi((5, 4, 3))),
        "079d921ef662584876f8c8499c374a9f052cad7b448581ce584632664f549bc4",
        "d725b1337fed89263345da888037703960b1f96d0752bc7917847a6f705d5467"),
    "rec4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 2)),
        "6a2f52405e51b1643d5a580d1ec40b8636c168ae03b944e3eeb2e2e9ee94a85f",
        "e7cfa18327eebcf786849748b048f4be56546f453a842e8d0c28b303d643543c"),
    "rec2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 2)),
        "d49048e61c6847f6585bbfa14db0fce4009937f667a3a0c5e5fd1c6d02d5043a",
        "18d56c1b19d334af897eaa6439857829aeb38c272b11d30b765cbd3f75657579"),
    "rec1-3-2": (lambda: build_recursive(RecursionSpec.semi((1, 3, 2))),
        "702d2d44cb867f5e1dc34c97558985135d82527a96f5144a4459088ee501c18e",
        "20a36b1ad86adb774c23fe2cec580da7c5b21c486854c6be22d6e2f65d14432e"),
    "rec3-1-2": (lambda: build_recursive(RecursionSpec.semi((3, 1, 2))),
        "ee68eb0c2683a693b417d54052bc4eb295eeb0c9329bac664d2fb6185c5d3f32",
        "547fff2325369a660bdfe888a262d072945443f634636da2360e4982dc6bfde2"),
    "asym-mesh": (lambda: build_recursive(_ASYM_MESH),
        "4c924486c69b1726fb869f19de876c60749ace77ba8bfe02daf07355893a6e48",
        "0cabc59a72d837318cc761df23582aa6a5ff124588039ae4076492785d9700ff"),
    "asym-tri": (lambda: build_recursive(_ASYM_TRIANGLE),
        "d5d4eeeaad5d9966e56ee75ed6b90069f59b52b45fda033acf108901ffbc1911",
        "31a916b55fbde0a399526f4245f30ce57989f8e983bbaf55851f6de0b9663d72"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestSerializationPins:
    @pytest.mark.parametrize("name", list(SERIALIZATION_PINS))
    def test_bytes_and_link_order(self, name):
        build, json_sha, links_sha = SERIALIZATION_PINS[name]
        t = build()
        rows = [[lk.u, lk.v, lk.class_id, lk.level] for lk in t.links]
        assert _sha256(json.dumps(rows, separators=(",", ":"))) == links_sha
        text = t.to_json()
        assert _sha256(text) == json_sha
        assert Topology.from_json(text).to_json() == text


class TestSizeGuard:
    """Specs over MAX_RECURSIVE_NODES are refused from their counts, before
    any label or link is generated; no oversized build is run."""

    @pytest.fixture
    def no_expansion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("edges or labels generated")

        for name in ("_gray_hypercube_edges", "_build_below"):
            monkeypatch.setattr(topology, name, refuse)

    @pytest.mark.parametrize(
        "spec",
        [
            RecursionSpec.semi((7, 7, 7)),
            RecursionSpec.symmetric(21, 1),
            RecursionSpec.asymmetric(({(): DomainGraph(2**20 + 1, ())},)),
            RecursionSpec.asymmetric((11, {(a,): DomainGraph(2**10, ()) for a in range(2**11)})),
        ],
        ids=["7-7-7", "21", "one-domain", "11-then-explicit"],
    )
    def test_too_many_nodes(self, no_expansion, spec):
        with pytest.raises(ResourceLimitError, match="nodes"):
            build_recursive(spec)

    def test_too_many_links(self, no_expansion):
        """K_100 over 13-cubes: 819200 nodes, within the node guard, but
        4950 * 8192 + 100 * 53248 links, over the link count of 2^20 nodes
        of degree 20."""
        k100 = DomainGraph(100, tuple(itertools.combinations(range(100), 2)))
        spec = RecursionSpec.asymmetric(({(): k100}, 13))
        with pytest.raises(ResourceLimitError, match="45875200 links"):
            build_recursive(spec)

    def test_asymmetric_count_matches_build(self):
        for spec in (_ASYM_TRIANGLE, _ASYM_MESH):
            t = build_recursive(spec)
            assert topology._count_below(spec, 1, ()) == (t.n_nodes, t.n_links)


def expand_oracle(spec):
    """Labels, link ends and link levels of any spec, by depth-first
    expansion over suffix tuples: the construction read off the paper."""
    def expand(m, prefix):
        """Suffix tuples and links (as suffix pairs + level) below `prefix`."""
        if m > spec.r:
            return [()], []
        dom = topology._domain(spec, m, prefix)
        if isinstance(dom, int):
            n_local, local_edges = 2**dom, _gray_hypercube_edges(dom).tolist()
        else:
            n_local, local_edges = dom.n, dom.edges
        suffixes, links, subs = [], [], {}
        for a in range(n_local):
            sub_suffixes, sub_links = expand(m + 1, prefix + (a,))
            subs[a] = sub_suffixes
            suffixes.extend((a,) + s for s in sub_suffixes)
            links.extend(((a,) + su, (a,) + sv, lvl) for su, sv, lvl in sub_links)
        for a, b in local_edges:
            if set(subs[a]) != set(subs[b]):
                raise ConstructionError(
                    f"cannot interconnect domains {prefix + (a,)} and {prefix + (b,)}: "
                    "unequal local suffix sets"
                )
            links.extend(((a,) + s, (b,) + s, m) for s in subs[a])
        return suffixes, links

    labels, raw_links = expand(1, ())
    flat_of = {lab: i for i, lab in enumerate(labels)}
    rows = [(flat_of[lu], flat_of[lv], lvl) for lu, lv, lvl in raw_links]
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return np.array(labels, dtype=np.int64), rows[:, :2], rows[:, 2]


@st.composite
def connected_domains(draw, n):
    """A connected DomainGraph on n nodes: a random tree plus random chords,
    in random order and orientation."""
    pairs = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    all_pairs = list(itertools.combinations(range(n), 2))
    if all_pairs:
        pairs |= set(draw(st.lists(st.sampled_from(all_pairs), max_size=n)))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in sorted(pairs)]
    return DomainGraph(n, tuple(draw(st.permutations(edges))))


@st.composite
def mixed_specs(draw, mismatch=False):
    """A buildable spec of 1-3 levels, each a hypercube dimension 0-3 or a
    map from every prefix to its own connected DomainGraph of 1-8 nodes (at
    most 512 nodes in all).  With `mismatch`, one explicit domain below a
    level of at least two nodes gets one node more than its peers."""
    r = draw(st.integers(2 if mismatch else 1, 3))
    # sizes[i] >= 0 is a hypercube dimension, -n an explicit level of n nodes
    sizes = [draw(st.one_of(st.integers(0, 3), st.integers(-8, -1))) for _ in range(r)]
    if mismatch:
        m = draw(st.integers(2, r))  # the mismatched level, 1-based
        sizes[m - 1] = draw(st.integers(-7, -1))
        if sizes[m - 2] in (0, -1):  # a one-node parent domain has no edge to check
            sizes[m - 2] = draw(st.sampled_from([1, 2, -2, -3]))
    n_local = [2**d if d >= 0 else -d for d in sizes]
    levels = []
    for i, d in enumerate(sizes):
        if d >= 0:
            levels.append(d)
            continue
        prefixes = list(itertools.product(*(range(n) for n in n_local[:i])))
        levels.append({p: draw(connected_domains(-d)) for p in prefixes})
    if mismatch:
        prefix = draw(st.sampled_from(sorted(levels[m - 1])))
        levels[m - 1][prefix] = draw(connected_domains(n_local[m - 1] + 1))
        # deeper explicit levels need domains below the extra node too
        for j in range(m, r):
            if sizes[j] < 0:
                for rest in itertools.product(*(range(n) for n in n_local[m:j])):
                    levels[j][prefix + (n_local[m - 1],) + rest] = draw(
                        connected_domains(n_local[j]))
    return RecursionSpec.asymmetric(levels)


class TestRecursionOracle:
    """The array walks against the depth-first expansion, on specs that
    mix integer levels with explicit per-prefix domains."""

    @settings(max_examples=60, deadline=None)
    @given(spec=mixed_specs())
    def test_build_and_count_match_expansion(self, spec):
        t = build_recursive(spec)
        labels, ends, level = expand_oracle(spec)
        assert np.array_equal(t.labels, labels)
        assert np.array_equal(t.ends, ends)
        assert np.array_equal(t.level, level)
        assert topology._count_below(spec, 1, ()) == (t.n_nodes, t.n_links)

    @settings(max_examples=30, deadline=None)
    @given(spec=mixed_specs(mismatch=True))
    def test_mismatched_subdomain_rejected(self, spec):
        with pytest.raises(ConstructionError, match="unequal local suffix sets"):
            build_recursive(spec)
        with pytest.raises(ConstructionError, match="unequal local suffix sets"):
            expand_oracle(spec)

    @pytest.mark.parametrize(
        "spec",
        [_ASYM_MESH, _ASYM_TRIANGLE, RecursionSpec.semi((5, 4, 3)), RecursionSpec.semi((0, 2)),
         RecursionSpec.symmetric(2, 3), RecursionSpec.symmetric(6, 1)],
        ids=["asym-mesh", "asym-tri", "5-4-3", "0-2", "2-2-2", "6"],
    )
    def test_fixed_specs_match_expansion(self, spec):
        t = build_recursive(spec)
        for got, want in zip((t.labels, t.ends, t.level), expand_oracle(spec)):
            assert np.array_equal(got, want)


class TestArrays:
    def test_read_only(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        for arr in (t.labels, t.ends, t.class_id, t.level, *t.csr()):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            t.ends[0, 0] = 5

    def test_views_match_arrays(self):
        t = build_recursive(RecursionSpec.semi((2, 1)))
        assert [nd.levels for nd in t.nodes] == [tuple(r) for r in t.labels.tolist()]
        assert [nd.flat for nd in t.nodes] == list(range(t.n_nodes))
        assert [(lk.u, lk.v, lk.class_id, lk.level) for lk in t.links] == \
            [tuple(r) for r in np.column_stack((t.ends, t.class_id, t.level)).tolist()]

    def test_csr_is_sorted_adjacency(self):
        t = build_ring_lattice(9, 4)
        indptr, indices = t.csr()
        for u in range(9):
            want = sorted({(u + s) % 9 for s in (-2, -1, 1, 2)})
            assert indices[indptr[u]:indptr[u + 1]].tolist() == want
        assert t.degrees().tolist() == [4] * 9 and t.degree(3) == 4

    def test_from_links_round_trip(self):
        t = build_recursive(RecursionSpec.semi((3, 2)))
        again = Topology.from_links(t.kind, t.nodes, t.links, t.classes, t.meta)
        assert again.to_json() == t.to_json()

    @pytest.mark.parametrize(
        "ends,classes,message",
        [
            ([(0, 1), (2, 2), (9, 1)], (0, 0, 0), "self-loop at node 2"),
            ([(0, 1), (1, 9), (2, 2)], (0, 0, 0), r"dangling link endpoint \(1,9\)"),
            ([(0, 1), (1, 2), (1, 0)], (0, 0, 0), r"duplicate link \(0, 1\)"),
            ([(0, 1), (1, 2), (1, 0)], (0, 4, 0), "unknown class 4"),
            ([(0, 1), (1, 2), (-1, 3)], (0, 0, 0), r"dangling link endpoint \(-1,3\)"),
        ],
    )
    def test_validate_names_first_bad_link(self, ends, classes, message):
        links = [Link(u, v, c) for (u, v), c in zip(ends, classes)]
        nodes = [NodeId((x,), x) for x in range(4)]
        with pytest.raises(ConstructionError, match=message):
            Topology.from_links("custom", nodes, links, {0: LinkClass.standard(5000)})

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["nodes"].reverse(),
            lambda doc: doc["nodes"][1]["levels"].append(0),
            lambda doc: doc["links"][0].update(u=2**40),
        ],
        ids=["flat-order", "ragged-labels", "out-of-range"],
    )
    def test_from_dict_rejects(self, edit):
        doc = build_ring_lattice(6, 2).to_dict()
        edit(doc)
        with pytest.raises(SpecError):
            Topology.from_dict(doc)
