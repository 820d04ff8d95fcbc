import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenet import (
    DomainGraph,
    LinkClass,
    RecursionSpec,
    Topology,
    build_complete_hypercube,
    build_incomplete_hypercube,
    build_recursive,
    build_ring_lattice,
    build_rooted_tree,
    build_star,
    closed_form_link_count,
)
from cubenet import cli, topology
from cubenet.errors import ConstructionError, ResourceLimitError, SpecError
from cubenet.topology import _component_roots, _gray_hypercube_edges
from custom_graph import custom_topology


def _pairs(t: Topology) -> set[tuple[int, int]]:
    """Every link of t as its (smaller, larger) end pair."""
    return set(map(tuple, np.sort(t.ends, axis=1).tolist()))


class TestLinkClass:
    def test_standard_rates(self):
        c = LinkClass.standard(5000)
        assert c.mtbf_h == 2190 and c.mttr_h == 24
        assert abs(c.lam * c.mtbf_h - 1) < 1e-12
        assert abs(c.mu * c.mttr_h - 1) < 1e-12

    def test_rejects_mttr_above_mtbf(self):
        with pytest.raises(SpecError):
            LinkClass(100, mtbf_h=10, mttr_h=20)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(SpecError):
            LinkClass(100, mtbf_h=2000, mttr_h=0.5)  # mu > 1

    @pytest.mark.parametrize("mtbf, mttr, message", [
        (0.0, 1.0, "MTBF and MTTR must be positive"),
        (-5.0, 1.0, "MTBF and MTTR must be positive"),
        (1.0, 1.0, r"1/MTBF must be a valid per-hour probability in \(0,1\)"),
    ], ids=["zero-mtbf", "negative-mtbf", "unit-mtbf"])
    def test_rejects_rates(self, mtbf, mttr, message):
        with pytest.raises(SpecError, match=message):
            LinkClass(100, mtbf_h=mtbf, mttr_h=mttr)

    def test_standard_unknown_distance(self):
        with pytest.raises(SpecError, match="no standard link indicators for 123 km"):
            LinkClass.standard(123)

    @pytest.mark.parametrize("field", ["distance_km", "mtbf_h", "mttr_h"])
    @pytest.mark.parametrize("value", [None, "5", True, float("nan"), float("inf")])
    def test_rejects_non_numbers(self, field, value):
        """A document's class fields reach LinkClass as parsed JSON."""
        fields = {"distance_km": 100.0, "mtbf_h": 20.0, "mttr_h": 2.0, field: value}
        with pytest.raises(SpecError, match=f"{field} must be a finite number"):
            LinkClass(**fields)


class TestCompleteHypercube:
    @pytest.mark.parametrize("dim,nodes,links", [(3, 8, 12), (0, 1, 0), (5, 32, 80)])
    def test_sizes(self, dim, nodes, links):
        t = build_complete_hypercube(dim)
        assert (t.n_nodes, t.n_links) == (nodes, links)

    @pytest.mark.parametrize("dim", range(0, 11))
    def test_hamming_property(self, dim):
        t = build_complete_hypercube(dim)
        have = _pairs(t)
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
        assert _pairs(t) == _pairs(full)

    def test_five_removed_links(self):
        removed = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        t = build_incomplete_hypercube(5, removed_links=removed)
        assert (t.n_nodes, t.n_links) == (32, 75)

    def test_dimension_checks(self):
        """Negative dimensions are spec errors, as for the complete cube;
        only dimensions past the guard are resource limits."""
        with pytest.raises(SpecError, match="non-negative"):
            build_incomplete_hypercube(-1)
        with pytest.raises(ResourceLimitError, match="guard"):
            build_incomplete_hypercube(21)

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
        label = ["".join(map(str, row)) for row in t.labels.tolist()]
        indptr, indices = t.csr()
        neighbors_00 = {label[v] for v in indices[indptr[0]:indptr[1]].tolist()}
        assert {"10", "30"} <= neighbors_00

    def test_disconnected_domain_rejected(self):
        spec = RecursionSpec.asymmetric(({(): DomainGraph(3, ((0, 1),))},))
        with pytest.raises(ConstructionError, match="recursive topology is disconnected"):
            build_recursive(spec)

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
        ga = nx.Graph(map(tuple, a.ends.tolist()))
        gb = nx.Graph(map(tuple, b.ends.tolist()))
        assert nx.is_isomorphic(ga, gb)

    def test_domain_number_is_smallest_member(self):
        t = build_recursive(RecursionSpec.symmetric(2, 2))
        for x, (domain, local) in enumerate(t.labels.tolist()):
            if local == 0:  # first node of its domain
                assert x == np.flatnonzero(t.labels[:, 0] == domain).min()

    def test_level_classes(self):
        t = build_recursive(RecursionSpec.symmetric(2, 3))
        assert t.class_census() == {0: 64, 1: 64, 2: 64}
        assert np.bincount(t.level).tolist() == [0, 64, 64, 64]

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

    @pytest.mark.parametrize("n_classes", [0, 1, 3])
    def test_one_class_per_level(self, n_classes):
        classes = (LinkClass.standard(5000),) * n_classes
        with pytest.raises(SpecError, match="expected 2 link classes"):
            RecursionSpec("semi", (3, 2), classes)
        with pytest.raises(SpecError, match="expected 2 link classes"):
            RecursionSpec.semi((3, 2), [5000.0] * n_classes)

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
            assert np.count_nonzero(topo.level == m) == 2 ** (total - 1) * dim


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
        assert t.degrees()[0] == n - 1


def _two_domains(r):
    """An asymmetric level with explicit domains below prefixes 0..r-1."""
    return {(a,): DomainGraph(2, ((0, 1),)) for a in range(r)}


class TestRejects:
    """The specs, documents and builder arguments each check refuses."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: DomainGraph(0, ()), SpecError, "domain must contain at least one node"),
        (lambda: DomainGraph(3, ((1, 1),)), SpecError, r"bad domain edge \(1,1\) for n=3"),
        (lambda: RecursionSpec("torus", (2,), (LinkClass.standard(5000),)), SpecError,
         "unknown recursion mode 'torus'"),
        (lambda: RecursionSpec("semi", (), ()), SpecError, "needs at least one level"),
        (lambda: RecursionSpec("symmetric", (2, 3), (LinkClass.standard(5000),) * 2), SpecError,
         "completely symmetric mode requires one fixed dimension"),
        (lambda: RecursionSpec("semi", (1, _two_domains(2)), (LinkClass.standard(5000),) * 2),
         SpecError, "semi-symmetric mode requires per-level hypercube dimensions"),
        (lambda: RecursionSpec.asymmetric((1, _two_domains(2))).dims, SpecError,
         "asymmetric spec has no uniform dimension list"),
        (lambda: RecursionSpec.symmetric(2, 4), SpecError,
         r"4 levels need an explicit class assignment \(defaults cover 3\)"),
        (lambda: Topology("empty", np.zeros((0, 1)), np.zeros((0, 2)), np.zeros(0), np.zeros(0), {}),
         ConstructionError, "topology must contain at least one node"),
        (lambda: build_recursive(RecursionSpec.asymmetric((1, _two_domains(1)))), SpecError,
         r"no explicit domain topology for prefix \(1,\)"),
        (lambda: build_rooted_tree(0), SpecError, "need at least one node"),
        (lambda: build_rooted_tree(5, 1), SpecError, "degree must be at least 2"),
        (lambda: build_ring_lattice(4, 4), SpecError, r"ring lattice requires 2 <= degree < n"),
        (lambda: build_star(1), SpecError, "star needs at least 2 nodes"),
    ], ids=["empty-domain", "domain-self-loop", "unknown-mode", "no-levels", "symmetric-two-dims",
            "semi-mapping-level", "asymmetric-dims", "four-default-levels", "no-nodes",
            "missing-prefix", "tree-no-nodes", "tree-degree-1", "ring-degree-n", "star-one-node"])
    def test_raises(self, make, error, message):
        with pytest.raises(error, match=message):
            make()


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


def _roots(t: Topology, failed) -> list[int]:
    """`_component_roots` of t with the link indices `failed` absent."""
    present = np.ones((1, t.n_links), dtype=bool)
    present[0, list(failed)] = False
    return _component_roots(t.ends, t.n_nodes, present).tolist()


class TestComponents:
    def test_intact(self):
        assert _roots(build_complete_hypercube(3), []) == [0] * 8

    def test_isolated_vertex(self):
        t = build_complete_hypercube(3)  # links 0, 1, 2 are node 0's
        assert _roots(t, [0, 1, 2]) == [0] + [1] * 7

    def test_path_split(self):
        t = build_rooted_tree(3, 2)  # path 0-1, 0-2
        assert _roots(t, [0]) == [0, 1, 0]

    @settings(max_examples=25, deadline=None)
    @given(fail=st.sets(st.integers(0, 11), max_size=12))
    def test_partition_property(self, fail):
        """Every node's root is the least node of its component, found by
        relaxing each present link until no label changes."""
        t = build_complete_hypercube(3)
        label = list(range(8))
        changed = True
        while changed:
            changed = False
            for j, (u, v) in enumerate(t.ends.tolist()):
                if j not in fail and label[u] != label[v]:
                    label[u] = label[v] = min(label[u], label[v])
                    changed = True
        assert _roots(t, fail) == label


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
        assert _pairs(again) == _pairs(topo)

    def test_version_check(self):
        doc = build_star(4).to_dict()
        doc["version"] = 99
        with pytest.raises(SpecError):
            Topology.from_dict(doc)


def test_class_ids_are_table_keys():
    """A class's id is its key in the class table, in any order and with
    gaps: the document keeps the keys, and reading it back gives the
    same table and bytes."""
    classes = {7: LinkClass.standard(420), 3: LinkClass(5000.0, 2190.0, 24.0)}
    t = custom_topology(3, [(0, 1), (1, 2)], [7, 3], classes)
    text = t.to_json()
    assert [c["class_id"] for c in json.loads(text)["classes"]] == [3, 7]
    back = Topology.from_json(text)
    assert back.classes == classes and back.class_id.tolist() == [7, 3]
    assert back.to_json() == text


def test_node_id_requires_levels():
    """A document whose node labels have no digits, or a row with none, is
    refused."""
    for empty in (range(4), [0]):
        doc = build_star(4).to_dict()
        for x in empty:
            doc["labels"][x] = []
        with pytest.raises(SpecError, match="node labels must be non-empty"):
            Topology.from_dict(doc)


_MESH = DomainGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
_PATH3 = DomainGraph(3, ((0, 1), (1, 2)))
_ASYM_MESH = RecursionSpec.asymmetric((2, {(a,): _MESH for a in range(4)}))
_ASYM_TRIANGLE = RecursionSpec.asymmetric(
    ({(): DomainGraph(3, ((0, 1), (1, 2), (0, 2)))}, {(a,): _PATH3 for a in range(3)}, 1)
)

# name: (builder, sha256 of the document (`to_json()`), sha256 of the [u,
# v, class_id, level] link sequence), the link hash as the per-link
# object builders produced it: trees, ring lattices, the star and cubes
# serialised before; Table 3's twelve graphs; the benchmark's analyze and
# protocols graphs (full and toy size, and the 12-cube probe); every other
# builder, asymmetric included.
SERIALIZATION_PINS = {
    "tree1": (lambda: build_rooted_tree(1, 3),
        "f80d324772d82ab67be95cf938d595b7a8faf1786b4912c57f35a0ef4e42e795",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "tree64-6": (lambda: build_rooted_tree(64, 6),
        "b6d07e88b132c2a6cff09d2cee4dbeb4ff0b75b32d3055880b6a8e488860cc7e",
        "337986bb23ef1c717932bc6627ce40cb690b2dc41446e2c455e3c535f4707566"),
    "tree4096-12": (lambda: build_rooted_tree(4096, 12),
        "6532a3718d296321b90920081f5a88e741f8448cfdaf6674fa2e2dda10453e2d",
        "43b61c15561201e2e07b6463efb44b51bf1ba167982a505484aa7761141144db"),
    "tree40-3": (lambda: build_rooted_tree(40, 3),
        "65583f188b275a473019ad8ee3e64560082bb9201e50db50b26996a6db9b4143",
        "705faa07c43a2aacc533ea151735a049d9173d7d31bfc98883a85996dacc405e"),
    "tree10-2": (lambda: build_rooted_tree(10, 2),
        "b49aea040dd54dbcb165a770291f4e77d34ec103914038fc498327b106fd94e5",
        "8ce4f25817541e6cf5ce6f1fb77e663a1bba5d608016452b9af5404a8d91112f"),
    "ring5-4": (lambda: build_ring_lattice(5, 4),
        "00153aa39f2b246b54cd499885834d26b073e595ac829f07a9faea5a996bbfeb",
        "397f4eb852cdd974c96345a0544cd0d59533ecdc52ed273f8a93fb06d201d6e4"),
    "ring5-2": (lambda: build_ring_lattice(5, 2),
        "91fc20af02470b13f9734d78f7f316509e0ce1f3620dee40392eee0ec2ca3d3f",
        "dad019f724f95ed0b5b561aea2c0a171ef9ba609aae6be64997a44d4ae0c484f"),
    "ring64-6": (lambda: build_ring_lattice(64, 6),
        "d8eebe960f3619bff1fd0a5db3f8ca142cf59c455cd3503f09ee53f2320677b0",
        "cb282e6ff523e3ca26ae5afc2321af79d83fa131e35f4790b984610c3c4a4d06"),
    "ring768-4": (lambda: build_ring_lattice(768, 4),
        "ab0e04db931ead7c394f571e2a3042924840a7c0b6750d23c6059baffba56e1c",
        "387f47f56f948959774a7405b250f455fe2213adbfc306ad8687281acc017275"),
    "ring4096-12": (lambda: build_ring_lattice(4096, 12),
        "e90144ed25038f8f410e13f8243cfbfb0148ef688ff2f37cfc3627a83b56f5be",
        "fb0e9774e8f5925fd70fb40b22c568324685c23d6ac0a14fa54a6a349912b075"),
    "ring7-6": (lambda: build_ring_lattice(7, 6),
        "f5f317b9a2663ca5bfff495c6d75ca9f5c44d9389e19aa1aceca3350d08ccddb",
        "621c69265c653af25d23b362386df0eca6ea304ce899f1dae6a31bd13a0979e4"),
    "ring8-2-420": (lambda: dataclasses.replace(build_ring_lattice(8, 2),
                                                classes={0: LinkClass.standard(420.0)}),
        "76c38fb98462fc4bccfa930cb4b183792665c55f7b4baa6ab0d1bf92cacac8d4",
        "de2b546090a490a5778e462d18a941e5fe7dc88bcfc501e6adf4cfdf45d9fbbd"),
    "ring64-2": (lambda: build_ring_lattice(64, 2),
        "1398ec12951f95f8ffa6079b566215e4d25e84ebdbb65da3ec3eda981bfbe219",
        "f7d66400361fa88b4678b44039eeebca5039dce9439d22272ad00e31c6ff52f1"),
    "ring48-4": (lambda: build_ring_lattice(48, 4),
        "efa59fa606307627e640732a91d6d6f626286f2e99952dc88897046eb9517ab0",
        "1e7bf5424d9bc94276bb42bed478e2de7eb2ada4d6b8aa492667b719c9472ac8"),
    "ring16-2": (lambda: build_ring_lattice(16, 2),
        "2024abc59a1ce55484441ea8d15e617e2484a50ff05b6f3884f37d7835a58b92",
        "fbfa430dd8f716c408f322cc56116738791740a94c7b2a067147ad3c62986a1c"),
    "star9": (lambda: build_star(9),
        "c132717ef311e5392cbc77ac98b16a7f29a69bb3d96913258a8f1c53960bf487",
        "4bc7b4520d95fd74065e8498b29fc8982c7d73df768e2d7ecad1843537867464"),
    "cube0": (lambda: build_complete_hypercube(0),
        "9f18b3a92bdcb859ea9d3521110c168907b280d7fd49fcbc947ca644099ea356",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "cube6": (lambda: build_complete_hypercube(6),
        "162a635fdb6fa8d180bf3e2793d8cdc7baec533d3eb17ca03def0ff570485bbd",
        "76da44276192b0dd75e4677164b994363c515193a663524a4dcf7c239a60fb44"),
    "cube12": (lambda: build_complete_hypercube(12),
        "2f0239c36090a64f5b15d1a692a2233d2634d858632152263ffcdb2c0dcb1fc3",
        "227ea999dc1b6489b1dc38a3312cb6bab13b7723a3a7a0577e5c2e6b32fe0919"),
    "incomplete4-15": (lambda: build_incomplete_hypercube(4, present_nodes=set(range(15))),
        "982f781f7d37ca8b0630c6cd3fd9857041df5ee81709bb8549e9363e88c04ef9",
        "e8c873308f9a7721f1c1f1c565a7ba9af6f07a32755b21dff265a2a9eedabf46"),
    "incomplete5-rm": (lambda: build_incomplete_hypercube(5, removed_links=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
        "a1b34b54264a0597516582ac21402fea5bfbb66cf283bd02cae6a72904c2984f",
        "932c80b6e0ccf53511fefcc2aeab14f82228c37b8eb0ee2a1652aa84936379e4"),
    "incomplete4-mix": (lambda: build_incomplete_hypercube(4, present_nodes=[0, 1, 2, 3, 5, 6, 7, 9, 11, 13, 15], removed_links=[(1, 3)]),
        "610a4fb6bf4c15154f24883cf3b5684d7eeaa8f61920de7cea39511f66bc765e",
        "2eddc64dcd6b1e1681a42ee35f0a792b1cf76d9b03d1450d8896c2073b321b1f"),
    "rec6": (lambda: build_recursive(RecursionSpec.symmetric(6, 1)),
        "1e08017044a4f86e9f94aa3c90497d5b0b2449ee186368c970ae105245150080",
        "cb13845e36348bfad65f11eb12c415bb6da6bd0e317afc93d9849512ea81c070"),
    "rec3-3": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)),
        "4fbd630ff688d919dd9fe8be70c6fbb20876451845a36f2e958fd7d2bdc90173",
        "c7d140148dc4e9088560f2c36ffda45f69e305415691c3da93f956ab9838893c"),
    "rec2-2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
        "9bf286e57b79f8f5c1c701caef50bead2fb2c12a7462df510065f9832ce9a273",
        "d9d730955d914f0eed4639d26cb5591d763878db6bfd2a5d523a175825b99e01"),
    "rec4-2": (lambda: build_recursive(RecursionSpec.semi((4, 2))),
        "e77f83bcc93607d9c32c3130023851dbb29395452a9c6d80ecd494cfb3b07776",
        "847fdff8702a02080adc192c38e26b9dcc5c264655bff23548341ce70c94763f"),
    "rec12": (lambda: build_recursive(RecursionSpec.symmetric(12, 1)),
        "78dce29a5d7e2a57f3db2a43e5cf2eb250a0d6d2e20020c5cfd658336052014f",
        "84123f14c200eedaa70069eb43f76e980bb1599605297367856f6bb8c4c4be75"),
    "rec6-6": (lambda: build_recursive(RecursionSpec.symmetric(6, 2)),
        "d4e559b5413ae610adfe2389bb0042202c36b5ca87c981096d2952dd6f369567",
        "d2376cbc22b400d6cc6d2b1dd9e297a875f822fce7adc6ec2956e413ac6bd0a9"),
    "rec4-4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 3)),
        "33dce3e43a28be91cd98ddc9578d1bd101cd093bb3f4670882556bb034b7eb45",
        "6eb6e419532bac9d64265a14632801ddfd9e9dd2818f80628a30d1104629d9b6"),
    "rec5-4-3": (lambda: build_recursive(RecursionSpec.semi((5, 4, 3))),
        "8ae0f0488e67a2d24870ff4777923e38367e0cba0bbfcf296bd7d0336c15b2a5",
        "d725b1337fed89263345da888037703960b1f96d0752bc7917847a6f705d5467"),
    "rec4-4": (lambda: build_recursive(RecursionSpec.symmetric(4, 2)),
        "7f0f2b28835ad2a7838066282a885b6ad5095c04f9c50c901e77abe7b09ae580",
        "e7cfa18327eebcf786849748b048f4be56546f453a842e8d0c28b303d643543c"),
    "rec2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 2)),
        "3d38e99ccecb05287a74e0085d2ed5b250f2f949376b7b7d4497fab414bf44da",
        "18d56c1b19d334af897eaa6439857829aeb38c272b11d30b765cbd3f75657579"),
    "rec1-3-2": (lambda: build_recursive(RecursionSpec.semi((1, 3, 2))),
        "545a03eff93ed43e0762729652ef89eee4ae3247b1313d60d907854cd3f203e7",
        "20a36b1ad86adb774c23fe2cec580da7c5b21c486854c6be22d6e2f65d14432e"),
    "rec3-1-2": (lambda: build_recursive(RecursionSpec.semi((3, 1, 2))),
        "8a54370bfe1f7da1c7f63a133c6efe2e2be42e44eb804a53a963f0a7368ea941",
        "547fff2325369a660bdfe888a262d072945443f634636da2360e4982dc6bfde2"),
    "asym-mesh": (lambda: build_recursive(_ASYM_MESH),
        "d0a76640763243fdd2862c39bd77de8330da416089449091af630dfe78a0ccfe",
        "0cabc59a72d837318cc761df23582aa6a5ff124588039ae4076492785d9700ff"),
    "asym-tri": (lambda: build_recursive(_ASYM_TRIANGLE),
        "fb01358dcc9db731841bcb8da8a708a897a3fb04cb15b5eb50ce9ee139ebd49c",
        "31a916b55fbde0a399526f4245f30ce57989f8e983bbaf55851f6de0b9663d72"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_same_topology(got: Topology, want: Topology) -> None:
    assert got.kind == want.kind
    for name in ("labels", "ends", "class_id", "level"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert got.classes == want.classes
    assert got.meta == json.loads(json.dumps(want.meta))  # JSON has lists, not tuples


class TestSerializationPins:
    @pytest.mark.parametrize("name", list(SERIALIZATION_PINS))
    def test_bytes_and_link_order(self, name):
        """The document's bytes are pinned, and it reads back to the
        builder's arrays and bytes."""
        build, doc_sha, links_sha = SERIALIZATION_PINS[name]
        t = build()
        rows = np.column_stack((t.ends, t.class_id, t.level)).tolist()
        assert _sha256(json.dumps(rows, separators=(",", ":"))) == links_sha
        text = t.to_json()
        assert _sha256(text) == doc_sha
        back = Topology.from_json(text)
        _assert_same_topology(back, t)
        assert back.to_json() == text


# name: (builder of the topology, CLI arguments after --topology, sha256
# of the CSV).  The gossip pin is the one binomial draw per cycle; the
# consensus pins are as the one-BFS-per-leader loop wrote them.  The 3-3
# runs reuse leader 0's tree for every leader; the ring lattice grows one
# tree per leader.
OUTPUT_PINS = {
    "gossip-2-2-2": (lambda: build_recursive(RecursionSpec.symmetric(2, 3)),
                     ["gossip", "run", "--delay", "0.5", "--seed", "1"],
                     "35842eab6deebc3237c05042af25238ead6a4fcc0f577282735061e3b1e08d62"),
    "consensus-3-3-random": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)),
                             ["consensus", "run", "--leader-policy", "random", "--seed", "1"],
                             "a849df6be9766810fee6df50a2f077e6a550839ed45a2857b5a49f1a140aea6d"),
    "consensus-3-3-rotate": (lambda: build_recursive(RecursionSpec.symmetric(3, 2)),
                             ["consensus", "run", "--leader-policy", "rotate:3", "--seed", "1"],
                             "417b71777cf4d284260131d13c365f96b602ad06f4f090a5b0dc20da35a2a387"),
    "consensus-ring64-6-random": (lambda: build_ring_lattice(64, 6),
                                  ["consensus", "run", "--leader-policy", "random", "--seed", "1"],
                                  "157b9892f636a4dcb80681589487b04e61c783722ec0dc495222002cfb634636"),
    "consensus-ring64-6-rotate": (lambda: build_ring_lattice(64, 6),
                                  ["consensus", "run", "--leader-policy", "rotate:3", "--seed", "1"],
                                  "f3955993aeb53a8b9b6c9b606ac170efdb5d6e5ba5a7d31e2000e18a0645980c"),
    # 16 leaders per batch at the default LEADER_SLOTS: the run spans about 13 batches
    "consensus-tree4096-12-random": (lambda: build_rooted_tree(4096, 12),
                                     ["consensus", "run", "--leader-policy", "random", "--seed", "1"],
                                     "ef612de05c55e5d462376fe08800fe8698f051f5f5ef2436bf4ea2de29ee69e9"),
}


class TestOutputPins:
    @pytest.mark.parametrize("name", list(OUTPUT_PINS))
    def test_csv_bytes(self, tmp_path, name):
        build, argv, csv_sha = OUTPUT_PINS[name]
        topo = tmp_path / "topology.json"
        topo.write_text(build().to_json())
        out = tmp_path / "out.csv"
        assert cli.main([*argv[:2], "--topology", str(topo), *argv[2:], "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


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


class TestFlatSizeGuard:
    """Trees, ring lattices and stars check their node and link counts
    against the recursive builder's guards before they allocate.  The
    refused sizes allocate little even unguarded: just over the node
    guard, or a ring over the link guard of a guard lowered to 64 nodes
    (640 links)."""

    @pytest.mark.parametrize(
        "build",
        [lambda: build_rooted_tree(2**20 + 1), lambda: build_ring_lattice(2**20 + 1, 2),
         lambda: build_star(2**20 + 1)],
        ids=["tree", "ring", "star"],
    )
    def test_too_many_nodes(self, build):
        with pytest.raises(ResourceLimitError, match="1048577 nodes"):
            build()

    def test_too_many_links(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_RECURSIVE_NODES", 64)
        assert build_ring_lattice(64, 20).n_links == 640
        for build in (lambda: build_rooted_tree(64), lambda: build_star(64)):
            assert build().n_nodes == 64
        with pytest.raises(ResourceLimitError, match="64 nodes and 704 links"):
            build_ring_lattice(64, 22)


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
        assert [(lk.u, lk.v, lk.class_id, lk.level) for lk in t.links] == \
            [tuple(r) for r in np.column_stack((t.ends, t.class_id, t.level)).tolist()]

    def test_csr_is_sorted_adjacency(self):
        t = build_ring_lattice(9, 4)
        indptr, indices = t.csr()
        for u in range(9):
            want = sorted({(u + s) % 9 for s in (-2, -1, 1, 2)})
            assert indices[indptr[u]:indptr[u + 1]].tolist() == want
        assert t.degrees().tolist() == [4] * 9

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
        with pytest.raises(ConstructionError, match=message):
            custom_topology(4, ends, classes)

    def test_replace_rechecks_classes(self):
        cube = build_complete_hypercube(2)
        with pytest.raises(ConstructionError, match="unknown class 0"):
            dataclasses.replace(cube, classes={})
        other = {0: LinkClass.standard(420)}
        assert dataclasses.replace(cube, classes=other).classes == other

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["labels"][1].append(0), "node labels must be non-empty and all of one"),
            (lambda doc: doc["links"].update(u=[2**40, *doc["links"]["u"][1:]]),
             "number out of range"),
            (lambda doc: doc.update(N=99), "N=99 but the document lists 6 nodes"),
            (lambda doc: doc["classes"].append(dict(doc["classes"][0], mttr_h=2.0)),
             "class ids must be distinct"),
            (lambda doc: doc["links"]["level"].pop(), "link columns must all have one length"),
        ],
        ids=["ragged-labels", "out-of-range", "node-count", "repeated-class", "unequal-columns"],
    )
    def test_from_dict_rejects(self, edit, message):
        doc = build_ring_lattice(6, 2).to_dict()
        edit(doc)
        with pytest.raises(SpecError, match=message):
            Topology.from_dict(doc)

    @pytest.mark.parametrize(
        "field, index, value",
        [("u", 0, None), ("v", 0, "3"), ("u", 1, 1.5), ("v", 2, 3.0), ("class_id", 0, True),
         ("level", 3, False), ("labels", 2, [0.5]), ("labels", 0, [None]), ("labels", 1, ["1"]),
         ("labels", 4, [True]), ("labels", 5, 5)],
        ids=["u-null", "v-string", "u-float", "v-integral-float", "class-bool", "level-bool",
             "label-float", "label-null", "label-string", "label-bool", "label-not-a-row"],
    )
    def test_from_dict_refuses_non_integers(self, field, index, value):
        """JSON null, floats (also integral ones), strings and booleans in a
        link field or a label are refused, not truncated or converted."""
        doc = build_ring_lattice(6, 2).to_dict()
        (doc["labels"] if field == "labels" else doc["links"][field])[index] = value
        with pytest.raises(SpecError, match="must (hold integers|be lists of integers)"):
            Topology.from_dict(doc)

    @pytest.mark.parametrize("value", [1.0, True, "1"])
    def test_from_dict_refuses_non_integer_class_id(self, value):
        """Each of these keys would pass for class 1 (`1.0 == True == 1`)
        or fail later with a less direct message."""
        t = custom_topology(3, [(0, 1), (1, 2)], [1, 1], {1: LinkClass.standard(5000)})
        doc = t.to_dict()
        doc["classes"][0]["class_id"] = value
        with pytest.raises(SpecError, match="class ids must hold integers"):
            Topology.from_dict(doc)

    def test_document_without_links(self):
        t = custom_topology(3, [])
        back = Topology.from_dict(json.loads(t.to_json()))
        _assert_same_topology(back, t)
        assert back.ends.shape == (0, 2)
