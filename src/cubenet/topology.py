"""Physical topology builders for consortium P2P networks.

Constructs complete/incomplete hypercubes, hierarchical recursive
topologies (recursion + interconnection), and the comparison baselines
(regular rooted tree, ring lattice, star).  Every builder returns a
connected, labeled `Topology` whose links carry a distance class.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

from .errors import ConstructionError, ResourceLimitError, SpecError
from .unionfind import UnionFind

SERIALIZATION_VERSION = 1

# Digital optical cable indicators per distance: (MTBF hours, MTTR hours).
STANDARD_LINK_SPECS: dict[float, tuple[float, float]] = {
    5000.0: (2190.0, 24.0),
    3000.0: (3650.0, 14.4),
    420.0: (26070.0, 2.016),
}

# Recursion level 1 (outermost links) gets the longest class by default.
DEFAULT_LEVEL_DISTANCES = (5000.0, 3000.0, 420.0)

MAX_HYPERCUBE_DIM = 20
MAX_RECURSIVE_NODES = 2**20


@dataclass(frozen=True)
class LinkClass:
    """A category of physical link: distance plus failure/repair rates."""

    class_id: int
    distance_km: float
    mtbf_h: float
    mttr_h: float

    def __post_init__(self):
        if self.mtbf_h <= 0 or self.mttr_h <= 0:
            raise SpecError("MTBF and MTTR must be positive")
        if self.mtbf_h < self.mttr_h:
            raise SpecError(
                f"MTBF ({self.mtbf_h} h) must not be smaller than MTTR ({self.mttr_h} h)"
            )
        if not 0.0 < self.lam < 1.0:
            raise SpecError("1/MTBF must be a valid per-hour probability in (0,1)")
        if not 0.0 < self.mu <= 1.0:
            raise SpecError("1/MTTR must be a valid per-hour probability in (0,1]")

    @property
    def lam(self) -> float:
        """Per-hour failure probability, 1/MTBF."""
        return 1.0 / self.mtbf_h

    @property
    def mu(self) -> float:
        """Per-hour repair probability, 1/MTTR."""
        return 1.0 / self.mttr_h

    @property
    def steady_down_prob(self) -> float:
        """Steady-state probability that a single link is invalid."""
        return self.lam / (self.lam + self.mu)

    @classmethod
    def standard(cls, distance_km: float, class_id: int = 0) -> "LinkClass":
        try:
            mtbf, mttr = STANDARD_LINK_SPECS[float(distance_km)]
        except KeyError:
            raise SpecError(f"no standard link indicators for {distance_km} km") from None
        return cls(class_id=class_id, distance_km=float(distance_km), mtbf_h=mtbf, mttr_h=mttr)


@dataclass(frozen=True)
class NodeId:
    """Hierarchical node number: one index per recursion level, plus a flat index.

    `levels` is most-significant first: the first digit is the level-1
    domain index, the last digit is the node's index inside its deepest
    domain.  For a single-level hypercube, `levels` has length 1.
    """

    levels: tuple[int, ...]
    flat: int

    def __post_init__(self):
        if not self.levels:
            raise SpecError("NodeId.levels must be non-empty")

    def label(self) -> str:
        if all(x < 10 for x in self.levels):
            return "".join(str(x) for x in self.levels)
        return ".".join(str(x) for x in self.levels)


@dataclass(frozen=True)
class Link:
    """Undirected physical link between two nodes (given by flat ids)."""

    u: int
    v: int
    class_id: int
    level: int = 1

    def key(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class DomainGraph:
    """Explicit per-domain topology for asymmetric recursion levels."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("domain must contain at least one node")
        for a, b in self.edges:
            if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                raise SpecError(f"bad domain edge ({a},{b}) for n={self.n}")


def _hypercube_edges(dim: int) -> list[tuple[int, int]]:
    edges = []
    for u in range(2**dim):
        for b in range(dim):
            v = u | (1 << b)
            if v != u:
                edges.append((u, v))
    return edges


def _gray_hypercube_edges(dim: int) -> list[tuple[int, int]]:
    """Hypercube edges under reflected-Gray-code node numbering.

    Recursive domains number their nodes the way the worked example
    does (a 2-cube drawn as the cycle 0-1-2-3, so node 0 touches 1 and
    3); that is the Gray-code relabeling of the Hamming rule.  Node u
    carries code u ^ (u >> 1), and flipping code bit b flips bits 0..b
    of u, so u's neighbours are u ^ ((2 << b) - 1).  Edges come sorted.
    """
    masks = [(2 << b) - 1 for b in range(dim)]
    return [(u, u ^ m) for u in range(2**dim) for m in masks if u < u ^ m]


@dataclass(frozen=True)
class RecursionSpec:
    """Per-level description of a hierarchical recursive topology.

    `levels` entries are hypercube dimensions (int), or, in asymmetric
    mode, a mapping from the parent prefix tuple to an explicit
    `DomainGraph`.  `class_by_level` maps recursion level (1-based,
    level 1 = outermost interconnection links) to a class id in
    `classes`.
    """

    mode: str  # "symmetric" | "semi" | "asymmetric"
    levels: tuple
    class_by_level: dict[int, int]
    classes: dict[int, LinkClass]

    def __post_init__(self):
        if self.mode not in ("symmetric", "semi", "asymmetric"):
            raise SpecError(f"unknown recursion mode {self.mode!r}")
        r = len(self.levels)
        if r < 1:
            raise SpecError("recursion spec needs at least one level")
        for m in range(1, r + 1):
            if m not in self.class_by_level:
                raise SpecError(f"class_by_level missing level {m}")
            if self.class_by_level[m] not in self.classes:
                raise SpecError(f"class id {self.class_by_level[m]} not in class table")
        if self.mode == "symmetric":
            dims = set(self.levels)
            if len(dims) != 1 or not isinstance(self.levels[0], int):
                raise SpecError("completely symmetric mode requires one fixed dimension")
        if self.mode == "semi" and not all(isinstance(d, int) for d in self.levels):
            raise SpecError("semi-symmetric mode requires per-level hypercube dimensions")

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def dims(self) -> tuple[int, ...]:
        if self.mode == "asymmetric":
            raise SpecError("asymmetric spec has no uniform dimension list")
        return tuple(self.levels)

    @staticmethod
    def _default_classes(r: int, distances=None) -> tuple[dict[int, int], dict[int, LinkClass]]:
        if distances is None:
            if r > len(DEFAULT_LEVEL_DISTANCES):
                raise SpecError(
                    f"{r} levels need an explicit class assignment "
                    f"(defaults cover {len(DEFAULT_LEVEL_DISTANCES)})"
                )
            distances = DEFAULT_LEVEL_DISTANCES[:r]
        if len(distances) != r:
            raise SpecError(f"expected {r} class distances, got {len(distances)}")
        classes = {i: LinkClass.standard(d, class_id=i) for i, d in enumerate(distances)}
        class_by_level = {m: m - 1 for m in range(1, r + 1)}
        return class_by_level, classes

    @classmethod
    def symmetric(cls, dim: int, levels: int, distances=None) -> "RecursionSpec":
        class_by_level, classes = cls._default_classes(levels, distances)
        return cls("symmetric", (dim,) * levels, class_by_level, classes)

    @classmethod
    def semi(cls, dims, distances=None) -> "RecursionSpec":
        dims = tuple(dims)
        class_by_level, classes = cls._default_classes(len(dims), distances)
        return cls("semi", dims, class_by_level, classes)

    @classmethod
    def asymmetric(cls, levels, distances=None) -> "RecursionSpec":
        class_by_level, classes = cls._default_classes(len(levels), distances)
        return cls("asymmetric", tuple(levels), class_by_level, classes)


@dataclass
class Topology:
    """A labeled node set plus a typed link set.

    Treated as immutable after construction; the adjacency list is
    cached lazily and shared by all analyses.
    """

    kind: str
    nodes: list[NodeId]
    links: list[Link]
    classes: dict[int, LinkClass]
    meta: dict = field(default_factory=dict)
    _adj: list[list[int]] | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def adjacency(self) -> list[list[int]]:
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
            for link in self.links:
                adj[link.u].append(link.v)
                adj[link.v].append(link.u)
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def degree(self, u: int) -> int:
        return len(self.adjacency()[u])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency()]

    def link_index(self) -> dict[tuple[int, int], int]:
        return {link.key(): i for i, link in enumerate(self.links)}

    def class_census(self) -> dict[int, int]:
        census = {cid: 0 for cid in sorted(self.classes)}
        for link in self.links:
            census[link.class_id] += 1
        return census

    def level_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for link in self.links:
            census[link.level] = census.get(link.level, 0) + 1
        return dict(sorted(census.items()))

    def is_connected(self) -> bool:
        comps = connected_components(self)
        return len(comps) == 1

    def validate(self) -> None:
        n = self.n_nodes
        if n < 1:
            raise ConstructionError("topology must contain at least one node")
        seen = set()
        for link in self.links:
            if link.u == link.v:
                raise ConstructionError(f"self-loop at node {link.u}")
            if not (0 <= link.u < n and 0 <= link.v < n):
                raise ConstructionError(f"dangling link endpoint ({link.u},{link.v})")
            if link.key() in seen:
                raise ConstructionError(f"duplicate link {link.key()}")
            seen.add(link.key())
            if link.class_id not in self.classes:
                raise ConstructionError(f"link references unknown class {link.class_id}")

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "kind": self.kind,
            "N": self.n_nodes,
            "meta": self.meta,
            "classes": [
                {
                    "class_id": c.class_id,
                    "distance_km": c.distance_km,
                    "mtbf_h": c.mtbf_h,
                    "mttr_h": c.mttr_h,
                }
                for _, c in sorted(self.classes.items())
            ],
            "nodes": [{"flat": nd.flat, "levels": list(nd.levels)} for nd in self.nodes],
            "links": [
                {"u": lk.u, "v": lk.v, "class_id": lk.class_id, "level": lk.level}
                for lk in self.links
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        if doc.get("version") != SERIALIZATION_VERSION:
            raise SpecError(f"unsupported topology document version {doc.get('version')!r}")
        classes = {
            c["class_id"]: LinkClass(c["class_id"], c["distance_km"], c["mtbf_h"], c["mttr_h"])
            for c in doc["classes"]
        }
        nodes = [NodeId(tuple(nd["levels"]), nd["flat"]) for nd in doc["nodes"]]
        links = [Link(lk["u"], lk["v"], lk["class_id"], lk["level"]) for lk in doc["links"]]
        topo = cls(doc["kind"], nodes, links, classes, dict(doc.get("meta", {})))
        topo.validate()
        return topo

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        return cls.from_dict(json.loads(text))


def _single_class(distance_km: float = 5000.0) -> dict[int, LinkClass]:
    return {0: LinkClass.standard(distance_km, class_id=0)}


def _flat_topology(kind: str, n: int, edges, distance_km: float, meta: dict) -> Topology:
    """Validated single-class topology on nodes 0..n-1 with one link per edge."""
    nodes = [NodeId((i,), i) for i in range(n)]
    links = [Link(u, v, 0) for u, v in edges]
    topo = Topology(kind, nodes, links, _single_class(distance_km), meta)
    topo.validate()
    return topo


def build_complete_hypercube(dim: int, distance_km: float = 5000.0) -> Topology:
    """dim-dimensional hypercube: 2^dim nodes, links at Hamming distance 1."""
    if dim < 0:
        raise SpecError("dimension must be non-negative")
    if dim > MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(f"dim={dim} exceeds the guard of {MAX_HYPERCUBE_DIM}")
    return _flat_topology("complete-hypercube", 2**dim, _hypercube_edges(dim), distance_km,
                          {"dim": dim})


def build_incomplete_hypercube(
    dim: int,
    present_nodes=None,
    removed_links=(),
    distance_km: float = 5000.0,
) -> Topology:
    """Induced subgraph of the complete hypercube minus explicit links.

    The result must stay connected; a disconnected outcome raises
    `ConstructionError` so the caller can retry with other removals.
    """
    if dim < 0 or dim > MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(f"dim={dim} out of range")
    full = set(range(2**dim))
    present = full if present_nodes is None else set(present_nodes)
    if not present <= full:
        raise SpecError("present_nodes must be hypercube node ids")
    if not present:
        raise SpecError("present_nodes must not be empty")
    removed = {tuple(sorted(pair)) for pair in removed_links}
    edge_set = {tuple(sorted(e)) for e in _hypercube_edges(dim)}
    if not removed <= edge_set:
        raise SpecError("removed_links must be hypercube edges")

    ordered = sorted(present)
    flat_of = {nid: i for i, nid in enumerate(ordered)}
    nodes = [NodeId((nid,), i) for i, nid in enumerate(ordered)]
    links = [
        Link(flat_of[a], flat_of[b], 0)
        for a, b in sorted(edge_set - removed)
        if a in present and b in present
    ]
    topo = Topology(
        "incomplete-hypercube",
        nodes,
        links,
        _single_class(distance_km),
        {"dim": dim, "removed_links": sorted(removed)},
    )
    topo.validate()
    if not topo.is_connected():
        raise ConstructionError("incomplete hypercube is disconnected; retry with other removals")
    return topo


def build_recursive(spec: RecursionSpec) -> Topology:
    """Hierarchical recursive topology: recursion then interconnection.

    Step 1 expands every level-(m-1) node into a domain carrying the
    level-m topology, extending node numbers by one digit.  Step 2
    wires, for each link (A,B) of the level-m topology, the node with
    local suffix s inside domain A to the node with the same suffix s
    inside domain B, for every suffix s.
    """
    r = spec.r
    cube_edges = {d: _gray_hypercube_edges(d) for d in spec.levels if isinstance(d, int)}

    def level_graph(m: int, prefix: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
        entry = spec.levels[m - 1]
        if isinstance(entry, int):
            return 2**entry, cube_edges[entry]
        try:
            g = entry[prefix]
        except KeyError:
            raise SpecError(f"no explicit domain topology for prefix {prefix}") from None
        return g.n, list(g.edges)

    def expand(m: int, prefix: tuple[int, ...]):
        """Suffix tuples and links (as suffix pairs + level) below `prefix`."""
        if m > r:
            return [()], []
        n_local, local_edges = level_graph(m, prefix)
        suffixes: list[tuple[int, ...]] = []
        links: list[tuple[tuple, tuple, int]] = []
        subs: dict[int, list[tuple[int, ...]]] = {}
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
            for s in subs[a]:
                links.append(((a,) + s, (b,) + s, m))
        return suffixes, links

    labels, raw_links = expand(1, ())
    if len(labels) > MAX_RECURSIVE_NODES:
        raise ResourceLimitError(f"recursive topology would have {len(labels)} nodes")
    # Depth-first enumeration is lexicographic, so each domain's number
    # (its smallest flat node number) is the one with an all-zero suffix.
    flat_of = {lab: i for i, lab in enumerate(labels)}
    nodes = [NodeId(lab, i) for i, lab in enumerate(labels)]
    links = [
        Link(flat_of[lu], flat_of[lv], spec.class_by_level[lvl], level=lvl)
        for lu, lv, lvl in raw_links
    ]
    topo = Topology(
        "recursive",
        nodes,
        links,
        dict(spec.classes),
        {"mode": spec.mode, "levels": [lv if isinstance(lv, int) else "explicit" for lv in spec.levels]},
    )
    topo.validate()
    if not topo.is_connected():
        raise ConstructionError("recursive topology is disconnected")
    return topo


def closed_form_link_count(spec: RecursionSpec) -> tuple[int, int]:
    """(node count, link count) from the closed forms for symmetric specs.

    Completely symmetric: L = 2^(r*dim - 1) * r * dim.
    Semi-symmetric:       L = 2^(sum(dims) - 1) * sum(dims).
    """
    if spec.mode == "asymmetric":
        raise SpecError("asymmetric recursion has no closed-form link count")
    total = sum(spec.dims)
    return 2**total, 2 ** (total - 1) * total


def build_rooted_tree(n: int, degree: int = 3, distance_km: float = 5000.0) -> Topology:
    """Regular rooted tree: root has `degree` children, every other
    internal node degree-1 children, filled breadth-first."""
    if n < 1:
        raise SpecError("need at least one node")
    if degree < 2:
        raise SpecError("degree must be at least 2")
    edges = []
    next_child = 1
    frontier = [0]
    while next_child < n:
        parent = frontier.pop(0)
        capacity = degree if parent == 0 else degree - 1
        for _ in range(capacity):
            if next_child >= n:
                break
            edges.append((parent, next_child))
            frontier.append(next_child)
            next_child += 1
    return _flat_topology("rooted-tree", n, edges, distance_km, {"degree": degree})


def build_ring_lattice(n: int, degree: int, distance_km: float = 5000.0) -> Topology:
    """Ring lattice: node i linked to i +- 1 .. i +- degree/2 (mod n)."""
    if degree % 2 != 0:
        raise SpecError("ring lattice degree must be even")
    if not 2 <= degree < n:
        raise SpecError("ring lattice requires 2 <= degree < n")
    edges = sorted(
        (min(i, j), max(i, j))
        for i in range(n)
        for j in ((i + s) % n for s in range(1, degree // 2 + 1))
    )
    return _flat_topology("ring-lattice", n, edges, distance_km, {"degree": degree})


def build_star(n: int, distance_km: float = 5000.0) -> Topology:
    """Star with node 0 as hub."""
    if n < 2:
        raise SpecError("star needs at least 2 nodes")
    return _flat_topology("star", n, [(0, i) for i in range(1, n)], distance_km, {})


def resolve_failed_links(topology: Topology, failed_links) -> set[int]:
    """Normalize failures given as link indices or (u, v) flat pairs."""
    failed: set[int] = set()
    index = None
    for item in failed_links:
        if isinstance(item, numbers.Integral):
            if not 0 <= item < topology.n_links:
                raise SpecError(f"link index {item} out of range")
            failed.add(int(item))
        else:
            if index is None:
                index = topology.link_index()
            key = tuple(sorted(item))
            if key not in index:
                raise SpecError(f"no link {key} in topology")
            failed.add(index[key])
    return failed


def connected_components(topology: Topology, failed_links=()) -> list[list[int]]:
    """Components of the graph with the failed links removed.

    Ordered by size descending, ties broken by smallest member; nodes
    within a component are sorted ascending.
    """
    failed = resolve_failed_links(topology, failed_links)
    uf = UnionFind(topology.n_nodes)
    for i, link in enumerate(topology.links):
        if i not in failed:
            uf.union(link.u, link.v)
    comps = [sorted(c) for c in uf.components()]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def max_component_size(topology: Topology, failed_link_indices: set[int]) -> int:
    """Largest component size with the given link indices failed (fast path)."""
    uf = UnionFind(topology.n_nodes)
    for i, link in enumerate(topology.links):
        if i not in failed_link_indices:
            uf.union(link.u, link.v)
    return uf.max_component_size()
