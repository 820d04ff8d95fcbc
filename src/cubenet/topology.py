"""Physical topology builders for consortium P2P networks.

Constructs complete/incomplete hypercubes, hierarchical recursive
topologies (recursion + interconnection), and the comparison baselines
(regular rooted tree, ring lattice, star).  Every builder returns a
connected, labeled `Topology` whose links carry a distance class.
"""
from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import ConstructionError, ResourceLimitError, SpecError
from .unionfind import UnionFind  # noqa: F401  unused; perfbench/tracer.py patches this name

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
KERNEL_SLOTS = 2**15  # link slots per connectivity-kernel batch: a few MB of arrays at any B


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


def _upper_pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(E, 2) rows (u, v[u, j]) with u < v[u, j], in row-major order, for an
    (n, 1) column of nodes u and an (n, d) neighbour table v."""
    keep = u < v
    return np.stack([np.broadcast_to(u, v.shape)[keep], v[keep]], axis=1)


def _hypercube_edges(dim: int) -> np.ndarray:
    """Hypercube edges (u, u | 2^b) for u ascending, then b: sorted."""
    u = np.arange(2**dim, dtype=np.int32)[:, None]
    return _upper_pairs(u, u | (1 << np.arange(dim, dtype=np.int32)))


def _gray_hypercube_edges(dim: int) -> np.ndarray:
    """Hypercube edges under reflected-Gray-code node numbering.

    Recursive domains number their nodes the way the worked example
    does (a 2-cube drawn as the cycle 0-1-2-3, so node 0 touches 1 and
    3); that is the Gray-code relabeling of the Hamming rule.  Node u
    carries code u ^ (u >> 1), and flipping code bit b flips bits 0..b
    of u, so u's neighbours are u ^ ((2 << b) - 1).  Edges come sorted.
    """
    u = np.arange(2**dim, dtype=np.int32)[:, None]
    return _upper_pairs(u, u ^ ((2 << np.arange(dim, dtype=np.int32)) - 1))


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
        if any(isinstance(d, int) and d < 0 for d in self.levels):
            raise SpecError("recursion dimensions must be non-negative")

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


@dataclass(frozen=True, eq=False)
class Topology:
    """A labeled node set plus a typed link set, held in read-only arrays.

    Node x is labeled by row x of `labels`, the digits of its `NodeId`
    (one per recursion level, most significant first).  Link j joins the
    flat nodes `ends[j]`, belongs to link class `class_id[j]` and to
    recursion level `level[j]` (1 for flat graphs).  The arrays cannot
    be written, so data derived from them is computed once and kept on
    the object (`memo`): the sorted CSR adjacency, and the `nodes` and
    `links` object views, which are built on first access.
    """

    kind: str
    labels: np.ndarray  # (N, r) int32
    ends: np.ndarray  # (L, 2) int32
    class_id: np.ndarray  # (L,) int32
    level: np.ndarray  # (L,) int32
    classes: dict[int, LinkClass]
    meta: dict = field(default_factory=dict)
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for name in ("labels", "ends", "class_id", "level"):
            arr = np.asarray(getattr(self, name), dtype=np.int32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_links(cls, kind: str, nodes, links, classes, meta=None) -> "Topology":
        """Validated topology from `NodeId`s (node x is nodes[x]) and `Link`s."""
        rows = np.array([(lk.u, lk.v, lk.class_id, lk.level) for lk in links],
                        dtype=np.int32).reshape(-1, 4)
        labels = _label_array([nd.levels for nd in nodes])
        topo = cls(kind, labels, rows[:, :2], rows[:, 2], rows[:, 3], dict(classes),
                   dict(meta or {}))
        topo.validate()
        return topo

    def memo(self, key, compute):
        """compute(), run once per key: derived data of the read-only arrays."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_links(self) -> int:
        return len(self.ends)

    @property
    def nodes(self) -> list[NodeId]:
        return self.memo("nodes", lambda: [NodeId(tuple(lab), x)
                                           for x, lab in enumerate(self.labels.tolist())])

    @property
    def links(self) -> list[Link]:
        return self.memo("links", lambda: [Link(*row) for row in self._link_rows()])

    def _link_rows(self) -> list[list[int]]:
        """[u, v, class_id, level] of every link, as Python ints."""
        return np.column_stack((self.ends, self.class_id, self.level)).tolist()

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted adjacency: node u's neighbours, ascending, are
        indices[indptr[u]:indptr[u + 1]]."""
        def build():
            # intp: indexing with int32 arrays converts them on every use
            ends = self.ends.astype(np.intp)
            src = np.concatenate((ends[:, 0], ends[:, 1]))
            dst = np.concatenate((ends[:, 1], ends[:, 0]))
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n_nodes), out=indptr[1:])
            indices = dst[np.lexsort((dst, src))]
            indptr.flags.writeable = indices.flags.writeable = False
            return indptr, indices
        return self.memo("csr", build)

    def degree(self, u: int) -> int:
        indptr = self.csr()[0]
        return int(indptr[u + 1] - indptr[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr()[0])

    def link_index(self) -> dict[tuple[int, int], int]:
        lo, hi = np.sort(self.ends, axis=1).T.tolist()
        return {key: j for j, key in enumerate(zip(lo, hi))}

    def class_census(self) -> dict[int, int]:
        census = {cid: 0 for cid in sorted(self.classes)}
        census.update(_counts(self.class_id))
        return census

    def level_census(self) -> dict[int, int]:
        return _counts(self.level)

    def is_connected(self) -> bool:
        return max_component_size(self, set()) == self.n_nodes

    def validate(self) -> None:
        """ConstructionError naming the first bad link, as a scan in link
        order checks each for a self-loop, a dangling end, a repeat of an
        earlier link and an unknown class, in that order."""
        n = self.n_nodes
        if n < 1:
            raise ConstructionError("topology must contain at least one node")
        u, v = self.ends.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        repeat = np.ones(len(u), dtype=bool)
        repeat[np.unique(lo.astype(np.int64) * n + hi, return_index=True)[1]] = False
        checks = (
            (u == v, lambda j: f"self-loop at node {u[j]}"),
            ((lo < 0) | (hi >= n), lambda j: f"dangling link endpoint ({u[j]},{v[j]})"),
            (repeat, lambda j: f"duplicate link {(int(lo[j]), int(hi[j]))}"),
            (~np.isin(self.class_id, list(self.classes)),
             lambda j: f"link references unknown class {self.class_id[j]}"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            j = int(np.argmax(bad))
            raise ConstructionError(next(msg(j) for mask, msg in checks if mask[j]))

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
            "nodes": [{"flat": x, "levels": lab} for x, lab in enumerate(self.labels.tolist())],
            "links": [
                {"u": u, "v": v, "class_id": c, "level": lvl}
                for u, v, c, lvl in self._link_rows()
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
        nodes = doc["nodes"]
        if [nd["flat"] for nd in nodes] != list(range(len(nodes))):
            raise SpecError("node flat numbers must run 0, 1, ..., N-1 in order")
        try:
            labels = _label_array([nd["levels"] for nd in nodes])
            fields = itertools.chain.from_iterable(map(_LINK_FIELDS, doc["links"]))
            rows = np.fromiter(fields, dtype=np.int32, count=4 * len(doc["links"])).reshape(-1, 4)
        except OverflowError as exc:
            raise SpecError(f"topology document number out of range: {exc}") from None
        topo = cls(doc["kind"], labels, rows[:, :2], rows[:, 2], rows[:, 3], classes,
                   dict(doc.get("meta", {})))
        topo.validate()
        return topo

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        return cls.from_dict(json.loads(text))


_LINK_FIELDS = itemgetter("u", "v", "class_id", "level")


def _label_array(levels: list) -> np.ndarray:
    """(N, r) int32 array of N node labels, each r >= 1 digits long."""
    width = {len(lab) for lab in levels}
    if len(width) > 1 or 0 in width:
        raise SpecError("node labels must be non-empty and all of one length")
    return np.array(levels, dtype=np.int32).reshape(len(levels), max(width, default=1))


def _counts(values: np.ndarray) -> dict[int, int]:
    """{value: occurrences}, ascending by value."""
    return dict(zip(*(a.tolist() for a in np.unique(values, return_counts=True))))


def _single_class(distance_km: float = 5000.0) -> dict[int, LinkClass]:
    return {0: LinkClass.standard(distance_km, class_id=0)}


def _flat_topology(kind: str, ids: np.ndarray, ends: np.ndarray, distance_km: float,
                   meta: dict) -> Topology:
    """Validated single-class topology on nodes labeled by `ids`, one link per row of `ends`."""
    L = len(ends)
    topo = Topology(kind, np.reshape(ids, (-1, 1)), ends, np.zeros(L), np.ones(L),
                    _single_class(distance_km), meta)
    topo.validate()
    return topo


def build_complete_hypercube(dim: int, distance_km: float = 5000.0) -> Topology:
    """dim-dimensional hypercube: 2^dim nodes, links at Hamming distance 1."""
    if dim < 0:
        raise SpecError("dimension must be non-negative")
    if dim > MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(f"dim={dim} exceeds the guard of {MAX_HYPERCUBE_DIM}")
    return _flat_topology("complete-hypercube", np.arange(2**dim), _hypercube_edges(dim),
                          distance_km, {"dim": dim})


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
    if present_nodes is None:
        ordered = np.arange(2**dim)
    else:
        ordered = np.unique(np.asarray(list(present_nodes)))
        if not ordered.size:
            raise SpecError("present_nodes must not be empty")
        if ordered.dtype.kind not in "iu" or ordered[0] < 0 or ordered[-1] >= 2**dim:
            raise SpecError("present_nodes must be hypercube node ids")
    # (a, b) with a < b is an edge iff b is in range and a ^ b is a power of two
    removed = {tuple(sorted(pair)) for pair in removed_links}
    if not all(0 <= a < b < 2**dim and (a ^ b) & ((a ^ b) - 1) == 0 for a, b in removed):
        raise SpecError("removed_links must be hypercube edges")
    edges = _hypercube_edges(dim)

    flat_of = np.full(2**dim, -1)
    flat_of[ordered] = np.arange(len(ordered))
    ends = flat_of[edges]
    keep = (ends >= 0).all(axis=1)
    if removed:
        keep &= ~np.isin(edges[:, 0].astype(np.int64) << dim | edges[:, 1],
                         [a << dim | b for a, b in removed])
    topo = _flat_topology("incomplete-hypercube", ordered, ends[keep], distance_km,
                          {"dim": dim, "removed_links": sorted(removed)})
    if not topo.is_connected():
        raise ConstructionError("incomplete hypercube is disconnected; retry with other removals")
    return topo


def build_recursive(spec: RecursionSpec) -> Topology:
    """Hierarchical recursive topology: recursion then interconnection.

    Step 1 expands every level-(m-1) node into a domain carrying the
    level-m topology, extending node numbers by one digit.  Step 2
    wires, for each link (A,B) of the level-m topology, the node with
    local suffix s inside domain A to the node with the same suffix s
    inside domain B, for every suffix s.  The node and link counts are
    checked against the size guard before anything is allocated.
    """
    n_nodes, n_links = _count_below(spec, 1, ())
    # The link guard is the link count of the largest integer-dims spec
    # within the node guard: 2^20 nodes of degree 20.
    if n_nodes > MAX_RECURSIVE_NODES or n_links > MAX_RECURSIVE_NODES // 2 * MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(
            f"recursive topology would have {n_nodes} nodes and {n_links} links"
        )
    labels, ends, level = _build_below(spec, 1, ())
    class_of = np.array([0] + [spec.class_by_level[m] for m in range(1, spec.r + 1)])
    topo = Topology(
        "recursive",
        labels,
        ends,
        class_of[level],
        level,
        dict(spec.classes),
        {"mode": spec.mode, "levels": [lv if isinstance(lv, int) else "explicit" for lv in spec.levels]},
    )
    topo.validate()
    if not topo.is_connected():
        raise ConstructionError("recursive topology is disconnected")
    return topo


def _domain(spec: RecursionSpec, m: int, prefix: tuple[int, ...]):
    """Level m's topology below `prefix`: a hypercube dimension or a DomainGraph."""
    entry = spec.levels[m - 1]
    if isinstance(entry, int):
        return entry
    try:
        return entry[prefix]
    except KeyError:
        raise SpecError(f"no explicit domain topology for prefix {prefix}") from None


def _integer_from(spec: RecursionSpec, m: int) -> bool:
    """Whether levels m..r are all hypercube dimensions (true past the last level)."""
    return all(isinstance(entry, int) for entry in spec.levels[m - 1:])


def _count_below(spec: RecursionSpec, m: int, prefix: tuple[int, ...]) -> tuple[int, int]:
    """(nodes, links) of the level-m domain below `prefix` and everything
    under it, from the domain sizes alone; the count stops once the
    nodes pass MAX_RECURSIVE_NODES.

    Below a run of integer levels every subdomain is the same, so one is
    counted: n subdomains of S nodes joined along E domain edges make
    n * S nodes and E * S bridging links (2^D nodes and 2^D * D / 2
    links below integer levels of dimension sum D).  Otherwise an
    interconnected pair of subdomains shares one suffix set (the build
    refuses it otherwise), so each level-m link adds as many links as a
    subdomain at either end has nodes: half the degree-weighted node sum.
    """
    if m > spec.r:
        return 1, 0
    dom = _domain(spec, m, prefix)
    if isinstance(dom, int):
        n_local, n_edges = 2**dom, 2**dom * dom // 2
    else:
        n_local, n_edges = dom.n, len(dom.edges)
    if _integer_from(spec, m + 1):
        sub_nodes, sub_links = _count_below(spec, m + 1, prefix + (0,))
        return n_local * sub_nodes, n_local * sub_links + n_edges * sub_nodes
    if n_local > MAX_RECURSIVE_NODES:
        return n_local, 0
    if isinstance(dom, int):
        degree = [dom] * n_local
    else:
        degree = [0] * n_local
        for a, b in dom.edges:
            degree[a] += 1
            degree[b] += 1
    nodes = links = bridge_ends = 0
    for a in range(n_local):
        sub_nodes, sub_links = _count_below(spec, m + 1, prefix + (a,))
        nodes += sub_nodes
        links += sub_links
        bridge_ends += degree[a] * sub_nodes
        if nodes > MAX_RECURSIVE_NODES:
            break
    return nodes, links + bridge_ends // 2


def _build_below(spec: RecursionSpec, m: int, prefix: tuple[int, ...]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels (digits m..r), link ends and link levels of the level-m
    domain below `prefix`, nodes numbered in lexicographic label order.

    Subdomain a is the block of nodes from start[a].  The links are
    those of each subdomain a in turn, shifted by start[a], then, for
    each level-m edge (a, b), the links from start[a] + s to
    start[b] + s for every suffix s: the order a depth-first expansion
    appends them in.  Below a run of integer levels every subdomain is
    the same graph, so it is built once.
    """
    if m > spec.r:
        return (np.zeros((1, 0), dtype=np.int32), np.empty((0, 2), dtype=np.int32),
                np.empty(0, dtype=np.int32))
    dom = _domain(spec, m, prefix)
    if isinstance(dom, int):
        n_local, local_edges = 2**dom, _gray_hypercube_edges(dom)
    else:
        n_local, local_edges = dom.n, np.array(dom.edges, dtype=np.int32).reshape(-1, 2)
    if _integer_from(spec, m + 1):
        subs = [_build_below(spec, m + 1, prefix + (0,))] * n_local
    else:
        subs = [_build_below(spec, m + 1, prefix + (a,)) for a in range(n_local)]
        for a, b in local_edges.tolist():
            if not np.array_equal(subs[a][0], subs[b][0]):
                raise ConstructionError(
                    f"cannot interconnect domains {prefix + (a,)} and {prefix + (b,)}: "
                    "unequal local suffix sets"
                )
    sub_labels, sub_ends, sub_level = zip(*subs)
    size = np.fromiter(map(len, sub_labels), np.int32, n_local)
    start = np.cumsum(size, dtype=np.int32) - size
    run = size[local_edges[:, 0]]  # suffixes bridged along each level-m edge
    suffix = np.arange(run.sum(), dtype=np.int32) - np.repeat(np.cumsum(run, dtype=np.int32) - run, run)
    labels = np.column_stack((np.repeat(np.arange(n_local, dtype=np.int32), size),
                              np.concatenate(sub_labels)))
    shift = np.repeat(start, np.fromiter(map(len, sub_ends), np.int32, n_local))[:, None]
    ends = np.concatenate((np.concatenate(sub_ends) + shift,
                           start[np.repeat(local_edges, run, axis=0)] + suffix[:, None]))
    level = np.concatenate(sub_level + (np.full(len(suffix), m, dtype=np.int32),))
    return labels, ends, level


def closed_form_link_count(spec: RecursionSpec) -> tuple[int, int]:
    """(node count, link count) from the closed forms for symmetric specs.

    Completely symmetric: L = 2^(r*dim - 1) * r * dim.
    Semi-symmetric:       L = 2^(sum(dims) - 1) * sum(dims).
    """
    if spec.mode == "asymmetric":
        raise SpecError("asymmetric recursion has no closed-form link count")
    return _count_below(spec, 1, ())


def build_rooted_tree(n: int, degree: int = 3, distance_km: float = 5000.0) -> Topology:
    """Regular rooted tree: root has `degree` children, every other
    internal node degree-1 children, filled breadth-first.

    Breadth-first filling numbers the children in parent order, so node
    c >= 2 hangs below (c - 2) // (degree - 1), and nodes 1..degree
    below the root.
    """
    if n < 1:
        raise SpecError("need at least one node")
    if degree < 2:
        raise SpecError("degree must be at least 2")
    child = np.arange(1, n, dtype=np.int32)
    parent = np.maximum((child - 2) // (degree - 1), 0)
    return _flat_topology("rooted-tree", np.arange(n), np.stack([parent, child], axis=1),
                          distance_km, {"degree": degree})


def build_ring_lattice(n: int, degree: int, distance_km: float = 5000.0) -> Topology:
    """Ring lattice: node i linked to i +- 1 .. i +- degree/2 (mod n)."""
    if degree % 2 != 0:
        raise SpecError("ring lattice degree must be even")
    if not 2 <= degree < n:
        raise SpecError("ring lattice requires 2 <= degree < n")
    i = np.arange(n, dtype=np.int32)[:, None]
    j = (i + np.arange(1, degree // 2 + 1, dtype=np.int32)) % n
    lo, hi = np.minimum(i, j).ravel(), np.maximum(i, j).ravel()
    order = np.lexsort((hi, lo))
    return _flat_topology("ring-lattice", np.arange(n), np.stack([lo[order], hi[order]], axis=1),
                          distance_km, {"degree": degree})


def build_star(n: int, distance_km: float = 5000.0) -> Topology:
    """Star with node 0 as hub."""
    if n < 2:
        raise SpecError("star needs at least 2 nodes")
    leaves = np.arange(1, n)
    return _flat_topology("star", np.arange(n), np.stack([np.zeros_like(leaves), leaves], axis=1),
                          distance_km, {})


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


# -- connectivity ---------------------------------------------------------


def _chunk_rows(n_nodes: int, n_links: int) -> int:
    """Rows per kernel batch: at most KERNEL_SLOTS link slots and node slots."""
    return max(1, KERNEL_SLOTS // max(n_nodes, n_links))


def _component_roots(ends: np.ndarray, n: int, present: np.ndarray) -> np.ndarray:
    """Component root of every node of every row of a (B, L) present-link
    mask, as one (B * n,) array: node x of row b is b*n + x, and its root
    is the least node of its component.

    An absent link is a self-loop.  Each round hooks the larger root of
    every edge joining two roots to the smaller one, then pointer-jumps
    until every label is a root (min-label hooking, Shiloach & Vishkin
    1982); an edge inside one component stays inside it and is dropped.
    """
    base = np.arange(0, len(present) * n, n)[:, None]
    a = base + ends[:, 0]
    a, b = a.ravel(), np.where(present, base + ends[:, 1], a).ravel()
    label = np.arange(len(present) * n)
    while a.size:
        la, lb = label[a], label[b]
        cross = la != lb
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def _max_comp_rows(ends: np.ndarray, n: int, present: np.ndarray) -> np.ndarray:
    """Largest component size for each row of a (B, L) present-link mask;
    rows go through in batches of `_chunk_rows` rows."""
    B = present.shape[0]
    out = np.empty(B, dtype=np.int64)
    step = _chunk_rows(n, present.shape[1])
    for lo in range(0, B, step):
        label = _component_roots(ends, n, present[lo:lo + step])
        out[lo:lo + step] = np.bincount(label, minlength=len(label)).reshape(-1, n).max(1)
    return out


def _present_row(topology: Topology, failed: set[int]) -> np.ndarray:
    """(1, L) present-link mask with the `failed` link indices absent."""
    present = np.ones((1, topology.n_links), dtype=bool)
    present[0, list(failed)] = False
    return present


def connected_components(topology: Topology, failed_links=()) -> list[list[int]]:
    """Components of the graph with the failed links removed.

    Ordered by size descending, ties broken by smallest member; nodes
    within a component are sorted ascending.
    """
    failed = resolve_failed_links(topology, failed_links)
    roots = _component_roots(topology.ends, topology.n_nodes, _present_row(topology, failed))
    members = np.argsort(roots, kind="stable")
    starts = np.flatnonzero(np.diff(roots[members], prepend=-1))
    comps = [c.tolist() for c in np.split(members, starts[1:])]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def max_component_size(topology: Topology, failed_link_indices: set[int]) -> int:
    """Largest component size with the given link indices failed (fast path)."""
    present = _present_row(topology, failed_link_indices)
    return int(_max_comp_rows(topology.ends, topology.n_nodes, present)[0])
