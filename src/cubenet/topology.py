"""Physical topology builders for consortium P2P networks.

Constructs complete/incomplete hypercubes, hierarchical recursive
topologies (recursion + interconnection), and the comparison baselines
(regular rooted tree, ring lattice, star).  Every builder returns a
connected, labeled `Topology` whose links carry a distance class.
"""
from __future__ import annotations

import binascii
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, ResourceLimitError, SpecError
from .unionfind import UnionFind  # noqa: F401  unused; perfbench/tracer.py patches this name

SERIALIZATION_VERSION = 3

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
MAX_RUN_LENGTH = 2**24  # cycles, rounds or sampled link orders: 128 MB per int64 array
KERNEL_SLOTS = 2**15  # link slots per connectivity-kernel batch: a few MB of arrays at any B


@dataclass(frozen=True)
class LinkClass:
    """A category of physical link: distance plus failure/repair rates.
    Its id is its key in `Topology.classes`; it stores none itself."""

    distance_km: float
    mtbf_h: float
    mttr_h: float

    def __post_init__(self):
        for name in ("distance_km", "mtbf_h", "mttr_h"):
            value = getattr(self, name)  # from a document: maybe null, a string or Infinity
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and -math.inf < value < math.inf):
                raise SpecError(f"{name} must be a finite number, got {value!r}")
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
    def standard(cls, distance_km: float) -> "LinkClass":
        try:
            mtbf, mttr = STANDARD_LINK_SPECS[float(distance_km)]
        except KeyError:
            raise SpecError(f"no standard link indicators for {distance_km} km") from None
        return cls(float(distance_km), mtbf, mttr)


@dataclass(frozen=True)
class Link:
    """One row of `Topology.links`: an undirected link between flat node ids."""

    u: int
    v: int
    class_id: int


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

    `levels` entries are hypercube dimensions (int) or mappings from the
    parent prefix tuple to an explicit `DomainGraph`; a spec with such a
    mapping is asymmetric.  `classes` holds one link class per level, in
    level order: the links of recursion level m (1-based, level 1 =
    outermost interconnection links) belong to `classes[m - 1]`, class
    id m - 1.
    """

    levels: tuple
    classes: tuple[LinkClass, ...]

    def __post_init__(self):
        r = len(self.levels)
        if r < 1:
            raise SpecError("recursion spec needs at least one level")
        if r > MAX_HYPERCUBE_DIM:  # each level past 20 passes the node guard or adds nothing
            raise ResourceLimitError(f"{r} levels exceed the guard of {MAX_HYPERCUBE_DIM}")
        if len(self.classes) != r:
            raise SpecError(f"expected {r} link classes, one per level, got {len(self.classes)}")
        for d in self.levels:
            if isinstance(d, int):
                _check_dim(d)
            elif not isinstance(d, dict):  # such as a numpy integer
                raise SpecError(f"a level must be an int dimension or a dict of domains, got {d!r}")

    @property
    def r(self) -> int:
        return len(self.levels)

    @property
    def dims(self) -> tuple[int, ...]:
        if not _integer_from(self, 1):
            raise SpecError("asymmetric spec has no uniform dimension list")
        return tuple(self.levels)

    @staticmethod
    def _default_classes(r: int, distances=None) -> tuple[LinkClass, ...]:
        if distances is None:
            if r > len(DEFAULT_LEVEL_DISTANCES):
                raise SpecError(
                    f"{r} levels need an explicit class assignment "
                    f"(defaults cover {len(DEFAULT_LEVEL_DISTANCES)})"
                )
            distances = DEFAULT_LEVEL_DISTANCES[:r]
        return tuple(LinkClass.standard(d) for d in distances)

    @classmethod
    def symmetric(cls, dim: int, levels: int, distances=None) -> "RecursionSpec":
        return cls((dim,) * levels, cls._default_classes(levels, distances))

    @classmethod
    def semi(cls, dims, distances=None) -> "RecursionSpec":
        dims = tuple(dims)
        return cls(dims, cls._default_classes(len(dims), distances))

    @classmethod
    def asymmetric(cls, levels, distances=None) -> "RecursionSpec":
        return cls(tuple(levels), cls._default_classes(len(levels), distances))


@dataclass(frozen=True, eq=False)
class Topology:
    """A labeled node set plus a typed link set, held in read-only arrays.

    Node x is labeled by row x of `labels`, its hierarchical number (one
    digit per recursion level, most significant first).  Link j joins
    the flat nodes `ends[j]` and belongs to link class `class_id[j]`; a
    recursive topology's level-m links are class m - 1.  A topology is valid
    by construction: `__post_init__`, which `dataclasses.replace` runs
    too, freezes the arrays and checks them against `classes`.  Because
    the arrays cannot be written, data derived from them is computed
    once and kept on the object (`memo`), such as the sorted CSR
    adjacency.
    """

    kind: str
    labels: np.ndarray  # (N, r) int32
    ends: np.ndarray  # (L, 2) int32
    class_id: np.ndarray  # (L,) int32
    classes: dict[int, LinkClass]
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        """Freeze the arrays, then raise ConstructionError naming the first
        bad link, as a scan in link order checks each for a self-loop, a
        dangling end, a repeat of an earlier link and an unknown class, in
        that order."""
        if not isinstance(self.kind, str):
            raise SpecError(f"kind must be a string, got {self.kind!r}")
        for name in ("labels", "ends", "class_id"):
            arr = np.asarray(getattr(self, name), dtype=np.int32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
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
    def links(self) -> list[Link]:
        """Link objects, one per row; perfbench/tracer.py is their only reader."""
        return self.memo("links", lambda: [
            Link(*row) for row in np.column_stack((self.ends, self.class_id)).tolist()
        ])

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
            indices = np.sort(src * self.n_nodes + dst) % self.n_nodes  # one key: (src, dst)
            indptr.flags.writeable = indices.flags.writeable = False
            return indptr, indices
        return self.memo("csr", build)

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr()[0])

    def class_census(self) -> dict[int, int]:
        census = {cid: 0 for cid in sorted(self.classes)}
        ids, counts = np.unique(self.class_id, return_counts=True)
        census.update(zip(ids.tolist(), counts.tolist()))
        return census

    def is_connected(self) -> bool:
        return max_component_size(self, set()) == self.n_nodes

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """The version-3 document: JSON fields, and each integer array as base64
        int32 columns (`_LINK_COLUMNS`, then one column per label digit)."""
        return {
            "version": SERIALIZATION_VERSION,
            "kind": self.kind,
            "N": self.n_nodes,
            "classes": [{"class_id": cid, **vars(c)} for cid, c in sorted(self.classes.items())],
            "labels": [_to_base64(digit) for digit in self.labels.T],
            "links": dict(zip(_LINK_COLUMNS, map(_to_base64, (*self.ends.T, self.class_id)))),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        """Read a version-3 document; SpecError on any other version, on N or
        class ids that are not Python ints, on a column that `_from_base64`
        refuses, on labels that are not a non-empty list of columns of length
        N, on link columns of unequal length, on a missing key and on a value of
        the wrong JSON type.  Other keys, such as an earlier writer's `level`
        and `meta`, are ignored."""
        try:
            if doc.get("version") != SERIALIZATION_VERSION:
                raise SpecError(f"unsupported topology document version {doc.get('version')!r}; "
                                "rebuild the file with `topo build`")
            classes = {c["class_id"]: LinkClass(c["distance_km"], c["mtbf_h"], c["mttr_h"])
                       for c in doc["classes"]}
            if len(classes) != len(doc["classes"]):
                raise SpecError("class ids must be distinct")
            if any(type(cid) is not int for cid in classes):  # True == 1.0 == 1
                raise SpecError("class ids must hold integers")
            if type(doc["labels"]) is not list:  # a JSON object would iterate its keys
                raise SpecError("malformed topology document: labels must be a list of columns, "
                                f"got {type(doc['labels']).__name__}")
            labels = [_from_base64("label column", col) for col in doc["labels"]]
            if not labels:
                raise SpecError("node labels must be non-empty: one column per digit")
            wrong = [len(d) for d in labels if type(doc["N"]) is not int or len(d) != doc["N"]]
            if wrong:
                raise SpecError(f"N={doc['N']!r} but the document lists {wrong[0]} nodes: N must "
                                "be that integer, the length of every label column")
            columns = [_from_base64(f"link column {c}", doc["links"][c]) for c in _LINK_COLUMNS]
            if len(set(map(len, columns))) > 1:
                raise SpecError("link columns must all have one length")
            u, v, class_id = columns
            return cls(doc["kind"], np.column_stack(labels), np.column_stack((u, v)), class_id,
                       classes)
        except OverflowError as exc:  # a class field such as 10**400
            raise SpecError(f"topology document number out of range: {exc}") from None
        except (AttributeError, TypeError) as exc:  # a list where an object belongs, say
            raise SpecError(f"malformed topology document: {exc}") from None
        except KeyError as exc:
            raise SpecError(f"malformed topology document: no key {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        return cls.from_dict(json.loads(text))


_LINK_COLUMNS = ("u", "v", "class_id")


def _to_base64(words: np.ndarray) -> str:
    return binascii.b2a_base64(words.astype("<i4").tobytes(), newline=False).decode("ascii")


def _from_base64(what: str, text) -> np.ndarray:
    """The int32 words of one column; SpecError unless it is a string of
    strict base64 (padding only at the end) holding whole words."""
    if type(text) is not str:
        raise SpecError(f"{what} must be a base64 string, got {type(text).__name__}")
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SpecError(f"{what} is not valid base64: {exc}") from None
    if len(raw) % 4:
        raise SpecError(f"{what} holds {len(raw)} bytes, not whole int32 words")
    return np.frombuffer(raw, "<i4")


def _flat_topology(kind: str, ids: np.ndarray, ends: np.ndarray) -> Topology:
    """Validated topology on nodes labeled by `ids`, one link per row of
    `ends`, every link in one 5000 km class."""
    return Topology(kind, np.reshape(ids, (-1, 1)), ends, np.zeros(len(ends)),
                    {0: LinkClass.standard(5000.0)})


def _check_size(kind: str, n_nodes: int, n_links: int) -> None:
    """ResourceLimitError, raised before anything is allocated, unless the
    counts fit the node guard and the link guard (the link count of the
    largest integer-dims spec within the node guard: 2^20 nodes of degree 20)."""
    if n_nodes > MAX_RECURSIVE_NODES or n_links > MAX_RECURSIVE_NODES // 2 * MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(f"{kind} would have {n_nodes} nodes and {n_links} links")


def _check_run_length(name: str, value: int) -> None:
    """SpecError below 0; ResourceLimitError, raised before anything is
    allocated, unless a run's length (its per-cycle, per-round or
    per-sample arrays) fits the guard."""
    if value < 0:
        raise SpecError(f"{name} must be >= 0, got {value}")
    if value > MAX_RUN_LENGTH:
        raise ResourceLimitError(f"{name}={value} exceeds the guard of {MAX_RUN_LENGTH}")


def _check_dim(dim: int) -> None:
    if dim < 0:
        raise SpecError("dimension must be non-negative")
    if dim > MAX_HYPERCUBE_DIM:
        raise ResourceLimitError(f"dim={dim} exceeds the guard of {MAX_HYPERCUBE_DIM}")


def build_complete_hypercube(dim: int) -> Topology:
    """dim-dimensional hypercube: 2^dim nodes, links at Hamming distance 1."""
    _check_dim(dim)
    return _flat_topology("complete-hypercube", np.arange(2**dim), _hypercube_edges(dim))


def build_incomplete_hypercube(n: int) -> Topology:
    """Katseff's incomplete hypercube I(n): Q_d, d = ceil(log2 n), induced
    on nodes 0..n-1.  It is connected, as each node x > 0 links to x with
    its highest bit cleared."""
    if n < 1:
        raise SpecError("incomplete hypercube needs at least one node")
    dim = (n - 1).bit_length()
    _check_dim(dim)
    edges = _hypercube_edges(dim)
    return _flat_topology("incomplete-hypercube", np.arange(n), edges[edges[:, 1] < n])


def build_recursive(spec: RecursionSpec) -> Topology:
    """Hierarchical recursive topology: recursion then interconnection.

    Step 1 expands every level-(m-1) node into a domain carrying the
    level-m topology, extending node numbers by one digit.  Step 2
    wires, for each link (A,B) of the level-m topology, the node with
    local suffix s inside domain A to the node with the same suffix s
    inside domain B, for every suffix s.  The node and link counts are
    checked against the size guard before anything is allocated.
    """
    _check_size("recursive topology", *_count_below(spec, 1, ()))
    topo = Topology("recursive", *_build_below(spec, 1, ()), dict(enumerate(spec.classes)))
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
    """Labels (digits m..r), link ends and link class ids of the level-m
    domain below `prefix`, nodes numbered in lexicographic label order;
    the level-m links are class m - 1.

    Subdomain a is the block of nodes from start[a].  The links are
    those of each subdomain a in turn, shifted by start[a], then, for
    each level-m edge (a, b), the links from start[a] + s to
    start[b] + s for every suffix s: the order a depth-first expansion
    appends them in.  Below a run of integer levels every subdomain is
    the same graph, so it is built once and tiled.
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
        sub_labels, sub_ends, sub_class = _build_below(spec, m + 1, prefix + (0,))
        size = np.full(n_local, len(sub_labels), dtype=np.int32)
        n_sub_links = np.full(n_local, len(sub_ends), dtype=np.int32)
        sub_labels = np.tile(sub_labels, (n_local, 1))
        sub_ends = np.tile(sub_ends, (n_local, 1))
        sub_class = np.tile(sub_class, n_local)
    else:
        subs = [_build_below(spec, m + 1, prefix + (a,)) for a in range(n_local)]
        for a, b in local_edges.tolist():
            if not np.array_equal(subs[a][0], subs[b][0]):
                raise ConstructionError(
                    f"cannot interconnect domains {prefix + (a,)} and {prefix + (b,)}: "
                    "unequal local suffix sets"
                )
        sub_labels, sub_ends, sub_class = zip(*subs)
        size = np.fromiter(map(len, sub_labels), np.int32, n_local)
        n_sub_links = np.fromiter(map(len, sub_ends), np.int32, n_local)
        sub_labels, sub_ends, sub_class = map(np.concatenate, (sub_labels, sub_ends, sub_class))
    start = np.cumsum(size, dtype=np.int32) - size
    run = size[local_edges[:, 0]]  # suffixes bridged along each level-m edge
    suffix = np.arange(run.sum(), dtype=np.int32) - np.repeat(np.cumsum(run, dtype=np.int32) - run, run)
    labels = np.column_stack((np.repeat(np.arange(n_local, dtype=np.int32), size), sub_labels))
    ends = np.concatenate((sub_ends + np.repeat(start, n_sub_links)[:, None],
                           start[np.repeat(local_edges, run, axis=0)] + suffix[:, None]))
    class_id = np.concatenate((sub_class, np.full(len(suffix), m - 1, dtype=np.int32)))
    return labels, ends, class_id


def closed_form_link_count(spec: RecursionSpec) -> tuple[int, int]:
    """(nodes, links) of an integer-dims spec in closed form: 2^D nodes and
    2^D * D / 2 links, D = sum(dims); SpecError for an asymmetric spec."""
    D = sum(spec.dims)
    return 2**D, 2**D * D // 2


def build_rooted_tree(n: int, degree: int = 3) -> Topology:
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
    _check_size("rooted tree", n, n - 1)
    child = np.arange(1, n, dtype=np.int32)
    parent = np.maximum((child - 2) // (degree - 1), 0)
    return _flat_topology("rooted-tree", np.arange(n), np.stack([parent, child], axis=1))


def build_ring_lattice(n: int, degree: int) -> Topology:
    """Ring lattice: node i linked to i +- 1 .. i +- degree/2 (mod n)."""
    if degree % 2 != 0:
        raise SpecError("ring lattice degree must be even")
    if not 2 <= degree < n:
        raise SpecError("ring lattice requires 2 <= degree < n")
    _check_size("ring lattice", n, n * (degree // 2))
    i = np.arange(n, dtype=np.int32)[:, None]
    j = (i + np.arange(1, degree // 2 + 1, dtype=np.int32)) % n
    lo, hi = np.minimum(i, j).ravel(), np.maximum(i, j).ravel()
    order = np.lexsort((hi, lo))
    return _flat_topology("ring-lattice", np.arange(n), np.stack([lo[order], hi[order]], axis=1))


def build_star(n: int) -> Topology:
    """Star with node 0 as hub."""
    if n < 2:
        raise SpecError("star needs at least 2 nodes")
    _check_size("star", n, n - 1)
    leaves = np.arange(1, n)
    return _flat_topology("star", np.arange(n), np.stack([np.zeros_like(leaves), leaves], axis=1))


# -- connectivity ---------------------------------------------------------


def _chunk_rows(n_nodes: int, n_links: int) -> int:
    """Rows per kernel batch: at most KERNEL_SLOTS link slots and node slots."""
    return max(1, KERNEL_SLOTS // max(n_nodes, n_links))


def _component_roots(ends: np.ndarray, n: int, present: np.ndarray) -> np.ndarray:
    """Component root of every node of every row of a (B, L) present-link
    mask, as one (B * n,) array: node x of row b is b*n + x, and its root
    is the least node of its component.

    An absent link is a self-loop.
    """
    base = np.arange(0, len(present) * n, n)[:, None]
    a = base + ends[:, 0]
    a, b = a.ravel(), np.where(present, base + ends[:, 1], a).ravel()
    return _join_roots(np.arange(len(present) * n), a, b)


def _join_roots(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`label` after adding the edges a[e]-b[e] to the graph it labels:
    every label is the least node of its component, before and after.
    The array passed in may be overwritten.

    Each round hooks the larger root of every edge joining two roots to
    the smaller one, then pointer-jumps until every label is a root
    (min-label hooking, Shiloach & Vishkin 1982); an edge inside one
    component stays inside it and is dropped.
    """
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


def max_component_size(topology: Topology, failed_link_indices: set[int]) -> int:
    """Largest component size with the given link indices failed (fast path)."""
    present = np.ones((1, topology.n_links), dtype=bool)
    present[0, list(failed_link_indices)] = False
    return int(_max_comp_rows(topology.ends, topology.n_nodes, present)[0])


# one BFS level: (nodes in queue order, their parents, their child ranks)
Level = tuple[np.ndarray, np.ndarray, np.ndarray]


def _bfs_levels(indptr: np.ndarray, indices: np.ndarray, sources: list[int]) -> list[Level]:
    """The queue-order BFS trees from `sources`, one level at a time.

    Copy j of the n-node graph is searched from `sources[j]`; its node x
    is j*n + x, and the copies share only the level steps.  Each level
    lists its nodes in queue order with their parents and their 1-based
    rank among the parent's children, the copies in source order, each
    copy's nodes contiguous.  A FIFO queue over sorted adjacency lists
    dequeues a whole level before the next, so a node's parent is the
    first node of the level above, in queue order, to list it.
    Concatenating the frontier's neighbor slices in queue order and
    keeping each unseen node's first occurrence therefore gives exactly
    that tree, copy by copy.  Nodes that a source cannot reach are in
    no level of its copy.
    """
    n, k = len(indptr) - 1, len(sources)
    degree = np.diff(indptr)
    frontier = np.asarray(sources, dtype=np.int64) + n * np.arange(k)
    seen = np.zeros(k * n, dtype=bool)
    seen[frontier] = True
    # A node is a candidate in one level and a parent in the next, so these
    # need no reset: its first position among the level's candidates, and
    # the position of its first child in the level below.
    unset = np.iinfo(np.int64).max
    first = np.full(seen.size, unset)
    head = np.full(seen.size, unset)
    levels: list[Level] = []
    while True:
        local = frontier % n
        counts = degree[local]
        ends = np.cumsum(counts)
        slots = np.repeat(indptr[local] - ends + counts, counts)
        slots += np.arange(ends[-1])
        cand = indices[slots]
        cand += np.repeat(frontier - local, counts)  # into the lister's copy
        # index arrays, not boolean masks: numpy selects by index several
        # times faster when the mask's pattern is irregular
        fresh = (~seen[cand]).nonzero()[0]
        cand = cand[fresh]
        if not cand.size:
            break
        parents = np.repeat(frontier, counts)[fresh]
        pos = np.arange(cand.size)
        np.minimum.at(first, cand, pos)
        keep = (first[cand] == pos).nonzero()[0]
        nodes, parents = cand[keep], parents[keep]
        seen[nodes] = True
        pos = pos[: nodes.size]
        np.minimum.at(head, parents, pos)
        levels.append((nodes, parents, pos - head[parents] + 1))
        frontier = nodes
    return levels


# -- translation symmetry -------------------------------------------------


class Orbits(NamedTuple):
    """Link orbits of a node-transitive translation group: orbit o holds
    size[o] links, first[o] is its first link, and link j lies in orbit
    of_link[j]."""

    xor: bool  # translations x -> x ^ t (N = 2**D), else x -> x + t (mod N)
    first: np.ndarray
    size: np.ndarray
    of_link: np.ndarray


def _translation_orbits(topology: Topology) -> Orbits | None:
    """The link orbits of the translations of Z_2^D or of Z_N when they
    map the graph onto itself, read from the link arrays (not `kind`) and
    kept on the topology; None otherwise.

    XOR: N = 2**D and each mask u ^ v occurs N/2 times.  Circulant: each
    offset s = min((v - u) mod N, N - (v - u) mod N) occurs N times, or
    N/2 times when 2s = N.  Links never repeat, so each mask or offset
    class holds every pair {x, x ^ g} or {x, x + s}; every translation
    maps each class onto itself and is then an automorphism, transitive
    on the nodes, whose link orbits are exactly the classes.  XOR is
    tried first, so a graph of both kinds (the 4-cycle) gets its masks.
    """

    def find():
        n = topology.n_nodes
        u, v = topology.ends.T
        offset = (v - u) % n
        keys = [(True, u ^ v)] if not n & (n - 1) else []
        for xor, key in keys + [(False, np.minimum(offset, n - offset))]:
            values, first, of_link, size = np.unique(key, return_index=True,
                                                     return_inverse=True, return_counts=True)
            if (size == np.where(xor | (2 * values == n), n // 2, n)).all():
                return Orbits(xor, first, size, of_link)
        return None

    return topology.memo("orbits", find)
