"""Partition tolerance analysis.

Implements the closed-form steady state of the count chain over the
number of invalid links, a certified lower bound on the failed links of
any wrong state (edge connectivity and Fiedler's algebraic-connectivity
bound), an exact DP for forests of any link classes (t from its wrong
masses), hybrid exact/sampled estimation for other graphs (sampled
states share one batch of random link orders), the minimum-repair
strategy (repair every failed link up to a threshold, 0 or a class
MTTR, whose search also decides which failure sets are wrong), and
the hierarchical aggregation as a sum over recursion levels.  Queries
over many failed-link sets of one graph go through one batched numpy
connectivity kernel; random link orders evolve in lockstep batches.
Each order stops at the largest sampled state i_max: its critical
count is capped there, which leaves every estimate unchanged.  A batch
with fewer orders than links (ring(768,4) or ring(4096,12) at budget
50) folds each order's first L - i_max links with the connectivity
kernel before the lockstep steps; a batch with at least as many
(Table 3's ring(64,6) and Q4, the 64-cycle, at budget 4000) only
steps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, SpecError
from .topology import KERNEL_SLOTS, RecursionSpec, Topology, build_complete_hypercube
from .topology import _bfs_levels, _check_run_length, _chunk_rows, _component_roots, _join_roots
from .topology import Orbits, _max_comp_rows, _translation_orbits
from .unionfind import UnionFind  # noqa: F401  unused; perfbench/tracer.py patches this name

ENUM_CAP_DEFAULT = 2_000_000
TAIL_EPS = 1e-12  # single-class states with pi_i below this are skipped
UNDERFLOW_FLOOR = 1e-300
DENSE_MAX_NODES = 2048  # no cut bound above this many nodes without translation orbits
ORDER_SLOTS = 2**20  # order (and node) slots per lockstep batch: 4 MB per int32 array


def default_quorum(n_nodes: int) -> int:
    """Minimum good-partition size: floor(N/2) + 1."""
    return n_nodes // 2 + 1


def _quorum(topology: Topology, k: int | None) -> int:
    """`k`, or the default quorum when it is None; SpecError outside [1, N]."""
    if k is None:
        return default_quorum(topology.n_nodes)
    if not 1 <= k <= topology.n_nodes:
        raise SpecError(f"quorum k={k} outside [1, N={topology.n_nodes}]")
    return k


@dataclass(frozen=True)
class StateEstimate:
    """Estimate of P{wrong partition | i invalid links} for one state."""

    i: int
    pi_i: float
    p_wrong: float
    stderr: float
    n_samples: int
    method: str  # "exact" | "sampled" | "skipped"


@dataclass
class PartitionReport:
    p: float
    stderr: float
    t: float | None
    per_state: list[StateEstimate]
    method: str
    k: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise NumericError(f"partition tolerance probability {self.p} outside [0,1]")
        if self.t is not None and self.t < 0:
            raise NumericError("negative repair time")


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _log_binom_pmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    logc = math.lgamma(n + 1) - (_lgamma(k + 1) + _lgamma(n - k + 1)).astype(float)
    return logc + k * math.log(p) + (n - k) * math.log1p(-p)


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    """Stable Binomial(n, p) pmf over 0..n; tiny masses flushed to 0."""
    if n == 0:
        return np.array([1.0])
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    logpmf = _log_binom_pmf(np.arange(n + 1, dtype=float), n, p)
    out = np.exp(logpmf)
    out[out < UNDERFLOW_FLOOR] = 0.0
    return out


def _check_enum_cap(enum_cap: int) -> None:
    if enum_cap < 0:
        raise SpecError(f"enum_cap must be >= 0, got {enum_cap}")


def _single_class_id(topology: Topology) -> int | None:
    used = np.unique(topology.class_id)
    return int(used[0]) if len(used) == 1 else None


def _class_values(topology: Topology, value) -> np.ndarray:
    """value(link class) of each link."""
    ids, inverse = np.unique(topology.class_id, return_inverse=True)
    return np.array([value(topology.classes[c]) for c in ids.tolist()], dtype=float)[inverse]


def _cut_lower_bound(topology: Topology, k: int) -> int:
    """Certified c_lb: every wrong state (largest component below k, for
    1 <= k <= N) fails at least c_lb links.

    c_lb = max(kappa, ceil(lam2 * (N - k + 1) / 2)).  A wrong state
    splits the nodes into parts of s_j <= k - 1 nodes and fails every
    link between parts, and each part has at least lam2 s_j (N - s_j) / N
    boundary links (Fiedler 1973; Mohar 1989), so it fails at least
    half their sum >= lam2 (N - k + 1) / 2 links.  lam2 is the second
    least Laplacian eigenvalue.  A graph with translation orbits (see
    `_translation_orbits`) takes lam2 from its character sums at any N
    (`_character_lam2`), and it is vertex-transitive, so kappa = delta
    when it is connected, lam2 > 0 (Mader 1971; Godsil & Royle, Thm
    3.3.1), and 0 when it is not.  Every other graph has no bound above
    DENSE_MAX_NODES; below, lam2 comes from a dense solve less a
    backward-error margin, and the max-flow kappa is skipped when the
    Fiedler term reaches the minimum degree (kappa <= delta).  The
    quorum-free facts (lam2 and the max-flow kappa) are kept on the
    topology.
    """
    n, ends = topology.n_nodes, topology.ends
    degree = np.bincount(ends.ravel(), minlength=n)
    delta = int(degree.min())
    half = (n - k + 1) / 2
    orbits = _translation_orbits(topology)
    if orbits is not None:
        lam2 = topology.memo("lam2", lambda: _character_lam2(n, ends, orbits))
        return max(math.ceil(lam2 * half), delta) if lam2 > 0 else 0
    if n > DENSE_MAX_NODES:
        return 0
    lam2 = topology.memo("lam2", lambda: _algebraic_connectivity_lb(ends, degree))
    fiedler = math.ceil(max(lam2, 0.0) * half)
    if fiedler >= delta:
        return fiedler
    return max(fiedler, topology.memo("kappa", lambda: _edge_connectivity(topology)))


def _character_lam2(n: int, ends: np.ndarray, orbits: Orbits) -> float:
    """lam2 of the Laplacian of a graph with translation orbits, from the
    character sums of its abelian group (Godsil & Royle, Algebraic Graph
    Theory); 0 on one node.

    Character j != 0 has Laplacian eigenvalue the sum of one term per
    orbit; j = 0 gives 0.  On Z_2^D the orbit of mask g adds
    1 - (-1)^popcount(j & g), so lam2 is twice the least count of masks
    with popcount(j & g) odd, exactly.  On Z_N the orbit of offset s adds
    2 - 2 cos(2 pi j s / N) = 4 sin^2(pi ((j s) mod N) / N), half that
    when 2s = N (one link per node).  Reducing j s mod N keeps the lam2
    of a disconnected circulant exactly 0, and lam2 is returned less
    1e-9 of itself, far above the few roundings of each nonnegative term
    and of their sum.
    """
    if n < 2:
        return 0.0
    u, v = ends[orbits.first].T
    j = np.arange(1, n)
    eig = np.zeros(n - 1)
    if orbits.xor:
        for g in (u ^ v).tolist():
            eig += 2 * (np.bitwise_count(j & g) & 1)
        return float(eig.min())
    for s in ((v - u) % n).tolist():
        eig += (2 if 2 * s == n else 4) * np.sin(np.pi * (j * s % n) / n) ** 2
    return float(eig.min()) * (1 - 1e-9)


def _algebraic_connectivity_lb(ends: np.ndarray, degree: np.ndarray) -> float:
    """lam2 of the Laplacian from a dense symmetric solve, less a backward-
    error margin of 1e-9 * N * 2 * max degree (2 * max degree bounds the
    Laplacian's norm); N >= 2."""
    n = len(degree)
    lap = np.diag(degree.astype(float))
    np.add.at(lap, (ends[:, 0], ends[:, 1]), -1.0)
    np.add.at(lap, (ends[:, 1], ends[:, 0]), -1.0)
    return float(np.linalg.eigvalsh(lap)[1]) - 1e-9 * n * 2 * int(degree.max())


def _edge_connectivity(topology: Topology) -> int:
    """Exact edge connectivity.

    kappa = min(delta, min over t in D of the max s-t flow), where s has
    minimum degree delta and D is any dominating set containing s: when
    kappa < delta both sides of a minimum cut hold a node of D (Matula
    1987; Esfahanian & Hakimi 1984).  D is grown greedily: each node
    still undominated, in order, adds the member of its closed
    neighbourhood that dominates the most undominated nodes.  Each flow
    stops once it reaches the least cut found so far.
    """
    n = topology.n_nodes
    arcs, head = _arc_lists(topology)
    closed = [[x] + [head[a] for a in arcs[x]] for x in range(n)]
    s = min(range(n), key=lambda x: len(arcs[x]))
    best = len(arcs[s])
    dominated = [False] * n

    def undominated(c: int) -> int:
        return sum(not dominated[z] for z in closed[c])

    targets = []
    for x in itertools.chain([s], range(n)):
        if not dominated[x]:
            y = max(closed[x], key=undominated) if targets else s
            targets.append(y)
            for z in closed[y]:
                dominated[z] = True
    for t in targets[1:]:
        if best == 0:
            break
        best = _max_flow(s, t, arcs, head, best)
    return best


def _arc_lists(topology: Topology) -> tuple[list[list[int]], list[int]]:
    """Outgoing arcs of each node and the head of each arc.

    Arc 2j runs u -> v along link j and arc 2j + 1 runs v -> u, so arc
    a ^ 1 is the reverse of arc a.
    """
    tail = topology.ends.ravel()
    order = np.argsort(tail, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(tail, minlength=topology.n_nodes)).tolist()
    arcs = [order[lo:hi] for lo, hi in zip([0] + bounds, bounds)]
    return arcs, topology.ends[:, ::-1].ravel().tolist()


def _max_flow(s: int, t: int, arcs, head, cap: int) -> int:
    """Number of link-disjoint s-t paths, counted up to `cap`.

    Each link carries one unit either way.  Each path is a BFS
    augmenting path: an arc can take a unit unless it carries one, and
    sending a unit along an arc whose reverse carries one cancels it.
    """
    flow = bytearray(len(head))
    for paths in range(cap):
        pred = [-1] * len(arcs)
        pred[s] = -2
        queue = [s]
        for x in queue:
            for a in arcs[x]:
                y = head[a]
                if pred[y] == -1 and not flow[a]:
                    pred[y] = a
                    queue.append(y)
            if pred[t] != -1:
                break
        else:
            return paths
        y = t
        while y != s:
            a = pred[y]
            if flow[a ^ 1]:
                flow[a ^ 1] = 0
            else:
                flow[a] = 1
            y = head[a ^ 1]
    return cap


def _repair_times(topology: Topology, k: int, mttr_of: np.ndarray, failed: np.ndarray):
    """Least repair time of each row of a (B, L) failed-link mask, link j
    taking mttr_of[j] hours; 0.0 for a row that needs no repair.

    The plan repairs every failed link whose MTTR is at most a threshold
    T.  Each row gets the least T of 0 and the class MTTRs T_1 < ... < T_m
    that restores a component of k nodes; every MTTR is positive, so T = 0
    repairs nothing and decides which rows are wrong.  A T between two of
    a row's failed-link MTTRs leaves the same links failed as the lower
    one.  Raises `NumericError` if a row is wrong with every link repaired.
    """
    times = np.empty(len(failed))
    if not len(failed):
        return times
    todo = np.arange(len(failed))
    for T in [0.0, *np.unique(mttr_of).tolist()]:
        ok = _max_comp_rows(topology.ends, topology.n_nodes, ~(failed[todo] & (mttr_of > T))) >= k
        times[todo[ok]] = T
        todo = todo[~ok]
        if not todo.size:
            return times
    raise NumericError("repairing all failed links did not restore a good partition")


def _exact_state(
    topology: Topology, i: int, k: int, c_lb: int, enum_cap: int, pi_i: float
) -> StateEstimate | None:
    """Exact P{wrong | i} for 1 <= i <= L, or None when C(L, i) > enum_cap.

    `c_lb` is a certified lower bound on the failed links of any wrong
    state (0 when unknown): every state below it is an exact zero.  On a
    graph with translation orbits (see `_translation_orbits`) the wrong
    i-subsets that hold link e number the same W(e) for every e of an
    orbit, so i * #wrong = sum over orbits O of |O| * W(e_O): when
    #orbits * i < L, the #orbits * C(L-1, i-1) subsets holding some
    e_O are fewer than the C(L, i) that are otherwise all enumerated.
    """
    if i < c_lb:
        return StateEstimate(i, pi_i, 0.0, 0.0, 0, "exact")
    L = topology.n_links
    n_subsets = math.comb(L, i)
    if n_subsets > enum_cap:
        return None
    orbits = _translation_orbits(topology)
    if orbits is None or len(orbits.first) * i >= L:
        wrong = _wrong_subsets(topology, k, [], range(L), i)
    else:
        total = sum(size * _wrong_subsets(topology, k, [e], [*range(e), *range(e + 1, L)], i - 1)
                    for e, size in zip(orbits.first.tolist(), orbits.size.tolist()))
        wrong, rest = divmod(total, i)
        if rest:
            raise NumericError(f"orbit sum {total} of wrong {i}-subsets not divisible by {i}")
    return StateEstimate(i, pi_i, wrong / n_subsets, 0.0, n_subsets, "exact")


def _wrong_subsets(topology: Topology, k: int, fixed: list[int], pool, r: int) -> int:
    """Number of wrong failure sets that are the links `fixed` plus an
    r-subset of the links `pool` (r = 0 gives the one empty subset)."""
    L, n = topology.n_links, topology.n_nodes
    n_rows = math.comb(len(pool), r)
    combos = itertools.combinations(pool, r)
    step = _chunk_rows(n, L)
    wrong = 0
    for lo in range(0, n_rows, step):
        rows = min(step, n_rows - lo)
        chunk = itertools.chain.from_iterable(itertools.islice(combos, rows))
        idx = np.fromiter(chunk, dtype=np.intp, count=rows * r).reshape(rows, r)
        failed = np.zeros((rows, L), dtype=bool)
        failed[:, fixed] = True
        np.put_along_axis(failed, idx, True, axis=1)
        wrong += int(np.count_nonzero(_max_comp_rows(topology.ends, n, ~failed) < k))
    return wrong


def _estimate_states(
    topology: Topology, k: int, states: list[tuple[int, float]], budget: int, seed, enum_cap: int
) -> tuple[list[StateEstimate], float]:
    """Estimates of P{wrong | i} for the (i, pi_i) pairs of `states`, all i >= 1,
    and the variance of their sum of pi_i * P{wrong | i}.

    A state is exact below the cut bound c_lb or when its C(L, i)
    subsets fit `enum_cap`; every other state reads the same `budget`
    random link orders.  Those orders are read only through 1[c* <= i]
    and the sum of pi_i over sampled i >= c*, for sampled i up to the
    largest, i_max, so their critical counts are capped at i_max + 1:
    every row and the variance are the same as with the full counts,
    and an order stops once its first L - i_max links make a k-node
    component.  On ring(768,4) at budget 50 (i_max = 52, k = 385, every
    c* >= 122 over seeds 1-20) no order steps past its first L - 52 links:
    its batch holds fewer orders than links, so the kernel folds those
    links, while Table 3's ring(64,6) and Q4 and the 64-cycle at budget
    4000 (at least as many orders as links) step through every link
    (see `_links_added`).
    """
    c_lb = _cut_lower_bound(topology, k)
    est = [_exact_state(topology, i, k, c_lb, enum_cap, pi_i) for i, pi_i in states]
    sampled = [j for j, e in enumerate(est) if e is None]
    if not sampled:
        return est, 0.0
    if budget < 1:
        raise SpecError(f"{len(sampled)} states need sampling but the budget is {budget}")
    L = topology.n_links
    c_star = _critical_counts(topology, k, budget, seed, max(states[j][0] for j in sampled))
    n_wrong = np.cumsum(np.bincount(c_star, minlength=L + 2))  # orders with c* <= i
    sampled_pi = np.zeros(L + 2)
    for j in sampled:
        i, pi_i = states[j]
        p_i = int(n_wrong[i]) / budget
        se = math.sqrt(p_i * (1.0 - p_i) / budget)
        est[j] = StateEstimate(i, pi_i, p_i, se, budget, "sampled")
        sampled_pi[i] = pi_i
    # The states share their orders, so their errors are correlated:
    # the variance is that of W_b = sum of pi_i over sampled i >= c*_b.
    w = np.cumsum(sampled_pi[::-1])[::-1][c_star]
    return est, float(np.var(w)) / budget


def _critical_counts(topology: Topology, k: int, budget: int, seed, cap: int) -> np.ndarray:
    """Critical failure count c* of each of `budget` random link orders,
    capped: min(c*, cap + 1) for a cap >= 0.

    One order is one graph-evolution pass (Elperin, Gertsbakh &
    Lomonosov 1991): links join an empty union-find in order until some
    component reaches k nodes, after `added` links.  Failing the last i
    links of the order leaves a wrong partition exactly when
    i >= c* = L - added + 1 (c* = 0 when the intact graph has no such
    component, L + 1 when k = 1).  The last i links of a uniform order
    form a uniform i-subset, so 1[c* <= i] is one draw of P{wrong | i}
    for every i at once.  A caller that reads 1[c* <= i] only for
    i <= cap learns nothing from c* above cap + 1, and an order with
    c* > cap is done once its first L - cap links make a k-node
    component.  The orders go through in batches of at most ORDER_SLOTS
    order (and node) slots, every order of a batch adding its next link
    at the same step; a batch with fewer orders than links (ring(768,4),
    Q12 at budget 50) first folds those L - cap links with the
    connectivity kernel, and a wider one (ring(64,6), Q4, the 64-cycle
    at budget 4000) does not (see `_links_added`).  A batch is an int32
    (L, B) array of uniform column permutations, drawn `_chunk_rows`
    orders at a time at pointer width, where numpy's shuffle is fastest
    (ring(64,6)'s 4000 orders: 11 ms, against 17 ms at int32); the
    chunks read the stream in order, as one `rng.permutation(L)` per
    order does, and only a chunk is ever held at pointer width.
    """
    L, n = topology.n_links, topology.n_nodes
    if k == 1:
        return np.full(budget, min(L, cap) + 1, dtype=np.int64)
    out = np.full(budget, L + 1, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    links = np.arange(L, dtype=np.intp)[:, None]
    step, chunk = max(1, ORDER_SLOTS // max(n, L)), _chunk_rows(n, L)
    for lo in range(0, budget, step):
        batch = np.empty((L, min(step, budget - lo)), dtype=np.int32)
        for c in range(0, batch.shape[1], chunk):
            part = batch[:, c:c + chunk]
            part[...] = rng.permuted(np.broadcast_to(links, part.shape), axis=0)
        out[lo:lo + batch.shape[1]] -= _links_added(topology.ends, n, k, batch, cap)
    return out


def _links_added(ends: np.ndarray, n: int, k: int, batch: np.ndarray, cap: int) -> np.ndarray:
    """Links each column of an (L, B) batch of link orders adds to an empty
    graph, up to the one that makes a k-node component (L + 1 if none
    does), raised to L - cap: an order that makes one within its first
    L - cap links reads L - cap.

    Node x of order b is b*n + x.  A narrow batch (B < L) first folds
    those L - cap links into component labels with the connectivity
    kernel `_join_roots`, in blocks that end at (k - 1) * 2**j links (no
    order can finish within fewer than k - 1): an order drops out at the
    end of the first block that gives it a k-node component.  Only the
    orders still short of k go on, from their folded labels, through
    the per-step loop `_add_in_lockstep` over their last cap links.
    Measured by direct timing of `_critical_counts` on a 2-core Xeon, at
    50 orders and the cap `partition_tolerance` passes: ring(768,4), cap
    52, went 0.092 -> 0.015 s (the loop runs no step), Q12, cap 385,
    0.30 -> 0.08 s, and ring(4096,12), cap 385, 1.06 -> 0.12 s.  The
    blocks matter on dense graphs: K64 (k = 33, cap 30) at 500 orders
    takes 0.041 s with them, as the loop alone did, and 0.13 s with one
    kernel pass over the whole prefix.  A wide batch (B >= L: Table 3's
    ring(64,6) and Q4 and the 64-cycle, all at 4000 orders) runs the loop
    from the empty graph, because there the fold does more edge work
    than the steps it saves: folding them took ring(64,6) from 25 to
    72 ms, Q4 from 4.0 to 10.9 ms and the 64-cycle from 16 to 34 ms.
    """
    L, B = batch.shape
    ends = np.ascontiguousarray(ends.T)
    prefix = max(L - cap, 0) if B < L else 0
    live = np.arange(B, dtype=np.int32)
    label = np.arange(B * n, dtype=np.int32)
    size = np.ones(B * n, dtype=np.int32)
    hi = 0
    while hi < prefix and live.size:
        lo, hi = hi, min(max(2 * hi, k - 1), prefix)
        a, b = ends[:, batch[lo:hi, live]] + live * n
        label = _join_roots(label, a.ravel(), b.ravel())
        size = np.bincount(label, minlength=B * n).astype(np.int32)
        live = live[size.reshape(B, n)[live].max(1) < k]
    added = np.full(B, prefix, dtype=np.int64)
    added[live] = L + 1
    if live.size:
        _add_in_lockstep(ends, n, k, batch, prefix, label, size, live, added)
    return np.maximum(added, L - cap, out=added)


def _add_in_lockstep(ends, n: int, k: int, batch: np.ndarray, start: int,
                     parent: np.ndarray, size: np.ndarray, live: np.ndarray,
                     added: np.ndarray) -> None:
    """From step `start` on, every order of `live` (columns of the (L, B)
    `batch`, none with a k-node component yet) adds its next link to the
    union-find forest `parent`/`size` of all the orders' nodes; an order
    that makes a k-node component at step j gets added = j + 1.

    Both roots of a link are found by pointer chasing, and union by size
    keeps every tree at most log2(n) deep.  `ends` is the (2, L) array.
    Every gather is a `take` from a 1-D array (or along the link axis of
    `ends`): at 4000 live orders `ends[:, batch[j, live]]` takes 49 us,
    the `take` 12 us.  `live` and its node offsets stay int32.
    """
    L = batch.shape[0]
    base = live * n
    for j in range(start, L):
        x = np.take(ends, batch[j].take(live), axis=1) + base
        while True:
            up = parent.take(x)
            if np.array_equal(up, x):
                break
            x = up
        a, b = x
        join = np.flatnonzero(a != b)
        a, b = a.take(join), b.take(join)
        sa, sb = size.take(a), size.take(b)
        big = np.where(sa >= sb, a, b)
        parent[a + b - big] = big
        sa += sb  # an order joins at most one pair per step: no root is twice in `big`
        size[big] = sa
        done = join[sa >= k]
        if done.size:
            added[live[done]] = j + 1
            live, base = np.delete(live, done), np.delete(base, done)
            if not live.size:
                return


def partition_tolerance(
    topology: Topology,
    k: int | None = None,
    budget: int = 20000,
    seed: int = 0,
    enum_cap: int = ENUM_CAP_DEFAULT,
) -> PartitionReport:
    """Overall partition tolerance probability and average minimum repair time.

    Raises `NumericError` when the intact graph has no component of k
    nodes.  A forest (L = N - #components, so also a graph with no
    links) of any link classes is solved exactly by `_forest_wrong_mass`,
    t included, with no per-state rows.  Other single-class topologies
    weight per-state conditional estimates by the count chain's
    closed-form steady state Binomial(L, q), q = lambda/(lambda+mu):
    p = 1 - sum_i pi_i * P{wrong|i}.  States with pi_i below TAIL_EPS
    are skipped.  A state is exact below the cut bound c_lb (see
    `_cut_lower_bound`) or when its C(L, i) subsets fit `enum_cap`;
    every other state reads the same `budget` random link orders.
    Other mixed-class topologies draw each class's failure count per
    row (`_sample_link_states`); only rows with at least c_lb failures
    place them and go to the repair search, which picks the wrong ones.
    """
    k = _quorum(topology, k)
    _check_enum_cap(enum_cap)
    _check_run_length("budget", budget)
    L, N = topology.n_links, topology.n_nodes
    sizes = np.bincount(_component_roots(topology.ends, N, np.ones((1, L), dtype=bool)))
    if sizes.max() < k:
        raise NumericError("repairing all failed links did not restore a good partition")

    if L == N - np.count_nonzero(sizes):  # a forest; a graph with no links is one
        q, mttr_of = _down_probs(topology), _class_values(topology, lambda c: c.mttr_h)
        wrong_mass, t = _forest_wrong_mass(topology, k, q), None
        if wrong_mass > 0:  # t averages the class MTTRs: rounding may not lift it past T_m
            T = np.unique(mttr_of).tolist()
            W = [_forest_wrong_mass(topology, k, np.where(mttr_of <= x, 0.0, q)) for x in T[:-1]]
            t = min(T[0] + sum((b - a) * w / wrong_mass for a, b, w in zip(T, T[1:], W)), T[-1])
        per_state, var, method = [], 0.0, "exact-tree"
    elif (cid := _single_class_id(topology)) is None:
        wrong_mass, var, t, per_state = _sample_link_states(topology, k, budget, seed)
        method = "sampled"
    else:
        cls = topology.classes[cid]
        pi = binom_pmf_vector(L, cls.steady_down_prob).tolist()
        kept = [(i, pi[i]) for i in range(1, L + 1) if pi[i] >= TAIL_EPS]
        skipped = [StateEstimate(i, pi[i], 0.0, 0.0, 0, "skipped") for i in range(1, L + 1)
                   if pi[i] < TAIL_EPS]
        estimated, var = _estimate_states(topology, k, kept, budget, seed, enum_cap)
        per_state = sorted(estimated + skipped, key=lambda e: e.i)
        wrong_mass = sum(e.pi_i * e.p_wrong for e in estimated)
        t = cls.mttr_h if wrong_mass > 0 else None
        methods = {e.method for e in estimated}
        method = methods.pop() if len(methods) == 1 else "hybrid"
    p = min(max(1.0 - wrong_mass, 0.0), 1.0)
    return PartitionReport(p, math.sqrt(var), t, per_state, method, k)


def _forest_wrong_mass(topology: Topology, k: int, q: np.ndarray) -> float:
    """P{every component has fewer than k nodes} for a forest whose link
    j is down with probability q[j], independently.

    One BFS walks every tree from its least node: it starts at a virtual
    node n listing those roots in ascending order, and its first level,
    the roots, is dropped.  Each tree is folded bottom-up (Gertsbakh &
    Shpungin 2010).  Node x carries the distribution of the size of its
    open component, the part of its subtree still joined to x, given
    that every component its subtree has closed off is below k; sizes
    from k up are dropped.  Child c joins its parent x through link e:
    when e is up the two sizes add (a convolution cut at k), when e is
    down c's component closes, with probability c.sum() of being below
    k.  The wrong mass is the product over the trees, in root order, of
    the root sums, with no 1 - p cancellation.

    The mean least repair time t of a wrong state follows from wrong
    masses, on any graph: a state needs more than T_j to repair exactly
    when its failed links of MTTR above T_j alone leave it wrong, so
    t = T_1 + sum_{j<m} (T_{j+1} - T_j) W_j / W_0 over the class MTTRs
    T_1 < ... < T_m, W_j the wrong mass with q = 0 where MTTR <= T_j.
    """
    n = topology.n_nodes
    indptr, indices = topology.csr()
    label = _component_roots(topology.ends, n, np.ones((1, topology.n_links), dtype=bool))
    roots = (label == np.arange(n)).nonzero()[0]
    levels = _bfs_levels(np.append(indptr, indptr[-1] + roots.size),
                         np.concatenate((indices, roots)), [n])
    parent = np.empty(n, dtype=np.int64)  # a root's parent is the virtual node n
    for nodes, parents, _ in levels:
        parent[nodes] = parents
    # Every link joins a node to its BFS parent; q_up[x] is x's link's q.
    u, v = topology.ends.T
    q_up = np.empty(n)
    q_up[np.where(parent[u] == v, u, v)] = q
    q_up = q_up.tolist()
    dist = [np.array([0.0, 1.0])[:k] for _ in range(n)]  # P{open size = s}, s < k
    for nodes, parents, _ in reversed(levels[1:]):
        for c, x in zip(nodes.tolist(), parents.tolist()):
            a, b, qe = dist[x], dist[c], q_up[c]
            merged = np.convolve(a, b)[:k] * (1.0 - qe)
            merged[:len(a)] += a * (qe * b.sum())
            dist[x] = merged
    return math.prod(float(dist[root].sum()) for root in roots.tolist())


def _down_probs(topology: Topology) -> np.ndarray:
    """Steady-state down probability lambda/(lambda+mu) of each link."""
    return _class_values(topology, lambda c: c.steady_down_prob)


def _sample_link_states(topology: Topology, k: int, budget: int, seed: int):
    """(wrong mass, its variance, t, per-state rows) of `budget` draws of
    all link states, each link down with its class's steady-state q.

    A row fails n_c links of class c, the Binomial(|M_c|, q_c) cdf
    inverted at a uniform of the stream (seed, 0), in blocks whose
    uniforms and counts fit KERNEL_SLOTS.  Rows below c_lb failures are
    good; a `_chunk_rows` chunk with one at or above draws keys from the
    stream (seed, 1, its first row), and such a row fails the n_c
    least-key links of each class, a uniform subset, for `_repair_times`.
    So c_lb changes no draw, and a more reliable class fails a subset.
    """
    if budget < 1:
        raise SpecError(f"a graph with several link classes is sampled but the budget is {budget}")
    L = topology.n_links
    q, mttr_of = _down_probs(topology), _class_values(topology, lambda c: c.mttr_h)
    step = _chunk_rows(topology.n_nodes, L)
    c_lb = _cut_lower_bound(topology, k)
    members = [np.flatnonzero(topology.class_id == c) for c in np.unique(topology.class_id)]
    cdfs = [np.cumsum(binom_pmf_vector(m.size, q[m[0]]))[:-1] for m in members]
    block = step * max(1, KERNEL_SLOTS // (2 * step * len(cdfs)))

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    n_of = np.zeros(L + 1, dtype=np.int64)
    wrong_of = np.zeros(L + 1, dtype=np.int64)
    t_sum_total = 0.0
    for start in range(0, budget, block):
        counts = [np.searchsorted(cdf, x, "right")  # blocks read the stream in order
                  for cdf, x in zip(cdfs, rng.random((min(block, budget - start), len(cdfs))).T)]
        n_failed = sum(counts)
        n_of += np.bincount(n_failed, minlength=L + 1)
        for lo in np.unique(np.flatnonzero(n_failed >= c_lb) // step * step).tolist():
            rows = lo + np.flatnonzero(n_failed[lo:lo + step] >= c_lb)
            place = np.random.default_rng(np.random.SeedSequence((seed, 1, start + lo)))
            down = np.empty((rows.size, L), dtype=bool)
            for links, n_c in zip(members, counts):
                keys = place.random((min(step, n_failed.size - lo), links.size))[rows - lo]
                edge = np.append(np.sort(keys, axis=1), np.ones((rows.size, 1)), axis=1)
                down[:, links] = keys < np.take_along_axis(edge, n_c[rows, None], axis=1)
            times = _repair_times(topology, k, mttr_of, down)
            wrong_of += np.bincount(n_failed[rows[times > 0]], minlength=L + 1)
            for t in times.tolist():  # a good row adds its 0.0: the sum is unchanged
                t_sum_total += t
    wrong_total = int(wrong_of.sum())
    p_wrong = wrong_total / budget
    per_state = []
    for i in np.flatnonzero(n_of).tolist():
        n = int(n_of[i])
        pw = int(wrong_of[i]) / n
        per_state.append(
            StateEstimate(i, n / budget, pw, math.sqrt(pw * (1 - pw) / n), n, "sampled")
        )
    t = (t_sum_total / wrong_total) if wrong_total else None
    return p_wrong, p_wrong * (1.0 - p_wrong) / budget, t, per_state


# -- hierarchical aggregation ------------------------------------------


@dataclass(frozen=True)
class AggregateResult:
    p: float
    t: float | None


def analyze_hierarchical(spec: RecursionSpec, budget: int = 20000,
                         seed: int = 0) -> AggregateResult:
    """(p, t) of a symmetric/semi-symmetric recursive topology via
    per-level analysis of each level's hypercube plus path aggregation.

    Every level-m domain is the level's hypercube with that level's
    link class and its own quorum floor(2^dim / 2) + 1.  Level m has
    prod_{j<m} 2^{d_j} domains, each reached when every ancestor holds,
    so it adds prod_{j<m} 2^{d_j} p_j * (1 - p_m) to 1 - p; t is the
    repair-time average weighted by those terms.  The sum is a
    union-style first-order expansion and may exceed 1; p is then 0.
    """
    if not all(isinstance(d, int) for d in spec.levels):
        raise SpecError("hierarchical aggregation needs a symmetric or semi-symmetric spec")
    raw = t_mass = 0.0
    reach = 1.0  # prod_{j<m} 2^{d_j} p_j
    for m, (dim, cls) in enumerate(zip(spec.dims, spec.classes), start=1):
        cube = replace(build_complete_hypercube(dim), classes={0: cls})
        report = partition_tolerance(cube, budget=budget, seed=seed + m)
        weight = reach * (1.0 - report.p)
        if weight > 0.0:
            raw += weight
            t_mass += weight * report.t
        reach *= 2**dim * report.p
    t = t_mass / raw if raw > 0.0 else None
    return AggregateResult(1.0 - min(raw, 1.0), t)
