"""Partition tolerance analysis.

Implements the closed-form steady state of the count chain over the
number of invalid links, a certified lower bound on the failed links of
any wrong state (edge connectivity and Fiedler's algebraic-connectivity
bound), an exact DP for forests of any link classes (t from its wrong
masses), hybrid exact/sampled estimation for other graphs (sampled
states share one batch of random link orders), the minimum-repair
strategy (repair every failed link up to a threshold, 0 or a class
MTTR, whose search also decides which failure sets are wrong), and
the hierarchical aggregation as a sum over recursion levels.  Random
link orders evolve in lockstep batches.  Critical counts are capped at
the largest sampled state i_max, which leaves every estimate unchanged,
so only each order's last i_max links are drawn; the rest join first, a
spanning BFS forest (walked once per topology by one FIFO queue) a level
a step.  Every set of failed links, enumerated for an exact state or
sampled and searched for its repair threshold, goes through the same
forest kernel (`_wrong_sets`), in batches.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, SpecError
from .topology import RecursionSpec, Topology, build_complete_hypercube
from .topology import Orbits, _check_run_length, _intact_labels, _join_roots, _translation_orbits
from .unionfind import UnionFind  # noqa: F401  unused; perfbench/tracer.py patches this name

ENUM_CAP_DEFAULT = 2_000_000
TAIL_EPS = 1e-12  # single-class states with pi_i below this are skipped
UNDERFLOW_FLOOR = 1e-300
DENSE_MAX_NODES = 2048  # no cut bound above this many nodes without translation orbits
ORDER_SLOTS = 2**20  # order (and node) slots per lockstep batch: 4 MB per int32 array
KERNEL_SLOTS = 2**15  # link (and node) slots per placement chunk or component count: a few MB


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
    """Stable Binomial(n, p) pmf over 0..n; masses below UNDERFLOW_FLOOR
    flushed to 0.

    The log pmf is evaluated only on the window `_pmf_window` around the
    mode; every k outside it would be flushed.  On a 2-core Xeon, against
    all n + 1 states: n = 1536 0.52 -> 0.13 ms, n = 5 242 880 2.2 s ->
    6 ms.
    """
    out = np.zeros(n + 1)
    if p <= 0.0 or n == 0:
        out[0] = 1.0
        return out
    if p >= 1.0:
        out[n] = 1.0
        return out
    lo, hi = _pmf_window(n, p)
    part = np.exp(_log_binom_pmf(np.arange(lo, hi + 1, dtype=float), n, p))
    part[part < UNDERFLOW_FLOOR] = 0.0
    out[lo:hi + 1] = part
    return out


def _pmf_window(n: int, p: float) -> tuple[int, int]:
    """[lo, hi] holding every k whose Binomial(n, p) log pmf reaches one
    nat below log(UNDERFLOW_FLOOR), for 0 < p < 1.  The pmf rises up to
    its mode floor((n + 1) p) and falls after it, so each end is a
    bisection of scalar log pmfs; the nat is far above their rounding."""
    edge = math.log(UNDERFLOW_FLOOR) - 1.0 - math.lgamma(n + 1)

    def inside(k: int) -> bool:
        return (k * math.log(p) + (n - k) * math.log1p(-p)
                - math.lgamma(k + 1) - math.lgamma(n - k + 1)) >= edge

    mode = min(int((n + 1) * p), n)
    lo, a = 0, mode  # the least k <= mode inside
    while lo < a:
        m = (lo + a) // 2
        lo, a = (lo, m) if inside(m) else (m + 1, a)
    b, hi = mode, n  # the largest k >= mode inside
    while b < hi:
        m = (b + hi + 1) // 2
        b, hi = (m, hi) if inside(m) else (b, m - 1)
    return lo, hi


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
    degree = topology.degrees()
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


def _repair_times(topology: Topology, k: int, mttr_of: np.ndarray, sets: np.ndarray):
    """Least repair time of each column of the (r, B) failed-link `sets`
    (link L pads a column, as often as it needs), link j taking
    mttr_of[j] hours; 0.0 for a column that needs no repair.

    The plan repairs every failed link whose MTTR is at most a threshold
    T.  Each column gets the least T of 0 and the class MTTRs T_1 < ...
    < T_m that restores a component of k nodes; every MTTR is positive,
    so T = 0 repairs nothing and decides which columns are wrong.  A T
    between two of a column's failed-link MTTRs leaves the same links
    failed as the lower one.  Each threshold asks `_wrong_sets` once
    about the columns still unrepaired, their links of MTTR <= T masked
    to L, in batches of at most ORDER_SLOTS link (and node) slots.
    Raises `NumericError` if a column is wrong with every link repaired.
    """
    L = topology.n_links
    times = np.empty(sets.shape[1])
    if not times.size:
        return times
    mttr = np.append(mttr_of, 0.0)  # the pad is never failed
    step = max(1, ORDER_SLOTS // max(topology.n_nodes, L))
    todo = np.arange(times.size)
    for T in [0.0, *np.unique(mttr_of).tolist()]:
        sets = np.where(mttr[sets] > T, sets, L)  # thresholds ascend: masks accumulate
        ok = ~np.concatenate([_wrong_sets(topology, k, sets[:, lo:lo + step])
                              for lo in range(0, todo.size, step)])
        times[todo[ok]] = T
        todo, sets = todo[~ok], sets[:, ~ok]
        if not todo.size:
            return times
    raise NumericError("repairing all failed links did not restore a good partition")


def _exact_states(
    topology: Topology, k: int, states: list[tuple[int, float]], c_lb: int, enum_cap: int
) -> list[StateEstimate | None]:
    """Exact P{wrong | i} of each (i, pi_i) of `states`, 1 <= i <= L, or
    None for a state whose C(L, i) > enum_cap.

    `c_lb` is a certified lower bound on the failed links of any wrong
    state (0 when unknown): every state below it is an exact zero.  On a
    graph with translation orbits (see `_translation_orbits`) the wrong
    i-subsets that hold link e number the same W(e) for every e of an
    orbit, so i * #wrong = sum over orbits O of |O| * W(e_O): when
    #orbits * i < L, the #orbits * C(L-1, i-1) subsets holding some
    e_O are fewer than the C(L, i) that are otherwise all enumerated.
    The subsets of every state are counted in one pass (`_wrong_counts`).
    """
    L = topology.n_links
    orbits = _translation_orbits(topology)
    est: list[StateEstimate | None] = []
    groups, owner, divisor = [], [], {}  # owner: each group's state and weight
    for j, (i, pi_i) in enumerate(states):
        est.append(StateEstimate(i, pi_i, 0.0, 0.0, 0, "exact") if i < c_lb else None)
        if i < c_lb or math.comb(L, i) > enum_cap:
            continue
        if orbits is None or len(orbits.first) * i >= L:
            groups.append((L, range(L), i))
            owner.append((j, 1))
            divisor[j] = 1
        else:
            for e, size in zip(orbits.first.tolist(), orbits.size.tolist()):
                groups.append((e, [*range(e), *range(e + 1, L)], i - 1))
                owner.append((j, size))
            divisor[j] = i
    total = [0] * len(states)
    for (j, weight), wrong in zip(owner, _wrong_counts(topology, k, groups)):
        total[j] += weight * wrong
    for j, div in divisor.items():
        i, pi_i = states[j]
        wrong, rest = divmod(total[j], div)
        if rest:
            raise NumericError(f"orbit sum {total[j]} of wrong {i}-subsets not divisible by {i}")
        n_subsets = math.comb(L, i)
        est[j] = StateEstimate(i, pi_i, wrong / n_subsets, 0.0, n_subsets, "exact")
    return est


def _wrong_counts(topology: Topology, k: int, groups: list) -> list[int]:
    """Number of wrong failure sets of each (e, pool, r) of `groups`: link
    e (the self-loop link L for none) plus an r-subset of the links `pool`.

    The sets of all groups, in order, go through `_wrong_sets` in batches
    of at most ORDER_SLOTS link (and node) slots.
    """
    if not groups:
        return []
    L, n = topology.n_links, topology.n_nodes
    bounds = np.cumsum([math.comb(len(pool), r) for _, pool, r in groups])
    wrong = np.zeros(len(groups), dtype=np.int64)
    lo = 0
    # a block no longer than all the sets: 3003 rows on Q3, not 87 381
    step = min(int(bounds[-1]), max(1, ORDER_SLOTS // max(n, L)))
    for sets in _set_blocks(groups, step):
        hit = np.flatnonzero(_wrong_sets(topology, k, sets.T)) + lo
        wrong += np.bincount(np.searchsorted(bounds, hit, "right"), minlength=len(groups))
        lo += len(sets)
    return wrong.tolist()


def _set_blocks(groups: list, step: int):
    """The sets of the (e, pool, r) `groups`, in order, as (B, width)
    int32 blocks of at most `step` rows: a row lists an r-subset of
    `pool`, then repeats e to the end."""
    width = max(r for _, _, r in groups) + 1
    block, held = np.empty((step, width), dtype=np.int32), 0
    for e, pool, r in groups:
        combos, left = itertools.combinations(pool, r), math.comb(len(pool), r)
        while left:
            take = min(left, step - held)
            rows = block[held:held + take]
            chunk = itertools.chain.from_iterable(itertools.islice(combos, take))
            rows[:, :r] = np.fromiter(chunk, dtype=np.int32, count=take * r).reshape(take, r)
            rows[:, r:] = e
            held, left = held + take, left - take
            if held == step:
                yield block
                block, held = np.empty_like(block), 0
    if held:
        yield block[:held]


def _wrong_sets(topology: Topology, k: int, sets: np.ndarray) -> np.ndarray:
    """Whether G less the links of each column of the (r, B) `sets` has
    no k-node component (a column may repeat a link; link L is a
    self-loop): the BFS forest joins first (`_forest_labels`), then the
    other links (`_rows_added`), each column's failed ones as self-loops."""
    L = topology.n_links
    rest = _spanning_forest(topology)[2]
    failed, label, size, live = _forest_labels(topology, k, sets)
    batch = np.where(failed[rest][:, live], L, rest[:, None])
    return _rows_added(topology, k, batch, rest.size, label, size, live) > rest.size


def _estimate_states(
    topology: Topology, k: int, states: list[tuple[int, float]], budget: int, seed, enum_cap: int
) -> tuple[list[StateEstimate], float]:
    """Estimates of P{wrong | i} for the (i, pi_i) pairs of `states`, all i >= 1,
    and the variance of their sum of pi_i * P{wrong | i}.

    A state is exact below the cut bound c_lb or when its C(L, i)
    subsets fit `enum_cap`; the subsets of all such states go through
    the forest kernel of the orders in one pass (`_exact_states`): the
    64-cycle's i = 2 and 3 at enum cap 10**5 take 2.1 ms on a 2-core
    Xeon, where one (rows, L) mask search a state took 7.6 ms, and
    Table 3's Q3 2.4 -> 1.7 ms.  Every other state reads the same
    `budget` random link orders.  Those orders are read only through 1[c* <= i]
    and the sum of pi_i over sampled i >= c*, for sampled i up to the
    largest, i_max, so their critical counts are capped at i_max + 1:
    every row and the variance are the same as with the full counts,
    and only each order's last i_max links are drawn.  At seed 1 no
    order steps through that tail on Table 3's ring(64,6) (i_max = 18,
    budget 4000) or Q4 (i_max = 10), or on ring(768,4) at budget 50,
    while 3993 of the 64-cycle's 4000 do (i_max = 12; `_links_added`).
    """
    est = _exact_states(topology, k, states, _cut_lower_bound(topology, k), enum_cap)
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
    i <= cap learns nothing from c* above cap + 1, which depends only on
    the order's last cap links, in order, and the set of the others: only
    that tail is drawn (`_failed_tails`), in batches of at most
    ORDER_SLOTS order (and node) slots (see `_links_added`).
    """
    L, n = topology.n_links, topology.n_nodes
    cap = min(cap, L)
    if k == 1:
        return np.full(budget, cap + 1, dtype=np.int64)
    out = np.empty(budget, dtype=np.int64)
    step = max(1, ORDER_SLOTS // max(n, L))
    for lo in range(0, budget, step):
        tails = _failed_tails(seed, lo, min(step, budget - lo), L, cap)
        out[lo:lo + tails.shape[1]] = L + 1 - _links_added(topology, k, tails)
    return out


def _failed_tails(seed, lo: int, B: int, L: int, cap: int) -> np.ndarray:
    """(cap, B) int32: column b lists the last cap links of uniform random
    link order lo + b, last first: a Fisher-Yates shuffle from the back
    for cap positions t, each one `rng.integers(0, L - t, size=B)` call
    on the stream of `seed` spawned at `lo`, so a larger cap extends
    every tail.  ring(64,6)'s 4000 orders at cap 18 take 72 000 draws,
    where full permutations took 764 000."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo,)))
    perm, cols = np.repeat(np.arange(L, dtype=np.int32)[:, None], B, axis=1), np.arange(B)
    for t in range(cap):
        pick = rng.integers(0, L - t, size=B)
        perm[L - 1 - t], perm[pick, cols] = perm[pick, cols], perm[L - 1 - t].copy()
    return perm[::-1][:cap].copy()


def _links_added(topology: Topology, k: int, tails: np.ndarray) -> np.ndarray:
    """Links each order adds to an empty graph, up to the one that makes
    a k-node component (L + 1 if none does), raised to L - cap: order b
    adds the links off column b of the (cap, B) `tails` in any order,
    then that column's, from its last row up.

    The BFS forest of `_spanning_forest` joins first (`_forest_labels`,
    the half that exact states share).  The other R links follow in one
    shared arrangement, each order's failed ones as self-loops, then the
    tail (`_rows_added`): an order leaves once it has a k-node
    component.  On a 2-core Xeon, against full orders: ring(64,6) at
    4000 orders, cap 18, 25 -> 6 ms; Q4, cap 10, 3.7 -> 2.7 ms; the
    64-cycle, cap 12, 14 -> 5.5 ms; at 50 orders, cap 385, Q12 57 -> 10
    ms and ring(4096,12) 77 -> 28 ms."""
    L, cap = topology.n_links, tails.shape[0]
    rest = _spanning_forest(topology)[2]
    R = rest.size  # batch row j is link L - R - cap + j + 1 of each order
    failed, label, size, live = _forest_labels(topology, k, tails)
    batch = np.concatenate((np.where(failed[rest][:, live], L, rest[:, None]), tails[::-1, live]))
    del failed
    added = _rows_added(topology, k, batch, R, label, size, live)
    return np.maximum(added + (L - R - cap), L - cap, out=added)


def _rows_added(topology: Topology, k: int, batch: np.ndarray, fold: int,
                label: np.ndarray, size: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Rows of the (S, |live|) `batch` (link L a self-loop) that each of
    the B columns adds to the forest `label`/`size` of `_forest_labels`,
    up to the one that makes a k-node component: S + 1 if none does,
    and at most `fold` for a column that makes one within the first
    `fold` rows, which may join in any order (or in the forest).

    Column c of `batch` is column live[c].  At least `fold` columns step
    through the rows together (`_add_in_lockstep`); fewer fold the
    first `fold` rows with `_join_roots` in blocks ending at (k - 1) *
    2**j rows, dropping the columns that reach k, then step.
    """
    n = topology.n_nodes
    B = label.size // n
    ends = np.zeros((2, topology.n_links + 1), dtype=np.int32)
    ends[:, :-1] = topology.ends.T
    prefix, hi = (fold if B < fold else 0), 0
    while hi < prefix and live.size:
        lo, hi = hi, min(max(2 * hi, k - 1), prefix)
        a, b = ends[:, batch[lo:hi]] + live * n
        label = _join_roots(label, a.ravel(), b.ravel())
        size = _component_sizes(label, n)
        short = size.reshape(B, n)[live].max(1) < k
        live, batch = live[short], batch[:, short]
    added = np.full(B, prefix, dtype=np.int64)
    added[live] = len(batch) + 1
    if live.size:
        _add_in_lockstep(ends, n, k, batch, prefix, label, size, live, added)
    return added


def _forest_labels(topology: Topology, k: int, sets: np.ndarray):
    """(failed, label, size, live) once the BFS forest of `_spanning_forest`
    joins, less the links of each column b of the (r, B) `sets` (link L
    is a self-loop): failed[j, b] marks link j, of L + 1; node x of column
    b is b*n + x, label[b*n + x] its root and size the node count at
    each root; `live` lists the int32 columns with no k-node component.

    One vectorized step a level: a node takes its parent's root unless
    its link failed.
    """
    L, n = topology.n_links, topology.n_nodes
    B = sets.shape[1]
    failed = np.zeros((L + 1, B), dtype=bool)
    failed[sets, np.arange(B)] = True
    label = np.arange(0, B * n, n, dtype=np.int32) + np.arange(n, dtype=np.int32)[:, None]
    for nodes, parents, links in _spanning_forest(topology)[1]:
        label[nodes] = np.where(failed[links], label[nodes], label[parents])
    label = label.T.ravel()
    size = _component_sizes(label, n)
    live = np.flatnonzero(size.reshape(B, n).max(1) < k).astype(np.int32)
    return failed, label, size, live


def _component_sizes(label: np.ndarray, n: int) -> np.ndarray:
    """int32 node count at each root of a (B * n,) array of roots, each in
    its own order's n slots, counted KERNEL_SLOTS slots at a time."""
    size, step = np.empty_like(label), max(1, KERNEL_SLOTS // n) * n
    for lo in range(0, label.size, step):
        part = label[lo:lo + step]
        size[lo:lo + step] = np.bincount(part - lo, minlength=part.size)
    return size


def _add_in_lockstep(ends, n: int, k: int, batch: np.ndarray, start: int,
                     parent: np.ndarray, size: np.ndarray, live: np.ndarray,
                     added: np.ndarray) -> None:
    """From row `start` of the (S, B) `batch` on, every order of `live`
    (column c is live[c]; none has a k-node component) adds its next link
    to the union-find forest `parent`/`size` of all the orders' nodes;
    an order that makes a k-node component at row j gets added = j + 1.

    Roots are found by pointer chasing; union by size keeps every tree
    at most log2(n) deep.  `ends` is (2, L + 1), link L a self-loop.
    Every gather is a `take` (at 4000 orders 12 us, against 49 us for
    `ends[:, batch[j, live]]`), and `live` and its offsets stay int32.
    """
    L = batch.shape[0]
    col, base = np.arange(live.size), live * n
    for j in range(start, L):
        x = np.take(ends, batch[j].take(col), axis=1) + base
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
            live, col, base = np.delete(live, done), np.delete(col, done), np.delete(base, done)
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
    sizes = np.bincount(_intact_labels(topology))
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
        estimated, var = _estimate_states(topology, k, kept, budget, seed, enum_cap)
        ahead = iter(estimated)  # in ascending i, as `kept`
        per_state = [next(ahead) if pi[i] >= TAIL_EPS else
                     StateEstimate(i, pi[i], 0.0, 0.0, 0, "skipped") for i in range(1, L + 1)]
        wrong_mass = sum(e.pi_i * e.p_wrong for e in estimated)
        t = cls.mttr_h if wrong_mass > 0 else None
        methods = {e.method for e in estimated}
        method = methods.pop() if len(methods) == 1 else "hybrid"
    p = min(max(1.0 - wrong_mass, 0.0), 1.0)
    return PartitionReport(p, math.sqrt(var), t, per_state, method, k)


def _forest_wrong_mass(topology: Topology, k: int, q: np.ndarray) -> float:
    """P{every component has fewer than k nodes} for a forest whose link
    j is down with probability q[j], independently.

    Each tree of the BFS forest of `_spanning_forest` (the forest
    itself) is folded bottom-up (Gertsbakh & Shpungin 2010).  Node x
    carries the distribution of the size of its open component, the
    part of its subtree still joined to x, given that every component
    its subtree has closed off is below k; sizes from k up are dropped.
    Child c joins its parent x through link e: when e is up the two
    sizes add (a convolution cut at k), when e is down c's component
    closes, with probability c.sum() of being below k.  The wrong mass
    is the product over the trees, in root order, of the root sums,
    with no 1 - p cancellation.

    The mean least repair time t of a wrong state follows from wrong
    masses, on any graph: a state needs more than T_j to repair exactly
    when its failed links of MTTR above T_j alone leave it wrong, so
    t = T_1 + sum_{j<m} (T_{j+1} - T_j) W_j / W_0 over the class MTTRs
    T_1 < ... < T_m, W_j the wrong mass with q = 0 where MTTR <= T_j.
    """
    roots, levels, _ = _spanning_forest(topology)
    q = q.tolist()
    dist = [np.array([0.0, 1.0])[:k] for _ in range(topology.n_nodes)]  # P{open size = s}, s < k
    for nodes, parents, links in reversed(levels):
        for c, x, e in zip(nodes.tolist(), parents.tolist(), links.tolist()):
            a, b, qe = dist[x], dist[c], q[e]
            merged = np.convolve(a, b)[:k] * (1.0 - qe)
            merged[:len(a)] += a * (qe * b.sum())
            dist[x] = merged
    return math.prod(float(dist[root].sum()) for root in roots.tolist())


def _spanning_forest(topology: Topology):
    """(roots, levels, rest) of the BFS forest spanning each component from
    its least node, kept on the topology: levels[j] holds the nodes at
    depth j + 1 in queue order, their parents and links, and `rest` the
    other links, int32, in one fixed random arrangement.

    One FIFO queue, seeded with the roots in order, walks every tree
    (`_bfs_queue`), in the queue order of a vectorized step per level
    from a virtual node listing the roots.  On a 2-core Xeon, labelling
    included, against that step: ring(768,4) 5.1 -> 0.63 ms (192
    levels), the 64-cycle 0.72 -> 0.12 ms, ring(4096,12) 8.2 -> 4.8 ms;
    Q12, 13 wide levels, goes 2.2 -> 4.6 ms.
    """
    def build():
        n = topology.n_nodes
        roots = (_intact_labels(topology) == np.arange(n)).nonzero()[0]
        nodes, parents, bounds = _bfs_queue(*topology.csr(), roots)
        parent = np.full(n, n)
        parent[nodes] = parents
        u, v = topology.ends.T
        child = np.where(parent[u] == v, u, v)
        tree = parent[child] == u + v - child
        up = np.empty(n, dtype=np.int64)
        up[child[tree]] = tree.nonzero()[0]
        links = up[nodes]
        levels = [(nodes[a:b], parents[a:b], links[a:b]) for a, b in zip(bounds, bounds[1:])]
        rest = np.random.default_rng(0).permutation(np.flatnonzero(~tree).astype(np.int32))
        return roots, levels, rest
    return topology.memo("forest", build)


def _bfs_queue(indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray):
    """(nodes, parents, bounds) of one FIFO BFS over the sorted adjacency
    `indptr`/`indices`, its queue seeded with `roots`: every other node
    it reaches in queue order, as int64, the node that first listed
    each, and depth d + 1 as nodes[bounds[d]:bounds[d + 1]].

    One Python pass; the CSR is read through memoryviews, whose items
    are Python ints, not copied into lists (21 M ints at the builder's
    cap).
    """
    ptr, adj = memoryview(indptr), memoryview(indices)
    seen = bytearray(len(ptr) - 1)
    queue = roots.tolist()
    for x in queue:
        seen[x] = 1
    parents, ends = [], [len(queue)]  # ends[d]: queue length through depth d
    for j, x in enumerate(queue):
        if j == ends[-1]:  # depth d + 1 starts, so all of it is queued
            ends.append(len(queue))
        for y in adj[ptr[x]:ptr[x + 1]]:
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
                parents.append(x)
    r = len(roots)
    return (np.array(queue[r:], dtype=np.int64), np.array(parents, dtype=np.int64),
            [e - r for e in ends])


def _down_probs(topology: Topology) -> np.ndarray:
    """Steady-state down probability lambda/(lambda+mu) of each link."""
    return _class_values(topology, lambda c: c.steady_down_prob)


def _chunk_rows(n_nodes: int, n_links: int) -> int:
    """Rows per placement chunk: at most KERNEL_SLOTS link slots and node slots."""
    return max(1, KERNEL_SLOTS // max(n_nodes, n_links))


def _sample_link_states(topology: Topology, k: int, budget: int, seed: int):
    """(wrong mass, its variance, t, per-state rows) of `budget` draws of
    all link states, each link down with its class's steady-state q.

    A row fails n_c links of class c, the Binomial(|M_c|, q_c) cdf
    inverted at a uniform of the stream (seed, 0), in blocks whose
    uniforms and counts fit KERNEL_SLOTS.  Rows below c_lb failures are
    good; a `_chunk_rows` chunk with one at or above draws keys from the
    stream (seed, 1, its first row), and such a row fails the n_c
    least-key links of each class, a uniform subset, as one column of a
    failed-link set.  So c_lb changes no draw, and a more reliable class
    fails a subset.  All such rows of a block go through one
    `_repair_times` search, one forest-kernel batch a threshold, not one
    a chunk.
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
        hot = np.flatnonzero(n_failed >= c_lb)
        if not hot.size:
            continue
        widths = np.cumsum([0] + [int(n_c[hot].max()) for n_c in counts]).tolist()
        sets = np.full((hot.size, widths[-1]), L, dtype=np.int32)  # row j is hot[j]'s failures
        for lo in np.unique(hot // step * step).tolist():
            i, j = np.searchsorted(hot, (lo, lo + step)).tolist()
            rows = hot[i:j]
            place = np.random.default_rng(np.random.SeedSequence((seed, 1, start + lo)))
            for links, n_c, a, b in zip(members, counts, widths, widths[1:]):
                keys = place.random((min(step, n_failed.size - lo), links.size))[rows - lo]
                least = links[np.argsort(keys, axis=1)[:, :b - a]]
                sets[i:j, a:b] = np.where(np.arange(b - a) < n_c[rows, None], least, L)
        times = _repair_times(topology, k, mttr_of, sets.T)
        wrong_of += np.bincount(n_failed[hot[times > 0]], minlength=L + 1)
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
