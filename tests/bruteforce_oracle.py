"""Test oracle: exact (p, t) by enumerating every link-state vector.

Each link is down with its class's steady-state probability
lambda/(lambda+mu), independently of the others; every one of the 2^L
failure sets goes through the oracle's own repair-threshold search
(`repair_times`), which gives 0.0 for a good set and the least repair
time for a wrong one.  The search labels each set's components with a
(B, L) present-link mask (`_component_roots`), a path the package does
not take: it is checked against the package, not by it.  Desk-scale
only: L <= BRUTEFORCE_MAX_LINKS.  Every estimator change is checked
against it.
"""
from __future__ import annotations

import numpy as np

from cubenet.errors import NumericError, ResourceLimitError
from cubenet.reliability import _class_values, _down_probs, _quorum
from cubenet.topology import Topology, _join_roots

BRUTEFORCE_MAX_LINKS = 22
MASK_SLOTS = 2**15  # link (and node) slots per mask batch


def _chunk_rows(n_nodes: int, n_links: int) -> int:
    """Rows per mask batch: at most MASK_SLOTS link slots and node slots."""
    return max(1, MASK_SLOTS // max(n_nodes, n_links))


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


def max_component_sizes(topology: Topology, present: np.ndarray) -> np.ndarray:
    """Largest component size for each row of a (B, L) present-link mask;
    rows go through in batches of `_chunk_rows` rows."""
    n = topology.n_nodes
    out = np.empty(len(present), dtype=np.int64)
    step = _chunk_rows(n, topology.n_links)
    for lo in range(0, len(present), step):
        label = _component_roots(topology.ends, n, present[lo:lo + step])
        out[lo:lo + step] = np.bincount(label, minlength=len(label)).reshape(-1, n).max(1)
    return out


def repair_times(topology: Topology, k: int, failed: np.ndarray) -> np.ndarray:
    """Least repair time of each row of a (B, L) failed-link mask: the
    least of 0 and the class MTTRs whose repairs (every failed link of
    MTTR at most it) leave a k-node component, one mask search a
    threshold.  Raises `NumericError` if all repairs leave none."""
    mttr_of = _class_values(topology, lambda c: c.mttr_h)
    times = np.full(len(failed), np.nan)
    for T in [0.0, *np.unique(mttr_of).tolist()]:
        todo = np.flatnonzero(np.isnan(times))
        ok = max_component_sizes(topology, ~(failed[todo] & (mttr_of > T))) >= k
        times[todo[ok]] = T
    if np.isnan(times).any():
        raise NumericError("repairing all failed links did not restore a good partition")
    return times


def exact_partition_tolerance_bruteforce(
    topology: Topology, k: int | None = None
) -> tuple[float, float | None]:
    """Exact (p, t) of `topology` at quorum k (default the majority)."""
    L = topology.n_links
    if L > BRUTEFORCE_MAX_LINKS:
        raise ResourceLimitError(f"brute force refused for L={L} > {BRUTEFORCE_MAX_LINKS}")
    k = _quorum(topology, k)
    q = _down_probs(topology)
    bits = 1 << np.arange(L)
    step = _chunk_rows(topology.n_nodes, L)
    wrong_mass = 0.0
    t_mass = 0.0
    for lo in range(0, 2**L, step):
        failed = (np.arange(lo, min(lo + step, 2**L))[:, None] & bits) != 0
        weight = np.ones(len(failed))
        for idx in range(L):
            weight *= np.where(failed[:, idx], q[idx], 1.0 - q[idx])
        times = repair_times(topology, k, failed)
        for w, t in zip(weight[times > 0].tolist(), times[times > 0].tolist()):
            wrong_mass += w
            t_mass += w * t
    p = 1.0 - wrong_mass
    t = (t_mass / wrong_mass) if wrong_mass > 0 else None
    return p, t
