"""Test oracle: exact (p, t) by enumerating every link-state vector.

Each link is down with its class's steady-state probability
lambda/(lambda+mu), independently of the others; every one of the 2^L
failure sets goes through the package's repair-threshold search
(`_repair_times`), which gives 0.0 for a good set and the least repair
time for a wrong one.  Desk-scale only: L <= BRUTEFORCE_MAX_LINKS.
Every estimator change is checked against it.
"""
from __future__ import annotations

import numpy as np

from cubenet.errors import ResourceLimitError
from cubenet.reliability import _class_values, _down_probs, _quorum, _repair_times
from cubenet.topology import Topology, _chunk_rows

BRUTEFORCE_MAX_LINKS = 22


def exact_partition_tolerance_bruteforce(
    topology: Topology, k: int | None = None
) -> tuple[float, float | None]:
    """Exact (p, t) of `topology` at quorum k (default the majority)."""
    L = topology.n_links
    if L > BRUTEFORCE_MAX_LINKS:
        raise ResourceLimitError(f"brute force refused for L={L} > {BRUTEFORCE_MAX_LINKS}")
    k = _quorum(topology, k)
    q, mttr_of = _down_probs(topology), _class_values(topology, lambda c: c.mttr_h)
    bits = 1 << np.arange(L)
    step = _chunk_rows(topology.n_nodes, L)
    wrong_mass = 0.0
    t_mass = 0.0
    for lo in range(0, 2**L, step):
        failed = (np.arange(lo, min(lo + step, 2**L))[:, None] & bits) != 0
        weight = np.ones(len(failed))
        for idx in range(L):
            weight *= np.where(failed[:, idx], q[idx], 1.0 - q[idx])
        times = _repair_times(topology, k, mttr_of, failed)
        for w, t in zip(weight[times > 0].tolist(), times[times > 0].tolist()):
            wrong_mass += w
            t_mass += w * t
    p = 1.0 - wrong_mass
    t = (t_mass / wrong_mass) if wrong_mass > 0 else None
    return p, t

