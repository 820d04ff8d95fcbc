"""Test helper: a topology on any node count and link list.

Tests that need a graph no builder makes call `custom_topology`.  It
goes through the array constructor, so the graph gets the same
construction-time checks as every built topology.
"""
from __future__ import annotations

import numpy as np

from cubenet.topology import LinkClass, Topology


def custom_topology(n, pairs, class_ids=None, classes=None) -> Topology:
    """Topology "custom" on nodes 0..n-1, each labeled by its own number:
    link j joins pairs[j] and has class class_ids[j] (default 0).
    `classes` defaults to one 5000 km class with id 0."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if class_ids is None:
        class_ids = np.zeros(len(ends))
    if classes is None:
        classes = {0: LinkClass.standard(5000)}
    return Topology("custom", np.arange(n).reshape(-1, 1), ends, class_ids, dict(classes))
