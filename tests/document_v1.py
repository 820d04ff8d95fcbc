"""Test helper: the version-1 topology document.

Version 1 holds one `{"flat", "levels"}` object per node and one
`{"u", "v", "class_id", "level"}` object per link.  The package writes
only the columnar version 2 and reads both; `to_json_v1` writes the
bytes a version-1 writer wrote, so the version-1 pins stay checked and
the reader's version-1 path has documents to read.
"""
from __future__ import annotations

import json

import numpy as np

from cubenet.topology import Topology


def to_dict_v1(t: Topology) -> dict:
    return {
        "version": 1,
        "kind": t.kind,
        "N": t.n_nodes,
        "meta": t.meta,
        "classes": [
            {"class_id": cid, "distance_km": c.distance_km, "mtbf_h": c.mtbf_h, "mttr_h": c.mttr_h}
            for cid, c in sorted(t.classes.items())
        ],
        "nodes": [{"flat": x, "levels": lab} for x, lab in enumerate(t.labels.tolist())],
        "links": [
            {"u": u, "v": v, "class_id": c, "level": lvl}
            for u, v, c, lvl in np.column_stack((t.ends, t.class_id, t.level)).tolist()
        ],
    }


def to_json_v1(t: Topology) -> str:
    return json.dumps(to_dict_v1(t), separators=(",", ":"), sort_keys=True)
