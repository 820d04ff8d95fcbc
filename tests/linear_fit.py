"""Test helper: how close a set of points lies to a straight line."""
from __future__ import annotations

import numpy as np


def linear_fit_r2(xs, ys) -> float:
    """R^2 of the least-squares line through (xs, ys)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs, ys, 1)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
