"""Symmetrised segment-path distance (SSPD) between trajectories.

SPD averages, over the observed points of one trajectory, the distance
from each point to the other trajectory's piecewise-linear carrier; SSPD
is the mean of the two directed values. It is shape-only (no warping of
vertex orderings, no timestamps), cheap to evaluate, and needs no
threshold or gap parameter. It is not a metric: the triangle inequality
can fail when one trajectory contains the other two as sub-paths.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_points, carrier_distances

__all__ = ["spd", "sspd"]


def spd(t1, t2) -> float:
    """Segment-path distance from ``t1`` to ``t2`` (directional).

    Mean distance from each observed point of ``t1`` to the carrier of
    ``t2``. Zero whenever every point of ``t1`` lies on ``t2``'s carrier,
    e.g. when ``t1`` is a sub-trajectory of ``t2``.

    Parameters
    ----------
    t1 : Trajectory or array-like of shape (n, 2)
        Nonempty point sequence whose points are measured.
    t2 : Trajectory or array-like of shape (m, 2)
        Carrier trajectory, at least 2 points.

    Returns
    -------
    float
    """
    a, b = as_points(t1), as_points(t2)
    if a.shape[0] == 0:
        raise ValueError("spd: first trajectory is empty")
    if b.shape[0] < 2:
        raise ValueError("spd: second trajectory needs at least 2 points")
    return float(carrier_distances(a, b).mean())


def sspd(t1, t2) -> float:
    """Symmetrised segment-path distance: mean of spd(t1, t2) and spd(t2, t1).

    Symmetric and non-negative by construction; zero iff the two carriers
    pass through each other's observed points.
    """
    a, b = as_points(t1), as_points(t2)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("sspd: both trajectories need at least 2 points")
    return 0.5 * (spd(a, b) + spd(b, a))
