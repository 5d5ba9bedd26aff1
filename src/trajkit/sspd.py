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

from .geometry import carrier_distances, carrier_pairs, window_sums
from .warping import PointStore, on_pair

__all__ = ["spd", "sspd"]


def _means(flat: np.ndarray, walks: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The mean of each of the consecutive runs of ``n`` values of ``flat``."""
    return window_sums(flat, np.cumsum(n) - n, n) / n


def sspd_batch(store: PointStore, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """sspd of each pair (ia[k], ib[k]) of sequences of ``store``."""
    store.require_carriers(ia, ib, "sspd: both trajectories need at least 2 points")
    fwd, bwd = carrier_pairs(store, store, ia, ib, _means)
    return 0.5 * (fwd + bwd)


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
    return on_pair(_spd_pair, "spd", t1, t2)


def _spd_pair(store: PointStore, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """spd of the one pair (ia[0], ib[0]) of sequences of ``store``."""
    a, b = store[int(ia[0])], store[int(ib[0])]
    if a.shape[0] == 0:
        raise ValueError("spd: first trajectory is empty")
    if b.shape[0] < 2:
        raise ValueError("spd: second trajectory needs at least 2 points")
    return _means(carrier_distances(a, b, (0, len(b))).ravel(), None, np.array([len(a)]))


def sspd(t1, t2) -> float:
    """Symmetrised segment-path distance: mean of spd(t1, t2) and spd(t2, t1).

    Symmetric and non-negative by construction; zero iff the two carriers
    pass through each other's observed points.
    """
    return on_pair(sspd_batch, "sspd", t1, t2)
