"""Warping and edit distances between point sequences.

All functions accept either :class:`~trajkit.geometry.Trajectory` objects or
bare array-likes of shape (n, 2). Unlike the shape-based distances, the
recurrences here are defined for sequences of any length, so base cases for
empty inputs are honoured where they are meaningful (LCSS, EDR, ERP) and
rejected where the distance is unbounded (DTW, DLCSS).
"""

from __future__ import annotations

import numpy as np

from .geometry import as_points

__all__ = ["dlcss", "dtw", "edr", "erp", "lcss"]


def _pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between every point of a and every point of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijc,ijc->ij", diff, diff))


def dtw(t1, t2) -> float:
    """Dynamic time warping distance with Euclidean ground cost.

    Every point of one sequence is aligned to at least one point of the
    other, order preserved; the summed cost of the cheapest such alignment
    is returned. Two rolling rows are kept rather than the full grid.

    Parameters
    ----------
    t1, t2 : Trajectory or array-like of shape (n, 2)
        Nonempty point sequences.

    Returns
    -------
    float
    """
    a, b = as_points(t1), as_points(t2)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw: empty input (the warping cost of an empty sequence is unbounded)")
    cost = _pair_dists(a, b)
    n, m = cost.shape
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    cur = np.empty(m + 1)
    for i in range(n):
        cur[0] = np.inf
        row = cost[i]
        for j in range(m):
            cur[j + 1] = row[j] + min(prev[j], prev[j + 1], cur[j])
        prev, cur = cur, prev
    return float(prev[m])


def lcss(t1, t2, eps_d: float) -> int:
    """Length of the longest common subsequence under threshold ``eps_d``.

    Points p1, p2 match when ||p1 - p2|| < eps_d (strict). Empty inputs
    yield 0.

    Returns
    -------
    int
        Number of matched pairs (a similarity, not a distance).
    """
    a, b = as_points(t1), as_points(t2)
    if eps_d <= 0:
        raise ValueError("lcss: eps_d must be positive")
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        return 0
    match = _pair_dists(a, b) < eps_d
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        row = match[i]
        for j in range(m):
            if row[j]:
                cur[j + 1] = prev[j] + 1
            else:
                cur[j + 1] = max(prev[j + 1], cur[j])
        prev, cur = cur, prev
        cur[0] = 0
    return int(prev[m])


def dlcss(t1, t2, eps_d: float) -> float:
    """LCSS turned into a dissimilarity: 1 - LCSS / min(n1, n2).

    Ranges over [0, 1]; 0 when the shorter sequence matches entirely.
    Empty inputs are rejected (the normaliser would vanish).
    """
    a, b = as_points(t1), as_points(t2)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dlcss: empty input")
    return 1.0 - lcss(a, b, eps_d) / min(a.shape[0], b.shape[0])


def edr(t1, t2, eps_d: float) -> int:
    """Edit distance on real sequences: fewest insert/delete/substitute edits.

    A match (cost 0) requires ||p1 - p2|| < eps_d (strict); every other edit
    costs 1. An empty sequence is at distance len(other) (all insertions).

    Returns
    -------
    int
    """
    a, b = as_points(t1), as_points(t2)
    if eps_d <= 0:
        raise ValueError("edr: eps_d must be positive")
    n, m = a.shape[0], b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    match = _pair_dists(a, b) < eps_d
    prev = np.arange(m + 1, dtype=np.int64)
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(n):
        cur[0] = i + 1
        row = match[i]
        for j in range(m):
            if row[j]:
                cur[j + 1] = prev[j]
            else:
                cur[j + 1] = 1 + min(prev[j], prev[j + 1], cur[j])
        prev, cur = cur, prev
    return int(prev[m])


def erp(t1, t2, gap_point) -> float:
    """Edit distance with real penalty, priced against a fixed gap point.

    Aligning p1 with p2 costs ||p1 - p2||; leaving a point unmatched costs
    its distance to ``gap_point``. With a fixed gap point this is a true
    metric. An empty sequence is at distance sum(||p - gap_point||) over
    the other.

    Returns
    -------
    float
    """
    a, b = as_points(t1), as_points(t2)
    g = np.asarray(gap_point, dtype=np.float64).reshape(1, 2)
    n, m = a.shape[0], b.shape[0]
    gap_a = _pair_dists(a, g)[:, 0] if n else np.empty(0)
    gap_b = _pair_dists(g, b)[0, :] if m else np.empty(0)
    if n == 0:
        return float(gap_b.sum())
    if m == 0:
        return float(gap_a.sum())
    cost = _pair_dists(a, b)
    prev = np.concatenate(([0.0], np.cumsum(gap_b)))
    cur = np.empty(m + 1)
    for i in range(n):
        cur[0] = prev[0] + gap_a[i]
        row = cost[i]
        for j in range(m):
            cur[j + 1] = min(prev[j] + row[j],        # align p1_i with p2_j
                             prev[j + 1] + gap_a[i],  # p1_i unmatched
                             cur[j] + gap_b[j])       # p2_j unmatched
        prev, cur = cur, prev
    return float(prev[m])
