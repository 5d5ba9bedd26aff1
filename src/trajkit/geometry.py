"""Planar trajectory primitives and point-to-polyline geometry.

Trajectories are ordered sequences of 2-D points (optionally timestamped).
All distance computations happen in a planar Cartesian frame; geographic
input is converted once, at ingestion, with :func:`project_wgs84`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

__all__ = [
    "EARTH_RADIUS_M",
    "PiecewiseLinearView",
    "Segment",
    "Trajectory",
    "as_points",
    "point_to_segment",
    "point_to_trajectory",
    "project_wgs84",
    "segment_distances",
    "segment_lengths",
]


class Segment(NamedTuple):
    """Directed line segment between two 2-D points."""

    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True, eq=False)
class PiecewiseLinearView:
    """Segment decomposition of a trajectory.

    Attributes
    ----------
    starts, ends : ndarray of shape (n-1, 2)
        Endpoints of the n-1 consecutive segments.
    lengths : ndarray of shape (n-1,)
        Euclidean length of each segment (zero-length segments allowed).
    total_length : float
        Sum of segment lengths.
    """

    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    total_length: float

    def segments(self) -> list[Segment]:
        return [Segment(a, b) for a, b in zip(self.starts, self.ends)]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Immutable ordered sequence of 2-D points, optionally timestamped.

    Parameters
    ----------
    id : str
        Identifier, unique within a dataset.
    points : array-like of shape (n, 2)
        Planar coordinates; n >= 2 and every value finite.
    timestamps : array-like of shape (n,), optional
        Strictly increasing observation times (seconds).
    """

    id: str
    points: np.ndarray
    timestamps: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"trajectory {self.id!r}: points must have shape (n, 2)")
        if pts.shape[0] < 2:
            raise ValueError(f"trajectory {self.id!r}: needs at least 2 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"trajectory {self.id!r}: coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.timestamps is not None:
            ts = np.array(self.timestamps, dtype=np.float64)
            if ts.shape != (pts.shape[0],):
                raise ValueError(f"trajectory {self.id!r}: timestamps must match point count")
            if not np.all(np.isfinite(ts)):
                raise ValueError(f"trajectory {self.id!r}: timestamps must be finite")
            if np.any(np.diff(ts) <= 0):
                raise ValueError(f"trajectory {self.id!r}: timestamps must be strictly increasing")
            ts.setflags(write=False)
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def piecewise_linear(self) -> PiecewiseLinearView:
        lengths = segment_lengths(self.points)
        return PiecewiseLinearView(self.points[:-1], self.points[1:], lengths, float(lengths.sum()))

    @property
    def length(self) -> float:
        return self.piecewise_linear.total_length


def as_points(obj: Trajectory | Iterable) -> np.ndarray:
    """Coerce a Trajectory or array-like into an (n, 2) float64 array.

    Accepts bare point sequences (including empty and single-point ones) so
    that alignment distances can honour their recursive base cases even on
    inputs too short to be valid :class:`Trajectory` objects.
    """
    if isinstance(obj, Trajectory):
        return obj.points
    pts = np.asarray(obj, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim == 1 and pts.shape[0] == 2:
        return pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    return pts


def segment_lengths(points: np.ndarray) -> np.ndarray:
    """Euclidean length of each of the n-1 segments of an (n, 2) polyline."""
    return np.hypot(*(points[1:] - points[:-1]).T)


def segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance from each point to each segment, vectorised.

    Parameters
    ----------
    points : ndarray of shape (m, 2)
    starts, ends : ndarray of shape (k, 2)

    Returns
    -------
    ndarray of shape (m, k)
        Euclidean distance from point i to segment j (orthogonal projection
        clamped to the segment; zero-length segments degrade to points).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    ends = np.atleast_2d(np.asarray(ends, dtype=np.float64))
    d = ends - starts  # (k, 2)
    len2 = np.einsum("kc,kc->k", d, d)  # (k,)
    w = points[:, None, :] - starts[None, :, :]  # (m, k, 2)
    t = np.einsum("mkc,kc->mk", w, d) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = starts[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - proj
    return np.sqrt(np.einsum("mkc,mkc->mk", diff, diff))


def point_to_segment(p, segment) -> float:
    """Distance from point ``p`` to a segment ``(start, end)``.

    Orthogonal projection distance when the projection falls inside the
    segment, distance to the nearest endpoint otherwise.
    """
    start, end = segment
    return float(segment_distances(np.asarray(p, dtype=np.float64),
                                   np.asarray(start, dtype=np.float64),
                                   np.asarray(end, dtype=np.float64))[0, 0])


def point_to_trajectory(p, traj: Trajectory | Iterable) -> float:
    """Minimum distance from point ``p`` to the piecewise-linear carrier of ``traj``."""
    pts = as_points(traj)
    if pts.shape[0] < 2:
        raise ValueError("point_to_trajectory needs a trajectory with at least 2 points")
    return float(segment_distances(np.asarray(p, dtype=np.float64), pts[:-1], pts[1:]).min())


def project_wgs84(lat, lon, origin_lat: float, origin_lon: float) -> tuple[np.ndarray, np.ndarray]:
    """Project WGS84 coordinates to local planar metres (equirectangular).

    x = R * (lon - lon0) * cos(lat0) * pi/180,  y = R * (lat - lat0) * pi/180,
    with angles in degrees and R the mean Earth radius. Accurate for
    city-scale extents around the origin.

    Returns
    -------
    (x, y) : ndarrays (or scalars, matching the input) in metres.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    rad = np.pi / 180.0
    x = EARTH_RADIUS_M * (lon - origin_lon) * np.cos(origin_lat * rad) * rad
    y = EARTH_RADIUS_M * (lat - origin_lat) * rad
    return x, y
