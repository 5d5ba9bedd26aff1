"""Planar trajectory primitives and point-to-polyline geometry.

Trajectories are ordered sequences of 2-D points (optionally timestamped).
All distance computations happen in a planar Cartesian frame; geographic
input is converted once, at ingestion, with :func:`project_wgs84`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

__all__ = [
    "EARTH_RADIUS_M",
    "Trajectory",
    "as_points",
    "carrier_distances",
    "project_wgs84",
    "segment_distances",
    "segment_lengths",
]


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
    d = ends - starts  # (k, 2)
    len2 = np.einsum("kc,kc->k", d, d)  # (k,)
    w = points[:, None, :] - starts[None, :, :]  # (m, k, 2)
    t = np.einsum("mkc,kc->mk", w, d) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = starts[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - proj
    return np.sqrt(np.einsum("mkc,mkc->mk", diff, diff))


#: Point-segment pairs per segment_distances call in carrier_distances (1 MiB per temporary).
_BLOCK = 1 << 16


def carrier_distances(points: np.ndarray, carrier: np.ndarray) -> np.ndarray:
    """Distance from each of the (m, 2) ``points`` to the nearest point of
    the polyline ``carrier`` (k+1 points, k >= 1), as an (m,) array.

    Runs :func:`segment_distances` over blocks of rows of at most ``_BLOCK``
    point-segment pairs, so its temporaries stay under 1 MiB each for any m
    (and any k up to ``_BLOCK``). A row's minimum does not depend on the
    blocking.
    """
    starts, ends = carrier[:-1], carrier[1:]
    rows = max(1, _BLOCK // starts.shape[0])
    return np.concatenate([segment_distances(points[r:r + rows], starts, ends).min(axis=1)
                           for r in range(0, points.shape[0], rows)])


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
