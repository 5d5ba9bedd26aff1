"""Planar trajectory primitives and point-to-polyline geometry.

Trajectories are ordered sequences of 2-D points (optionally timestamped).
All distance computations happen in a planar Cartesian frame; geographic
input is converted once, at ingestion, with :func:`project_wgs84`.
"""

from __future__ import annotations

import bisect
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
    inputs too short to be valid :class:`Trajectory` objects. A bare
    sequence must be finite, as a Trajectory's points are; a Trajectory's
    points, checked when it was built, are returned as they are.
    """
    if isinstance(obj, Trajectory):
        return obj.points
    pts = np.asarray(obj, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim == 1 and pts.shape[0] == 2:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
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
    # The x and y parts run as separate arrays, in place: the same IEEE
    # operations as an (m, k, 2) form with two-term einsum sums, so the same
    # bits. The longer of m and k is the inner axis, which keeps numpy's inner
    # loops long; the result may be a transposed view.
    inner = points.shape[0] > starts.shape[0]
    px, py = (points[:, 0], points[:, 1]) if inner else (points[:, 0, None], points[:, 1, None])
    sx, sy = (starts[:, 0, None], starts[:, 1, None]) if inner else (starts[:, 0], starts[:, 1])
    dx, dy = ends[:, 0] - starts[:, 0], ends[:, 1] - starts[:, 1]
    len2 = np.where(dx * dx + dy * dy > 0.0, dx * dx + dy * dy, 1.0)
    if inner:
        dx, dy, len2 = dx[:, None], dy[:, None], len2[:, None]
    t = px - sx
    t *= dx
    e = py - sy
    e *= dy
    t += e
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)  # projection parameter on each segment
    np.multiply(t, dx, out=e)
    e += sx
    np.subtract(px, e, out=e)  # x offset from the projection
    t *= dy
    t += sy
    np.subtract(py, t, out=t)  # y offset
    e *= e
    t *= t
    e += t
    np.sqrt(e, out=e)
    return e.T if inner else e


_BLOCK = 1 << 16  # float64 values per temporary array of every blocked pass (512 KiB)


def carrier_distances(points: np.ndarray, xy: np.ndarray, bounds) -> np.ndarray:
    """Distance from each of the (m, 2) ``points`` to the nearest point of
    each polyline ``xy[bounds[c]:bounds[c + 1]]`` (at least 2 points each),
    as an (m, len(bounds) - 1) array.

    The polylines lie end to end in ``xy``. One :func:`segment_distances`
    call takes a block of rows against all their segments; the segments
    that bridge two polylines are set to infinity, and each polyline's
    minimum is one ``np.minimum.reduceat`` column. A block holds at most
    ``_BLOCK`` point-segment pairs, so temporaries stay under 512 KiB each
    for up to ``_BLOCK`` segments. A minimum does not depend on the blocking.
    """
    bounds = np.asarray(bounds)
    lo, hi = bounds[0], bounds[-1]
    starts, ends = xy[lo:hi - 1], xy[lo + 1:hi]
    firsts, bridges = bounds[:-1] - lo, bounds[1:-1] - lo - 1
    rows = max(1, _BLOCK // len(starts))
    out = np.empty((len(points), len(firsts)))
    for r in range(0, len(points), rows):
        d = segment_distances(points[r:r + rows], starts, ends)
        d[:, bridges] = np.inf
        np.minimum.reduceat(d, firsts, axis=1, out=out[r:r + rows])
    return out


def window_sums(values: np.ndarray, firsts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``values[firsts[k]:firsts[k] + widths[k]].sum()`` for each k, bit for bit.

    Windows of one width are gathered into the rows of a C-contiguous array
    and summed along them, which adds each row in the order numpy's ``sum``
    adds it alone (``np.add.reduceat`` does not).
    """
    out = np.empty(len(widths))
    for width in np.unique(widths).tolist():
        sel = np.flatnonzero(widths == width)
        out[sel] = values[firsts[sel, None] + np.arange(width)].sum(axis=1)
    return out


def _picks(values: np.ndarray, start: np.ndarray, stride, count: np.ndarray) -> np.ndarray:
    """``values[start[k] + r * stride[k]]`` for r < count[k], for each k in turn."""
    k = np.repeat(np.arange(len(count)), count)
    r = np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
    return values[start[k] + r * np.broadcast_to(stride, count.shape)[k]]


def _tiles(mo: list, co: list, ia: np.ndarray, ib: np.ndarray):
    """The tiles of :func:`carrier_pairs`: (first pair, end pair, i0, i1, c0, c1)."""
    n = len(co) - 1

    def fits(i0: int, i1: int) -> bool:  # whole rows i0..i1 in one tile, columns i0..n-1
        return ((mo[i1 + 1] - mo[i0]) * (n - i0) <= _BLOCK and co[n] - co[i0] - 1 <= _BLOCK
                and (mo[n] - mo[i1 + 1]) * (i1 - i0 + 1) <= _BLOCK
                and co[i1 + 1] - co[i0] - 1 <= _BLOCK)

    runs = np.flatnonzero((np.diff(ia, prepend=-1) != 0) | (np.diff(ib, prepend=-2) != 1)).tolist()
    ends = runs[1:] + [len(ia)]
    row, col = ia[runs].tolist(), ib[runs].tolist()
    whole = [c == i + 1 and c + e - k == n for i, c, k, e in zip(row, col, runs, ends)]
    r = 0
    while r < len(runs):
        s = r + 1
        while (whole[r] and s < len(runs) and whole[s] and row[s] == row[s - 1] + 1
               and fits(row[r], row[s])):
            s += 1
        if s > r + 1:
            yield runs[r], ends[s - 1], row[r], row[s - 1], row[r] + 1, n
            r = s
            continue
        i, c, k = row[r], col[r], runs[r]
        while k < ends[r]:  # one row, in blocks of columns
            e = max(c + 1, min(c + ends[r] - k, c + _BLOCK // max(1, mo[i + 1] - mo[i]),
                               bisect.bisect_right(co, co[c] + 1 + _BLOCK) - 1,
                               bisect.bisect_right(mo, mo[c] + _BLOCK) - 1))
            yield k, k + e - c, i, i, c, e
            k, c = k + e - c, e
        r += 1


def carrier_pairs(measured, carriers, ia: np.ndarray, ib: np.ndarray,
                  reduce) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-carrier distances of pairs of packed sequences, reduced per pair.

    For pair k, ``reduce`` turns the distances from the points of
    ``measured[ia[k]]`` to the polyline ``carriers[ib[k]]`` into the forward
    value, and those from ``measured[ib[k]]`` to ``carriers[ia[k]]`` into
    the backward one. ``measured`` and ``carriers`` are point stores
    (``xy``, ``offsets``) over the same sequences; ``measured`` may hold
    other points of each sequence than its vertices.

    The pairs run in tiles of rows i0..i1 and columns c0..c1-1, with two
    :func:`carrier_distances` calls each: the rows' points against the
    columns' carriers end to end (forward), and the columns' points against
    the rows' carriers (backward). Consecutive whole rows (i, i+1..n-1)
    share a tile, whose forward call also covers the rows' own carriers:
    there lie the backward distances of the pairs within those rows. Other
    runs of pairs (i, j), (i, j + 1), ... are cut into tiles of one row. A
    tile's distance arrays, and the segments one point meets, stay within
    ``_BLOCK`` values unless the tile is one row and one column.

    ``reduce(flat, walks, count)`` gets the distances of a tile's pairs end
    to end, the c-th pair's ``count[c]`` from the points of
    ``measured[walks[c]]``, and returns one value per pair.
    """
    mo, co = measured.offsets, carriers.offsets
    mol = mo.tolist()
    fwd, bwd = [np.empty(0)], [np.empty(0)]
    for k0, k1, i0, i1, c0, c1 in _tiles(mol, co.tolist(), ia, ib):
        a, b = ia[k0:k1], ib[k0:k1]
        f0 = i0 if i1 > i0 else c0  # the first carrier of the forward call
        near = carrier_distances(measured.xy[mol[i0]:mol[i1 + 1]], carriers.xy, co[f0:c1 + 1])
        width = near.shape[1]
        count = mo[a + 1] - mo[a]
        fwd.append(reduce(_picks(near.ravel(), (mo[a] - mol[i0]) * width + b - f0, width, count),
                          a, count))
        b0 = i1 + 1 if i1 > i0 else c0  # the first column whose points the backward call takes
        later = carrier_distances(measured.xy[mol[b0]:mol[c1]], carriers.xy, co[i0:i1 + 2])
        inside = b < b0
        start = np.where(inside, (mo[b] - mol[i0]) * width + a - f0,
                         near.size + (mo[b] - mol[b0]) * later.shape[1] + a - i0)
        count = mo[b + 1] - mo[b]
        flat = _picks(np.concatenate([near.ravel(), later.ravel()]), start,
                      np.where(inside, width, later.shape[1]), count)
        bwd.append(reduce(flat, b, count))
    return np.concatenate(fwd), np.concatenate(bwd)


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
