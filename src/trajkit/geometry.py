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


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in inf or NaN, which is refused
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
        clamped to the segment; zero-length segments degrade to points, and
        segments too long to square, over about 1.3e154, give NaN).
    """
    # The x and y parts run as separate arrays, in place: the same IEEE
    # operations as an (m, k, 2) form with two-term einsum sums, so the same
    # bits. The longer of m and k is the inner axis, which keeps numpy's inner
    # loops long; the result may be a transposed view.
    inner = points.shape[0] > starts.shape[0]
    px, py = (points[:, 0], points[:, 1]) if inner else (points[:, 0, None], points[:, 1, None])
    sx, sy = (starts[:, 0, None], starts[:, 1, None]) if inner else (starts[:, 0], starts[:, 1])
    dx, dy = ends[:, 0] - starts[:, 0], ends[:, 1] - starts[:, 1]
    len2 = dx * dx + dy * dy
    len2 = np.where(len2 == np.inf, np.nan, np.where(len2 > 0.0, len2, 1.0))
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


def distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` bit for bit where no value is NaN, signed zeros
    included, without the ``numpy.ma`` import ``np.unique`` makes on its first call."""
    v = np.sort(values, axis=None)
    return np.concatenate((v[:1], v[1:][v[1:] != v[:-1]]))


def window_sums(values: np.ndarray, firsts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``values[firsts[k]:firsts[k] + widths[k]].sum()`` for each k, bit for bit.

    Windows of one width are gathered into the rows of a C-contiguous array
    and summed along them, which adds each row in the order numpy's ``sum``
    adds it alone (``np.add.reduceat`` does not).
    """
    out = np.empty(len(widths))
    for width in distinct(widths).tolist():
        sel = np.flatnonzero(widths == width)
        out[sel] = values[firsts[sel, None] + np.arange(width)].sum(axis=1)
    return out


def _picks(values: np.ndarray, start: np.ndarray, stride: int, count: np.ndarray) -> np.ndarray:
    """``values[start[k] + r * stride]`` for r < count[k], for each k in turn."""
    k = np.repeat(np.arange(len(count)), count)
    r = np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
    return values[start[k] + r * stride]


def carrier_pairs(measured, carriers, ia: np.ndarray, ib: np.ndarray,
                  reduce) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-carrier distances of pairs of packed sequences, reduced per pair.

    For pair k, ``reduce`` turns the distances from the points of
    ``measured[ia[k]]`` to the polyline ``carriers[ib[k]]`` into the forward
    value, and those from ``measured[ib[k]]`` to ``carriers[ia[k]]`` into
    the backward one. ``measured`` and ``carriers`` are point stores
    (``xy``, ``offsets``) over the same sequences; ``measured`` may hold
    other points of each sequence than its vertices.

    Both directions of every pair form one sorted list of (measured,
    carrier) entries. A tile is a run of consecutive measured sequences
    whose entries span the same carriers, first to last, with points times
    carriers at most ``_BLOCK`` unless the tile is one sequence. The span
    is cut into blocks of at most ``_BLOCK`` segments, and of at most
    ``_BLOCK`` points times carriers; each block with an entry is one
    :func:`carrier_distances` call, whose forward entries and backward
    entries are reduced apart.

    ``reduce(flat, walks, count)`` gets the distances of some entries end
    to end, the c-th entry's ``count[c]`` from the points of
    ``measured[walks[c]]``, and returns one value per entry.
    """
    mo, co = measured.offsets, carriers.offsets
    mol, col = mo.tolist(), co.tolist()
    walk, carrier = np.concatenate([ia, ib]), np.concatenate([ib, ia])
    order = np.lexsort((carrier, walk))
    walk, carrier, forward = walk[order], carrier[order], order < len(ia)
    count = mo[walk + 1] - mo[walk]
    heads = np.flatnonzero(np.diff(walk, prepend=-1))  # each measured sequence's first entry
    tails = np.append(heads[1:], len(walk))
    w, lo, hi = walk[heads], carrier[heads], carrier[tails - 1] + 1
    runs = np.flatnonzero((np.diff(w, prepend=-2) != 1) | (np.diff(lo, prepend=-1) != 0)
                          | (np.diff(hi, prepend=-1) != 0)).tolist()
    w, lo, hi, heads, tails = w.tolist(), lo.tolist(), hi.tolist(), heads.tolist(), tails.tolist()
    out = np.empty(len(walk))
    for r, end in zip(runs, runs[1:] + [len(w)]):
        c0, c1 = lo[r], hi[r]
        while r < end:  # a tile: sequences w[r] .. w[s - 1], whose points times c1 - c0 fit
            a = w[r]
            s = max(r + 1, min(end, r - a - 1 + bisect.bisect_right(mol, mol[a] + _BLOCK // (c1 - c0))))
            k0, k1 = heads[r], tails[s - 1]
            points = measured.xy[mol[a]:mol[w[s - 1] + 1]]
            c = c0
            while c < c1:
                e = max(c + 1, min(c1, c + _BLOCK // max(1, len(points)),
                                   bisect.bisect_right(col, col[c] + 1 + _BLOCK) - 1))
                inside = (carrier[k0:k1] >= c) & (carrier[k0:k1] < e)
                if inside.any():
                    near = carrier_distances(points, carriers.xy, co[c:e + 1]).ravel()
                    for way in (forward[k0:k1], ~forward[k0:k1]):  # forward entries, then backward
                        k = k0 + np.flatnonzero(inside & way)
                        if len(k):
                            start = (mo[walk[k]] - mol[a]) * (e - c) + carrier[k] - c
                            out[order[k]] = reduce(_picks(near, start, e - c, count[k]), walk[k], count[k])
                c = e
            r = s
    return out[:len(ia)], out[len(ia):]


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
