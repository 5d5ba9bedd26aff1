"""Shape distances between piecewise-linear trajectories.

These distances compare the geometric carriers of two trajectories and
ignore timestamps entirely: Hausdorff, continuous and discrete Frechet,
and the one-way / symmetrised one-way distances (OWD / SOWD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry, warping
from .geometry import carrier_distances, carrier_pairs, distinct, segment_lengths, window_sums
from .warping import _PAIR, PointStore

__all__ = [
    "discrete_frechet",
    "frechet",
    "frechet_feasible",
    "frechet_candidates",
    "hausdorff",
    "owd",
    "sowd",
]


def _maxima(flat: np.ndarray, walks: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(flat, np.cumsum(n) - n)


def hausdorff_batch(store: PointStore, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """hausdorff of each pair (ia[k], ib[k]) of sequences of ``store``."""
    store.require_carriers(ia, ib, "hausdorff: needs trajectories with at least 2 points")
    return np.maximum(*carrier_pairs(store, store, ia, ib, _maxima))


def hausdorff(t1, t2) -> float:
    """Hausdorff distance between two polylines, measured from the vertices.

    Each vertex of one trajectory is measured against the other trajectory's
    carrier; the largest such nearest-distance over both directions is
    returned, as traj-dist computes it. The max-min distance between the
    continuous polylines can be larger, as its maximum can lie inside a segment.
    """
    return warping.on_pair(hausdorff_batch, "hausdorff", t1, t2)


def discrete_frechet(t1, t2) -> float:
    """Discrete Frechet distance (coupling of vertices, order preserved).

    Smallest over all monotone couplings of the two vertex sequences of the
    largest paired point distance.
    """
    return warping.on_pair(warping.coupling_batch, "discrete_frechet", t1, t2, nonempty=True)


# ---------------------------------------------------------------------------
# Continuous Frechet distance: free-space decision over the critical values.
# ---------------------------------------------------------------------------


def _boundary_coefficients(p: np.ndarray, q: np.ndarray, dq: np.ndarray) -> tuple:
    """b[i, j] = 2 (q[j] - p[i]) . dq[j] and c[i, j] = |q[j] - p[i]|^2: the
    linear and constant terms of the boundaries pairing vertex i of p with
    segment j of q. The (rows, m-1, 2) differences exist for a band of about
    geometry._BLOCK cells at a time; einsum gives each element the same bits
    on a band as on the whole array."""
    b = np.empty((p.shape[0], dq.shape[0]))
    c = np.empty_like(b)
    band = max(1, geometry._BLOCK // q.shape[0])
    for i0 in range(0, p.shape[0], band):
        w = q[:-1][None, :, :] - p[i0:i0 + band, None, :]
        np.einsum("ijc,jc->ij", w, dq, out=b[i0:i0 + band])
        np.einsum("ijc,ijc->ij", w, w, out=c[i0:i0 + band])
    b *= 2.0
    return b, c


def _intervals(a2, b, c0, eps2: float) -> tuple[list, list]:
    """Clamped parameter intervals where segments meet discs, elementwise.

    The squared distance from segment point X(t) = A + t(B-A) to a disc
    centre is a2*t^2 + b*t + c0; each interval solves <= eps2 within
    [0, 1]. Returns the lows and the highs as lists, lo > hi where empty.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a2 * (c0 - eps2)
        root = np.sqrt(disc)
        lo = np.maximum((-b - root) / (2.0 * a2), 0.0)
        hi = np.minimum((-b + root) / (2.0 * a2), 1.0)
    point = a2 <= 0.0  # degenerate segment: a single point
    empty = np.where(point, ~(c0 <= eps2), disc < 0.0)
    lo = np.where(empty, 1.0, np.where(point, 0.0, lo))
    hi = np.where(empty, 0.0, np.where(point, 1.0, hi))
    return lo.tolist(), hi.tolist()


class _FreeSpace:
    """Per-pair quadratic coefficients for free-space interval queries.

    Vertical boundaries pair vertex i of P with segment j of Q; horizontal
    boundaries pair vertex j of Q with segment i of P. Coefficients are
    computed once, and held only as numpy arrays, so that the feasibility
    decision can be replayed for many probe radii during the search.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray) -> None:
        self.n = p.shape[0]
        self.m = q.shape[0]
        dq = q[1:] - q[:-1]  # (m-1, 2)
        dp = p[1:] - p[:-1]  # (n-1, 2)
        self.qa = np.einsum("jc,jc->j", dq, dq)  # (m-1,)
        self.pa = np.einsum("ic,ic->i", dp, dp)  # (n-1,)
        self.vb, self.vc = _boundary_coefficients(p, q, dq)  # (n, m-1)
        self.hb, self.hc = _boundary_coefficients(q, p, dp)  # (m, n-1)
        self.d_start = math.dist(p[0], q[0])
        self.d_end = math.dist(p[-1], q[-1])

    def feasible(self, eps: float) -> bool:
        """Monotone-path decision at radius ``eps``.

        Propagates reachable sub-intervals of the cell boundaries through
        the free-space diagram in row-major order. The radius is inflated
        by one part in 1e12 so that intervals that open exactly at a
        critical value survive floating-point rounding.
        """
        if self.d_start > eps or self.d_end > eps:
            return False
        eps2 = (eps * (1.0 + 1e-12)) ** 2
        n, m = self.n, self.m
        empty = (1.0, 0.0)  # lo > hi encodes "unreachable"

        # Reachable intervals of one row j of cells at a time: on its bottom
        # boundaries (row j of horizontal ones), its top boundaries (row
        # j + 1) and its vertical boundaries, each indexed by i. numpy gives
        # the boundaries' own intervals for a band of rows at a time.
        bot = [empty] * (n - 1)
        for i, (lo, hi) in enumerate(zip(*_intervals(self.pa, self.hb[0], self.hc[0], eps2))):
            if lo > hi or lo > 0.0:  # bottom edge: climb only while intervals stay joined
                break
            bot[i] = (0.0, hi)
            if hi < 1.0:
                break
        side = [empty] * n
        climbing = True  # up the left edge, likewise
        band = max(1, _BAND // n)  # rows of cells
        for j0 in range(0, m - 1, band):
            j1 = j0 + band
            right = _intervals(self.qa[j0:j1, None], self.vb[:, j0:j1].T, self.vc[:, j0:j1].T, eps2)
            up = _intervals(self.pa, self.hb[j0 + 1:j1 + 1], self.hc[j0 + 1:j1 + 1], eps2)
            for v_lo, v_hi, h_lo, h_hi in zip(*right, *up):
                side, top = [empty] * n, [empty] * (n - 1)
                if climbing:
                    lo, hi = v_lo[0], v_hi[0]
                    if lo > hi or lo > 0.0:
                        climbing = False
                    else:
                        side[0] = (0.0, hi)
                        climbing = not hi < 1.0  # NaN climbs on, as the bottom edge does
                for i in range(n - 1):
                    left_lo, left_hi = side[i]
                    bot_lo, bot_hi = bot[i]
                    if left_lo > left_hi and bot_lo > bot_hi:
                        continue
                    # Right boundary: vertex i+1 of P against segment j of Q.
                    lo, hi = v_lo[i + 1], v_hi[i + 1]
                    if lo <= hi:
                        if bot_lo <= bot_hi:
                            side[i + 1] = (lo, hi)
                        else:
                            lo2 = max(lo, left_lo)
                            if lo2 <= hi:
                                side[i + 1] = (lo2, hi)
                    # Top boundary: vertex j+1 of Q against segment i of P.
                    lo, hi = h_lo[i], h_hi[i]
                    if lo <= hi:
                        if left_lo <= left_hi:
                            top[i] = (lo, hi)
                        else:
                            lo2 = max(lo, bot_lo)
                            if lo2 <= hi:
                                top[i] = (lo2, hi)
                bot = top

        return side[n - 1][0] <= 1.0 <= side[n - 1][1] or bot[n - 2][0] <= 1.0 <= bot[n - 2][1]

    def near(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-segment distances: each vertex of P to each segment of Q,
        (n, m-1), and each vertex of Q to each segment of P, (m, n-1).

        Each is the stored quadratic at its clamped orthogonal projection
        parameter; these are the type-(b) critical values.
        """
        tv = np.clip(-self.vb / np.where(self.qa > 0, 2 * self.qa, 1), 0.0, 1.0)
        dv = np.sqrt(np.maximum(self.qa * tv ** 2 + self.vb * tv + self.vc, 0.0))
        th = np.clip(-self.hb / np.where(self.pa > 0, 2 * self.pa, 1), 0.0, 1.0)
        dh = np.sqrt(np.maximum(self.pa * th ** 2 + self.hb * th + self.hc, 0.0))
        return dv, dh

    def critical_values(self, near: tuple[np.ndarray, np.ndarray], lo: float, hi: float) -> np.ndarray:
        """Alt & Godau's critical radii in [lo, hi], sorted and unique: (a)
        the endpoint distances, (b) the vertex-to-segment distances
        ``near``, and (c) on each segment, the distance to two vertices
        k < l of the other curve from the point equidistant to both, where
        it lies on the segment (t = (c_l - c_k) / (b_k - b_l) in [0, 1])."""
        dv, dh = near
        vals = [np.array([self.d_start, self.d_end]), dv.ravel(), dh.ravel()]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals += _equidistant(self.qa, self.vb, self.vc, lo, hi)
            vals += _equidistant(self.pa, self.hb, self.hc, lo, hi)
        vals = np.concatenate(vals)
        return distinct(vals[(vals >= lo) & (vals <= hi)])


_BAND = 1 << 10  # cells whose boundary intervals a decision computes in one step
_SAMPLES = 1 << 22  # owd samples one sequence may take (64 MiB of points)


def _equidistant(a2: np.ndarray, b: np.ndarray, c: np.ndarray, lo: float, hi: float) -> list:
    """Type-(c) values in [lo, hi] on segments with squared lengths ``a2``,
    against the vertices whose quadratics a2*t^2 + b[k]*t + c[k] the rows
    of b and c hold; in blocks of segments of about geometry._BLOCK values."""
    k, l = np.triu_indices(b.shape[0], 1)
    step = max(1, geometry._BLOCK // max(1, len(k)))
    out = []
    for s in range(0, len(a2), step):
        bs, cs = b[:, s:s + step], c[:, s:s + step]
        bk, ck = bs[k], cs[k]
        t = (cs[l] - ck) / (bk - bs[l])  # 0/0 and x/0 (equal or degenerate) fail the test below
        on = (t >= 0.0) & (t <= 1.0)
        t = t[on]
        d = np.sqrt(np.maximum(np.broadcast_to(a2[s:s + step], on.shape)[on] * t * t
                               + bk[on] * t + ck[on], 0.0))
        out.append(d[(d >= lo) & (d <= hi)])
    return out


def _lower_bound(fs: _FreeSpace, near: tuple[np.ndarray, np.ndarray]) -> float:
    """The endpoint distances and each vertex's distance to the other
    carrier, whichever is largest: every traversal passes each vertex at
    least that far from the other curve. It is itself a critical value."""
    dv, dh = near
    return max(fs.d_start, fs.d_end, float(dv.min(axis=1).max()), float(dh.min(axis=1).max()))


def frechet_candidates(t1, t2) -> np.ndarray:
    """The radii :func:`frechet` searches: the Alt-Godau critical values
    from the pair's lower bound (endpoint and vertex-to-carrier distances)
    up to its discrete Frechet distance, sorted ascending."""
    store = PointStore.pack([t1, t2])
    store.require_carriers(*_PAIR, "frechet: needs trajectories with at least 2 points")
    fs = _FreeSpace(store[0], store[1])
    near = fs.near()
    return fs.critical_values(near, _lower_bound(fs, near), discrete_frechet(store[0], store[1]))


def frechet_feasible(t1, t2, eps: float) -> bool:
    """Decide whether the two trajectories are within Frechet distance ``eps``.

    True when monotone traversals of both polylines exist that never drift
    further apart than ``eps`` (free-space reachability). ``eps`` must be
    an int or a float, not a bool or NaN; a negative one is never met and
    infinity always is.
    """
    radius = warping.real(eps)
    if math.isnan(radius):
        raise ValueError(f"frechet_feasible: eps must be a number, got {eps!r}")
    store = PointStore.pack([t1, t2])
    store.require_carriers(*_PAIR, "frechet_feasible: needs trajectories with at least 2 points")
    return _FreeSpace(store[0], store[1]).feasible(radius)


def _frechet_pair(p: np.ndarray, q: np.ndarray, upper: float) -> float:
    """The smallest of the critical values from the pair's lower bound up to
    ``upper``, its discrete Frechet distance, and ``upper`` itself that the
    decision accepts; ``upper`` where the bounds meet or it accepts none.
    The lower bound's decision runs before any type-(c) value is enumerated.

    The decision switches about 1e-12 below a value it computes well. If it
    also accepts 2e-12 below the value found (and above the previous one, or
    the endpoint distance), rounding has moved the switch (``disc`` cancels
    when a vertex lies close to a long segment): it is bisected to 1e-12.

    Both searches rely on the decision being monotone in ``eps`` under IEEE
    rounding. The endpoint tests are plain comparisons with ``eps``.
    Elementwise, ``eps2``, ``disc`` and ``root`` grow with ``eps`` (each a
    correctly rounded, monotone operation on it), so every interval's ``lo``
    only falls and its ``hi`` only rises. Reachable intervals, built from
    those with ``max`` and the same tests, only grow, as does the final test.
    """
    fs = _FreeSpace(p, q)
    near = fs.near()
    lower = _lower_bound(fs, near)
    if upper <= lower:
        return upper
    if fs.feasible(lower):
        lo, value = max(fs.d_start, fs.d_end), lower
    else:
        crit = distinct(np.append(fs.critical_values(near, lower, upper), upper))
        lo_i, hi_i = 0, len(crit)  # crit[0] is lower, rejected; len(crit): none accepted
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if fs.feasible(float(crit[mid])):
                hi_i = mid
            else:
                lo_i = mid
        if hi_i == len(crit):
            return upper
        lo, value = float(crit[lo_i]), float(crit[hi_i])
    hi = value * (1.0 - 2e-12)
    if not (lo < hi and fs.feasible(hi)):
        return value
    while hi - lo > 1e-12 * hi and lo < (mid := 0.5 * (lo + hi)) < hi:
        if fs.feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def frechet_batch(store: PointStore, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """frechet of each pair (ia[k], ib[k]) of sequences of ``store``."""
    store.require_carriers(ia, ib, "frechet: needs trajectories with at least 2 points")
    upper = warping.coupling_batch(store, ia, ib).tolist()
    return np.array([_frechet_pair(store[i], store[j], up)
                     for i, j, up in zip(ia.tolist(), ib.tolist(), upper)])


def frechet(t1, t2) -> float:
    """Continuous Frechet distance between two polylines.

    Alt & Godau show that the distance is one of their critical values:
    an endpoint distance, a vertex-to-segment distance, or the distance
    from two vertices of one curve to the point of a segment of the other
    equidistant to both. This is the smallest one that the free-space
    decision accepts, found by a binary search between the pair's lower
    bound and its discrete Frechet distance, which caps it; or, where
    rounding moves the decision's switch off that value, the switch.
    """
    return warping.on_pair(frechet_batch, "frechet", t1, t2)


# ---------------------------------------------------------------------------
# One-way distance.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OwdSamples:
    """The arc-length samples owd integrates along each sequence of a store.

    Every segment of positive length is a piece of ``width`` trapezoids
    (at least 7, else ``ceil(length * samples_per_unit)``) over width + 1
    uniform samples, vertices included. Sequence k's samples are
    ``points[k]``, its pieces ``first[k]:first[k + 1]``; piece g starts at
    sample ``start[g]`` of its sequence and weighs a trapezoid sum by
    ``scale[g]``, its length over its width. ``total`` is each sequence's
    length; ``ok`` is False where it is zero or needs over _SAMPLES samples.
    ``samples_per_unit`` is the density they were built at.
    """

    points: PointStore
    first: np.ndarray
    start: np.ndarray
    width: np.ndarray
    scale: np.ndarray
    total: np.ndarray
    ok: np.ndarray
    samples_per_unit: float


def check_density(samples_per_unit, name: str) -> float:
    """The sampling density of distance ``name`` as a Python float, 1.0 when
    ``samples_per_unit`` is None; a ValueError unless positive and finite."""
    density = 1.0 if samples_per_unit is None else warping.real(samples_per_unit)
    if not 0 < density < math.inf:  # NaN fails it too
        raise ValueError(f"{name}: samples_per_unit must be positive and finite, got {samples_per_unit!r}")
    return density


@np.errstate(over="ignore")  # seam lengths are dropped; an overflow elsewhere is refused
def owd_samples(store: PointStore, samples_per_unit: float) -> OwdSamples:
    """Sample every sequence of ``store`` as :func:`owd` does, at once."""
    n = store.lengths(np.arange(len(store.offsets) - 1))
    seams = store.offsets[1:-1] - 1  # segments that join two sequences
    length = np.delete(segment_lengths(store.xy[:store.offsets[-1]]), seams)
    segments = np.delete(np.arange(store.offsets[-1] - 1), seams)  # first vertex of each
    total = window_sums(length, np.cumsum(n - 1) - (n - 1), n - 1)
    owner = np.repeat(np.arange(len(n)), n - 1)
    count = np.where(length != 0.0, np.maximum(7.0, np.ceil(length * samples_per_unit)) + 1.0, 0.0)
    ok = (total > 0.0) & (np.bincount(owner, count, len(n)) <= _SAMPLES)  # else too many to hold
    keep = (length != 0.0) & ok[owner]
    length, segments, owner = length[keep], segments[keep], owner[keep]
    width = count[keep].astype(np.int64) - 1
    ends = np.cumsum(width + 1)
    xy = np.empty((int(ends[-1]) if len(ends) else 0, 2))
    for w in distinct(width).tolist():
        sel = np.flatnonzero(width == w)
        a, b = store.xy[segments[sel]], store.xy[segments[sel] + 1]
        t = np.linspace(0.0, 1.0, w + 1)[:, None]
        xy[(ends[sel] - w - 1)[:, None] + np.arange(w + 1)] = a[:, None] + t * (b - a)[:, None]
    first = np.searchsorted(owner, np.arange(len(n) + 1))
    offsets = np.concatenate([[0], ends])[first]
    return OwdSamples(PointStore(xy, offsets), first, ends - width - 1 - offsets[owner],
                      width, length / width, total, ok, samples_per_unit)


def _integrals(samples: OwdSamples, flat: np.ndarray, walks: np.ndarray, n: np.ndarray) -> np.ndarray:
    """owd of each pair from the distances of the ``n`` samples of its
    measured sequence: the trapezoid sums of the pieces, weighed and added
    in segment order."""
    count = samples.first[walks + 1] - samples.first[walks]
    pair = np.repeat(np.arange(len(walks)), count)
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    piece = samples.first[walks][pair] + rank
    base = np.cumsum(n) - n
    traps = 1.0 * (flat[1:] + flat[:-1]) / 2.0
    terms = np.zeros((len(walks), int(count.max())))
    terms[pair, rank] = window_sums(traps, base[pair] + samples.start[piece],
                                    samples.width[piece]) * samples.scale[piece]
    integral = np.zeros(len(walks))
    for term in terms.T:  # adding the zero padding changes nothing
        integral += term
    return integral / samples.total[walks]


def _check_samples(store: PointStore, samples: OwdSamples, ia: np.ndarray, ib: np.ndarray) -> None:
    """Raise owd's reason for the first pair (ia[k], ib[k]) with a sequence
    of fewer than 2 points, of zero length, or with too many samples."""
    bad = np.flatnonzero(~(samples.ok[ia] & samples.ok[ib]))[:1]
    if len(bad):
        store.require_carriers(ia[bad], ib[bad], "owd: needs trajectories with at least 2 points")
        for walk, which in ((ia[bad[0]], "first"), (ib[bad[0]], "second")):
            if samples.total[walk] <= 0.0:
                raise ValueError(f"owd: {which} trajectory has zero length")
        raise ValueError(f"owd: too many samples at {samples.samples_per_unit!r} per unit length")


def _pair_samples(store: PointStore, samples_per_unit, name: str) -> OwdSamples:
    """The one pair's samples, with owd's checks on them; a bad density is refused as ``name``."""
    store.require_carriers(*_PAIR, "owd: needs trajectories with at least 2 points")
    samples = owd_samples(store, check_density(samples_per_unit, name))
    _check_samples(store, samples, *_PAIR)
    return samples


def sowd_batch(store: PointStore, ia: np.ndarray, ib: np.ndarray, samples: OwdSamples) -> np.ndarray:
    """sowd of each pair (ia[k], ib[k]) of sequences of ``store``, from the
    samples :func:`owd_samples` built from it."""
    _check_samples(store, samples, ia, ib)
    fwd, bwd = carrier_pairs(samples.points, store, ia, ib, partial(_integrals, samples))
    return 0.5 * (fwd + bwd)


def owd(t1, t2, samples_per_unit: float = 1.0) -> float:
    """One-way distance from ``t1`` to ``t2`` (directional).

    Mean distance from the carrier of ``t1`` to the carrier of ``t2``:
    the integral of the point-to-trajectory distance along ``t1``,
    divided by the length of ``t1``. The integral is evaluated by the
    trapezoidal rule on uniform arc-length samples of each segment
    (vertices always included, at least 8 samples per segment, default
    density one sample per unit length).

    Parameters
    ----------
    t1, t2 : Trajectory or array-like of shape (n, 2)
        Both must have positive total length.
    samples_per_unit : float
        Sampling density along ``t1``, positive and finite.
    """
    return warping.on_pair(_owd_pair, "owd", t1, t2, samples_per_unit)


def _owd_pair(store: PointStore, ia: np.ndarray, ib: np.ndarray, samples_per_unit) -> np.ndarray:
    """owd of the one pair packed in ``store``, (ia, ib) = (0, 1)."""
    samples = _pair_samples(store, samples_per_unit, "owd")
    near = carrier_distances(samples.points[0], store[1], (0, len(store[1])))
    return _integrals(samples, near.ravel(), ia, np.array([len(near)]))


def sowd(t1, t2, samples_per_unit: float = 1.0) -> float:
    """Symmetrised one-way distance: mean of owd(t1, t2) and owd(t2, t1)."""
    return warping.on_pair(_sowd_pair, "sowd", t1, t2, samples_per_unit)


def _sowd_pair(store: PointStore, ia: np.ndarray, ib: np.ndarray, samples_per_unit) -> np.ndarray:
    """sowd of the one pair packed in ``store``."""
    return sowd_batch(store, ia, ib, _pair_samples(store, samples_per_unit, "sowd"))
