"""Independent reference implementations used only by the tests.

Everything here trades speed for obviousness: exhaustive enumeration of
warping paths and edit scripts, dense sampling for geometric minima, and
brute-force re-computation of clustering quantities. None of it shares
code with the library under test beyond numpy itself.
"""

from __future__ import annotations

import math

import numpy as np


def euclid(p, q) -> float:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


# -- exhaustive alignment enumerations ---------------------------------------


def enum_dtw(a, b) -> float:
    """Minimum path sum over every monotone warping path, by brute DFS."""
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    assert n > 0 and m > 0
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc = acc + euclid(a[i], b[j])
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def enum_discrete_frechet(a, b) -> float:
    """Minimum over monotone couplings of the largest paired distance."""
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    assert n > 0 and m > 0
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc = max(acc, euclid(a[i], b[j]))
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def rec_lcss(a, b, eps: float) -> int:
    """Longest common subsequence count, direct recursive definition."""
    a, b = list(a), list(b)

    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if euclid(a[i], b[j]) < eps:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def rec_edr(a, b, eps: float) -> int:
    """Edit distance on real sequences, direct recursive definition."""
    a, b = list(a), list(b)

    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if euclid(a[i], b[j]) < eps:
            return rec(i + 1, j + 1)
        return 1 + min(rec(i + 1, j + 1), rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def enum_erp(a, b, gap) -> float:
    """Edit distance with real penalty by exhaustive edit-script DFS.

    Costs accumulate forward along each script (the same operation order
    a row-by-row tabulation uses), so on identical ground distances the
    returned minimum is bitwise comparable to a forward DP."""
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        if i == n and j == m:
            best[0] = min(best[0], acc)
            return
        if i < n and j < m:
            walk(i + 1, j + 1, acc + euclid(a[i], b[j]))
        if i < n:
            walk(i + 1, j, acc + euclid(a[i], gap))
        if j < m:
            walk(i, j + 1, acc + euclid(gap, b[j]))

    walk(0, 0, 0.0)
    return best[0]


# Frozen copies of the scalar DP loops that trajkit shipped before the
# recurrences were batched across pairs. The batched kernels must reproduce
# them bit for bit, base cases and empty-input rejections included.


def _scalar_pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijc,ijc->ij", diff, diff))


def _scalar_points(t) -> np.ndarray:
    pts = np.asarray(t, dtype=np.float64)
    return pts.reshape(0, 2) if pts.size == 0 else pts.reshape(-1, 2)


def scalar_dtw(t1, t2) -> float:
    a, b = _scalar_points(t1), _scalar_points(t2)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw: empty input (the warping cost of an empty sequence is unbounded)")
    cost = _scalar_pair_dists(a, b)
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


def scalar_lcss(t1, t2, eps_d: float) -> int:
    a, b = _scalar_points(t1), _scalar_points(t2)
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        return 0
    match = _scalar_pair_dists(a, b) < eps_d
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


def scalar_dlcss(t1, t2, eps_d: float) -> float:
    a, b = _scalar_points(t1), _scalar_points(t2)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dlcss: empty input")
    return 1.0 - scalar_lcss(a, b, eps_d) / min(a.shape[0], b.shape[0])


def scalar_edr(t1, t2, eps_d: float) -> int:
    a, b = _scalar_points(t1), _scalar_points(t2)
    n, m = a.shape[0], b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    match = _scalar_pair_dists(a, b) < eps_d
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


def scalar_erp(t1, t2, gap_point) -> float:
    a, b = _scalar_points(t1), _scalar_points(t2)
    g = np.asarray(gap_point, dtype=np.float64).reshape(1, 2)
    n, m = a.shape[0], b.shape[0]
    gap_a = _scalar_pair_dists(a, g)[:, 0] if n else np.empty(0)
    gap_b = _scalar_pair_dists(g, b)[0, :] if m else np.empty(0)
    # An empty side needs no branch: the table's row or column 0 adds the gap costs in order.
    cost = _scalar_pair_dists(a, b)
    prev = np.concatenate(([0.0], np.cumsum(gap_b)))
    cur = np.empty(m + 1)
    for i in range(n):
        cur[0] = prev[0] + gap_a[i]
        row = cost[i]
        for j in range(m):
            cur[j + 1] = min(prev[j] + row[j], prev[j + 1] + gap_a[i], cur[j] + gap_b[j])
        prev, cur = cur, prev
    return float(prev[m])


def scalar_discrete_frechet(t1, t2) -> float:
    a, b = _scalar_points(t1), _scalar_points(t2)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("discrete_frechet: empty input")
    dist = _scalar_pair_dists(a, b)
    n, m = dist.shape
    prev = np.full(m, np.inf)
    cur = np.empty(m)
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                cur[0] = dist[0, 0]
            elif i == 0:
                cur[j] = max(cur[j - 1], dist[0, j])
            elif j == 0:
                cur[0] = max(prev[0], dist[i, 0])
            else:
                cur[j] = max(min(prev[j - 1], prev[j], cur[j - 1]), dist[i, j])
        prev, cur = cur, prev
    return float(prev[m - 1])


# Frozen copies of the shape kernels that trajkit shipped before the
# Frechet feasibility decision moved to Python floats and owd sampled each
# direction in one call: the free-space decision indexing numpy arrays cell
# by cell, the candidate search around it, and the per-segment owd loop;
# and of spd and hausdorff before they measured points against a carrier in
# blocks of rows, each direction in one unblocked call.
# The rewritten kernels must reproduce them bit for bit.


def _frozen_segment_distances(points, starts, ends) -> np.ndarray:
    d = ends - starts
    len2 = np.einsum("kc,kc->k", d, d)
    w = points[:, None, :] - starts[None, :, :]
    t = np.einsum("mkc,kc->mk", w, d) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = starts[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - proj
    return np.sqrt(np.einsum("mkc,mkc->mk", diff, diff))


def _frozen_interval(a2, b, c0, eps2):
    if a2 <= 0.0:
        return (0.0, 1.0) if c0 <= eps2 else (1.0, 0.0)
    disc = b * b - 4.0 * a2 * (c0 - eps2)
    if disc < 0.0:
        return (1.0, 0.0)
    root = math.sqrt(disc)
    lo = (-b - root) / (2.0 * a2)
    hi = (-b + root) / (2.0 * a2)
    if lo < 0.0:
        lo = 0.0
    if hi > 1.0:
        hi = 1.0
    return (lo, hi)


class FrozenFreeSpace:
    """The free-space coefficients and the numpy-indexed feasibility decision."""

    def __init__(self, t1, t2) -> None:
        p = np.asarray(t1, dtype=np.float64)
        q = np.asarray(t2, dtype=np.float64)
        self.n = p.shape[0]
        self.m = q.shape[0]
        dq = q[1:] - q[:-1]
        dp = p[1:] - p[:-1]
        self.qa = np.einsum("jc,jc->j", dq, dq)
        self.pa = np.einsum("ic,ic->i", dp, dp)
        wv = q[:-1][None, :, :] - p[:, None, :]
        self.vb = 2.0 * np.einsum("ijc,jc->ij", wv, dq)
        self.vc = np.einsum("ijc,ijc->ij", wv, wv)
        wh = p[:-1][None, :, :] - q[:, None, :]
        self.hb = 2.0 * np.einsum("jic,ic->ji", wh, dp)
        self.hc = np.einsum("jic,jic->ji", wh, wh)
        self.d_start = math.dist(p[0], q[0])
        self.d_end = math.dist(p[-1], q[-1])
        self.probes = 0

    def feasible(self, eps: float) -> bool:
        self.probes += 1
        if eps < 0.0:
            return False
        if self.d_start > eps or self.d_end > eps:
            return False
        eps2 = (eps * (1.0 + 1e-12)) ** 2
        n, m = self.n, self.m
        qa, vb, vc = self.qa, self.vb, self.vc
        pa, hb, hc = self.pa, self.hb, self.hc
        rv = np.full((n, m - 1, 2), (1.0, 0.0))
        rh = np.full((n - 1, m, 2), (1.0, 0.0))
        for j in range(m - 1):
            lo, hi = _frozen_interval(qa[j], vb[0, j], vc[0, j], eps2)
            if lo > hi or lo > 0.0:
                break
            rv[0, j] = (0.0, hi)
            if hi < 1.0:
                break
        for i in range(n - 1):
            lo, hi = _frozen_interval(pa[i], hb[0, i], hc[0, i], eps2)
            if lo > hi or lo > 0.0:
                break
            rh[i, 0] = (0.0, hi)
            if hi < 1.0:
                break
        for j in range(m - 1):
            for i in range(n - 1):
                left_lo, left_hi = rv[i, j]
                bot_lo, bot_hi = rh[i, j]
                if left_lo > left_hi and bot_lo > bot_hi:
                    continue
                lo, hi = _frozen_interval(qa[j], vb[i + 1, j], vc[i + 1, j], eps2)
                if lo <= hi:
                    if bot_lo <= bot_hi:
                        rv[i + 1, j] = (lo, hi)
                    else:
                        lo2 = max(lo, left_lo)
                        if lo2 <= hi:
                            rv[i + 1, j] = (lo2, hi)
                lo, hi = _frozen_interval(pa[i], hb[j + 1, i], hc[j + 1, i], eps2)
                if lo <= hi:
                    if left_lo <= left_hi:
                        rh[i, j + 1] = (lo, hi)
                    else:
                        lo2 = max(lo, bot_lo)
                        if lo2 <= hi:
                            rh[i, j + 1] = (lo2, hi)
        if m >= 2 and rv[n - 1, m - 2, 1] >= 1.0 and rv[n - 1, m - 2, 0] <= 1.0:
            return True
        if n >= 2 and rh[n - 2, m - 1, 1] >= 1.0 and rh[n - 2, m - 1, 0] <= 1.0:
            return True
        return False

    def candidates(self) -> np.ndarray:
        tv = np.clip(-self.vb / np.where(self.qa > 0, 2 * self.qa, 1), 0.0, 1.0)
        dv = np.sqrt(np.maximum(self.qa * tv ** 2 + self.vb * tv + self.vc, 0.0))
        th = np.clip(-self.hb / np.where(self.pa > 0, 2 * self.pa, 1), 0.0, 1.0)
        dh = np.sqrt(np.maximum(self.pa * th ** 2 + self.hb * th + self.hc, 0.0))
        cell = np.maximum.reduce([dv[:-1, :], dv[1:, :], dh[:-1, :].T, dh[1:, :].T])
        vals = np.concatenate([cell.ravel(), [self.d_start, self.d_end]])
        return np.unique(vals)


def frozen_frechet(t1, t2, space=None) -> float:
    """Candidate binary search, doubling fallback and 1e-12 bisection over
    the frozen decision; pass ``space`` to count its probes."""
    fs = FrozenFreeSpace(t1, t2) if space is None else space
    cand = fs.candidates()
    lo_i, hi_i = 0, len(cand) - 1
    if fs.feasible(float(cand[lo_i])):
        return float(cand[lo_i])
    if not fs.feasible(float(cand[hi_i])):
        hi = float(cand[hi_i]) if cand[hi_i] > 0 else 1.0
        for _ in range(64):
            hi *= 2.0
            if fs.feasible(hi):
                break
        else:
            raise RuntimeError("frechet: no feasible radius found")
        lo = float(cand[hi_i])
    else:
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if fs.feasible(float(cand[mid])):
                hi_i = mid
            else:
                lo_i = mid
        lo, hi = float(cand[lo_i]), float(cand[hi_i])
    tol = max(1e-13, 1e-12 * hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fs.feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def exact_frechet(t1, t2) -> float:
    """Continuous Frechet as Alt & Godau define it: the smallest critical
    value that the frozen decision accepts, in scalar loops over the frozen
    coefficients. Types (a) the endpoint distances, (b) each vertex's
    distance to each segment of the other curve, and (c) on each segment,
    the distance from the point equidistant to two vertices k < l of the
    other curve, where it lies on the segment. A linear sweep upward from
    the lower bound (the endpoints and each vertex's nearest segment),
    capped at the discrete Frechet distance, the last radius it tries.

    Where the decision also accepts a radius 2e-12 below the value found,
    above the previous value of the sweep (the endpoint distance, for the
    lower bound), rounding has moved the decision's switch off the critical
    values; the switch is then bisected to 1e-12 relative instead."""
    fs = FrozenFreeSpace(t1, t2)
    values = [fs.d_start, fs.d_end]
    lower = max(values)
    for a2, b, c in ((fs.qa.tolist(), fs.vb.tolist(), fs.vc.tolist()),
                     (fs.pa.tolist(), fs.hb.tolist(), fs.hc.tolist())):
        for bv, cv in zip(b, c):  # one vertex against every segment
            near = []
            for a, bs, cs in zip(a2, bv, cv):
                t = min(max(-bs / (2 * a), 0.0), 1.0) if a > 0 else 0.0
                near.append(math.sqrt(max(a * (t * t) + bs * t + cs, 0.0)))
            values += near
            lower = max(lower, min(near))
        for s, a in enumerate(a2):  # two vertices against one segment
            for k in range(len(b)):
                for l in range(k + 1, len(b)):
                    den = b[k][s] - b[l][s]
                    if den == 0.0:
                        continue
                    t = (c[l][s] - c[k][s]) / den
                    if 0.0 <= t <= 1.0:
                        values.append(math.sqrt(max(a * t * t + b[k][s] * t + c[k][s], 0.0)))
    cap = scalar_discrete_frechet(t1, t2)
    if cap <= lower:
        return cap
    previous = max(fs.d_start, fs.d_end)
    for value in sorted(set(values) | {cap}):
        if value > cap:
            break
        if value < lower:
            continue
        if not fs.feasible(value):
            previous = value
            continue
        lo, hi = previous, value * (1.0 - 2e-12)
        if not (lo < hi and fs.feasible(hi)):
            return value
        while hi - lo > 1e-12 * hi and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if fs.feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi
    return cap


def frozen_owd(t1, t2, samples_per_unit: float = 1.0) -> float:
    a = np.asarray(t1, dtype=np.float64)
    b = np.asarray(t2, dtype=np.float64)
    starts, ends = a[:-1], a[1:]
    seg_len = np.hypot(*(ends - starts).T)
    total = float(seg_len.sum())
    if total <= 0.0:
        raise ValueError("owd: first trajectory has zero length")
    if float(np.hypot(*(b[1:] - b[:-1]).T).sum()) <= 0.0:
        raise ValueError("owd: second trajectory has zero length")
    bs, be = b[:-1], b[1:]
    integral = 0.0
    for k in range(starts.shape[0]):
        length = float(seg_len[k])
        if length == 0.0:
            continue
        pieces = max(7, math.ceil(length * samples_per_unit))
        t = np.linspace(0.0, 1.0, pieces + 1)
        samples = starts[k] + t[:, None] * (ends[k] - starts[k])
        d = _frozen_segment_distances(samples, bs, be).min(axis=1)
        integral += float(np.trapezoid(d)) * (length / pieces)
    return integral / total


def frozen_sowd(t1, t2, samples_per_unit: float = 1.0) -> float:
    return 0.5 * (frozen_owd(t1, t2, samples_per_unit) + frozen_owd(t2, t1, samples_per_unit))


def _frozen_carrier_distances(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _frozen_segment_distances(a, b[:-1], b[1:]).min(axis=1)


def frozen_spd(t1, t2) -> float:
    return float(_frozen_carrier_distances(t1, t2).mean())


def frozen_sspd(t1, t2) -> float:
    return 0.5 * (frozen_spd(t1, t2) + frozen_spd(t2, t1))


def frozen_hausdorff(t1, t2) -> float:
    return float(max(_frozen_carrier_distances(t1, t2).max(),
                     _frozen_carrier_distances(t2, t1).max()))


# Frozen copy of synth's sampling loop as trajkit shipped it when every
# trajectory measured its bundle's anchor again. synth must reproduce it
# bit for bit: the benchmark's label-recovery check is built on its output.


def _frozen_along_anchor(anchor, s) -> np.ndarray:
    seg = np.hypot(*(anchor[1:] - anchor[:-1]).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    x = np.interp(s, cum, anchor[:, 0])
    y = np.interp(s, cum, anchor[:, 1])
    return np.column_stack([x, y])


def frozen_synth(bundles, seed: int) -> tuple[list, list, list]:
    """(ids, point arrays, labels) of synth on validated ``bundles``
    (anchor, count, jitter and points as BundleSpec holds them)."""
    rng = np.random.default_rng(seed)
    ids, points, labels = [], [], []
    for b_idx, spec in enumerate(bundles):
        total = float(np.hypot(*(spec.anchor[1:] - spec.anchor[:-1]).T).sum())
        lo, hi = spec.points
        for t_idx in range(spec.count):
            m = int(rng.integers(lo, hi + 1))
            s = np.linspace(0.0, total, m)
            pts = _frozen_along_anchor(spec.anchor, s)
            if spec.jitter > 0:
                pts = pts + rng.normal(0.0, spec.jitter, pts.shape)
            ids.append(f"b{b_idx}t{t_idx}")
            points.append(pts)
            labels.append(b_idx)
    return ids, points, labels


# -- dense-sampling geometry -------------------------------------------------


def sample_point_to_polyline(p, pts, per_segment: int = 4000) -> float:
    """Nearest distance from p to a polyline by dense sampling."""
    pts = np.asarray(pts, dtype=np.float64)
    best = math.inf
    for a, b in zip(pts[:-1], pts[1:]):
        for t in np.linspace(0.0, 1.0, per_segment):
            q = a + t * (b - a)
            best = min(best, euclid(p, q))
    return best


def sample_hausdorff(a, b, per_segment: int = 2000) -> float:
    """Vertex-against-carrier Hausdorff by dense carrier sampling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d1 = max(sample_point_to_polyline(p, b, per_segment) for p in a)
    d2 = max(sample_point_to_polyline(q, a, per_segment) for q in b)
    return max(d1, d2)


def sample_carrier_hausdorff(a, b, per_segment: int = 400) -> float:
    """Hausdorff distance between the continuous polylines, by dense
    sampling of both carriers."""
    def samples(pts):
        pts = np.asarray(pts, dtype=np.float64)
        t = np.linspace(0.0, 1.0, per_segment)[:, None]
        return np.concatenate([p + t * (q - p) for p, q in zip(pts[:-1], pts[1:])])

    sa, sb = samples(a), samples(b)
    d = np.sqrt(((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def resample_polyline(pts, spacing: float) -> np.ndarray:
    """Arc-length resampling that keeps the original vertices."""
    pts = np.asarray(pts, dtype=np.float64)
    seg = np.hypot(*(pts[1:] - pts[:-1]).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0.0:
        return pts.copy()
    k = max(2, int(math.ceil(total / spacing)) + 1)
    s = np.unique(np.concatenate([np.linspace(0.0, total, k), cum]))
    x = np.interp(s, cum, pts[:, 0])
    y = np.interp(s, cum, pts[:, 1])
    return np.column_stack([x, y])


def resampled_frechet(a, b, spacing: float) -> float:
    """Brute-force continuous Frechet: discrete Frechet over monotone
    reparametrizations of both curves at the given arc-length resolution
    (iterative DP; the inputs get large)."""
    ra = resample_polyline(a, spacing)
    rb = resample_polyline(b, spacing)
    diff = ra[:, None, :] - rb[None, :, :]
    dist = np.sqrt(np.einsum("ijc,ijc->ij", diff, diff))
    n, m = dist.shape
    grid = np.empty((n, m))
    grid[0, 0] = dist[0, 0]
    for j in range(1, m):
        grid[0, j] = max(grid[0, j - 1], dist[0, j])
    for i in range(1, n):
        grid[i, 0] = max(grid[i - 1, 0], dist[i, 0])
        for j in range(1, m):
            grid[i, j] = max(min(grid[i - 1, j - 1], grid[i - 1, j], grid[i, j - 1]),
                             dist[i, j])
    return float(grid[n - 1, m - 1])


def dense_owd(a, b, samples: int = 20000) -> float:
    """One-way distance by global dense sampling and trapezoidal quadrature."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    seg = np.hypot(*(a[1:] - a[:-1]).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    s = np.unique(np.concatenate([np.linspace(0.0, total, samples), cum]))
    x = np.interp(s, cum, a[:, 0])
    y = np.interp(s, cum, a[:, 1])
    d = np.array([sample_point_to_polyline_fast(p, b) for p in np.column_stack([x, y])])
    return float(np.trapezoid(d, s) / total)


def sample_point_to_polyline_fast(p, pts) -> float:
    """Exact point-to-polyline distance via per-segment projection (used
    where dense sampling would be too slow; still independent of the
    library's vectorised kernel)."""
    pts = np.asarray(pts, dtype=np.float64)
    best = math.inf
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        L2 = float(d[0] * d[0] + d[1] * d[1])
        if L2 == 0.0:
            best = min(best, euclid(p, a))
            continue
        t = ((p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]) / L2
        t = min(1.0, max(0.0, t))
        q = (a[0] + t * d[0], a[1] + t * d[1])
        best = min(best, euclid(p, q))
    return best


# -- clustering --------------------------------------------------------------


def brute_exemplar(indices, values) -> int:
    """argmin over the subset of summed within-subset distances."""
    indices = sorted(indices)
    best, best_sum = None, math.inf
    for i in indices:
        total = sum(values[i][j] for j in indices)
        if total < best_sum:
            best, best_sum = i, total
    return best


def brute_criteria(labels, values) -> tuple[float, float]:
    """Between-like / within-like criteria, recomputed naively."""
    labels = np.asarray(labels)
    n = labels.size
    global_ex = brute_exemplar(range(n), values)
    bc = 0.0
    wc = 0.0
    for c in np.unique(labels):
        members = [int(i) for i in np.flatnonzero(labels == c)]
        ex = brute_exemplar(members, values)
        bc += values[global_ex][ex]
        wc += sum(values[ex][i] for i in members) / len(members)
    return bc, wc


# Frozen copies of the O(n^3) Lance-Williams agglomeration and the
# allocating affinity propagation that trajkit shipped before both were
# rewritten for speed. The rewrites must reproduce them bit for bit.


def scan_hca(values, linkage: str):
    """Lance-Williams agglomeration that scans the whole working matrix at
    every merge. Returns the merges as (left, right, height, size) tuples
    and the indices of the steps whose height dropped."""
    work = np.asarray(values, dtype=np.float64).copy()
    n = work.shape[0]
    if linkage == "ward":
        work = work ** 2
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n)
    cluster_id = np.arange(n)
    active = np.ones(n, dtype=bool)
    steps = []
    inversions = []
    prev_height = -np.inf
    for step in range(n - 1):
        i, j = divmod(int(np.argmin(work)), n)
        if i > j:
            i, j = j, i
        d_ij = work[i, j]
        height = float(np.sqrt(max(d_ij, 0.0))) if linkage == "ward" else float(d_ij)
        others = active.copy()
        others[i] = others[j] = False
        k = np.flatnonzero(others)
        if linkage == "single":
            new = np.minimum(work[i, k], work[j, k])
        elif linkage == "average":
            new = (sizes[i] * work[i, k] + sizes[j] * work[j, k]) / (sizes[i] + sizes[j])
        elif linkage == "weighted":
            new = 0.5 * (work[i, k] + work[j, k])
        else:
            tot = sizes[i] + sizes[j] + sizes[k]
            new = ((sizes[i] + sizes[k]) * work[i, k]
                   + (sizes[j] + sizes[k]) * work[j, k]
                   - sizes[k] * d_ij) / tot
        work[i, k] = new
        work[k, i] = new
        work[j, :] = np.inf
        work[:, j] = np.inf
        steps.append((int(cluster_id[i]), int(cluster_id[j]), height, int(sizes[i] + sizes[j])))
        if height < prev_height - 1e-12 * max(1.0, abs(prev_height)):
            inversions.append(step)
        prev_height = height
        sizes[i] += sizes[j]
        active[j] = False
        cluster_id[i] = n + step
    return steps, inversions


def allocating_ap(values, preference="min-similarity", damping=0.5, max_iter=1000,
                  convergence_iter=15):
    """Affinity propagation with fresh arrays for every message update.
    Returns (labels, exemplars, converged, n_iter, preference_value)."""
    vals = np.asarray(values, dtype=np.float64)
    n = vals.shape[0]
    s = -vals.astype(np.float64)
    if preference == "min-similarity":
        off = ~np.eye(n, dtype=bool)
        pref = float(s[off].min()) if n > 1 else 0.0
    else:
        pref = float(preference)
    np.fill_diagonal(s, pref)
    if n == 1:
        return [0], [0], True, 0, pref
    idx = np.arange(n)
    resp = np.zeros((n, n))
    avail = np.zeros((n, n))
    stable = 0
    last_ex = None
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        tmp = avail + s
        best = tmp.argmax(axis=1)
        best_val = tmp[idx, best]
        tmp[idx, best] = -np.inf
        second_val = tmp.max(axis=1)
        r_new = s - best_val[:, None]
        r_new[idx, best] = s[idx, best] - second_val
        resp = damping * resp + (1.0 - damping) * r_new
        rp = np.maximum(resp, 0.0)
        np.fill_diagonal(rp, np.diag(resp))
        a_new = rp.sum(axis=0)[None, :] - rp
        diag_a = np.diag(a_new).copy()
        a_new = np.minimum(a_new, 0.0)
        np.fill_diagonal(a_new, diag_a)
        avail = damping * avail + (1.0 - damping) * a_new
        ex = np.flatnonzero(np.diag(avail) + np.diag(resp) > 0.0)
        if last_ex is not None and ex.size and np.array_equal(ex, last_ex):
            stable += 1
            if stable >= convergence_iter:
                converged = True
                break
        else:
            stable = 0
        last_ex = ex
    ex = np.flatnonzero(np.diag(avail) + np.diag(resp) > 0.0)
    if ex.size == 0:
        ex = np.array([int(np.argmax(np.diag(avail) + np.diag(resp)))])
        converged = False
    labels = (s + avail)[:, ex].argmax(axis=1)
    for pos, e in enumerate(ex):
        labels[e] = pos
    return labels.tolist(), [int(e) for e in ex], converged, n_iter, pref
