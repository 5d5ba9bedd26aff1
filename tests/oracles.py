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
    if n == 0:
        return float(gap_b.sum())
    if m == 0:
        return float(gap_a.sum())
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
