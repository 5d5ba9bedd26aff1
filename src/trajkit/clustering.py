"""Clustering on precomputed distance matrices.

Agglomerative clustering is driven by the Lance-Williams recurrence so
that any linkage works directly on a distance matrix; affinity propagation
runs the standard damped message-passing updates on similarities (negated
distances). Cluster quality is summarised by exemplar-based between-like
and within-like criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .matrix import DistanceMatrix, _symmetric
from .warping import integer, real

__all__ = [
    "APResult",
    "ClusterAssignment",
    "Dendrogram",
    "LINKAGES",
    "MergeStep",
    "affinity_propagation",
    "criteria",
    "CriteriaResult",
    "cut",
    "exemplar",
    "hca",
]

LINKAGES = ("single", "average", "weighted", "ward")

_COMPACT_MIN = 64  # hca drops its retired rows only from working matrices larger than this


def _values(m: DistanceMatrix | np.ndarray, name: str, symmetric: bool = False) -> np.ndarray:
    """The values of ``m`` for call ``name``. A DistanceMatrix is trusted; a
    bare array must be square and finite, and symmetric if ``symmetric``.
    Either must be nonempty."""
    if isinstance(m, DistanceMatrix):
        vals = m.values
    else:
        vals = np.asarray(m, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"{name}: expected a square distance matrix")
        if not np.isfinite(vals).all() or symmetric and not _symmetric(vals):
            raise ValueError(f"{name}: expected a finite {'symmetric ' if symmetric else ''}matrix")
    if vals.shape[0] == 0:
        raise ValueError(f"{name}: empty matrix")
    return vals


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration: clusters ``left`` and ``right`` join at ``height``.

    Cluster ids 0..n-1 are the original items; the cluster created by step
    t gets id n + t. ``size`` is the member count of the new cluster.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full merge history of an agglomerative run. All four linkages are
    reducible, so the merge heights never decrease."""

    n_items: int
    linkage: str
    steps: tuple[MergeStep, ...]

    def heights(self) -> np.ndarray:
        return np.array([s.height for s in self.steps])


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Labels in [0, k) for each item, every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        k = integer(self.k)
        if k is None or not 1 <= k <= labels.size:
            raise ValueError(f"ClusterAssignment: invalid cluster count k={self.k!r} for "
                             f"{labels.size} items; expected an int in [1, {labels.size}]")
        present = geometry.distinct(labels)
        if present.size != k or present[0] != 0 or present[-1] != k - 1:
            raise ValueError("labels must cover 0..k-1 with every cluster nonempty")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)


@np.errstate(over="ignore", invalid="ignore")  # the merge-height test refuses an overflow
def hca(m: DistanceMatrix | np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of a distance matrix via Lance-Williams.

    At each step the closest active pair merges (ties broken toward the
    lowest index pair) and the merged cluster's distances to the rest are
    rewritten by the linkage's recurrence. Ward runs the recurrence on
    squared dissimilarities and reports square-rooted heights.

    Each row's nearest active column is cached, so a merge costs O(n)
    plus a rescan of the rows whose cached neighbour took part in it,
    instead of a scan of the whole matrix. A working matrix of more than
    64 rows drops its retired rows and columns each time half of them have
    retired, keeping their order, so the merges are those of the full matrix.

    Parameters
    ----------
    m : DistanceMatrix or square ndarray, finite and symmetric
    linkage : {"single", "average", "weighted", "ward"}

    Returns
    -------
    Dendrogram
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of {', '.join(LINKAGES)}")
    vals = _values(m, "hca", symmetric=True)
    n = vals.shape[0]
    work = np.square(vals) if linkage == "ward" else vals.astype(np.float64)
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n)
    cluster_id = list(range(n))
    # nn[r] is the lowest column holding row r's minimum and nd[r] that
    # minimum, so argmin(nd) and then nn pick the pair i < j that a row-major
    # argmin over the symmetric matrix would. A retired row has nn = -1 and
    # nd = inf, and its column reads as inf (written so in a small matrix,
    # masked so wherever a row of a large one is read), so no update, rescan
    # or argmin reads it.
    nn = work.argmin(axis=1)
    nd = work.min(axis=1)
    retired = np.zeros(n, dtype=bool)
    steps: list[MergeStep] = []
    for step in range(n - 1):
        if work.shape[0] > _COMPACT_MIN and 2 * (n - step) <= work.shape[0]:
            # Half the rows have retired: keep only the live ones, in order,
            # so row and column order (hence every tie) is unchanged.
            live = (~retired).nonzero()[0]
            at = np.full(work.shape[0], -1)
            at[live] = np.arange(live.size)
            work = work.take(live, axis=0).take(live, axis=1)
            sizes, nn, nd = sizes[live], at[nn[live]], nd[live]
            cluster_id = [cluster_id[r] for r in live.tolist()]
            retired = np.zeros(live.size, dtype=bool)
        large = work.shape[0] > _COMPACT_MIN
        i = int(nd.argmin())
        j = int(nn[i])
        d_ij = work[i, j]
        if not math.isfinite(d_ij):
            raise ValueError(f"hca: {linkage} linkage overflowed: a merge height is not finite")
        height = math.sqrt(max(d_ij, 0.0)) if linkage == "ward" else float(d_ij)
        si, sj = sizes[i], sizes[j]
        if linkage == "single":
            new = np.minimum(work[i], work[j])
        elif linkage == "average":
            new = (si * work[i] + sj * work[j]) / (si + sj)
        elif linkage == "weighted":
            new = 0.5 * (work[i] + work[j])
        else:  # ward, on squared dissimilarities
            new = ((si + sizes) * work[i] + (sj + sizes) * work[j] - sizes * d_ij) / (si + sj + sizes)
        new[i] = new[j] = np.inf
        retired[j] = True
        if large:  # mask the retired columns wherever a row is read
            np.putmask(new, retired, np.inf)
        else:  # a small matrix: one strided write costs less than the masks
            work[:, j] = np.inf
        work[i] = new
        work[:, i] = new
        steps.append(MergeStep(cluster_id[i], cluster_id[j], height, int(si + sj)))
        sizes[i] += sj
        cluster_id[i] = n + step
        nn[j] = -1
        nd[j] = np.inf
        # Outside rows i and j only column i changed (column j retired), so
        # a row whose neighbour was neither keeps it unless the new entry
        # beats it or ties it from a lower column; the others are rescanned.
        stale = ((nn == i) | (nn == j)).nonzero()[0]
        closer = ((new < nd) | ((new == nd) & (nn > i))).nonzero()[0]
        nn[closer] = i
        nd[closer] = new[closer]
        rows = work.take(stale, axis=0)
        if large:
            np.copyto(rows, np.inf, where=retired)
        nn[stale] = rows.argmin(axis=1)
        nd[stale] = rows.min(axis=1)
    return Dendrogram(n, linkage, tuple(steps))


def cut(dendrogram: Dendrogram, k: int) -> ClusterAssignment:
    """Cut a dendrogram into exactly ``k`` clusters by undoing the last
    k-1 merges. Cluster labels are ordered by each cluster's smallest
    member index, so the labelling is deterministic."""
    n = dendrogram.n_items
    if integer(k) is None or not 1 <= k <= n:
        raise ValueError(f"cut: k must be an int in [1, {n}], got {k!r}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for t in range(n - k):
        step = dendrogram.steps[t]
        merged = members.pop(step.left) + members.pop(step.right)
        members[n + t] = merged
    clusters = sorted(members.values(), key=min)
    labels = np.empty(n, dtype=np.int64)
    for c, items in enumerate(clusters):
        labels[items] = c
    return ClusterAssignment(labels, k)


@dataclass(frozen=True, eq=False)
class APResult:
    """Outcome of affinity propagation.

    ``converged`` is False when the exemplar set was still changing at
    ``max_iter`` (the assignment is still returned, flagged as partial) or
    when the degenerate no-exemplar fallback fired.
    """

    assignment: ClusterAssignment
    exemplars: tuple[int, ...]
    converged: bool
    n_iter: int
    preference_value: float


def affinity_propagation(
    m: DistanceMatrix | np.ndarray,
    preference: float | str = "min-similarity",
    damping: float = 0.5,
    max_iter: int = 1000,
    convergence_iter: int = 15,
) -> APResult:
    """Affinity propagation on similarities s(i, j) = -distance(i, j).

    Exchanges damped responsibility/availability messages until the
    exemplar set has been stable for ``convergence_iter`` sweeps. The
    shared diagonal preference steers how many exemplars emerge.

    Parameters
    ----------
    m : DistanceMatrix or square ndarray, finite
    preference : float or "min-similarity"
        Diagonal self-similarity. The default uses the minimum observed
        similarity (the negated largest distance), which favours few
        clusters; a raw numeric value may be given instead.
    damping : float in (0, 1)
        Message update inertia. The conventional 0.5 suits most inputs;
        when the preference magnitude dwarfs the similarity spread the
        messages can enter a limit cycle — the result then comes back
        with ``converged=False`` and a higher damping (e.g. 0.9) is the
        standard remedy.
    max_iter, convergence_iter : int
        Sweep budget and required stability window.
    """
    vals = np.ascontiguousarray(_values(m, "affinity_propagation"))
    n = vals.shape[0]
    if not 0.0 < real(damping) < 1.0:  # NaN fails it too
        raise ValueError(f"affinity_propagation: damping must be a number strictly inside (0, 1), "
                         f"got {damping!r}")
    damping = real(damping)
    for name, count in (("max_iter", max_iter), ("convergence_iter", convergence_iter)):
        if integer(count) is None or count < 1:
            raise ValueError(f"affinity_propagation: {name} must be an int >= 1, got {count!r}")
    # The messages are updated a block of whole rows at a time, and s = -vals
    # (diagonal: pref) is never formed: a + s is a - vals and s - b is
    # (-b) - vals, bit for bit. So resp and avail are the only n x n arrays held.
    rows = min(n, max(1, geometry._BLOCK // n))
    blocks = []  # (first row, end row, rows counted from 0, the block's diagonal cells)
    for r0 in range(0, n, rows):
        i = np.arange(min(rows, n - r0))
        blocks.append((r0, r0 + i.size, i, (i, i + r0)))
    if isinstance(preference, str):
        if preference != "min-similarity":
            raise ValueError(f"unknown preference {preference!r}; pass a number or 'min-similarity'")
        # Row r of this view runs from cell (r, r + 1) to cell (r + 1, r).
        pref = -float(vals.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].max()) if n > 1 else 0.0
    else:
        pref = real(preference)
        if not math.isfinite(pref):
            raise ValueError(f"affinity_propagation: preference must be finite and a number, "
                             f"got {preference!r}")

    if n == 1:
        assignment = ClusterAssignment(np.zeros(1, dtype=np.int64), 1)
        return APResult(assignment, (0,), True, 0, pref)

    # Each damped update is damping * old + (1 - damping) * new, done in
    # place. A block's new messages are worked out in rows 1.. of tbuf. The
    # availabilities need the column sums of max(resp, 0) (diagonal: resp's
    # own) over all rows: numpy's sum(axis=0) of a C-ordered array adds its
    # rows one after another, so summing the running sum stacked as row 0
    # above each later block gives the bits of one sum over the whole array.
    resp = np.zeros((n, n))
    avail = np.zeros((n, n))
    tbuf = np.empty((rows + 1, n))
    col = np.empty(n)
    stable = 0
    last_ex: np.ndarray | None = None
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        # responsibilities: how strongly i favours k over the runner-up
        for r0, r1, i, diag in blocks:
            tmp = tbuf[1:r1 - r0 + 1]
            np.subtract(avail[r0:r1], vals[r0:r1], out=tmp)
            tmp[diag] = avail[r0:r1][diag] + pref
            best = tmp.argmax(axis=1)
            best_val = tmp[i, best]
            tmp[i, best] = -np.inf
            second_val = tmp.max(axis=1)
            np.subtract(-best_val[:, None], vals[r0:r1], out=tmp)
            tmp[diag] = pref - best_val
            tmp[i, best] = np.where(best == i + r0, pref, -vals[i + r0, best]) - second_val
            r = resp[r0:r1]
            r *= damping
            tmp *= 1.0 - damping
            r += tmp
            np.maximum(r, 0.0, out=tmp)
            tmp[diag] = r[diag]
            if r0 == 0:
                tmp.sum(axis=0, out=col)
            else:
                tbuf[0] = col
                tbuf[:r1 - r0 + 1].sum(axis=0, out=col)
        # availabilities: pooled positive support for k as an exemplar
        for r0, r1, _, diag in blocks:
            tmp = tbuf[:r1 - r0]
            r = resp[r0:r1]
            np.maximum(r, 0.0, out=tmp)
            tmp[diag] = r[diag]
            np.subtract(col, tmp, out=tmp)
            diag_a = tmp[diag]
            np.minimum(tmp, 0.0, out=tmp)
            tmp[diag] = diag_a
            a = avail[r0:r1]
            a *= damping
            tmp *= 1.0 - damping
            a += tmp

        ex = np.flatnonzero(avail.diagonal() + resp.diagonal() > 0.0)
        if last_ex is not None and ex.size and np.array_equal(ex, last_ex):
            stable += 1
            if stable >= convergence_iter:
                converged = True
                break
        else:
            stable = 0
        last_ex = ex

    if ex.size == 0:
        # Fully degenerate message state (e.g. all-equal similarities):
        # fall back to the single strongest self-evidence, flagged as
        # unconverged.
        ex = np.array([int(np.argmax(avail.diagonal() + resp.diagonal()))])
        converged = False

    a_ex = avail[:, ex] - vals[:, ex]
    a_ex[ex, np.arange(ex.size)] = avail[ex, ex] + pref
    labels = a_ex.argmax(axis=1)
    for pos, e in enumerate(ex):
        labels[e] = pos
    return APResult(
        assignment=ClusterAssignment(labels.astype(np.int64), int(ex.size)),
        exemplars=tuple(int(e) for e in ex),
        converged=converged,
        n_iter=n_iter,
        preference_value=pref,
    )


def exemplar(indices: Sequence[int], m: DistanceMatrix | np.ndarray) -> int:
    """Most central member of an item subset: the member whose summed
    distance to the rest of the subset is smallest (ties break to the
    lowest item index). A bare array must be square, finite and nonempty."""
    return _central(indices, _values(m, "exemplar"))


def _central(indices: Sequence[int], vals: np.ndarray) -> int:
    """:func:`exemplar` on the values of a matrix already checked."""
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices)).ravel()
    if idx.size == 0:
        raise ValueError("exemplar: empty index set")
    if idx.dtype.kind not in "iu":  # a bool mask or a float is not an index
        raise ValueError(f"exemplar: indices must be integers, got {idx.dtype} values")
    idx = idx.astype(np.int64, copy=False)
    if not (idx[1:] > idx[:-1]).all():
        idx = geometry.distinct(idx)
    if idx[0] < 0 or idx[-1] >= vals.shape[0]:
        raise ValueError("exemplar: index out of range")
    if idx.size == vals.shape[0]:
        # Sorted, unique and in range, so idx is every item: the matrix
        # itself, laid out as the gathered copy would be, gives the same sums.
        sub = np.ascontiguousarray(vals)
    else:
        sub = vals[idx[:, None], idx]
    return int(idx[int(sub.sum(axis=1).argmin())])


@dataclass(frozen=True)
class CriteriaResult:
    """Between-like and within-like criteria plus the exemplars behind them."""

    bc: float
    wc: float
    global_exemplar: int
    exemplars: tuple[int, ...]


def criteria(assignment: ClusterAssignment, m: DistanceMatrix | np.ndarray) -> CriteriaResult:
    """Exemplar-based cluster quality criteria.

    The between-like criterion sums the distances from the whole-dataset
    exemplar to each cluster exemplar (0 for a single cluster); the
    within-like criterion sums each cluster's mean distance from its
    exemplar to its members (0 when every item is its own cluster).
    """
    vals = _values(m, "criteria")
    return _criteria(assignment, vals, _central(np.arange(vals.shape[0]), vals), {})


def _criteria(assignment: ClusterAssignment, vals: np.ndarray, global_ex: int,
              memo: dict[bytes, tuple[int, float]]) -> CriteriaResult:
    """:func:`criteria` on the values of a matrix already checked, given its
    global exemplar. ``memo`` maps a member set (its index bytes) to its
    exemplar and mean distance to members; calls on the same values may
    share it, since both depend on the members alone."""
    if assignment.labels.size != vals.shape[0]:
        raise ValueError("criteria: assignment and matrix size differ")
    bc = 0.0
    wc = 0.0
    exs: list[int] = []
    for c in range(assignment.k):
        members = assignment.members(c)
        key = members.tobytes()
        if key not in memo:
            ex = _central(members, vals)
            memo[key] = ex, float(vals[ex, members].mean())
        ex, within = memo[key]
        exs.append(ex)
        bc += float(vals[global_ex, ex])
        wc += within
    return CriteriaResult(bc, wc, global_ex, tuple(exs))


def _criteria_sweep(dendrogram: Dendrogram, m: DistanceMatrix | np.ndarray,
                    ks: Sequence[int]) -> list[CriteriaResult]:
    """``criteria(cut(dendrogram, k), m)`` for each k of ``ks``, with the
    global exemplar found once and each cluster's exemplar found once for
    all the cuts that hold that cluster."""
    vals = _values(m, "criteria")
    global_ex = _central(np.arange(vals.shape[0]), vals)
    memo: dict[bytes, tuple[int, float]] = {}
    return [_criteria(cut(dendrogram, k), vals, global_ex, memo) for k in ks]
