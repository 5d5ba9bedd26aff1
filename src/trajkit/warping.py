"""Warping, edit and coupling distances between point sequences.

All functions accept either :class:`~trajkit.geometry.Trajectory` objects or
bare array-likes of shape (n, 2). Unlike the shape-based distances, the
recurrences here are defined for sequences of any length, so base cases for
empty inputs are honoured where they are meaningful (LCSS, EDR, ERP) and
rejected where the distance is unbounded (DTW, DLCSS).

Each recurrence, and the discrete Frechet coupling, is a cell rule that
:func:`sweep` runs on a batch of pairs from a :class:`PointStore`. A
single-pair call is a batch of one, so a matrix entry equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import as_points

__all__ = ["dlcss", "dtw", "edr", "erp", "lcss"]

#: Pairs per batch. A batch costs about as much as its longest sequences,
#: whatever its size, so fixed-size batches keep matrix time per pair flat.
CHUNK = 256
_PAD = np.array([[0.0, 0.0], [np.inf, np.inf]])


@dataclass(frozen=True, eq=False)
class PointStore:
    """Point sequences packed end to end, sequence k at ``xy[offsets[k]:offsets[k + 1]]``,
    then a zero point and a point at infinity, which :meth:`gather` pads with."""

    xy: np.ndarray
    offsets: np.ndarray

    @classmethod
    def pack(cls, sequences) -> PointStore:
        seqs = [as_points(s) for s in sequences]
        return cls(np.concatenate(seqs + [_PAD]), np.cumsum([0] + [len(s) for s in seqs]))

    def __getitem__(self, k: int) -> np.ndarray:
        return self.xy[self.offsets[k]:self.offsets[k + 1]]

    def lengths(self, idx: np.ndarray) -> np.ndarray:
        return self.offsets[idx + 1] - self.offsets[idx]

    def require_carriers(self, ia: np.ndarray, ib: np.ndarray, message: str) -> None:
        """Raise ``ValueError(message)`` if a sequence of ``ia`` or ``ib`` has fewer than 2 points."""
        if (self.lengths(ia) < 2).any() or (self.lengths(ib) < 2).any():
            raise ValueError(message)

    def gather(self, idx: np.ndarray, size: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The x and y planes of points ``steps`` (a column) of sequences ``idx`` of lengths
        ``size``, shape (2, steps, idx): the zero point past the end, the point at infinity before it."""
        at = np.where(steps < size, self.offsets[idx] + steps, -2)
        return self.xy.T.take(np.where(steps < 0, -1, at), axis=1)


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance over the first axis (the bits of sqrt(einsum(d, d)))."""
    d = p - q
    d *= d
    return np.sqrt(d[0] + d[1])


def sweep(rule, store: PointStore, ia: np.ndarray, ib: np.ndarray, *params) -> np.ndarray:
    """Cell T[n][m] of the DP table of ``rule`` for each pair (ia[k], ib[k]).

    Every rule is symmetric, so each pair runs with its shorter sequence as
    ``a``, the rows: the table of (b, a) is the transpose of that of (a, b),
    bit for bit. The pairs run in order of shape, CHUNK at a time, gathered,
    zero-padded to their longest sequences (n rows, m columns) and swept
    together by anti-diagonals, three kept at a time: memory is O(CHUNK x
    longest sequence). Diagonal k computes rows max(0, k - m)..min(n, k)
    alone. A cell reads only cells above and left of it, so neither padding
    nor the rows past the band reach a pair's own cells. Each sequence
    starts with a point at infinity, and the cells before row and column 0
    hold the rule's ``outside`` value, so the rule yields row and column 0.

    ``rule(a, b, *params)`` gives ``(T[0][0], outside, cost, cell)``; row r
    of ``a`` is point r - 1, ``b`` holds columns m..0, column j being point
    j - 1. ``cell(diag, up, left, c, out, rows, facing)`` writes ``rows`` of
    one anti-diagonal from T[i-1][j-1], T[i-1][j] and T[i][j-1]; ``c`` is
    ``cost`` of the point distances and ``b[:, facing]`` the b points that
    ``rows`` meet on it.
    """
    na, nb = store.lengths(ia), store.lengths(ib)
    swap = nb < na
    first, second = np.where(swap, ib, ia), np.where(swap, ia, ib)
    order = np.lexsort((np.maximum(na, nb), np.minimum(na, nb)))
    result = np.empty(len(ia))
    for c in range(0, len(ia), CHUNK):
        at = order[c:c + CHUNK]
        pa, pb = first[at], second[at]
        na, nb = store.lengths(pa), store.lengths(pb)
        n, m = int(na.max()), int(nb.max())
        a = store.gather(pa, na, np.arange(-1, n)[:, None])
        b = store.gather(pb, nb, np.arange(m - 1, -2, -1)[:, None])
        corner, outside, cost, cell = rule(a, b, *params)
        diags = np.full((3, n + 2, len(at)), outside)  # row 0 of each is row -1
        diags[0, 1] = corner
        finish: dict[int, list[int]] = {}
        for lane, k in enumerate((na + nb).tolist()):
            finish.setdefault(k, []).append(lane)
        for k in range(n + m + 1):
            diag, last, cur = diags[k % 3 - 2], diags[k % 3 - 1], diags[k % 3]
            if k:
                lo, hi = max(0, k - m), min(n, k) + 1
                rows, facing = slice(lo, hi), slice(m - k + lo, m - k + hi)
                cell(diag[lo:hi], last[lo:hi], last[lo + 1:hi + 1],
                     cost(_dist(a[:, rows], b[:, facing])), cur[lo + 1:hi + 1], rows, facing)
            if k in finish:
                done = finish[k]
                result[at[done]] = cur[na[done] + 1, done]
    return result


def _min3(x, y, z, out):
    np.minimum(x, y, out=out)
    return np.minimum(out, z, out=out)


def _same(dist):
    return dist


def _dtw(a, b):
    def cell(diag, up, left, dist, out, rows, facing):
        np.add(_min3(diag, up, left, out), dist, out=out)
    return 0.0, np.inf, _same, cell


def _coupling(a, b):
    def cell(diag, up, left, dist, out, rows, facing):
        np.maximum(_min3(diag, up, left, out), dist, out=out)
    return -np.inf, np.inf, _same, cell


def _lcss(a, b, eps_d):
    def cell(diag, up, left, match, out, rows, facing):
        np.maximum(up, left, out=out)
        np.add(diag, 1.0, out=out, where=match)
    return 0.0, 0.0, lambda dist: dist < eps_d, cell


def _edr(a, b, eps_d):
    def cell(diag, up, left, match, out, rows, facing):
        np.add(_min3(diag, up, left, out), 1.0, out=out)
        np.copyto(out, diag, where=match)
    return 0.0, np.inf, lambda dist: dist < eps_d, cell


def _erp(a, b, gap_point):
    g = np.asarray(gap_point, dtype=np.float64).reshape(2, 1, 1)
    gap_a, gap_b = _dist(a, g), _dist(g, b)
    tmp = np.empty_like(gap_a)

    def cell(diag, up, left, dist, out, rows, facing):  # align a_i with b_j, or leave one unmatched
        np.minimum(np.add(diag, dist, out=tmp[rows]), np.add(up, gap_a[rows], out=out), out=out)
        np.minimum(out, np.add(left, gap_b[facing], out=tmp[rows]), out=out)
    return 0.0, np.inf, _same, cell


dtw_batch = partial(sweep, _dtw)
coupling_batch = partial(sweep, _coupling)
lcss_batch = partial(sweep, _lcss)
edr_batch = partial(sweep, _edr)
erp_batch = partial(sweep, _erp)


def dlcss_batch(store: PointStore, ia, ib, eps_d: float) -> np.ndarray:
    return 1.0 - lcss_batch(store, ia, ib, eps_d) / np.minimum(store.lengths(ia), store.lengths(ib))


_PAIR = (np.array([0]), np.array([1]))


def real(value) -> float:
    """``value`` as a Python float if it is an int or a float, numpy's
    included; else NaN, for a bool too and for an int past float64's range."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        return float(value) if number else np.nan
    except OverflowError:
        return np.nan


def integer(value) -> int | None:
    """``value`` as a Python int if it is an int, numpy's included; else
    None, for a bool too."""
    number = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return int(value) if number else None


def check_eps_d(eps_d, name: str) -> float:
    """``eps_d`` as a Python float if it is a matching threshold for distance ``name``:
    positive, infinity included (it matches every pair of points); else a ValueError."""
    if eps_d is None:
        raise ValueError(f"{name} requires eps_d (matching threshold)")
    value = real(eps_d)
    if not value > 0:  # NaN fails it too
        raise ValueError(f"{name}: eps_d must be positive, got {eps_d!r}")
    return value


def check_gap(gap, name: str) -> tuple[float, float]:
    """The gap point of distance ``name`` as two Python floats, the origin
    when ``gap`` is None; a ValueError unless it is two finite numbers."""
    point = (0.0, 0.0) if gap is None else gap
    listed = isinstance(point, (tuple, list)) or (isinstance(point, np.ndarray) and point.ndim == 1)
    point = tuple(map(real, point)) if listed else ()
    if len(point) != 2 or not np.isfinite(point).all():
        raise ValueError(f"{name}: gap must be two finite numbers, got {gap!r}")
    return point


def on_pair(batch, name: str, t1, t2, *params, nonempty: bool = False) -> float:
    """``batch`` run on the one pair (t1, t2) for the single-pair call
    ``name``. If ``nonempty``, empty input is rejected. A distance that is
    not finite, or whose arithmetic overflows a Python float, raises a
    ValueError naming the call."""
    store = PointStore.pack([t1, t2])
    if nonempty and not np.diff(store.offsets).all():
        raise ValueError(f"{name}: empty input")
    try:
        value = float(batch(store, *_PAIR, *params)[0])
    except OverflowError as exc:
        raise ValueError(f"{name}: non-finite distance (OverflowError: {exc})") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name}: non-finite distance {value!r}")
    return value


def dtw(t1, t2) -> float:
    """Dynamic time warping distance with Euclidean ground cost.

    Every point of one sequence is aligned to at least one point of the
    other, order preserved; the summed cost of the cheapest such alignment
    is returned.

    Parameters
    ----------
    t1, t2 : Trajectory or array-like of shape (n, 2)
        Nonempty point sequences.

    Returns
    -------
    float
    """
    return on_pair(dtw_batch, "dtw", t1, t2, nonempty=True)


def lcss(t1, t2, eps_d: float) -> int:
    """Length of the longest common subsequence under threshold ``eps_d``.

    Points p1, p2 match when ||p1 - p2|| < eps_d (strict). Empty inputs
    yield 0.

    Returns
    -------
    int
        Number of matched pairs (a similarity, not a distance).
    """
    return int(on_pair(lcss_batch, "lcss", t1, t2, check_eps_d(eps_d, "lcss")))


def dlcss(t1, t2, eps_d: float) -> float:
    """LCSS turned into a dissimilarity: 1 - LCSS / min(n1, n2).

    Ranges over [0, 1]; 0 when the shorter sequence matches entirely.
    Empty inputs are rejected (the normaliser would vanish).
    """
    return on_pair(dlcss_batch, "dlcss", t1, t2, check_eps_d(eps_d, "dlcss"), nonempty=True)


def edr(t1, t2, eps_d: float) -> int:
    """Edit distance on real sequences: fewest insert/delete/substitute edits.

    A match (cost 0) requires ||p1 - p2|| < eps_d (strict); every other edit
    costs 1. An empty sequence is at distance len(other) (all insertions).

    Returns
    -------
    int
    """
    return int(on_pair(edr_batch, "edr", t1, t2, check_eps_d(eps_d, "edr")))


def erp(t1, t2, gap_point) -> float:
    """Edit distance with real penalty, priced against a fixed gap point.

    Aligning p1 with p2 costs ||p1 - p2||; leaving a point unmatched costs
    its distance to ``gap_point``. With a fixed gap point this is a true
    metric. An empty sequence is at distance sum(||p - gap_point||) over
    the other, added in order as the table adds it. ``gap_point`` must be
    two finite numbers.

    Returns
    -------
    float
    """
    return on_pair(erp_batch, "erp", t1, t2, check_gap(gap_point, "erp"))
