"""Pairwise distance matrices: computation, binary persistence, CSV export.

The binary layout is: magic ``TRJD``, format version (u32), item count n
(u32), n length-prefixed UTF-8 ids, a length-prefixed UTF-8 kind string,
then the row-major strictly-upper triangle as little-endian float64. The
CSV export mirrors the full symmetric matrix for interoperability.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import geometry, shape, sspd, warping
from .dataset import write_csv
from .geometry import Trajectory

__all__ = [
    "DISTANCE_NAMES",
    "DistanceMatrix",
    "DistanceSpec",
    "MatrixComputationError",
    "MatrixFormatError",
    "compute_matrix",
    "load_matrix",
    "save_matrix",
    "save_matrix_csv",
]

_MAGIC = b"TRJD"
_VERSION = 1

#: Distance name -> (batch kernel over a PointStore, the DistanceSpec
#: fields passed to it as parameters).
_KERNELS = {
    "dtw": (warping.dtw_batch, ()),
    "dlcss": (warping.dlcss_batch, ("eps_d",)),
    "edr": (warping.edr_batch, ("eps_d",)),
    "erp": (warping.erp_batch, ("gap",)),
    "hausdorff": (shape.hausdorff_batch, ()),
    "frechet": (shape.frechet_batch, ()),
    "discrete_frechet": (warping.coupling_batch, ()),
    "sowd": (shape.sowd_batch, ("samples_per_unit",)),
    "sspd": (sspd.sspd_batch, ()),
}

#: Distances that can back a matrix job. ``lcss`` is accepted as an alias
#: of ``dlcss``: a matrix must hold dissimilarities with a zero diagonal,
#: which the raw match count is not.
DISTANCE_NAMES = tuple(_KERNELS)

#: DistanceSpec field -> its rule, ``rule(value, distance name)``, which
#: gives the value to store or raises a ValueError; the single-pair calls
#: check their parameters with the same rules. A field that the distance
#: does not take is stored as None, so equal specs compare and hash equal.
_RULES = {"eps_d": warping.check_eps_d, "gap": warping.check_gap,
          "samples_per_unit": shape.check_density}

#: Batch kernels whose parameters are built from the packed points, once per
#: job and before the pool forks, so that every worker shares them.
_BATCH_PARAMS = {"sowd": lambda store, density: (shape.owd_samples(store, density),)}


class MatrixFormatError(ValueError):
    """Raised when a stored matrix file cannot be decoded."""


class MatrixComputationError(RuntimeError):
    """Raised when a pairwise distance evaluation fails."""


@dataclass(frozen=True)
class DistanceSpec:
    """A distance name plus the parameters it needs.

    Parameters
    ----------
    name : str
        One of :data:`DISTANCE_NAMES` (or ``lcss``, stored as ``dlcss``).
    eps_d : float, optional
        Matching threshold; required for ``dlcss``/``edr``.
    gap : (float, float), optional
        ERP gap point, two finite numbers; defaults to the frame origin (0, 0).
    samples_per_unit : float, optional
        Arc-length sampling density for ``sowd``, positive and finite; defaults to 1.0.
    """

    name: str
    eps_d: float | None = None
    gap: tuple[float, float] | None = None
    samples_per_unit: float | None = None

    def __post_init__(self) -> None:
        name = "dlcss" if self.name == "lcss" else self.name
        object.__setattr__(self, "name", name)
        if name not in DISTANCE_NAMES:
            raise ValueError(f"unknown distance {self.name!r}; expected one of {', '.join(DISTANCE_NAMES)}")
        taken = _KERNELS[name][1]
        for field, rule in _RULES.items():
            object.__setattr__(self, field, rule(getattr(self, field), name) if field in taken else None)

    def render(self) -> str:
        """Canonical kind string stored alongside a matrix."""
        fields = _KERNELS[self.name][1]
        if not fields:
            return self.name
        return f"{self.name}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distance matrix with item ids and a kind label.

    Attributes
    ----------
    ids : tuple of str
        Item identifiers, one per row/column.
    kind : str
        Distance name plus parameters, e.g. ``"edr(eps_d=0.5)"``.
    values : ndarray of shape (n, n)
        Symmetric, finite, non-negative, zero diagonal; read-only.
    """

    ids: tuple[str, ...]
    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        self._adopt(np.array(self.values, dtype=np.float64))

    def _adopt(self, vals: np.ndarray) -> None:
        """Check ``vals``, a float64 array no one else holds, and keep it read-only."""
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("distance matrix must be square")
        if len(self.ids) != vals.shape[0]:
            raise MatrixFormatError(
                f"id count mismatch: {len(self.ids)} ids for a {vals.shape[0]}x{vals.shape[1]} matrix")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("distance matrix ids must be unique")
        if not np.all(np.isfinite(vals)):
            raise ValueError("distance matrix values must be finite")
        if np.any(vals < 0):
            raise ValueError("distance matrix values must be non-negative")
        if np.any(np.diag(vals) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if not _symmetric(vals):
            raise ValueError("distance matrix must be symmetric")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def _symmetric(vals: np.ndarray) -> bool:
    """Whether the square ``vals`` equals its transpose, read a band of rows at a time."""
    band = max(1, geometry._BLOCK // max(1, vals.shape[0]))
    return all((vals[b0:b0 + band, :b0 + band] == vals[:b0 + band, b0:b0 + band].T).all()
               for b0 in range(0, vals.shape[0], band))


def _adopted(ids: tuple, kind: str, values: np.ndarray) -> DistanceMatrix:
    """A DistanceMatrix that keeps ``values``, built by the caller for it, without a copy."""
    m = DistanceMatrix.__new__(DistanceMatrix)
    object.__setattr__(m, "ids", ids)
    object.__setattr__(m, "kind", kind)
    m._adopt(values)
    return m


# -- evaluation --------------------------------------------------------------

#: Failing pairs named in a MatrixComputationError; the rest are counted.
_REPORTED_FAILURES = 10

_WORKER: dict = {}


def _pair_indices(n: int, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pairs at flat positions start..end-1 of the
    row-major strict upper triangle of an n x n matrix."""
    row_len = np.arange(n - 1, 0, -1)
    row_start = np.cumsum(row_len) - row_len
    k = np.arange(start, end)
    i = np.searchsorted(row_start, k, side="right") - 1
    return i, k - row_start[i] + i + 1


def _eval_range(job: tuple, bounds: tuple[int, int]) -> tuple[int, np.ndarray, list]:
    """Distances of the pairs at flat positions ``bounds``, and the pairs
    that failed as (flat position, i, j, message). The batch kernel runs
    the range at once; if it raises, it runs each pair of the range alone.
    A pair whose distance is not finite fails too."""
    store, batch, params = job
    start, end = bounds
    ia, ib = _pair_indices(len(store.offsets) - 1, start, end)
    failures = []
    try:
        values = batch(store, ia, ib, *params)
    except Exception:  # re-run pair by pair, to name the failing pairs
        values = np.zeros(len(ia))
        for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
            try:
                values[k] = batch(store, ia[k:k + 1], ib[k:k + 1], *params)[0]
            except Exception as exc:  # reported with the offending pair attached
                failures.append((start + k, i, j, f"{type(exc).__name__}: {exc}"))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        failures.append((start + k, int(ia[k]), int(ib[k]), f"non-finite distance {values[k]}"))
    return start, values, failures


def _init_worker(job: tuple) -> None:
    # Where the parent raises KeyboardInterrupt on SIGINT, a worker ends on
    # it: a terminal Ctrl-C then stops the workers with the parent.
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    _WORKER["job"] = job


def _eval_in_worker(bounds: tuple[int, int]) -> tuple[int, np.ndarray, list]:
    return _eval_range(_WORKER["job"], bounds)


def _square(flat: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix, zero on the diagonal, whose row-major
    strict upper triangle is ``flat``."""
    values = np.zeros((n, n))
    start = 0
    for i in range(n - 1):
        row = flat[start:start + n - 1 - i]
        values[i, i + 1:] = row
        values[i + 1:, i] = row
        start += n - 1 - i
    return values


def compute_matrix(
    trajectories: Sequence[Trajectory],
    spec: DistanceSpec | str,
    workers: int = 1,
) -> DistanceMatrix:
    """Compute the full pairwise distance matrix for a trajectory list.

    Parameters
    ----------
    trajectories : sequence of Trajectory
        At least one trajectory; ids must be unique.
    spec : DistanceSpec or str
        Which distance to run (a bare name works when no parameter is needed).
    workers : int
        Worker processes; 1 computes in-process. Results are identical for
        any worker count, since every pair is evaluated independently.

    Raises
    ------
    MatrixComputationError
        If any pairwise evaluation fails. Every pair is still evaluated;
        the error counts the failures and names the first ones, in row-major
        pair order, so the report is the same for any worker count. Also
        raised when a worker process dies, e.g. killed by the system.
    """
    if isinstance(spec, str):
        spec = DistanceSpec(spec)
    if len(trajectories) == 0:
        raise ValueError("compute_matrix: need at least one trajectory")
    ids = [t.id for t in trajectories]
    if len(set(ids)) != len(ids):
        raise ValueError("compute_matrix: trajectory ids must be unique")
    if warping.integer(workers) is None or workers < 1:
        raise ValueError(f"compute_matrix: workers must be an int >= 1, got {workers!r}")
    n = len(trajectories)
    npairs = n * (n - 1) // 2
    store = warping.PointStore.pack(trajectories)  # points checked when each was built
    batch, fields = _KERNELS[spec.name]
    params = tuple(getattr(spec, f) for f in fields)
    if spec.name in _BATCH_PARAMS:
        params = _BATCH_PARAMS[spec.name](store, *params)
    job = (store, batch, params)
    # A range is at most 16 DP batches, which keeps O(n^2) off every
    # worker; where n is small, the pool gives each worker about 8 ranges.
    cap = 16 * warping.CHUNK
    size = cap if workers == 1 else min(cap, max(1, npairs // (workers * 8)))
    ranges = [(s, min(s + size, npairs)) for s in range(0, npairs, size)]
    flat = np.zeros(npairs)
    failures = []
    executor, broken = contextlib.nullcontext(), ()  # a serial run has no pool to break
    if workers > 1 and npairs > 0:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       _init_worker, (job,))
        broken = BrokenProcessPool
    try:
        with executor as pool:
            # Left unnamed, the result stream closes as soon as the loop body
            # raises, which cancels the ranges not yet handed to a worker.
            for start, values, failed in (map(functools.partial(_eval_range, job), ranges)
                                          if pool is None else pool.map(_eval_in_worker, ranges)):
                flat[start:start + len(values)] = values
                failures += failed
    except broken as exc:
        raise MatrixComputationError(f"{spec.render()}: a worker process died: {exc}") from None
    if failures:
        failures.sort()
        named = "; ".join(f"({ids[i]!r}, {ids[j]!r}): {msg}"
                          for _, i, j, msg in failures[:_REPORTED_FAILURES])
        more = len(failures) - _REPORTED_FAILURES
        raise MatrixComputationError(
            f"{spec.render()} failed on {len(failures)} pair(s): {named}"
            + (f"; and {more} more" if more > 0 else ""))
    return _adopted(tuple(ids), spec.render(), _square(flat, n))


# -- persistence -------------------------------------------------------------


def save_matrix(m: DistanceMatrix, path: str | Path) -> None:
    """Write a matrix in the binary layout described in the module docstring,
    one row of the upper triangle at a time."""
    n = len(m)
    strings = [text.encode("utf-8") for text in (*m.ids, m.kind)]  # fail before the file opens
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _MAGIC, _VERSION, n))
        for raw in strings:
            fh.write(struct.pack("<I", len(raw)) + raw)
        for i in range(n - 1):
            fh.write(np.ascontiguousarray(m.values[i, i + 1:], dtype="<f8").data)


def _take(blob: bytes | memoryview, offset: int, count: int, what: str) -> tuple:
    if offset + count > len(blob):
        raise MatrixFormatError(f"truncated matrix file: ran out of bytes reading {what}")
    return blob[offset:offset + count], offset + count


def load_matrix(path: str | Path) -> DistanceMatrix:
    """Read a matrix written by :func:`save_matrix` (bit-exact round trip)."""
    blob = Path(path).read_bytes()
    head, offset = _take(blob, 0, 12, "header")
    magic, version, n = struct.unpack("<4sII", head)
    if magic != _MAGIC:
        raise MatrixFormatError(f"bad magic {magic!r}: not a trajkit matrix file")
    if version != _VERSION:
        raise MatrixFormatError(f"unsupported matrix format version {version}")
    strings = []
    for k in range(n + 1):
        what = f"id table entry {k}" if k < n else "kind string"
        raw, offset = _take(blob, offset, 4, what)
        (ln,) = struct.unpack("<I", raw)
        raw, offset = _take(blob, offset, ln, what)
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"{what} is not valid UTF-8: {exc}") from None
    *ids, kind = strings
    npairs = n * (n - 1) // 2
    raw, offset = _take(memoryview(blob), offset, 8 * npairs, "value payload")  # no copy
    if offset != len(blob):
        raise MatrixFormatError(f"trailing bytes after matrix payload ({len(blob) - offset})")
    values = _square(np.frombuffer(raw, dtype="<f8"), n)
    del blob, raw  # free the file's bytes before the square is checked
    return _adopted(tuple(ids), kind, values)


def save_matrix_csv(m: DistanceMatrix, path: str | Path) -> None:
    """Write the full symmetric matrix as CSV: a header row of ids, then
    one row per item, quoted where the ``csv`` module needs it. Floats are
    rendered with ``repr`` so that re-parsing reproduces the stored values
    bit-exactly."""
    write_csv(path, ["id", *m.ids],
              ([item_id, *map(repr, row.tolist())] for item_id, row in zip(m.ids, m.values)))
