"""Dataset ingestion, synthetic generation, and canonical storage.

The canonical on-disk form is a CSV with columns ``traj_id,x,y,t`` holding
planar coordinates (``t`` may be empty), plus an optional JSON sidecar
(``<file>.meta.json``) carrying the coordinate frame and provenance.
Geographic input (CSV with lat/lon columns, or GeoJSON LineStrings) is
projected to planar metres once, at ingestion, about the dataset centroid.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .geometry import Trajectory, project_wgs84, segment_lengths
from .warping import integer, real

__all__ = [
    "BundleSpec",
    "IngestError",
    "TrajectoryDataset",
    "ingest",
    "load_dataset",
    "save_dataset",
    "synth",
]


class IngestError(ValueError):
    """Raised for malformed input files or empty post-filter results."""


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """A nonempty collection of trajectories with unique ids.

    Attributes
    ----------
    trajectories : tuple of Trajectory
    crs : dict
        ``{"kind": "planar"}`` or ``{"kind": "projected-wgs84",
        "origin_lat": ..., "origin_lon": ...}``.
    provenance : dict
        Source description, filters applied, and drop counts.
    """

    trajectories: tuple[Trajectory, ...]
    crs: dict = field(default_factory=lambda: {"kind": "planar"})
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if len(self.trajectories) == 0:
            raise ValueError("dataset must contain at least one trajectory")
        ids = [t.id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError("dataset trajectory ids must be unique")

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.trajectories)


def _number(value) -> float:
    """A CSV field or a JSON value as a float: NaN unless it is a number or a
    numeric string."""
    try:
        return float(value) if isinstance(value, str) else real(value)
    except ValueError:
        return math.nan


def _parse_time(value, where: str) -> float:
    """Epoch seconds, finite, from a number, a float literal or an ISO-8601
    timestamp; else an IngestError naming ``where``."""
    seconds = _number(value)
    if isinstance(value, str) and not math.isfinite(seconds):
        try:
            stamp = datetime.fromisoformat(value)
        except ValueError as exc:
            raise IngestError(f"{where}: cannot parse time {value!r}: {exc}") from None
        seconds = (stamp if stamp.tzinfo else stamp.replace(tzinfo=timezone.utc)).timestamp()
    if not math.isfinite(seconds):
        raise IngestError(f"{where}: time must be a finite number, got {value!r}")
    return seconds


def _record(where: str, tid, a, b, t) -> tuple[str, float, float, float | None]:
    """One input row, a CSV line or a GeoJSON coordinate, as (id, a, b, t):
    a nonblank id, two finite numbers and an optional time (None when ``t``
    is); else an IngestError naming ``where``."""
    tid = str(tid)
    if not tid.strip():
        raise IngestError(f"{where}: empty trajectory id")
    x, y = _number(a), _number(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise IngestError(f"{where}: bad coordinate: expected two finite numbers, got {a!r}, {b!r}")
    return tid, x, y, None if t is None else _parse_time(t, where)


def _read_rows(path: Path) -> tuple[bool, list[tuple[str, float, float, float | None]]]:
    """Parse a trajectory CSV. Returns (is_geographic, rows); a geographic
    row is (id, lon, lat, t)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        cols = [c.strip().lower() for c in header]
        id_col = next((cols.index(c) for c in ("traj_id", "id") if c in cols), None)
        if id_col is None:
            raise IngestError(f"{path}: header must name an id column (traj_id)")
        if "x" in cols and "y" in cols:
            geographic = False
            a_col, b_col = cols.index("x"), cols.index("y")
        elif "lat" in cols and "lon" in cols:
            geographic = True
            a_col, b_col = cols.index("lon"), cols.index("lat")
        else:
            raise IngestError(f"{path}: header must name x,y or lat,lon coordinate columns")
        t_col = next((cols.index(c) for c in ("t", "time", "timestamp") if c in cols), None)
        rows = []
        end = reader.line_num  # file lines read so far: a quoted field may span several
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(cols):
                raise IngestError(f"line {line_no}: expected {len(cols)} fields, got {len(row)}")
            t = None if t_col is None else row[t_col].strip() or None
            rows.append(_record(f"line {line_no}", row[id_col], row[a_col], row[b_col], t))
    return geographic, rows


def _member(obj: dict, key: str, kind: type, where: str, default):
    """``obj[key]`` if it is a ``kind`` (dict or list), ``default`` if it is
    absent or null; else an IngestError naming ``where``."""
    value = obj.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise IngestError(f"{where}: {key} must be {'an object' if kind is dict else 'a list'}")
    return value


def _read_geojson(path: Path) -> list[tuple[str, float, float, float | None]]:
    """LineString features of a GeoJSON FeatureCollection as flat
    (id, lon, lat, t) rows."""
    doc = read_json(path)
    if doc.get("type") != "FeatureCollection":
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")
    rows = []
    for k, feature in enumerate(_member(doc, "features", list, str(path), [])):
        if not isinstance(feature, dict):
            raise IngestError(f"feature {k}: must be an object")
        geom = _member(feature, "geometry", dict, f"feature {k}", {})
        if geom.get("type") != "LineString":
            raise IngestError(f"feature {k}: only LineString geometries are supported")
        props = _member(feature, "properties", dict, f"feature {k}", {})
        tid = feature.get("id", props.get("traj_id", props.get("id")))
        if tid is None:
            raise IngestError(f"feature {k}: no id (feature.id or properties.traj_id)")
        coords = _member(geom, "coordinates", list, f"feature {k}", [])
        times = _member(props, "timestamps", list, f"feature {k}", None)
        if times is not None and len(times) != len(coords):
            raise IngestError(f"feature {k}: timestamps and coordinates differ in length")
        for p, pair in enumerate(coords):
            if not isinstance(pair, list) or len(pair) < 2:
                raise IngestError(f"feature {k}: coordinate {p} is not a lon,lat pair")
            rows.append(_record(f"feature {k}, coordinate {p}", tid, pair[0], pair[1],
                                None if times is None else times[p]))
    return rows


def _grouped(rows: list) -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
    """The points and times of each trajectory id, ids in order of first
    appearance and each trajectory's rows in order of time. A trajectory's
    rows must all have a time or all lack one, and its times must differ."""
    by_id: dict[str, list[tuple[float, float, float | None]]] = {}
    for tid, a, b, t in rows:
        by_id.setdefault(tid, []).append((a, b, t))
    arrays = {}
    for tid, recs in by_id.items():
        timed = [r[2] is not None for r in recs]
        if any(timed) != all(timed):
            raise IngestError(f"trajectory {tid!r}: some rows have timestamps and some do not")
        ts = None
        if timed[0]:
            recs.sort(key=lambda r: r[2])
            ts = np.array([r[2] for r in recs])
            if np.any(np.diff(ts) <= 0):
                raise IngestError(f"trajectory {tid!r}: timestamps are not strictly increasing")
        arrays[tid] = (np.array([r[:2] for r in recs], dtype=np.float64), ts)
    return arrays


def _in_box(point: np.ndarray, box: tuple[float, float, float, float]) -> bool:
    x0, y0, x1, y1 = box
    return x0 <= point[0] <= x1 and y0 <= point[1] <= y1


def ingest(
    path: str | Path,
    min_points: int = 2,
    start_box: tuple[float, float, float, float] | None = None,
    end_box: tuple[float, float, float, float] | None = None,
) -> TrajectoryDataset:
    """Load raw trajectory data into a planar dataset.

    Parameters
    ----------
    path : str or Path
        GeoJSON if the file's first non-whitespace byte is ``{`` or ``[``,
        else CSV, whatever its name; UTF-8, with or without a byte-order
        mark. CSV needs columns ``traj_id,x,y[,t]``
        (planar) or ``traj_id,lat,lon[,t]`` (geographic, in any column
        order); GeoJSON LineStrings are always geographic. Geographic input
        is projected to local planar metres about the dataset centroid.
    min_points : int
        Trajectories with fewer points are dropped (floor of 2: a single
        point has no carrier).
    start_box, end_box : (min_x, min_y, max_x, max_y), optional
        Keep only trajectories whose first/last point falls inside the
        box, in input coordinates (lon, lat order for geographic input);
        four finite numbers.

    Raises
    ------
    IngestError
        Malformed rows (reported by line, or by GeoJSON feature and
        coordinate), repeated timestamps within an id, a malformed GeoJSON
        document, or an empty post-filter result.
    """
    if integer(min_points) is None:
        raise ValueError(f"ingest: min_points must be an int, got {min_points!r}")
    for name, box in (("start_box", start_box), ("end_box", end_box)):
        if box is not None and (len(box) != 4 or not all(math.isfinite(real(v)) for v in box)):
            raise ValueError(f"ingest: {name} must be four finite numbers, got {box!r}")
    path = Path(path)
    with open(path, "rb") as fh:  # a JSON document opens with { or [, a CSV with its header
        head = fh.read(4096).removeprefix(codecs.BOM_UTF8).lstrip()
    fmt = "geojson" if head.startswith((b"{", b"[")) else "csv"
    geographic, rows = (True, _read_geojson(path)) if fmt == "geojson" else _read_rows(path)

    by_id = _grouped(rows)
    dropped = {"too_short": 0, "start_box": 0, "end_box": 0}
    min_points = max(2, int(min_points))
    kept: list[tuple[str, np.ndarray, np.ndarray | None]] = []
    for tid, (pts, ts) in by_id.items():
        if pts.shape[0] < min_points:
            dropped["too_short"] += 1
            continue
        if start_box is not None and not _in_box(pts[0], start_box):
            dropped["start_box"] += 1
            continue
        if end_box is not None and not _in_box(pts[-1], end_box):
            dropped["end_box"] += 1
            continue
        kept.append((tid, pts, ts))

    if not kept:
        raise IngestError(f"{path}: no trajectories left after filtering "
                          f"(dropped: {dropped})")

    if geographic:
        all_pts = np.concatenate([pts for _, pts, _ in kept])
        origin_lon = float(all_pts[:, 0].mean())
        origin_lat = float(all_pts[:, 1].mean())
        crs = {"kind": "projected-wgs84", "origin_lat": origin_lat, "origin_lon": origin_lon}
        trajectories = []
        for tid, pts, ts in kept:
            x, y = project_wgs84(pts[:, 1], pts[:, 0], origin_lat, origin_lon)
            trajectories.append(Trajectory(tid, np.column_stack([x, y]), ts))
    else:
        crs = {"kind": "planar"}
        trajectories = [Trajectory(tid, pts, ts) for tid, pts, ts in kept]

    provenance = {
        "source": str(path),
        "format": fmt,
        "wgs84": geographic,
        "min_points": min_points,
        "start_box": list(start_box) if start_box else None,
        "end_box": list(end_box) if end_box else None,
        "rows_read": len(rows),
        "trajectories_read": len(by_id),
        "dropped": dropped,
    }
    return TrajectoryDataset(tuple(trajectories), crs, provenance)


# -- synthetic bundles -------------------------------------------------------


@dataclass(frozen=True)
class BundleSpec:
    """Recipe for one bundle of noisy anchor resamplings.

    Attributes
    ----------
    anchor : array-like of shape (k, 2)
        Polyline with positive total length that the bundle follows.
    count : int
        Trajectories to generate; >= 1.
    jitter : float
        Standard deviation of the Gaussian noise added to every sample;
        finite and >= 0.
    points : (int, int)
        Inclusive range of per-trajectory sample counts (minimum 2).

    A bool or a float is not an int here, and a bool or a string is not a
    number; the spec stores ``count`` and ``points`` as Python ints and
    ``jitter`` as a Python float.
    """

    anchor: np.ndarray
    count: int
    jitter: float = 0.0
    points: tuple[int, int] = (8, 12)

    def __post_init__(self) -> None:
        anchor = np.array(self.anchor, dtype=object)
        if anchor.ndim != 2 or anchor.shape[1] != 2 or anchor.shape[0] < 2:
            raise ValueError("bundle anchor must be a polyline of shape (k, 2), k >= 2")
        anchor = np.vectorize(real, otypes=[np.float64])(anchor)
        if not np.all(np.isfinite(anchor)):
            raise ValueError("bundle anchor must be finite numbers")
        seg = segment_lengths(anchor)
        if seg.sum() <= 0:
            raise ValueError("bundle anchor must have positive length")
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)
        count = integer(self.count)
        if count is None or count < 1:
            raise ValueError(f"bundle count must be an int >= 1, got {self.count!r}")
        jitter = real(self.jitter)
        if not (math.isfinite(jitter) and jitter >= 0):
            raise ValueError(f"bundle jitter must be a finite number >= 0, got {self.jitter!r}")
        points = tuple(map(integer, self.points)) if np.iterable(self.points) else ()
        if len(points) != 2 or None in points or not 2 <= points[0] <= points[1]:
            raise ValueError(f"bundle points range must be two ints with 2 <= lo <= hi, "
                             f"got {self.points!r}")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "jitter", jitter)
        object.__setattr__(self, "points", points)


def _along_anchor(anchor: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points of the anchor polyline at the given arc-length positions."""
    seg = segment_lengths(anchor)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    x = np.interp(s, cum, anchor[:, 0])
    y = np.interp(s, cum, anchor[:, 1])
    return np.column_stack([x, y])


def synth(bundles: list[BundleSpec] | BundleSpec, seed: int) -> tuple[TrajectoryDataset, np.ndarray]:
    """Generate a labelled synthetic dataset of bundled trajectories.

    Each trajectory samples its bundle's anchor at uniformly spaced
    arc-length positions (endpoints included) and perturbs every sample
    with isotropic Gaussian noise. Fully deterministic for a given seed.

    Returns
    -------
    (dataset, labels)
        ``labels[i]`` is the bundle index of ``dataset.trajectories[i]``.
    """
    if isinstance(bundles, BundleSpec):
        bundles = [bundles]
    if not bundles:
        raise ValueError("synth: need at least one bundle")
    rng = np.random.default_rng(seed)
    trajectories: list[Trajectory] = []
    labels: list[int] = []
    for b_idx, spec in enumerate(bundles):
        total = float(segment_lengths(spec.anchor).sum())
        lo, hi = spec.points
        for t_idx in range(spec.count):
            m = int(rng.integers(lo, hi + 1))
            s = np.linspace(0.0, total, m)
            pts = _along_anchor(spec.anchor, s)
            if spec.jitter > 0:
                pts = pts + rng.normal(0.0, spec.jitter, pts.shape)
            trajectories.append(Trajectory(f"b{b_idx}t{t_idx}", pts))
            labels.append(b_idx)
    provenance = {
        "source": "synth",
        "seed": int(seed),
        "bundles": [
            {"count": b.count, "jitter": b.jitter, "points": list(b.points),
             "anchor_points": int(b.anchor.shape[0])}
            for b in bundles
        ],
    }
    return TrajectoryDataset(tuple(trajectories), {"kind": "planar"}, provenance), np.array(labels)


# -- canonical storage -------------------------------------------------------


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def write_csv(path: str | Path, header: list, rows) -> None:
    """Write a header row, then ``rows``, as UTF-8 CSV with ``"\\n"`` line
    ends, quoting fields where the ``csv`` module needs it. Every CSV that
    trajkit writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def read_json(path: str | Path) -> dict:
    """The JSON object that the UTF-8 file ``path`` holds, after a leading
    byte-order mark if any; an IngestError naming the file if it is not
    JSON or not an object. Every JSON file that trajkit reads goes through here."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise IngestError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: expected a JSON object at the top level")
    return doc


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON, indented by 2, with a final newline; a
    ValueError, before the file opens, if it holds NaN or an infinity, which
    JSON has no number for. Every JSON file that trajkit writes goes through here."""
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def save_dataset(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write the canonical ``traj_id,x,y,t`` CSV plus a metadata sidecar.

    Coordinates are rendered with ``repr`` so a load round-trips them
    bit-exactly.
    """
    path = Path(path)
    times = ([""] * len(traj) if traj.timestamps is None else map(repr, traj.timestamps.tolist())
             for traj in dataset.trajectories)
    write_csv(path, ["traj_id", "x", "y", "t"],
              ([traj.id, repr(x), repr(y), t] for traj, ts in zip(dataset.trajectories, times)
               for (x, y), t in zip(traj.points.tolist(), ts)))
    write_json(_meta_path(path), {"crs": dataset.crs, "provenance": dataset.provenance})


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a canonical planar dataset CSV (and its sidecar, if present)."""
    path = Path(path)
    geographic, rows = _read_rows(path)
    if geographic:
        raise IngestError(f"{path}: canonical datasets are planar; run ingest for lat/lon data")
    trajectories = [Trajectory(tid, pts, ts) for tid, (pts, ts) in _grouped(rows).items()]
    meta_file = _meta_path(path)
    meta = read_json(meta_file) if meta_file.exists() else {}
    return TrajectoryDataset(tuple(trajectories), meta.get("crs", {"kind": "planar"}),
                             meta.get("provenance", {"source": str(path)}))
