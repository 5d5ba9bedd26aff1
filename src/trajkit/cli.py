"""Batch command-line interface.

Subcommands cover the full pipeline: ``ingest`` raw data, ``synth``
labelled bundles, ``matrix`` pairwise distances, ``cluster`` a stored
matrix, ``criteria`` sweeps of the cluster-count, and ``bench`` timing
reports. Every subcommand is deterministic given its inputs, flags, and
the single RNG seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .clustering import LINKAGES, _criteria_sweep, affinity_propagation, cut, exemplar, hca
from .dataset import (BundleSpec, ingest, load_dataset, read_json, save_dataset, synth, write_csv,
                      write_json)
from .matrix import (DISTANCE_NAMES, DistanceSpec, MatrixComputationError, compute_matrix,
                     load_matrix, save_matrix, save_matrix_csv)

__all__ = ["main"]


def _numbers(form: str):
    """The argparse type of the finite numbers named in ``form``, e.g. ``x,y``."""
    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != form.count(",") + 1 or not np.isfinite(values).all():
            raise argparse.ArgumentTypeError(f"expected {form} as finite numbers, got {text!r}")
        return values
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajkit",
        description="Trajectory distances, distance matrices, and clustering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalise raw CSV/GeoJSON into a planar dataset")
    p.add_argument("input", type=Path, help="CSV or GeoJSON; the content decides which")
    p.add_argument("-o", "--output", type=Path, required=True, help="canonical dataset CSV to write")
    p.add_argument("--min-points", type=int, default=2)
    box = _numbers("min_x,min_y,max_x,max_y")
    p.add_argument("--start-box", type=box, default=None, metavar="X0,Y0,X1,Y1",
                   help="keep trajectories starting inside this box (lon/lat for geographic input)")
    p.add_argument("--end-box", type=box, default=None, metavar="X0,Y0,X1,Y1")

    p = sub.add_parser("synth", help="generate seeded bundles of noisy anchor resamplings")
    p.add_argument("spec", type=Path, help="JSON file: {\"bundles\": [{\"anchor\": [[x,y],...], "
                                           "\"count\": int, \"jitter\": float, \"points\": [lo,hi]}]}")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--labels", type=Path, default=None, help="also write traj_id,label CSV")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("matrix", help="compute a pairwise distance matrix")
    p.add_argument("dataset", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True, help="binary matrix file to write")
    p.add_argument("--distance", required=True,
                   help=f"one of: {', '.join(DISTANCE_NAMES)} (lcss is stored as dlcss)")
    p.add_argument("--eps-d", type=float, default=None, help="matching threshold for dlcss/edr")
    p.add_argument("--gap", type=_numbers("x,y"), default=None, metavar="X,Y",
                   help="ERP gap point (default: projected-frame origin 0,0)")
    p.add_argument("--owd-density", type=float, default=None,
                   help="sowd arc-length samples per unit (default 1.0)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", type=Path, default=None, help="also export the matrix as CSV")

    p = sub.add_parser("cluster", help="cluster a stored distance matrix")
    p.add_argument("matrix", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True,
                   help="assignments CSV (traj_id,cluster,is_exemplar)")
    p.add_argument("--method", choices=("hca", "ap"), required=True)
    p.add_argument("--linkage", choices=LINKAGES, default="ward")
    p.add_argument("--k", type=int, default=None, help="cluster count (hca)")
    p.add_argument("--preference", default="min-similarity",
                   help="AP preference in similarity space (similarity = -distance): "
                        "a number, or 'min-similarity' (the default)")
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--convergence-iter", type=int, default=15)

    p = sub.add_parser("criteria", help="between/within criteria over a range of cluster counts")
    p.add_argument("matrix", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True, help="CSV with one row per K")
    p.add_argument("--linkage", choices=LINKAGES, default="ward")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("bench", help="time matrix jobs on seeded synthetic data")
    p.add_argument("-o", "--output", type=Path, required=True, help="JSON report to write")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distances", default=",".join(bench_mod.BENCH_DISTANCES),
                   help="comma-separated distance names")
    p.add_argument("--workers", type=int, default=0,
                   help="also record a parallel column with this many workers")
    p.add_argument("--repeats", type=int, default=1)
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    ds = ingest(args.input, min_points=args.min_points, start_box=args.start_box,
                end_box=args.end_box)
    save_dataset(ds, args.output)
    dropped = ds.provenance.get("dropped", {})
    print(f"ingested {len(ds)} trajectories -> {args.output} "
          f"(dropped: {sum(dropped.values())} {dropped})")
    return 0


def _bundles(path: Path) -> list[BundleSpec]:
    """The bundles of a synth spec file; a malformed spec raises a ValueError naming the file."""
    docs = read_json(path).get("bundles")
    if not isinstance(docs, list) or not docs:
        raise ValueError(f"{path}: spec JSON needs a nonempty 'bundles' list")
    bundles = []
    for k, b in enumerate(docs):
        try:
            if not isinstance(b, dict):
                raise TypeError("expected an object with 'anchor' and 'count'")
            bundles.append(BundleSpec(b["anchor"], b["count"], b.get("jitter", 0.0),
                                      b.get("points", (8, 12))))
        except KeyError as exc:
            raise ValueError(f"{path}: bundle {k}: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bundle {k}: {exc}") from None
    return bundles


def _cmd_synth(args: argparse.Namespace) -> int:
    bundles = _bundles(args.spec)
    ds, labels = synth(bundles, seed=args.seed)
    save_dataset(ds, args.output)
    if args.labels is not None:
        write_csv(args.labels, ["traj_id", "label"], zip(ds.ids, labels.tolist()))
    print(f"synthesised {len(ds)} trajectories in {len(bundles)} bundles -> {args.output}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset)
    spec = DistanceSpec(args.distance, eps_d=args.eps_d, gap=args.gap,
                        samples_per_unit=args.owd_density)
    m = compute_matrix(ds.trajectories, spec, workers=args.workers)
    save_matrix(m, args.output)
    if args.csv is not None:
        save_matrix_csv(m, args.csv)
    print(f"computed {len(m)}x{len(m)} {m.kind} matrix -> {args.output}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    m = load_matrix(args.matrix)
    if args.method == "hca":
        if args.k is None:
            raise ValueError("cluster --method hca requires --k")
        dend = hca(m, linkage=args.linkage)
        assignment = cut(dend, args.k)
        exemplars = {c: exemplar(assignment.members(c), m) for c in range(assignment.k)}
        note = f"hca/{args.linkage} k={assignment.k}"
    else:
        try:
            preference = float(args.preference)
        except ValueError:  # a name: affinity_propagation knows which ones it takes
            preference = args.preference
        result = affinity_propagation(m, preference=preference, damping=args.damping,
                                      max_iter=args.max_iter,
                                      convergence_iter=args.convergence_iter)
        assignment = result.assignment
        exemplars = {c: result.exemplars[c] for c in range(assignment.k)}
        note = f"ap k={assignment.k} (preference={result.preference_value!r}, iter={result.n_iter})"
        if not result.converged:
            print("warning: affinity propagation did not converge; "
                  "assignment is a partial result", file=sys.stderr)
    rows = ([item_id, c, int(exemplars[c] == idx)]
            for idx, (item_id, c) in enumerate(zip(m.ids, assignment.labels.tolist())))
    write_csv(args.output, ["traj_id", "cluster", "is_exemplar"], rows)
    print(f"clustered {len(m)} items: {note} -> {args.output}")
    return 0


def _cmd_criteria(args: argparse.Namespace) -> int:
    m = load_matrix(args.matrix)
    if not 1 <= args.k_min <= args.k_max <= len(m):
        raise ValueError(f"criteria: need 1 <= k-min <= k-max <= {len(m)}")
    dend = hca(m, linkage=args.linkage)
    ks = range(args.k_min, args.k_max + 1)
    write_csv(args.output, ["k", "bc", "wc", "exemplar_ids"],
              ([k, repr(c.bc), repr(c.wc), "|".join(m.ids[e] for e in c.exemplars)]
               for k, c in zip(ks, _criteria_sweep(dend, m, ks))))
    print(f"criteria for k in [{args.k_min}, {args.k_max}] ({args.linkage}) -> {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    distances = tuple(d.strip() for d in args.distances.split(",") if d.strip())
    report = bench_mod.run_bench(n=args.n, points=args.points, seed=args.seed,
                                 distances=distances, workers=args.workers,
                                 repeats=args.repeats)
    write_json(args.output, dataclasses.asdict(report))
    order = sorted(report.timings, key=lambda d: report.timings[d]["serial"])
    print(f"benchmarked {len(order)} distances on n={args.n} ({report.environment})")
    for name in order:
        row = report.timings[name]
        extra = f", parallel {row['parallel']:.3f}s" if "parallel" in row else ""
        print(f"  {name}: serial {row['serial']:.3f}s{extra}")
    print(f"report -> {args.output}")
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "matrix": _cmd_matrix,
    "cluster": _cmd_cluster,
    "criteria": _cmd_criteria,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, MatrixComputationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
