"""Seeded inputs and the timed job of each workload.

Every input is a function of the run seed. A job is one closed-loop batch
job, run in child processes: ``kernels-serial`` runs :func:`kernels_job`
in a fresh interpreter (``python3 workloads.py kernels-job DIR``);
``cluster-n2000`` runs one ``python3 -m trajkit.cli`` process per stage.
Both also run in the traced run, with spans around each call into trajkit.
The ``trajkit synth`` bundles and the CLI pipeline on them are inputs of
the probes and of the label-recovery check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trajkit import (DISTANCE_NAMES, BundleSpec, DistanceMatrix, DistanceSpec, Trajectory,
                     affinity_propagation, compute_matrix, criteria, cut, exemplar, hca,
                     load_matrix, save_matrix)

from spans import NO_TRACE

PEAK = Path(__file__).with_name("peak.py")

# kernels-serial: the DP family, hausdorff and sspd run on KERNEL_N walks;
# frechet and sowd, 5-10x dearer per pair, on the first SHAPE_N, so that
# the two families take comparable shares of the job.
POOL_SEED = 64
KERNEL_N = 64
SHAPE_N = 20
SHAPE_ONLY = ("frechet", "sowd")
POINTS = (8, 24)
KERNELS_K = 4
KERNELS_K_MAX = 10
# The cluster stage on the stored small matrices takes ~60 ms; its time is
# the mean of this many passes: like the job, a window of about a second
# integrates the host's fast and slow states (see run.py).
CLUSTER_PASSES = 20

# The synth bundles: 4 bundles far apart, so HCA at k=4 must recover them.
BUNDLE_POINTS = ((8, 9), (13, 14), (18, 19), (23, 24))
BUNDLES = len(BUNDLE_POINTS)
BUNDLE_COUNT = 75
BUNDLE_JITTER = 1.0
PIPELINE_K = 4
PIPELINE_K_MAX = 20
# Trajectories per bundle in the label-recovery check.
LABEL_COUNT = 15

# cluster-n2000: Euclidean distances between points around 8 centres in 4-D.
BLOB_SEED = 2000
N_BLOBS = 2000
CENTRES = 8
DIMS = 4
BLOB_K = 8
BLOB_K_MAX = 30

AP_DAMPING = 0.9


def distance_spec(name: str) -> DistanceSpec:
    # Matching thresholds scale with the unit step length of the walks.
    return DistanceSpec(name, eps_d=1.0 if name in ("dlcss", "edr") else None)


def random_walks(n: int, seed: int, points: tuple[int, int] = POINTS) -> list[Trajectory]:
    """Smooth random walks with unit-scale steps; walk k has
    ``points[0] + k % span`` points, so every length in the range occurs."""
    rng = np.random.default_rng(seed)
    span = 10.0 * np.sqrt(n)
    out = []
    for k in range(n):
        m = points[0] + k % (points[1] - points[0] + 1)
        start = rng.uniform(0.0, span, 2)
        angles = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(rng.normal(0.0, 0.4, m - 1))
        steps = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 1.5, m - 1)[:, None]
        out.append(Trajectory(f"w{k}", np.vstack([start, start + np.cumsum(steps, axis=0)])))
    return out


def kernel_walks(seed: int) -> list[Trajectory]:
    """The ``kernels-serial`` inputs: a fixed pool of KERNEL_N walks, put in
    an order the seed picks, within the first SHAPE_N and within the rest.

    Fréchet's cost per pair is heavy-tailed (median about 2.5 ms, p99
    30-64 ms), so walks drawn afresh for each seed moved frechet's matrix
    time by up to 1.8x between seeds. A fixed pool keeps the job's work the
    same; the seed still changes the order, the ids and the checked sample.
    """
    pool = random_walks(KERNEL_N, POOL_SEED)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(SHAPE_N), SHAPE_N + rng.permutation(KERNEL_N - SHAPE_N)])
    return [Trajectory(f"w{k}", pool[i].points) for k, i in enumerate(order)]


def bundle_doc(seed: int, count: int = BUNDLE_COUNT) -> dict:
    """The ``trajkit synth`` spec: one anchor per 100x100 cell of a 2x2 grid.

    Each bundle has its own narrow point range (BUNDLE_POINTS), so the
    lengths span 8-24 while the matrix work barely moves with the seed.
    """
    rng = np.random.default_rng(seed)
    bundles = []
    for b, points in enumerate(BUNDLE_POINTS):
        corner = np.array([(b % 2) * 100.0, (b // 2) * 100.0]) + 20.0
        vertices = int(rng.integers(3, 6))
        anchor = corner + np.cumsum(rng.uniform(-10.0, 10.0, (vertices, 2)) + [8.0, 0.0], axis=0)
        bundles.append({"anchor": anchor.tolist(), "count": count,
                        "jitter": BUNDLE_JITTER, "points": list(points)})
    return {"bundles": bundles}


def bundle_specs(doc: dict) -> list[BundleSpec]:
    """The ``BundleSpec`` list that ``trajkit synth`` builds from ``doc``."""
    return [BundleSpec(np.asarray(b["anchor"]), b["count"], b["jitter"], tuple(b["points"]))
            for b in doc["bundles"]]


def blob_matrix(seed: int, n: int = N_BLOBS) -> DistanceMatrix:
    """Euclidean distances between n points around CENTRES centres.

    The point cloud is fixed (BLOB_SEED); the run seed only orders its rows.
    Affinity propagation's iteration count, most of this workload's time,
    moves by a quarter between clouds drawn with different seeds but not
    with the order of the rows.
    """
    rng = np.random.default_rng(BLOB_SEED)
    centres = rng.normal(0.0, 10.0, (CENTRES, DIMS))
    x = centres[np.arange(n) % CENTRES] + rng.normal(0.0, 1.0, (n, DIMS))
    x = x[np.random.default_rng(seed).permutation(n)]
    gram = x @ x.T
    sq = np.diag(gram)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0))
    d = np.triu(d, 1)
    d = d + d.T
    return DistanceMatrix(tuple(f"p{i}" for i in range(n)), "euclidean-4d", d)


# -- child processes ---------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    wall_s: float
    stdout: str
    stderr: str


def spawn(argv: list[str], cwd: Path, env: dict, tag: str, timeout: float = 150.0) -> Proc:
    """Run one child to completion, with its output in ``<tag>.stdout/.stderr``."""
    out, err = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall,
                out.read_text(encoding="utf-8", errors="replace"),
                err.read_text(encoding="utf-8", errors="replace"))


# -- kernels-serial ----------------------------------------------------------


def setup_kernels(wd: Path, seed: int) -> None:
    walks = kernel_walks(seed)
    np.savez(wd / "walks.npz", points=np.concatenate([t.points for t in walks]),
             lengths=np.array([len(t) for t in walks]))


def load_walks(wd: Path) -> list[Trajectory]:
    with np.load(wd / "walks.npz") as z:
        pieces = np.split(z["points"], np.cumsum(z["lengths"])[:-1])
    return [Trajectory(f"w{k}", p) for k, p in enumerate(pieces)]


def kernels_subset(name: str, walks: list) -> list:
    return walks[:SHAPE_N] if name in SHAPE_ONLY else walks


def kernels_job(wd: Path, tracer=NO_TRACE) -> dict:
    """One serial matrix per distance, each stored as ``<name>.tdm``; then,
    timed apart, passes of the small-n cluster stage over every stored matrix."""
    ops = []
    done = []
    matrix_s = 0.0
    pairs = 0
    t0 = time.perf_counter()
    walks = load_walks(wd)
    for name in DISTANCE_NAMES:
        sub = kernels_subset(name, walks)
        try:
            t = time.perf_counter()
            with tracer.span("matrix.compute_matrix", distance=name, workers=1,
                             pairs=len(sub) * (len(sub) - 1) // 2):
                m = compute_matrix(sub, distance_spec(name), workers=1)
            matrix_s += time.perf_counter() - t
            with tracer.span("matrix.save_matrix"):
                save_matrix(m, wd / f"{name}.tdm")
            pairs += len(sub) * (len(sub) - 1) // 2
            done.append(name)
            ops.append((f"matrix {name}", True, ""))
        except Exception as exc:  # a failed matrix job is a failed op, not a crash
            ops.append((f"matrix {name}", False, f"{type(exc).__name__}: {exc}"))
    job_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    for _ in range(CLUSTER_PASSES):
        for name in done:
            with tracer.span("job.cluster_stage", distance=name):
                with tracer.span("matrix.load_matrix"):
                    m = load_matrix(wd / f"{name}.tdm")
                labels = cluster_hca(m, KERNELS_K, tracer)
                rows = criteria_sweep(m, KERNELS_K_MAX, tracer)
            write_rows(wd / f"{name}.clusters.csv",
                       [[i, int(c)] for i, c in zip(m.ids, labels)] + rows)
    cluster_s = (time.perf_counter() - t1) / CLUSTER_PASSES
    return {"job_s": job_s, "matrix_s": matrix_s, "pairs": pairs, "cluster_s": cluster_s,
            "done": done, "ops": ops, "scipy_imported": "scipy" in sys.modules}


def cluster_hca(m: DistanceMatrix, k: int, tracer=NO_TRACE) -> np.ndarray:
    """What ``trajkit cluster --method hca --linkage ward`` calls."""
    with tracer.span("clustering.hca", linkage="ward") as s:
        dend = hca(m, linkage="ward")
        s["merges"] = len(dend.steps)
    with tracer.span("clustering.cut"):
        assignment = cut(dend, k)
    for c in range(assignment.k):
        with tracer.span("clustering.exemplar"):
            exemplar(assignment.members(c), m)
    return assignment.labels


def criteria_sweep(m: DistanceMatrix, k_max: int, tracer=NO_TRACE) -> list[list]:
    """What ``trajkit criteria --linkage ward --k-min 1`` calls."""
    with tracer.span("clustering.hca", linkage="ward") as s:
        dend = hca(m, linkage="ward")
        s["merges"] = len(dend.steps)
    rows = []
    with tracer.span("clustering.criteria_sweep"):
        for k in range(1, k_max + 1):
            with tracer.span("clustering.cut"):
                assignment = cut(dend, k)
            with tracer.span("clustering.criteria"):
                crit = criteria(assignment, m)
            rows.append([k, crit.bc, crit.wc])
    return rows


def write_rows(path: Path, rows: list[list]) -> None:
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


# -- the CLI stages ----------------------------------------------------------


def setup_blobs(wd: Path, seed: int) -> None:
    save_matrix(blob_matrix(seed), wd / "n2000.tdm")


def pipeline_stages(seed: int) -> list[tuple[str, list[str]]]:
    """The CLI pipeline on the synth bundles in ``bundles.json``."""
    return [
        ("synth", ["synth", "bundles.json", "-o", "walks.csv", "--labels", "truth.csv",
                   "--seed", str(seed)]),
        ("matrix", ["matrix", "walks.csv", "--distance", "sspd", "--workers", "2",
                    "-o", "walks.tdm"]),
        ("cluster_hca", ["cluster", "walks.tdm", "--method", "hca", "--k", str(PIPELINE_K),
                         "-o", "hca.csv"]),
        ("cluster_ap", ["cluster", "walks.tdm", "--method", "ap", "--damping", str(AP_DAMPING),
                        "-o", "ap.csv"]),
        ("criteria", ["criteria", "walks.tdm", "--k-max", str(PIPELINE_K_MAX),
                      "-o", "criteria.csv"]),
    ]


def blob_stages() -> list[tuple[str, list[str]]]:
    return [
        ("cluster_hca", ["cluster", "n2000.tdm", "--method", "hca", "--linkage", "ward",
                         "--k", str(BLOB_K), "-o", "hca.csv"]),
        ("cluster_ap", ["cluster", "n2000.tdm", "--method", "ap", "--damping", str(AP_DAMPING),
                        "-o", "ap.csv"]),
        ("criteria", ["criteria", "n2000.tdm", "--k-max", str(BLOB_K_MAX), "-o", "criteria.csv"]),
    ]


def cli_job(wd: Path, env: dict, stages: list[tuple[str, list[str]]], tracer=NO_TRACE) -> dict:
    """Run the stages one process at a time, each as ``python3 -m trajkit.cli``
    under peak.py; stop at the first that fails."""
    procs: dict[str, Proc] = {}
    span_ids: dict[str, int] = {}
    t0 = time.perf_counter()
    for stage, args in stages:
        argv = [sys.executable, str(PEAK), f"{stage}.peak", "trajkit.cli", *args]
        with tracer.span(f"cli.{stage}") as s:
            proc = spawn(argv, wd, env, stage)
        procs[stage] = proc
        span_ids[stage] = s.get("id")
        if proc.returncode != 0:
            break
    job_s = time.perf_counter() - t0
    peaks = [wd / f"{stage}.peak" for stage in procs]
    peak = max((float(p.read_text()) for p in peaks if p.exists()), default=0.0)
    return {"job_s": job_s, "procs": procs, "span_ids": span_ids, "peak_rss_mb": peak}


def replay(stage: str, args: list[str], wd: Path, tracer, parent: int) -> None:
    """Make in-process the public calls a cluster or criteria stage made, with
    its arguments, parented to the stage's span."""
    opt = dict(zip(args[2::2], args[3::2]))
    with tracer.span(f"replay.{stage}", parent=parent):
        with tracer.span("matrix.load_matrix"):
            m = load_matrix(wd / args[1])
        if stage == "cluster_hca":
            cluster_hca(m, int(opt["--k"]), tracer)
        elif stage == "cluster_ap":
            with tracer.span("clustering.affinity_propagation") as s:
                res = affinity_propagation(m, damping=float(opt["--damping"]))
                s["iters"], s["converged"] = res.n_iter, res.converged
        else:
            criteria_sweep(m, int(opt["--k-max"]), tracer)


if __name__ == "__main__":
    if sys.argv[1:2] != ["kernels-job"] or len(sys.argv) != 3:
        sys.exit("usage: workloads.py kernels-job DIR")
    from peak import peak_rss_mb

    out = kernels_job(Path(sys.argv[2]))
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
