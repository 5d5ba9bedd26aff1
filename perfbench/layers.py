"""Per-layer metrics for the traced run.

Metrics come from the spans of the traced job where the job makes the
call: clustering calls, CLI stages. Probes fill in the rest, each timing
public calls of one layer directly: the kernel probe (single-pair calls on
fixed walk pairs), the matrix probe (serial, 2-worker, pool start-up and
loop overhead on a fixed sspd job), persistence on the workload's own
matrix, the dataset layer on the ``trajkit synth`` bundles, ``hca`` average
linkage and affinity propagation on the workload's own matrix, and a small
CLI pipeline (synth, sspd matrix at 2 workers, hca, ap, criteria) for CLI
stages the job does not run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

import trajkit as tk
from trajkit import (DistanceMatrix, affinity_propagation, compute_matrix, hca,
                     load_dataset, load_matrix, save_dataset, save_matrix, synth)

import workloads
from checks import DIRECT
from spans import Tracer, duration
from spec import CLI_STAGES, KERNELS_SHAPE, KERNELS_WARPING

# The kernel and matrix probes use fixed walks: Fréchet's heavy-tailed
# per-pair cost would make freshly drawn pairs read differently per seed.
PROBE_SEED = 4040
KERNEL_PAIRS = 40
MATRIX_N = 160
OVERHEAD_N = 60
OVERHEAD_REPEATS = 7
REPEATS = 3
CLI_PROBE_COUNT = 15

KERNEL_LAYERS = {"warping": KERNELS_WARPING, "shape": KERNELS_SHAPE, "sspd": ("sspd",)}
LAYER_OF = {name: layer for layer, names in KERNEL_LAYERS.items() for name in names}


def timed(tracer: Tracer, name: str, fn, *args, **attrs):
    with tracer.span(name, **attrs) as s:
        out = fn(*args)
    return out, duration(s)


def median_time(tracer: Tracer, name: str, fn, *args, **attrs) -> float:
    return statistics.median(timed(tracer, name, fn, *args, **attrs)[1] for _ in range(REPEATS))


def kernel_probe(tracer: Tracer) -> dict[str, float]:
    """Direct single-pair calls on KERNEL_PAIRS fixed walk pairs."""
    walks = [t.points for t in workloads.random_walks(2 * KERNEL_PAIRS, PROBE_SEED)]
    pairs = list(zip(walks[0::2], walks[1::2]))
    cells = sum(len(a) * len(b) for a, b in pairs)
    out = {}
    for layer, names in KERNEL_LAYERS.items():
        for name in names:
            total = sum(timed(tracer, f"{layer}.{name}", DIRECT[name], a, b)[1] for a, b in pairs)
            out[f"{layer}.{name}.us_per_pair"] = total / len(pairs) * 1e6
            if layer == "warping" or name == "discrete_frechet":
                out[f"{layer}.{name}.ns_per_cell"] = total / cells * 1e9
    candidates = feasible = 0.0
    count = 0
    for a, b in pairs:
        cand, dt = timed(tracer, "shape.frechet_candidates", tk.frechet_candidates, a, b)
        candidates += dt
        count += len(cand)
        feasible += timed(tracer, "shape.frechet_feasible", tk.frechet_feasible,
                          a, b, tk.frechet(a, b))[1]
    out["shape.frechet_candidates.us_per_pair"] = candidates / len(pairs) * 1e6
    out["shape.frechet.candidates_per_pair"] = count / len(pairs)
    out["shape.frechet_feasible.us_per_call"] = feasible / len(pairs) * 1e6
    return out


def sspd_matrix(tracer: Tracer, walks: list, workers: int, timer=median_time):
    return timer(tracer, "matrix.compute_matrix", compute_matrix, walks, "sspd", workers,
                distance="sspd", workers=workers, pairs=len(walks) * (len(walks) - 1) // 2)


def matrix_probe(tracer: Tracer) -> dict[str, float]:
    """Serial and 2-worker sspd jobs on MATRIX_N fixed walks, a 1-pair pool
    job, and the serial loop's cost over the direct calls it makes."""
    walks = workloads.random_walks(MATRIX_N, PROBE_SEED)
    serial = sspd_matrix(tracer, walks, 1)
    w2 = sspd_matrix(tracer, walks, 2)
    startup = sspd_matrix(tracer, walks[:2], 2)
    few = walks[:OVERHEAD_N]
    points = [t.points for t in few]
    iu = np.triu_indices(len(few), 1)

    def direct_calls():  # what the serial loop calls, without the loop
        for i, j in zip(*iu):
            tk.sspd(points[i], points[j])

    # The loop costs about 1% of the calls it makes: time the two back to back,
    # so that both see the same machine state, and take the median gap.
    gaps = [sspd_matrix(tracer, few, 1, timed)[1] - timed(tracer, "sspd.sspd", direct_calls)[1]
            for _ in range(OVERHEAD_REPEATS)]
    return {
        "matrix.serial_s": serial,
        "matrix.w2_s": w2,
        "matrix.speedup_w2": serial / w2,
        "matrix.pool_startup_s": startup,
        "matrix.loop_overhead_us_per_pair": statistics.median(gaps) / len(iu[0]) * 1e6,
    }


def kernel_share(loop_overhead_us_per_pair: float):
    """How :func:`spans.layer_self_times` splits a serial ``compute_matrix``
    span: the matrix layer keeps the pair loop's own cost, pairs times the
    probed loop overhead per pair; the distance's kernel layer gets the rest.

    trajkit has no spans inside it, so without this split the whole matrix
    job, kernels included, would count as matrix self time. A pool job
    (workers > 1) is not split: its kernels run in the workers, and the
    span's own time is dispatch and waiting.
    """
    per_pair = max(0.0, loop_overhead_us_per_pair) * 1e-6

    def share(span: dict, self_s: float):
        if span["name"] != "matrix.compute_matrix" or span.get("workers") != 1:
            return None
        return LAYER_OF[span["distance"]], max(0.0, self_s - span["pairs"] * per_pair)

    return share


def persistence_probe(path: Path, tracer: Tracer) -> dict[str, float]:
    """Assembly/validation, save and load of the workload's own matrix."""
    m = load_matrix(path)
    copy = path.with_name("probe.tdm")
    out = {
        "matrix.assemble_s": median_time(tracer, "matrix.DistanceMatrix", DistanceMatrix,
                                         m.ids, m.kind, m.values),
        "matrix.save_s": median_time(tracer, "matrix.save_matrix", save_matrix, m, copy),
        "matrix.load_s": median_time(tracer, "matrix.load_matrix", load_matrix, copy),
        "matrix.file_bytes": float(copy.stat().st_size),
    }
    copy.unlink()
    return out


def dataset_probe(seed: int, wd: Path, tracer: Tracer) -> dict[str, float]:
    """synth, save and load of the synth bundles for this seed."""
    bundles = workloads.bundle_specs(workloads.bundle_doc(seed))
    path = wd / "probe.csv"
    synth_s = median_time(tracer, "dataset.synth", synth, bundles, seed)
    ds, _ = synth(bundles, seed)
    return {
        "dataset.synth_s": synth_s,
        "dataset.save_s": median_time(tracer, "dataset.save_dataset", save_dataset, ds, path),
        "dataset.load_s": median_time(tracer, "dataset.load_dataset", load_dataset, path),
        "dataset.points": float(sum(len(t) for t in ds.trajectories)),
    }


def cli_probe(seed: int, wd: Path, env: dict, tracer: Tracer) -> None:
    """The CLI pipeline on CLI_PROBE_COUNT trajectories per bundle."""
    probe = wd / "cli-probe"
    probe.mkdir(exist_ok=True)
    (probe / "bundles.json").write_text(json.dumps(workloads.bundle_doc(seed, CLI_PROBE_COUNT)),
                                        encoding="utf-8")
    workloads.cli_job(probe, env, workloads.pipeline_stages(seed), tracer)


def startup_probe(wd: Path, env: dict, tracer: Tracer) -> float:
    argv = [sys.executable, "-c", "import trajkit.cli"]
    return median_time(tracer, "cli.startup", lambda: workloads.spawn(argv, wd, env, "startup"))


def _median(spans: list[dict]) -> float:
    return statistics.median(duration(s) for s in spans)


def span_metrics(tracer: Tracer, job: str) -> dict[str, float]:
    """Metrics taken from the spans of one job id."""
    spans = [s for s in tracer.spans if s["job"] == job]

    def named(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    out = {}
    for linkage in ("ward", "average"):
        found = named("clustering.hca", linkage=linkage)
        if found:
            out[f"clustering.hca.{linkage}_s"] = _median(found)
            out["clustering.hca.merges"] = float(max(s["merges"] for s in found))
    for call, metric in (("cut", "cut_s"), ("exemplar", "exemplar_s"),
                         ("criteria_sweep", "criteria_sweep_s")):
        if named(f"clustering.{call}"):
            out[f"clustering.{metric}"] = _median(named(f"clustering.{call}"))
    ap = named("clustering.affinity_propagation")
    if ap:
        out["clustering.ap_s"] = _median(ap)
        out["clustering.ap.iters"] = float(statistics.median(s["iters"] for s in ap))
        out["clustering.ap.ms_per_iter"] = out["clustering.ap_s"] / out["clustering.ap.iters"] * 1e3
        out["clustering.ap.converged"] = float(all(s["converged"] for s in ap))
    for stage in CLI_STAGES:
        if named(f"cli.{stage}"):
            out[f"cli.{stage}_s"] = _median(named(f"cli.{stage}"))
    return out


def cluster_probe(path: Path, tracer: Tracer, need_ap: bool) -> None:
    """Average-linkage hca (and AP, if the job runs none) on the workload's matrix."""
    m = load_matrix(path)
    with tracer.span("clustering.hca", linkage="average") as s:
        s["merges"] = len(hca(m, linkage="average").steps)
    if need_ap:
        with tracer.span("clustering.affinity_propagation") as s:
            res = affinity_propagation(m, damping=workloads.AP_DAMPING)
            s["iters"], s["converged"] = res.n_iter, res.converged


def probe_all(seed: int, wd: Path, env: dict, matrix_path: Path, tracer: Tracer) -> dict:
    """Run every probe with job id ``probe`` and merge its metrics under the
    traced job's own (``job`` spans win over ``probe`` spans)."""
    from_job = span_metrics(tracer, "job")
    tracer.job = "probe"
    out = {}
    out.update(kernel_probe(tracer))
    out.update(matrix_probe(tracer))
    out.update(persistence_probe(matrix_path, tracer))
    out.update(dataset_probe(seed, wd, tracer))
    out["cli.startup_s"] = startup_probe(wd, env, tracer)
    cluster_probe(matrix_path, tracer, need_ap="clustering.ap_s" not in from_job)
    if any(f"cli.{stage}_s" not in from_job for stage in CLI_STAGES):
        cli_probe(seed, wd, env, tracer)
    out.update(span_metrics(tracer, "probe"))
    out.update(from_job)
    return out
