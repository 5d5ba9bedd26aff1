"""What the trajkit benchmark measures: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is rendered from this module by
``python3 perfbench/run.py --write-spec``; the tests check the two agree.
"""

from __future__ import annotations

import json

RUN_SECONDS = 45

#: A seed never used while tuning the benchmark; confirm later claims on it.
HELD_OUT_SEED = 48611

WORKLOADS = {
    "kernels-serial": "serial compute_matrix for all 9 distances on variable-length walks: kernels do the "
                      "job's work, clustering none of it",
    "cluster-n2000": "hca, ap and criteria CLI stages on a stored n=2000 matrix (32 MB > L2): "
                     "clustering and matrix load do the work, kernels none",
}

# (name, unit, better, bound)
END_TO_END = [
    ("job_s", "s", "lower", 0.25),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("cluster_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

KERNELS_WARPING = ("dtw", "dlcss", "edr", "erp")
KERNELS_SHAPE = ("hausdorff", "discrete_frechet", "frechet", "sowd")
LAYERS = ("warping", "shape", "sspd", "matrix", "clustering", "dataset", "cli")
CLI_STAGES = ("synth", "matrix", "cluster_hca", "cluster_ap", "criteria")

# (name, unit, better)
PER_LAYER = (
    [(f"warping.{k}.us_per_pair", "us", "lower") for k in KERNELS_WARPING]
    + [(f"warping.{k}.ns_per_cell", "ns", "lower") for k in KERNELS_WARPING]
    + [(f"shape.{k}.us_per_pair", "us", "lower") for k in KERNELS_SHAPE]
    + [
        ("shape.discrete_frechet.ns_per_cell", "ns", "lower"),
        ("shape.frechet_candidates.us_per_pair", "us", "lower"),
        ("shape.frechet.candidates_per_pair", "count", "lower"),
        ("shape.frechet_feasible.us_per_call", "us", "lower"),
        ("sspd.sspd.us_per_pair", "us", "lower"),
        ("matrix.serial_s", "s", "lower"),
        ("matrix.w2_s", "s", "lower"),
        ("matrix.speedup_w2", "x", "higher"),
        ("matrix.pool_startup_s", "s", "lower"),
        ("matrix.loop_overhead_us_per_pair", "us", "lower"),
        ("matrix.assemble_s", "s", "lower"),
        ("matrix.save_s", "s", "lower"),
        ("matrix.load_s", "s", "lower"),
        ("matrix.file_bytes", "bytes", "lower"),
        ("dataset.synth_s", "s", "lower"),
        ("dataset.save_s", "s", "lower"),
        ("dataset.load_s", "s", "lower"),
        ("dataset.points", "count", "higher"),
        ("clustering.hca.ward_s", "s", "lower"),
        ("clustering.hca.average_s", "s", "lower"),
        ("clustering.hca.merges", "count", "higher"),
        ("clustering.cut_s", "s", "lower"),
        ("clustering.exemplar_s", "s", "lower"),
        ("clustering.criteria_sweep_s", "s", "lower"),
        ("clustering.ap_s", "s", "lower"),
        ("clustering.ap.iters", "count", "lower"),
        ("clustering.ap.ms_per_iter", "ms", "lower"),
        ("clustering.ap.converged", "bool", "higher"),
        ("cli.startup_s", "s", "lower"),
    ]
    + [(f"cli.{stage}_s", "s", "lower") for stage in CLI_STAGES]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    """The text of ``BENCHMARK.json``."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
