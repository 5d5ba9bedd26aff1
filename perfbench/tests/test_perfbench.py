"""Tests of the benchmark itself: seeded inputs, failure accounting, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import spec
import workloads
from spans import layer_self_times
from trajkit import DistanceMatrix, compute_matrix, save_matrix, synth

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_gives_identical_inputs():
    for seed in (0, 7):
        a, b = workloads.random_walks(10, seed), workloads.random_walks(10, seed)
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
        assert workloads.bundle_doc(seed) == workloads.bundle_doc(seed)
        assert all(np.array_equal(x.points, y.points) for x, y in
                   zip(workloads.kernel_walks(seed), workloads.kernel_walks(seed)))
        assert np.array_equal(workloads.blob_matrix(seed, 40).values,
                              workloads.blob_matrix(seed, 40).values)
    assert not np.array_equal(workloads.random_walks(10, 0)[0].points,
                              workloads.random_walks(10, 1)[0].points)
    assert workloads.bundle_doc(0) != workloads.bundle_doc(1)
    assert not np.array_equal(workloads.kernel_walks(0)[0].points,
                              workloads.kernel_walks(1)[0].points)
    assert not np.array_equal(workloads.blob_matrix(0, 40).values,
                              workloads.blob_matrix(1, 40).values)


def small_bundles() -> tuple[list, np.ndarray, DistanceMatrix]:
    ds, labels = synth(workloads.bundle_specs(workloads.bundle_doc(3, count=5)), seed=3)
    return list(ds.trajectories), labels, compute_matrix(ds.trajectories, "sspd")


def corrupt(m: DistanceMatrix, i: int, j: int) -> DistanceMatrix:
    values = m.values.copy()
    values[i, j] = values[j, i] = np.nextafter(values[i, j], np.inf)
    return DistanceMatrix(m.ids, m.kind, values)


def test_a_corrupted_matrix_entry_is_a_failed_op():
    trajectories, _, m = small_bundles()
    assert checks.workers_match_serial(m, trajectories)[1]
    assert not checks.workers_match_serial(corrupt(m, 2, 17), trajectories)[1]
    three = trajectories[:3]
    small = compute_matrix(three, "sspd")
    assert checks.entries_match_direct(small, three, "sspd", seed=0)[1]
    assert not checks.entries_match_direct(corrupt(small, 0, 2), three, "sspd", seed=0)[1]


def test_a_trjd_round_trip_passes_and_a_wrong_label_is_a_failed_op(tmp_path):
    _, labels, m = small_bundles()
    save_matrix(m, tmp_path / "walks.tdm")
    assert checks.roundtrip(tmp_path / "walks.tdm")[1]
    relabelled = (labels + 1) % workloads.BUNDLES
    assert checks.recovers_labels(relabelled, labels)[1]
    relabelled[0] = (relabelled[0] + 1) % workloads.BUNDLES
    assert not checks.recovers_labels(relabelled, labels)[1]
    assert checks.bundle_labels(seed=3)[1]


def test_self_time_of_a_serial_matrix_job_goes_to_its_kernel_layer():
    share = layers.kernel_share(loop_overhead_us_per_pair=2.0)
    spans = [
        {"id": 0, "name": "matrix.compute_matrix", "parent": None, "start": 0.0, "end": 1.0,
         "distance": "dtw", "workers": 1, "pairs": 100_000},
        {"id": 1, "name": "matrix.compute_matrix", "parent": None, "start": 1.0, "end": 1.5,
         "distance": "sspd", "workers": 2, "pairs": 100_000},
    ]
    got = layer_self_times(spans, share)
    assert got["matrix"] == pytest.approx(0.2 + 0.5)
    assert got["warping"] == pytest.approx(0.8)
    assert "sspd" not in got


def test_benchmark_json_is_rendered_from_the_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()
    doc = json.loads(spec.benchmark_json())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {"job_s", "pairs_per_s", "cluster_s", "peak_rss_mb", "setup_s"} <= set(names)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metrics_are_named_in_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        got = run_bench("--workload", "kernels-serial", "--seed", "5", "--seconds", "0",
                        "--trace", trace)
        assert got.returncode == 0, got.stderr
        result = json.loads(got.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = result["metrics"]
        assert all(NAME.fullmatch(name) for name in printed)
        assert list(printed) == [m["name"] for m in doc[section]]
        assert all(printed[m["name"]]["unit"] == m["unit"] for m in doc[section])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = run_bench("--workload", "kernels-serial", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert got.stdout.strip() == ""
