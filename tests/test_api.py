"""The public names of trajkit: additions and removals show up here as a diff."""

import os
import subprocess
import sys
from pathlib import Path

import trajkit
import trajkit.matrix

PUBLIC = {
    "APResult", "BundleSpec", "ClusterAssignment", "CriteriaResult", "DISTANCE_NAMES",
    "Dendrogram", "DistanceMatrix", "DistanceSpec", "EARTH_RADIUS_M", "IngestError",
    "MatrixComputationError", "MatrixFormatError", "MergeStep", "Trajectory",
    "TrajectoryDataset", "affinity_propagation", "compute_matrix", "criteria", "cut",
    "discrete_frechet", "dlcss", "dtw", "edr", "erp", "exemplar", "frechet",
    "frechet_candidates", "frechet_feasible", "hausdorff", "hca", "ingest", "lcss",
    "load_dataset", "load_matrix", "owd", "project_wgs84", "save_dataset", "save_matrix",
    "save_matrix_csv", "sowd", "spd", "sspd", "synth",
}


def test_public_names_are_exactly_the_pinned_set():
    assert len(trajkit.__all__) == len(set(trajkit.__all__))
    assert set(trajkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in trajkit.__all__:
        assert getattr(trajkit, name) is not None


def test_matrix_module_names_are_exactly_the_pinned_set():
    assert sorted(trajkit.matrix.__all__) == [
        "DISTANCE_NAMES", "DistanceMatrix", "DistanceSpec", "MatrixComputationError",
        "MatrixFormatError", "compute_matrix", "load_matrix", "save_matrix", "save_matrix_csv"]


def test_the_library_never_loads_scipy():
    # numpy is the only runtime dependency; SciPy is for the tests alone.
    code = "import sys, trajkit, trajkit.cli, trajkit.bench; print('scipy' in sys.modules)"
    src = Path(trajkit.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
