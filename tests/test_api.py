"""The public names of trajkit: additions and removals show up here as a diff."""

import ast
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


#: The one function that may call each json/csv reader and writer.
FORMAT_SITES = {"json.loads": "read_json", "json.dumps": "write_json",
                "csv.reader": "_read_rows", "csv.writer": "write_csv"}
FORMAT_CALLS = {"json.load", "json.loads", "json.dump", "json.dumps", "csv.reader", "csv.writer"}


def format_calls(tree: ast.AST, function: str = "<module>"):
    """(call, enclosing function) for each call of FORMAT_CALLS under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and f"{node.func.value.id}.{node.func.attr}" in FORMAT_CALLS):
            yield f"{node.func.value.id}.{node.func.attr}", function
        yield from format_calls(node, inner)


def test_each_file_format_has_one_reader_and_one_writer():
    sites, imported = set(), []
    for path in sorted(Path(trajkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites |= {(path.name, call, function) for call, function in format_calls(tree)}
        imported += [(path.name, node.module) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")]
    assert sites == {("dataset.py", call, function) for call, function in FORMAT_SITES.items()}
    assert imported == []  # a bare loads() or writer() would slip past the walk
