"""The public names of trajkit: additions and removals show up here as a diff."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import trajkit
import trajkit.matrix
from trajkit.cli import _build_parser

PUBLIC = {
    "APResult", "BundleSpec", "ClusterAssignment", "CriteriaResult", "DISTANCE_NAMES",
    "Dendrogram", "DistanceMatrix", "DistanceSpec", "IngestError",
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


#: The options of each trajkit subcommand, --help aside.
CLI_OPTIONS = {
    "ingest": ["--end-box", "--min-points", "--output", "--start-box", "-o"],
    "synth": ["--labels", "--output", "--seed", "-o"],
    "matrix": ["--csv", "--distance", "--eps-d", "--gap", "--output", "--owd-density", "--workers",
               "-o"],
    "cluster": ["--convergence-iter", "--damping", "--k", "--linkage", "--max-iter", "--method",
                "--output", "--preference", "-o"],
    "criteria": ["--k-max", "--k-min", "--linkage", "--output", "-o"],
    "bench": ["--distances", "--n", "--output", "--points", "--repeats", "--seed", "--workers", "-o"],
}


def test_cli_options_are_exactly_the_pinned_set():
    parser = _build_parser()
    commands, = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: sorted(option for action in sub._actions
                         if not isinstance(action, argparse._HelpAction)
                         for option in action.option_strings)
            for name, sub in commands.items()} == CLI_OPTIONS


def loaded_by_a_fresh_import(module: str, run: str = "") -> bool:
    code = f"import sys, trajkit, trajkit.cli, trajkit.bench\n{run}\nprint({module!r} in sys.modules)"
    src = Path(trajkit.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout.strip() == "True"


def test_the_library_never_loads_scipy():
    # numpy is the only runtime dependency; SciPy is for the tests alone.
    assert not loaded_by_a_fresh_import("scipy")


def test_only_a_pool_job_imports_the_process_pool():
    assert not loaded_by_a_fresh_import("concurrent.futures.process")
    assert not loaded_by_a_fresh_import("multiprocessing")


#: The calls that reach geometry.distinct, exemplar's on unsorted indices.
UNIQUE_CALLERS = """import numpy as np
from trajkit import (DistanceSpec, Trajectory, affinity_propagation, compute_matrix, criteria,
                     cut, exemplar, frechet, hca, sowd)
walks = [Trajectory(f"t{k}", np.cumsum(np.random.default_rng(k).normal(size=(4 + k, 2)), axis=0))
         for k in range(6)]
frechet(walks[0].points, walks[1].points)
sowd(walks[0].points, walks[1].points)
m = compute_matrix(walks, DistanceSpec("frechet"))
criteria(cut(hca(m, linkage="ward"), 3), m)
exemplar([4, 1, 3, 1], m)
affinity_propagation(m)"""


def test_the_library_never_loads_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process, 13-16 ms;
    # geometry.distinct gives its values without it.
    assert not loaded_by_a_fresh_import("numpy.ma", UNIQUE_CALLERS)


def sources():
    """(file name, syntax tree) of each module of trajkit."""
    for path in sorted(Path(trajkit.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def sites(tree: ast.AST, name_of, function: str = "<module>"):
    """(name, enclosing function) for each node under ``tree`` that
    ``name_of`` gives a name; it gives None for every other node."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        name = name_of(node)
        if name is not None:
            yield name, function
        yield from sites(node, name_of, inner)


#: The one function that may call each json/csv reader and writer.
FORMAT_SITES = {"json.loads": "read_json", "json.dumps": "write_json",
                "csv.reader": "_read_rows", "csv.writer": "write_csv"}
FORMAT_CALLS = {"json.load", "json.loads", "json.dump", "json.dumps", "csv.reader", "csv.writer"}


def format_call(node: ast.AST) -> str | None:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and f"{node.func.value.id}.{node.func.attr}" in FORMAT_CALLS):
        return f"{node.func.value.id}.{node.func.attr}"
    return None


def test_each_file_format_has_one_reader_and_one_writer():
    found, imported = set(), []
    for name, tree in sources():
        found |= {(name, call, function) for call, function in sites(tree, format_call)}
        imported += [(name, node.module) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")]
    assert found == {("dataset.py", call, function) for call, function in FORMAT_SITES.items()}
    assert imported == []  # a bare loads() or writer() would slip past the walk


#: Names that start worker processes, whether named, called or imported.
PROCESS_NAMES = {"ProcessPoolExecutor", "Pool", "Process", "fork"}


def process_name(node: ast.AST) -> str | None:
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    return name if name in PROCESS_NAMES else None


def test_only_compute_matrix_starts_worker_processes():
    found = {(name, function) for name, tree in sources() for _, function in sites(tree, process_name)}
    assert found == {("matrix.py", "compute_matrix")}


def constant(node: ast.AST):
    """The value of an expression of number literals and operators, else None."""
    if not all(isinstance(part, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for part in ast.walk(node)):
        return None
    return eval(compile(ast.Expression(node), "<constant>", "eval"), {"__builtins__": {}})


def numpy_unique(node: ast.AST) -> str | None:
    return "np.unique" if (isinstance(node, ast.Attribute) and node.attr == "unique"
                           and isinstance(node.value, ast.Name) and node.value.id == "np") else None


def test_the_library_never_calls_np_unique():
    # np.unique loads numpy.ma; geometry.distinct gives the same values.
    assert [site for name, tree in sources() for site in sites(tree, numpy_unique)] == []


def test_one_working_set_budget():
    # Every blocked pass reads geometry._BLOCK when it runs, so a second
    # 1 << 16 constant would be a second budget.
    found = [(name, ast.unparse(target)) for name, tree in sources() for node in ast.walk(tree)
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
             and constant(node.value) == 1 << 16
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    assert found == [("geometry.py", "_BLOCK")]


def test_the_readme_example_gives_the_values_its_comments_state():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    stated = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment:  # `expr  # literal`, maybe followed by a remark
            want, got = ast.literal_eval(comment.split()[0]), eval(code, scope)
            assert (got, type(got)) == (want, type(want)), line
            stated += 1
        else:
            exec(line, scope)
    assert stated == 4
