import csv
import itertools
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajkit import (DistanceMatrix, DistanceSpec, MatrixComputationError,
                     MatrixFormatError, Trajectory, compute_matrix, discrete_frechet, dlcss, dtw,
                     edr, erp, frechet, hausdorff, hca, lcss, load_matrix, owd, save_matrix,
                     save_matrix_csv, sowd, spd, sspd)
from trajkit import geometry, matrix, warping
from trajkit.matrix import DISTANCE_NAMES

from conftest import DIRECT, walk_trajectory
from oracles import (scalar_discrete_frechet, scalar_dlcss, scalar_dtw, scalar_edr,
                     scalar_erp)


def small_fleet(seed: int = 211, n: int = 6, points: int = 6):
    rng = np.random.default_rng(seed)
    return [walk_trajectory(rng, points, f"t{k}") for k in range(n)]


#: A worker SIGKILLs itself in the first range of a 2-worker job.
KILLED_WORKER = """
import multiprocessing, os, signal
from trajkit import MatrixComputationError, matrix
from trajkit.bench import random_walk_trajectories
eval_range = matrix._eval_range

def dying(job, bounds):  # fork carries it into the workers
    if bounds[0] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return eval_range(job, bounds)

matrix._eval_range = dying
try:
    matrix.compute_matrix(random_walk_trajectories(60, 10, 0), "sspd", workers=2)
except MatrixComputationError as exc:
    print(exc)
print(multiprocessing.active_children())
"""

#: A 2-worker job of 17 ranges that sleep 0.7 s each, so it takes over 5 s.
SLOW_JOB = """
import multiprocessing, time
from trajkit import matrix
from trajkit.bench import random_walk_trajectories
eval_range = matrix._eval_range

def slow(job, bounds):
    time.sleep(0.7)
    return eval_range(job, bounds)

matrix._eval_range = slow
fleet = random_walk_trajectories(40, 5, 0)
print("started", flush=True)
try:
    matrix.compute_matrix(fleet, "dtw", workers=2)
except KeyboardInterrupt:
    print("interrupted", multiprocessing.active_children())
"""


def job_in_own_session(code: str) -> subprocess.Popen:
    """A child interpreter running ``code`` as the leader of a new process
    group, so that a signal to the group reaches its workers and no test."""
    src = Path(matrix.__file__).resolve().parents[1]
    return subprocess.Popen([sys.executable, "-c", code], start_new_session=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(src)})


def ended_within(proc: subprocess.Popen, timeout: float) -> str:
    """What ``proc`` printed, once it and every process of its group have
    ended within ``timeout`` seconds; else the group is killed and the test fails."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the job was still running after {timeout} s")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert proc.returncode == 0, err
    return out


BAD_GAPS = [(1.0, 2.0, 3.0), (1.0,), (float("nan"), 0.0), (0.0, float("inf")), (-np.inf, 1.0),
            5.0, "12", ((1.0, 2.0), (3.0, 4.0)), (1.0, "2"), (1.0, 1j), (True, 0.0),
            (np.bool_(False), 1.0), (10**400, 0.0), np.array(5.0)]
BAD_EPS = [None, 0.0, -1.0, np.nan, -np.inf, True, "1"]
BAD_DENSITIES = [0.0, -1.0, np.nan, np.inf, -np.inf, True, "2"]

#: (DistanceSpec name, field, single-pair call, the name its messages use, bad value)
RULE_CASES = ([("dlcss", "eps_d", call, call.__name__, v) for call in (lcss, dlcss) for v in BAD_EPS]
              + [("edr", "eps_d", edr, "edr", v) for v in BAD_EPS]
              + [("erp", "gap", erp, "erp", v) for v in BAD_GAPS]
              + [("sowd", "samples_per_unit", call, "owd", v) for call in (owd, sowd)
                 for v in BAD_DENSITIES])


class TestDistanceSpec:
    @pytest.mark.parametrize("name, field, call, own, value", RULE_CASES)
    def test_spec_and_single_pair_call_share_each_parameter_rule(self, name, field, call, own, value):
        a, b = [(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (2.0, 1.0)]
        with pytest.raises(ValueError) as spec_error:
            DistanceSpec(name, **{field: value})
        with pytest.raises(ValueError) as call_error:
            call(a, b, value)
        assert str(call_error.value) == str(spec_error.value).replace(name, own, 1)

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="unknown distance.*dtw"):
            DistanceSpec("manhattan")

    def test_threshold_distances_require_eps(self):
        with pytest.raises(ValueError, match="eps_d"):
            DistanceSpec("edr")
        with pytest.raises(ValueError, match="eps_d"):
            DistanceSpec("dlcss")

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DistanceSpec("edr", eps_d=-1.0)

    @pytest.mark.parametrize("name", ["dlcss", "edr"])
    @pytest.mark.parametrize("eps_d, accepted", [(np.nan, False), (-np.inf, False), (np.inf, True)])
    def test_eps_may_be_infinite_but_not_nan(self, name, eps_d, accepted):
        # An infinite threshold matches every pair of points; NaN matches none.
        if accepted:
            assert DistanceSpec(name, eps_d=eps_d).render() == f"{name}(eps_d=inf)"
        else:
            with pytest.raises(ValueError, match=f"{name}: eps_d must be positive"):
                DistanceSpec(name, eps_d=eps_d)

    @pytest.mark.parametrize("density", [np.nan, np.inf, -np.inf, 0.0])
    def test_owd_density_must_be_positive_and_finite(self, density):
        with pytest.raises(ValueError, match="sowd: samples_per_unit must be positive and finite"):
            DistanceSpec("sowd", samples_per_unit=density)

    def test_lcss_is_stored_as_its_distance_form(self):
        spec = DistanceSpec("lcss", eps_d=0.5)
        assert spec.name == "dlcss"
        assert "eps_d" in spec.render()

    def test_erp_defaults_gap_to_origin(self):
        spec = DistanceSpec("erp")
        assert spec.gap == (0.0, 0.0)
        assert spec.render() == "erp(gap=(0.0, 0.0))"

    @pytest.mark.parametrize("gap", BAD_GAPS)
    def test_erp_gap_must_be_two_finite_numbers(self, gap):
        with pytest.raises(ValueError, match="erp: gap must be two finite numbers"):
            DistanceSpec("erp", gap=gap)

    def test_erp_gap_is_stored_as_python_floats(self):
        for gap in [(np.float64(0.1), np.float32(2.5)), np.array([0.1, 2.5]), [np.int64(1), 2]]:
            spec = DistanceSpec("erp", gap=gap)
            assert type(spec.gap) is tuple and [type(g) for g in spec.gap] == [float, float]
            assert spec.gap == tuple(float(g) for g in gap)

    def test_erp_render_round_trips_the_gap(self):
        for gap in [(0.1, -2.5e-300), (1.0 / 3.0, 1e300), (np.float64(7.25), np.int32(-3)),
                    (np.float64(0.1), np.float32(2.5))]:
            spec = DistanceSpec("erp", gap=gap)
            text = spec.render()
            assert text.startswith("erp(gap=(") and text.endswith("))")
            back = tuple(float(v) for v in text[len("erp(gap=("):-2].split(", "))
            assert back == spec.gap == tuple(float(g) for g in gap)
            assert DistanceSpec("erp", gap=back).render() == text

    @pytest.mark.parametrize("name, field, values, kind", [
        ("edr", "eps_d", [1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1)], "edr(eps_d=1.0)"),
        ("dlcss", "eps_d", [1, 1.0, np.float64(1.0), np.uint8(1)], "dlcss(eps_d=1.0)"),
        ("sowd", "samples_per_unit", [2, 2.0, np.float64(2.0), np.int32(2)],
         "sowd(samples_per_unit=2.0)"),
        ("erp", "gap", [(1, 0), [1.0, 0.0], np.array([1, 0]), (np.float32(1.0), np.int8(0))],
         "erp(gap=(1.0, 0.0))")])
    def test_equal_specs_store_one_kind(self, tmp_path, name, field, values, kind):
        # A parameter is stored as Python floats, so equal specs render and save alike.
        specs = [DistanceSpec(name, **{field: v}) for v in values]
        assert len(set(specs)) == 1 and {s.render() for s in specs} == {kind}
        fleet = small_fleet(n=3)
        saved = set()
        for k, spec in enumerate(specs):
            save_matrix(compute_matrix(fleet, spec), tmp_path / f"{k}.trjd")
            saved.add((tmp_path / f"{k}.trjd").read_bytes())
        assert len(saved) == 1 and kind.encode() in saved.pop()

    def test_render_roundtrips_parameters(self):
        assert DistanceSpec("edr", eps_d=0.5).render() == "edr(eps_d=0.5)"
        assert DistanceSpec("dtw").render() == "dtw"

    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    def test_fields_the_distance_does_not_take_are_none(self, name):
        given = {"eps_d": 1.0, "gap": (1.0, 2.0), "samples_per_unit": 2.0}
        taken = matrix._KERNELS[name][1]
        spec = DistanceSpec(name, **given)
        own = DistanceSpec(name, **{f: given[f] for f in taken})
        assert spec == own and hash(spec) == hash(own) and spec.render() == own.render()
        assert {f: getattr(spec, f) for f in given} == {f: given[f] if f in taken else None
                                                        for f in given}

    def test_an_unused_field_is_dropped_whatever_its_value(self):
        assert DistanceSpec("sspd", gap="x").gap is None

    def test_every_listed_distance_has_a_direct_call(self):
        assert set(DIRECT) == set(DISTANCE_NAMES)
        a = Trajectory("a", [(0.0, 0.0), (1.0, 0.0)])
        b = Trajectory("b", [(0.0, 1.0), (1.0, 1.0)])
        for name in DISTANCE_NAMES:
            m = compute_matrix([a, b], DistanceSpec(name, eps_d=1.0))
            assert m.values[0, 1] == DIRECT[name](a, b) >= 0.0


class TestDistanceMatrix:
    def test_validates_id_count(self):
        with pytest.raises(MatrixFormatError, match="id count"):
            DistanceMatrix(("a",), "dtw", np.zeros((2, 2)))

    def test_validates_symmetry(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(("a", "b"), "dtw", bad)

    @pytest.mark.parametrize("rows", [1, 4, None], ids=["1-row", "4-row", "default"])
    def test_an_asymmetric_cell_is_found_in_bands_of_any_size(self, rows, monkeypatch):
        # A DistanceMatrix and a bare array given to hca share one banded
        # test; bands of 1 and 4 rows of a 9 x 9 matrix, and the whole.
        if rows is not None:
            monkeypatch.setattr(geometry, "_BLOCK", rows * 9)
        for i, j in itertools.permutations(range(9), 2):
            bad = np.ones((9, 9)) - np.eye(9)
            bad[i, j] = 2.0
            with pytest.raises(ValueError, match="^distance matrix must be symmetric$"):
                DistanceMatrix(tuple("abcdefghi"), "dtw", bad)
            with pytest.raises(ValueError, match="^hca: expected a finite symmetric matrix$"):
                hca(bad)
        assert len(DistanceMatrix(tuple("abcdefghi"), "dtw", np.ones((9, 9)) - np.eye(9))) == 9

    def test_validates_zero_diagonal(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(("a", "b"), "dtw", bad)

    @pytest.mark.parametrize("ids, values, match", [
        (("a", "b"), np.zeros((2, 3)), "must be square"),
        (("a", "a"), np.zeros((2, 2)), "ids must be unique"),
        (("a", "b"), np.array([[0.0, np.inf], [np.inf, 0.0]]), "must be finite"),
        (("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]), "must be non-negative")])
    def test_rejects_values_that_are_not_distances(self, ids, values, match):
        with pytest.raises(ValueError, match=match):
            DistanceMatrix(ids, "dtw", values)

    def test_constructor_copies_the_callers_array(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = DistanceMatrix(("a", "b"), "dtw", vals)
        assert vals.flags.writeable and not m.values.flags.writeable
        assert not np.shares_memory(vals, m.values)
        vals[0, 1] = vals[1, 0] = 5.0
        assert m.values[0, 1] == 1.0


class TestComputeMatrix:
    def test_matches_direct_pairwise_calls(self):
        fleet = small_fleet()
        m = compute_matrix(fleet, "sspd")
        assert m.kind == "sspd"
        assert m.ids == tuple(t.id for t in fleet)
        for i, a in enumerate(fleet):
            for j, b in enumerate(fleet):
                want = 0.0 if i == j else sspd(a, b)
                assert m.values[i, j] == want

    def test_every_distance_yields_a_valid_matrix(self):
        fleet = small_fleet(n=4)
        for name in DISTANCE_NAMES:
            m = compute_matrix(fleet, DistanceSpec(name, eps_d=1.0))
            assert np.all(np.isfinite(m.values))
            assert np.array_equal(m.values, m.values.T)

    def test_parallel_equals_serial_bitwise(self):
        fleet = small_fleet(seed=223, n=10)
        serial = compute_matrix(fleet, "sspd", workers=1)
        parallel = compute_matrix(fleet, "sspd", workers=4)
        assert np.array_equal(serial.values, parallel.values)

    def test_every_chunking_equals_serial_bitwise(self):
        # 45 pairs over 2-8 workers: chunks of 1-2 pairs start at every
        # position of the triangle, in rows of every length.
        fleet = small_fleet(seed=227, n=10)
        serial = compute_matrix(fleet, "sspd", workers=1)
        for workers in (2, 4, 8):
            parallel = compute_matrix(fleet, "sspd", workers=workers)
            assert parallel.values.tobytes() == serial.values.tobytes()

    def test_dp_matrices_match_direct_calls_and_frozen_loops_at_any_worker_count(self):
        rng = np.random.default_rng(229)
        fleet = [walk_trajectory(rng, 2 + k % 29, f"v{k}") for k in range(24)]
        frozen = {"dtw": scalar_dtw, "dlcss": lambda a, b: scalar_dlcss(a, b, 1.0),
                  "edr": lambda a, b: float(scalar_edr(a, b, 1.0)),
                  "erp": lambda a, b: scalar_erp(a, b, (0.0, 0.0)),
                  "discrete_frechet": scalar_discrete_frechet}
        iu = np.triu_indices(len(fleet), 1)
        for name, loop in frozen.items():
            spec = DistanceSpec(name, eps_d=1.0)
            serial = compute_matrix(fleet, spec)
            for workers in (2, 4):
                parallel = compute_matrix(fleet, spec, workers=workers)
                assert parallel.values.tobytes() == serial.values.tobytes()
            direct = DIRECT[name]
            for i, j in zip(*iu):
                a, b = fleet[i].points, fleet[j].points
                assert serial.values[i, j] == direct(fleet[i], fleet[j]) == loop(a, b)

    def test_all_failures_are_reported_the_same_at_any_worker_count(self):
        # Two failing pairs, (t0, stuck) and (stuck, t1), in different chunks.
        fleet = small_fleet(n=2)
        stuck = Trajectory(id="stuck", points=[(1.0, 1.0), (1.0, 1.0)])
        messages = set()
        for workers in (1, 2, 4):
            with pytest.raises(MatrixComputationError) as err:
                compute_matrix([fleet[0], stuck, fleet[1]], "sowd", workers=workers)
            messages.add(str(err.value))
        assert messages == {"sowd(samples_per_unit=1.0) failed on 2 pair(s): "
                            "('t0', 'stuck'): ValueError: owd: second trajectory has zero length; "
                            "('stuck', 't1'): ValueError: owd: first trajectory has zero length"}

    def test_a_single_point_walk_fails_frechet_the_same_at_any_worker_count(self):
        # The batch kernel raises, and the per-pair fallback names each pair.
        fleet = small_fleet(n=4)
        dot = Trajectory(id="dot", points=[(1.0, 1.0), (2.0, 1.0)])
        object.__setattr__(dot, "points", np.array([(1.0, 1.0)]))  # Trajectory needs 2 points
        reasons = {"frechet": "frechet: needs trajectories with at least 2 points",
                   "hausdorff": "hausdorff: needs trajectories with at least 2 points",
                   "sspd": "sspd: both trajectories need at least 2 points",
                   "sowd": "owd: needs trajectories with at least 2 points"}
        for name, reason in reasons.items():
            messages = set()
            for workers in (1, 2, 4):
                with pytest.raises(MatrixComputationError) as err:
                    compute_matrix(fleet[:2] + [dot] + fleet[2:], name, workers=workers)
                messages.add(str(err.value))
            assert messages == {f"{DistanceSpec(name).render()} failed on 4 pair(s): " + "; ".join(
                f"({a!r}, {b!r}): ValueError: {reason}" for a, b in [("t0", "dot"), ("t1", "dot"),
                                                                    ("dot", "t2"), ("dot", "t3")])}

    def test_the_per_pair_fallback_gives_the_batch_kernels_bits(self, monkeypatch):
        # Each batch kernel raises on any range of more than one pair, so
        # every pair runs alone through the fallback: no entry may change.
        rng = np.random.default_rng(239)
        fleet = [walk_trajectory(rng, 2 + k % 13, f"f{k}") for k in range(10)]
        for name in DISTANCE_NAMES:
            spec = DistanceSpec(name, eps_d=1.0)
            want = compute_matrix(fleet, spec).values.tobytes()
            batch, fields = matrix._KERNELS[name]
            sizes = []

            def one_pair_only(store, ia, ib, *params, batch=batch, sizes=sizes):
                sizes.append(len(ia))
                if len(ia) > 1:
                    raise RuntimeError("more than one pair")
                return batch(store, ia, ib, *params)

            monkeypatch.setitem(matrix._KERNELS, name, (one_pair_only, fields))
            for workers in (1, 2, 4):
                assert compute_matrix(fleet, spec, workers=workers).values.tobytes() == want, name
            assert sizes == [45] + [1] * 45  # the serial run: one failed range, then its pairs

    @pytest.mark.parametrize("name", ["dtw", "sspd", "hausdorff", "erp", "discrete_frechet"])
    def test_a_non_finite_distance_fails_its_pair(self, name):
        # Finite points 2e308 apart overflow to inf, or to nan in a projection.
        fleet = [Trajectory("a", [(0.0, 0.0), (1e308, 0.0)]),
                 Trajectory("b", [(-1e308, 0.0), (0.0, 0.0)]),
                 Trajectory("c", [(0.0, 0.0), (1.0, 1.0)])]
        messages = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for workers in (1, 2):
                with pytest.raises(MatrixComputationError) as err:
                    compute_matrix(fleet, name, workers=workers)
                messages.add(str(err.value))
        (message,) = messages
        assert message.startswith(f"{DistanceSpec(name).render()} failed on 3 pair(s): "
                                  "('a', 'b'): non-finite distance ")
        assert "('a', 'c'): non-finite distance inf; ('b', 'c'): non-finite distance " in message

    @pytest.mark.parametrize("name, call", [
        ("sspd", sspd), ("spd", spd), ("hausdorff", hausdorff), ("dtw", dtw),
        ("discrete_frechet", discrete_frechet), ("frechet", frechet),
        ("erp", lambda a, b: erp(a, b, (0.0, 0.0)))])
    def test_a_non_finite_single_pair_distance_names_its_call(self, name, call):
        # The walks of the matrix test above: their coordinate differences
        # overflow to inf (nan in a projection), and frechet's Python float
        # arithmetic raises OverflowError; each call reports it by name.
        a, b = [(0.0, 0.0), (1e308, 0.0)], [(-1e308, 0.0), (0.0, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            for pair in ((a, b), (b, a)):
                with pytest.raises(ValueError, match=f"^{name}: non-finite distance "):
                    call(*pair)

    def test_the_other_single_pair_calls_stay_finite_or_refuse_on_overflowing_walks(self):
        a, b = [(0.0, 0.0), (1e308, 0.0)], [(-1e308, 0.0), (0.0, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert (lcss(a, b, 1.0), dlcss(a, b, 1.0), edr(a, b, 1.0)) == (1, 0.5, 2)
            for call in (owd, sowd):  # a 1e308-long segment needs too many samples
                with pytest.raises(ValueError, match="^owd: too many samples at 1.0 per unit length$"):
                    call(a, b)

    def test_failure_report_is_capped(self):
        fleet = small_fleet(n=12)
        stuck = Trajectory(id="stuck", points=[(1.0, 1.0), (1.0, 1.0)])
        with pytest.raises(MatrixComputationError, match=r"failed on 12 pair\(s\).*; and 2 more$"):
            compute_matrix([stuck] + fleet, "sowd")

    def test_failing_batch_kernel_names_every_pair(self):
        # DistanceSpec rejects a three-value gap; set one behind its back so
        # that the batch kernel and then every single pair raise.
        spec = DistanceSpec("erp")
        object.__setattr__(spec, "gap", (1.0, 2.0, 3.0))
        with pytest.raises(MatrixComputationError, match=r"failed on 3 pair\(s\): \('t0', 't1'\)"):
            compute_matrix(small_fleet(n=3), spec, workers=2)

    def test_failure_names_the_offending_pair(self):
        fleet = small_fleet(n=3)
        stuck = Trajectory(id="stuck", points=[(1.0, 1.0), (1.0, 1.0)])
        with pytest.raises(MatrixComputationError, match="'stuck'"):
            compute_matrix(fleet + [stuck], "sowd")

    def test_parallel_failure_names_the_offending_pair(self):
        fleet = small_fleet(n=3)
        stuck = Trajectory(id="stuck", points=[(1.0, 1.0), (1.0, 1.0)])
        with pytest.raises(MatrixComputationError, match="'stuck'"):
            compute_matrix(fleet + [stuck], "sowd", workers=2)

    def test_a_clean_pool_job_closes_its_pool_instead_of_terminating_it(self):
        fleet = small_fleet(n=8)
        parallel = compute_matrix(fleet, "sspd", workers=2)
        assert multiprocessing.active_children() == []
        assert parallel.values.tobytes() == compute_matrix(fleet, "sspd").values.tobytes()

    def test_a_worker_that_dies_fails_the_job(self):
        out = ended_within(job_in_own_session(KILLED_WORKER), timeout=10.0)
        assert out.startswith("sspd: a worker process died: "), out
        assert out.endswith("\n[]\n"), out

    def test_a_ctrl_c_ends_the_workers_with_the_job(self):
        proc = job_in_own_session(SLOW_JOB)
        assert proc.stdout.readline() == "started\n"
        time.sleep(2.0)
        os.killpg(proc.pid, signal.SIGINT)  # as a terminal's Ctrl-C does
        assert ended_within(proc, timeout=3.0) == "interrupted []\n"

    def test_pool_ranges_hold_at_most_16_dp_batches(self, monkeypatch):
        # A range's memory grows with its size, so no range may grow with n^2.
        eval_range = matrix._eval_range

        def bounded(job, bounds):
            assert bounds[1] - bounds[0] <= 16 * warping.CHUNK, bounds
            return eval_range(job, bounds)
        monkeypatch.setattr(matrix, "_eval_range", bounded)  # fork carries it into the workers
        rng = np.random.default_rng(239)
        fleet = [walk_trajectory(rng, 5, f"t{k}") for k in range(400)]
        pooled = compute_matrix(fleet, "dtw", workers=2)
        assert pooled.values.tobytes() == compute_matrix(fleet, "dtw").values.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_in_a_range_ends_the_job(self, monkeypatch, workers):
        def fail(job, bounds):
            raise RuntimeError(f"range {bounds} failed")
        monkeypatch.setattr(matrix, "_eval_range", fail)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"range \(\d+, \d+\) failed"):
            compute_matrix(small_fleet(n=40), "dtw", workers=workers)
        assert time.perf_counter() - t0 < 10.0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fleet, workers, match", [
        ([], 1, "at least one trajectory"), (small_fleet(n=2), 0, "workers must be an int >= 1"),
        (small_fleet(n=2), 2.5, "compute_matrix: workers must be an int >= 1, got 2.5"),
        (small_fleet(n=2), True, "compute_matrix: workers must be an int >= 1, got True"),
        (small_fleet(n=2), "2", "compute_matrix: workers must be an int >= 1, got '2'")])
    def test_rejects_an_empty_job_and_no_workers(self, fleet, workers, match):
        with pytest.raises(ValueError, match=match):
            compute_matrix(fleet, "dtw", workers=workers)

    def test_duplicate_ids_rejected(self):
        fleet = small_fleet(n=2)
        with pytest.raises(ValueError, match="unique"):
            compute_matrix(fleet + [fleet[0]], "dtw")


class TestPersistence:
    def test_binary_round_trip_is_bit_exact(self, tmp_path):
        m = compute_matrix(small_fleet(), DistanceSpec("edr", eps_d=0.75))
        path = tmp_path / "m.trjd"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.ids == m.ids
        assert back.kind == m.kind
        assert np.array_equal(back.values, m.values)

    def test_load_holds_at_most_1_6_times_the_matrix(self, tmp_path):
        # The file's bytes (half the matrix) and the square it fills are the
        # peak; the matrix keeps that square instead of copying it.
        save_matrix(euclidean_matrix(1000), tmp_path / "m.trjd")
        tracemalloc.start()
        try:
            back = load_matrix(tmp_path / "m.trjd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * back.values.nbytes

    def test_save_holds_no_copy_of_the_payload(self, tmp_path):
        # Each row of the triangle goes to the file from the matrix's own
        # buffer; the payload at n = 1000 is 3.8 MiB.
        m = euclidean_matrix(1000)
        tracemalloc.start()
        try:
            save_matrix(m, tmp_path / "m.trjd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_file_is_header_ids_kind_then_upper_triangle(self, tmp_path):
        m = compute_matrix(small_fleet(n=7), "dtw")
        want = struct.pack("<4sII", b"TRJD", 1, 7)
        for item_id in (*m.ids, m.kind):
            want += struct.pack("<I", len(item_id)) + item_id.encode("utf-8")
        want += m.values[np.triu_indices(7, 1)].astype("<f8").tobytes()
        # A matrix built from a Fortran-ordered array keeps that order.
        for order in ("C", "F"):
            save_matrix(DistanceMatrix(m.ids, m.kind, np.asarray(m.values, order=order)), tmp_path / "m.trjd")
            assert (tmp_path / "m.trjd").read_bytes() == want

    def test_unicode_ids_survive(self, tmp_path):
        vals = np.array([[0.0, 2.5], [2.5, 0.0]])
        m = DistanceMatrix(("Ωmega", "trÆin"), "dtw", vals)
        save_matrix(m, tmp_path / "u.trjd")
        back = load_matrix(tmp_path / "u.trjd")
        assert back.ids == ("Ωmega", "trÆin")

    def test_csv_quotes_ids_that_need_it(self, tmp_path):
        ids = ("a,b", 'say "hi"', "two\nlines", "plain")
        vals = np.array([[0.0, 1.5, 2.0, 0.1], [1.5, 0.0, 3.0, 0.2],
                         [2.0, 3.0, 0.0, 0.3], [0.1, 0.2, 0.3, 0.0]])
        save_matrix_csv(DistanceMatrix(ids, "dtw", vals), tmp_path / "m.csv")
        with open(tmp_path / "m.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", *ids]
        assert [r[0] for r in rows[1:]] == list(ids)
        assert np.array_equal(np.array([[float(c) for c in r[1:]] for r in rows[1:]]), vals)

    def test_csv_round_trips_values_bit_exactly(self, tmp_path):
        m = compute_matrix(small_fleet(), "dtw")
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["id", *m.ids]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == m.ids[i]
            got = np.array([float(c) for c in cells[1:]])
            assert np.array_equal(got, m.values[i])

    def test_bad_magic_is_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=3), "dtw"), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(MatrixFormatError, match="magic"):
            load_matrix(path)

    def test_unsupported_version_is_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=3), "dtw"), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(MatrixFormatError, match="version 99"):
            load_matrix(path)

    def test_truncated_id_table_is_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=3), "dtw"), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:14])  # inside the first id entry
        with pytest.raises(MatrixFormatError, match="id table"):
            load_matrix(path)

    def test_truncated_values_are_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=3), "dtw"), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(MatrixFormatError, match="value payload"):
            load_matrix(path)

    def test_truncated_kind_string_is_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=1), "dtw"), path)  # no pairs: the kind ends the file
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(MatrixFormatError, match="ran out of bytes reading kind string"):
            load_matrix(path)

    @pytest.mark.parametrize("ids, kind, reason", [
        ((b"a", b"\xff\xfe"), b"dtw", "id table entry 1 is not valid UTF-8"),
        ((b"a", b"b"), b"dtw\xc3", "kind string is not valid UTF-8"),
    ], ids=["id", "kind"])
    def test_string_that_is_not_utf8_is_reported(self, tmp_path, ids, kind, reason):
        blob = struct.pack("<4sII", b"TRJD", 1, 2)
        for raw in (*ids, kind):
            blob += struct.pack("<I", len(raw)) + raw
        path = tmp_path / "m.trjd"
        path.write_bytes(blob + struct.pack("<d", 1.5))
        with pytest.raises(MatrixFormatError, match=reason):
            load_matrix(path)

    def test_trailing_bytes_are_reported(self, tmp_path):
        path = tmp_path / "m.trjd"
        save_matrix(compute_matrix(small_fleet(n=3), "dtw"), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MatrixFormatError, match="trailing"):
            load_matrix(path)


def euclidean_matrix(n: int) -> DistanceMatrix:
    """The distances between n seeded random points in 3-D."""
    x = np.random.default_rng(233).random((n, 3))
    vals = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(vals, 0.0)
    vals = np.triu(vals, 1) + np.triu(vals, 1).T
    return DistanceMatrix(tuple(f"p{i}" for i in range(n)), "euclidean", vals)


def usable_cores() -> int:
    """Cores this process may run on; a cpuset can grant fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(usable_cores() < 2,
                    reason="throughput comparison needs at least two usable CPU cores")
def test_workers_speed_up_large_matrices():
    import time
    cores = usable_cores()
    workers = min(4, cores)
    # Ideal time is 1/workers of serial; 0.25 of serial is left for pool start-up
    # and IPC. At 4 workers the bound is 0.5, at 2 it still demands a 1.33x speed-up.
    bound = 1 / workers + 0.25
    # n=600: the serial sspd matrix takes about 0.9 s, so pool start-up (about
    # 25 ms) and the last range's tail stay a small share. Its pool ranges
    # hold 4,096 pairs, as its serial ones do.
    fleet = small_fleet(seed=227, n=600, points=10)
    # Interleaved rounds: each ratio compares runs that saw the same host speed,
    # and the median drops rounds disturbed by other load on a shared host.
    serial, parallel = [], []
    for _ in range(5):
        for w, times in ((1, serial), (workers, parallel)):
            t0 = time.perf_counter()
            compute_matrix(fleet, "sspd", workers=w)
            times.append(time.perf_counter() - t0)
    ratio = float(np.median(np.divide(parallel, serial)))
    assert ratio <= bound, (
        f"{workers} workers on {cores} usable cores: median parallel/serial "
        f"{ratio:.3f} > bound {bound:.3f}; serial s {np.round(serial, 3).tolist()}, "
        f"parallel s {np.round(parallel, 3).tolist()}")
