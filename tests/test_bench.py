import numpy as np
import pytest

from trajkit import bench
from trajkit.bench import (BENCH_DISTANCES, random_walk_trajectories,
                           run_bench, scaling_exponents)


def test_generator_is_seeded_and_sized():
    a = random_walk_trajectories(5, 7, seed=9)
    b = random_walk_trajectories(5, 7, seed=9)
    assert [t.id for t in a] == [t.id for t in b]
    assert all(len(t) == 7 for t in a)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
    c = random_walk_trajectories(5, 7, seed=10)
    assert not np.array_equal(a[0].points, c[0].points)


def test_report_covers_requested_distances():
    report = run_bench(n=6, points=6, seed=1, distances=("dtw", "sspd"))
    assert report.n == 6
    assert set(report.timings) == {"dtw", "sspd"}
    assert all(row["serial"] > 0 for row in report.timings.values())
    assert report.workers == 0


def test_report_has_a_parallel_column_with_workers():
    report = run_bench(n=6, points=5, seed=1, distances=("sspd",), workers=2)
    assert report.workers == 2
    assert set(report.timings["sspd"]) == {"serial", "parallel"}
    assert report.timings["sspd"]["parallel"] > 0


def test_default_distance_list_is_benchable():
    report = run_bench(n=4, points=5, seed=2)
    assert set(report.timings) == set(BENCH_DISTANCES)


def test_scaling_exponent_shape():
    slopes = scaling_exponents(ns=(4, 8), points=6, seed=0,
                               distances=("dtw",), repeats=1)
    assert set(slopes) == {"dtw"}
    assert np.isfinite(slopes["dtw"])


def test_scaling_needs_two_sizes():
    with pytest.raises(ValueError, match="need at least two dataset sizes"):
        scaling_exponents(ns=(8,), distances=("dtw",), repeats=1)


def test_scaling_times_the_sizes_in_turn(monkeypatch):
    # After one untimed call, each repeat visits every size up and back down,
    # each visit (16 / n)² runs of size n, about the same wall time, so drift
    # or bursts of the host's load during the measurement reach all sizes alike.
    sizes = []
    monkeypatch.setattr(bench, "compute_matrix", lambda trajs, spec, workers: sizes.append(len(trajs)))
    scaling_exponents(ns=(4, 8, 16), points=6, seed=0, distances=("dtw",), repeats=3)
    assert sizes == [4] + ([4] * 16 + [8] * 4 + [16] + [16] + [8] * 4 + [4] * 16) * 3


@pytest.mark.parametrize("measure", [run_bench, scaling_exponents])
def test_a_measurement_needs_a_repeat(measure):
    with pytest.raises(ValueError, match=f"{measure.__name__}: repeats must be >= 1"):
        measure(distances=("dtw",), repeats=0)
