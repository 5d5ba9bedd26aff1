"""Acceptance gate: one test per contract-level property of the toolkit.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line verdict
per property. Each test is seeded and self-contained; the slower census
tests also assert their own runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from trajkit import (BundleSpec, affinity_propagation,
                     compute_matrix, criteria, cut, discrete_frechet, dtw,
                     edr, erp, frechet, hausdorff, hca, lcss, load_matrix,
                     save_matrix, spd, sspd, synth)
from trajkit.bench import run_bench, scaling_exponents
from trajkit.geometry import segment_lengths
from trajkit.matrix import DISTANCE_NAMES

from conftest import DIRECT, smooth_walk, walk_pairs, walk_triples, walk_trajectory
from oracles import (enum_discrete_frechet, enum_dtw, enum_erp, rec_edr,
                     rec_lcss)


# -- shared synthetic clustering scene ----------------------------------------

BUNDLE_BASES = (
    (np.array([(0.0, 0.0), (20.0, 5.0), (40.0, 0.0)]), np.array([0.0, 1.0])),
    (np.array([(0.0, 300.0), (20.0, 295.0), (40.0, 300.0)]), np.array([0.0, 1.0])),
    (np.array([(300.0, 0.0), (305.0, 20.0), (300.0, 40.0)]), np.array([1.0, 0.0])),
)
STRAND_OFFSETS = (-4.5, -1.5, 1.5, 4.5)
STRANDS_PER_BUNDLE = len(STRAND_OFFSETS)


@pytest.fixture(scope="module")
def bundle_scene():
    """90 trajectories in 3 bundles of 30, plus their full SSPD matrix.

    Each bundle is laid down as four parallel strands (lanes) shifted off a
    shared base path, the way traffic on one route splits into lanes: the
    strands keep genuine sub-structure inside every bundle, while the bundle
    centres sit hundreds of units apart.  Separation between bundles is
    therefore ~30x the widest within-bundle distance, and successive ward
    splits keep cutting real gaps well past ten clusters.
    """
    bundles = []
    for base, normal in BUNDLE_BASES:
        for k, offset in enumerate(STRAND_OFFSETS):
            bundles.append(BundleSpec(anchor=base + offset * normal,
                                      count=8 if k % 2 == 0 else 7,
                                      jitter=0.15, points=(8, 12)))
    dataset, strand_labels = synth(bundles, seed=2024)
    truth = strand_labels // STRANDS_PER_BUNDLE
    matrix = compute_matrix(dataset.trajectories, "sspd")
    return dataset, truth, matrix


def as_partition(labels):
    labels = np.asarray(labels)
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


# -- distance-function properties ---------------------------------------------


def test_symmetry_census_and_triangle_inequality_status():
    """All nine matrix distances are symmetric on 500 seeded pairs; the
    triangle inequality holds for ERP, Hausdorff and continuous Frechet
    on 500 seeded triples; DTW and SSPD each admit a concrete witness
    violating it."""
    start = time.perf_counter()

    functions = {name: DIRECT[name] for name in DISTANCE_NAMES}
    assert len(functions) == 9
    for a, b in walk_pairs(501, 500):
        for name, f in functions.items():
            d_ab, d_ba = f(a, b), f(b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-9), f"{name} asymmetric"

    gap = (0.0, 0.0)
    for a, b, c in walk_triples(503, 500):
        for name, f in (("erp", lambda x, y: erp(x, y, gap_point=gap)),
                        ("hausdorff", hausdorff),
                        ("frechet", frechet)):
            assert f(a, c) <= f(a, b) + f(b, c) + 1e-9, f"{name} triangle failed"

    # witness: stationary padding defeats DTW's triangle inequality
    pad_a = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    mid = [(0.0, 0.0), (1.0, 0.0)]
    pad_c = [(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
    assert dtw(pad_a, pad_c) > dtw(pad_a, mid) + dtw(mid, pad_c)

    # witness: stubs at either end of one long carrier defeat SSPD's
    stub_a = [(0.0, 0.0), (1.0, 0.0)]
    carrier = [(0.0, 0.0), (11.0, 0.0)]
    stub_c = [(10.0, 0.0), (11.0, 0.0)]
    assert sspd(stub_a, stub_c) > sspd(stub_a, carrier) + sspd(carrier, stub_c)

    assert time.perf_counter() - start < 120.0


def test_alignment_distances_match_exhaustive_enumeration():
    """DTW, LCSS, EDR, ERP and discrete Frechet agree exactly (==, no
    tolerance) with exhaustive warping-path / edit-script enumeration on
    several thousand short integer-grid trajectory pairs: the complete
    pair census over one sub-grid plus a seeded sample of the full
    3x3-grid universe at up to 4 points."""
    start = time.perf_counter()
    gap = (0.0, 0.0)

    def check(a, b):
        assert dtw(a, b) == enum_dtw(a, b)
        assert discrete_frechet(a, b) == enum_discrete_frechet(a, b)
        assert erp(a, b, gap_point=gap) == enum_erp(a, b, gap)
        for eps in (1.0, 1.5):  # 1.0 sits exactly on a grid distance
            assert lcss(a, b, eps_d=eps) == rec_lcss(a, b, eps)
            assert edr(a, b, eps_d=eps) == rec_edr(a, b, eps)

    # complete census: every pair (self-pairs included) of the 84
    # sequences of length 1..3 over the 2x2 corner of the grid
    cells_2x2 = [(float(x), float(y)) for x in range(2) for y in range(2)]
    small = [seq for length in (1, 2, 3)
             for seq in itertools.product(cells_2x2, repeat=length)]
    assert len(small) == 84
    census = 0
    for i, a in enumerate(small):
        for b in small[i:]:
            check(a, b)
            census += 1
    assert census == 84 * 85 // 2  # 3570 pairs

    # seeded sample of the full universe: lengths 1..4 over all 9 cells
    cells_3x3 = [(float(x), float(y)) for x in range(3) for y in range(3)]
    rng = np.random.default_rng(509)
    sampled = 1500
    for _ in range(sampled):
        na, nb = rng.integers(1, 5, size=2)
        a = tuple(cells_3x3[i] for i in rng.integers(0, 9, size=na))
        b = tuple(cells_3x3[i] for i in rng.integers(0, 9, size=nb))
        check(a, b)

    assert census + sampled > 5000
    assert time.perf_counter() - start < 300.0


def test_discrete_frechet_sandwiches_the_continuous_value():
    """frechet <= discrete_frechet <= frechet + longest segment, on 200
    seeded random pairs, 1e-9 tolerance."""
    for a, b in walk_pairs(521, 200):
        exact = frechet(a, b)
        discrete = discrete_frechet(a, b)
        longest = max(segment_lengths(a.points).max(), segment_lengths(b.points).max())
        assert exact <= discrete + 1e-9
        assert discrete <= exact + longest + 1e-9


def test_subtrajectory_vanishes_and_symmetrized_mean_is_exact():
    """spd(part, whole) is exactly zero for 50 generated vertex-aligned
    sub-trajectories; sspd is bitwise symmetric on 500 pairs because it
    averages the two directions."""
    rng = np.random.default_rng(523)
    for _ in range(50):
        whole = walk_trajectory(rng, int(rng.integers(8, 15)), "whole")
        i = int(rng.integers(0, len(whole) - 2))
        j = int(rng.integers(i + 2, len(whole) + 1))
        part = whole.points[i:j]
        assert spd(part, whole) == 0.0

    for a, b in walk_pairs(541, 500):
        assert sspd(a, b) == sspd(b, a)


def test_mean_based_distance_isolates_a_spike_where_max_based_cannot():
    """Three routes: two near-parallel (one carrying a single spike) and
    one genuinely distant. The max-sensitive Hausdorff scores all three
    pairs within a factor of 1.5, while SSPD separates the true pair
    from the distant one by a factor of at least 2."""
    xs = np.linspace(0.0, 10.0, 11)
    flat = np.column_stack([xs, np.zeros(11)])
    spiky = np.column_stack([xs, np.full(11, 0.2)])
    spiky[5, 1] = 2.8  # one bad fix on an otherwise parallel route
    distant = np.column_stack([xs, np.full(11, 3.0)])

    h = {"near": hausdorff(flat, spiky),
         "far": hausdorff(flat, distant),
         "cross": hausdorff(spiky, distant)}
    assert max(h.values()) <= 1.5 * min(h.values())

    s_near = sspd(flat, spiky)
    s_far = sspd(flat, distant)
    s_cross = sspd(spiky, distant)
    assert 2.0 * s_near <= min(s_far, s_cross)


# -- pipeline-level properties -------------------------------------------------


def test_separated_bundles_are_recovered_by_both_clusterings(bundle_scene):
    """On 90 trajectories in 3 bundles separated by at least 10x the
    within-bundle spread, the ward cut at K=3 equals the ground truth
    exactly, and affinity propagation at the default preference (the most
    negative similarity) finds at least 3 clusters with 100% bundle
    purity. Runtime < 1 min."""
    start = time.perf_counter()
    _, truth, matrix = bundle_scene

    values = matrix.values
    spread = max(values[np.ix_(truth == b, truth == b)].max() for b in range(3))
    separation = min(values[np.ix_(truth == b1, truth == b2)].min()
                     for b1 in range(3) for b2 in range(b1 + 1, 3))
    assert separation >= 10.0 * spread

    labels = cut(hca(matrix, linkage="ward"), 3).labels
    assert as_partition(labels) == as_partition(truth)

    # The preference magnitude (the largest inter-bundle distance) towers
    # over within-bundle similarities here, a regime where light damping
    # oscillates; 0.9 is the standard remedy and converges quickly.
    result = affinity_propagation(matrix, damping=0.9)
    assert result.converged
    assert result.preference_value == pytest.approx(-matrix.values.max())
    ap_labels = result.assignment.labels
    assert result.assignment.k >= 3
    for c in range(result.assignment.k):
        members = truth[ap_labels == c]
        assert members.size > 0
        assert np.unique(members).size == 1  # never mixes bundles

    assert time.perf_counter() - start < 60.0


def test_criterion_curves_show_the_elbow_and_exact_limits(bundle_scene):
    """Within-like criterion is non-increasing over K=1..10 under ward,
    the relative drop into K=3 is at least twice the drop into K=4, the
    between-like criterion is exactly 0 at K=1, and the within-like
    criterion is exactly 0 at K=n."""
    _, _, matrix = bundle_scene
    dend = hca(matrix, linkage="ward")

    wc = {}
    for k in range(1, 11):
        res = criteria(cut(dend, k), matrix)
        wc[k] = res.wc
        if k == 1:
            assert res.bc == 0.0
    for k in range(1, 10):
        assert wc[k + 1] <= wc[k] + 1e-12

    drop_into_3 = (wc[2] - wc[3]) / wc[2]
    drop_into_4 = (wc[3] - wc[4]) / wc[3]
    assert drop_into_3 >= 2.0 * drop_into_4

    n = len(matrix)
    assert criteria(cut(dend, n), matrix).wc == 0.0


def test_exact_frechet_is_slowest_and_matrix_time_scales_quadratically():
    """Serial timings on 100 ten-point trajectories rank the exact
    Frechet distance strictly slowest of the six benchmarked distances,
    and the fitted wall-time exponent for DTW and SSPD matrices over
    n in {50, 100, 200} lies in [1.7, 2.3]."""
    report = run_bench(n=100, points=10, seed=0)
    serial = {name: row["serial"] for name, row in report["timings"].items()}
    assert len(serial) == 6
    slowest = max(serial, key=serial.get)
    assert slowest == "frechet"
    for name, t in serial.items():
        if name != "frechet":
            assert serial["frechet"] > t

    slopes = scaling_exponents(ns=(50, 100, 200), points=10, seed=0,
                               distances=("dtw", "sspd"), repeats=3)
    for name, slope in slopes.items():
        assert 1.7 <= slope <= 2.3, f"{name} scaling exponent {slope}"


def test_matrix_results_are_worker_invariant_and_roundtrip_bitwise(tmp_path):
    """compute_matrix with 8 workers is bit-identical to the serial run,
    and a binary save/load round trip reproduces ids, kind and every
    value exactly."""
    rng = np.random.default_rng(547)
    fleet = [walk_trajectory(rng, int(rng.integers(6, 10)), f"t{k}")
             for k in range(40)]
    serial = compute_matrix(fleet, "sspd", workers=1)
    parallel = compute_matrix(fleet, "sspd", workers=8)
    assert serial.ids == parallel.ids
    assert np.array_equal(serial.values, parallel.values)

    path = tmp_path / "matrix.trjd"
    save_matrix(serial, path)
    loaded = load_matrix(path)
    assert loaded.ids == serial.ids
    assert loaded.kind == serial.kind
    assert np.array_equal(loaded.values, serial.values)
