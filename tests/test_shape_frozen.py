"""The continuous Frechet, OWD, SPD and Hausdorff kernels against frozen
copies of the numpy-indexed free-space decision and candidate search, the
per-segment owd loop and the unblocked point-to-carrier calls they
replaced; and the batch kernels of frechet, sspd, hausdorff and sowd, and
their matrix entries, against the same frozen copies, frechet against the
exact critical-value sweep over the frozen decision."""

import tracemalloc

import numpy as np
import pytest

from trajkit import (DistanceSpec, Trajectory, compute_matrix, discrete_frechet, frechet,
                     frechet_feasible, geometry, hausdorff, matrix, owd, shape, sowd, spd, sspd)
from trajkit.shape import (frechet_batch, frechet_candidates, hausdorff_batch, owd_samples,
                           sowd_batch)
from trajkit.sspd import sspd_batch
from trajkit.warping import PointStore

from conftest import smooth_walk, walk_trajectory
from oracles import (FrozenFreeSpace, exact_frechet, frozen_frechet, frozen_hausdorff, frozen_owd,
                     frozen_sowd, frozen_spd, frozen_sspd)


def walks(seed: int, count: int, span: float = 4.0) -> list[np.ndarray]:
    """Walks of 2 to 30 points; every third one lies on a coarse grid, so
    that vertices repeat, segments have zero length and cells tie."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        pts = smooth_walk(rng, 2 + k % 29, span=span)
        out.append(np.round(pts) if k % 3 == 0 else pts)
    return out


def positive_length(pts: np.ndarray) -> bool:
    return bool(np.any(pts[1:] != pts[:-1]))


SEGMENT = np.array([(0.0, 0.0), (1.0, 0.0)])
DEGENERATE = [
    (SEGMENT, SEGMENT),                                             # curve against itself
    (SEGMENT, SEGMENT[::-1]),                                       # reversed
    (np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),    # repeated vertex
     np.array([(0.0, 1.0), (0.0, 1.0), (2.0, 1.0)])),
    (np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]),    # collinear, both ways
     np.array([(3.0, 0.0), (1.5, 0.0), (0.0, 0.0)])),
    (np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0)]),    # backtracking on one line
     np.array([(0.0, 0.0), (3.0, 0.0)])),
    (np.array([(0.0, 0.0), (4.0, 0.0)]),                            # a tent off the candidate grid
     np.array([(0.0, 1.0), (2.0, 2.0), (4.0, 1.0)])),
    (np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),                # zero-length first segment
     np.array([(1.0, 1.0), (0.0, 0.0), (0.0, 0.0)])),
]
ZERO_LENGTH = np.array([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])


def pairs(seed: int, count: int):
    seqs = walks(seed, count)
    return [(a, b) for a in seqs for b in seqs[::5]] + DEGENERATE + [(b, a) for a, b in DEGENERATE]


def test_frechet_is_the_exact_value_and_runs_only_frozen_decisions(monkeypatch):
    # The value is the exact oracle's and within 1e-12 relative of the
    # frozen search's bisection; every decision that runs agrees with the
    # frozen one, and no pair runs more of them than the frozen search.
    probes = []
    feasible = shape._FreeSpace.feasible
    monkeypatch.setattr(shape._FreeSpace, "feasible",
                        lambda fs, eps: probes.append((eps, feasible(fs, eps))) or probes[-1][1])
    counts = []
    for a, b in pairs(131, 30):
        frozen = FrozenFreeSpace(a, b)
        probes.clear()
        d = frechet(a, b)
        assert d == exact_frechet(a, b)
        want = frozen_frechet(a, b, frozen)
        assert abs(d - want) <= 1e-12 * want
        assert len(probes) <= frozen.probes
        assert all(ok is frozen.feasible(eps) for eps, ok in probes)
        counts.append(len(probes))
    assert np.mean(counts) <= 8


def per_pair_bound(a: np.ndarray, b: np.ndarray) -> float:
    """The lower bound from one pair's own free space: its endpoint and
    vertex-to-segment distances."""
    fs = shape._FreeSpace(a, b)
    dv, dh = fs.near()
    return max(fs.d_start, fs.d_end, float(dv.min(axis=1).max()), float(dh.min(axis=1).max()))


def bound_pairs():
    return pairs(131, 30) + [(a, b) for a, b, _ in overlapping_pairs()]


def test_the_packed_lower_bounds_are_the_per_pair_bounds_bit_for_bit():
    # One carrier pass over all pairs, in tiles of many walks' vertices
    # against many carriers, against each pair's own free space: the bounds
    # are the same maxima of the same squares. The triangle of distinct
    # walks puts several walks in a tile; the paired layout puts one.
    both = bound_pairs()
    want = np.array([per_pair_bound(a, b) for a, b in both])
    store = PointStore.pack([a for a, _ in both] + [b for _, b in both])
    ia = np.arange(len(both))
    got = np.array(shape._lower_bounds(store, ia, ia + len(both)))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    seqs = walks(131, 30) + [x for pair in DEGENERATE for x in pair]
    ia, ib = np.triu_indices(len(seqs), 1)
    want = np.array([per_pair_bound(seqs[i], seqs[j]) for i, j in zip(ia, ib)])
    got = np.array(shape._lower_bounds(PointStore.pack(seqs), ia, ib))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_free_space_is_built_only_where_the_bounds_differ(monkeypatch):
    # A pair whose discrete Frechet distance is at most its lower bound has
    # that distance, with no free space, no near() and no decision.
    both = bound_pairs()
    differ = [discrete_frechet(a, b) > per_pair_bound(a, b) for a, b in both]
    built = []
    free_space = shape._FreeSpace

    def counted(p, q):
        built.append((p.tobytes(), q.tobytes()))
        return free_space(p, q)

    monkeypatch.setattr(shape, "_FreeSpace", counted)
    store = PointStore.pack([a for a, _ in both] + [b for _, b in both])
    ia = np.arange(len(both))
    frechet_batch(store, ia, ia + len(both))
    assert 0 < sum(differ) < len(both)
    assert built == [(a.tobytes(), b.tobytes()) for (a, b), d in zip(both, differ) if d]


def test_frechet_of_near_identical_walks_is_at_most_the_discrete_value():
    # Walks 1e-9 apart lie closer than the free space resolves; the
    # discrete Frechet distance still bounds the value from above.
    rng = np.random.default_rng(7)
    for k in range(300):
        a = smooth_walk(rng, 2 + k % 29)
        b = a + rng.normal(0.0, 1e-9, a.shape)
        assert frechet(a, b) <= discrete_frechet(a, b)


def overlapping_pairs():
    """Walks along each other, sampled differently, offset by 1e-2 to 1e-7
    of a segment's length: a segment of length 10 against a three-point
    walk beside it, turned and shifted, with the offset as its value; and
    smooth walks against a copy with every segment halved, shifted."""
    out = []
    rng = np.random.default_rng(173)
    for rel in 10.0 ** -np.arange(2, 8):
        h = 10.0 * rel
        for turn, shift in [(0.0, (0.0, 0.0)), (0.3, (1.0, 2.0)), (1.1, (-3.0, 7.5)),
                            (2.0, (100.0, -50.0))]:
            rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
            a = np.array([(0.0, 0.0), (10.0, 0.0)]) @ rot.T + shift
            b = np.array([(0.0, h), (5.0, h), (10.0, h)]) @ rot.T + shift
            out.append((a, b, h))
        a = smooth_walk(rng, 8)
        halves = np.insert(a, np.arange(1, len(a)), 0.5 * (a[:-1] + a[1:]), axis=0)
        out.append((a, halves + rel * rng.normal(size=2), None))
    return out


def test_frechet_of_nearly_overlapping_walks_is_the_decisions_switch():
    # Where a vertex lies within about 1e-2 of a segment's length from it,
    # the decision's disc cancels and its switch leaves the critical values
    # by more than its 1e-12 inflation. The value is then the switch, as
    # the frozen bisection finds it, and not the next critical value: for
    # the segment against the three-point walk, that is about 2.5.
    for a, b, h in overlapping_pairs():
        frozen = FrozenFreeSpace(a, b)
        want = frozen_frechet(a, b, frozen)
        d = frechet(a, b)
        assert d == exact_frechet(a, b)
        assert frozen.feasible(d) and not frozen.feasible(d * (1.0 - 3e-12))
        # The frozen bisection stops within 1e-12 of its bracket's top.
        assert abs(d - want) <= 1e-12 * (want + frozen.candidates().max())
        if h is not None:
            assert abs(d - h) <= 1e-2 * h


def test_feasibility_is_monotone_in_the_radius():
    # What the binary search relies on: along a sorted sweep through every
    # radius where the decision can switch, it never goes from True back to False.
    for a, b in pairs(137, 15):
        fs = shape._FreeSpace(a, b)
        crit = fs.critical_values(0.0, np.inf)
        radii = np.concatenate([FrozenFreeSpace(a, b).candidates(), crit, [frechet(a, b)]])
        switch = crit / (1.0 + 1e-12)
        radii = np.concatenate([radii, np.nextafter(radii, -np.inf), np.nextafter(radii, np.inf),
                                switch * (1.0 - 1e-14), switch * (1.0 + 1e-14)])
        decisions = [fs.feasible(eps) for eps in np.unique(radii).tolist()]
        assert decisions == sorted(decisions)


@pytest.mark.parametrize("band", [1, 7, shape._BAND])
def test_feasibility_equals_the_frozen_decision_at_candidate_values(band, monkeypatch):
    # Radii exactly at the old per-cell candidates and at the critical
    # values frechet searches, at the answer and one ulp either side of
    # each, and a sweep of 41 radii: the radius inflation and every
    # interval edge are exercised. NaN, which the frozen decision read as
    # infeasible, is refused. The decision computes its intervals in bands
    # of one row, of rows that split the diagram unevenly, and whole.
    monkeypatch.setattr(shape, "_BAND", band)
    for a, b in pairs(137, 15):
        frozen = FrozenFreeSpace(a, b)
        d = frechet(a, b)
        radii = [*frozen.candidates().tolist(), *frechet_candidates(a, b).tolist(),
                 d, 0.5 * d, 2.0 * d, -1.0, 0.0]
        radii += [np.nextafter(r, s) for r in radii[:-2] for s in (-np.inf, np.inf)]
        radii += np.linspace(0.0, 1.5 * d + 0.1, 41).tolist()
        for eps in radii:
            assert frechet_feasible(a, b, eps) is frozen.feasible(float(eps))
        with pytest.raises(ValueError, match="^frechet_feasible: eps must be a number, got nan$"):
            frechet_feasible(a, b, np.nan)


@pytest.mark.parametrize("cells", [1, 7 * 30, geometry._BLOCK])
def test_coefficients_equal_the_frozen_arrays_in_bands_of_any_size(cells, monkeypatch):
    # Bands of one row, of 7 rows against a 30-point walk, and the default,
    # which holds these short walks whole and splits the 400 x 250 pair.
    # Walks that start at one point, the second heading down and left, give
    # vb[0, 0] = 0 * -1 + 0 * -2, a -0.0 where einsum's sum is +0.0.
    monkeypatch.setattr(geometry, "_BLOCK", cells)
    rng = np.random.default_rng(175)
    shared = (np.array([(0.0, 0.0), (1.0, 1.0)]), np.array([(0.0, 0.0), (-1.0, -2.0)]))
    for a, b in pairs(137, 15) + [shared, (smooth_walk(rng, 400), smooth_walk(rng, 250))]:
        fs, frozen = shape._FreeSpace(a, b), FrozenFreeSpace(a, b)
        for name in ("qa", "pa", "vb", "vc", "hb", "hc"):
            assert getattr(fs, name).tobytes() == getattr(frozen, name).tobytes(), name


def test_critical_values_are_the_same_in_blocks_of_any_size(monkeypatch):
    spaces = [shape._FreeSpace(a, b) for a, b in pairs(137, 15)]
    whole = [fs.critical_values(0.0, np.inf) for fs in spaces]
    for block in (1, 100):
        monkeypatch.setattr(geometry, "_BLOCK", block)
        for fs, want in zip(spaces, whole):
            assert np.array_equal(fs.critical_values(0.0, np.inf), want)


@pytest.mark.parametrize("density", [0.37, 1.0, 4.0])
def test_owd_and_sowd_equal_the_frozen_loop(density):
    for a, b in pairs(149, 30):
        if positive_length(a) and positive_length(b):
            assert owd(a, b, density) == frozen_owd(a, b, density)
            assert sowd(a, b, density) == frozen_sowd(a, b, density)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_owd_equals_the_frozen_loop_at_any_block_size(block, monkeypatch):
    # owd, spd, sspd and hausdorff share geometry.carrier_pairs and its block.
    monkeypatch.setattr(geometry, "_BLOCK", block)
    for a, b in pairs(151, 12):
        assert spd(a, b) == frozen_spd(a, b)
        assert sspd(a, b) == frozen_sspd(a, b)
        assert hausdorff(a, b) == frozen_hausdorff(a, b)
        if positive_length(a) and positive_length(b):
            assert owd(a, b, 2.5) == frozen_owd(a, b, 2.5)


@pytest.mark.parametrize("kernel", [sspd, hausdorff])
def test_carrier_kernels_hold_bounded_memory(kernel):
    # One unblocked call would hold (2000, 1999, 2) float64 temporaries, about 61 MiB each.
    rng = np.random.default_rng(155)
    a, b = smooth_walk(rng, 2000), smooth_walk(rng, 2000)
    tracemalloc.start()
    try:
        kernel(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_decision_holds_two_rows_of_reachable_intervals():
    # It holds the boundary intervals of one band of about _BAND cells and
    # the reachable intervals of two rows; tables of every boundary's
    # interval would hold some 80,000 tuples, about 3.6 MiB.
    rng = np.random.default_rng(171)
    a, b = smooth_walk(rng, 200), smooth_walk(rng, 200)
    space, eps = shape._FreeSpace(a, b), frechet(a, b)
    tracemalloc.start()
    try:
        feasible = space.feasible(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible and peak < 2**20


def test_a_pair_holds_its_free_space_coefficients_once():
    # Four coefficient arrays of about 0.7 MiB each; Python-list copies of
    # them would add some 11 MiB.
    rng = np.random.default_rng(173)
    a, b = smooth_walk(rng, 300), smooth_walk(rng, 300)
    eps = discrete_frechet(a, b)
    tracemalloc.start()
    try:
        feasible = shape._FreeSpace(a, b).feasible(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible and peak < 8 * 2**20


def test_free_space_of_long_walks_is_built_in_bounded_memory():
    # The coefficients of two 1000-point walks take 30.5 MiB; the whole
    # (n, m-1, 2) differences would add 15 MiB each.
    rng = np.random.default_rng(177)
    a, b = smooth_walk(rng, 1000), smooth_walk(rng, 1000)
    tracemalloc.start()
    try:
        shape._FreeSpace(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_owd_equals_the_frozen_loop_on_long_dense_segments():
    # Some 74,000 samples against 11 segments: 13 blocks.
    rng = np.random.default_rng(157)
    a, b = smooth_walk(rng, 5, step=(15.0, 25.0)), smooth_walk(rng, 12)
    assert owd(a, b, 1000.0) == frozen_owd(a, b, 1000.0)
    assert owd(b, a, 1000.0) == frozen_owd(b, a, 1000.0)


def test_owd_rejects_zero_length_input_like_the_frozen_loop():
    for a, b in ((ZERO_LENGTH, SEGMENT), (SEGMENT, ZERO_LENGTH)):
        with pytest.raises(ValueError, match="zero length"):
            owd(a, b)
        with pytest.raises(ValueError, match="zero length"):
            frozen_owd(a, b)


@pytest.mark.parametrize("name, frozen", [("frechet", exact_frechet), ("sowd", frozen_sowd),
                                         ("sspd", frozen_sspd), ("hausdorff", frozen_hausdorff)])
def test_matrix_entries_equal_the_frozen_kernels_at_any_worker_count(name, frozen):
    rng = np.random.default_rng(163)
    fleet = [walk_trajectory(rng, 2 + 3 * k, f"s{k}") for k in range(10)]
    serial = compute_matrix(fleet, DistanceSpec(name))
    for workers in (2, 4):
        assert compute_matrix(fleet, name, workers=workers).values.tobytes() == serial.values.tobytes()
    for i, j in zip(*np.triu_indices(len(fleet), 1)):
        assert serial.values[i, j] == frozen(fleet[i].points, fleet[j].points)
        if name == "frechet":
            want = frozen_frechet(fleet[i].points, fleet[j].points)
            assert abs(serial.values[i, j] - want) <= 1e-12 * want


def batch_fleet() -> list[np.ndarray]:
    """Six walks of 6 points, so that the rows among them are of equal
    length, then walks of 2 to 9 points; some repeat a vertex."""
    rng = np.random.default_rng(167)
    fleet = [smooth_walk(rng, 6) for _ in range(6)] + [smooth_walk(rng, 2 + k % 8) for k in range(10)]
    for k in (1, 7, 12):
        fleet[k] = np.insert(fleet[k], 1, fleet[k][1], axis=0)
    fleet[9] = np.array([(3.0, 3.0), (3.0, 3.0), (4.0, 3.0)])
    return fleet


BATCHES = [
    ("frechet", frechet_batch, exact_frechet),
    ("sspd", sspd_batch, frozen_sspd),
    ("hausdorff", hausdorff_batch, frozen_hausdorff),
    ("sowd", lambda store, ia, ib: sowd_batch(store, ia, ib, owd_samples(store, 1.7)),
     lambda a, b: frozen_sowd(a, b, 1.7)),
]


@pytest.mark.parametrize("block", [1, 7, 100, 1 << 16])
@pytest.mark.parametrize("name, batch, frozen", BATCHES, ids=[b[0] for b in BATCHES])
def test_batch_kernels_equal_the_frozen_kernels_on_any_flat_range(name, batch, frozen, block,
                                                                 monkeypatch):
    # Ranges that start and end mid-row, whole rows, single pairs and the
    # whole triangle, pairs on or below the diagonal, and a range's pairs
    # shuffled with one repeated; the default block puts many walks in one
    # tile.
    monkeypatch.setattr(geometry, "_BLOCK", block)
    fleet = batch_fleet()
    store = PointStore.pack(fleet)
    n = len(fleet)
    npairs = n * (n - 1) // 2
    ranges = [matrix._pair_indices(n, start, end)
              for start, end in [(0, npairs), (3, 40), (12, 13), (15, 85), (29, 57), (npairs - 4, npairs)]]
    lower = (np.array([5, 5, 9, 2, 3, 4]), np.array([5, 0, 1, 2, 2, 2]))  # j <= i: not in a matrix
    shuffled = np.random.default_rng(173).permutation(np.append(np.arange(15, 85), 40))  # 40 twice
    for ia, ib in ranges + [lower, (ranges[0][0][shuffled], ranges[0][1][shuffled])]:
        got = batch(store, ia, ib)
        for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
            assert got[k] == frozen(fleet[i], fleet[j]), (name, block, i, j)
            if name == "frechet":
                want = frozen_frechet(fleet[i], fleet[j])
                assert abs(got[k] - want) <= 1e-12 * want, (block, i, j)


@pytest.mark.parametrize("name", ["sspd", "hausdorff", "sowd"])
def test_carrier_matrices_hold_bounded_memory(name):
    # Three 2000-point walks: a sowd walk has some 16,000 samples.
    rng = np.random.default_rng(169)
    fleet = [Trajectory(f"w{k}", smooth_walk(rng, 2000)) for k in range(3)]
    tracemalloc.start()
    try:
        compute_matrix(fleet, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
