import math

import numpy as np
import pytest

from trajkit import (Trajectory, discrete_frechet, dlcss, dtw, edr, erp, frechet, frechet_candidates,
                     frechet_feasible, geometry, hausdorff, lcss, matrix, owd, project_wgs84, sowd,
                     spd, sspd)
from trajkit.geometry import (as_points, carrier_distances, distinct, segment_distances,
                              segment_lengths)
from trajkit.shape import owd_samples, sowd_batch
from trajkit.sspd import sspd_batch
from trajkit.warping import PointStore

from conftest import smooth_walk
from oracles import sample_point_to_polyline_fast


class TestTrajectory:
    def test_basic_construction(self):
        t = Trajectory(id="t1", points=[(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
        assert len(t) == 3
        assert t.points.dtype == np.float64

    def test_points_are_read_only(self):
        t = Trajectory(id="t", points=[(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises((ValueError, RuntimeError)):
            t.points[0, 0] = 5.0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            Trajectory(id="t", points=[(0.0, 0.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(id="t", points=[(0.0, 0.0), (np.nan, 1.0)])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Trajectory(id="t", points=[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])

    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(id="t", points=[(0.0, 0.0), (1.0, 0.0)],
                       timestamps=[3.0, 3.0])

    def test_timestamps_length_must_match(self):
        with pytest.raises(ValueError, match="timestamps"):
            Trajectory(id="t", points=[(0.0, 0.0), (1.0, 0.0)],
                       timestamps=[0.0, 1.0, 2.0])

    def test_timestamps_must_be_finite(self):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            Trajectory(id="t", points=[(0.0, 0.0), (1.0, 0.0)], timestamps=[0.0, np.nan])

    def test_length_is_rigid_motion_invariant(self):
        rng = np.random.default_rng(7)
        pts = smooth_walk(rng, 12)
        theta = 1.234
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = pts @ rot.T + np.array([17.0, -4.0])
        t1 = Trajectory(id="a", points=pts)
        t2 = Trajectory(id="b", points=moved)
        assert segment_lengths(t1.points).sum() == pytest.approx(segment_lengths(t2.points).sum(),
                                                                rel=1e-12)


class TestAsPoints:
    def test_accepts_trajectory(self):
        t = Trajectory(id="t", points=[(0.0, 0.0), (1.0, 0.0)])
        assert as_points(t) is t.points

    def test_accepts_empty(self):
        pts = as_points([])
        assert pts.shape == (0, 2)

    @pytest.mark.parametrize("point", [[(2.0, 3.0)], (2.0, 3.0)], ids=["list-of-one", "bare-pair"])
    def test_accepts_single_point(self, point):
        pts = as_points(point)
        assert pts.shape == (1, 2) and pts.tolist() == [[2.0, 3.0]]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="points must be finite"):
            as_points([(0.0, 0.0), (value, 1.0)])
        with pytest.raises(ValueError, match="points must be finite"):
            as_points((0.0, value))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            as_points([(1.0, 2.0, 3.0)])


class TestSegmentLengths:
    def test_lengths_of_each_segment(self):
        assert segment_lengths(np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])).tolist() == [3.0, 4.0]
        assert segment_lengths(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])).sum() == 3.0
        assert segment_lengths(np.array([(2.0, 5.0), (2.0, 5.0)])).tolist() == [0.0]


def point_to_segment(p, start, end) -> float:
    return segment_distances(np.array([p]), np.array([start]), np.array([end]))[0, 0]


class TestPointToSegment:
    """segment_distances on one point and one segment."""

    def test_projection_inside(self):
        assert point_to_segment((0.0, 2.0), (-1.0, 0.0), (2.0, 0.0)) == 2.0

    def test_clamps_to_endpoint(self):
        d = point_to_segment((3.0, 1.0), (0.0, 0.0), (2.0, 0.0))
        assert d == pytest.approx(math.sqrt(2.0))

    def test_zero_length_segment(self):
        d = point_to_segment((3.0, 4.0), (0.0, 0.0), (0.0, 0.0))
        assert d == 5.0

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.uniform(-5, 5, 2)
            a, b = rng.uniform(-5, 5, (2, 2))
            got = point_to_segment(p, a, b)
            want = sample_point_to_polyline_fast(p, np.array([a, b]))
            assert got == pytest.approx(want, abs=1e-12)


class TestPointToTrajectory:
    """carrier_distances: each point against whole polylines."""

    def test_simple(self):
        t = Trajectory(id="t", points=[(0.0, 0.0), (2.0, 0.0)])
        got = carrier_distances(np.array([(1.0, 1.0), (3.0, 0.0), (0.5, 0.0)]), t.points, [0, 2])
        assert got.tolist() == [[1.0], [1.0], [0.0]]

    def test_matches_reference_on_random_walks(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pts = smooth_walk(rng, 8)
            ps = rng.uniform(-2, 12, (4, 2))
            got = carrier_distances(ps, pts, [0, len(pts)])[:, 0]
            for p, d in zip(ps, got):
                assert d == pytest.approx(sample_point_to_polyline_fast(p, pts), abs=1e-12)

    def test_polylines_end_to_end_are_measured_apart(self):
        # The segment that bridges two polylines is no part of either.
        xy = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (6.0, 5.0), (6.0, 6.0)])
        got = carrier_distances(np.array([(3.0, 2.5), (6.0, 5.5)]), xy, [0, 2, 5])
        want = [[sample_point_to_polyline_fast(p, xy[a:b]) for a, b in ((0, 2), (2, 5))]
                for p in ((3.0, 2.5), (6.0, 5.5))]
        assert got == pytest.approx(np.array(want), abs=1e-12)
        assert got[0, 0] > 3.0  # the bridge passes through (3.0, 2.5)


class TestCarrierPairs:
    @pytest.mark.filterwarnings("error")
    def test_a_far_walk_packed_between_two_near_ones_changes_no_other_pair(self):
        # The bridges to and from the far walk are too long to square; they
        # are no part of any carrier, and the near pair's tile spans them.
        a, b = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)], [(0.0, 1.0), (1.0, 1.2), (2.0, 1.0), (3.0, 1.0)]
        store = PointStore.pack([a, [(1e200, 0.0), (1e200, 1.0)], b])
        got = sspd_batch(store, np.array([0, 0, 1]), np.array([1, 2, 2]))
        assert got[1] == sspd(a, b)
        assert not np.isfinite(got[[0, 2]]).any()

    @pytest.mark.parametrize("n, size", [(64, 2016), (200, 4096), (200, 1243)],
                             ids=["triangle", "serial-ranges", "pool-ranges"])
    @pytest.mark.parametrize("name", ["sspd", "sowd"])
    def test_tiles_measure_few_more_cells_than_the_pairs_need(self, name, n, size, monkeypatch):
        # A pair needs each walk's points against the other's carrier. Tiles
        # of consecutive walks with the same span of carriers measure each
        # walk against its own carrier too, and little else.
        rng = np.random.default_rng(n)
        store = PointStore.pack([smooth_walk(rng, int(rng.integers(8, 24))) for _ in range(n)])
        samples = owd_samples(store, 1.0)
        batch, measured = {"sspd": (sspd_batch, store),
                           "sowd": (lambda *pair: sowd_batch(*pair, samples), samples.points)}[name]
        cells = []

        def counted(points, xy, bounds):
            cells.append(len(points) * (len(bounds) - 1))
            return np.zeros((len(points), len(bounds) - 1))

        monkeypatch.setattr(geometry, "carrier_distances", counted)
        npairs, need = n * (n - 1) // 2, 0
        for start in range(0, npairs, size):
            ia, ib = matrix._pair_indices(n, start, min(start + size, npairs))
            batch(store, ia, ib)
            need += int((measured.lengths(ia) + measured.lengths(ib)).sum())
        assert need <= sum(cells) <= 1.05 * need


@pytest.mark.parametrize("values", [
    np.random.default_rng(5).integers(-20, 20, 300),
    np.random.default_rng(6).integers(0, 4, 50).astype(np.float64) / 3.0,
    np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 1.5]),
    np.array([-0.0, 0.0, 0.0]),
    np.array([], dtype=np.int64),
], ids=["ints", "float-repeats", "signed-zeros", "minus-zero-first", "empty"])
def test_distinct_gives_the_bits_of_np_unique(values):
    got, want = distinct(values), np.unique(values)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


class TestSegmentDistances:
    def test_matrix_matches_scalar_kernel(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-3, 3, (6, 2))
        starts = rng.uniform(-3, 3, (5, 2))
        ends = rng.uniform(-3, 3, (5, 2))
        ends[2] = starts[2]  # include a degenerate segment
        mat = segment_distances(pts, starts, ends)
        assert mat.shape == (6, 5)
        for i in range(6):
            for j in range(5):
                want = sample_point_to_polyline_fast(pts[i], np.array([starts[j], ends[j]]))
                assert mat[i, j] == pytest.approx(want, abs=1e-12)


class TestProjection:
    def test_one_degree_of_latitude(self):
        x, y = project_wgs84(1.0, 0.0, origin_lat=0.0, origin_lon=0.0)
        assert x == 0.0
        assert y == pytest.approx(111194.9, abs=0.5)

    def test_longitude_shrinks_with_latitude(self):
        _, y0 = project_wgs84(60.0, 0.0, origin_lat=60.0, origin_lon=0.0)
        x60, _ = project_wgs84(60.0, 1.0, origin_lat=60.0, origin_lon=0.0)
        x0, _ = project_wgs84(0.0, 1.0, origin_lat=0.0, origin_lon=0.0)
        assert y0 == 0.0
        assert x60 == pytest.approx(x0 * math.cos(math.radians(60.0)), rel=1e-12)

    def test_vectorised_input(self):
        lat = np.array([48.85, 48.86])
        lon = np.array([2.35, 2.36])
        x, y = project_wgs84(lat, lon, origin_lat=48.85, origin_lon=2.35)
        assert x.shape == (2,)
        assert x[0] == 0.0 and y[0] == 0.0
        assert x[1] > 0 and y[1] > 0


#: Every single-pair call, with the arguments after the two sequences.
SINGLE_PAIR_CALLS = [(dtw, ()), (discrete_frechet, ()), (hausdorff, ()), (sspd, ()), (spd, ()),
                     (erp, ((0.0, 0.0),)), (dlcss, (1.0,)), (edr, (1.0,)), (lcss, (1.0,)),
                     (frechet, ()), (owd, ()), (sowd, ()), (frechet_feasible, (1.0,)),
                     (frechet_candidates, ())]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call, args", SINGLE_PAIR_CALLS, ids=[c.__name__ for c, _ in SINGLE_PAIR_CALLS])
def test_every_single_pair_call_needs_finite_points(call, args, value):
    good = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    bad = [[0.0, 0.0], [value, 1.0], [2.0, 2.0]]
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="points must be finite"):
            call(a, b, *args)
