import numpy as np
import pytest

from trajkit import hausdorff, spd, sspd

from conftest import walk_pairs


class TestSpd:
    def test_sub_trajectory_gives_zero(self):
        whole = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]
        part = [(1.0, 0.0), (3.0, 0.0)]
        assert spd(part, whole) == 0.0

    def test_parallel_segments(self):
        assert spd([(0.0, 0.0), (2.0, 0.0)], [(0.0, 1.0), (2.0, 1.0)]) == 1.0

    def test_vertex_mean(self):
        t1 = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]
        t2 = [(0.0, 1.0), (2.0, 1.0)]
        assert spd(t1, t2) == pytest.approx(1.0)

    def test_is_directional(self):
        part = [(1.0, 0.0), (3.0, 0.0)]
        whole = [(0.0, 0.0), (8.0, 0.0), (8.0, 6.0)]
        assert spd(part, whole) == 0.0
        assert spd(whole, part) > 1.0

    def test_rejects_short_target(self):
        with pytest.raises(ValueError, match="at least 2"):
            spd([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)])

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError, match="spd: first trajectory is empty"):
            spd(np.empty((0, 2)), [(0.0, 0.0), (1.0, 0.0)])


class TestSspd:
    def test_identical_inputs_give_zero(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)]
        assert sspd(pts, pts) == 0.0

    def test_parallel_segments(self):
        assert sspd([(0.0, 0.0), (2.0, 0.0)], [(0.0, 1.0), (2.0, 1.0)]) == 1.0

    def test_sub_trajectory_halves_the_residual(self):
        part = [(1.0, 0.0), (3.0, 0.0)]
        whole = [(0.0, 0.0), (8.0, 0.0), (8.0, 6.0)]
        assert sspd(part, whole) == pytest.approx(0.5 * spd(whole, part), rel=1e-12)

    def test_symmetry(self):
        for a, b in walk_pairs(127, 200):
            assert sspd(a, b) == pytest.approx(sspd(b, a), rel=1e-12)

    def test_never_above_hausdorff(self):
        # the mean of vertex distances cannot exceed their maximum
        for a, b in walk_pairs(131, 100):
            assert sspd(a, b) <= hausdorff(a, b) + 1e-12

    def test_triangle_inequality_counterexample(self):
        # Two short stubs at the ends of one long trajectory: each stub is
        # close to the long carrier, but far from the other stub.
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 0.0), (11.0, 0.0)]
        c = [(10.0, 0.0), (11.0, 0.0)]
        assert sspd(a, b) == pytest.approx(2.5)
        assert sspd(b, c) == pytest.approx(2.5)
        assert sspd(a, c) == pytest.approx(9.5)
        assert sspd(a, c) > sspd(a, b) + sspd(b, c)
