import math
import re
import tracemalloc

import numpy as np
import pytest

from trajkit import (discrete_frechet, frechet, frechet_feasible, hausdorff,
                     owd, shape, sowd)
from trajkit.shape import frechet_candidates

from conftest import smooth_walk, walk_pairs, walk_triples
from oracles import (dense_owd, enum_discrete_frechet, resampled_frechet,
                     sample_carrier_hausdorff, sample_hausdorff)

L_SHAPE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]
RAILS = ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])  # Frechet distance 1


class TestHausdorff:
    def test_offset_segments(self):
        a = [(0.0, 0.0), (4.0, 0.0)]
        b = [(0.0, 3.0), (4.0, 3.0)]
        assert hausdorff(a, b) == 3.0

    def test_identical_inputs_give_zero(self):
        assert hausdorff(L_SHAPE, L_SHAPE) == 0.0

    def test_is_blind_to_direction(self):
        a = [(0.0, 0.0), (4.0, 0.0)]
        assert hausdorff(a, a[::-1]) == 0.0

    def test_apex_dominates(self):
        a = [(0.0, 0.0), (2.0, 0.0)]
        b = [(0.0, 0.0), (1.0, 3.0), (2.0, 0.0)]
        assert hausdorff(a, b) == 3.0

    def test_symmetry(self):
        for a, b in walk_pairs(67, 100):
            assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), rel=1e-12)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            hausdorff([(0.0, 0.0)], L_SHAPE)

    def test_is_measured_from_the_vertices(self):
        # A triangle's corners in two orders: every vertex lies on the other
        # polyline, yet the carriers' edges are 5/sqrt(2) apart.
        a = [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]
        b = [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]
        assert hausdorff(a, b) == sample_hausdorff(a, b, per_segment=400) == 0.0
        assert sample_carrier_hausdorff(a, b) == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-2)

    def test_matches_dense_sampling_reference(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            a = smooth_walk(rng, 5)
            b = smooth_walk(rng, 6)
            assert hausdorff(a, b) == pytest.approx(
                sample_hausdorff(a, b, per_segment=4000), abs=2e-3)


class TestDiscreteFrechet:
    def test_offset_segments(self):
        a = [(0.0, 0.0), (4.0, 0.0)]
        b = [(0.0, 1.0), (4.0, 1.0)]
        assert discrete_frechet(a, b) == 1.0

    def test_extra_collinear_point_is_free_until_it_is_not(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert discrete_frechet(a, b) == 1.0

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            a = rng.integers(0, 4, (int(rng.integers(2, 6)), 2)).astype(float)
            b = rng.integers(0, 4, (int(rng.integers(2, 6)), 2)).astype(float)
            assert discrete_frechet(a, b) == enum_discrete_frechet(a, b)

    def test_symmetry(self):
        for a, b in walk_pairs(79, 100):
            assert discrete_frechet(a, b) == pytest.approx(
                discrete_frechet(b, a), rel=1e-12)

    def test_never_below_continuous_value(self):
        for a, b in walk_pairs(83, 50):
            assert discrete_frechet(a, b) >= frechet(a, b) - 1e-9


class TestFrechet:
    def test_identical_inputs_give_zero(self):
        assert frechet(L_SHAPE, L_SHAPE) == 0.0

    def test_parallel_segments(self):
        assert frechet([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)]) == 1.0

    def test_reversed_segment_needs_full_sweep(self):
        # Against its own reversal the leash must pass through the middle,
        # where both walkers meet: the value is the full segment length,
        # not the endpoint-to-carrier distance (which is 0 here).
        a = [(0.0, 0.0), (1.0, 0.0)]
        assert frechet(a, a[::-1]) == pytest.approx(1.0, abs=1e-9)
        assert hausdorff(a, a[::-1]) == 0.0

    def test_detour_value_off_candidate_grid(self):
        # A tent against a flat segment: the optimum, 2.0, is the apex's
        # distance to the segment. The old per-cell candidates {1, 2*sqrt(2)}
        # missed it and a bisection gave 1.9999999999994118; it is a
        # critical value, and the search returns it exactly.
        a = [(0.0, 0.0), (4.0, 0.0)]
        b = [(0.0, 1.0), (2.0, 2.0), (4.0, 1.0)]
        assert 2.0 in frechet_candidates(a, b).tolist()
        assert frechet(a, b) == 2.0

    def test_feasibility_brackets_the_value(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        assert not frechet_feasible(a, b, 0.999)
        assert frechet_feasible(a, b, 1.001)

    def test_feasibility_is_monotone_in_eps(self):
        for a, b in walk_pairs(89, 20):
            d = frechet(a, b)
            assert not frechet_feasible(a, b, 0.95 * d - 1e-9)
            assert frechet_feasible(a, b, 1.05 * d + 1e-9)

    @pytest.mark.parametrize("eps", [True, "2", None, np.nan, 10 ** 400],
                             ids=["bool", "str", "None", "nan", "past-float"])
    def test_feasibility_takes_a_number(self, eps):
        message = f"^frechet_feasible: eps must be a number, got {re.escape(repr(eps))}$"
        with pytest.raises(ValueError, match=message):
            frechet_feasible(*RAILS, eps)

    @pytest.mark.parametrize("eps, within", [(-1.0, False), (0, False), (0.5, False), (2, True),
                                             (np.float32(2.0), True), (np.inf, True)])
    def test_feasibility_at_any_real_radius(self, eps, within):
        assert frechet_feasible(*RAILS, eps) is within

    def test_at_least_hausdorff(self):
        for a, b in walk_pairs(97, 100):
            assert frechet(a, b) >= hausdorff(a, b) - 1e-9

    def test_symmetry(self):
        for a, b in walk_pairs(101, 50):
            assert frechet(a, b) == pytest.approx(frechet(b, a), rel=1e-9)

    def test_matches_dense_reparametrization_reference(self):
        # Discrete matching over fine arc-length resamplings converges to
        # the continuous value from above as the spacing shrinks.
        for k, (a, b) in enumerate(walk_pairs(103, 12)):
            approx = resampled_frechet(a.points, b.points, spacing=0.01)
            exact = frechet(a, b)
            assert exact <= approx + 1e-9
            assert exact == pytest.approx(approx, abs=0.02)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            frechet([(0.0, 0.0)], L_SHAPE)


class TestOwd:
    def test_identical_inputs_give_zero(self):
        assert owd(L_SHAPE, L_SHAPE) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_segments(self):
        a = [(0.0, 0.0), (4.0, 0.0)]
        b = [(0.0, 1.0), (4.0, 1.0)]
        assert owd(a, b) == pytest.approx(1.0, rel=1e-9)

    def test_is_asymmetric(self):
        short = [(0.0, 0.0), (1.0, 0.0)]
        long = [(0.0, 1.0), (10.0, 1.0)]
        # every point of `short` is at distance 1 from `long`, but most of
        # `long` is far from `short`
        assert owd(short, long) == pytest.approx(1.0, rel=1e-6)
        assert owd(long, short) > 2.0

    def test_sampling_density_convergence(self):
        rng = np.random.default_rng(107)
        a = smooth_walk(rng, 7)
        b = smooth_walk(rng, 7)
        coarse = owd(a, b, samples_per_unit=4.0)
        fine = owd(a, b, samples_per_unit=64.0)
        assert coarse == pytest.approx(fine, rel=1e-3)

    def test_matches_independent_quadrature(self):
        rng = np.random.default_rng(109)
        for _ in range(6):
            a = smooth_walk(rng, 6)
            b = smooth_walk(rng, 6)
            got = owd(a, b, samples_per_unit=64.0)
            want = dense_owd(a, b, samples=20000)
            assert got == pytest.approx(want, rel=1e-4)

    def test_rejects_zero_length_input(self):
        with pytest.raises(ValueError, match="zero length"):
            owd([(1.0, 1.0), (1.0, 1.0)], L_SHAPE)

    def test_rejects_too_many_samples(self):
        with pytest.raises(ValueError, match="owd: too many samples at 1e\\+300 per unit length"):
            owd(L_SHAPE, L_SHAPE, samples_per_unit=1e300)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_walk_of_too_many_samples_before_holding_them(self):
        # About 1e8 samples on each walk's one segment: 1.6 GB of points.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^owd: too many samples at 1e-300 per unit length$"):
                owd([(0, 0), (1e308, 0)], [(-1e308, 0), (0, 0)], samples_per_unit=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_carrier_segment_too_long_to_square(self):
        # The first walk lies on the second, whose segments are 1e308 long:
        # their projections cannot be found, so the value is refused.
        with pytest.raises(ValueError, match="^owd: non-finite distance nan$"):
            owd([(0, 0), (1, 0)], [(0, 0), (1e308, 0), (1e308, 1e308)], samples_per_unit=1e-305)

    def test_the_cap_counts_every_sample_of_a_walk(self, monkeypatch):
        # Each segment holds its width + 1 samples, both vertices included:
        # 13 + 13 on the first walk and 14 + 13 on the second; L_SHAPE has 16.
        monkeypatch.setattr(shape, "_SAMPLES", 26)
        assert owd([(0.0, 0.0), (12.0, 0.0), (12.0, 12.0)], L_SHAPE) > 0.0
        with pytest.raises(ValueError, match="^owd: too many samples at 1.0 per unit length$"):
            owd([(0.0, 0.0), (12.5, 0.0), (12.5, 12.0)], L_SHAPE)


@pytest.mark.parametrize("call", [frechet_feasible, frechet_candidates, owd])
def test_a_one_point_walk_has_no_carrier(call):
    args = (1.0,) if call is frechet_feasible else ()
    with pytest.raises(ValueError, match=r"needs trajectories with at least 2 points"):
        call([(0.0, 0.0)], L_SHAPE, *args)


@pytest.mark.parametrize("func", [owd, sowd])
@pytest.mark.parametrize("density", [np.nan, np.inf, -np.inf, 0.0])
def test_density_must_be_positive_and_finite(func, density):
    with pytest.raises(ValueError, match="owd: samples_per_unit must be positive and finite"):
        func(L_SHAPE, L_SHAPE, density)


class TestSowd:
    def test_is_symmetric_by_construction(self):
        for a, b in walk_pairs(113, 30):
            assert sowd(a, b) == pytest.approx(sowd(b, a), rel=1e-12)

    def test_averages_both_directions(self):
        short = [(0.0, 0.0), (1.0, 0.0)]
        long = [(0.0, 1.0), (10.0, 1.0)]
        assert sowd(short, long) == pytest.approx(
            0.5 * (owd(short, long) + owd(long, short)), rel=1e-12)
