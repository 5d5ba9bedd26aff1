import math

import numpy as np
import pytest

from trajkit import dlcss, dtw, edr, erp, lcss

from conftest import walk_pairs, walk_triples
from oracles import enum_dtw, enum_erp, rec_edr, rec_lcss


class TestDtw:
    def test_single_points(self):
        assert dtw([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0

    def test_unequal_lengths(self):
        got = dtw([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
        assert got == pytest.approx(0.5)

    def test_identical_inputs_give_zero(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        assert dtw(pts, pts) == 0.0

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dtw([], [(0.0, 0.0)])
        with pytest.raises(ValueError, match="empty"):
            dtw([(0.0, 0.0)], [])

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a = rng.integers(0, 4, (int(rng.integers(1, 5)), 2)).astype(float)
            b = rng.integers(0, 4, (int(rng.integers(1, 5)), 2)).astype(float)
            assert dtw(a, b) == enum_dtw(a, b)

    def test_symmetry(self):
        for a, b in walk_pairs(29, 50):
            assert dtw(a, b) == pytest.approx(dtw(b, a), rel=1e-12)

    def test_triangle_inequality_counterexample(self):
        # Padding a stationary point lets the middle trajectory absorb cost
        # that the outer pair cannot: d(a, c) > d(a, b) + d(b, c).
        a = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
        b = [(0.0, 0.0), (1.0, 0.0)]
        c = [(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
        assert dtw(a, c) == 3.0
        assert dtw(a, b) == 1.0
        assert dtw(b, c) == 1.0
        assert dtw(a, c) > dtw(a, b) + dtw(b, c)


class TestLcss:
    def test_counts_matched_points(self):
        a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        b = [(0.1, 0.0), (5.0, 5.0), (2.1, 0.0)]
        assert lcss(a, b, eps_d=0.5) == 2

    def test_match_threshold_is_strict(self):
        assert lcss([(0.0, 0.0)], [(1.0, 0.0)], eps_d=1.0) == 0
        assert lcss([(0.0, 0.0)], [(1.0, 0.0)], eps_d=1.0 + 1e-9) == 1

    def test_empty_input_gives_zero(self):
        assert lcss([], [(0.0, 0.0)], eps_d=1.0) == 0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps_d"):
            lcss([(0.0, 0.0)], [(0.0, 0.0)], eps_d=0.0)

    def test_agrees_with_recursive_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            a = rng.integers(0, 3, (int(rng.integers(0, 5)), 2)).astype(float)
            b = rng.integers(0, 3, (int(rng.integers(1, 5)), 2)).astype(float)
            assert lcss(a, b, eps_d=1.5) == rec_lcss(a, b, 1.5)

    def test_symmetry(self):
        for a, b in walk_pairs(37, 50):
            assert lcss(a, b, eps_d=1.0) == lcss(b, a, eps_d=1.0)


class TestDlcss:
    def test_identical_inputs_give_zero(self):
        pts = [(0.0, 0.0), (1.0, 0.0)]
        assert dlcss(pts, pts, eps_d=0.5) == 0.0

    def test_disjoint_inputs_give_one(self):
        assert dlcss([(0.0, 0.0), (1.0, 0.0)], [(9.0, 9.0), (8.0, 8.0)], eps_d=0.5) == 1.0

    def test_normalises_by_shorter_input(self):
        a = [(0.0, 0.0), (1.0, 0.0)]
        b = [(0.0, 0.0), (1.0, 0.0), (9.0, 9.0), (8.0, 8.0)]
        assert dlcss(a, b, eps_d=0.5) == 0.0

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dlcss([], [(0.0, 0.0)], eps_d=0.5)

    def test_range_and_symmetry(self):
        for a, b in walk_pairs(41, 50):
            d = dlcss(a, b, eps_d=1.0)
            assert 0.0 <= d <= 1.0
            assert d == dlcss(b, a, eps_d=1.0)


class TestEdr:
    def test_counts_edits(self):
        a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        b = [(0.0, 0.0), (5.0, 5.0), (2.0, 0.0)]
        assert edr(a, b, eps_d=0.5) == 1

    def test_empty_input_costs_other_length(self):
        assert edr([], [(0.0, 0.0), (1.0, 0.0)], eps_d=0.5) == 2
        assert edr([(0.0, 0.0)], [], eps_d=0.5) == 1

    def test_match_threshold_is_strict(self):
        assert edr([(0.0, 0.0)], [(0.5, 0.0)], eps_d=0.5) == 1
        assert edr([(0.0, 0.0)], [(0.49, 0.0)], eps_d=0.5) == 0

    def test_agrees_with_recursive_definition(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            a = rng.integers(0, 3, (int(rng.integers(0, 5)), 2)).astype(float)
            b = rng.integers(0, 3, (int(rng.integers(0, 5)), 2)).astype(float)
            assert edr(a, b, eps_d=1.5) == rec_edr(a, b, 1.5)

    def test_symmetry(self):
        for a, b in walk_pairs(47, 50):
            assert edr(a, b, eps_d=1.0) == edr(b, a, eps_d=1.0)


@pytest.mark.parametrize("func", [lcss, dlcss, edr])
@pytest.mark.parametrize("eps_d", [np.nan, -np.inf, np.inf])
def test_threshold_must_not_be_nan_or_negative(func, eps_d):
    a = [(0.0, 0.0), (1.0, 0.0)]
    if eps_d == np.inf:  # every pair of points matches
        assert func(a, [(5.0, 5.0)], eps_d) == {lcss: 1, dlcss: 0.0, edr: 1}[func]
    else:
        with pytest.raises(ValueError, match=f"{func.__name__}: eps_d must be positive"):
            func(a, a, eps_d)


class TestErp:
    def test_empty_input_pays_gap_cost(self):
        assert erp([], [(3.0, 4.0)], gap_point=(0.0, 0.0)) == 5.0
        assert erp([(3.0, 4.0)], [], gap_point=(0.0, 0.0)) == 5.0
        assert erp([], [], gap_point=(0.0, 0.0)) == 0.0

    def test_empty_side_adds_gap_costs_in_order(self):
        rng = np.random.default_rng(5)
        g = (0.3, -0.2)
        for n in range(1, 40):
            a = rng.normal(size=(n, 2)) * 10
            assert erp(a, [], g) == enum_erp(a, [], g)
            assert erp([], a, g) == enum_erp([], a, g)

    def test_gap_against_extra_point(self):
        a = [(1.0, 0.0)]
        b = [(1.0, 0.0), (1.0, 1.0)]
        assert erp(a, b, gap_point=(1.0, 0.0)) == 1.0

    def test_identical_inputs_give_zero(self):
        pts = [(0.0, 0.0), (2.0, 2.0)]
        assert erp(pts, pts, gap_point=(0.0, 0.0)) == 0.0

    def test_agrees_with_recursive_definition(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            a = rng.integers(0, 3, (int(rng.integers(0, 5)), 2)).astype(float)
            b = rng.integers(0, 3, (int(rng.integers(0, 5)), 2)).astype(float)
            got = erp(a, b, gap_point=(1.0, 1.0))
            assert got == enum_erp(a, b, (1.0, 1.0))

    def test_symmetry(self):
        for a, b in walk_pairs(59, 50):
            g = (0.0, 0.0)
            assert erp(a, b, gap_point=g) == pytest.approx(erp(b, a, gap_point=g), rel=1e-12)

    def test_triangle_inequality_on_random_triples(self):
        g = (0.0, 0.0)
        for a, b, c in walk_triples(61, 200):
            ab, bc, ac = erp(a, b, gap_point=g), erp(b, c, gap_point=g), erp(a, c, gap_point=g)
            assert ac <= ab + bc + 1e-9
