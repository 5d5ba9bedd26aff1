import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from trajkit import (APResult, ClusterAssignment, CriteriaResult, DistanceMatrix,
                     affinity_propagation, clustering, criteria, cut, exemplar, geometry, hca)
from trajkit.clustering import LINKAGES

from oracles import allocating_ap, brute_criteria, brute_exemplar, scan_hca


def random_dissimilarity(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric zero-diagonal matrix with continuous (hence distinct) entries."""
    tri = rng.uniform(1.0, 10.0, n * (n - 1) // 2)
    return squareform(tri)


def tied_dissimilarity(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric zero-diagonal matrix with entries in {1, 2, 3}: ties everywhere."""
    return squareform(rng.integers(1, 4, n * (n - 1) // 2).astype(np.float64))


def partition(labels) -> set[frozenset]:
    labels = np.asarray(labels)
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


def three_blob_points(rng: np.random.Generator, per: int = 10):
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    pts = np.concatenate([c + rng.normal(0.0, 1.0, (per, 2)) for c in centers])
    truth = np.repeat([0, 1, 2], per)
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    np.fill_diagonal(d, 0.0)
    return d, truth


def purity(labels, truth) -> float:
    labels, truth = np.asarray(labels), np.asarray(truth)
    hits = 0
    for c in np.unique(labels):
        members = truth[labels == c]
        hits += np.bincount(members).max()
    return hits / labels.size


#: (a call that clusters a bare matrix d, the name its messages use, whether d must be symmetric);
#: the matrix is checked before criteria's assignment is.
BARE_MATRIX_CALLS = [
    (lambda d: hca(d), "hca", True),
    (lambda d: affinity_propagation(d), "affinity_propagation", False),
    (lambda d: exemplar(range(len(d)), d), "exemplar", False),
    (lambda d: criteria(ClusterAssignment(np.zeros(1, dtype=np.int64), 1), d), "criteria", False),
]


@pytest.mark.parametrize("call, name, symmetric", BARE_MATRIX_CALLS,
                         ids=[name for _, name, _ in BARE_MATRIX_CALLS])
@pytest.mark.parametrize("d, problem", [
    (np.zeros((2, 3)), "expected a square distance matrix"),
    (np.zeros(3), "expected a square distance matrix"),
    (squareform([1.0, np.nan, 4.0]), "expected a finite"),
    (squareform([1.0, np.inf, 4.0]), "expected a finite"),
    (np.full((3, 3), np.inf), "expected a finite"),
    (np.zeros((0, 0)), "empty matrix")],
    ids=["not-square", "not-2-d", "nan", "inf", "all-inf", "empty"])
def test_every_call_checks_a_bare_matrix_by_one_rule(call, name, symmetric, d, problem):
    if problem == "expected a finite":
        problem += " symmetric matrix" if symmetric else " matrix"
    with pytest.raises(ValueError) as error:
        call(d)
    assert str(error.value) == f"{name}: {problem}"


class TestClusterAssignment:
    @pytest.mark.parametrize("labels, k, match", [
        (np.zeros((2, 2)), 1, "1-D"), (np.zeros(2), 0, "invalid cluster count"),
        (np.zeros(2), 3, "invalid cluster count"), (np.array([0, 2, 2]), 2, "cover 0..k-1"),
        (np.array([1, 1]), 1, "cover 0..k-1"),
        (np.zeros(2), 1.0, r"ClusterAssignment: invalid cluster count k=1\.0 for 2 items; "
                           r"expected an int in \[1, 2\]"),
        (np.zeros(2), True, "ClusterAssignment: invalid cluster count k=True")])
    def test_rejects_labels_that_are_not_k_nonempty_clusters(self, labels, k, match):
        with pytest.raises(ValueError, match=match):
            ClusterAssignment(labels, k)


class TestHca:
    def test_average_linkage_on_three_points(self):
        # items on a line at 0, 1, 5: merge (0,1) at 1, then the pair joins
        # item 2 at the mean of (5, 4)
        d = squareform([1.0, 5.0, 4.0])
        dg = hca(d, linkage="average")
        assert dg.heights() == pytest.approx([1.0, 4.5])
        assert dg.steps[0].left == 0 and dg.steps[0].right == 1
        assert dg.steps[1].size == 3

    def test_ward_linkage_on_three_points(self):
        d = squareform([1.0, 5.0, 4.0])
        dg = hca(d, linkage="ward")
        assert dg.heights() == pytest.approx([1.0, np.sqrt(27.0)])

    def test_single_linkage_chains(self):
        d = squareform([1.0, 5.0, 4.0])
        dg = hca(d, linkage="single")
        assert dg.heights() == pytest.approx([1.0, 4.0])

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError, match="linkage"):
            hca(squareform([1.0, 2.0, 3.0]), linkage="centroid")

    @pytest.mark.parametrize("method", LINKAGES)
    def test_matches_scipy_merge_heights(self, method):
        rng = np.random.default_rng(307)
        for n in (5, 9, 16):
            for _ in range(6):
                d = random_dissimilarity(rng, n)
                dg = hca(d, linkage=method)
                z = scipy_linkage(squareform(d, checks=False), method=method)
                assert dg.heights() == pytest.approx(z[:, 2].tolist(), rel=1e-9)
                assert [s.size for s in dg.steps] == z[:, 3].astype(int).tolist()

    @pytest.mark.parametrize("method", ["single", "average", "weighted"])
    def test_matches_scipy_partitions(self, method):
        rng = np.random.default_rng(311)
        for _ in range(8):
            d = random_dissimilarity(rng, 12)
            dg = hca(d, linkage=method)
            z = scipy_linkage(squareform(d, checks=False), method=method)
            for k in (2, 3, 5):
                mine = partition(cut(dg, k).labels)
                theirs = partition(fcluster(z, t=k, criterion="maxclust"))
                assert mine == theirs

    @pytest.mark.parametrize("method", LINKAGES)
    def test_heights_are_monotone(self, method):
        # All four linkages are reducible (Lance-Williams), so on any
        # dissimilarity matrix no merge is lower than the one before it.
        rng = np.random.default_rng(313)
        for _ in range(60):
            d = random_dissimilarity(rng, 10)
            heights = hca(d, linkage=method).heights()
            assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(heights, heights[1:]))

    def test_ties_break_toward_lowest_indices(self):
        d = np.full((4, 4), 5.0)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 1.0
        d[2, 3] = d[3, 2] = 1.0
        dg = hca(d, linkage="single")
        assert (dg.steps[0].left, dg.steps[0].right) == (0, 1)
        assert (dg.steps[1].left, dg.steps[1].right) == (2, 3)

    @pytest.mark.parametrize("method", LINKAGES)
    def test_merges_equal_the_full_scan_bit_for_bit(self, method):
        # The cached-neighbour search must pick the same pair as a row-major
        # argmin over the whole matrix and do the same arithmetic, ties
        # included, so every merge and height is identical.
        # Above clustering._COMPACT_MIN rows the working matrix sheds its
        # retired rows each time half have retired: twice at n = 150, three
        # times at n = 300. The shed rows must leave every tie as it was.
        rng = np.random.default_rng(337)
        sizes = list(range(2, 13)) + [25, 40, 60, 150, 300]
        assert 300 // 4 > clustering._COMPACT_MIN
        cases = [random_dissimilarity(rng, n) for n in sizes]
        cases += [tied_dissimilarity(rng, n) for n in list(range(2, 9)) * 20 + [25, 40, 60, 150, 300]]
        for d in cases:
            dg = hca(d, linkage=method)
            assert [(s.left, s.right, s.height, s.size) for s in dg.steps] == scan_hca(d, method)[0]

    @pytest.mark.parametrize("method", LINKAGES)
    def test_merges_equal_the_full_scan_when_every_size_sheds_rows(self, method, monkeypatch):
        # With the threshold at 2, matrices of every size mask their retired
        # columns and shed their retired rows, many times over, ties included.
        monkeypatch.setattr(clustering, "_COMPACT_MIN", 2)
        rng = np.random.default_rng(347)
        cases = [random_dissimilarity(rng, n) for n in range(2, 30)]
        cases += [tied_dissimilarity(rng, n) for n in list(range(2, 16)) * 10]
        for d in cases:
            dg = hca(d, linkage=method)
            assert [(s.left, s.right, s.height, s.size) for s in dg.steps] == scan_hca(d, method)[0]

    def test_a_tie_with_the_merged_cluster_goes_to_the_lower_column(self):
        # After (1, 3) merge, item 0 is at 2 from both cluster {1, 3} (row 1)
        # and item 2: the full scan meets column 1 first, so 0 joins {1, 3}.
        d = squareform([3.0, 2.0, 2.0, 2.0, 1.0, 3.0])
        dg = hca(d, linkage="single")
        want = [(1, 3, 1.0, 2), (0, 4, 2.0, 3), (5, 2, 2.0, 4)]
        assert [(s.left, s.right, s.height, s.size) for s in dg.steps] == want
        assert scan_hca(d, "single")[0] == want

    def test_permutation_invariance(self):
        rng = np.random.default_rng(331)
        d = random_dissimilarity(rng, 11)
        perm = rng.permutation(11)
        dp = d[np.ix_(perm, perm)]
        for k in (2, 4):
            base = partition(cut(hca(d, "average"), k).labels)
            permuted = partition(cut(hca(dp, "average"), k).labels)
            mapped = {frozenset(int(perm[i]) for i in grp) for grp in permuted}
            assert mapped == base

    def test_ndarray_that_is_not_finite_and_symmetric_is_rejected(self):
        # A DistanceMatrix is validated when it is built; a bare array is checked here.
        for d in (np.array([[0.0, np.nan], [np.nan, 0.0]]), np.array([[0.0, 1.0], [2.0, 0.0]]),
                  np.array([[0.0, np.inf], [np.inf, 0.0]])):
            for method in LINKAGES:
                with pytest.raises(ValueError, match="finite symmetric"):
                    hca(d, linkage=method)

    def test_ward_refuses_distances_whose_squares_overflow(self):
        # Finite distances of about 1e200: ward's squares overflow, so it
        # raises; the other linkages stay finite and equal the full scan.
        pts = np.random.default_rng(0).normal(size=(100, 2)) * 1e200
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        with pytest.raises(ValueError, match="^hca: ward linkage overflowed: a merge height is not finite$"):
            hca(d, "ward")
        for method in ("single", "average", "weighted"):
            dg = hca(d, method)
            assert np.isfinite(dg.heights()).all()
            assert [(s.left, s.right, s.height, s.size) for s in dg.steps] == scan_hca(d, method)[0]

    @pytest.mark.parametrize("method", ["average", "weighted", "ward"])
    def test_an_update_that_overflows_is_refused(self, method):
        # After (0, 1) merge at 1, the sum of the two 1.7e308 distances to
        # item 2 overflows (ward's squares already have).
        d = squareform([1.0, 1.7e308, 1.7e308])
        with pytest.raises(ValueError, match=f"^hca: {method} linkage overflowed"):
            hca(d, method)
        assert hca(d, "single").heights().tolist() == [1.0, 1.7e308]


class TestCut:
    def test_k_equals_one(self):
        d = squareform([1.0, 5.0, 4.0])
        assert cut(hca(d), 1).labels.tolist() == [0, 0, 0]

    def test_k_equals_n(self):
        d = squareform([1.0, 5.0, 4.0])
        assert cut(hca(d), 3).labels.tolist() == [0, 1, 2]

    def test_labels_ordered_by_first_member(self):
        d = squareform([1.0, 5.0, 4.0])
        labels = cut(hca(d), 2).labels
        assert labels.tolist() == [0, 0, 1]

    def test_invalid_k_rejected(self):
        d = squareform([1.0, 5.0, 4.0])
        dg = hca(d)
        with pytest.raises(ValueError, match="k"):
            cut(dg, 0)
        with pytest.raises(ValueError, match="k"):
            cut(dg, 4)

    @pytest.mark.parametrize("k", [2.5, True, 2.0, "2"])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match=re.escape(f"cut: k must be an int in [1, 3], got {k!r}")):
            cut(hca(squareform([1.0, 5.0, 4.0])), k)
        assert type(cut(hca(squareform([1.0, 5.0, 4.0])), np.int64(2)).k) is int


class TestAffinityPropagation:
    def test_recovers_separated_blobs(self):
        d, truth = three_blob_points(np.random.default_rng(337))
        res = affinity_propagation(d)
        assert res.converged
        assert res.assignment.k >= 3
        assert purity(res.assignment.labels, truth) == 1.0

    def test_exemplars_belong_to_their_own_cluster(self):
        d, _ = three_blob_points(np.random.default_rng(347))
        res = affinity_propagation(d)
        for pos, e in enumerate(res.exemplars):
            assert res.assignment.labels[e] == pos

    def test_low_preference_merges_everything(self):
        rng = np.random.default_rng(349)
        pts = rng.normal(0.0, 1.0, (12, 2))
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        np.fill_diagonal(d, 0.0)
        res = affinity_propagation(d, preference=-1e6)
        assert res.assignment.k == 1

    def test_high_preference_splits_everything(self):
        d, _ = three_blob_points(np.random.default_rng(353), per=4)
        res = affinity_propagation(d, preference=0.0)
        assert res.assignment.k == 12

    def test_single_item(self):
        res = affinity_propagation(np.zeros((1, 1)))
        assert res.assignment.labels.tolist() == [0]
        assert res.exemplars == (0,)

    def test_iteration_starvation_is_flagged_not_raised(self):
        d, _ = three_blob_points(np.random.default_rng(359))
        res = affinity_propagation(d, max_iter=2)
        assert not res.converged
        assert res.assignment.k >= 1  # still a usable partial result

    def test_preference_value_is_reported(self):
        d, _ = three_blob_points(np.random.default_rng(367))
        res = affinity_propagation(d)
        assert res.preference_value == pytest.approx(-d.max())

    def test_damping_is_validated(self):
        d = np.zeros((2, 2))
        with pytest.raises(ValueError, match="damping"):
            affinity_propagation(d, damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            affinity_propagation(d, damping=1.0)

    @pytest.mark.parametrize("damping", ["0.5", True, math.nan, None])
    def test_damping_must_be_a_number(self, damping):
        with pytest.raises(ValueError, match=re.escape(
                "affinity_propagation: damping must be a number strictly inside (0, 1), "
                f"got {damping!r}")):
            affinity_propagation(np.zeros((2, 2)), damping=damping)

    @pytest.mark.parametrize("preference", [np.nan, np.inf, -np.inf])
    def test_non_finite_preference_is_rejected(self, preference):
        d, _ = three_blob_points(np.random.default_rng(367), per=3)
        with pytest.raises(ValueError, match="preference must be finite"):
            affinity_propagation(d, preference=preference)

    @pytest.mark.parametrize("preference", [True, np.bool_(True)])
    def test_a_bool_preference_is_rejected(self, preference):
        with pytest.raises(ValueError, match="preference must be finite and a number, got "):
            affinity_propagation(np.zeros((2, 2)), preference=preference)

    def test_identical_items_form_one_cluster(self):
        res = affinity_propagation(np.zeros((2, 2)), preference=-1.0)
        assert res.assignment.k == 1
        assert res.assignment.labels.tolist() == [0, 0]

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["1-row", "7-row", "default"])
    @pytest.mark.parametrize("damping", [0.5, 0.9])
    def test_result_equals_the_allocating_updates_bit_for_bit(self, damping, rows, monkeypatch):
        # Random and tied matrices of 3-24 items; in a few of them the
        # outcome turns on the last bit of the messages. The messages are
        # updated in blocks of 1 row, 7 rows and the default size; only the
        # 300-item cloud is split by the default blocks.
        rng = np.random.default_rng(344)
        cases = []
        for t in range(40):
            make = tied_dissimilarity if t % 2 else random_dissimilarity
            cases.append((make(rng, int(rng.integers(3, 25))), {}))
        cases += [(three_blob_points(rng, 9)[0], {}),
                  (random_dissimilarity(rng, 20), {"preference": -4.0}),
                  (three_blob_points(rng)[0], {"max_iter": 3}),
                  (tied_dissimilarity(rng, 12), {"max_iter": 1})]
        cloud = three_blob_points(rng, 100)[0]
        budgets = [1, 5] if rows == 1 else [1, 5, 40, 1000]
        cases += [(cloud, {"max_iter": max_iter}) for max_iter in budgets]
        default = geometry._BLOCK
        for d, kwargs in cases:
            monkeypatch.setattr(geometry, "_BLOCK", default if rows is None else rows * len(d))
            res = affinity_propagation(d, damping=damping, **kwargs)
            labels, exemplars, converged, n_iter, pref = allocating_ap(d, damping=damping, **kwargs)
            assert res.assignment.labels.tolist() == labels
            assert list(res.exemplars) == exemplars
            assert res.converged == converged
            assert res.n_iter == n_iter
            assert res.preference_value == pref

    def test_does_not_write_into_the_callers_array(self):
        d, _ = three_blob_points(np.random.default_rng(383), per=40)
        before = d.tobytes()
        res = affinity_propagation(d, damping=0.9)
        assert d.tobytes() == before
        other = affinity_propagation(np.asfortranarray(d), damping=0.9)
        assert other.assignment.labels.tolist() == res.assignment.labels.tolist()
        assert (other.exemplars, other.converged, other.n_iter, other.preference_value) == (
            res.exemplars, res.converged, res.n_iter, res.preference_value)

    def test_holds_the_input_and_two_message_arrays(self):
        # resp and avail are 2 n x n float64 arrays; the similarities and
        # the scratch space exist a block of rows at a time.
        n = 400
        pts = np.random.default_rng(389).normal(0.0, 1.0, (n, 2)) + 10.0 * (np.arange(n) % 4)[:, None]
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        m = DistanceMatrix(tuple(map(str, range(n))), "blobs", d)
        affinity_propagation(np.zeros((2, 2)))  # numpy's lazy set-up is not counted
        tracemalloc.start()
        try:
            affinity_propagation(m, damping=0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    def test_empty_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="affinity_propagation: empty matrix"):
            affinity_propagation(np.zeros((0, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_ndarray_that_is_not_finite_is_rejected(self, value):
        d, _ = three_blob_points(np.random.default_rng(367), per=3)
        d[2, 5] = value
        with pytest.raises(ValueError, match="affinity_propagation: expected a finite matrix"):
            affinity_propagation(d)

    def test_asymmetric_ndarray_is_accepted(self):
        d, _ = three_blob_points(np.random.default_rng(367), per=4)
        d[0, 1] += 0.5
        labels, exemplars, converged, n_iter, pref = allocating_ap(d)
        res = affinity_propagation(d)
        assert res.assignment.labels.tolist() == labels
        assert (list(res.exemplars), res.n_iter, res.preference_value) == (exemplars, n_iter, pref)

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"convergence_iter": 0},
                                        {"max_iter": 10.0}, {"convergence_iter": 2.5},
                                        {"max_iter": True}, {"convergence_iter": "15"}])
    def test_iteration_counts_must_be_positive(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=re.escape(
                f"affinity_propagation: {name} must be an int >= 1, got {value!r}")):
            affinity_propagation(np.zeros((2, 2)), **kwargs)

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_min_similarity_is_minus_the_largest_off_diagonal_distance(self, n, order):
        d = np.random.default_rng(401 + n).uniform(1.0, 10.0, (n, n))  # not symmetric
        np.fill_diagonal(d, 100.0)  # the diagonal is not a distance between two items
        res = affinity_propagation(np.asarray(d, order=order), max_iter=1)
        assert res.preference_value == -d[~np.eye(n, dtype=bool)].max()

    def test_far_items_are_self_consistent(self):
        d = np.array([[0.0, 50.0], [50.0, 0.0]])
        res = affinity_propagation(d)
        for pos, e in enumerate(res.exemplars):
            assert res.assignment.labels[e] == pos


class TestExemplar:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(373)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            d = random_dissimilarity(rng, n)
            size = int(rng.integers(1, n + 1))
            subset = rng.choice(n, size=size, replace=False).tolist()
            assert exemplar(subset, d) == brute_exemplar(subset, d)

    def test_tie_goes_to_lowest_index(self):
        d = np.full((3, 3), 2.0)
        np.fill_diagonal(d, 0.0)
        assert exemplar([0, 1, 2], d) == 0
        assert exemplar([2, 1], d) == 1

    def test_singleton(self):
        d = squareform([1.0, 5.0, 4.0])
        assert exemplar([2], d) == 2

    @pytest.mark.parametrize("indices, match", [
        ([], "exemplar: empty index set"), ([0, 3], "exemplar: index out of range"),
        ([-1, 1], "exemplar: index out of range"), ([2.9], "exemplar: indices must be integers"),
        ([0.5], "exemplar: indices must be integers"),
        (np.array([True, True, False]), "exemplar: indices must be integers")])
    def test_rejects_index_sets_that_name_no_item(self, indices, match):
        with pytest.raises(ValueError, match=match):
            exemplar(indices, squareform([1.0, 5.0, 4.0]))

    def test_order_duplicates_and_layout_do_not_matter(self):
        rng = np.random.default_rng(379)
        for n in (3, 9, 40):
            d = random_dissimilarity(rng, n)
            fortran = np.asfortranarray(d)
            members = rng.choice(n, size=n // 2 + 1, replace=False)
            want = brute_exemplar(members.tolist(), d)
            assert exemplar(members, d) == want
            assert exemplar(np.concatenate([members, members[::-1]]), d) == want
            assert exemplar(sorted(members.tolist()), fortran) == want

    def test_memory_layout_does_not_pick_the_exemplar(self):
        # Every row of a symmetric circulant matrix holds the same values,
        # so only rounding in the row sums separates the candidates.
        rng = np.random.default_rng(383)
        for n in (9, 41, 64):
            half = rng.uniform(1.0, 10.0, (n - 1) // 2)
            col = np.concatenate([[0.0], half, half[::-1]] if n % 2 else [[0.0], half, [9.5], half[::-1]])
            d = col[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
            want = exemplar(range(n), d)
            assert exemplar(range(n), np.asfortranarray(d)) == want
            assert criteria(ClusterAssignment(np.zeros(n, dtype=np.int64), 1),
                            np.asfortranarray(d)).global_exemplar == want


class TestCriteria:
    def test_single_cluster_has_zero_between(self):
        rng = np.random.default_rng(379)
        d = random_dissimilarity(rng, 8)
        res = criteria(ClusterAssignment(np.zeros(8, dtype=np.int64), 1), d)
        assert res.bc == 0.0
        assert res.wc > 0.0

    def test_all_singletons_have_zero_within(self):
        rng = np.random.default_rng(383)
        d = random_dissimilarity(rng, 8)
        res = criteria(ClusterAssignment(np.arange(8), 8), d)
        assert res.wc == 0.0
        assert res.bc > 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(389)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n + 1))
            d = random_dissimilarity(rng, n)
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            rng.shuffle(labels)
            res = criteria(ClusterAssignment(labels.astype(np.int64), k), d)
            want_bc, want_wc = brute_criteria(labels, d)
            assert res.bc == pytest.approx(want_bc, rel=1e-12)
            assert res.wc == pytest.approx(want_wc, rel=1e-12)

    def test_assignment_and_matrix_must_have_the_same_size(self):
        with pytest.raises(ValueError, match="criteria: assignment and matrix size differ"):
            criteria(ClusterAssignment(np.array([0, 1]), 2), squareform([1.0, 5.0, 4.0]))

    def test_reports_the_exemplars_used(self):
        d = squareform([1.0, 5.0, 4.0])
        res = criteria(ClusterAssignment(np.array([0, 0, 1]), 2), d)
        assert isinstance(res, CriteriaResult)
        assert res.global_exemplar in (0, 1, 2)
        assert len(res.exemplars) == 2
        assert res.exemplars[1] == 2

    def test_sweep_over_every_cut_equals_brute_force(self):
        # Integer distances make every sum exact, so the library and the
        # naive recomputation must agree to the bit, lowest-index ties included.
        rng = np.random.default_rng(397)
        for n in (2, 5, 13, 30):
            d = tied_dissimilarity(rng, n)
            dg = hca(d, linkage="ward")
            for k in range(1, n + 1):
                labels = cut(dg, k).labels
                res = criteria(cut(dg, k), d)
                assert (res.bc, res.wc) == brute_criteria(labels, d)
                assert res.global_exemplar == brute_exemplar(range(n), d)
                assert res.exemplars == tuple(brute_exemplar(np.flatnonzero(labels == c).tolist(), d)
                                              for c in range(k))

    def test_the_shared_sweep_equals_one_call_per_cut(self):
        # The sweep finds the global exemplar once and each cluster's
        # exemplar once for every cut holding that cluster; every result
        # must still equal criteria's, to the bit, on ties and on floats.
        rng = np.random.default_rng(401)
        cases = [(tied_dissimilarity(rng, n), "ward") for n in (5, 13, 30, 120)]
        blobs, _ = three_blob_points(rng, per=40)
        cases += [(blobs, linkage) for linkage in LINKAGES]
        for d, linkage in cases:
            dg = hca(d, linkage=linkage)
            n = d.shape[0]
            for ks in (range(1, n + 1), [n, n // 2 + 1, 1, n // 2 + 1]):
                assert clustering._criteria_sweep(dg, d, ks) == [criteria(cut(dg, k), d) for k in ks]
