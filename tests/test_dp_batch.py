"""The batched DP kernels against frozen copies of the scalar loops they replaced."""

import numpy as np
import pytest

from trajkit import discrete_frechet, dlcss, dtw, edr, erp, lcss, matrix, warping
from trajkit.warping import PointStore

from conftest import smooth_walk
from oracles import (scalar_discrete_frechet, scalar_dlcss, scalar_dtw, scalar_edr,
                     scalar_erp, scalar_lcss)

EPS = 1.0
GAP = (0.5, -0.25)

# name -> (single-pair call, batch kernel and its parameters, frozen loop)
KERNELS = {
    "dtw": (dtw, warping.dtw_batch, (), scalar_dtw),
    "lcss": (lambda a, b: lcss(a, b, EPS), warping.lcss_batch, (EPS,),
             lambda a, b: scalar_lcss(a, b, EPS)),
    "dlcss": (lambda a, b: dlcss(a, b, EPS), warping.dlcss_batch, (EPS,),
              lambda a, b: scalar_dlcss(a, b, EPS)),
    "edr": (lambda a, b: edr(a, b, EPS), warping.edr_batch, (EPS,),
            lambda a, b: scalar_edr(a, b, EPS)),
    "erp": (lambda a, b: erp(a, b, GAP), warping.erp_batch, (GAP,),
            lambda a, b: scalar_erp(a, b, GAP)),
    "discrete_frechet": (discrete_frechet, warping.coupling_batch, (), scalar_discrete_frechet),
}
EMPTY_REJECTED = ("dtw", "dlcss", "discrete_frechet")


def sequences(seed: int, count: int) -> list[np.ndarray]:
    """Walks of 1 to 30 points; every fourth one lies on a coarse grid, so
    that points coincide, thresholds tie and DP cells tie."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        pts = smooth_walk(rng, 1 + k % 30, span=4.0)
        out.append(np.round(pts) if k % 4 == 0 else pts)
    return out


@pytest.mark.parametrize("name", list(KERNELS))
def test_single_pair_calls_equal_the_frozen_loops(name):
    call, _, _, frozen = KERNELS[name]
    seqs = sequences(101, 45)
    for a in seqs:
        for b in seqs[::4]:
            assert call(a, b) == frozen(a, b)


@pytest.mark.parametrize("name", list(KERNELS))
def test_empty_inputs_follow_the_frozen_loops(name):
    call, _, _, frozen = KERNELS[name]
    point = np.array([[1.5, -2.0]])
    empty_pairs = [([], []), (point, []), ([], point)]
    for walk in sequences(103, 30)[7:]:
        empty_pairs += [(np.empty((0, 2)), walk), (walk, [])]
        assert call(point, walk) == frozen(point, walk)
    for a, b in empty_pairs:
        if name in EMPTY_REJECTED:
            with pytest.raises(ValueError, match="empty"):
                call(a, b)
            with pytest.raises(ValueError, match="empty"):
                frozen(a, b)
        else:
            assert call(a, b) == frozen(a, b)
    assert call(point, point[::-1] + 0.25) == frozen(point, point[::-1] + 0.25)


@pytest.mark.parametrize("chunk", [1, 7, 100_000])
@pytest.mark.parametrize("name", list(KERNELS))
def test_batches_equal_the_frozen_loops_at_any_chunk_size(name, chunk, monkeypatch):
    # The triangle with some pairs in both orders, and mixed-length pairs
    # shuffled with one repeated: the sweep sorts pairs by shape.
    _, batch, params, frozen = KERNELS[name]
    seqs = sequences(107, 34)
    store = PointStore.pack(seqs)
    ia, ib = np.triu_indices(len(seqs), 1)
    ia, ib = np.concatenate([ia, ib[::5]]), np.concatenate([ib, ia[::5]])  # both orders
    shuffled = np.random.default_rng(127).permutation(np.append(np.arange(100, 400), 250))  # 250 twice
    monkeypatch.setattr(warping, "CHUNK", chunk)
    for ia, ib in [(ia, ib), (ia[shuffled], ib[shuffled])]:
        got = batch(store, ia, ib, *params)
        want = np.array([frozen(seqs[i], seqs[j]) for i, j in zip(ia, ib)], dtype=np.float64)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(KERNELS))
def test_batches_are_symmetric_and_equal_the_frozen_loops_at_every_small_shape(name):
    # Each pair runs with its shorter walk as the rows, and the table of
    # (b, a) is the transpose of that of (a, b), bit for bit.
    _, batch, params, frozen = KERNELS[name]
    rng = np.random.default_rng(113)
    lengths = [n for n in range(1 if name in EMPTY_REJECTED else 0, 13) for _ in range(2)]
    seqs = [(np.round if k % 2 else np.asarray)(smooth_walk(rng, n, span=4.0)[:n])  # half on a grid
            for k, n in enumerate(lengths)]
    store = PointStore.pack(seqs)
    ia, ib = np.triu_indices(len(seqs))
    got, back = batch(store, ia, ib, *params), batch(store, ib, ia, *params)
    want = np.array([frozen(seqs[i], seqs[j]) for i, j in zip(ia, ib)], dtype=np.float64)
    assert got.tobytes() == back.tobytes() == want.tobytes()


RULES = {"dtw": (warping._dtw, ()), "discrete_frechet": (warping._coupling, ()),
         "lcss": (warping._lcss, (EPS,)), "edr": (warping._edr, (EPS,)), "erp": (warping._erp, (GAP,))}


@pytest.mark.parametrize("n, size", [(64, 2016), (200, 4096)], ids=["triangle", "serial-ranges"])
@pytest.mark.parametrize("name", list(RULES))
def test_the_sweep_computes_few_more_cells_than_the_tables_hold(name, n, size):
    # The kernels-serial pool's lengths, 8 to 23 points, on its triangle
    # and on n = 200 cut into the serial ranges of compute_matrix. Pairs
    # of one shape run together, and each anti-diagonal computes only the
    # rows of its band: 1.425x and 1.322x at CHUNK = 512.
    rule, params = RULES[name]
    store = PointStore.pack([np.zeros((8 + k % 16, 2)) for k in range(n)])
    cells = []

    def counted(*args):
        corner, outside, cost, cell = rule(*args)

        def counting(diag, up, left, c, out, rows, facing):
            cells.append(out.size)
            cell(diag, up, left, c, out, rows, facing)
        return corner, outside, cost, counting

    npairs, need = n * (n - 1) // 2, 0
    for start in range(0, npairs, size):
        ia, ib = matrix._pair_indices(n, start, min(start + size, npairs))
        warping.sweep(counted, store, ia, ib, *params)
        need += int(((store.lengths(ia) + 1) * (store.lengths(ib) + 1) - 1).sum())
    assert need <= sum(cells) <= 1.5 * need


def test_store_hands_back_the_packed_sequences():
    seqs = sequences(109, 12)
    store = PointStore.pack(seqs)
    for k, s in enumerate(seqs):
        assert store[k].tobytes() == s.tobytes()
    assert store.lengths(np.arange(12)).tolist() == [len(s) for s in seqs]
