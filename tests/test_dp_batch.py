"""The batched DP kernels against frozen copies of the scalar loops they replaced."""

import numpy as np
import pytest

from trajkit import discrete_frechet, dlcss, dtw, edr, erp, lcss, warping
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
    _, batch, params, frozen = KERNELS[name]
    seqs = sequences(107, 34)
    store = PointStore.pack(seqs)
    ia, ib = np.triu_indices(len(seqs), 1)
    ia, ib = np.concatenate([ia, ib[::5]]), np.concatenate([ib, ia[::5]])  # both orders
    monkeypatch.setattr(warping, "CHUNK", chunk)
    got = batch(store, ia, ib, *params)
    want = np.array([frozen(seqs[i], seqs[j]) for i, j in zip(ia, ib)], dtype=np.float64)
    assert got.tobytes() == want.tobytes()


def test_store_hands_back_the_packed_sequences():
    seqs = sequences(109, 12)
    store = PointStore.pack(seqs)
    for k, s in enumerate(seqs):
        assert store[k].tobytes() == s.tobytes()
    assert store.lengths(np.arange(12)).tolist() == [len(s) for s in seqs]
