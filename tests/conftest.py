"""Shared test helpers: seeded generators for GPS-like planar traces."""

from __future__ import annotations

import numpy as np

import trajkit as tk
from trajkit import Trajectory

#: The public single-pair call of each matrix distance, with the parameters
#: of ``DistanceSpec(name, eps_d=1.0)``.
DIRECT = {
    "dtw": tk.dtw,
    "dlcss": lambda a, b: tk.dlcss(a, b, 1.0),
    "edr": lambda a, b: float(tk.edr(a, b, 1.0)),
    "erp": lambda a, b: tk.erp(a, b, (0.0, 0.0)),
    "hausdorff": tk.hausdorff,
    "frechet": tk.frechet,
    "discrete_frechet": tk.discrete_frechet,
    "sowd": lambda a, b: tk.sowd(a, b, 1.0),
    "sspd": tk.sspd,
}


def smooth_walk(rng: np.random.Generator, n_points: int, *,
                span: float = 10.0, step: tuple[float, float] = (0.5, 1.5),
                drift: float = 0.4) -> np.ndarray:
    """A smooth random walk: a heading that drifts slowly plus bounded step
    lengths, started anywhere in a ``span``-sized box. Mimics a resampled
    vehicle trace; used as the canonical random-trajectory source so the
    tests exercise domain-plausible geometry rather than white noise."""
    start = rng.uniform(0.0, span, size=2)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    pts = [start]
    for _ in range(n_points - 1):
        heading += rng.normal(0.0, drift)
        length = rng.uniform(*step)
        pts.append(pts[-1] + length * np.array([np.cos(heading), np.sin(heading)]))
    return np.asarray(pts)


def walk_trajectory(rng: np.random.Generator, n_points: int, ident: str = "t",
                    **kwargs) -> Trajectory:
    return Trajectory(id=ident, points=smooth_walk(rng, n_points, **kwargs))


def walk_pairs(seed: int, count: int, points: tuple[int, int] = (4, 8)):
    """Yield ``count`` independent trajectory pairs from one seeded stream."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        na = int(rng.integers(points[0], points[1] + 1))
        nb = int(rng.integers(points[0], points[1] + 1))
        yield (walk_trajectory(rng, na, f"a{k}"), walk_trajectory(rng, nb, f"b{k}"))


def walk_triples(seed: int, count: int, points: tuple[int, int] = (4, 8)):
    rng = np.random.default_rng(seed)
    for k in range(count):
        out = []
        for tag in "abc":
            n = int(rng.integers(points[0], points[1] + 1))
            out.append(walk_trajectory(rng, n, f"{tag}{k}"))
        yield tuple(out)


def grid_sequences(max_len: int):
    """Every point sequence of length 1..max_len over the 3x3 integer grid
    would be 9 + 81 + ... ; enumerate lazily as index tuples."""
    cells = [(float(x), float(y)) for x in range(3) for y in range(3)]
    from itertools import product
    for length in range(1, max_len + 1):
        for combo in product(range(9), repeat=length):
            yield tuple(cells[i] for i in combo)
