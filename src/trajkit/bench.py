"""Timing harness for distance-matrix computation.

Times full pairwise matrix jobs on seeded synthetic trajectories so that
distance implementations can be compared on one machine, and checks how
wall time grows with the number of trajectories.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Trajectory
from .matrix import DistanceSpec, compute_matrix

__all__ = ["BenchReport", "BENCH_DISTANCES", "random_walk_trajectories", "run_bench", "scaling_exponents"]

#: Default distances benchmarked side by side.
BENCH_DISTANCES = ("frechet", "discrete_frechet", "hausdorff", "dtw", "dlcss", "sspd")


@dataclass(frozen=True)
class BenchReport:
    """Wall-clock timings for full matrix jobs.

    Attributes
    ----------
    n, points : int
        Trajectory count and points per trajectory.
    environment : str
        Interpreter / platform / CPU note for context.
    timings : dict
        Per-distance ``{"serial": seconds, "parallel": seconds}``
        (parallel only when requested).
    workers : int
        Worker count used for the parallel column (0 = not measured).
    """

    n: int
    points: int
    environment: str
    timings: dict
    workers: int


def _environment() -> str:
    return (f"python {sys.version.split()[0]}, {platform.platform()}, "
            f"{os.cpu_count()} cpu")


def random_walk_trajectories(n: int, points: int, seed: int) -> list[Trajectory]:
    """Seeded smooth random-walk trajectories with unit-scale steps.

    Starts are spread over a box that grows with sqrt(n) so that density
    stays roughly constant; headings drift slowly, which makes the traces
    look like movement data rather than noise.
    """
    rng = np.random.default_rng(seed)
    span = 10.0 * max(1.0, np.sqrt(n))
    out = []
    for k in range(n):
        start = rng.uniform(0.0, span, 2)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        turns = rng.normal(0.0, 0.4, points - 1)
        lengths = rng.uniform(0.5, 1.5, points - 1)
        angles = heading + np.cumsum(turns)
        steps = np.column_stack([np.cos(angles), np.sin(angles)]) * lengths[:, None]
        pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
        out.append(Trajectory(f"w{k}", pts))
    return out


def _spec(name: str) -> DistanceSpec:
    # Matching thresholds scale with the unit step length of the walks;
    # distances without one ignore eps_d.
    return DistanceSpec(name, eps_d=1.0)


def _time_matrix(trajectories, spec: DistanceSpec, workers: int, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        compute_matrix(trajectories, spec, workers=workers)
        best = min(best, time.perf_counter() - t0)
    return float(best)


def run_bench(
    n: int = 100,
    points: int = 10,
    seed: int = 0,
    distances: tuple[str, ...] = BENCH_DISTANCES,
    workers: int = 0,
    repeats: int = 1,
) -> BenchReport:
    """Time full matrix jobs for each distance on one synthetic dataset.

    Parameters
    ----------
    n, points, seed
        Shape of the seeded random-walk dataset.
    distances : tuple of str
        Distance names to benchmark.
    workers : int
        Also record a parallel column with this many workers (0 skips it).
    repeats : int
        Take the best of this many runs per cell; at least 1.
    """
    if repeats < 1:
        raise ValueError("run_bench: repeats must be >= 1")
    trajectories = random_walk_trajectories(n, points, seed)
    timings: dict = {}
    for name in distances:
        spec = _spec(name)
        row = {"serial": _time_matrix(trajectories, spec, 1, repeats)}
        if workers > 1:
            row["parallel"] = _time_matrix(trajectories, spec, workers, repeats)
        timings[name] = row
    return BenchReport(n, points, _environment(), timings, workers if workers > 1 else 0)


def scaling_exponents(
    ns: tuple[int, ...] = (50, 100, 200),
    points: int = 12,
    seed: int = 0,
    distances: tuple[str, ...] = ("dtw", "sspd"),
    repeats: int = 3,
) -> dict[str, float]:
    """Least-squares slope of log(wall time) against log(n) per distance.

    A full matrix over n trajectories covers n(n-1)/2 pairs, so the slope
    should sit near 2 when per-pair cost is independent of n. Each repeat
    visits the sizes up and back down, and each visit gives its size about
    the same wall time: size n runs ``round((max(ns) / n) ** 2)`` matrices
    in a row. A size's time is its mean over all its runs. The up-and-down
    order cancels a steady drift of the host's speed within a repeat, and
    equal wall times let a burst of load reach every size about equally,
    rather than tilting the slope; a best time would favour the short
    timings, which slip between bursts.
    """
    if len(ns) < 2:
        raise ValueError("scaling_exponents: need at least two dataset sizes")
    if repeats < 1:
        raise ValueError("scaling_exponents: repeats must be >= 1")
    datasets = {n: random_walk_trajectories(n, points, seed) for n in ns}
    runs = np.array([max(1, round((max(ns) / n) ** 2)) for n in ns])
    out = {}
    log_n = np.log(np.array(ns, dtype=np.float64))
    for name in distances:
        spec = _spec(name)
        compute_matrix(datasets[ns[0]], spec, workers=1)  # untimed: a first call pays one-off costs
        total = np.zeros(len(ns))
        for _ in range(repeats):
            for pos in [*range(len(ns)), *reversed(range(len(ns)))]:
                t0 = time.perf_counter()
                for _ in range(runs[pos]):
                    compute_matrix(datasets[ns[pos]], spec, workers=1)
                total[pos] += time.perf_counter() - t0
        slope = np.polyfit(log_n, np.log(total / runs), 1)[0]
        out[name] = float(slope)
    return out
