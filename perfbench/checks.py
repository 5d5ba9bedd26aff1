"""Output checks. Each returns ``(name, ok, detail)``; a failed check is a
failed operation of the run."""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

import trajkit as tk
from trajkit import compute_matrix, cut, hca, load_matrix, save_matrix, synth

import workloads

# The single-pair public calls, with the parameters workloads.distance_spec uses.
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

SAMPLES = 12
REL = 1e-9


def result(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), "" if ok else detail)


def entries_match_direct(m: tk.DistanceMatrix, trajectories: list, distance: str,
                         seed: int) -> tuple[str, bool, str]:
    """A seeded sample of entries is ``==`` to the direct single-pair call."""
    by_id = {t.id: t for t in trajectories}
    rng = np.random.default_rng(seed)
    n = len(m)
    for _ in range(SAMPLES):
        i, j = rng.choice(n, 2, replace=False)
        want = DIRECT[distance](by_id[m.ids[i]], by_id[m.ids[j]])
        if not m.values[i, j] == want:
            return result(f"{distance} entries == direct calls", False,
                          f"({m.ids[i]}, {m.ids[j]}): matrix {m.values[i, j]!r} != direct {want!r}")
    return result(f"{distance} entries == direct calls", True)


def roundtrip(path: Path) -> tuple[str, bool, str]:
    """Loading a TRJD file and saving it again gives the same bytes and values."""
    m = load_matrix(path)
    again = path.with_name(path.name + ".again")
    save_matrix(m, again)
    ok = again.read_bytes() == path.read_bytes() and np.array_equal(
        load_matrix(again).values, m.values)
    again.unlink()
    return result(f"TRJD round trip of {path.name}", ok, "bytes or values differ")


def frechet_sandwich(hausdorff: tk.DistanceMatrix, frechet: tk.DistanceMatrix,
                     discrete: tk.DistanceMatrix) -> tuple[str, bool, str]:
    """hausdorff <= frechet <= discrete_frechet on every pair frechet covers."""
    k = len(frechet)
    h, f, d = hausdorff.values[:k, :k], frechet.values, discrete.values[:k, :k]
    bad = (h > f * (1 + REL)) | (f > d * (1 + REL))
    return result("hausdorff <= frechet <= discrete_frechet", not bad.any(),
                  f"{int(bad.sum()) // 2} pairs out of order")


def readme_answers() -> tuple[str, bool, str]:
    a = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]
    b = [(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]
    got = (tk.dtw(a, b), tk.sspd(a, b), tk.frechet(a, b))
    return result("README known answers", got == (3.0, 1.0, 1.0), f"dtw, sspd, frechet = {got}")


def workers_match_serial(serial: tk.DistanceMatrix, trajectories: list) -> tuple[str, bool, str]:
    """The 2-worker sspd matrix of the same trajectories is bit-identical."""
    pooled = compute_matrix(trajectories, workloads.distance_spec("sspd"), workers=2)
    return result("workers=2 sspd matrix == serial matrix",
                  pooled.ids == serial.ids and np.array_equal(pooled.values, serial.values),
                  f"{int((pooled.values != serial.values).sum()) // 2} entries differ")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def recovers_labels(found, truth) -> tuple[str, bool, str]:
    """Clusters equal the true labels up to relabelling."""
    pairs = {(int(c), int(t)) for c, t in zip(found, truth)}
    ok = (len(found) == len(truth) and len(pairs) == len({c for c, _ in pairs})
          == len({t for _, t in pairs}) == len(set(truth)))
    return result(f"hca k={workloads.PIPELINE_K} recovers the bundle labels", ok,
                  f"cluster/label pairs: {sorted(pairs)}")


def bundle_labels(seed: int) -> tuple[str, bool, str]:
    """Ward hca on the sspd matrix of small synth bundles, cut at k = 4, as
    ``trajkit cluster --method hca --k 4`` does, recovers the bundles."""
    doc = workloads.bundle_doc(seed, workloads.LABEL_COUNT)
    ds, truth = synth(workloads.bundle_specs(doc), seed=seed)
    m = compute_matrix(ds.trajectories, workloads.distance_spec("sspd"))
    return recovers_labels(cut(hca(m, linkage="ward"), workloads.PIPELINE_K).labels, truth)


def ap_converged(stdout: str, stderr: str, assign_csv: Path) -> tuple[str, bool, str]:
    """The CLI reports convergence, and every cluster has one exemplar."""
    found = re.search(r"ap k=(\d+) .*iter=(\d+)", stdout)
    rows = read_csv(assign_csv)
    exemplars = sorted(r["cluster"] for r in rows if r["is_exemplar"] == "1")
    ok = (found is not None and "did not converge" not in stderr
          and exemplars == sorted({r["cluster"] for r in rows})
          and len(exemplars) == int(found.group(1)))
    return result("ap converged", ok, f"stdout {stdout.strip()!r}, stderr {stderr.strip()!r}")


def criteria_rows(path: Path, k_max: int) -> tuple[str, bool, str]:
    rows = read_csv(path)
    ok = [int(r["k"]) for r in rows] == list(range(1, k_max + 1)) and all(
        np.isfinite(float(r["bc"])) and np.isfinite(float(r["wc"])) for r in rows)
    return result("criteria rows k=1..k_max, finite", ok, f"{len(rows)} rows")


def hca_matches_scipy(m: tk.DistanceMatrix, k: int, assign_csv: Path) -> list[tuple[str, bool, str]]:
    """Ward merge heights match SciPy's; the CLI's clusters are the cut at k."""
    from scipy.cluster.hierarchy import linkage  # test-only dependency

    dend = hca(m, linkage="ward")
    ours = np.sort(dend.heights())
    theirs = np.sort(linkage(m.values[np.triu_indices(len(m), 1)], method="ward")[:, 2])
    worst = float(np.max(np.abs(ours - theirs) / np.maximum(theirs, 1e-300)))
    labels = [int(r["cluster"]) for r in read_csv(assign_csv)]
    return [
        result("hca ward heights == scipy (1e-9 rel)", worst <= REL, f"worst relative gap {worst:.3g}"),
        result("cluster --method hca output == cut", labels == cut(dend, k).labels.tolist(),
               "labels differ"),
    ]


def blob_checks(wd: Path, procs: dict, k: int, k_max: int) -> list[tuple[str, bool, str]]:
    m = load_matrix(wd / "n2000.tdm")
    ap = procs["cluster_ap"]
    return hca_matches_scipy(m, k, wd / "hca.csv") + [
        ap_converged(ap.stdout, ap.stderr, wd / "ap.csv"),
        roundtrip(wd / "n2000.tdm"),
        criteria_rows(wd / "criteria.csv", k_max),
    ]


def kernel_checks(wd: Path, walks: list, done: list[str], seed: int) -> list[tuple[str, bool, str]]:
    out = [readme_answers()]
    mats = {name: load_matrix(wd / f"{name}.tdm") for name in done}
    for name, m in mats.items():
        out.append(entries_match_direct(m, walks, name, seed))
    if {"hausdorff", "frechet", "discrete_frechet"} <= mats.keys():
        out.append(frechet_sandwich(mats["hausdorff"], mats["frechet"], mats["discrete_frechet"]))
    if "dtw" in mats:
        out.append(roundtrip(wd / "dtw.tdm"))
    if "sspd" in mats:
        out.append(workers_match_serial(mats["sspd"], walks))
    out.append(bundle_labels(seed))
    return out
