"""Run one trajkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec        # rewrite BENCHMARK.json

Run from the root of a checkout. trajkit is imported from the checkout's
``src``; without it the run fails before measuring anything. One run sets
the inputs up SETUPS times (``setup_s`` is their median), runs closed-loop
jobs one at a time until ``--seconds`` have passed, then checks the last
job's outputs. ``--trace 1`` then adds a traced job and the layer probes
and prints the per-layer metrics instead of the end-to-end ones. Work
files, the report and the spans go to ``.perfbench/<workload>/``. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from reference import REFERENCE_S, reference_time

SETUPS = 9
# Reference loops (see reference.py) timed between set-ups, and around each
# kernels-serial job, half before it and half after it.
SETUP_LOOPS = 3
REFERENCE_LOOPS = 10
# Scaled by the reference speed of the jobs: times multiply, rates divide.
SCALED = {"job_s": 1, "cluster_s": 1, "pairs_per_s": -1}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_checkout() -> bool:
    """Put the checkout's ``src`` first on the path and import trajkit from it."""
    if not (SRC / "trajkit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import trajkit
    return Path(trajkit.__file__).resolve().parent == (SRC / "trajkit").resolve()


def environment(workload: str) -> dict:
    import numpy as np

    import workloads

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu = "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "trajkit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    n = {"kernels-serial": workloads.KERNEL_N, "cluster-n2000": workloads.N_BLOBS}[workload]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "working_set": f"{n}x{n} float64 matrix = {n * n * 8 / 2**20:.2f} MiB",
    }


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return f"n={len(samples)}, too few for a tail percentile"
    ordered = sorted(samples)
    k = len(ordered) - 11
    return f"n={len(samples)}, p{100 * (k + 1) / len(ordered):.0f}={ordered[k]:.6g}"


class Workload:
    """Set-up, one job and the output checks of one workload."""

    def __init__(self, name: str, seed: int, wd: Path, env: dict) -> None:
        import workloads

        self.w = workloads
        self.name, self.seed, self.wd, self.env = name, seed, wd, env

    def setup(self) -> None:
        w = self.w
        {"kernels-serial": w.setup_kernels, "cluster-n2000": w.setup_blobs}[self.name](
            self.wd, self.seed)
        warm = w.spawn([sys.executable, "-c", "import trajkit.cli"], self.wd, self.env, "warm-up")
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up failed: {warm.stderr.strip()}")

    def job(self) -> dict:
        """Run one job; returns its samples and ops (name, ok, detail).

        A kernels-serial job also returns the reference loop's times, taken
        in this process just before and just after the job's own process.
        cluster-n2000 is bound by memory traffic, which the interpreter-bound
        loop does not track (scaling it doubled its spread), so it has none.
        """
        w = self.w
        if self.name == "cluster-n2000":
            out = w.cli_job(self.wd, self.env, w.blob_stages())
            procs = out["procs"]
            out["ops"] = [(f"cli {stage}", stage in procs and procs[stage].returncode == 0,
                           procs[stage].stderr.strip()[-500:] if stage in procs else "not run")
                          for stage, _ in w.blob_stages()]
            if not all(ok for _, ok, _ in out["ops"]):
                return {"ops": out["ops"]}
            out["cluster_s"] = sum(proc.wall_s for proc in procs.values())
            # No kernel runs here: the stored pairs that the three stages
            # each read, per second of those stages.
            n = w.N_BLOBS
            out["pairs_per_s"] = 3 * n * (n - 1) / 2 / out["cluster_s"]
            out["reference_s"] = []
            return out
        refs = [reference_time() for _ in range(REFERENCE_LOOPS // 2)]
        proc = w.spawn([sys.executable, str(HERE / "workloads.py"), "kernels-job", str(self.wd)],
                       self.wd, self.env, "kernels-job")
        refs += [reference_time() for _ in range(REFERENCE_LOOPS // 2)]
        if proc.returncode != 0:
            return {"ops": [("kernels job process", False, proc.stderr.strip()[-500:])]}
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["ops"] = [tuple(op) for op in out["ops"]]
        if not out["done"]:
            return {"ops": out["ops"]}
        out["pairs_per_s"] = out["pairs"] / out["matrix_s"]
        out["reference_s"] = refs
        return out

    def check(self, last: dict) -> list[tuple[str, bool, str]]:
        import checks

        w = self.w
        if self.name == "kernels-serial":
            return checks.kernel_checks(self.wd, w.load_walks(self.wd), last["done"], self.seed) + [
                checks.result("trajkit never imports scipy", not last["scipy_imported"],
                              "scipy in sys.modules of the job process")]
        return checks.blob_checks(self.wd, last["procs"], w.BLOB_K, w.BLOB_K_MAX)

    def traced(self, untraced_job_s: float) -> dict[str, float]:
        """One traced job, the in-process replay of its CLI stages, the probes."""
        import layers
        from spans import Tracer, layer_self_times

        w = self.w
        tracer = Tracer()
        with tracer.span(f"job.{self.name}"):
            if self.name == "kernels-serial":
                job_s = w.kernels_job(self.wd, tracer)["job_s"]
            else:
                out = w.cli_job(self.wd, self.env, w.blob_stages(), tracer)
                job_s = out["job_s"]
        if self.name == "cluster-n2000":
            for stage, args in w.blob_stages():
                w.replay(stage, args, self.wd, tracer, out["span_ids"][stage])
        matrix = "dtw.tdm" if self.name == "kernels-serial" else "n2000.tdm"
        metrics = layers.probe_all(self.seed, self.wd, self.env, self.wd / matrix, tracer)
        selfs = layer_self_times(tracer.spans, layers.kernel_share(
            metrics["matrix.loop_overhead_us_per_pair"]))
        for layer in spec.LAYERS:
            metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        metrics["trace.overhead_s"] = job_s - untraced_job_s
        metrics["trace.spans"] = float(len(tracer.spans))
        tracer.write(self.wd / "spans.jsonl")
        return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wd = ROOT / ".perfbench" / workload
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    bench = Workload(workload, seed, wd, env)

    setups, setup_refs = [], []
    for _ in range(SETUPS):
        setup_refs += [reference_time() for _ in range(SETUP_LOOPS)]
        t0 = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - t0)
    setup_refs += [reference_time() for _ in range(SETUP_LOOPS)]

    jobs = []
    ops: list[tuple[str, bool, str]] = []
    t0 = time.perf_counter()
    while not jobs or time.perf_counter() - t0 < seconds:
        job = bench.job()
        ops += job["ops"]
        if "job_s" not in job:
            break
        jobs.append(job)
    if jobs:
        try:
            ops += bench.check(jobs[-1])
        except Exception as exc:  # output the checks cannot even read is a failure
            ops.append(("output checks", False, f"{type(exc).__name__}: {exc}"))

    samples = {name: [j[name] for j in jobs]
               for name in ("job_s", "pairs_per_s", "cluster_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    raw = {name: statistics.median(values) for name, values in samples.items() if values}
    # The loop's time flips between a fast and a slow state many times a
    # second on a busy host. A job's time integrates those states, so its
    # match is the mean loop time over the whole run, not a median or the
    # loops around one job. Set-up is scaled by the loops between set-ups.
    refs = [t for j in jobs for t in j["reference_s"]]
    speed = REFERENCE_S / statistics.fmean(refs) if refs else None
    setup_speed = REFERENCE_S / statistics.fmean(setup_refs)
    factors = {"setup_s": setup_speed}
    if speed:
        factors.update({name: speed ** power for name, power in SCALED.items()})
    metrics = {name: value * factors.get(name, 1.0) for name, value in raw.items()}
    if trace and jobs:
        metrics = bench.traced(raw["job_s"])
    wanted = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    metrics = {name: metrics[name] for name in wanted if name in metrics}
    failed = sum(not ok for _, ok, _ in ops)

    env_info = environment(workload)
    print(f"trajkit benchmark: workload {workload}, seed {seed}, {len(jobs)} jobs in "
          f"{seconds:g} s, trace {int(trace)}")
    for key, value in env_info.items():
        print(f"  {key}: {value}")
    for what, loops in (("jobs", refs), ("set-ups", setup_refs)):
        if loops:
            print(f"  reference speed of the {what} (REFERENCE_S / mean loop time): "
                  f"{REFERENCE_S / statistics.fmean(loops):.4f}, {len(loops)} loops, "
                  f"from {min(loops) * 1e3:.1f} to {max(loops) * 1e3:.1f} ms")
    for name, values in samples.items():
        if values and name in metrics:
            scaled = (f" at reference speed; measured {raw[name]:.6g}"
                      if name in factors else "")
            print(f"  {name}: median {metrics[name]:.6g} {spec.UNITS[name]}{scaled} ({tail(values)})")
    if trace:
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {spec.UNITS[name]}")
    print(f"  failed_ops: {failed}/{len(ops)}")
    for name, ok, detail in ops:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    (wd / "report.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "environment": env_info, "samples": samples,
         "reference_s": refs, "setup_reference_s": setup_refs, "metrics": metrics, "ops": ops}, indent=2) + "\n", encoding="utf-8")

    complete = len(metrics) == len(wanted)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if complete else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not import_checkout():
        print(f"error: no trajkit package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
