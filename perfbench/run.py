"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every set-up and every measured operation
happens in a fresh child process (:mod:`perfbench.worker`), one at a time,
with a cache root this script owns under ``.perfbench/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import layers, stats  # noqa: E402

WORKLOADS = ("execute_sweep", "replay_ablation")
#: Set-ups per run; setup_s is their median.
SETUPS = {"execute_sweep": 7, "replay_ablation": 3}
#: Variables that change what the program does; a run refuses them.
FORBIDDEN_ENV = ("REPRO_FAULTS", "REPRO_NO_CKERNEL", "REPRO_NO_ARTIFACTS",
                 "REPRO_LOG", "REPRO_CACHE_DIR")
WORK = Path(".perfbench")
KERNEL_TIMEOUT = 600.0
#: End-to-end metrics (BENCHMARK.json's list) and their units.
E2E_UNITS = {"setup_s": "s", "sim_kips": "kinstr/s", "peak_rss_mb": "MB",
             "ok_rate": "ratio"}


def run_budget(seconds: float) -> float:
    """Wall budget of one run after the kernel build (which may take longer
    the first time, while it compiles): the set-ups, and measured children
    until ``seconds`` of sweeps are done, the last of which may overrun it
    by up to one sweep."""
    return 90.0 + 3.0 * seconds


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CKERNEL_CACHE"] = str((WORK / "ckernel").resolve())
    # One string-hash layout for every child, so dict and set timings do
    # not vary from process to process (results never depend on it).
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns worker children one at a time inside ``run_dir``."""

    def __init__(self, workload: str, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.env = child_env()
        self.count = 0
        self.deadline = time.monotonic() + KERNEL_TIMEOUT

    def child(self, phase: str, root=None, trace=False) -> dict:
        self.count += 1
        out = self.run_dir / f"{self.count:02d}-{phase}.json"
        log = self.run_dir / f"{self.count:02d}-{phase}.log"
        cmd = [sys.executable, "-m", "perfbench.worker", phase,
               "--workload", self.workload, "--out", str(out)]
        if root is not None:
            cmd += ["--root", str(root)]
        if trace:
            cmd.append("--trace")
        spawned = time.monotonic()
        with open(log, "wb") as fh:
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                      env=self.env,
                                      timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{phase} child overran the run's budget")
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{phase} child exited {proc.returncode}:\n{tail}")
        result = json.loads(out.read_text())
        result["spawned"] = spawned
        return result

    def setup(self, index: int, trace=False) -> tuple:
        root = self.run_dir / f"setup{index}"
        result = self.child("setup", root=root, trace=trace)
        return root, result["ready"] - result["spawned"], result

    def fresh_root(self, setup_root: Path, index: int) -> Path:
        """A measured child's cache root: the set-up state, untouched by any
        earlier measured child (execute_sweep starts from an empty one)."""
        root = self.run_dir / f"measure{index}"
        if self.workload == "replay_ablation":
            shutil.copytree(setup_root, root)
        return root


def interleaved(runner: Runner, seconds: float) -> tuple:
    """The run's set-ups and measured children, alternating, until every
    set-up is done and ``seconds`` of measured sweeps have passed.

    Each measured child sweeps a fresh copy of the latest set-up's root.
    Alternating spreads both kinds of sample over the whole run, so a
    change of host speed within it weighs on the medians less than it
    would on a block of set-ups followed by a block of sweeps.
    """
    setups, results, measured = [], [], 0.0
    while len(setups) < SETUPS[runner.workload] or measured < seconds:
        if len(setups) < SETUPS[runner.workload]:
            setups.append(runner.setup(len(setups)))
        if measured < seconds:
            result = runner.child("measure", root=runner.fresh_root(
                setups[-1][0], len(results)))
            results.append(result)
            measured += result["wall_s"]
    return setups, results


def check_counts(results) -> tuple:
    attempted = sum(r["attempted"] for r in results)
    failed = attempted - sum(r["passed"] for r in results)
    for r in results:
        for failure in r["failures"]:
            print(f"check failed: {failure}")
    return attempted, failed


def end_to_end(runner: Runner, seed: int, seconds: float) -> dict:
    setups, results = interleaved(runner, seconds)
    attempted, failed = check_counts(results)
    setup_s = [seconds for _, seconds, _ in setups]
    # One sim_kips value per cold sweep; the run reports their median.
    kips = [r["sweep_instructions"] / 1e3 / r["wall_s"] for r in results]
    metrics = {"setup_s": stats.median(setup_s),
               "sim_kips": stats.median(kips),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
               "ok_rate": (attempted - failed) / attempted}
    print(f"setup_s samples: {[round(s, 4) for s in setup_s]}; "
          f"sim_kips per sweep: {[round(k, 2) for k in kips]}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()},
            "host": results[-1]["host"]}


def sum_dicts(dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0) + value
    return total


def merge_tables(*tables) -> dict:
    """Sum ``{name: {key: number}}`` tables (span tables, obs phases)."""
    names = {name for table in tables for name in table}
    return {name: sum_dicts(t[name] for t in tables if name in t)
            for name in names}


def merge_obs(*snapshots) -> dict:
    return {"counters": sum_dicts(s["counters"] for s in snapshots),
            "phases": merge_tables(*(s["phases"] for s in snapshots))}


def per_layer(runner: Runner, seed: int, seconds: float) -> dict:
    """The traced run: a traced set-up, then one untraced and one traced
    measured child from identical state; per-layer metrics cover set-up
    plus run, coverage and overhead the measured run."""
    setup_root, _, setup = runner.setup(0, trace=True)
    plain = runner.child("measure", root=runner.fresh_root(setup_root, 0))
    traced = runner.child("measure", root=runner.fresh_root(setup_root, 1),
                          trace=True)
    attempted, failed = check_counts([plain, traced])
    table = merge_tables(setup["span_table"], traced["span_table"])
    snapshot = merge_obs(setup["obs"], traced["obs"])
    metrics = layers.layer_metrics(
        table, snapshot, traced["modelled"],
        setup["artifact_bytes"] + traced["artifact_bytes"])
    wall = traced["wall_s"]
    metrics["bench.span_coverage"] = traced["covered_s"] / wall
    metrics["bench.other_s"] = wall - traced["covered_s"]
    metrics["bench.tracing_overhead_pct"] = 100.0 * (
        wall / plain["wall_s"] - 1.0)
    missing = [m for m in layers.COMMON_METRICS if m not in metrics]
    if missing:
        raise BenchError(f"traced run lacks per-layer metrics {missing}")
    if metrics["degraded.count"] > 0:
        print(f"check failed: {metrics['degraded.count']} degraded "
              f"fallback(s) in the traced run")
        failed += 1
    out_path = WORK / "traces" / f"{runner.workload}-seed{seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "workload": runner.workload, "seed": seed, "host": traced["host"],
        "measured_wall_s": wall, "untraced_wall_s": plain["wall_s"],
        "per_layer": metrics, "span_table": table, "obs": snapshot,
        "spans": {"setup": setup["spans"], "run": traced["spans"]}}))
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:16.6g} {layers.unit_of(name)}")
    print(f"spans and per-layer table written to {out_path}")
    # The result line carries BENCHMARK.json's per_layer list (the metrics
    # every workload has); the lines above and the JSON file carry all.
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": layers.unit_of(k)}
                        for k in layers.COMMON_METRICS},
            "host": traced["host"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src/repro/__init__.py").is_file()
            and Path("benchmarks/golden/small.json").is_file()):
        print("error: run from the repository root (src/repro and "
              "benchmarks/golden/small.json not found)", file=sys.stderr)
        return 2
    bad = [var for var in FORBIDDEN_ENV if os.environ.get(var) is not None]
    if bad:
        print(f"error: unset {', '.join(bad)}; the benchmark measures the "
              f"program's default behaviour", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, run_dir)
    try:
        runner.child("kernel")
        runner.deadline = time.monotonic() + run_budget(args.seconds)
        report = (per_layer if args.trace else end_to_end)(
            runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"host: {json.dumps(report['host'])}")
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
