"""One child process of a benchmark run: ``kernel``, ``setup`` or ``measure``.

Run from the repository root as ``python3 -m perfbench.worker <phase>
--workload W --root DIR --out FILE [--trace]``; the
orchestrator (:mod:`perfbench.run`) supplies the environment.  The result
is written as JSON to ``--out``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def host_info() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def artifact_bytes(root: Path) -> int:
    from repro.trace.artifacts import ARTIFACT_SUBDIR
    from repro.trace.store import TRACE_SUBDIR
    path = root / TRACE_SUBDIR / ARTIFACT_SUBDIR
    return dir_bytes(path) if path.is_dir() else 0


class Timed:
    """``with timed():`` — a measured block, traced if asked; ``seconds``
    sums the blocks."""

    def __init__(self, recorder=None):
        from perfbench.layers import TARGETS
        from perfbench.spans import Tracer
        self.tracer = (Tracer(recorder, TARGETS) if recorder is not None
                       else contextlib.nullcontext())
        self.seconds = 0.0

    @contextlib.contextmanager
    def __call__(self):
        with self.tracer:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - start


def build_kernel() -> dict:
    """Compile (or load) the vector replay C kernel in the benchmark's own
    cache with one vector replay of a tiny trace; refuse a fallback."""
    from repro import obs
    from repro.trace import artifacts, capture_workload, replay_trace
    from repro.trace import _ckernel
    _, trace = capture_workload("CG", "hybrid", "tiny")
    # No disk artifacts: they would land in the program's default cache
    # root, outside the run's own directory.
    with obs.recording() as rec, artifacts.scoped(disabled=True):
        replay_trace(trace, engine="vector")
    degraded = {k: v for k, v in rec.counters.items()
                if k.startswith("degraded.")}
    if _ckernel.load() is None or degraded or not rec.counters.get(
            "vector.ckernel.epochs"):
        raise SystemExit(f"vector C kernel unavailable in "
                         f"{os.environ.get('REPRO_CKERNEL_CACHE')} "
                         f"(degraded: {degraded})")
    return {"ckernel": True}


def recorders(trace: bool):
    """(span recorder, obs recording context) of a traced child, or
    (None, a no-op context) of an untraced one."""
    if not trace:
        return None, contextlib.nullcontext()
    from repro import obs
    from perfbench.spans import SpanRecorder
    return SpanRecorder(), obs.recording()


def run_setup(args) -> dict:
    from perfbench import spans, workloads
    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    recorder, obs_ctx = recorders(args.trace)
    timed = Timed(recorder)
    spans.import_packages()
    with obs_ctx as obs_rec, timed():
        workloads.SETUP[args.workload](root)
    out = {"ready": time.monotonic()}
    if recorder is not None:
        out.update(traced_output(recorder, obs_rec, artifact_bytes(root)))
    return out


def traced_output(recorder, obs_rec, art_bytes: int) -> dict:
    from perfbench import spans
    from perfbench.layers import ENTRY
    return {"span_table": spans.aggregate(recorder.spans),
            "covered_s": spans.covered_seconds(recorder.spans, (ENTRY,)),
            "spans": spans.to_json(recorder.spans),
            "obs": obs_rec.snapshot(), "artifact_bytes": art_bytes}


def run_measure(args) -> dict:
    from perfbench import spans, workloads
    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    art_before = artifact_bytes(root)
    recorder, obs_ctx = recorders(args.trace)
    timed = Timed(recorder)
    outcome = workloads.Outcome()
    spans.import_packages()
    with obs_ctx as obs_rec:
        workloads.MEASURE[args.workload](root, timed, outcome)
    out = {"wall_s": timed.seconds,
           "sweep_instructions": outcome.sweep_instructions,
           "attempted": outcome.attempted, "passed": outcome.passed,
           "failures": outcome.failures,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        from perfbench.layers import modelled_counts
        out["modelled"] = modelled_counts(outcome.records.values())
        out.update(traced_output(recorder, obs_rec,
                                 artifact_bytes(root) - art_before))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    parser.add_argument("phase", choices=("kernel", "setup", "measure"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--root", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    host = host_info()
    if args.phase == "kernel":
        out = build_kernel()
    elif args.phase == "setup":
        out = run_setup(args)
    else:
        out = run_measure(args)
    out["host"] = host
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
