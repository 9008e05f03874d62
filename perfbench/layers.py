"""The program's layers as the benchmark sees them, and their metrics.

:data:`TARGETS` names the public functions the traced run wraps (see
:mod:`perfbench.spans`); :func:`layer_metrics` turns the span table, the
``repro.obs`` snapshot and the measured records into the per-layer metrics
listed in README.md.  A layer that did not run in a workload is left out
rather than reported as costing nothing.
"""

from typing import Any, Dict, Iterable, Mapping

from perfbench.spans import Target


def _instructions(args, result):
    return {"instructions": float(result.instructions)}


def _nested_instructions(args, result):
    # capture_workload returns (RunResult, trace); replay_trace a RunResult.
    run = result[0] if isinstance(result, tuple) else result
    return {"instructions": float(run.sim.instructions)}


def _encoded(args, result):
    return {"bytes": float(len(result)),
            "instructions": float(args[0].instructions)}


def _hit(args, result):
    return {"hits": float(result is not None)}


#: Span of the user entry points the workloads call.  Each measured block
#: is one such call, so the entry's own time is the part of the wall that
#: no layer below it explains (see :func:`perfbench.spans.covered_seconds`).
ENTRY = "sweep.entry"

TARGETS = (
    # harness.sweep: the two user entry points, the engine and the store.
    Target(ENTRY, "repro.harness.sweep", "main"),
    Target(ENTRY, "repro.harness.experiments", "ablation_machine_sweep"),
    Target("sweep.run_sweep_report", "repro.harness.sweep",
           "run_sweep_report"),
    Target("sweep.execute_spec", "repro.harness.sweep", "execute_spec"),
    Target("sweep.spec_hash", "repro.harness.sweep", "RunSpec.spec_hash"),
    Target("sweep.store_get", "repro.harness.sweep", "ResultStore.get", _hit),
    Target("sweep.store_put", "repro.harness.sweep", "ResultStore.put"),
    Target("sweep.record_decode", "repro.harness.sweep",
           "RunRecord.from_dict"),
    Target("sweep.persist_stats", "repro.trace.store",
           "persist_sidecar_stats"),
    # workloads, compiler
    Target("workloads.get_workload", "repro.workloads", "get_workload"),
    Target("compiler.compile_kernel", "repro.compiler.codegen",
           "compile_kernel"),
    # execution engine (cpu/mem/lm/core), single- and multicore
    Target("exec", "repro.cpu.core", "Core.run", _instructions),
    Target("exec", "repro.harness.runner", "run_parallel_lanes",
           _instructions),
    Target("energy.compute", "repro.energy.model", "EnergyModel.compute"),
    # trace subsystem
    Target("capture", "repro.trace.capture", "capture_workload",
           _nested_instructions),
    Target("format.encode", "repro.trace.format", "Trace.to_bytes", _encoded),
    Target("format.encode", "repro.trace.format", "MulticoreTrace.to_bytes",
           _encoded),
    Target("format.decode", "repro.trace.format", "parse_trace_bytes"),
    Target("trace_store.get", "repro.trace.store", "TraceStore.get"),
    Target("trace_store.put", "repro.trace.store", "TraceStore.put"),
    Target("replay.replay_trace", "repro.trace.replay", "replay_trace",
           _nested_instructions),
)

#: Metrics every workload reports (its layers run in each of them); the
#: ``per_layer`` list of BENCHMARK.json.  The others appear where their
#: layer runs.
COMMON_METRICS = (
    "sweep.run_self_s", "sweep.spec_hash_s", "sweep.spec_hash_calls",
    "sweep.store_get_s", "sweep.store_get_calls", "sweep.store_hit_ratio",
    "sweep.record_decode_s", "sweep.persist_stats_s",
    "sweep.persist_stats_calls", "sweep.store_put_s", "sweep.store_put_calls",
    "workloads.get_workload_s", "compiler.compile_kernel_s",
    "exec.s", "exec.us_per_instr",
    "sim.cycles", "cpu.instructions", "cpu.mispredictions",
    "mem.l1_accesses", "mem.l2_misses", "mem.bus_transactions",
    "lm.accesses", "lm.dma_lines", "core.directory_lookups",
    "energy.compute_s", "degraded.count",
    "bench.span_coverage", "bench.other_s", "bench.tracing_overhead_pct",
)

#: Units of every per-layer metric (``_s`` seconds, ``_calls`` counts...).
def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or name == "exec.s" or name == "capture.s":
        return "s"
    if name.endswith("kips"):
        return "kinstr/s"
    if name.endswith("us_per_instr"):
        return "us/instr"
    if name.endswith("bytes_per_instr"):
        return "B/instr"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if "ratio" in name or name.endswith("coverage"):
        return "ratio"
    if name == "sim.cycles":
        return "cycles"
    return "count"


#: Artifact kinds and the counters their memo/disk lookups increment.
_ARTIFACT_KINDS = {"decode": "replay.decode", "oracle": "vector.oracle",
                   "flags": "vector.flags", "prelower": "vector.prelower"}


def modelled_counts(records: Iterable[Any]) -> Dict[str, float]:
    """The modelled design's statistics summed over distinct records."""
    out = dict.fromkeys(("sim.cycles", "cpu.instructions",
                         "cpu.mispredictions", "mem.l1_accesses",
                         "mem.l2_misses", "mem.bus_transactions",
                         "lm.accesses", "lm.dma_lines",
                         "core.directory_lookups"), 0.0)
    for rec in records:
        mem = rec["memory_stats"]
        levels = mem.get("hierarchy", {})
        out["sim.cycles"] += rec["cycles"]
        out["cpu.instructions"] += rec["instructions"]
        out["cpu.mispredictions"] += rec["mispredictions"]
        out["mem.l1_accesses"] += levels.get("L1", {}).get("accesses", 0)
        out["mem.l2_misses"] += levels.get("L2", {}).get("misses", 0)
        out["mem.bus_transactions"] += levels.get("bus_transactions", 0)
        out["lm.accesses"] += mem.get("lm_accesses", 0)
        out["lm.dma_lines"] += mem.get("dma", {}).get("lines_transferred", 0)
        out["core.directory_lookups"] += mem.get("directory", {}).get(
            "lookups", 0)
    return out


def layer_metrics(table: Mapping[str, Mapping[str, float]],
                  obs: Mapping[str, Any], modelled: Mapping[str, float],
                  artifact_bytes: int) -> Dict[str, float]:
    """Per-layer metrics from the span ``table`` (set-up plus run), the
    ``repro.obs`` snapshot and the measured run's :func:`modelled_counts`."""
    def row(name):
        return table.get(name, {})

    def self_s(*names):
        return sum(row(n).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(row(n).get("calls", 0) for n in names)

    counters = obs.get("counters", {})
    phases = obs.get("phases", {})

    def phase_s(name):
        return phases.get(name, {}).get("self", 0.0)

    get_calls = calls("sweep.store_get")
    m: Dict[str, float] = {
        "sweep.run_self_s": self_s("sweep.run_sweep_report",
                                   "sweep.execute_spec"),
        "sweep.spec_hash_s": self_s("sweep.spec_hash"),
        "sweep.spec_hash_calls": calls("sweep.spec_hash"),
        "sweep.store_get_s": self_s("sweep.store_get"),
        "sweep.store_get_calls": get_calls,
        "sweep.store_hit_ratio": (row("sweep.store_get").get("hits", 0.0)
                                  / get_calls if get_calls else 0.0),
        "sweep.record_decode_s": self_s("sweep.record_decode"),
        "sweep.persist_stats_s": self_s("sweep.persist_stats"),
        "sweep.persist_stats_calls": calls("sweep.persist_stats"),
        "sweep.store_put_s": self_s("sweep.store_put"),
        "sweep.store_put_calls": calls("sweep.store_put"),
    }
    if calls("workloads.get_workload", "compiler.compile_kernel"):
        m["workloads.get_workload_s"] = self_s("workloads.get_workload")
        m["compiler.compile_kernel_s"] = self_s("compiler.compile_kernel")
    if calls("exec"):
        m["exec.s"] = self_s("exec")
        m["exec.us_per_instr"] = (1e6 * m["exec.s"]
                                  / row("exec").get("instructions", 1.0))
    m.update(modelled)
    if calls("energy.compute"):
        m["energy.compute_s"] = self_s("energy.compute")
    if calls("capture"):
        capture = row("capture")
        m["capture.s"] = capture["outer_s"]
        m["capture.kips"] = (capture.get("instructions", 0.0) / 1e3
                             / capture["outer_s"])
    if calls("format.encode", "format.decode"):
        encode = row("format.encode")
        m["format.encode_s"] = self_s("format.encode")
        m["format.decode_s"] = self_s("format.decode")
        if encode:
            m["format.trace_bytes"] = encode.get("bytes", 0.0)
            m["format.bytes_per_instr"] = (encode.get("bytes", 0.0)
                                           / encode.get("instructions", 1.0))
    if calls("trace_store.get", "trace_store.put"):
        m["trace_store.get_s"] = self_s("trace_store.get")
        m["trace_store.get_calls"] = calls("trace_store.get")
        m["trace_store.put_s"] = self_s("trace_store.put")
    if calls("replay.replay_trace"):
        replay = row("replay.replay_trace")
        m["replay.replay_trace_s"] = replay["outer_s"]
        m["replay.kips"] = (replay.get("instructions", 0.0) / 1e3
                            / replay["outer_s"])
        for phase in ("timing", "decode", "program", "l1i"):
            m[f"replay.{phase}_s"] = phase_s(f"replay.{phase}")
        # The vector engine and the artifact cache sit under replay_trace:
        # they are on this workload's path (at zero cost while the sweep
        # path replays through the fused engine).
        for phase in ("oracle", "flags", "prelower", "timing"):
            m[f"vector.{phase}_s"] = phase_s(f"vector.{phase}")
        m["vector.ckernel_epochs"] = counters.get("vector.ckernel.epochs", 0)
        m["vector.bounces"] = sum(v for k, v in counters.items()
                                  if k.startswith("vector.bounce."))
        for kind, prefix in _ARTIFACT_KINDS.items():
            hits = counters.get(f"{prefix}.hit", 0)
            lookups = hits + counters.get(f"{prefix}.miss", 0)
            m[f"artifacts.hit_ratio.{kind}"] = hits / lookups if lookups else 0.0
        m["artifacts.disk_hits"] = sum(v for k, v in counters.items()
                                       if k.endswith(".disk.hit"))
        m["artifacts.bytes_written"] = artifact_bytes
    m["degraded.count"] = sum(v for k, v in counters.items()
                              if k.startswith("degraded."))
    return m
