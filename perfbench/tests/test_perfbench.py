"""Tests of the benchmark's own parts: span wrappers and their removal,
self-time arithmetic, the percentile rule and the output checks."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from perfbench import layers, run, spans, stats, workloads  # noqa: E402


# ------------------------------------------------------------------ wrappers
def _binding_sites(tracer):
    tracer.patches = tracer._plan()
    return [(owner, attr, raw) for owner, attr, raw, _ in tracer.patches]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)


def test_traced_run_restores_every_public_function(tmp_path):
    import repro.harness.experiments as experiments
    from repro.harness.sweep import ResultStore
    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder, layers.TARGETS)
    sites = _binding_sites(tracer)
    assert len(sites) > len(layers.TARGETS)      # by-value imports found
    store = ResultStore(tmp_path)
    with tracer:
        assert all(_current(o, a) is not raw for o, a, raw in sites)
        experiments.ablation_machine_sweep(
            scale="tiny", points=[("paper", {})], replay=True, store=store)
    assert all(_current(o, a) is raw for o, a, raw in sites)
    names = {span.name for span in recorder.spans}
    assert {layers.ENTRY, "sweep.store_get", "capture", "exec",
            "trace_store.put", "replay.replay_trace"} <= names
    assert recorder.spans[0].name == layers.ENTRY
    table = spans.aggregate(recorder.spans)
    assert (table["capture"]["instructions"]
            == table["replay.replay_trace"]["instructions"])


def test_wrappers_are_restored_when_the_block_raises():
    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder, layers.TARGETS)
    sites = _binding_sites(tracer)
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert all(_current(o, a) is raw for o, a, raw in sites)


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: (inner(), inner()), "outer")
    outer()
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert spans.self_times(recorder.spans) == [3.0, 1.0, 1.0]


# ---------------------------------------------------------- self-time rules
def _synthetic():
    S = spans.Span
    return [S("root", 0.0, 10.0, -1),
            S("a", 1.0, 4.0, 0),
            S("a", 2.0, 3.0, 1),            # nested same-name call
            S("b", 5.0, 9.0, 0, {"bytes": 7.0}),
            S("root", 12.0, 13.0, -1)]


def test_self_times_subtract_direct_children_only():
    assert spans.self_times(_synthetic()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_aggregate_counts_nested_same_name_calls_once_in_outer():
    table = spans.aggregate(_synthetic())
    assert table["a"] == {"calls": 2, "self_s": 3.0, "outer_s": 3.0}
    assert table["b"] == {"calls": 1, "self_s": 4.0, "outer_s": 4.0,
                          "bytes": 7.0}
    assert table["root"]["outer_s"] == 11.0
    # Self times reconcile with the wall-clock the roots cover.
    assert sum(r["self_s"] for r in table.values()) == 11.0
    assert spans.covered_seconds(_synthetic()) == 11.0


def test_an_entry_span_own_time_counts_as_unexplained():
    # root's own 3 s + 1 s are time no inner layer explains.
    assert spans.covered_seconds(_synthetic(), ("root",)) == 7.0


# ---------------------------------------------------------- percentile rule
def test_p99_is_refused_below_1000_samples():
    assert stats.min_samples_for(99) == 1000
    with pytest.raises(ValueError, match="at least 1000"):
        stats.tail_percentile(list(range(999)), 99)
    assert stats.tail_percentile(list(range(1, 1001)), 99) == 990
    assert stats.tail_percentile([5.0] * 20, 50) == 5.0


# ------------------------------------------------------------ output checks
def _records_from(reference):
    return {label: SimpleNamespace(**values)
            for label, values in reference.items()}


@pytest.mark.parametrize("path", [REPO / workloads.GOLDEN_SMALL,
                                  workloads.EXPECTED_ABLATION])
def test_perturbed_reference_lowers_ok_rate(path):
    reference = json.loads(path.read_text())
    labels = (["CG:hybrid", "CG:cache", "IS:hybrid", "IS:cache",
               "MG:hybrid", "MG:cache"] if "golden" in str(path)
              else list(reference))
    records = _records_from(reference)

    def ok_rate(ref):
        out = workloads.Outcome()
        for label in labels:
            workloads.check_cell(out, label, records[label], ref)
        return out.passed / out.attempted

    assert ok_rate(reference) == 1.0
    perturbed = json.loads(path.read_text())
    perturbed[labels[0]]["cycles"] *= 1 + 1e-6
    assert ok_rate(perturbed) == (len(labels) - 1) / len(labels)
    within = json.loads(path.read_text())
    within[labels[0]]["total_energy"] *= 1 + 1e-12    # float printing
    assert ok_rate(within) == 1.0


def test_a_missing_record_or_other_problem_fails_the_cell():
    out = workloads.Outcome()
    ref = {"x": {"cycles": 1.0, "instructions": 2, "total_energy": 3.0}}
    workloads.check_cell(out, "x", None, ref)
    workloads.check_cell(out, "x", SimpleNamespace(**ref["x"]), ref,
                         "result store hit at the start")
    workloads.check_cell(out, "x", SimpleNamespace(**ref["x"]), ref, "")
    assert (out.passed, out.attempted) == (1, 3)


# ------------------------------------------------------------------ contract
def test_benchmark_json_lists_the_common_per_layer_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(
        layers.COMMON_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.E2E_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_program_switches(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    assert run.main(["--workload", "execute_sweep"]) == 2
    assert "REPRO_NO_CKERNEL" in capsys.readouterr().err


def test_run_refuses_a_directory_without_the_program(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "execute_sweep"]) == 2
