"""The benchmark's workloads: set-up and measured operation.

Each function runs inside one fresh child process (see
:mod:`perfbench.worker`).  ``timed`` is a context manager supplied by the
worker: the block under it is the measured work, traced when the run is
the traced one.  Output checks run outside the timed blocks and feed
:class:`Outcome`, whose passed/attempted ratio is ``ok_rate``.
"""

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

#: Exact references of the execution-driven small cells (repository file).
GOLDEN_SMALL = Path("benchmarks") / "golden" / "small.json"
#: Pinned values of the six replay_ablation points.
EXPECTED_ABLATION = Path(__file__).with_name("expected_replay_ablation.json")
#: Relative tolerance of every reference comparison; exact reproduction is
#: expected, the tolerance only absorbs float printing.
RTOL = 1e-9

EXECUTE_CELLS = [(w, m) for w in ("CG", "IS", "MG") for m in ("hybrid", "cache")]


class Outcome:
    """Checks, counts and timings one measured child reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.passed = 0
        self.failures: List[str] = []
        self.sweep_instructions = 0
        #: Distinct records of the run, as dicts (the modelled counts).
        self.records: Dict[str, Dict[str, Any]] = {}

    def add_record(self, label: str, record) -> None:
        if record is not None:
            self.sweep_instructions += record.instructions
            self.records[label] = record.as_dict()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if ok:
            self.passed += 1
        elif len(self.failures) < 20:
            self.failures.append(what)


def mismatches(got: Mapping[str, float], expected: Mapping[str, float],
               rel: float = RTOL) -> List[str]:
    """Fields of ``expected`` that ``got`` does not reproduce within ``rel``."""
    return [f"{key}: expected {expected[key]!r}, got {got.get(key)!r}"
            for key in expected
            if got.get(key) is None
            or not math.isclose(got[key], expected[key], rel_tol=rel,
                                abs_tol=1e-12)]


def reference_of(record) -> Dict[str, float]:
    return {"cycles": record.cycles, "instructions": record.instructions,
            "total_energy": record.total_energy}


def check_cell(out: Outcome, label: str, record,
               reference: Mapping[str, Mapping[str, float]],
               *problems: str) -> None:
    """One cell passes when ``record`` reproduces ``reference[label]`` and
    no other ``problems`` were seen."""
    bad = (["missing from the store"] if record is None
           else mismatches(reference_of(record), reference[label]))
    bad += [p for p in problems if p]
    out.check(not bad, f"{label}: {'; '.join(bad)}")


def ablation_points() -> List[Tuple[str, Dict[str, Any]]]:
    """MACHINE_ABLATION_POINTS on two cores."""
    from repro.harness.experiments import MACHINE_ABLATION_POINTS
    return [(label, dict(overrides, num_cores=2))
            for label, overrides in MACHINE_ABLATION_POINTS]


# -------------------------------------------------------------- execute_sweep
def setup_execute_sweep(root: Path) -> None:
    """Nothing beyond the imports every set-up makes: the CLI's start cost."""


def measure_execute_sweep(root: Path, timed, out: Outcome) -> None:
    import repro.harness.sweep as sweep_mod
    cache = root / "store"
    argv = ["--workloads", "CG,IS,MG", "--modes", "hybrid,cache",
            "--scales", "small", "--workers", "1", "--cache-dir", str(cache)]
    with timed():
        code = sweep_mod.main(argv)
    golden = json.loads(GOLDEN_SMALL.read_text())
    reader = sweep_mod.ResultStore(cache)
    for workload, mode in EXECUTE_CELLS:
        record = reader.get(sweep_mod.RunSpec.create(workload, mode, "small"))
        label = f"{workload}:{mode}"
        check_cell(out, label, record, golden,
                   code and f"sweep CLI exited {code}")
        out.add_record(label, record)


# ------------------------------------------------------------ replay_ablation
def setup_replay_ablation(root: Path) -> None:
    from repro.harness.sweep import ResultStore, RunSpec
    from repro.trace import TraceStore, ensure_trace, family_key_for
    ResultStore(root)
    _, overrides = ablation_points()[0]
    spec = RunSpec.create("CG", "hybrid", "medium", machine=overrides,
                          kind="replay")
    ensure_trace(family_key_for(spec, spec.resolve_machine()),
                 store=TraceStore(root))


def measure_replay_ablation(root: Path, timed, out: Outcome) -> None:
    import repro.harness.experiments as experiments
    import repro.harness.sweep as sweep_mod
    points = ablation_points()
    store = sweep_mod.ResultStore(root)
    with timed():
        result = experiments.ablation_machine_sweep(
            points=points, replay=True, store=store)
    cold = store.hits == 0
    pinned = json.loads(EXPECTED_ABLATION.read_text())
    reader = sweep_mod.ResultStore(root)
    for (label, overrides), point in zip(points, result):
        spec = sweep_mod.RunSpec.create("CG", "hybrid", "medium",
                                        machine=overrides, kind="replay")
        record = reader.get(spec)
        problems = [] if cold else ["result store hit at the start"]
        if record is not None and (point.cycles, point.energy) != (
                record.cycles, record.total_energy):
            problems.append(f"ablation_machine_sweep returned {point}")
        check_cell(out, label, record, pinned, *problems)
        out.add_record(label, record)


SETUP = {"execute_sweep": setup_execute_sweep,
         "replay_ablation": setup_replay_ablation}
MEASURE = {"execute_sweep": measure_execute_sweep,
           "replay_ablation": measure_replay_ablation}
