"""Outside-in span tracing of the program's layers.

The benchmark records spans from its own code: :class:`Tracer` swaps each
target function for a wrapper that records a span (name, start, end,
parent) around the call, at every place the program bound that function,
and puts every original back on exit.  Nothing in ``src/`` changes.
"""

import functools
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Target:
    """One public function (or method/property) of a layer to wrap."""

    span: str
    module: str
    qualname: str
    #: ``probe(args, result) -> {key: number}``; the numbers are summed per
    #: span name (e.g. instructions simulated, bytes encoded, store hits).
    probe: Optional[Callable[[tuple, Any], Dict[str, float]]] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the recorder's span list, -1 for a root
    extra: Optional[Dict[str, float]] = None


class SpanRecorder:
    """In-memory span list; single-threaded, spans nest by call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, probe=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.extra = probe(args, result)
            return result

        span_wrapper.__wrapped_original__ = fn
        return span_wrapper


def _wrap_descriptor(raw: Any, recorder: SpanRecorder, target: Target) -> Any:
    wrap = functools.partial(recorder.wrap, name=target.span,
                             probe=target.probe)
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    return wrap(raw)


def import_packages(prefixes: Sequence[str] = ("repro",)) -> None:
    """Import every module of the packages ``prefixes`` (but ``__main__``).

    Every benchmark child calls this before its timed block, traced or
    not, so both members of the traced run's overhead pair start with the
    same modules loaded and no timed block pays a lazy import.
    """
    for prefix in prefixes:
        package = importlib.import_module(prefix)
        for info in pkgutil.walk_packages(package.__path__, prefix + "."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)


def _resolve(target: Target):
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]
    return owner, attr, raw


class Tracer:
    """Re-usable ``with tracer:`` block that wraps every target, then
    restores the originals on exit.

    A module-level function is also rebound in every loaded module whose
    name starts with one of ``rebind_prefixes`` and that imported it by
    value (``from x import f``), so calls through those names are traced.
    The binding sites are found once, on first entry, after importing
    every module of those packages (so a later lazy import cannot bind an
    unwrapped original).
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target],
                 rebind_prefixes: Sequence[str] = ("repro",)):
        self.recorder = recorder
        self.targets = list(targets)
        self.prefixes = tuple(rebind_prefixes)
        #: (owner, attr, original, wrapped) for every binding site.
        self.patches: Optional[list] = None

    def _plan(self) -> list:
        import_packages(self.prefixes)
        patches = []
        for target in self.targets:
            owner, attr, raw = _resolve(target)
            wrapped = _wrap_descriptor(raw, self.recorder, target)
            patches.append((owner, attr, raw, wrapped))
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if (module is None or module is owner
                        or not name.startswith(self.prefixes)):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        patches.append((module, alias, raw, wrapped))
        return patches

    def __enter__(self) -> "Tracer":
        if self.patches is None:
            self.patches = self._plan()
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, raw, _ in reversed(self.patches):
            setattr(owner, attr, raw)
        return False


# ------------------------------------------------------------------ analysis
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - covered
            for span, covered in zip(spans, child)]


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds, outer seconds and probe sums.

    ``outer`` sums the durations of spans with no ancestor of the same
    name, so a recursive or nested call is not counted twice.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                           "outer_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            row["outer_s"] += span.end - span.start
            for key, value in (span.extra or {}).items():
                row[key] = row.get(key, 0.0) + value
    return table


def covered_seconds(spans: Sequence[Span],
                    unexplained: Sequence[str] = ()) -> float:
    """Wall-clock the spans explain: the sum of their self times, leaving
    out spans named in ``unexplained``.

    An entry point whose span is the whole timed block names no layer, so
    its own time (what no inner span covers) is left out: a layer the spans
    miss then lowers the coverage instead of hiding in the entry.
    """
    return sum(own for span, own in zip(spans, self_times(spans))
               if span.name not in unexplained)


def to_json(spans: Sequence[Span]) -> Dict[str, Any]:
    """Columnar, JSON-ready form of a span list (names interned)."""
    names: Dict[str, int] = {}
    return {
        "columns": ["name", "start", "end", "parent"],
        "rows": [[names.setdefault(s.name, len(names)), s.start, s.end,
                  s.parent] for s in spans],
        "names": list(names),
    }
