"""Unified instrumentation layer: metrics, phase profiling and logging.

Every long-lived subsystem (sweep engine, trace stores, replay engines,
multicore lane runner, shared uncore) reports through one *recorder*
interface defined here:

* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``enabled`` is False, so instrumented code can guard any non-trivial
  bookkeeping behind one attribute check.  Hooks are only placed at coarse
  granularity (per replay pass, per sweep cell, per C-kernel bounce — never
  inside per-instruction loops), which is what keeps the recorder-off path
  timing-identical: the CI perf guard (``python -m repro.obs overhead``)
  asserts the instrumented sweep stays within ~2% of the bare one.
* :class:`MetricsRecorder` — the recording implementation: monotonic
  counters (:meth:`~MetricsRecorder.incr`), last-value gauges, structured
  span events, and a wall-clock **phase profiler** — ``with rec.phase("x")``
  context spans that nest, attributing each phase both its inclusive
  (``total``) and exclusive (``self``) seconds.

The process-wide current recorder is read with :func:`get_recorder` and
installed with :func:`set_recorder` / the :func:`recording` context manager.
Module-level :func:`phase` / :func:`incr` / :func:`event` conveniences
delegate to the current recorder, so call sites never hold a stale one.

Structured logging rides alongside: :func:`get_logger` returns the shared
``"repro"`` logger, configured from ``REPRO_LOG=info|debug`` (silent when
the variable is unset — the default pipeline prints nothing new).

The simulated-time timeline recorder (Chrome trace-event export) lives in
:mod:`repro.obs.timeline`; the CLI (``report`` / ``overhead``) in
:mod:`repro.obs.__main__`.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

__all__ = [
    "MetricsRecorder",
    "NullRecorder",
    "event",
    "get_logger",
    "get_recorder",
    "incr",
    "phase",
    "recording",
    "set_recorder",
]


class _NullPhase:
    """Reusable no-op context manager handed out by the null recorder."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class NullRecorder:
    """The no-op default recorder.

    ``enabled`` is False so call sites can skip building event payloads
    entirely; the methods exist so unguarded coarse-grained hooks (one call
    per replay pass or sweep cell) stay branch-free.
    """

    enabled = False

    def incr(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def phase(self, name: str):
        return _NULL_PHASE


class _PhaseSpan:
    """One live ``with rec.phase(name)`` span (see :meth:`MetricsRecorder.phase`)."""

    __slots__ = ("_rec", "_name", "_start")

    def __init__(self, rec: "MetricsRecorder", name: str):
        self._rec = rec
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()
        self._rec._stack.append([self._name, 0.0])
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        rec = self._rec
        frame = rec._stack.pop()
        child_seconds = frame[1]
        entry = rec.phases.get(self._name)
        if entry is None:
            entry = rec.phases[self._name] = {"calls": 0, "total": 0.0,
                                              "self": 0.0}
        entry["calls"] += 1
        entry["total"] += elapsed
        entry["self"] += elapsed - child_seconds
        if rec._stack:
            rec._stack[-1][1] += elapsed
        return False


class MetricsRecorder:
    """Recording implementation: counters, gauges, events, phase profiling.

    Phase spans nest: a phase's ``total`` is its inclusive wall-clock, its
    ``self`` excludes the time spent inside phases opened while it was the
    innermost open span.  Directly recursive phases accumulate their
    inclusive time once per call, so a recursive ``total`` can exceed
    wall-clock (like CPU-seconds); ``self`` never double-counts.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.events: List[Dict[str, Any]] = []
        self.phases: Dict[str, Dict[str, float]] = {}
        self._stack: List[list] = []

    def incr(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def event(self, name: str, **fields: Any) -> None:
        fields["name"] = name
        self.events.append(fields)

    def phase(self, name: str) -> _PhaseSpan:
        return _PhaseSpan(self, name)

    # -- reporting ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of everything recorded (JSON-serialisable)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "phases": {name: dict(entry)
                       for name, entry in self.phases.items()},
            "events": list(self.events),
        }

    def phase_report(self) -> str:
        """Formatted per-phase breakdown, widest ``self`` time first."""
        if not self.phases:
            return "(no phases recorded)"
        rows = sorted(self.phases.items(),
                      key=lambda kv: kv[1]["self"], reverse=True)
        total_self = sum(entry["self"] for _, entry in rows) or 1.0
        width = max(len("phase"), max(len(name) for name, _ in rows))
        lines = [f"{'phase':<{width}s} {'calls':>6s} {'total s':>9s} "
                 f"{'self s':>9s} {'self %':>7s}"]
        lines.append("-" * (width + 35))
        for name, entry in rows:
            lines.append(
                f"{name:<{width}s} {entry['calls']:>6d} "
                f"{entry['total']:>9.3f} {entry['self']:>9.3f} "
                f"{100.0 * entry['self'] / total_self:>6.1f}%")
        return "\n".join(lines)


#: The process-wide current recorder.  Replay/sweep hooks read it through
#: :func:`get_recorder` at coarse granularity, so swapping it takes effect
#: immediately and the default costs one attribute load per hook.
_RECORDER: Any = NullRecorder()


def get_recorder():
    """The currently installed recorder (the shared no-op by default)."""
    return _RECORDER


def set_recorder(recorder) -> None:
    """Install ``recorder`` process-wide (``None`` restores the no-op)."""
    global _RECORDER
    _RECORDER = recorder if recorder is not None else NullRecorder()


@contextmanager
def recording(recorder: Optional[MetricsRecorder] = None):
    """Install ``recorder`` (a fresh :class:`MetricsRecorder` by default)
    for the duration of the block; yields it and restores the previous
    recorder afterwards."""
    rec = recorder if recorder is not None else MetricsRecorder()
    previous = _RECORDER
    set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


def phase(name: str):
    """``with obs.phase("decode"):`` — a span on the current recorder."""
    return _RECORDER.phase(name)


def incr(name: str, value: int = 1) -> None:
    _RECORDER.incr(name, value)


def event(name: str, **fields: Any) -> None:
    _RECORDER.event(name, **fields)


def degraded(component: str, reason: str, **fields: Any) -> None:
    """Record that ``component`` fell back to a degraded mode.

    One call per degradation occurrence: bumps ``degraded.<component>``,
    emits a ``degraded`` event carrying the reason, and warns through the
    shared logger so the fallback is visible even without a recorder.
    Components currently degrading this way: ``vector`` (no C kernel, or a
    C-kernel/prelower failure -> fused engine), ``store.result`` /
    ``store.artifact``
    (consecutive write errors -> memory-only).
    """
    _RECORDER.incr(f"degraded.{component}")
    _RECORDER.event("degraded", component=component, reason=reason, **fields)
    get_logger().warning("%s degraded: %s", component, reason)


# ------------------------------------------------------------------------ logging
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}
_LOGGER: Optional[logging.Logger] = None


def get_logger() -> logging.Logger:
    """The shared ``"repro"`` logger, configured once from ``REPRO_LOG``.

    Unset (or unrecognised) ``REPRO_LOG`` leaves the logger silent — a
    :class:`logging.NullHandler` and an effectively-off level, so callers
    can log unconditionally without changing default output.
    ``REPRO_LOG=info`` / ``debug`` attach a stderr handler with wall-clock
    timestamps.
    """
    global _LOGGER
    if _LOGGER is not None:
        return _LOGGER
    logger = logging.getLogger("repro")
    level = _LOG_LEVELS.get(os.environ.get("REPRO_LOG", "").strip().lower())
    if level is None:
        logger.addHandler(logging.NullHandler())
        logger.setLevel(logging.CRITICAL + 1)
    elif not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)-5s %(name)s: %(message)s",
            datefmt="%H:%M:%S"))
        logger.addHandler(handler)
        logger.setLevel(level)
    _LOGGER = logger
    return logger
