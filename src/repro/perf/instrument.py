"""Lightweight synthesis instrumentation: counters and phase seconds.

The synthesis hot path (Dijkstra pops, edge-cost evaluations, link
opens, cache hits) is far too hot for per-event callbacks, so the
design is pull-based and nearly free when disabled:

* hot loops accumulate plain local integers and flush them *once* per
  allocation attempt via :meth:`PerfRecorder.count`;
* the synthesis stages are spans (``partition``, ``allocate``,
  ``evaluate``); a finished one adds its duration to the recorder's
  phase seconds (see :data:`repro.obs.spans.PHASES`);
* the recorder is the ``perf`` slot of the run context
  (:mod:`repro.obs.context`); when it is empty (the default),
  instrumented code skips the flush entirely — zero dict traffic, zero
  timer syscalls.

Usage::

    from repro.perf import PerfRecorder, recording

    rec = PerfRecorder()
    with recording(rec):
        synthesize(spec)
    print(rec.snapshot())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..obs.context import scope


class PerfRecorder:
    """Accumulates named event counters and named phase wall-clocks.

    Counters are plain integer sums; phases are cumulative seconds (a
    phase entered N times accumulates N intervals, so per-candidate
    stages like ``allocation`` report their total share of the run).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.phase_seconds: Dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_phase(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to phase ``name`` (a finished stage span)."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view (JSON-ready) of everything recorded."""
        return {
            "counters": dict(self.counters),
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Counters and phase seconds both sum — the semantics of merging
        one more worker process's share of the run.  This is how
        parallel :class:`~repro.core.explore.ExplorationEngine` sweeps
        ship child-process counters back to the parent recorder.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.count(name, int(value))
        for name, seconds in snapshot.get("phase_seconds", {}).items():  # type: ignore[union-attr]
            self.add_phase(name, float(seconds))

    def reset(self) -> None:
        """Clear all counters and timers."""
        self.counters.clear()
        self.phase_seconds.clear()


@contextmanager
def recording(recorder: Optional[PerfRecorder] = None) -> Iterator[PerfRecorder]:
    """Install a recorder for the duration of a ``with`` block.

    Yields the recorder (a fresh one when none is given) and restores
    the previously installed recorder on exit, so scopes nest safely.
    """
    rec = recorder if recorder is not None else PerfRecorder()
    with scope(perf=rec):
        yield rec
