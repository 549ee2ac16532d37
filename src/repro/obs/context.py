"""The run context: the one active instance behind every observer.

A :class:`RunContext` has four slots, each ``None`` until a scope fills
it:

* ``perf`` — a :class:`~repro.perf.PerfRecorder` (hot-path counters and
  the phase seconds of finished synthesis spans);
* ``tracer`` — a :class:`~repro.obs.spans.SpanRecorder`;
* ``bus`` — an :class:`~repro.obs.stream.EventBus`;
* ``store`` — a :class:`~repro.cache.store.CacheStore`.

Instrumented code reads :func:`current` — one global read — and checks
the slot it needs, so a run with nothing installed pays exactly that.
:func:`scope` installs a copy of the current context with some slots
replaced and restores the previous one on exit, so scopes nest;
``recording()``, ``tracing()``, ``streaming()`` and ``caching()`` are
its one-slot forms.

A pool worker starts from :func:`reset` (the store only, nothing
inherited from the parent), runs each task under fresh instances of
the observer slots the parent has active, and ships one
:meth:`RunContext.snapshot`; the parent folds it in with one
:meth:`RunContext.merge`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from ..cache.store import CacheStore
    from ..perf.instrument import PerfRecorder
    from .spans import SpanRecorder
    from .stream import EventBus


class RunContext:
    """The four slots, plus the span stream that numbers open spans.

    Never mutated after construction; scopes install a new one.
    ``spans`` is the tracer, or with no tracer a private
    :class:`~repro.obs.spans.SpanRecorder` whose records are never kept,
    shared by nested contexts so span ids stay unique per process.
    """

    __slots__ = ("perf", "tracer", "bus", "store", "observed", "spans", "_cache_base")

    def __init__(
        self,
        perf: Optional["PerfRecorder"] = None,
        tracer: Optional["SpanRecorder"] = None,
        bus: Optional["EventBus"] = None,
        store: Optional["CacheStore"] = None,
        spans: Optional["SpanRecorder"] = None,
    ) -> None:
        self.perf = perf
        self.tracer = tracer
        self.bus = bus
        self.store = store
        #: Whether spans open at all (any observer slot filled).
        self.observed = perf is not None or tracer is not None or bus is not None
        if tracer is not None:
            spans = tracer
        elif not self.observed:
            spans = None
        elif spans is None:
            from .spans import SpanRecorder

            spans = SpanRecorder()
        self.spans = spans
        #: Store counters at construction: :meth:`snapshot` ships the
        #: delta, since the store outlives the context.
        self._cache_base = store.stats.snapshot() if store is not None else None

    def observers(self) -> Tuple[str, ...]:
        """Names of the filled observer slots (what a worker re-creates)."""
        names = ("perf", "tracer", "bus")
        return tuple(name for name in names if getattr(self, name) is not None)

    def snapshot(self) -> Optional[Dict[str, object]]:
        """JSON-ready payload of what this context observed; ``None``
        when every slot is empty.

        Observer slots ship their whole contents (a worker fills fresh
        ones per task); the store ships its counter delta since this
        context was made.
        """
        payload: Dict[str, object] = {}
        if self.perf is not None:
            payload["perf"] = self.perf.snapshot()
        if self.tracer is not None:
            payload["spans"] = self.tracer.snapshot()
        if self.bus is not None:
            payload["events"] = self.bus.snapshot()
        if self.store is not None:
            payload["cache"] = self.store.stats.diff(self._cache_base or {})
        return payload or None

    def merge(self, snapshot: Optional[Mapping[str, object]], label: str) -> None:
        """Fold another process's :meth:`snapshot` into these slots.

        ``label`` (``task<i>``) relabels the merged span and event
        streams so the combined view stays deterministic even though
        worker pids and scheduling are not.  Perf counters and phase
        seconds sum; store hit/miss deltas fold into this store's stats.
        """
        if not snapshot:
            return
        if self.perf is not None and "perf" in snapshot:
            self.perf.merge_snapshot(snapshot["perf"])  # type: ignore[arg-type]
        if self.tracer is not None and "spans" in snapshot:
            self.tracer.merge(snapshot["spans"], process=label)  # type: ignore[arg-type]
        if self.bus is not None and "events" in snapshot:
            self.bus.ingest(snapshot["events"], process=label)  # type: ignore[arg-type]
        if self.store is not None and "cache" in snapshot:
            self.store.stats.merge(snapshot["cache"])  # type: ignore[arg-type]


#: The installed context (empty: nothing observed, nothing cached).
_ACTIVE = RunContext()


def current() -> RunContext:
    """The installed run context."""
    return _ACTIVE


@contextmanager
def scope(**slots: object) -> Iterator[RunContext]:
    """Install the current context with ``slots`` replaced for a block.

    The new context keeps the previous one's private span stream
    unless a tracer takes over the numbering.
    """
    global _ACTIVE
    previous = _ACTIVE
    values: Dict[str, object] = {
        "perf": previous.perf,
        "tracer": previous.tracer,
        "bus": previous.bus,
        "store": previous.store,
    }
    values.update(slots)
    private = previous.spans if previous.tracer is None else None
    ctx = RunContext(spans=private, **values)  # type: ignore[arg-type]
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = previous


def reset(store: Optional["CacheStore"] = None) -> None:
    """Start this process over from a context holding only ``store``.

    Pool workers call this at start-up: a forked worker would otherwise
    inherit whatever recorder, tracer and bus the parent had installed
    when it forked.
    """
    global _ACTIVE
    _ACTIVE = RunContext(store=store)
