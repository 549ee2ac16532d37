"""Live telemetry streaming: deterministic event bus and sinks.

The streaming leg of the observability layer.  Where
:mod:`repro.obs.spans` and :mod:`repro.obs.metrics` answer questions
about a *finished* run, the event bus carries observations out of a
*running* one — sweep progress, span completions, controller
telemetry, cache deltas — in an order an external observer can trust.

Determinism is the same contract the rest of :mod:`repro.obs` keeps:

* every event carries a **monotone per-process sequence number**
  assigned at emit time — never a wall-clock timestamp — so two
  byte-identical runs emit byte-identical event streams;
* wall-clock enters only through the optional ``t_s`` field and the
  per-event ``timing`` mapping, both of which :func:`event_record`
  drops under ``timing=False``;
* cross-process streams merge in **canonical** ``(process, seq)``
  order (:func:`canonical_events`), so a live view assembled from
  worker batches and a post-hoc export of the same run serialize
  identically.

The bus is bounded: events land in a ring buffer of fixed capacity,
and overflow is *counted, never silent* (:attr:`EventBus.dropped`,
per-kind in :attr:`EventBus.dropped_by_kind`).  Sinks observe every
event regardless of ring evictions:

* :class:`MemorySink` — bounded in-memory capture with its own drop
  accounting (the post-hoc view of a live run);
* :class:`CallbackSink` — hand each event to a callable (renderers,
  tests);
* :class:`JsonlSink` — append canonical JSON lines to a file, flushed
  per line so another process can tail it (``repro-noc obs --follow``);
  byte-deterministic under ``timing=False``.

The bus is the ``bus`` slot of the run context
(:mod:`repro.obs.context`); instrumented code reaches it through the
free function :func:`emit` and pays one global read when streaming is
off::

    from repro.obs import EventBus, MemorySink, streaming

    capture = MemorySink()
    with streaming(EventBus(sinks=[capture])) as bus:
        run_the_sweep()
    lines = event_lines(canonical_events(capture.events), timing=False)
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import SpecError
from .context import current, scope

#: Event kinds the standard emit hooks produce.  The bus accepts any
#: kind string; this tuple documents (and tests pin) the built-ins.
EVENT_KINDS: Tuple[str, ...] = (
    "span",        # a finished span (obs/spans.py close hook)
    "telemetry",   # one controller observation (control/telemetry.py)
    "metric",      # one metric sample (obs/metrics.py publish hook)
    "progress",    # sweep/task progress (core/explore.py)
    "heartbeat",   # liveness beacon from a process (pool workers)
)


@dataclass(frozen=True)
class ObsEvent:
    """One observation on the stream: identity, payload, timing.

    ``(process, seq)`` is the event's identity and canonical position;
    ``attrs`` holds only deterministic values, while wall-clock numbers
    live in ``t_s`` (seconds from the bus timebase) and ``timing``
    (named extras such as a span's ``duration_s``) so exports can drop
    them for byte-comparison.
    """

    #: Process label the event was emitted under (relabelled on merge).
    process: str
    #: Monotone emit-order index within the process stream.
    seq: int
    #: Event kind (see :data:`EVENT_KINDS`).
    kind: str
    #: Subject name: a span path, telemetry kind, metric name, ...
    name: str
    #: JSON-safe deterministic payload.
    attrs: Mapping[str, object] = field(default_factory=dict)
    #: Seconds from the emitting bus's timebase (wall clock; droppable).
    t_s: Optional[float] = None
    #: Named wall-clock extras (e.g. ``duration_s``; droppable).
    timing: Mapping[str, float] = field(default_factory=dict)


def _dumps(obj: object) -> str:
    """Canonical single-line JSON (sorted keys, minimal separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def event_record(event: ObsEvent, timing: bool = True) -> Dict[str, object]:
    """JSON-ready dict of one event; ``timing=False`` strips wall clock."""
    record: Dict[str, object] = {
        "type": event.kind,
        "process": event.process,
        "seq": event.seq,
        "name": event.name,
        "attrs": dict(event.attrs),
    }
    if timing:
        if event.t_s is not None:
            record["t_s"] = round(event.t_s, 6)
        if event.timing:
            record["timing"] = {
                k: round(float(v), 6) for k, v in sorted(event.timing.items())
            }
    return record


def event_from_record(record: Mapping[str, object]) -> ObsEvent:
    """Rebuild an :class:`ObsEvent` from :func:`event_record` output."""
    t_s = record.get("t_s")
    return ObsEvent(
        process=str(record.get("process", "main")),
        seq=int(record.get("seq", 0)),  # type: ignore[arg-type]
        kind=str(record.get("type", "event")),
        name=str(record.get("name", "")),
        attrs=dict(record.get("attrs", {})),  # type: ignore[arg-type]
        t_s=float(t_s) if isinstance(t_s, (int, float)) else None,
        timing=dict(record.get("timing", {})),  # type: ignore[arg-type]
    )


def event_lines(events: Iterable[ObsEvent], timing: bool = True) -> List[str]:
    """Events as canonical JSON lines (order preserved from input)."""
    return [_dumps(event_record(e, timing=timing)) for e in events]


def canonical_events(events: Iterable[ObsEvent]) -> List[ObsEvent]:
    """The canonical merged view: sorted by ``(process, seq)``.

    This is the order in which a live stream assembled from several
    process batches and a post-hoc export of the same run agree —
    within a process, ``seq`` is emit order; across processes, the
    label sorts (``main`` before ``task0`` before ``task1``...).
    """
    return sorted(events, key=lambda e: (e.process, e.seq))


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class MemorySink:
    """Bounded in-memory capture with explicit drop accounting.

    ``max_events=0`` means unbounded (the post-hoc capture mode the
    determinism gates use); otherwise the oldest events are evicted
    and counted in :attr:`dropped`.
    """

    def __init__(self, max_events: int = 0) -> None:
        if max_events < 0:
            raise SpecError("max_events must be >= 0, got %r" % max_events)
        self._ring: Deque[ObsEvent] = deque(
            maxlen=max_events if max_events > 0 else None
        )
        self.max_events = max_events
        self.dropped = 0

    @property
    def events(self) -> List[ObsEvent]:
        return list(self._ring)

    def on_event(self, event: ObsEvent) -> None:
        if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)

    def close(self) -> None:
        pass


class CallbackSink:
    """Forward every event to a callable (renderers, tests).

    A raising callback must not take the instrumented run down with
    it: errors are counted in :attr:`errors` and swallowed.
    """

    def __init__(self, fn: Callable[[ObsEvent], object]) -> None:
        self.fn = fn
        self.errors = 0

    def on_event(self, event: ObsEvent) -> None:
        try:
            self.fn(event)
        except Exception:
            self.errors += 1

    def close(self) -> None:
        pass


class JsonlSink:
    """Tail-able JSON-lines file sink (one event per line, line-flushed).

    Every line is flushed as it is written so another process can
    follow the file while the run is live (:func:`follow_events`).
    With ``timing=False`` the output is byte-deterministic across
    reruns of deterministic code — the property the stream bench gate
    byte-compares.
    """

    def __init__(self, path: str, timing: bool = True) -> None:
        self.path = path
        self.timing = timing
        self.lines_written = 0
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def on_event(self, event: ObsEvent) -> None:
        fh = self._fh
        if fh is None:
            return
        fh.write(_dumps(event_record(event, timing=self.timing)))
        fh.write("\n")
        fh.flush()
        self.lines_written += 1

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------


class EventBus:
    """Per-process event stream: sequence numbers, ring buffer, sinks.

    One bus per process; the parent of a worker pool folds worker
    batches in with :meth:`ingest` under deterministic ``task<i>``
    labels, preserving each stream's own sequence numbers.  The ring
    (:meth:`events`) is the bus's bounded recent-history view; sinks
    see every event exactly once, in arrival order, regardless of ring
    evictions.
    """

    def __init__(
        self,
        process: str = "main",
        max_events: int = 4096,
        sinks: Optional[Sequence[object]] = None,
    ) -> None:
        if max_events < 1:
            raise SpecError("max_events must be >= 1, got %r" % max_events)
        self.process = process
        self.max_events = max_events
        self._ring: Deque[ObsEvent] = deque(maxlen=max_events)
        self._seq = 0
        self._t0 = time.perf_counter()
        self.sinks: List[object] = list(sinks or ())
        #: Events evicted from the ring (total and per kind).  Sinks
        #: are unaffected; this counts bounded-history loss only.
        self.dropped = 0
        self.dropped_by_kind: Dict[str, int] = {}
        #: Events accepted (emitted + ingested), for progress feeds.
        self.emitted = 0
        #: pid metadata per process label (bookkeeping, never identity).
        self.process_meta: Dict[str, int] = {process: os.getpid()}

    # -- emit / ingest -------------------------------------------------

    def add_sink(self, sink: object) -> object:
        self.sinks.append(sink)
        return sink

    def _accept(self, event: ObsEvent) -> None:
        if len(self._ring) == self._ring.maxlen:
            evicted = self._ring[0]
            self.dropped += 1
            self.dropped_by_kind[evicted.kind] = (
                self.dropped_by_kind.get(evicted.kind, 0) + 1
            )
        self._ring.append(event)
        self.emitted += 1
        for sink in self.sinks:
            sink.on_event(event)  # type: ignore[attr-defined]

    def emit(
        self,
        kind: str,
        name: str,
        attrs: Optional[Mapping[str, object]] = None,
        timing: Optional[Mapping[str, float]] = None,
    ) -> ObsEvent:
        """Append one event to this process's stream (monotone seq)."""
        event = ObsEvent(
            process=self.process,
            seq=self._seq,
            kind=kind,
            name=name,
            attrs=dict(attrs or {}),
            t_s=time.perf_counter() - self._t0,
            timing=dict(timing or {}),
        )
        self._seq += 1
        self._accept(event)
        return event

    def ingest(
        self, snapshot: Mapping[str, object], process: Optional[str] = None
    ) -> int:
        """Fold a worker bus's :meth:`snapshot` into this stream.

        ``process`` relabels the merged batch (e.g. ``task3``) so the
        combined stream stays deterministic even though worker pids
        and scheduling are not; each event keeps its own sequence
        number, so :func:`canonical_events` restores the exact
        within-worker emit order.  Returns the number of events
        ingested.
        """
        label = process if process is not None else str(
            snapshot.get("process", "worker")
        )
        pid = snapshot.get("pid")
        if isinstance(pid, int):
            self.process_meta[label] = pid
        count = 0
        for record in snapshot.get("events", ()):  # type: ignore[union-attr]
            event = event_from_record(record)
            self._accept(
                ObsEvent(
                    process=label,
                    seq=event.seq,
                    kind=event.kind,
                    name=event.name,
                    attrs=event.attrs,
                    t_s=event.t_s,
                    timing=event.timing,
                )
            )
            count += 1
        dropped = snapshot.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            # A worker's bounded ring lost events before shipping; the
            # loss surfaces in the parent's accounting, never silently.
            self.dropped += dropped
            self.dropped_by_kind["ingested"] = (
                self.dropped_by_kind.get("ingested", 0) + dropped
            )
        return count

    # -- views ---------------------------------------------------------

    def events(self) -> List[ObsEvent]:
        """The ring's current contents, in arrival order."""
        return list(self._ring)

    def snapshot(self, timing: bool = True) -> Dict[str, object]:
        """JSON-ready dump of the ring for cross-process shipping."""
        return {
            "process": self.process,
            "pid": os.getpid(),
            "next_seq": self._seq,
            "dropped": self.dropped,
            "events": [event_record(e, timing=timing) for e in self._ring],
        }

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()


@contextmanager
def streaming(bus: Optional[EventBus] = None) -> Iterator[EventBus]:
    """Fill the context's ``bus`` slot for a ``with`` block (nests);
    the bus's sinks are closed on exit."""
    b = bus if bus is not None else EventBus()
    try:
        with scope(bus=b):
            yield b
    finally:
        b.close()


def emit(
    kind: str,
    name: str,
    attrs: Optional[Mapping[str, object]] = None,
    timing: Optional[Mapping[str, float]] = None,
) -> Optional[ObsEvent]:
    """Emit on the context's bus; a no-op returning ``None`` when off.

    The disabled path is one global read — cheap enough for the same
    hot-adjacent placement rules as :func:`repro.obs.spans.span`.
    """
    bus = current().bus
    if bus is None:
        return None
    return bus.emit(kind, name, attrs=attrs, timing=timing)


# ----------------------------------------------------------------------
# Reading a feed back: whole files and live tails
# ----------------------------------------------------------------------


def read_events(path: str) -> List[ObsEvent]:
    """Parse a JSONL event feed; a trailing partial line is ignored.

    Mid-write feeds are normal (the writer flushes per line but the
    reader can race the final line), so an unterminated or undecodable
    *last* line is skipped silently; a corrupt line elsewhere raises
    :class:`~repro.exceptions.SpecError`.
    """
    events: List[ObsEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    complete, tail = lines[:-1], lines[-1]
    for i, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            events.append(event_from_record(json.loads(line)))
        except (ValueError, TypeError):
            raise SpecError(
                "corrupt event line %d in %s: %r" % (i + 1, path, line[:80])
            )
    if tail.strip():
        # Unterminated final line: the writer is (or was) mid-write.
        try:
            events.append(event_from_record(json.loads(tail)))
        except (ValueError, TypeError):
            pass
    return events


def follow_events(
    path: str,
    poll_s: float = 0.2,
    idle_timeout_s: Optional[float] = 5.0,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[ObsEvent]:
    """Tail a JSONL event feed from another (possibly live) process.

    Yields events as complete lines appear, buffering partial writes
    until their terminating newline arrives — a half-written line is
    *held*, never mis-parsed or dropped.  Stops when ``stop()`` goes
    true or no new bytes arrive for ``idle_timeout_s`` seconds
    (``None`` follows forever).  The file may not exist yet; the
    follower waits for it under the same idle budget.
    """
    buffer = ""
    offset = 0
    last_data = time.monotonic()
    while True:
        if stop is not None and stop():
            return
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read()
        except OSError:
            raw = b""
        if raw:
            offset += len(raw)
            chunk = raw.decode("utf-8", errors="replace")
            buffer += chunk
            last_data = time.monotonic()
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if not line.strip():
                    continue
                try:
                    yield event_from_record(json.loads(line))
                except (ValueError, TypeError):
                    # A corrupt interior line in a live feed: skip it
                    # rather than kill the follower mid-run.
                    continue
            continue
        if (
            idle_timeout_s is not None
            and time.monotonic() - last_data >= idle_timeout_s
        ):
            return
        time.sleep(poll_s)
