"""Exporters: Chrome/Perfetto trace JSON, JSON-lines logs, Prometheus text.

Every exporter is a pure function over a finished
:class:`~repro.obs.spans.SpanRecorder` / :class:`~repro.obs.metrics.MetricsRegistry`
(or a telemetry event list) that produces deterministically ordered
output.  Wall-clock numbers are confined to fields the caller can drop
with ``timing=False``, so two byte-identical runs export byte-identical
event sequences — the property ``tests/test_obs.py`` gates on.

Formats:

* :func:`chrome_trace_events` — ``trace_event`` complete events
  (``"ph": "X"``) plus process-name metadata, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev;
* :func:`span_log_lines` / :func:`telemetry_log_lines` — one JSON
  object per line, grep- and ``jq``-friendly;
* :func:`prometheus_text` — the Prometheus exposition text format,
  with dotted internal metric names sanitized to legal identifiers.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from .metrics import MetricsRegistry
from .spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..control.telemetry import TelemetryEvent


def _dumps(obj: object) -> str:
    """Canonical single-line JSON: sorted keys, no float formatting games."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Chrome / Perfetto trace_event JSON
# ----------------------------------------------------------------------


def chrome_trace_events(
    tracer: SpanRecorder, timing: bool = True
) -> List[Dict[str, object]]:
    """Spans as ``trace_event`` dicts (complete events, ``ph="X"``).

    Each process label in the trace becomes one synthetic pid (assigned
    by sorted label, not OS pid, so the output is rerun-stable) with a
    ``process_name`` metadata event.  With ``timing=False`` the ``ts``
    and ``dur`` fields are dropped — what remains is the deterministic
    event sequence used for byte-comparison across reruns.
    """
    labels = sorted({s.process for s in tracer.spans} | set(tracer.process_meta))
    pid_of = {label: i + 1 for i, label in enumerate(labels)}
    events: List[Dict[str, object]] = []
    for label in labels:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[label],
                "tid": 0,
                "args": {"name": label},
            }
        )
    for s in tracer.ordered():
        event: Dict[str, object] = {
            "ph": "X",
            "name": s.name,
            "cat": s.path.split("/", 1)[0],
            "pid": pid_of[s.process],
            "tid": 0,
            "args": dict(s.attrs, span_id=s.span_id, path=s.path, seq=s.seq),
        }
        if s.parent_id is not None:
            event["args"]["parent_id"] = s.parent_id  # type: ignore[index]
        if timing:
            event["ts"] = round(s.start_s * 1e6, 3)
            event["dur"] = round(s.duration_s * 1e6, 3)
        events.append(event)
    return events


def chrome_trace_json(tracer: SpanRecorder, timing: bool = True) -> str:
    """The full ``{"traceEvents": [...]}`` document as a JSON string."""
    return _dumps(
        {
            "traceEvents": chrome_trace_events(tracer, timing=timing),
            "displayTimeUnit": "ms",
        }
    )


# ----------------------------------------------------------------------
# JSON-lines event logs
# ----------------------------------------------------------------------


def span_log_lines(tracer: SpanRecorder, timing: bool = True) -> List[str]:
    """One JSON object per span, canonical order, ``type: "span"``."""
    lines = []
    for s in tracer.ordered():
        record: Dict[str, object] = {
            "type": "span",
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "name": s.name,
            "path": s.path,
            "seq": s.seq,
            "depth": s.depth,
            "process": s.process,
            "attrs": dict(s.attrs),
        }
        if timing:
            record["start_s"] = round(s.start_s, 6)
            record["duration_s"] = round(s.duration_s, 6)
        lines.append(_dumps(record))
    return lines


def telemetry_log_lines(events: Sequence["TelemetryEvent"]) -> List[str]:
    """Controller telemetry as JSON lines (``type: "telemetry"``).

    Each line keeps the event's own ``kind`` (``fault_raised``,
    ``routing_installed``, ...) and adds the stream discriminator
    ``type`` so span and telemetry lines can share one log file.
    Rides on :func:`~repro.control.telemetry.telemetry_summary`, which
    already sorts the stream and maps ``inf`` to ``None`` — the log is
    deterministic because the controller is.  (Imported lazily: the
    core synthesis layers import :mod:`repro.obs`, so this module must
    not pull the control plane in at import time.)
    """
    from ..control.telemetry import telemetry_summary

    return [_dumps(dict(row, type="telemetry")) for row in telemetry_summary(events)]


def write_lines(path: str, lines: Iterable[str]) -> int:
    """Write a JSON-lines file (one trailing newline per line)."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Prometheus exposition text format
# ----------------------------------------------------------------------

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL = re.compile(r"[^a-zA-Z0-9_]")


def prom_name(name: str) -> str:
    """Sanitize a dotted internal name to a legal Prometheus name."""
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(labels: Sequence, extra: Optional[Sequence] = None) -> str:
    pairs = list(labels) + list(extra or ())
    if not pairs:
        return ""
    body = ",".join(
        '%s="%s"'
        % (
            _PROM_LABEL.sub("_", k),
            str(v).replace("\\", "\\\\").replace('"', '\\"'),
        )
        for k, v in pairs
    )
    return "{%s}" % body


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Histograms expand to cumulative ``_bucket`` series (with the
    implicit ``+Inf``) plus ``_sum`` and ``_count``, matching what a
    real Prometheus client library would expose.
    """
    out: List[str] = []
    for metric in registry:
        name = prom_name(metric.name)
        if metric.help:
            out.append("# HELP %s %s" % (name, metric.help))
        out.append("# TYPE %s %s" % (name, metric.kind))
        if metric.kind == "histogram":
            for key, (counts, total, n) in sorted(metric.samples.items()):
                running = 0
                for edge, c in zip(metric.buckets, counts):
                    running += c
                    out.append(
                        "%s_bucket%s %d"
                        % (name, _label_str(key, [("le", _fmt(edge))]), running)
                    )
                out.append(
                    "%s_bucket%s %d"
                    % (name, _label_str(key, [("le", "+Inf")]), n)
                )
                out.append("%s_sum%s %s" % (name, _label_str(key), _fmt(total)))
                out.append("%s_count%s %d" % (name, _label_str(key), n))
        else:
            for key, value in sorted(metric.samples.items()):
                out.append("%s%s %s" % (name, _label_str(key), _fmt(value)))
    return "\n".join(out) + ("\n" if out else "")
