"""A tour of the observability layer: spans, metrics, exporters, dashboard.

Everything the ``repro.obs`` package offers, on one controlled fault
replay (see docs/observability.md):

1. synthesize d26 @ 6 islands under an active span tracer + perf
   recorder, protect the best point with k=1 spares;
2. replay a Markov trace with an injected single-link fault and the
   reconfiguration controller driving recovery — runtime and control
   spans land in the same trace as the synthesis spans;
3. project the run into the typed metrics registry (island residency,
   wake-stall and recovery-latency histograms, energy-by-source);
4. export all three formats — Chrome/Perfetto ``trace_event`` JSON,
   JSON-lines event log (spans + controller telemetry), Prometheus
   text — into ``obs_out/``;
5. render the terminal dashboard (phase breakdown, recovery timeline,
   island-state Gantt rows, top counters) and its static HTML twin;
6. stream a ``workers=2`` exploration sweep live through the event
   bus — progress, heartbeats and per-task span events land in a
   tail-able JSONL feed (``repro-noc obs --follow`` can watch it from
   another terminal) whose timing-stripped canonical form is
   byte-identical to the post-hoc export of the same run.

Run:  PYTHONPATH=src python examples/observability_tour.py
"""

import os

from repro import (
    FaultEvent,
    SynthesisConfig,
    mobile_soc_26,
    protect_design_point,
    synthesize,
)
from repro.control import ReconfigurationController
from repro.core.explore import ExplorationEngine
from repro.obs import (
    EventBus,
    JsonlSink,
    LiveStatus,
    MemorySink,
    MetricsRegistry,
    SpanRecorder,
    canonical_events,
    chrome_trace_json,
    event_lines,
    prometheus_text,
    read_events,
    record_control_metrics,
    record_runtime_metrics,
    render_dashboard,
    render_html,
    span_log_lines,
    status_lines,
    streaming,
    telemetry_log_lines,
    tracing,
    write_lines,
)
from repro.perf import PerfRecorder, recording
from repro.resilience import enumerate_scenarios, route_affected
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.partitioning import logical_partitioning
from repro.soc.usecases import use_cases_for

OUT_DIR = "obs_out"


def main() -> None:
    spec = logical_partitioning(mobile_soc_26(), 6)
    spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")

    # 1+2: the whole pipeline runs under one tracer + recorder, so the
    # synthesis, runtime and control spans share a single trace.
    recorder = PerfRecorder()
    tracer = SpanRecorder()
    with recording(recorder), tracing(tracer):
        best = synthesize(
            spec, config=SynthesisConfig(max_intermediate=1)
        ).best_by_power()
        prot = protect_design_point(best, k=1)
        topology = prot.topology
        trace = markov_trace(use_cases_for(spec), n_segments=48, seed=11)
        scenario = next(
            sc
            for sc in enumerate_scenarios(topology, "single_link")
            if any(
                route_affected(sc, topology, r)
                for r in topology.routes.values()
            )
        )
        event = FaultEvent(
            scenario=scenario,
            start_ms=0.25 * trace.total_ms,
            end_ms=0.6 * trace.total_ms,
        )
        controller = ReconfigurationController(topology, spare_plan=prot.plan)
        report = simulate_trace(
            topology,
            trace,
            make_policy("break_even"),
            fault_events=[event],
            spare_plan=prot.plan,
            controller=controller,
        )

    # 3: one registry over the perf counters and both report kinds.
    registry = MetricsRegistry()
    registry.absorb_perf(recorder)
    record_runtime_metrics(registry, report)
    record_control_metrics(registry, report)

    # 4: all three export formats.
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer))
    events_path = os.path.join(OUT_DIR, "events.jsonl")
    n = write_lines(
        events_path,
        span_log_lines(tracer) + telemetry_log_lines(report.telemetry),
    )
    prom_path = os.path.join(OUT_DIR, "metrics.prom")
    with open(prom_path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))

    # 5: the dashboard, terminal + HTML.
    title = "d26 @ 6 islands: controlled recovery of %s" % scenario.name
    print(
        render_dashboard(
            tracer=tracer, registry=registry, report=report, title=title
        )
    )
    html_path = os.path.join(OUT_DIR, "dashboard.html")
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(
            render_html(
                tracer=tracer, registry=registry, report=report, title=title
            )
        )

    # 6: live streaming — the same sweep twice over, once through a
    # tail-able JSONL sink and once into memory, to show the
    # live-vs-post-hoc byte-identity guarantee tests/test_stream.py
    # gates.
    live_path = os.path.join(OUT_DIR, "live_events.jsonl")
    capture = MemorySink()
    with streaming(EventBus(sinks=[capture, JsonlSink(live_path, timing=False)])):
        with ExplorationEngine(
            workers=2, config=SynthesisConfig(max_intermediate=1)
        ) as engine:
            engine.alpha_exploration(spec, [0.2, 0.5, 0.8])
    status = LiveStatus()
    for ev in capture.events:
        status.apply(ev)
    for line in status_lines(status):
        print(line)
    live = event_lines(canonical_events(read_events(live_path)), timing=False)
    posthoc = event_lines(canonical_events(capture.events), timing=False)
    assert live == posthoc, "live feed must match the post-hoc export"

    print("spans recorded: %d  (root paths: synthesis, runtime.simulate, control.run)" % len(tracer.spans))
    print("wrote %s  (drop on https://ui.perfetto.dev)" % trace_path)
    print("wrote %s  (%d span + telemetry lines)" % (events_path, n))
    print("wrote %s  (Prometheus text format)" % prom_path)
    print("wrote %s  (self-contained static page)" % html_path)
    print(
        "wrote %s  (%d live events, byte-identical to the post-hoc export"
        " — tail with `repro-noc obs --follow`)" % (live_path, len(live))
    )


if __name__ == "__main__":
    main()
