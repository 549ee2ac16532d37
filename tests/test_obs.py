"""Observability layer tests: spans, metrics, exporters, dashboard.

Covers ``repro.obs`` end to end: deterministic span identity and
ordering, the typed metrics registry (counter/gauge/histogram) and its
PerfRecorder shim, byte-identical exports across reruns (Chrome trace,
JSON lines, Prometheus text), the cross-process span/counter merge of
parallel exploration sweeps, the runtime/control metric builders, the
text/HTML dashboard, and the ``repro-noc obs`` / ``control
--telemetry-out`` CLI surfaces.  See docs/observability.md.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import (
    SynthesisConfig,
    communication_partitioning,
    protect_design_point,
    synthesize,
)
from repro.cli import main
from repro.control import TELEMETRY_KINDS, ReconfigurationController
from repro.core.explore import ExplorationEngine
from repro.exceptions import SpecError
from repro.obs import (
    EventBus,
    MemorySink,
    MetricsRegistry,
    SpanRecorder,
    chrome_trace_events,
    chrome_trace_json,
    counter_lines,
    island_gantt_lines,
    phase_breakdown_lines,
    prometheus_text,
    record_control_metrics,
    record_runtime_metrics,
    recovery_timeline_lines,
    render_dashboard,
    render_html,
    span,
    span_log_lines,
    stable_span_id,
    streaming,
    telemetry_log_lines,
    tracing,
    write_lines,
)
from repro.obs.context import current
from repro.obs.spans import _NULL_SPAN
from repro.perf import PerfRecorder, recording
from repro.resilience import FaultEvent, enumerate_scenarios, route_affected
from repro.runtime import make_policy, markov_trace, simulate_trace
from repro.soc.generator import GeneratorConfig, generate_soc
from repro.soc.usecases import use_cases_for

from _helpers import worker_payload

pytestmark = pytest.mark.obs

FAST = SynthesisConfig(max_intermediate=1)


@pytest.fixture(scope="module")
def controlled_report(tiny_spec, tiny_best):
    """A controlled fault replay on the tiny spec (recoveries present)."""
    prot = protect_design_point(tiny_best, k=1)
    topology = prot.topology
    trace = markov_trace(use_cases_for(tiny_spec), n_segments=24, seed=3)
    scenario = next(
        sc
        for sc in enumerate_scenarios(topology, "single_link")
        if any(route_affected(sc, topology, r) for r in topology.routes.values())
    )
    event = FaultEvent(
        scenario=scenario,
        start_ms=0.25 * trace.total_ms,
        end_ms=0.6 * trace.total_ms,
    )
    controller = ReconfigurationController(topology, spare_plan=prot.plan)
    return simulate_trace(
        topology,
        trace,
        make_policy("break_even"),
        fault_events=[event],
        spare_plan=prot.plan,
        controller=controller,
    )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_stable_span_id_is_pure(self):
        assert stable_span_id("synthesis/allocate", 3) == stable_span_id(
            "synthesis/allocate", 3
        )
        assert stable_span_id("synthesis/allocate", 3) != stable_span_id(
            "synthesis/allocate", 4
        )
        assert stable_span_id("a", 0) != stable_span_id("b", 0)

    def test_disabled_span_is_shared_null(self):
        assert current().tracer is None
        s = span("anything", k=1)
        assert s is _NULL_SPAN
        assert s is span("something_else")
        with s as opened:
            assert opened is None

    def test_nesting_paths_depths_and_parents(self):
        with tracing() as tracer:
            with span("a") as sa:
                with span("b"):
                    pass
                with span("c"):
                    pass
        ordered = tracer.ordered()
        assert [(s.name, s.path, s.depth, s.seq) for s in ordered] == [
            ("a", "a", 0, 0),
            ("b", "a/b", 1, 1),
            ("c", "a/c", 1, 2),
        ]
        root = ordered[0]
        assert root.parent_id is None
        assert all(s.parent_id == root.span_id for s in ordered[1:])
        assert root.span_id == stable_span_id("a", 0)
        assert sa is not None

    def test_set_attaches_result_attrs(self):
        with tracing() as tracer:
            with span("work", input=3) as s:
                s.set(output=9)
        (rec,) = tracer.spans
        assert rec.attrs == {"input": 3, "output": 9}

    def test_tracing_restores_previous_tracer_on_exception(self):
        with tracing() as outer:
            with pytest.raises(RuntimeError):
                with tracing() as inner:
                    assert current().tracer is inner
                    raise RuntimeError("boom")
            assert current().tracer is outer
        assert current().tracer is None

    def test_merge_relabels_and_tracks_pid(self):
        worker = SpanRecorder()
        with worker.span("explore.task", alpha=0.2):
            pass
        snap = worker.snapshot()
        snap["pid"] = 4242  # simulate a different process
        parent = SpanRecorder()
        merged = parent.merge(snap, process="task0")
        assert merged == 1
        (s,) = parent.spans
        assert s.process == "task0"
        assert s.name == "explore.task"
        assert parent.process_meta["task0"] == 4242
        assert "main" in parent.process_meta

    def test_synthesis_span_taxonomy(self, tiny_spec):
        with tracing() as tracer:
            synthesize(tiny_spec, config=FAST)
        paths = {s.path for s in tracer.spans}
        assert "synthesis" in paths
        assert "synthesis/partition" in paths
        assert "synthesis/allocate" in paths
        assert "synthesis/evaluate" in paths
        root = next(s for s in tracer.spans if s.path == "synthesis")
        assert root.attrs["design_points"] >= 1

    @pytest.mark.parametrize("num_cores", [10, 40])
    def test_span_count_bounded_by_candidates(self, num_cores):
        # Spans sit on per-candidate phases, never on a per-flow or
        # per-edge path: the span count must not grow with the routing
        # work (edge_evals rises ~27x from 10 to 40 cores, spans ~3x).
        spec = communication_partitioning(
            generate_soc(
                GeneratorConfig(
                    name="gen%d" % num_cores,
                    num_cores=num_cores,
                    num_groups=4,
                    seed=7,
                )
            ),
            4,
        )
        sink = MemorySink()
        with recording(), tracing() as tracer, streaming(EventBus(sinks=[sink])):
            space = synthesize(spec, config=FAST)
        names = Counter(s.name for s in tracer.spans)
        assert set(names) <= {"synthesis", "partition", "allocate", "evaluate"}
        candidates = len(space) + len(space.failures)
        assert names["synthesis"] == 1
        assert names["partition"] <= candidates
        assert names["evaluate"] <= candidates
        assert names["allocate"] <= (1 + FAST.max_intermediate) * candidates
        streamed = [e.attrs["span_id"] for e in sink.events if e.kind == "span"]
        assert sorted(streamed) == sorted(s.span_id for s in tracer.spans)

    def test_simulate_span(self, tiny_spec, tiny_best):
        trace = markov_trace(use_cases_for(tiny_spec), n_segments=8, seed=3)
        with tracing() as tracer:
            simulate_trace(tiny_best.topology, trace, make_policy("break_even"))
        root = next(s for s in tracer.spans if s.path == "runtime.simulate")
        assert root.attrs["policy"] == "break_even"
        assert root.attrs["controlled"] is False


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(2, island=1)
        c.inc(3, island=1)
        assert c.value(island=1) == 5
        with pytest.raises(SpecError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("g")
        g.set(1.0, island=0)
        g.set(7.5, island=0)
        assert g.value(island=0) == 7.5
        assert g.value(island=9) is None

    def test_histogram_bucket_placement(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 3.0, 10.0):
            h.observe(v)
        (counts, total, n) = h.samples[()]
        # le-semantics: 0.5 and 1.0 land in the le=1 bucket, 3.0 in
        # le=5, 10.0 in the implicit +Inf bucket.
        assert counts == [2, 0, 1, 1]
        assert total == pytest.approx(14.5)
        assert n == 4 == h.count()
        assert h.sum() == pytest.approx(14.5)

    def test_histogram_rejects_bad_edges(self):
        reg = MetricsRegistry()
        with pytest.raises(SpecError):
            reg.histogram("bad", buckets=())
        with pytest.raises(SpecError):
            reg.histogram("bad2", buckets=(1.0, 1.0, 2.0))

    def test_kind_and_edge_clashes_raise(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(SpecError):
            reg.gauge("x")
        reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h", buckets=(1.0, 2.0)).buckets == (1.0, 2.0)
        with pytest.raises(SpecError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_registry_iterates_sorted_and_merges(self):
        a = MetricsRegistry()
        a.counter("z").inc(1)
        a.counter("a").inc(2)
        a.gauge("g").set(1.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        assert [m.name for m in a] == ["a", "g", "h", "z"]
        b = MetricsRegistry()
        b.counter("a").inc(3)
        b.gauge("g").set(9.0)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b.snapshot())
        assert a.counter("a").value() == 5
        assert a.gauge("g").value() == 9.0
        counts, total, n = a.histogram("h", buckets=(1.0,)).samples[()]
        assert counts == [1, 1] and n == 2

    def test_absorb_perf_shim(self):
        rec = PerfRecorder()
        rec.count("dijkstra_pops", 11)
        rec.phase_seconds["allocation"] = 1.25
        reg = MetricsRegistry()
        reg.absorb_perf(rec)
        assert reg.counter("perf.counters.dijkstra_pops").value() == 11
        assert reg.counter("perf.phase_seconds").value(
            phase="allocation"
        ) == pytest.approx(1.25)

    def test_runtime_and_control_metric_builders(self, controlled_report):
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        residency = reg.gauge("runtime.island.residency_ms")
        assert residency.samples  # one sample per (island, state)
        energy = reg.gauge("runtime.energy_mj")
        assert energy.value(source="total") == pytest.approx(
            controlled_report.total_mj
        )
        assert controlled_report.recoveries  # the fixture hits a route
        recover = reg.histogram("control.recovery_ms")
        assert sum(
            entry[2] for entry in recover.samples.values()
        ) == len(controlled_report.recoveries)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_chrome_trace_shape_and_timing_flag(self, tiny_spec):
        with tracing() as tracer:
            synthesize(tiny_spec, config=FAST)
        events = chrome_trace_events(tracer, timing=False)
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta and meta[0]["name"] == "process_name"
        assert spans
        assert all("ts" not in e and "dur" not in e for e in spans)
        timed = chrome_trace_events(tracer, timing=True)
        assert all("ts" in e for e in timed if e["ph"] == "X")
        doc = json.loads(chrome_trace_json(tracer))
        assert "traceEvents" in doc

    def test_exports_byte_identical_across_reruns(self, tiny_spec):
        outs = []
        for _ in range(2):
            with tracing() as tracer:
                synthesize(tiny_spec, config=FAST)
            outs.append(
                (
                    chrome_trace_json(tracer, timing=False),
                    "\n".join(span_log_lines(tracer, timing=False)),
                )
            )
        assert outs[0] == outs[1]

    def test_span_log_lines_parse(self, tiny_spec):
        with tracing() as tracer:
            synthesize(tiny_spec, config=FAST)
        for line in span_log_lines(tracer):
            rec = json.loads(line)
            assert rec["type"] == "span"
            assert rec["span_id"] == stable_span_id(rec["path"], rec["seq"])

    def test_telemetry_log_lines_keep_event_kind(self, controlled_report):
        lines = telemetry_log_lines(controlled_report.telemetry)
        assert len(lines) == len(controlled_report.telemetry)
        for line in lines:
            rec = json.loads(line)
            assert rec["type"] == "telemetry"
            assert rec["kind"] in TELEMETRY_KINDS

    def test_write_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        n = write_lines(path, ['{"a":1}', '{"b":2}'])
        assert n == 2
        with open(path) as fh:
            assert fh.read() == '{"a":1}\n{"b":2}\n'

    def test_prometheus_text(self, controlled_report):
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        text = prometheus_text(reg)
        assert "# TYPE runtime_island_residency_ms gauge" in text
        assert "# TYPE control_recovery_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "control_recovery_ms_count" in text
        # No raw dotted names escape the sanitizer.
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{", 1)[0].split(" ", 1)[0]


# ----------------------------------------------------------------------
# Cross-process merge (parallel exploration sweeps)
# ----------------------------------------------------------------------


class TestParallelMerge:
    def test_workers2_sweep_merges_counters_and_spans(self, tiny_spec):
        # Regression: parallel sweeps used to drop worker PerfRecorder
        # snapshots entirely — the parent saw zero counters.  Both the
        # counters and the span streams must now merge.
        alphas = [0.2, 0.4, 0.6, 0.8]
        with recording(PerfRecorder()) as rec, tracing() as tracer:
            with ExplorationEngine(workers=2, config=FAST) as engine:
                records = engine.alpha_exploration(tiny_spec, alphas)
        assert len(records) == len(alphas)
        assert rec.counters, "worker counters were dropped"
        assert "edge_evals" in rec.counters
        task_spans = [s for s in tracer.spans if s.process.startswith("task")]
        assert {s.process for s in task_spans} == {
            "task%d" % i for i in range(len(alphas))
        }
        assert all(s.name == "explore.task" for s in task_spans if s.depth == 0)
        # Worker pids were recorded for every merged stream.
        assert all(
            "task%d" % i in tracer.process_meta for i in range(len(alphas))
        )

    def test_parallel_records_match_serial(self, tiny_spec):
        alphas = [0.2, 0.6]
        with recording(PerfRecorder()) as serial_rec:
            with ExplorationEngine(workers=1, config=FAST) as engine:
                serial = engine.alpha_exploration(tiny_spec, alphas)
        with recording(PerfRecorder()) as parallel_rec, tracing():
            with ExplorationEngine(workers=2, config=FAST) as engine:
                parallel = engine.alpha_exploration(tiny_spec, alphas)
        def rows(records):
            # row() carries wall-clock seconds; everything else must match.
            return [
                {k: v for k, v in r.row().items() if k != "seconds"}
                for r in records
            ]

        assert [r.feasible for r in serial] == [r.feasible for r in parallel]
        assert rows(serial) == rows(parallel)
        # Worker counters and phases merge into the parent's recorder
        # exactly as if the tasks had run inline.
        assert serial_rec.counters["edge_evals"] > 0
        assert serial_rec.counters == parallel_rec.counters
        assert set(serial_rec.phase_seconds) == set(parallel_rec.phase_seconds)

    def test_sweep_without_observers_ships_no_payload(self, tiny_spec):
        # With nothing in the parent's run context the descriptor names
        # no observer slots, and the worker entry ships no payload.
        with ExplorationEngine(workers=2, config=FAST) as engine:
            records = engine.alpha_exploration(tiny_spec, [0.2, 0.8])
        assert len(records) == 2
        observe = current().observers()
        assert observe == ()
        record, payload = worker_payload(tiny_spec, FAST, observe)
        assert record.feasible
        assert payload is None


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------


class TestDashboard:
    def test_report_carries_island_timelines(self, controlled_report):
        assert any(
            r.timeline for r in controlled_report.per_island.values()
        )
        for r in controlled_report.per_island.values():
            for iv in r.timeline:
                assert str(iv.state) in ("on", "off", "waking")
                assert iv.end_ms >= iv.start_ms

    def test_phase_breakdown(self, tiny_spec):
        with tracing() as tracer:
            synthesize(tiny_spec, config=FAST)
        lines = phase_breakdown_lines(tracer)
        text = "\n".join(lines)
        assert "synthesis" in text
        assert "allocate" in text

    def test_recovery_timeline(self, controlled_report):
        text = "\n".join(recovery_timeline_lines(controlled_report))
        assert controlled_report.recoveries[0].scenario in text
        assert "F fault" in text  # marker legend

    def test_island_gantt(self, controlled_report):
        lines = island_gantt_lines(controlled_report)
        assert len(lines) >= len(controlled_report.per_island)
        assert any("#" in line or "." in line for line in lines)

    def test_counter_lines_empty_registry(self):
        assert counter_lines(MetricsRegistry()) == ["  (no counters recorded)"]

    def test_render_dashboard_sections(self, tiny_spec, controlled_report):
        with tracing() as tracer:
            synthesize(tiny_spec, config=FAST)
        reg = MetricsRegistry()
        record_runtime_metrics(reg, controlled_report)
        record_control_metrics(reg, controlled_report)
        text = render_dashboard(
            tracer=tracer, registry=reg, report=controlled_report, title="t"
        )
        assert "phase breakdown" in text
        assert "recovery timeline" in text
        assert "island states" in text
        assert "top counters" in text

    def test_render_html_self_contained(self, controlled_report):
        html = render_html(report=controlled_report, title="<t&t>")
        assert html.startswith("<!DOCTYPE html>")
        assert "<pre>" in html
        assert "&lt;t&amp;t&gt;" in html  # title is escaped


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_obs_subcommand_renders_and_exports(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        events_path = str(tmp_path / "events.jsonl")
        prom_path = str(tmp_path / "metrics.prom")
        code = main(
            [
                "obs",
                "d12_auto",
                "--islands",
                "3",
                "--segments",
                "16",
                "--chrome-trace",
                trace_path,
                "--events",
                events_path,
                "--prom",
                prom_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "island states" in out
        doc = json.loads(open(trace_path).read())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        types = set()
        with open(events_path) as fh:
            for line in fh:
                types.add(json.loads(line)["type"])
        assert "span" in types
        assert open(prom_path).read().startswith("# ")

    def test_obs_subcommand_html(self, tmp_path, capsys):
        html_path = str(tmp_path / "dash.html")
        code = main(
            ["obs", "d12_auto", "--islands", "3", "--segments", "16",
             "--html", html_path]
        )
        assert code == 0
        html = open(html_path).read()
        assert html.startswith("<!DOCTYPE html>")
        assert "Island states" in html

    def test_control_telemetry_out(self, tmp_path, capsys):
        out_path = str(tmp_path / "telemetry.jsonl")
        code = main(
            ["control", "d12_auto", "--islands", "3", "--segments", "16",
             "--telemetry-out", out_path]
        )
        assert code == 0
        assert ("wrote %s" % out_path) in capsys.readouterr().out
        with open(out_path) as fh:
            for line in fh:
                rec = json.loads(line)
                assert rec["type"] == "telemetry"
                assert rec["kind"] in TELEMETRY_KINDS
