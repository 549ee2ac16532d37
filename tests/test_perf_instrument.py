"""Edge cases of the perf instrumentation layer (repro.perf.instrument).

The recorder is the ``perf`` slot of the run context, consulted from
hot paths, so the corners matter: nested/repeated stage spans must
accumulate phase seconds (not overwrite), ``recording()`` must restore
the previously installed recorder even when the block raises, counter
flushes with no recorder installed must be true no-ops (the hot path is
traversed unrecorded far more often than recorded), and
``merge_snapshot`` must sum — it is how parallel exploration workers
ship their share of the run home.
"""

from __future__ import annotations

import time

import pytest

from repro import SynthesisConfig, synthesize
from repro.obs import span
from repro.obs.context import current
from repro.obs.spans import _NULL_SPAN
from repro.perf import PerfRecorder, recording

pytestmark = pytest.mark.obs

FAST = SynthesisConfig(max_intermediate=1)


class TestPhases:
    def test_repeated_phase_accumulates(self):
        with recording() as rec:
            with span("allocate"):
                time.sleep(0.001)
            first = rec.phase_seconds["allocation"]
            with span("allocate"):
                time.sleep(0.001)
        assert rec.phase_seconds["allocation"] > first

    def test_nested_same_name_phases_accumulate_both_intervals(self):
        # A stage span re-entered while already open adds *both*
        # intervals to the same phase (cumulative semantics): the total
        # can exceed the wall-clock of the outer span alone.
        with recording() as rec:
            t0 = time.perf_counter()
            with span("evaluate"):
                with span("evaluate"):
                    time.sleep(0.002)
            outer = time.perf_counter() - t0
        assert list(rec.phase_seconds) == ["evaluation"]
        assert rec.phase_seconds["evaluation"] >= outer
        assert rec.phase_seconds["evaluation"] >= 2 * 0.002

    def test_phase_records_on_exception(self):
        with recording() as rec:
            with pytest.raises(RuntimeError):
                with span("partition"):
                    raise RuntimeError("boom")
        assert rec.phase_seconds["partitioning"] >= 0.0

    def test_only_stage_spans_feed_phases(self):
        with recording() as rec:
            with span("synthesis"):
                with span("allocate"):
                    pass
        assert list(rec.phase_seconds) == ["allocation"]

    def test_span_without_observers_is_noop(self):
        assert current().perf is None and not current().observed
        with span("partition") as opened:
            assert opened is None
        assert span("partition") is _NULL_SPAN
        assert current().perf is None


class TestRecordingScope:
    def test_recording_restores_previous_recorder_on_exception(self):
        with recording(PerfRecorder()) as outer:
            with pytest.raises(RuntimeError):
                with recording(PerfRecorder()) as inner:
                    assert current().perf is inner
                    assert inner is not outer
                    raise RuntimeError("boom")
            assert current().perf is outer
        assert current().perf is None

    def test_recording_yields_fresh_recorder_and_uninstalls(self):
        assert current().perf is None
        with recording() as rec:
            assert current().perf is rec
        assert current().perf is None

    def test_nested_recording_scopes(self):
        with recording() as outer:
            with recording() as inner:
                assert current().perf is inner
            assert current().perf is outer


class TestCounterFlush:
    def test_flush_without_recorder_is_noop(self, tiny_spec):
        # Synthesis flushes its hot-path counters per allocation; with
        # no recorder installed the flush must vanish without leaving
        # pending state behind.  Identical recorded runs bracketing an
        # unrecorded one must therefore count identically.
        assert current().perf is None
        with recording(PerfRecorder()) as before:
            synthesize(tiny_spec, config=FAST)
        synthesize(tiny_spec, config=FAST)  # unrecorded: None path
        with recording(PerfRecorder()) as after:
            synthesize(tiny_spec, config=FAST)
        assert before.counters
        assert before.counters == after.counters

    def test_count_accumulates(self):
        rec = PerfRecorder()
        rec.count("x")
        rec.count("x", 4)
        assert rec.counters == {"x": 5}


class TestMergeSnapshot:
    def test_merge_sums_counters_and_phases(self):
        a = PerfRecorder()
        a.count("pops", 2)
        a.phase_seconds["alloc"] = 1.5
        b = PerfRecorder()
        b.count("pops", 3)
        b.count("evals", 7)
        b.phase_seconds["alloc"] = 0.5
        b.phase_seconds["eval"] = 1.0
        a.merge_snapshot(b.snapshot())
        assert a.counters == {"pops": 5, "evals": 7}
        assert a.phase_seconds["alloc"] == pytest.approx(2.0)
        assert a.phase_seconds["eval"] == pytest.approx(1.0)

    def test_merge_empty_snapshot_is_noop(self):
        a = PerfRecorder()
        a.count("x", 1)
        a.merge_snapshot({})
        assert a.counters == {"x": 1}

    def test_reset_clears(self):
        rec = PerfRecorder()
        rec.count("x")
        rec.phase_seconds["p"] = 1.0
        rec.reset()
        assert rec.counters == {}
        assert rec.phase_seconds == {}
