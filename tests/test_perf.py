"""Fast-path plumbing: instrumentation, cost caches, determinism.

The synthesis fast path (scaffold cloning, partition memoization,
edge-cost caching, and the path search's intermediate-dominance skip,
direct-open shortcut and class rule) is only acceptable if it is
invisible in the results: ``enable_caches`` on and off must yield
byte-identical design spaces — design points, routes, power and
latency figures, objective costs and the failure list, compared as
exact floats.  These tests pin that contract, plus the PerfRecorder
used to observe the hot path.  The path search's own parity cases
(default config, objective costs, the shortcut's self-disabling, the
class rule, backup routes, the ``slow`` large-SoC legs) are in
``test_kernel_parity.py``.
"""

from __future__ import annotations

from repro import SynthesisConfig, synthesize
from repro.core.paths import PathAllocator
from repro.obs import span
from repro.obs.context import current
from repro.perf import PerfRecorder, recording
from repro.power.library import DEFAULT_LIBRARY

from _helpers import (
    assert_fast_matches_reference,
    make_tiny_spec,
    space_signature,
)


class TestPerfRecorder:
    def test_counters_accumulate(self):
        rec = PerfRecorder()
        rec.count("pops")
        rec.count("pops", 41)
        assert rec.counters == {"pops": 42}

    def test_phase_timers_accumulate(self):
        with recording() as rec:
            with span("allocate"):
                pass
            with span("allocate"):
                pass
        assert rec.phase_seconds["allocation"] >= 0.0
        snap = rec.snapshot()
        assert set(snap) == {"counters", "phase_seconds"}

    def test_recording_installs_and_restores(self):
        assert current().perf is None
        with recording() as outer:
            assert current().perf is outer
            with recording() as inner:
                assert current().perf is inner
            assert current().perf is outer
        assert current().perf is None

    def test_reset(self):
        rec = PerfRecorder()
        rec.count("x")
        rec.add_phase("p", 1.0)
        rec.reset()
        assert rec.counters == {} and rec.phase_seconds == {}

    def test_synthesis_emits_counters(self, tiny_spec):
        with recording() as rec:
            synthesize(tiny_spec, config=SynthesisConfig(max_intermediate=1))
        assert rec.counters["dijkstra_pops"] > 0
        assert rec.counters["edge_evals"] > 0
        assert rec.counters["links_opened"] > 0
        assert rec.counters["scaffold_clones"] > 0
        assert rec.counters["partition_cache_misses"] > 0
        for phase in ("partitioning", "allocation", "evaluation"):
            assert rec.phase_seconds[phase] >= 0.0

    def test_uncached_run_emits_no_cache_hits(self, tiny_spec):
        with recording() as rec:
            synthesize(
                tiny_spec,
                config=SynthesisConfig(max_intermediate=1, enable_caches=False),
            )
        assert rec.counters.get("cost_cache_hits", 0) == 0
        assert rec.counters.get("partition_cache_hits", 0) == 0
        assert rec.counters.get("scaffold_clones", 0) == 0
        assert rec.counters["scaffold_builds"] > 0


class TestAllocatorCaching:
    def test_allocator_cached_matches_uncached(self, tiny_spec):
        from repro.core.frequency import plan_all_islands
        from repro.core.partition import partition_graph
        from repro.core.vcg import build_all_vcgs

        plans = plan_all_islands(tiny_spec, DEFAULT_LIBRARY, 25.0, 100.0)
        vcgs = build_all_vcgs(tiny_spec, 0.6)
        partitions = {
            isl: partition_graph(
                list(vcgs[isl].nodes),
                vcgs[isl].symmetric_weights(),
                2,
                max_part_size=plans[isl].max_switch_size,
                seed=0,
            )
            for isl in plans
        }
        results = {}
        for use_cache in (True, False):
            alloc = PathAllocator(
                tiny_spec, DEFAULT_LIBRARY, plans, partitions, use_cache=use_cache
            )
            out = []
            for k_mid in (0, 1, 0, 1):  # repeats exercise scaffold reuse
                res = alloc.allocate(num_intermediate=k_mid)
                assert res.success
                topo = res.require_topology()
                out.append(
                    (
                        sorted(topo.switches),
                        sorted(
                            (l.src, l.dst, l.kind, tuple(l.flows))
                            for l in topo.links.values()
                        ),
                        res.links_opened,
                    )
                )
            results[use_cache] = out
        assert results[True] == results[False]


class TestIntermediateDominanceSkip:
    def test_skip_counter_and_equivalence(self, d26_log6):
        """When the k=0 routing is never blocked, k>0 attempts are
        skipped — and the skip must be invisible in the results (the
        uncached reference run routes every attempt in full)."""
        cfg = dict(max_intermediate=2)
        with recording() as rec:
            cached = synthesize(
                d26_log6, config=SynthesisConfig(enable_caches=True, **cfg)
            )
        assert rec.counters.get("intermediate_attempts_skipped", 0) > 0
        uncached = synthesize(
            d26_log6, config=SynthesisConfig(enable_caches=False, **cfg)
        )
        assert space_signature(cached) == space_signature(uncached)

    def test_skip_disabled_without_caches(self, tiny_spec):
        with recording() as rec:
            synthesize(
                tiny_spec,
                config=SynthesisConfig(max_intermediate=1, enable_caches=False),
            )
        assert rec.counters.get("intermediate_attempts_skipped", 0) == 0


class TestSynthesisDeterminism:
    CFG = dict(max_intermediate=1)

    def assert_identical_spaces(self, spec, **cfg):
        return assert_fast_matches_reference(spec, **dict(self.CFG, **cfg))

    def test_tiny_spec_identical(self):
        self.assert_identical_spaces(make_tiny_spec(2))

    def test_tiny_spec_3_islands_identical(self):
        self.assert_identical_spaces(make_tiny_spec(3))

    def test_mobile_soc_identical(self, d26_log6):
        self.assert_identical_spaces(d26_log6)

    def test_mobile_soc_communication_identical(self, d26_com4):
        self.assert_identical_spaces(d26_com4)
