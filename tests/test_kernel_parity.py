"""Path-allocation kernel parity: the fast path against the reference.

Path allocation has one kernel: direct reuse, then the direct-open
shortcut, then the scalar Dijkstra ``_search``.  The shortcut and the
intermediate-dominance skip run only on the fast path
(``enable_caches=True``); the reference mode routes every flow through
the full search.  Their contract is that every observable synthesis
output — design points, routes, power and latency figures, objective
costs, even the failure list — is *bit-identical* between the two.
These tests compare exact floats, no rounding: any drift in tie-breaking
fails here before it can silently move a benchmark number.

``test_perf.py`` covers the same contract at ``max_intermediate=1``;
the cases here run the default config and the shortcut-specific edges.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.objective import StaticLatencyObjective
from repro.core.paths import PathCostConfig
from repro.power.library import DEFAULT_LIBRARY

from _helpers import assert_fast_matches_reference


class TestParity:
    def test_tiny(self, tiny_spec):
        assert_fast_matches_reference(tiny_spec)

    def test_tiny_single_island(self, tiny_spec_1isl):
        assert_fast_matches_reference(tiny_spec_1isl)

    def test_tiny_with_intermediate_sweep(self, tiny_spec):
        assert_fast_matches_reference(tiny_spec, max_intermediate=2)

    def test_d26_logical(self, d26_log6):
        assert_fast_matches_reference(d26_log6)

    def test_d26_communication(self, d26_com4):
        fast, reference = assert_fast_matches_reference(d26_com4)
        # The direct-open shortcut is part of the fast path only.
        assert fast["direct_open_shortcuts"] > 0
        assert reference.get("direct_open_shortcuts", 0) == 0

    def test_objective_costs_match(self, tiny_spec):
        assert_fast_matches_reference(
            tiny_spec, objective=StaticLatencyObjective()
        )

    @pytest.mark.parametrize(
        "library, path_cost",
        [
            (
                dataclasses.replace(DEFAULT_LIBRARY, fifo_leak_mw=-0.05),
                PathCostConfig(),
            ),
            (DEFAULT_LIBRARY, PathCostConfig(open_cost_weight=-0.1)),
        ],
        ids=["negative_library_term", "negative_open_weight"],
    )
    def test_negative_cost_term_disables_shortcut(
        self, d26_com4, library, path_cost
    ):
        """The shortcut's dominance proof needs non-negative cost
        terms; with one negative it must turn itself off, and the fast
        path must still match the reference."""
        fast, _ = assert_fast_matches_reference(
            d26_com4, library=library, max_intermediate=1, path_cost=path_cost
        )
        assert fast.get("direct_open_shortcuts", 0) == 0

    @pytest.mark.slow
    def test_d38(self):
        from repro.soc.benchmarks import load_benchmark
        from repro.soc.partitioning import communication_partitioning

        assert_fast_matches_reference(
            communication_partitioning(load_benchmark("d38_media"), 4),
            max_intermediate=1,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("n_cores", [80, 120])
    def test_generated_soc(self, n_cores):
        """Generated 4-island SoCs large enough that most flows take the
        direct-open shortcut and the rest a long Dijkstra search."""
        from repro.soc.generator import GeneratorConfig, generate_soc
        from repro.soc.partitioning import communication_partitioning

        spec = generate_soc(
            GeneratorConfig(
                name="gen%d" % n_cores, num_cores=n_cores, num_groups=4, seed=7
            )
        )
        fast, _ = assert_fast_matches_reference(
            communication_partitioning(spec, 4), max_intermediate=1
        )
        assert fast["direct_open_shortcuts"] > 0
        assert fast["dijkstra_pops"] > 0


class TestReferenceMode:
    def test_uncached_pins_scalar(self, d26_com4):
        """``enable_caches=False`` pins the bare scalar search: no flow
        takes the direct-open shortcut and no k>0 attempt is skipped,
        so every cached-vs-uncached determinism test doubles as a
        kernel parity check."""
        _, reference = assert_fast_matches_reference(
            d26_com4, max_intermediate=2
        )
        assert reference.get("direct_open_shortcuts", 0) == 0
        assert reference.get("intermediate_attempts_skipped", 0) == 0
        assert reference["dijkstra_pops"] > 0
