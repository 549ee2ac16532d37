"""Path-allocation kernel parity: the fast path against the reference.

Path allocation has one kernel: direct reuse, then the direct-open
shortcut, then the scalar Dijkstra ``_search``.  The shortcut, the
intermediate-dominance skip and the search's class rule (dominated
pops skip their open edges) run only on the fast path
(``enable_caches=True``); the reference mode routes every flow through
the full, unpruned search.  Their contract is that every observable
synthesis output — design points, routes, power and latency figures,
objective costs, even the failure list — is *bit-identical* between
the two.  These tests compare exact floats, no rounding: any drift in
tie-breaking fails here before it can silently move a benchmark number.

``test_perf.py`` covers the same contract at ``max_intermediate=1``;
the cases here run the default config, the shortcut-specific edges,
port-starved libraries where the dead-edge evidence matters, and
backup-route allocation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import SynthesisConfig, synthesize
from repro.core.objective import StaticLatencyObjective
from repro.core.paths import PathAllocator, PathCostConfig
from repro.perf import recording
from repro.power.library import DEFAULT_LIBRARY
from repro.resilience.spare_paths import SparePathConfig, allocate_spare_paths

from _helpers import assert_fast_matches_reference

#: A library whose switch fmax falls steeply with port count: island
#: switches run out of ports, so k=0 attempts hit dead edges and the
#: class rule's dead-edge evidence decides the intermediate skip.
PORT_STARVED = dataclasses.replace(
    DEFAULT_LIBRARY, switch_fmax_slope_mhz_per_port=90.0
)


def generated_spec(n_cores, seed=7):
    """A generated 4-island SoC, communication-partitioned."""
    from repro.soc.generator import GeneratorConfig, generate_soc
    from repro.soc.partitioning import communication_partitioning

    spec = generate_soc(
        GeneratorConfig(
            name="gen%d" % n_cores, num_cores=n_cores, num_groups=4, seed=seed
        )
    )
    return communication_partitioning(spec, 4)


def assert_k0_evidence_matches(spec, library, monkeypatch):
    """Byte parity plus equal ``k0_dominance`` after every k=0 attempt.

    Returns the fast path's per-attempt ``k0_dominance`` flags."""
    flags = {True: [], False: []}
    allocate = PathAllocator.allocate

    def traced(self, num_intermediate=0):
        result = allocate(self, num_intermediate)
        if num_intermediate == 0:
            flags[self.use_cache].append((result.success, self.k0_dominance))
        return result

    monkeypatch.setattr(PathAllocator, "allocate", traced)
    assert_fast_matches_reference(spec, library=library, max_intermediate=1)
    assert flags[True] == flags[False]
    return [armed for _, armed in flags[True]]


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

    def test_generated_40(self):
        """A generated 40-core SoC: long enough searches that the class
        rule skips most open-edge scans."""
        fast, reference = assert_fast_matches_reference(
            generated_spec(40), max_intermediate=1
        )
        assert fast["open_scans_skipped"] > 0
        assert reference.get("open_scans_skipped", 0) == 0
        assert fast["edge_evals"] < reference["edge_evals"]

    def test_port_starved_40(self, monkeypatch):
        armed = assert_k0_evidence_matches(
            generated_spec(40), PORT_STARVED, monkeypatch
        )
        assert False in armed and True in armed

    @pytest.mark.slow
    def test_port_starved_80(self, monkeypatch):
        armed = assert_k0_evidence_matches(
            generated_spec(80), PORT_STARVED, monkeypatch
        )
        assert False in armed and True in armed

    @pytest.mark.slow
    @pytest.mark.parametrize("n_cores", [80, 120, 160])
    def test_generated_soc(self, n_cores):
        """Generated 4-island SoCs large enough that most flows take the
        direct-open shortcut and the rest a long Dijkstra search."""
        fast, _ = assert_fast_matches_reference(
            generated_spec(n_cores), max_intermediate=1
        )
        assert fast["direct_open_shortcuts"] > 0
        assert fast["dijkstra_pops"] > 0
        assert fast["open_scans_skipped"] > 0


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


class TestBackupRoutes:
    """``route_backup`` runs the same search, with forbidden links,
    spare reservations and (node-disjoint) blocked switches."""

    @pytest.fixture(scope="class")
    def gen80_best(self):
        space = synthesize(generated_spec(80), config=SynthesisConfig(max_intermediate=1))
        return space.best_by_power()

    @staticmethod
    def plan(point, config, use_cache):
        topo = point.topology.clone_scaffold()
        with recording() as rec:
            plan = allocate_spare_paths(
                topo,
                config=config,
                allocator=PathAllocator.for_topology(topo, use_cache=use_cache),
            )
        opened = [(topo.links[lid].src, topo.links[lid].dst) for lid in plan.opened_links]
        return plan, opened, rec.counters

    @pytest.mark.parametrize("node_disjoint", [False, True])
    @pytest.mark.parametrize("design", ["d26", "gen80"])
    def test_spare_plans_match(self, design, node_disjoint, d26_best, gen80_best):
        point = d26_best if design == "d26" else gen80_best
        config = SparePathConfig(k=1, node_disjoint=node_disjoint)
        fast_plan, fast_opened, fast = self.plan(point, config, True)
        ref_plan, ref_opened, reference = self.plan(point, config, False)
        assert fast_plan == ref_plan
        assert fast_opened == ref_opened
        assert reference.get("open_scans_skipped", 0) == 0
        if design == "gen80":
            assert fast["open_scans_skipped"] > 0

    def test_route_around_skips_nothing(self, gen80_best):
        """Online reroutes cannot open links, so the class rule (which
        only prunes open edges) never engages."""
        topo = gen80_best.topology
        alloc = PathAllocator.for_topology(topo)
        with recording() as rec:
            for key, route in sorted(topo.routes.items()):
                sw_links = [l for l in route.links if topo.links[l].kind == "sw2sw"]
                if sw_links:
                    alloc.route_around(topo, key, sw_links[:1])
        assert rec.counters["dijkstra_pops"] > 0
        assert rec.counters.get("open_scans_skipped", 0) == 0


def random_fabric(seed):
    """A small random fabric with tight port bounds, partly used links
    and fresh intermediate switches, plus the rng that drew it.

    Island clocks near the 2-port fmax leave 2-6 ports per switch, so
    successors run out of ports, reuse rescues dead opens, and the
    class representative is sometimes a fresh intermediate switch."""
    import random

    from repro import CoreSpec, TrafficFlow, build_spec
    from repro.arch.topology import INTERMEDIATE_ISLAND, Topology

    rng = random.Random(seed)
    cores, assignment = [], {}
    for isl in range(3):
        for j in range(3):
            name = "c%d_%d" % (isl, j)
            cores.append(CoreSpec(name, 1.0, 10.0, 1.0))
            assignment[name] = isl
    names = sorted(assignment)
    flows = []
    for src in names:
        for dst in rng.sample(names, 3):
            if dst != src:
                flows.append(TrafficFlow(src, dst, rng.uniform(10.0, 2500.0), 20.0))
    spec = build_spec("fabric%d" % seed, cores, flows, assignment)
    freqs = {isl: rng.choice([870.0, 900.0, 930.0, 950.0]) for isl in range(3)}
    freqs[INTERMEDIATE_ISLAND] = rng.choice([870.0, 900.0, 950.0])
    # A cheap clock-tree floor next to a steep per-port crossbar energy
    # lets a fresh intermediate switch pop before a connected one whose
    # opens are cheaper: the class must tell the two apart.
    library = dataclasses.replace(
        DEFAULT_LIBRARY,
        switch_idle_mw_per_mhz_base=rng.choice([0.003, 0.0003]),
        switch_ebit_per_port_pj=rng.choice([0.0115, 0.1]),
    )
    topo = Topology(spec, library, freqs)
    for isl in range(3):
        switches = [topo.add_switch(isl, j) for j in range(rng.randint(1, 3))]
        for name in names:
            if assignment[name] == isl:
                topo.attach_core(name, rng.choice(switches))
    for j in range(rng.randint(0, 3)):
        topo.add_switch(INTERMEDIATE_ISLAND, j)
    sw_ids = list(topo.switches)
    for _ in range(rng.randint(0, 14)):
        a, b = rng.sample(sw_ids, 2)
        link = topo.open_link(a, b)
        link._used_mbps = link.capacity_mbps * rng.choice([0.0, 0.5, 0.9, 1.0])
    return rng, topo


def search_views(topo):
    """``(sw_list, idx_of, pair_links)`` of ``topo``, as callers of the
    search build them."""
    sw_list = list(topo.switches.values())
    idx_of = {sw.id: i for i, sw in enumerate(sw_list)}
    pair_links = {}
    for link in topo.links.values():
        if link.kind == "sw2sw":
            key = idx_of[link.src] * len(sw_list) + idx_of[link.dst]
            pair_links.setdefault(key, []).append(link)
    return sw_list, idx_of, pair_links


class TestClassRule:
    """The class rule against the unpruned search on random fabrics:
    same routes, same latency and the same dead-edge evidence (the
    flag that arms the k=0 intermediate-dominance skip), under every
    port reserve the primary allocation retries with."""

    @staticmethod
    def search(alloc, topo, sw_list, pair_links, flow, src_i, dst_i, **kw):
        n = len(sw_list)
        alloc._blocked = False
        found = alloc._search(
            topo, sw_list, n, alloc._adj_store if alloc.use_cache else {},
            alloc._ranks(sw_list), alloc.use_cache, pair_links, flow,
            src_i, dst_i, 0.4, 0.8, **kw
        )
        return found, alloc._blocked

    def test_random_fabrics(self):
        skipped = blocked_searches = 0
        for seed in range(150):
            rng, topo = random_fabric(seed)
            sw_list, idx_of, pair_links = search_views(topo)
            allocators = [
                PathAllocator.for_topology(topo, use_cache=use_cache)
                for use_cache in (True, False)
            ]
            link_ids = sorted(l.id for links in pair_links.values() for l in links)
            for flow in topo.spec.flows:
                src_i = idx_of[topo.switch_of_core(flow.src).id]
                dst_i = idx_of[topo.switch_of_core(flow.dst).id]
                if src_i == dst_i:
                    continue
                kw = dict(
                    port_reserve=rng.choice([0, 0, 1, 2]),
                    latency_only=rng.random() < 0.25,
                    forbidden_links=set(rng.sample(link_ids, len(link_ids) // 4)),
                )
                fast, reference = (
                    self.search(alloc, topo, sw_list, pair_links, flow, src_i, dst_i, **kw)
                    for alloc in allocators
                )
                assert fast == reference, (seed, flow.key, kw)
                blocked_searches += fast[1]
            # _search leaves its counters for allocate()/route_backup()
            # to flush.
            skipped += allocators[0]._open_skips
            assert allocators[1]._open_skips == 0
        assert skipped > 0 and blocked_searches > 0

    def test_fresh_switch_is_its_own_class(self):
        """A fresh switch pays its clock-tree floor ``F`` on every open,
        so it must not stand in for a connected switch of its island.

        Under a port reserve the source can only open into the
        intermediate island, where ``m0`` is fresh and ``m1`` has three
        input ports.  The flow's bandwidth puts the crossbar penalty of
        those ports between ``F`` and ``2F``: ``m0`` pops first, yet the
        cheapest route opens ``m1 -> t``."""
        from repro import CoreSpec, TrafficFlow, build_spec, units
        from repro.arch.topology import INTERMEDIATE_ISLAND, Topology

        library = dataclasses.replace(
            DEFAULT_LIBRARY, switch_idle_mw_per_mhz_base=0.0, switch_leak_mw_base=0.2
        )
        floor = library.switch_leak_mw_base
        penalty = library.switch_ebit_pj(3, 1) - library.switch_ebit_pj(1, 1)
        bw = 1.5 * floor / units.traffic_power_mw(1.0, penalty)
        assert floor < units.traffic_power_mw(bw, penalty) < 2 * floor
        spec = build_spec(
            "fresh",
            [CoreSpec(name, 1.0, 10.0, 1.0) for name in "abc"],
            [TrafficFlow("a", "b", bw, 20.0)],
            {"a": 0, "b": 1, "c": 2},
        )
        # Island 0 runs at the 2-port fmax: its switch has no port to
        # spare for a reserved cross-island link.
        topo = Topology(
            spec, library, {0: 1000.0, 1: 900.0, 2: 900.0, INTERMEDIATE_ISLAND: 900.0}
        )
        s, t = topo.add_switch(0, 0), topo.add_switch(1, 0)
        topo.attach_core("a", s)
        topo.attach_core("b", t)
        topo.add_switch(INTERMEDIATE_ISLAND, 0)  # m0, fresh
        m1 = topo.add_switch(INTERMEDIATE_ISLAND, 1)
        feeders = [topo.add_switch(2, j) for j in range(3)]
        topo.attach_core("c", feeders[0])
        for feeder in feeders:
            topo.open_link(feeder.id, m1.id)
        sw_list, idx, pair_links = search_views(topo)
        results = [
            self.search(
                PathAllocator.for_topology(topo, use_cache=use_cache), topo,
                sw_list, pair_links, spec.flows[0], idx[s.id], idx[t.id],
                port_reserve=1,
            )
            for use_cache in (True, False)
        ]
        assert results[0] == results[1]
        (hops, _), _ = results[0]
        assert [(sw_list[u].id, sw_list[v].id) for u, v, _, _ in hops] == [
            (s.id, m1.id), (m1.id, t.id)
        ]
