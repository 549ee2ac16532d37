"""Per-layer metrics of a traced run.

Every metric is reported on every workload, 0 where the workload does
not reach the layer.  Per-pass metrics are means over the traced
passes; set-up metrics (``import.s``, ``soc.generate.s``,
``resilience.*``, ``core.explore.pool_start_s``) cover the one set-up
of the traced process.

The names and units are declared in ``BENCHMARK.json``; ``run.py``
refuses a run whose computed names differ from them.

``paper_sweep`` runs its syntheses in pool workers, where the
benchmark's wrappers cannot report back; its partition, allocation and
evaluation seconds come from the program's ``repro.perf`` phases,
which the engine merges across processes, and its call counts for
those layers stay 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple


def per_layer(wl, tracer, passes: List[dict], import_s: float) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    idx = [p["index"] for p in traced]
    n = max(1, len(traced))
    totals = tracer.layer_totals(idx)
    setup = tracer.layer_totals([-1])
    counters = _sum_dicts(p["counters"] for p in traced)
    phases = _sum_dicts(p["phases"] for p in traced)

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n

    def secs(name):
        return totals.get(name, {}).get("s", 0.0) / n

    out: Dict[str, float] = {}
    allocs = tracer.attrs_of("core.paths.allocate", idx)
    out["core.paths.allocate.calls"] = calls("core.paths.allocate")
    out["core.paths.allocate.s"] = secs("core.paths.allocate") or phases.get("allocation", 0.0) / n
    out["core.paths.allocate.success_ratio"] = (
        sum(1 for a in allocs if a.get("success")) / len(allocs) if allocs else 0.0
    )
    for counter in ("edge_evals", "dijkstra_pops", "vector_pops",
                    "direct_open_shortcuts", "links_opened"):
        out["core.paths." + counter] = counters.get(counter, 0) / n
    out["core.partition.calls"] = calls("core.partition")
    out["core.partition.s"] = secs("core.partition") or phases.get("partitioning", 0.0) / n
    for name in ("floorplan.place", "floorplan.wires", "arch.validate", "power", "sim.zero_load"):
        out[name + ".s"] = secs(name)
    out["evaluation.s"] = phases.get("evaluation", 0.0) / n

    synth = tracer.attrs_of("core.synthesis", idx)
    out["core.synthesis.calls"] = calls("core.synthesis")
    out["core.synthesis.self_s"] = totals.get("core.synthesis", {}).get("self_s", 0.0) / n
    out["core.synthesis.points"] = sum(a.get("points", 0) for a in synth) / n
    out["core.synthesis.failures"] = sum(a.get("failures", 0) for a in synth) / n
    out["core.synthesis.candidates"] = out["core.synthesis.points"] + out["core.synthesis.failures"]
    out["core.objective.evaluate.calls"] = calls("core.objective.evaluate")
    out["core.objective.evaluate.s"] = secs("core.objective.evaluate")

    gets = tracer.attrs_of("cache.get", idx)
    out["cache.get.calls"] = calls("cache.get")
    out["cache.get.s"] = secs("cache.get")
    out["cache.put.calls"] = calls("cache.put")
    out["cache.put.s"] = secs("cache.put")
    out["cache.hits"] = sum(1 for g in gets if g.get("hit")) / n
    out["cache.misses"] = sum(1 for g in gets if not g.get("hit")) / n
    for tier in ("space", "partition", "allocation"):
        probes = [g for g in gets if g.get("kind") == tier]
        out["cache.hit_ratio." + tier] = (
            sum(1 for g in probes if g.get("hit")) / len(probes) if probes else 0.0
        )
    out["cache.bytes_written"] = sum(
        a.get("bytes", 0) for a in tracer.attrs_of("cache.put", idx)
    ) / n

    runs = tracer.attrs_of("core.explore.run", idx)
    out["core.explore.pool_start_s"] = float(wl.setup_facts.get("pool_start_s", 0.0))
    out["core.explore.tasks"] = sum(a.get("tasks", 0) for a in runs) / n
    out["core.explore.task_busy_s"] = sum(a.get("busy_s", 0.0) for a in runs) / n
    run_s = secs("core.explore.run")
    out["core.explore.idle_frac"] = (
        1.0 - out["core.explore.task_busy_s"] / (wl.workers * run_s) if run_s else 0.0
    )
    out["core.explore.worker_pids"] = len({pid for a in runs for pid in a.get("pids", ())})

    sims = tracer.attrs_of("runtime.simulate", idx)
    out["runtime.simulate.calls"] = calls("runtime.simulate")
    out["runtime.simulate.s"] = secs("runtime.simulate")
    out["runtime.simulate.segments"] = sum(a.get("segments", 0) for a in sims) / n
    out["runtime.simulate.s_per_segment"] = (
        out["runtime.simulate.s"] / out["runtime.simulate.segments"]
        if out["runtime.simulate.segments"] else 0.0
    )
    out["runtime.simulate.gate_events"] = sum(a.get("gate_events", 0) for a in sims) / n
    out["control.replay.calls"] = calls("control.replay")
    out["control.replay.s"] = secs("control.replay")
    out["control.run.s"] = secs("control.run")
    out["control.recoveries"] = sum(a.get("recoveries", 0) for a in sims) / n

    out["resilience.protect.s"] = setup.get("resilience.protect", {}).get("s", 0.0)
    out["resilience.coverage.s"] = setup.get("resilience.coverage", {}).get("s", 0.0)
    out["soc.generate.s"] = setup.get("soc.generate", {}).get("s", 0.0)
    out["import.s"] = import_s

    out["bench.traced_passes"] = len(traced)
    overhead, spread = trace_overhead(passes)
    out["bench.trace_overhead_frac"] = overhead
    out["bench.trace_overhead_spread"] = spread
    out["bench.unattributed_frac"] = unattributed(wl, traced, totals, phases)
    return out


def trace_overhead(passes: List[dict]) -> Tuple[float, float]:
    """Median traced over median untraced pass wall, minus one; and spread.

    Pass walls are host-speed scaled, so a change of host state between
    passes does not read as tracing cost.  The spread is the range of
    the ratios of every traced pass to every untraced pass of the run.
    """
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if not traced or not untraced:
        return 0.0, 0.0
    ratios = [t / u for t in traced for u in untraced]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    return overhead, max(ratios) - min(ratios)


def unattributed(wl, traced: List[dict], totals, phases) -> float:
    """Share of traced wall time that no layer's self time covers.

    On ``paper_sweep`` the layers run in pool workers, so the share is
    taken of the workers' busy time: busy time not inside a perf phase.
    """
    wall = sum(p["wall_raw_s"] for p in traced)
    if not wall:
        return 0.0
    if wl.name == "paper_sweep":
        busy = sum(p["engaged"].get("task_busy_s", 0.0) for p in traced)
        inside = sum(phases.get(k, 0.0) for k in ("partitioning", "allocation", "evaluation"))
        return 1.0 - inside / busy if busy else 0.0
    attributed = sum(row["self_s"] for name, row in totals.items() if name != "bench.op")
    return 1.0 - attributed / wall


def _sum_dicts(dicts) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out
