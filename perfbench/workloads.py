"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, starts
any long-lived machinery in :meth:`start`, and then runs one *pass*
over a fixed op list per :meth:`run_pass` call.  Only the call into
the program is timed; the output checks run between ops.

Inputs come from the seed, but only through values that do not change
how much work the program does: synthesis specs keep a fixed traffic
graph per size (generator seed 7, the traffic the old scaling harness
used) and take the seed's jitter on core area, dynamic and leakage
power, which moves floorplans, power figures and the chosen design
points; the shutdown replay takes the seed as its Markov trace seed.
README.md explains why the traffic graph is not drawn from the seed.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

import repro
from repro.cache import CacheStore, caching
from repro.core.explore import ExplorationEngine
from repro.core.objective import StaticLatencyObjective, StaticPowerObjective
from repro.core.spec import SoCSpec, build_spec
from repro.resilience import FaultEvent, enumerate_scenarios, route_affected
from repro.soc.generator import GeneratorConfig
from repro.soc.usecases import use_cases_for

import hostspeed
from checks import digest, point_problems, points_signature

#: Traffic-graph seed of the generated specs (see module docstring).
STRUCTURE_SEED = 7
#: Synthesis knobs shared by every synthesis workload.
FAST = repro.SynthesisConfig(max_intermediate=1)


def generated_spec(num_cores: int, seed: int) -> SoCSpec:
    """A 4-island generated SoC: fixed traffic, seed-jittered cores."""
    base = repro.communication_partitioning(
        repro.soc.generator.generate_soc(
            GeneratorConfig(
                name="gen%d" % num_cores,
                num_cores=num_cores,
                num_groups=4,
                seed=STRUCTURE_SEED,
            )
        ),
        4,
    )
    return physical_variant(base, seed)


def physical_variant(spec: SoCSpec, seed: int) -> SoCSpec:
    """``spec`` with core area and power scaled by seeded factors in [0.8, 1.25]."""
    rng = random.Random("%s/%d" % (spec.name, seed))
    cores = [
        dataclasses.replace(
            c,
            area_mm2=round(c.area_mm2 * rng.uniform(0.8, 1.25), 3),
            dynamic_power_mw=round(c.dynamic_power_mw * rng.uniform(0.8, 1.25), 2),
            leakage_power_mw=round(c.leakage_power_mw * rng.uniform(0.8, 1.25), 2),
        )
        for c in spec.cores
    ]
    return build_spec(spec.name, cores, list(spec.flows), dict(spec.vi_assignment))


class PidSelector:
    """Best-power selection that also reports the worker pid."""

    def __call__(self, space):
        return space.best_by_power()

    def columns(self, point) -> Dict[str, object]:
        return {"worker_pid": os.getpid()}

    def column_names(self):
        return ("worker_pid",)


class Workload:
    """Shared op bookkeeping; subclasses define the op list."""

    name = ""
    #: Op classes whose latencies make up ``op_p50_s``.
    primary: tuple = ()
    #: Op classes whose latencies add up to a pass's wall time.
    top_level = ("cold", "warm", "rekey", "sweep", "policies", "replay")
    #: Whether the ops run in this process only, so a pinned
    #: :class:`hostspeed.Sampler` can scale them.
    in_process = True

    def __init__(self, seed: int, workers: int, scratch: str, tracer) -> None:
        self.seed = seed
        self.workers = workers
        self.scratch = scratch
        self.tracer = tracer
        self.tracing = False
        #: (class, label, seconds, ok, host-speed scale) per timed op of
        #: the current pass.
        self.ops: List[list] = []
        #: Output digests of the current pass, by op label.
        self.digests: Dict[str, str] = {}
        #: Failed-check messages of the current pass.
        self.problems: List[str] = []
        #: Mechanism counters of the current pass (asserted by the child).
        self.engaged: Dict[str, float] = {}
        self.setup_facts: Dict[str, object] = {}
        self.sampler: Optional[hostspeed.Sampler] = None

    def setup(self) -> None:
        """Build the inputs (traced in a traced run)."""

    def start(self) -> None:
        """Start long-lived machinery (never traced)."""

    def close(self) -> None:
        """Release what :meth:`start` started."""

    def helper_pids(self) -> List[int]:
        return []

    def begin_pass(self) -> None:
        self.ops, self.digests, self.problems, self.engaged = [], {}, [], {}

    def run_pass(self, pass_index: int) -> None:
        raise NotImplementedError

    def op(self, cls: str, label: str, fn: Callable[[], object]):
        """Time one call into the program; a raise fails the op.

        The op's entry keeps the measured seconds and the host-speed
        scale (see :mod:`hostspeed`): from the sampler's probes during
        the call, or, without a sampler, from probes right before and
        right after it.
        """
        entry = [cls, label, 0.0, True, 1.0]
        self.ops.append(entry)
        if self.tracing:
            self.tracer.op_id += 1
        before = None if self.sampler else self.probe()
        result = None
        with self.tracer.span("bench.op") if self.tracing else nullcontext({}) as attrs:
            attrs.update({"class": cls, "label": label})
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                traceback.print_exc()
                entry[3] = False
                self.problems.append("%s raised %s: %s" % (label, type(exc).__name__, exc))
            t1 = time.perf_counter()
            entry[2] = t1 - t0
        if self.sampler:
            entry[4] = self.sampler.factor(t0, t1)
        else:
            entry[4] = hostspeed.factor(before, self.probe())
        return result

    def probe(self) -> float:
        """Host-speed probe for this workload's ops (see :mod:`hostspeed`)."""
        return hostspeed.probe()

    def fail(self, problems: List[str], entry: Optional[list] = None) -> None:
        """Record check failures against an op (the last one by default)."""
        if problems:
            self.problems.extend(problems)
            (entry or self.ops[-1])[3] = False

    def check_points(self, label: str, points) -> None:
        problems: List[str] = []
        for point in points:
            problems.extend(point_problems(point))
        self.fail(["%s: %s" % (label, p) for p in problems])


class SynthLarge(Workload):
    """Cold serial synthesis of generated 120- and 160-core SoCs."""

    name = "synth_large"
    primary = ("cold",)
    SIZES = (120, 160)

    def setup(self) -> None:
        self.specs = [generated_spec(n, self.seed) for n in self.SIZES]

    def run_pass(self, pass_index: int) -> None:
        for spec in self.specs:
            label = "synth%d" % len(spec.cores)
            space = self.op("cold", label, lambda: repro.synthesize(spec, config=FAST))
            if space is None:
                return
            self.check_points(label, space.points)
            self.digests[label] = digest(points_signature(space.points))


class CacheRW(Workload):
    """Cold write, warm read and objective re-key against the disk store."""

    name = "cache_rw"
    primary = ("cold",)
    SIZES = (80, 120)
    COLD = dataclasses.replace(FAST, objective=StaticPowerObjective())
    REKEY = dataclasses.replace(FAST, objective=StaticLatencyObjective())

    def setup(self) -> None:
        self.specs = [generated_spec(n, self.seed) for n in self.SIZES]

    def _synth(self, directory: str, spec: SoCSpec, config):
        store = CacheStore.open(directory)
        with caching(store):
            space = repro.synthesize(spec, config=config)
        return space, store.stats.counters

    def run_pass(self, pass_index: int) -> None:
        for spec in self.specs:
            n = len(spec.cores)
            # A directory of its own per op group: nothing a killed or
            # concurrent run left behind can warm the cold op.
            directory = tempfile.mkdtemp(prefix="cache-%d-" % n, dir=self.scratch)
            try:
                self._one_size(directory, spec, n)
            finally:
                shutil.rmtree(directory, ignore_errors=True)

    def _one_size(self, directory: str, spec: SoCSpec, n: int) -> None:
        cold = self.op("cold", "cold%d" % n, lambda: self._synth(directory, spec, self.COLD))
        if cold is None:
            return
        space, stats = cold
        self.check_points("cold%d" % n, space.points)
        if _sum(stats, "hits") or not _sum(stats, "puts.space"):
            self.fail(["cold%d: want no hit and a new space entry, got %s" % (n, stats)])
        signature = points_signature(space.points)
        self.digests["cold%d" % n] = digest(signature)

        warm = self.op("warm", "warm%d" % n, lambda: self._synth(directory, spec, self.COLD))
        if warm is None:
            return
        space, stats = warm
        self.check_points("warm%d" % n, space.points)
        problems = []
        if _sum(stats, "hits", ".space") != 1 or _sum(stats, "misses"):
            problems.append("warm%d: want one space hit and no miss, got %s" % (n, stats))
        if points_signature(space.points) != signature:
            problems.append("warm%d output differs from cold" % n)
        self.fail(problems)
        self.engaged["warm_space_hits"] = (
            self.engaged.get("warm_space_hits", 0) + _sum(stats, "hits", ".space")
        )

        rekey = self.op("rekey", "rekey%d" % n, lambda: self._synth(directory, spec, self.REKEY))
        if rekey is None:
            return
        space, stats = rekey
        self.check_points("rekey%d" % n, space.points)
        problems = []
        if _sum(stats, "misses.space") != 1 or _sum(stats, "puts.space") != 1:
            problems.append("rekey%d: want a space miss and a new space entry, got %s" % (n, stats))
        for tier in ("partition", "allocation"):
            if not _sum(stats, "hits", "." + tier):
                problems.append("rekey%d: no %s-tier hit" % (n, tier))
        if points_signature(space.points) != signature:
            problems.append("rekey%d points differ from cold" % n)
        self.fail(problems)
        self.digests["rekey%d" % n] = digest(
            [signature, [list(p.objective_result.cost) for p in space.points]]
        )


def _sum(counters: Dict[str, int], prefix: str, suffix: str = "") -> int:
    return sum(
        v for k, v in counters.items()
        if (k == prefix or k.startswith(prefix + ".")) and k.endswith(suffix)
    )


class PaperSweep(Workload):
    """The Fig. 2/3 island-count sweep of every built-in spec on a pool."""

    name = "paper_sweep"
    primary = ("task",)
    in_process = False
    COUNTS = range(1, 7)

    def setup(self) -> None:
        self.engine = ExplorationEngine(self.workers, config=FAST, select=PidSelector())
        self.tasks = []
        for spec in repro.benchmark_suite():
            self.tasks += self.engine.island_count_tasks(
                physical_variant(spec, self.seed), self.COUNTS
            )
        self.pids: set = set()

    def start(self) -> None:
        # The engine forks its pool on the first parallel run over this
        # task list's specs; a capped config makes that run cheap.
        cheap = dataclasses.replace(FAST, max_design_points=1, max_intermediate=0)
        t0 = time.perf_counter()
        warmup = self.engine.run(
            [self.engine.task(t.spec, t.knobs, config=cheap) for t in self.tasks]
        )
        self.setup_facts["pool_start_s"] = time.perf_counter() - t0
        self.pids.update(_pids(warmup))

    def close(self) -> None:
        self.engine.close()

    def probe(self) -> float:
        # The sweep runs on every CPU, and each CPU changes speed on its
        # own: probe each one in turn and take the mean.
        return hostspeed.probe_each_cpu()

    def helper_pids(self) -> List[int]:
        return sorted(self.pids)

    def run_pass(self, pass_index: int) -> None:
        records = self.op("sweep", "sweep", lambda: self.engine.run(self.tasks))
        if records is None:
            return
        sweep = self.ops[-1]
        rows = []
        for task, rec in zip(self.tasks, records):
            label = "%s/%s/%d" % (task.spec.name, rec.knobs["strategy"], rec.knobs["islands"])
            entry = ["task", label, rec.elapsed_s, True, sweep[4]]
            self.ops.append(entry)
            if not rec.feasible:
                self.fail(["%s infeasible: %s" % (label, rec.failure)], entry)
                continue
            self.fail(point_problems(rec.point), entry)
            rows.append(
                [dict(rec.knobs), rec.point.label(), round(rec.point.power_mw, 9),
                 round(rec.point.avg_latency_cycles, 9), rec.design_points]
            )
        pids = _pids(records)
        self.pids.update(pids)
        if len(pids) < 2:
            self.fail(["sweep records came from %d worker pid(s)" % len(pids)], sweep)
        self.digests["sweep"] = digest(rows)
        self.engaged["worker_pids"] = len(pids)
        self.engaged["tasks"] = len(records)
        self.engaged["task_busy_s"] = sum(r.elapsed_s for r in records)


def _pids(records) -> set:
    return {r.extras["worker_pid"] for r in records if "worker_pid" in r.extras}


class ShutdownReplay(Workload):
    """Policy comparison and controlled fault replays of a long trace on d26."""

    name = "shutdown_replay"
    primary = ("policies", "replay")
    ISLANDS = 6
    SEGMENTS = 400

    def setup(self) -> None:
        spec = repro.logical_partitioning(repro.mobile_soc_26(), self.ISLANDS)
        spec = spec.with_vi_assignment(spec.vi_assignment, name="d26_media")
        best = repro.synthesize(spec, config=FAST).best_by_power()
        self.prot = repro.protect_design_point(best, k=1)
        self.topology = self.prot.topology
        coverage = repro.analyze_model(self.topology, "single_link", plan=self.prot.plan)
        self.setup_facts["protected_coverage"] = coverage.coverage
        self.setup_problems = point_problems(best)
        if coverage.coverage < 1.0:
            self.setup_problems.append("k=1 protection covers %.4f" % coverage.coverage)
        self.scenarios = [
            sc
            for sc in enumerate_scenarios(self.topology, "single_link")
            if any(route_affected(sc, self.topology, r) for r in self.topology.routes.values())
        ]
        self.trace = repro.markov_trace(
            use_cases_for(spec), n_segments=self.SEGMENTS, seed=self.seed
        )

    def run_pass(self, pass_index: int) -> None:
        topo, trace = self.topology, self.trace
        reports = self.op("policies", "policies", lambda: repro.compare_policies(topo, trace))
        if reports is None:
            return
        self.fail(["setup: %s" % p for p in self.setup_problems])
        rows = {}
        for name, rep in reports.items():
            rows[name] = [round(rep.total_mj, 9), rep.gate_events, len(rep.violations)]
            if rep.violations:
                self.fail(["policy %s: %d routability violations" % (name, len(rep.violations))])
        gate_events = reports["break_even"].gate_events
        if gate_events <= 0:
            self.fail(["break_even never gated an island"])
        self.engaged["gate_events"] = gate_events
        self.digests["policies"] = digest(rows)

        replays = []
        for sc in self.scenarios:
            report = self.op("replay", sc.name, lambda: self._replay(sc))
            if report is None:
                return
            if not report.routable or not report.recoveries_deadlock_free:
                self.fail(["replay %s: routable=%s deadlock_free=%s"
                           % (sc.name, report.routable, report.recoveries_deadlock_free)])
            replays.append(
                [sc.name, round(report.total_mj, 9), round(report.worst_recovery_ms, 9),
                 round(report.lost_traffic_mbits, 9), len(report.recoveries)]
            )
        self.digests["replays"] = digest(replays)

    def _replay(self, scenario):
        """One controlled replay through a fresh controller, so every
        replay op builds its own allocator and deadlock audit."""
        trace = self.trace
        event = FaultEvent(
            scenario=scenario, start_ms=0.25 * trace.total_ms, end_ms=0.6 * trace.total_ms
        )
        with self.tracer.span("control.replay") if self.tracing else nullcontext():
            controller = repro.ReconfigurationController(
                self.topology, spare_plan=self.prot.plan
            )
            return repro.simulate_trace(
                self.topology,
                trace,
                repro.make_policy("break_even"),
                fault_events=[event],
                spare_plan=self.prot.plan,
                controller=controller,
            )

WORKLOADS = {w.name: w for w in (SynthLarge, PaperSweep, CacheRW, ShutdownReplay)}
