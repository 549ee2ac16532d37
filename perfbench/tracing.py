"""Span tracing of layer boundaries, from outside the program.

The traced run wraps the public entry points of each layer (see
:data:`TARGETS`) and records one span per call: name, start, end,
parent span, op id and pass index, plus a few attributes taken from
the call's result.  Spans stay in memory and are written out when the
run ends.  Wrappers are installed only for the traced passes and
removed again afterwards, so the untraced passes of the same process
run the program's own functions.

A span's *self time* is its duration minus the time its child spans
cover.  Calls run on one thread, so child spans are disjoint and nest
inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Span record fields (plain lists keep recording cheap).
NAME, START, END, PARENT, OP, PASS, ATTRS = range(7)


def _synthesis_attrs(args, kwargs, space):
    return {"points": len(space.points), "failures": len(space.failures)}


def _allocate_attrs(args, kwargs, result):
    return {"success": bool(result.success)}


def _cache_get_attrs(args, kwargs, hit):
    kind = kwargs.get("kind", args[2] if len(args) > 2 else "?")
    return {"kind": kind, "hit": hit is not None}


def _cache_put_attrs(args, kwargs, payload):
    return {"bytes": len(payload)}


def _simulate_attrs(args, kwargs, report):
    return {
        "segments": report.num_segments,
        "gate_events": report.gate_events,
        "recoveries": len(report.recoveries),
    }


def _explore_attrs(args, kwargs, records):
    return {
        "tasks": len(records),
        "busy_s": sum(r.elapsed_s for r in records),
        "pids": sorted(
            {r.extras["worker_pid"] for r in records if "worker_pid" in r.extras}
        ),
    }


#: (module, attribute path, span name, result -> attrs).  A module-level
#: function is rebound in every ``repro`` module that imported it; a
#: method is rebound on its class (``Objective.evaluate`` on every
#: subclass that defines its own).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.synthesis", "synthesize", "core.synthesis", _synthesis_attrs),
    ("repro.core.partition", "partition_graph", "core.partition", None),
    ("repro.core.paths", "PathAllocator.allocate", "core.paths.allocate", _allocate_attrs),
    ("repro.floorplan.placer", "place", "floorplan.place", None),
    ("repro.floorplan.wires", "assign_wire_lengths", "floorplan.wires", None),
    ("repro.arch.validate", "validate_topology", "arch.validate", None),
    ("repro.power.noc_power", "compute_noc_power", "power", None),
    ("repro.power.soc_power", "compute_soc_power", "power", None),
    ("repro.sim.zero_load", "evaluate_latency", "sim.zero_load", None),
    ("repro.core.objective", "Objective.evaluate", "core.objective.evaluate", None),
    ("repro.cache.store", "CacheStore.get_object", "cache.get", _cache_get_attrs),
    ("repro.cache.store", "CacheStore.put_object", "cache.put", _cache_put_attrs),
    ("repro.core.explore", "ExplorationEngine.run", "core.explore.run", _explore_attrs),
    ("repro.runtime.simulate", "simulate_trace", "runtime.simulate", _simulate_attrs),
    ("repro.runtime.simulate", "compare_policies", "runtime.compare", None),
    ("repro.control.controller", "ReconfigurationController.run", "control.run", None),
    ("repro.resilience.spare_paths", "protect_design_point", "resilience.protect", None),
    ("repro.resilience.coverage", "analyze_model", "resilience.coverage", None),
    ("repro.soc.generator", "generate_soc", "soc.generate", None),
    ("repro.soc.partitioning", "communication_partitioning", "soc.generate", None),
    ("repro.soc.partitioning", "logical_partitioning", "soc.generate", None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.op_id = -1
        self.pass_index = -1

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op_id, self.pass_index, None]
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: Optional[dict]) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ATTRS] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """A benchmark-side span; the yielded dict becomes its attrs."""
        attrs: dict = {}
        idx = self._open(name)
        try:
            yield attrs
        finally:
            self._close(idx, attrs)

    def _wrap(self, name: str, fn: Callable, attrs_fn: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, {"error": True})
                raise
            tracer._close(idx, attrs_fn(args, kwargs, result) if attrs_fn else None)
            return result

        return traced

    # -- installing wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent until :meth:`uninstall`."""
        if self._patches:
            return
        for module_name, path, name, attrs_fn in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                base = getattr(module, cls_name)
                for cls in [base] + _subclasses(base):
                    if meth in vars(cls):
                        self._patch(cls, meth, self._wrap(name, vars(cls)[meth], attrs_fn))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, attrs_fn)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name.split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def installed(self, on: bool = True) -> Iterator[None]:
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span (duration minus child durations)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_totals(self, passes: List[int]) -> Dict[str, Dict[str, float]]:
        """Per span name over ``passes``: calls, inclusive and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        layer that re-enters itself is not counted twice.
        """
        wanted = set(passes)
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s[PASS] not in wanted:
                continue
            row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if not self._has_ancestor(i, s[NAME]):
                row["s"] += s[END] - s[START]
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def attrs_of(self, name: str, passes: List[int]) -> List[dict]:
        wanted = set(passes)
        return [
            s[ATTRS] or {}
            for s in self.spans
            if s[NAME] == name and s[PASS] in wanted
        ]

    def records(self) -> List[dict]:
        """JSON-ready span list (times relative to the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            {
                "name": s[NAME],
                "start_s": s[START] - t0,
                "end_s": s[END] - t0,
                "parent": s[PARENT],
                "op": s[OP],
                "pass": s[PASS],
                "attrs": s[ATTRS] or {},
            }
            for s in self.spans
        ]


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
