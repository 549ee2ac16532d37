"""Output checks: independent invariants and reference digests.

Every point a workload gets back from the program passes
:func:`point_problems` — an audit written against the topology's plain
data, not a re-run of the synthesis code paths that built it:

* every spec flow has a route that starts at its source core's NI and
  ends at its destination core's NI;
* :func:`repro.arch.validate.audit_shutdown_safety` finds nothing;
* :func:`repro.arch.routing.find_cdg_cycle` finds no channel-dependency
  cycle (deadlock freedom);
* :func:`repro.arch.validate.validate_topology` passes.

Digests pin the exact outputs under the default seed: they are
SHA-256 sums of canonical JSON, compared against
``reference_digests.json`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional

from repro.arch.routing import find_cdg_cycle
from repro.arch.topology import ni_id
from repro.arch.validate import audit_shutdown_safety, validate_topology
from repro.exceptions import ValidationError


def point_problems(point) -> List[str]:
    """Invariant violations of one design point (empty when sound)."""
    topo = point.topology
    problems: List[str] = []
    for flow in topo.spec.flows:
        route = topo.routes.get(flow.key)
        if route is None:
            problems.append("flow %s->%s unrouted" % flow.key)
            continue
        comps = route.components
        if comps[0] != ni_id(flow.src) or comps[-1] != ni_id(flow.dst):
            problems.append("flow %s->%s not NI-to-NI" % flow.key)
    unsafe = audit_shutdown_safety(topo)
    if unsafe:
        problems.append("%d shutdown-safety violations" % len(unsafe))
    if find_cdg_cycle(topo) is not None:
        problems.append("channel-dependency cycle")
    try:
        validate_topology(topo)
    except ValidationError as exc:
        problems.append("validate_topology: %s" % exc)
    return ["%s: %s" % (point.label(), p) for p in problems]


def points_signature(points: Iterable) -> List[List[object]]:
    """Label, NoC power and average latency of each point, in order."""
    return [
        [p.label(), round(p.power_mw, 9), round(p.avg_latency_cycles, 9)]
        for p in points
    ]


def digest(value: object) -> str:
    """SHA-256 of the canonical JSON form of ``value``."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reference_problems(
    observed: Dict[str, str], reference: Optional[Dict[str, str]]
) -> List[str]:
    """Mismatches between observed digests and the stored reference."""
    if reference is None:
        return ["no reference digests stored for this workload"]
    problems = []
    for name in sorted(set(observed) | set(reference)):
        if observed.get(name) != reference.get(name):
            problems.append(
                "digest %s: got %s, reference %s"
                % (name, observed.get(name), reference.get(name))
            )
    return problems
