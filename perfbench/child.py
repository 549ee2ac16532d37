"""One benchmark process: set up a workload, then time passes over it.

Started by ``run.py`` (never run by hand).  Prints ``PERFBENCH-READY
<scale>`` when set-up is done — the parent times the fresh interpreter
up to that line, and ``scale`` is the host-speed scale of that time
(see :mod:`hostspeed`) — and, unless ``--setup-only``, one
``PERFBENCH-RESULT <json>`` line when the run ends.  Pass and op times
in the result carry their measured seconds and their scale.

In a traced run (``--trace 1``) passes follow the order untraced,
traced, traced, untraced (repeated), which cancels a steady drift of
the host's speed out of the traced/untraced ratio; the layer wrappers of :mod:`tracing` are installed for
the traced passes only (and for the input-building half of set-up), so
the untraced passes of the same process give the baseline the tracing
overhead is measured against.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time

import hostspeed  # noqa: E402

PROBE_AT_START = hostspeed.probe()
T_IMPORT = time.perf_counter()
import repro  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT

from repro.perf import PerfRecorder, recording  # noqa: E402

import layers  # noqa: E402
from checks import reference_problems  # noqa: E402
from run import WORKERS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", help="reference digest file to compare against")
    ap.add_argument("--capture", help="write this run's digests to this file")
    return ap.parse_args(argv)


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM (peak RSS) over this process and ``pids``."""
    total_kb = 0
    for pid in ["self"] + [str(p) for p in pids]:
        try:
            with open("/proc/%s/status" % pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed, WORKERS, args.scratch, tracer)
    traced_run = bool(args.trace)

    with tracer.installed(traced_run):
        wl.setup()
    wl.start()
    # The parent times this process up to this line; the probes at
    # start and here give the host-speed scale for that time.
    print("PERFBENCH-READY %r" % hostspeed.factor(PROBE_AT_START, hostspeed.probe()), flush=True)
    if args.setup_only:
        wl.close()
        return 0
    if wl.in_process:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        wl.sampler = hostspeed.Sampler()

    passes = []  # one dict per pass
    first_digests = None
    loop_start = time.perf_counter()
    try:
        while True:
            index = len(passes)
            traced = traced_run and index % 4 in (1, 2)
            if _done(passes, traced_run, time.perf_counter() - loop_start, args.seconds):
                break
            passes.append(_run_pass(wl, tracer, index, traced))
            p = passes[-1]
            if first_digests is None:
                first_digests = dict(p["digests"])
            elif p["digests"] != first_digests:
                p["problems"].append("pass %d outputs differ from pass 0" % index)
                p["failed_ops"] = max(p["failed_ops"], 1)
        rss = peak_rss_mb(wl.helper_pids())
    finally:
        if wl.sampler:
            wl.sampler.close()
        wl.close()

    reference_status = "not compared (non-default seed)"
    ref_problems = []
    if args.capture:
        _capture(args.capture, args.workload, first_digests)
        reference_status = "captured"
    elif args.reference:
        with open(args.reference) as fh:
            stored = json.load(fh).get(args.workload)
        ref_problems = reference_problems(first_digests or {}, stored)
        reference_status = "mismatch" if ref_problems else "match"

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    # Each mismatched digest is one op of the first pass with wrong output.
    failed = min(attempted, failed + len(ref_problems))
    problems = [m for p in passes for m in p["problems"]] + ref_problems
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": IMPORT_S,
        "setup_facts": wl.setup_facts,
        "passes": [{k: v for k, v in p.items() if k != "problems"} for p in passes],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "digests": first_digests,
        "reference": reference_status,
        "peak_rss_mb": rss,
        "primary": list(wl.primary),
        "top_level": list(wl.top_level),
    }
    if traced_run:
        result["layers"] = layers.per_layer(wl, tracer, passes, IMPORT_S)
        spans_path = os.path.join(args.scratch, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)
        result["spans_file"] = spans_path
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


def _done(passes, traced_run: bool, elapsed: float, seconds: float) -> bool:
    """Stop once the minimum passes ran and another would overrun."""
    untraced = sum(1 for p in passes if not p["traced"])
    traced = len(passes) - untraced
    if untraced < 1 or (traced_run and traced < 1):
        return False
    typical = statistics.median(p["loop_s"] for p in passes)
    return elapsed + typical > seconds


def _run_pass(wl, tracer, index: int, traced: bool) -> dict:
    t0 = time.perf_counter()
    wl.begin_pass()
    wl.tracing = traced
    tracer.pass_index = index
    counters, phases = {}, {}
    with tracer.installed(traced):
        if traced:
            with recording(PerfRecorder()) as rec:
                wl.run_pass(index)
            counters, phases = dict(rec.counters), dict(rec.phase_seconds)
        else:
            wl.run_pass(index)
    wl.tracing = False
    problems = list(wl.problems)
    if traced:
        problems += _engaged_problems(wl.name, counters)
    failed_ops = sum(1 for op in wl.ops if not op[3])
    if problems and not failed_ops:
        failed_ops = 1
    return {
        "index": index,
        "traced": traced,
        "ops": [[op[0], op[1], op[2], op[4]] for op in wl.ops],
        "failed_ops": failed_ops,
        "wall_s": sum(op[2] * op[4] for op in wl.ops if op[0] in wl.top_level),
        "wall_raw_s": sum(op[2] for op in wl.ops if op[0] in wl.top_level),
        "loop_s": time.perf_counter() - t0,
        "digests": dict(wl.digests),
        "engaged": dict(wl.engaged),
        "counters": counters,
        "phases": phases,
        "problems": problems,
    }


def _engaged_problems(workload: str, counters) -> list:
    """Mechanism assertions that need the program's perf counters."""
    vector_kernel = importlib.util.find_spec("repro.core.kernel") is not None
    problems = []
    if workload == "synth_large":
        if counters.get("edge_evals", 0) <= 0:
            problems.append("synth_large: path search never evaluated an edge")
        if vector_kernel and counters.get("vector_pops", 0) <= 0:
            problems.append("synth_large: numpy frontier never engaged")
    if workload == "paper_sweep" and counters.get("vector_pops", 0) != 0:
        problems.append("paper_sweep: numpy frontier engaged on small specs")
    return problems


def _capture(path: str, workload: str, digests) -> None:
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    stored[workload] = digests
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
