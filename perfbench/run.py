"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The exit code is 0 only when every
output check passed.  See README.md beside this file for what each
workload and metric means.

This process never imports the program: it pins the environment, times
fresh interpreters (``child.py``) up to the end of their set-up, lets
the last of them run the timed passes, and turns what it reports into
metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("synth_large", "paper_sweep", "cache_rw", "shutdown_replay")
#: Seed whose outputs must equal the stored reference digests.
DEFAULT_SEED = 1
#: Fresh interpreters timed through set-up per untraced run (the last
#: one goes on to run the timed passes).
SETUP_SAMPLES = 5
#: Pool workers of ``paper_sweep``; the benchmark refuses to run on
#: fewer CPUs.
WORKERS = 2
#: Hard limit on one whole run.
RUN_TIMEOUT_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--capture-reference",
        action="store_true",
        help="store this run's output digests as the reference (default seed only)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="show that a perturbed reference digest fails the run",
    )
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def fail(message: str, code: int = 2) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail("no program source at %s; run from a full checkout" % src)
    if not os.path.isfile(BENCHMARK):
        return fail("no %s; run from a full checkout" % BENCHMARK)
    nproc = len(os.sched_getaffinity(0))
    if WORKERS > nproc:
        return fail("refusing workers=%d > nproc=%d" % (WORKERS, nproc))
    env, pinned = pinned_env(src)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    if args.self_test:
        return self_test(args, env, scratch)

    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    if args.capture_reference:
        if args.seed != DEFAULT_SEED:
            return fail("reference digests are captured at seed %d only" % DEFAULT_SEED)
        child_args += ["--capture", REFERENCE]
    elif args.seed == DEFAULT_SEED:
        child_args += ["--reference", REFERENCE]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_samples: List[Tuple[float, float]] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = run_child(child_args + ["--setup-only"], env, deadline)
            if code != 0 or ready is None:
                return fail("set-up child exited with %s" % code, 1)
            setup_samples.append(ready)
    ready, result, code = run_child(child_args, env, deadline)
    if code != 0 or result is None or ready is None:
        return fail("benchmark child exited with %s" % code, 1)
    setup_samples.append(ready)

    pinned.update(workers=WORKERS, nproc=nproc)
    details = os.path.join(
        scratch, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(details, "w") as fh:
        json.dump(dict(result, setup_samples=setup_samples, environment=pinned), fh)
    section = "per_layer" if args.trace else "end_to_end"
    with open(BENCHMARK) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if args.trace:
        metrics, notes = dict(result["layers"]), None
    else:
        metrics, notes = end_to_end_metrics(result, setup_samples)
    if sorted(metrics) != sorted(units):
        return fail("%s metrics %s do not match BENCHMARK.json %s"
                    % (section, sorted(metrics), sorted(units)), 1)
    report(args, pinned, result, metrics, units, notes)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


def pinned_env(src: str) -> Tuple[Dict[str, str], Dict[str, object]]:
    """Child environment: ``REPRO_KERNEL`` unset, hash seed fixed."""
    env = dict(os.environ)
    dropped = env.pop("REPRO_KERNEL", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    pinned = {
        "python": platform.python_version(),
        "numpy": numpy_version or "absent",
        "REPRO_KERNEL": "unset" + ("" if dropped is None else " (was %r)" % dropped),
        "PYTHONHASHSEED": "0",
        "platform": platform.platform(),
    }
    return env, pinned


def run_child(
    child_args: List[str], env: Dict[str, str], deadline: float
) -> Tuple[Optional[Tuple[float, float]], Optional[dict], int]:
    """Start ``child.py``; return ((seconds to READY, scale), result, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + child_args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready: Optional[Tuple[float, float]] = None
    result: Optional[dict] = None
    try:
        for line in proc.stdout:  # type: ignore[union-attr]
            if line.startswith("PERFBENCH-READY ") and ready is None:
                ready = (time.perf_counter() - t0, float(line.split()[1]))
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, result, code


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(result: dict, setup_samples: List[Tuple[float, float]]):
    """End-to-end metrics (host-speed scaled) plus report notes.

    Every time is measured seconds times the host-speed scale taken
    around it (see ``hostspeed.py``); the notes give sample counts and
    the medians of the unscaled seconds.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]

    def scaled(samples):
        return _median([raw * scale for raw, scale in samples])

    def raw(samples):
        return _median([seconds for seconds, _ in samples])

    def per_op(classes):
        """Median over the op list of each op's median: every op of the
        fixed list counts once, so a list of a few unequal ops (a 120-
        and a 160-core synthesis) gives a stable centre, not the gap
        between its two slowest-fastest samples."""
        by_label: Dict[str, list] = {}
        for op in ops:
            if op[0] in classes:
                by_label.setdefault(op[1], []).append((op[2], op[3]))
        samples = [s for group in by_label.values() for s in group]
        return (
            _median([scaled(group) for group in by_label.values()]),
            raw(samples),
            len(samples),
            len(by_label),
        )


    walls = [(p["wall_raw_s"], p["wall_s"] / p["wall_raw_s"]) for p in passes]
    op_p50, op_raw, op_n, op_kinds = per_op(result["primary"])
    metrics = {
        "setup_s": scaled(setup_samples),
        "wall_s": scaled(walls),
        "op_p50_s": op_p50,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of %d fresh interpreters; unscaled %.4g s"
        % (len(setup_samples), raw(setup_samples)),
        "wall_s": "median of %d passes; unscaled %.4g s" % (len(walls), raw(walls)),
        "op_p50_s": "median over %d kinds of %d %s ops; unscaled %.4g s"
        % (op_kinds, op_n, "/".join(result["primary"]), op_raw),
        "peak_rss_mb": "VmHWM of the process and its pool workers",
    }
    # Printed for cache_rw only: the JSON carries the metrics every
    # workload reports (see README.md).
    extra = {}
    for cls in ("warm", "rekey"):
        value, unscaled, n, kinds = per_op((cls,))
        if n:
            extra["%s_p50_s" % cls] = (
                value,
                "s",
                "median over %d kinds of %d %s ops; unscaled %.4g s" % (kinds, n, cls, unscaled),
            )
    attempted = max(1, result["attempted"])
    extra["fail_frac"] = (
        result["failed"] / attempted,
        "ratio",
        "%d failed of %d attempted" % (result["failed"], result["attempted"]),
    )
    notes["_extra"] = extra
    return metrics, notes


def report(args, pinned, result, metrics, units, notes) -> None:
    print("perfbench %s seed=%d trace=%d seconds=%g" % (
        args.workload, args.seed, args.trace, args.seconds))
    print("environment: " + ", ".join("%s=%s" % kv for kv in sorted(pinned.items())))
    for name, value in metrics.items():
        note = notes.get(name, "") if notes else ""
        print("  %-36s %14.6g %-6s %s" % (name, value, units[name], note))
    if notes:
        for name, (value, unit, note) in notes["_extra"].items():
            print("  %-36s %14.6g %-6s %s" % (name, value, unit, note))
    engaged: Dict[str, List[object]] = {}
    for p in result["passes"]:
        for key, value in p["engaged"].items():
            engaged.setdefault(key, []).append(value)
    if engaged:
        print("engaged: " + ", ".join(
            "%s=%s" % (k, _median(v) if isinstance(v[0], float) else sorted(set(v)))
            for k, v in sorted(engaged.items())
        ))
    print("pass walls, scaled/unscaled (s): " + " ".join(
        "%.3f/%.3f%s" % (p["wall_s"], p["wall_raw_s"], "T" if p["traced"] else "")
        for p in result["passes"]))
    print("reference digests: %s" % result["reference"])
    for problem in result["problems"]:
        print("CHECK FAILED: %s" % problem)


def self_test(args, env: Dict[str, str], scratch: str) -> int:
    """A perturbed reference digest must fail the run; the true one must not."""
    with open(REFERENCE) as fh:
        stored = json.load(fh)
    workload = "shutdown_replay"
    perturbed = json.loads(json.dumps(stored))
    name = sorted(perturbed[workload])[0]
    digest = perturbed[workload][name]
    perturbed[workload][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = os.path.join(scratch, "perturbed_digests.json")
    with open(bad, "w") as fh:
        json.dump(perturbed, fh)
    base = [
        "--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
        "--trace", "0", "--scratch", scratch,
    ]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    outcome = {}
    for label, ref in (("true", REFERENCE), ("perturbed", bad)):
        _, result, code = run_child(base + ["--reference", ref], env, deadline)
        if code != 0 or result is None:
            return fail("self-test child (%s reference) exited with %s" % (label, code), 1)
        outcome[label] = result
        print("%s reference: reference=%s failed=%d of %d" % (
            label, result["reference"], result["failed"], result["attempted"]))
    os.remove(bad)
    ok = outcome["true"]["failed"] == 0 and outcome["perturbed"]["failed"] > 0
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
