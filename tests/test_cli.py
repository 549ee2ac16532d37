"""Command-line interface."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth", "d26_media"])
        assert args.islands == 4
        assert args.strategy == "logical"
        assert args.objective == "static_power"

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "d26_media", "--strategy", "vibes"])

    def test_bad_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synth", "d26_media", "--objective", "vibes"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "d26_media", "--objective", "vibes"]
            )


# Imports repro.cli in a fresh interpreter and fails if numpy was even
# looked up — an optional ``try: import numpy`` counts too, so the check
# holds whether or not numpy is installed.
_COLD_IMPORT_PROBE = """
import sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise SystemExit("numpy import attempted")
        return None

sys.meta_path.insert(0, Probe())
import repro.cli
sys.exit("numpy" in sys.modules)
"""


class TestColdImport:
    def test_cli_import_leaves_numpy_unloaded(self):
        """The CLI and everything it imports eagerly stay numpy-free, so
        `repro-noc` start-up never pays for numpy."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr or "numpy was imported"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "d26_media" in out
        assert "d12_auto" in out

    def test_synth_small_benchmark(self, capsys, tmp_path):
        dot = str(tmp_path / "t.dot")
        svg = str(tmp_path / "f.svg")
        js = str(tmp_path / "t.json")
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--dot",
                dot,
                "--svg",
                svg,
                "--json",
                js,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best by static_power" in out
        for path in (dot, svg, js):
            with open(path) as f:
                assert f.read()

    def test_synth_unknown_benchmark_fails_cleanly(self, capsys):
        assert main(["synth", "d999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown benchmark 'd999'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("counts", ["1,,2", "1,two", ""])
    def test_sweep_bad_counts_fails_cleanly(self, capsys, counts):
        assert main(["sweep", "d12_auto", "--counts", counts]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --counts expects comma-separated integers")

    def test_synth_bad_trace_seeds_fails_cleanly(self, capsys):
        argv = ["synth", "d12_auto", "--objective", "multi_trace",
                "--trace-seeds", "1,x"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --trace-seeds expects comma-separated integers")

    def test_sweep(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        code = main(["sweep", "d12_auto", "--counts", "1,2", "--csv", csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "logical" in out and "communication" in out
        with open(csv) as f:
            header = f.readline()
        assert "noc_power_mw" in header

    @pytest.mark.stream
    def test_sweep_feed_independent_of_workers(self, capsys, tmp_path):
        # Spans reach the bus without a tracer, so a serial sweep
        # streams the span events a pool sweep merges from its workers.
        feeds = {}
        for workers in (1, 2):
            path = str(tmp_path / ("w%d.jsonl" % workers))
            code = main(
                ["sweep", "d26_media", "--counts", "1,2", "--workers",
                 str(workers), "--events", path, "--no-timing"]
            )
            assert code == 0
            with open(path) as fh:
                feeds[workers] = [json.loads(line) for line in fh]
        capsys.readouterr()

        def span_names(feed):
            return Counter(e["name"] for e in feed if e["type"] == "span")

        def progress(feed):
            out = []
            for e in feed:
                if e["type"] == "progress":
                    attrs = dict(e["attrs"])
                    if e["name"] == "sweep.start":
                        attrs.pop("workers")  # reports the pool width
                    out.append((e["name"], attrs))
            return out

        assert span_names(feeds[1])
        assert span_names(feeds[1]) == span_names(feeds[2])
        assert progress(feeds[1]) == progress(feeds[2])
        # Heartbeats stay pool-only liveness beacons.
        assert {e["type"] for e in feeds[1]} == {"span", "progress"}
        assert "heartbeat" in {e["type"] for e in feeds[2]}

    def test_synth_objective_latency(self, capsys):
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--objective",
                "static_latency",
            ]
        )
        assert code == 0
        assert "best by static_latency" in capsys.readouterr().out

    @pytest.mark.runtime
    def test_synth_objective_trace_energy(self, capsys):
        code = main(
            [
                "synth",
                "d12_auto",
                "--islands",
                "3",
                "--objective",
                "trace_energy",
                "--trace-segments",
                "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best by trace_energy" in out

    @pytest.mark.runtime
    def test_sweep_objective_trace_energy(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                "d12_auto",
                "--counts",
                "2,3",
                "--objective",
                "trace_energy",
                "--trace-segments",
                "12",
                "--csv",
                csv,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective trace_energy" in out
        with open(csv) as f:
            header = f.readline()
        # The objective contributes its sweep column.
        assert "trace_mj" in header

    def test_shutdown(self, capsys):
        code = main(["shutdown", "d12_auto", "--islands", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vi_aware" in out and "vi_oblivious" in out
        assert "weighted savings" in out

    @pytest.mark.runtime
    def test_runtime(self, capsys, tmp_path):
        csv = str(tmp_path / "runtime.csv")
        code = main(
            [
                "runtime",
                "--benchmark",
                "d12_auto",
                "--islands",
                "3",
                "--policy",
                "break_even",
                "--segments",
                "24",
                "--csv",
                csv,
            ]
        )
        assert code == 0  # nonzero would mean routability violations
        out = capsys.readouterr().out
        for policy in ("never", "always_off", "idle_timeout", "break_even"):
            assert policy in out
        assert "per-island runtime" in out
        with open(csv) as f:
            header = f.readline()
        assert "energy_mj" in header and "violations" in header

    @pytest.mark.runtime
    def test_runtime_baseline_comparison(self, capsys):
        code = main(
            [
                "runtime",
                "--benchmark",
                "d12_auto",
                "--islands",
                "3",
                "--trace",
                "day",
                "--segments",
                "12",
                "--baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "VI-oblivious baseline" in out
        assert "runtime savings under break_even" in out

    def test_runtime_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["runtime", "--benchmark", "d12_auto", "--policy", "vibes"]
            )
