"""Performance instrumentation for the synthesis engine.

Counters and phase seconds threaded through the hot path (path
allocation, partitioning, evaluation) with near-zero overhead when
disabled.  ``scripts/run_benchmarks.py`` uses this to emit the
machine-readable ``BENCH_synthesis.json`` perf record; see
``docs/performance.md`` for how to read it.
"""

from .instrument import PerfRecorder, recording

__all__ = ["PerfRecorder", "recording"]
