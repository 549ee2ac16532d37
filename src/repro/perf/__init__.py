"""Performance instrumentation for the synthesis engine.

Counters and phase seconds threaded through the hot path (path
allocation, partitioning, evaluation) with near-zero overhead when
disabled.  The benchmark (``perfbench/``) records them on its traced
passes: the counters prove that a workload's code path ran, and the
phase seconds give per-layer times of pool-backed sweeps.  See
``docs/performance.md`` for what each counter means.
"""

from .instrument import PerfRecorder, recording

__all__ = ["PerfRecorder", "recording"]
