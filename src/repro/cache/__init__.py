"""Content-addressed synthesis cache (ROADMAP item 1, storage half).

Canonical hashing of the synthesis inputs (:mod:`repro.cache.keys`) and
a two-tier memo store (:mod:`repro.cache.store`).  :func:`caching` puts
a store in the run context's ``store`` slot, which
``core/synthesis.py`` probes at three granularities: full design
spaces, island partitions and per-candidate path allocations.  See
``docs/caching.md``.
"""

from .keys import (
    SCHEMA_VERSION,
    allocation_base_key,
    allocation_context_key,
    allocation_key,
    canonical,
    design_space_key,
    fingerprint,
    partition_key,
    vcg_key,
)
from .signatures import (
    allocation_signature,
    design_space_signature,
    partition_signature,
)
from .store import (
    CacheStats,
    CacheStore,
    DiskTier,
    MemoryTier,
    caching,
    default_cache_dir,
)

__all__ = [
    "SCHEMA_VERSION",
    "CacheStats",
    "CacheStore",
    "DiskTier",
    "MemoryTier",
    "allocation_base_key",
    "allocation_context_key",
    "allocation_key",
    "allocation_signature",
    "caching",
    "canonical",
    "default_cache_dir",
    "design_space_key",
    "design_space_signature",
    "fingerprint",
    "partition_key",
    "partition_signature",
    "vcg_key",
]
