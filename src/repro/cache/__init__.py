"""Cache models: set-associative caches, replacement policies, and
the full CMP memory hierarchy with MESI-lite coherence.

There is one cache layout here, the flat-slot one.  The original
per-set layout and its recency-stack policies live on only as the
differential oracle, :mod:`repro.verify.reference`."""

from repro.cache.cache import Cache, CacheStats
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.replacement import make_policy, policy_names

__all__ = ["Cache", "CacheStats", "MemoryHierarchy", "make_policy",
           "policy_names"]
