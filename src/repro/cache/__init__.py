"""Automatic KV-cache prefix reuse (paper S8.1, productionized).

The paper argues that vAttention's CUDA-VMM route uniquely enables
KV-cache de-duplication through physical page aliasing; the manual
pairwise demonstration lives in :mod:`repro.core.sharing`. This package
turns that capability into a serving subsystem in the shape of sglang's
RadixAttention:

* :mod:`repro.cache.radix` — a radix tree over prompt token ids mapping
  cached prefixes to resident page-group rows, with reference counts,
  hit/miss/eviction statistics and LRU eviction.
* :mod:`repro.cache.manager` — :class:`PrefixCacheManager`, the cache
  component of :class:`~repro.memory.manager.MemoryManager`, built on
  the allocator it evicts from: it aliases an arriving request's
  longest cached prefix automatically and retains finished requests'
  prefixes instead of freeing them.

The cache also feeds the layers around it through the side-effect-free
``probe_prefix_tokens``: the cluster router ranks replicas by it
(:mod:`repro.cluster.router`), and scheduling policies budget prefill
chunks with post-cache prompt lengths (:mod:`repro.scheduling`) — a
cache-hit prefill costs only its uncached suffix.
"""

from .radix import PrefixEntry, RadixTree, RadixTreeStats
from .manager import PrefixCacheManager, PrefixCacheStats

__all__ = [
    "PrefixEntry",
    "RadixTree",
    "RadixTreeStats",
    "PrefixCacheManager",
    "PrefixCacheStats",
]
