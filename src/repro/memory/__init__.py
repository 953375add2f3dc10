"""Unified memory subsystem: manager, config, and the CPU KV tier.

Public surface::

    from repro.memory import (
        MemoryConfig,     # nested EngineConfig memory knobs
        MemoryManager,    # the one memory object the engine talks to
        TierTransfer,     # outcome of a cross-tier verb
        CpuKvTier,        # pinned-host-memory tier over PCIe
        TierStats,
    )

See ``docs/memory.md`` for the protocol and the composition of the
manager, the allocator, the prefix cache and the tier.
"""

from .config import PREEMPTION_MODES, MemoryConfig
from .manager import MemoryManager, TierTransfer
from .tier import DEFAULT_HOST_CAPACITY, PCIE_BANDWIDTH, CpuKvTier, TierStats

__all__ = [
    "DEFAULT_HOST_CAPACITY",
    "PCIE_BANDWIDTH",
    "PREEMPTION_MODES",
    "CpuKvTier",
    "MemoryConfig",
    "MemoryManager",
    "TierStats",
    "TierTransfer",
]
