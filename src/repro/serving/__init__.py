"""Serving framework: requests, memory backends, engine.

Scheduling policies live in :mod:`repro.scheduling`; the engine selects
one via ``EngineConfig.scheduler_policy``. The engine's memory manager
and CPU KV tier live in :mod:`repro.memory`.
"""

from .engine import (
    DEFAULT_WORKSPACE_BYTES,
    ITERATION_CPU_OVERHEAD,
    PER_SEQ_CPU_OVERHEAD,
    EngineConfig,
    LLMEngine,
)
from .memory import (
    MemoryBackend,
    PagedMemory,
    StaticMemory,
    UvmMemory,
    VAttentionMemory,
)
from .request import PrefixDescriptor, Request, RequestState

__all__ = [
    "DEFAULT_WORKSPACE_BYTES",
    "EngineConfig",
    "ITERATION_CPU_OVERHEAD",
    "LLMEngine",
    "MemoryBackend",
    "PER_SEQ_CPU_OVERHEAD",
    "PagedMemory",
    "PrefixDescriptor",
    "Request",
    "RequestState",
    "StaticMemory",
    "UvmMemory",
    "VAttentionMemory",
]
