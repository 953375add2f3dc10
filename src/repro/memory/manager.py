"""MemoryManager: the one memory object the serving engine talks to.

In the style of sglang's ``mem_cache_v2``, the manager *holds* its
parts instead of stacking wrappers:

* ``backend`` — the raw KV allocator (a
  :class:`~repro.serving.memory.MemoryBackend`);
* ``cache`` — the radix prefix cache
  (:class:`~repro.cache.manager.PrefixCacheManager`, built on that same
  allocator), or ``None``;
* ``tier`` — the CPU KV tier (:class:`~repro.memory.tier.CpuKvTier`)
  behind the ``swap`` and ``tiered`` preemption modes, or ``None``.

The engine speaks ``allocate_request`` / ``allocate_tokens`` /
``cache_finished_request`` / ``evict`` / ``tier_transfer`` plus the
prefix-cache hooks, and the manager routes each verb to the cache (whose
admission and allocation evict cached prefixes and retry before giving
up) or straight to the allocator. Per-iteration cost queries
(``framework_overhead``, ``append_overhead``, ``after_iteration``,
``decode_fast_path``) belong to the allocator alone; callers read them
off ``backend``. A steady decode stretch never touches the cache: no
admissions, no prefills, and the allocator plan's horizon guarantees
``prepare_iteration`` succeeds outright, so the cache's eviction path
stays idle.

Eviction policy lives here (``MemoryConfig.preemption_mode``):

* ``recompute`` — drop the KV; re-admission prefills again (vLLM's
  default, the paper's behaviour).
* ``swap`` — the whole-cache policy: ``context_len *
  kv_bytes_per_token`` moves over PCIe regardless of layout.
* ``tiered`` — cache-aware hierarchical eviction: the transfer is
  sized at backend granularity (vAttention page-group rows via the
  manager's own row math — demand-paged restore re-maps exactly those
  rows; Paged at block granularity — block-sized copy-back), so what
  moves is what the backend physically holds, not the logical token
  count. Under pressure this prefers tiering over recompute whenever
  the victim's prefill is done and the host tier has room.

The manager performs no clock or telemetry operations itself — each
tier verb returns a :class:`TierTransfer` describing what moved, and the
engine charges the seconds to the simulated clock and emits the
``tier_transfer`` event. That keeps the manager reusable from replay
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..models.shard import ShardedModel
from ..serving.memory import MemoryBackend, PagedMemory, VAttentionMemory
from ..serving.request import Request
from .tier import CpuKvTier

if TYPE_CHECKING:  # repro.cache builds on repro.serving.memory
    from ..cache.manager import PrefixCacheManager, PrefixCacheReport


@dataclass(frozen=True)
class TierTransfer:
    """Outcome of one verb that may have moved KV across tiers.

    ``nbytes == 0`` means nothing moved (a recompute eviction); the
    engine advances the clock by ``seconds`` and emits a
    ``tier_transfer`` event only when bytes actually moved.
    """

    #: "out" (GPU→CPU) or "in" (CPU→GPU).
    direction: str
    #: Bytes transferred (0 = no transfer happened).
    nbytes: int
    #: PCIe seconds the engine must charge to the simulated clock.
    seconds: float
    #: The policy that produced this outcome ("swap" | "tiered" |
    #: "recompute").
    mode: str


_NO_TRANSFER_OUT = TierTransfer("out", 0, 0.0, "recompute")


class MemoryManager:
    """The engine's memory: an allocator, its prefix cache, the CPU tier."""

    def __init__(
        self,
        backend: MemoryBackend,
        shard: ShardedModel,
        cache: Optional["PrefixCacheManager"] = None,
        tier: Optional[CpuKvTier] = None,
        preemption_mode: str = "recompute",
    ) -> None:
        self.backend = backend
        self.cache = cache
        self.tier = tier
        self.shard = shard
        self.preemption_mode = preemption_mode
        #: Where admission and allocation go: the cache evicts cached
        #: prefixes and retries before reporting a shortfall.
        self._alloc = backend if cache is None else cache

    def can_admit(self, request: Request) -> bool:
        return self._alloc.can_admit(request)

    def release(self, request: Request) -> None:
        """Free a preemption victim's memory; nothing is retained."""
        self._alloc.release(request)

    # -- prefix cache --------------------------------------------------
    def before_prefill(self, request: Request) -> None:
        """Share the longest cached prefix into ``request`` before its
        first prefill work."""
        if self.cache is not None:
            self.cache.before_prefill(request)

    def note_prefill_complete(self, request: Request) -> None:
        """Index a just-prefilled prompt's KV for reuse."""
        if self.cache is not None:
            self.cache.note_prefill_complete(request)

    def probe_prefix_tokens(self, token_ids, limit=None) -> int:
        """Prompt tokens a cache hit would deliver now (0 without a
        cache); side-effect free."""
        if self.cache is None:
            return 0
        return self.cache.probe_prefix_tokens(token_ids, limit=limit)

    def cache_report(self) -> Optional["PrefixCacheReport"]:
        """Prefix-cache statistics, or ``None`` without a cache."""
        return None if self.cache is None else self.cache.report()

    def telemetry_sample(self) -> Dict[str, float]:
        sample = dict(self.backend.telemetry_sample())
        if self.cache is not None:
            sample.update(self.cache.telemetry_sample())
        if self.tier is not None:
            sample.update(self.tier.telemetry_sample())
        return sample

    # -- unified verbs -------------------------------------------------
    def allocate_request(self, request: Request) -> Optional[TierTransfer]:
        """Admit ``request``; demand-page its KV back from the CPU tier
        if a previous eviction moved it there (``None``: nothing to
        restore)."""
        self._alloc.admit(request)
        if request.swapped and self.tier is not None:
            nbytes = self.tier.resident_bytes(request.request_id)
            seconds = self.tier.swap_in(request.request_id)
            request.swapped = False
            return TierTransfer("in", nbytes, seconds, self.preemption_mode)
        return None

    def allocate_tokens(self, batch: Sequence[Request]) -> bool:
        """Ensure memory for the tokens ``batch`` produces this
        iteration; False => a preemption is needed."""
        return self._alloc.prepare_iteration(batch)

    def cache_finished_request(self, request: Request) -> None:
        """Retire a finished request: the cache keeps its prompt KV,
        otherwise the allocator frees it."""
        if self.cache is not None:
            self.cache.retire(request)
        else:
            self.backend.release(request)
        if self.tier is not None:
            # A finished request cannot still be tier-resident (restore
            # precedes re-admission), but keep the tier's view closed.
            self.tier.drop(request.request_id)

    def evict(self, victim: Request) -> TierTransfer:
        """Apply the configured eviction policy to a preemption victim.

        The victim's GPU memory is already released; this decides where
        its KV *contents* go. Tiering is preferred whenever the policy
        allows it, the victim's prefill is done (a half-built prompt is
        cheaper to recompute than to round-trip), and the host tier has
        capacity (a rejected capacity probe ticks the tier's
        ``rejected_for_capacity`` counter).
        """
        if self.tier is not None and victim.prefill_done:
            nbytes = (
                self._tier_bytes(victim)
                if self.preemption_mode == "tiered"
                else victim.context_len * self.shard.kv_bytes_per_token
            )
            if self.tier.can_swap_out(nbytes):
                victim.preempt_swap()
                seconds = self.tier.swap_out(victim.request_id, nbytes)
                return TierTransfer(
                    "out", nbytes, seconds, self.preemption_mode
                )
        victim.preempt()
        return _NO_TRANSFER_OUT

    def tier_transfer(
        self, request_id: str, direction: str, nbytes: int = 0
    ) -> TierTransfer:
        """Move ``request_id``'s KV across the GPU↔CPU boundary.

        The primitive behind :meth:`evict` and
        :meth:`allocate_request`, exposed for callers managing their
        own placement (cluster drain, replay tooling).
        """
        if self.tier is None:
            raise ValueError("no CPU tier configured")
        if direction == "out":
            seconds = self.tier.swap_out(request_id, nbytes)
        elif direction == "in":
            nbytes = self.tier.resident_bytes(request_id)
            seconds = self.tier.swap_in(request_id)
        else:
            raise ValueError(f"unknown transfer direction {direction!r}")
        return TierTransfer(direction, nbytes, seconds, self.preemption_mode)

    # ------------------------------------------------------------------
    def _tier_bytes(self, victim: Request) -> int:
        """Bytes the backend physically held for ``victim``'s context.

        Computed from layout math, not live allocations — the victim's
        GPU memory is already released when eviction policy runs.
        """
        backend = self.backend
        if isinstance(backend, VAttentionMemory):
            manager = backend.manager
            rows = manager.rows_for_context(victim.context_len)
            return rows * manager.config.row_bytes
        if isinstance(backend, PagedMemory):
            blocks = backend.blocks
            return blocks.blocks_needed(victim.context_len) * blocks.block_bytes
        return victim.context_len * self.shard.kv_bytes_per_token
