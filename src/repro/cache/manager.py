"""Engine-integrated automatic KV prefix reuse (backend-agnostic).

:class:`PrefixCacheManager` is the prefix-cache component of
:class:`~repro.memory.manager.MemoryManager`. It is built on the same
sharing-capable allocator the manager holds and adds RadixAttention-style
behaviour:

* When a request is about to prefill, its prompt token ids are matched
  against the radix tree; the longest cached prefix is made resident in
  the request's allocation through the backend's own sharing mechanics
  (:mod:`repro.cache.backends`) — vAttention aliases physical
  page-group rows at multiple virtual offsets (zero-copy rows plus a
  copy-on-write tail, :mod:`repro.core.sharing`); the Paged backend
  splices the source's full blocks into the request's block list under
  per-block reference counts. The engine then skips the shared
  portion's prefill compute.
* When a request's prefill completes, its resident prompt KV is
  registered as a *live* entry, so concurrent requests in the same
  batch can reuse it immediately.
* When a request finishes, its prompt KV is **retained by the cache**
  instead of freed (the live entry becomes cache-owned), bounded by an
  optional byte budget.
* Under memory pressure — an admission that does not fit, or a
  ``prepare_iteration`` that would otherwise force a preemption —
  unreferenced cache-owned entries are evicted LRU-first, returning
  their rows/blocks to the pool before the engine resorts to
  preempting a running request.

Over vAttention the engine reserves extra request slots for
cache-owned prefixes, so a full cache never starves the running batch
of reqIds; block allocations need no such reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import SchedulingError
from ..serving.memory import MemoryBackend
from ..serving.request import Request
from .backends import make_cache_adapter
from .radix import PrefixEntry, RadixTree


@dataclass
class PrefixCacheStats:
    """Manager-level counters (the tree keeps its own lookup stats)."""

    #: Sharing units (page-group rows / blocks) aliased zero-copy
    #: across all hits.
    aliased_rows: int = 0
    #: Tokens copied at copy-on-write tails across all hits.
    copied_tokens: int = 0
    #: Cumulative physical bytes saved by sharing instead of re-backing.
    bytes_saved: int = 0
    #: Critical-path seconds spent on alias mappings and tail copies.
    alias_seconds: float = 0.0
    #: Finished requests whose prefixes were retained by the cache.
    retained: int = 0
    #: Cache-owned entries evicted under pressure or budget.
    evictions: int = 0
    #: Sharing units released by those evictions.
    evicted_rows: int = 0


@dataclass(frozen=True)
class PrefixCacheReport:
    """Snapshot of the prefix cache for a run report."""

    lookups: int
    hits: int
    misses: int
    hit_rate: float
    hit_tokens: int
    aliased_rows: int
    copied_tokens: int
    bytes_saved: int
    #: Physical bytes currently deduplicated by sharing.
    dedup_bytes_now: int
    insertions: int
    retained: int
    evictions: int
    evicted_rows: int
    entries: int
    live_entries: int
    cached_tokens: int
    cached_bytes: int


class PrefixCacheManager:
    """Radix-tree prefix cache over the allocator it evicts from."""

    def __init__(
        self,
        backend: MemoryBackend,
        budget_bytes: Optional[int] = None,
    ) -> None:
        self.backend = backend
        self.budget_bytes = budget_bytes
        self.adapter = make_cache_adapter(backend)
        self.tree = RadixTree()
        self.stats = PrefixCacheStats()
        #: request_id -> entry it borrowed a prefix from (ref-counted).
        self._sources: Dict[str, PrefixEntry] = {}
        #: request_id -> its own live entry (inserted at prefill end).
        self._live: Dict[str, PrefixEntry] = {}

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def clock(self):
        return self.adapter.clock

    def _entry_rows(self, entry: PrefixEntry) -> int:
        return self.adapter.entry_units(entry)

    @property
    def cached_bytes(self) -> int:
        """Bytes held by cache-owned (not live) entries' allocations.

        A unit aliased by several cached entries counts once per entry —
        this is the *mapped* footprint the budget bounds; the physical
        savings from sharing are reported separately (``bytes_saved``,
        ``dedup_bytes_now``).
        """
        unit_bytes = self.adapter.unit_bytes
        return sum(
            self._entry_rows(e) * unit_bytes
            for e in self.tree.entries
            if not e.live
        )

    def telemetry_sample(self) -> Dict[str, float]:
        """The cache-layer signals (the manager merges them after the
        allocator's). cached_bytes is skipped deliberately: it walks
        every entry, too costly for a per-iteration sample."""
        tree = self.tree.stats
        return {
            "cache_hit_rate": tree.hit_rate,
            "cache_lookups_total": float(tree.lookups),
            "cache_hits_total": float(tree.hits),
            "cache_evictions_total": float(self.stats.evictions),
            "shared_prefix_bytes": float(self.adapter.dedup_saved_bytes),
        }

    def report(self) -> PrefixCacheReport:
        """Snapshot of every cache statistic for the run report."""
        tree = self.tree.stats
        entries = self.tree.entries
        live = sum(1 for e in entries if e.live)
        return PrefixCacheReport(
            lookups=tree.lookups,
            hits=tree.hits,
            misses=tree.misses,
            hit_rate=tree.hit_rate,
            hit_tokens=tree.hit_tokens,
            aliased_rows=self.stats.aliased_rows,
            copied_tokens=self.stats.copied_tokens,
            bytes_saved=self.stats.bytes_saved,
            dedup_bytes_now=self.adapter.dedup_saved_bytes,
            insertions=tree.insertions,
            retained=self.stats.retained,
            evictions=self.stats.evictions,
            evicted_rows=self.stats.evicted_rows,
            entries=len(entries),
            live_entries=live,
            cached_tokens=self.tree.cached_tokens,
            cached_bytes=self.cached_bytes,
        )

    def probe_prefix_tokens(self, token_ids, limit=None) -> int:
        """Reusable-prefix tokens a prompt would hit right now (no side
        effects). Two callers depend on that purity: the cluster
        router probes every replica per routing decision, and the
        scheduling layer budgets chunk sizes with post-cache prompt
        lengths (:meth:`repro.scheduling.base.SchedulingView.
        remaining_prefill_tokens`). ``limit`` should be the same
        ``prompt_len - 1`` cap :meth:`before_prefill` applies, and the
        result is clamped to what the source physically backs (and, on
        block pools, floored to full blocks), so the estimate matches
        what an actual hit would deliver.
        """
        entry, matched = self.tree.probe(token_ids, limit=limit)
        if entry is None:
            return 0
        return self.adapter.backed_prefix(entry, matched)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_entry(self, victim: PrefixEntry) -> int:
        """Drop a cache-owned entry and free its memory; returns its
        sharing units."""
        rows = self._entry_rows(victim)
        self.tree.evict(victim)
        self.adapter.free_entry(victim)
        self.stats.evictions += 1
        self.stats.evicted_rows += rows
        return rows

    def _evict_one(self) -> bool:
        """Free the LRU unreferenced cache-owned entry; False if none."""
        victim = self.tree.lru_victim()
        if victim is None:
            return False
        self._evict_entry(victim)
        return True

    def _enforce_budget(self) -> None:
        if self.budget_bytes is None:
            return
        # cached_bytes walks every entry; compute the overshoot once
        # and track it through the evictions instead of re-walking.
        unit_bytes = self.adapter.unit_bytes
        excess = self.cached_bytes - self.budget_bytes
        while excess > 0:
            victim = self.tree.lru_victim()
            if victim is None:
                break
            excess -= self._evict_entry(victim) * unit_bytes

    # ------------------------------------------------------------------
    # Admission and allocation: evict cached prefixes, then retry
    # ------------------------------------------------------------------
    def can_admit(self, request: Request) -> bool:
        if request.resident_tokens_needed > self.adapter.max_context:
            return False  # eviction can never help an oversized prompt
        # Admission pressure is the cache's cue to shrink: release
        # slots and rows/blocks before the engine gives up on the
        # request.
        while not self.backend.can_admit(request):
            if not self._evict_one():
                return False
        return True

    def admit(self, request: Request) -> None:
        while not self.adapter.has_free_slot():
            if not self._evict_one():
                raise SchedulingError(
                    "no free reqId and no evictable cached prefix"
                )
        self.backend.admit(request)

    def before_prefill(self, request: Request) -> None:
        """Share the longest cached prefix into a request about to
        prefill (called before the iteration's memory preparation)."""
        if (
            request.prefix is None
            or request.memory_handle is None
            or request.prefill_done
            or request.prefilled_tokens > 0
        ):
            return
        if self.adapter.already_backed(request):
            return
        # Keep at least one prompt token to compute: the prefill
        # iteration must still run to produce the first output token.
        entry, matched = self.tree.match_prefix(
            request.prefix.token_ids,
            now=self.clock.now,
            limit=request.prompt_len - 1,
        )
        if entry is None:
            return
        matched = self.adapter.backed_prefix(entry, matched)
        if matched <= 0:
            return
        result = self.adapter.share(entry, request, matched)
        request.apply_cached_prefix(result.prefix_tokens)
        entry.ref_count += 1
        self._sources[request.request_id] = entry
        self.stats.aliased_rows += result.shared_units
        self.stats.copied_tokens += result.copied_tokens
        self.stats.bytes_saved += result.saved_bytes
        self.stats.alias_seconds += result.latency_seconds
        self.adapter.after_share(request)

    def note_prefill_complete(self, request: Request) -> None:
        """Register a just-prefilled request's prompt KV as reusable."""
        if request.prefix is None or request.memory_handle is None:
            return
        # The descriptor never outgrows the prompt (validated at
        # construction, and prompts only grow on preemption).
        entry = self.tree.insert(
            request.prefix.token_ids,
            slot=self.adapter.live_slot(request),
            group=request.prefix.group,
            live=True,
            now=self.clock.now,
        )
        if entry is not None:
            self.adapter.bind_slot(entry, request)
            self._live[request.request_id] = entry

    def prepare_iteration(self, batch) -> bool:
        # Evict cached prefixes before the engine resorts to preemption.
        while True:
            if self.backend.prepare_iteration(batch):
                return True
            if not self._evict_one():
                return False

    def _deref_source(self, request: Request) -> None:
        """Release the request's borrow on its alias-source entry."""
        source = self._sources.pop(request.request_id, None)
        if source is not None:
            source.ref_count -= 1

    def release(self, request: Request) -> None:
        """Preemption (or external) release: nothing is retained."""
        self._deref_source(request)
        live = self._live.pop(request.request_id, None)
        if live is not None:
            # The owner's KV is going away; the index must forget it
            # (physical units already aliased elsewhere stay refcounted
            # by the backend).
            self.tree.remove(live)
            self.adapter.unbind_live(live)
        self.backend.release(request)

    def retire(self, request: Request) -> None:
        """Finished request: keep its prefix resident instead of freeing."""
        self._deref_source(request)
        live = self._live.pop(request.request_id, None)
        if live is None:
            # Nothing indexable (no token ids, or a duplicate of an
            # already-cached prefix): free normally.
            self.backend.release(request)
            return
        keep_tokens = self.adapter.retainable_tokens(live.tokens)
        if keep_tokens <= 0:
            # The prompt holds no shareable unit (shorter than one
            # block): nothing worth retaining.
            self.tree.remove(live)
            self.adapter.unbind_live(live)
            self.backend.release(request)
            return
        live.live = False
        self.tree.touch(live, self.clock.now)
        # Retain only the shareable prompt units, not the decode tail.
        self.adapter.detach_to_cache(request, live, keep_tokens)
        self.stats.retained += 1
        self._enforce_budget()

