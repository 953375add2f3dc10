"""Radix prefix cache over the paged backend (full-block sharing).

The radix tree is backend-agnostic; these tests pin the paged adapter's
mechanics — per-block refcounts, pointer splicing, block-floored hits —
and prove the cache delivers end-to-end over ``memory_backend="paged"``:
engine hit/miss/eviction behaviour and cache-aware cluster routing.
"""

import pytest

from repro.cache.manager import PrefixCacheManager
from repro.cluster import ClusterConfig, ClusterEngine
from repro.errors import SchedulingError
from repro.experiments.ext_cluster_router import cluster_trace
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.paged.block_manager import BlockManager
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.memory import PagedMemory
from repro.units import GB
from repro.workloads.traces import fixed_trace, shared_prefix_trace

BLOCK = 16


# ----------------------------------------------------------------------
# BlockManager sharing primitives
# ----------------------------------------------------------------------
@pytest.fixture
def blocks():
    shard = ShardedModel(YI_6B, 1)
    return BlockManager(
        shard, kv_budget_bytes=64 * BLOCK * shard.kv_bytes_per_token,
        block_size=BLOCK,
    )


class TestBlockSharing:
    def test_share_aliases_and_releases_displaced(self, blocks):
        blocks.allocate("src", 4 * BLOCK)
        blocks.allocate("dst", 4 * BLOCK)
        free_before = blocks.free_blocks
        saved = blocks.share_blocks("src", "dst", 3)
        assert saved == 3 * blocks.block_bytes
        # dst's three displaced private blocks went back to the pool.
        assert blocks.free_blocks == free_before + 3
        assert (
            blocks.allocation("dst").block_ids[:3]
            == blocks.allocation("src").block_ids[:3]
        )
        assert blocks.dedup_saved_bytes == 3 * blocks.block_bytes

    def test_shared_blocks_survive_source_free(self, blocks):
        blocks.allocate("src", 4 * BLOCK)
        blocks.allocate("dst", 4 * BLOCK)
        shared = blocks.allocation("src").block_ids[:3]
        blocks.share_blocks("src", "dst", 3)
        blocks.free("src")
        # The aliased blocks stay out of the pool while dst holds them.
        assert not set(shared) & set(blocks._free)
        assert blocks.dedup_saved_bytes == 0  # dst is sole owner again
        blocks.free("dst")
        assert blocks.free_blocks == blocks.num_blocks

    def test_refcount_chain_three_way(self, blocks):
        blocks.allocate("a", 2 * BLOCK)
        blocks.allocate("b", 2 * BLOCK)
        blocks.allocate("c", 2 * BLOCK)
        blocks.share_blocks("a", "b", 2)
        blocks.share_blocks("a", "c", 2)
        assert blocks.dedup_saved_bytes == 4 * blocks.block_bytes
        blocks.free("a")
        blocks.free("b")
        assert blocks.dedup_saved_bytes == 0
        blocks.free("c")
        assert blocks.free_blocks == blocks.num_blocks

    def test_share_rejects_more_than_held(self, blocks):
        blocks.allocate("src", 2 * BLOCK)
        blocks.allocate("dst", 4 * BLOCK)
        with pytest.raises(SchedulingError):
            blocks.share_blocks("src", "dst", 3)

    def test_transfer_rekeys_and_trims(self, blocks):
        blocks.allocate("req", 4 * BLOCK + 5)  # 5 allocated blocks
        moved = blocks.transfer("req", "prefix-cache/0", 3 * BLOCK)
        assert moved.request_id == "prefix-cache/0"
        assert moved.num_blocks == 3
        assert moved.context_len == 3 * BLOCK
        assert blocks.free_blocks == blocks.num_blocks - 3
        with pytest.raises(SchedulingError):
            blocks.allocation("req")

    def test_transfer_requires_block_multiple(self, blocks):
        blocks.allocate("req", 4 * BLOCK)
        with pytest.raises(SchedulingError, match="whole blocks"):
            blocks.transfer("req", "cache", 3 * BLOCK + 1)

    def test_free_order_unchanged_without_sharing(self, blocks):
        # The pre-sharing free-list discipline (allocate from the tail,
        # bulk-return in list order) is what catalogue determinism
        # rests on; refcounting must not disturb it.
        a = blocks.allocate("a", 3 * BLOCK).block_ids[:]
        blocks.free("a")
        assert blocks._free[-3:] == a
        # Re-allocation pops the free tail back to front, as ever.
        b = blocks.allocate("b", 3 * BLOCK).block_ids
        assert b == a[::-1]


# ----------------------------------------------------------------------
# Engine-level cache over paged
# ----------------------------------------------------------------------
def build_engine(enabled: bool = True, **overrides) -> LLMEngine:
    config = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="paged",
        prefill_kernel="fa2",  # the vLLM system shape (see common.py)
        decode_kernel="vllm_paged",
        max_batch_size=8,
        memory=MemoryConfig(enable_prefix_cache=enabled),
    )
    config.update(overrides)
    return LLMEngine(EngineConfig(**config))


def serve(engine: LLMEngine, trace):
    engine.submit(trace)
    report = engine.run()
    ttfts = [r.ttft for r in report.finished_requests]
    return report, sum(ttfts) / len(ttfts)


class TestPagedEngineCache:
    def test_engine_wraps_paged_backend(self):
        engine = build_engine(True)
        assert isinstance(engine.memory.cache, PrefixCacheManager)
        assert isinstance(engine.memory.cache.backend, PagedMemory)
        assert engine.memory.cache.backend is engine.memory.backend

    def test_shared_prompts_hit_and_win(self):
        def trace():
            return shared_prefix_trace(
                count=24, sharing_factor=8, prefix_tokens=8_192
            )

        report_off, ttft_off = serve(build_engine(False), trace())
        report_on, ttft_on = serve(build_engine(True), trace())
        cache = report_on.prefix_cache
        assert len(report_on.finished_requests) == 24
        assert cache.lookups == 24
        assert cache.hits > 0
        assert cache.bytes_saved > 0
        assert cache.retained > 0
        assert ttft_on < ttft_off

    def test_hits_floor_to_full_blocks(self):
        report, _ = serve(
            build_engine(True),
            shared_prefix_trace(count=16, sharing_factor=8,
                                prefix_tokens=8_192),
        )
        cache = report.prefix_cache
        assert cache.hit_tokens > 0
        assert cache.hit_tokens % BLOCK == 0

    def test_probe_matches_hit_size(self):
        # The routing probe and the actual hit go through the same
        # block floor — a probe must never promise tokens a hit cannot
        # deliver.
        engine = build_engine(True)
        trace = shared_prefix_trace(count=8, sharing_factor=8,
                                    prefix_tokens=4_096)
        engine.submit(trace[:4])
        engine.run()
        probe = engine.memory.probe_prefix_tokens(
            trace[4].prefix.token_ids, limit=trace[4].prompt_len - 1
        )
        assert probe > 0
        assert probe % BLOCK == 0
        engine.submit(trace[4:])
        report = engine.run()
        assert report.prefix_cache.hits > 0

    def test_no_sharing_no_hits_no_harm(self):
        def trace():
            return shared_prefix_trace(
                count=16, sharing_factor=1, prefix_tokens=2_048
            )

        report_off, _ = serve(build_engine(False), trace())
        report_on, _ = serve(build_engine(True), trace())
        assert report_on.prefix_cache.hits == 0
        assert report_on.makespan == pytest.approx(
            report_off.makespan, rel=1e-6
        )

    def test_requests_without_descriptors_run_unchanged(self):
        def trace():
            return fixed_trace(count=6, prompt_len=4_096, max_new_tokens=32)

        report_off, _ = serve(build_engine(False), trace())
        report_on, _ = serve(build_engine(True), trace())
        assert report_on.prefix_cache.lookups == 0
        assert report_on.makespan == pytest.approx(
            report_off.makespan, rel=1e-6
        )

    def test_budget_bounds_retained_bytes(self):
        budget = 2 * GB
        report, _ = serve(
            build_engine(memory=MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=budget
            )),
            shared_prefix_trace(count=24, sharing_factor=4,
                                prefix_tokens=8_192),
        )
        cache = report.prefix_cache
        assert cache.cached_bytes <= budget
        assert cache.evictions > 0

    def test_memory_pressure_evicts_instead_of_starving(self):
        # Tighter than the vattention twin: block sharing de-duplicates
        # the pool's physical footprint, so real pressure needs a
        # budget under the sum of the distinct prefix groups.
        report, _ = serve(
            build_engine(True, kv_budget_bytes=2 * GB, max_batch_size=3),
            shared_prefix_trace(count=12, sharing_factor=4,
                                prefix_tokens=8_192),
        )
        assert len(report.finished_requests) == 12
        assert report.prefix_cache.evictions > 0
        assert report.prefix_cache.hits > 0

    def test_dedup_bytes_released_after_run(self):
        engine = build_engine(True)
        engine.submit(
            shared_prefix_trace(count=16, sharing_factor=8,
                                prefix_tokens=8_192)
        )
        report = engine.run()
        assert report.prefix_cache.bytes_saved > 0
        # Cumulative savings survive in the report while the pool's
        # live dedup drains as requests finish (retained cache entries
        # no longer alias into any live request).
        assert engine.memory.cache.report().bytes_saved > 0


# ----------------------------------------------------------------------
# Cache-aware routing over paged replicas
# ----------------------------------------------------------------------
class TestCacheAwareRoutingOverPaged:
    def _serve(self, policy: str):
        cluster = ClusterEngine(
            ClusterConfig(
                engine=EngineConfig(
                    shard=ShardedModel(YI_6B, 1),
                    gpu=A100,
                    memory_backend="paged",
                    prefill_kernel="fa2",
                    decode_kernel="vllm_paged",
                    max_batch_size=8,
                    memory=MemoryConfig(enable_prefix_cache=True),
                ),
                n_replicas=2,
                routing_policy=policy,
            )
        )
        cluster.submit(cluster_trace(count=24, sharing_factor=4, qps=8.0))
        return cluster.run()

    def test_cache_aware_hits_over_paged(self):
        report = self._serve("cache_aware")
        assert len(report.records) == 24
        assert report.cache_hit_rate > 0

    def test_cache_aware_beats_round_robin_hit_rate(self):
        aware = self._serve("cache_aware")
        blind = self._serve("round_robin")
        assert aware.cache_hit_rate > blind.cache_hit_rate
