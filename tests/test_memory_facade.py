"""The MemoryManager: config nesting, composition, and the tier verbs.

:class:`~repro.memory.MemoryManager` is the one memory object the engine
talks to. It holds the raw allocator (``backend``), the prefix cache
(``cache``, or ``None``) and the CPU KV tier (``tier``, or ``None``).
Byte identity of the outputs it produces is pinned by the catalogue and
cluster digest goldens in :mod:`tests.test_fastforward_equiv`.
"""

import dataclasses

import pytest

from repro.cache.manager import PrefixCacheManager
from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import CpuKvTier, MemoryConfig, MemoryManager
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.memory import MemoryBackend, VAttentionMemory


# ----------------------------------------------------------------------
# EngineConfig memory configuration
# ----------------------------------------------------------------------
def _shard():
    return ShardedModel(YI_6B, 1)


def _engine(mode: str = "recompute", **overrides) -> LLMEngine:
    config = dict(
        shard=_shard(),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=4,
        memory=MemoryConfig(preemption_mode=mode),
    )
    config.update(overrides)
    return LLMEngine(EngineConfig(**config))


class TestMemoryConfig:
    def test_replace_nested_memory_takes_effect(self):
        # dataclasses.replace(cfg, memory=...) on a constructed config
        # must honour the new nested config: nothing else carries a
        # memory knob that could override it.
        base = EngineConfig(
            shard=_shard(), gpu=A100, memory_backend="vattention"
        )
        config = dataclasses.replace(
            base,
            memory=MemoryConfig(
                preemption_mode="tiered", enable_prefix_cache=True
            ),
        )
        assert config.memory.preemption_mode == "tiered"
        assert config.memory.enable_prefix_cache
        engine = LLMEngine(config)
        assert isinstance(engine.memory.tier, CpuKvTier)
        assert isinstance(engine.memory.cache, PrefixCacheManager)

    def test_unknown_mode_rejected_both_spellings(self):
        # Constructed directly, or derived from a valid config.
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            MemoryConfig(preemption_mode="bogus")
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            dataclasses.replace(MemoryConfig(), preemption_mode="bogus")

    def test_swap_bytes_validated(self):
        with pytest.raises(ConfigError, match="swap_host_bytes"):
            MemoryConfig(swap_host_bytes=0)

    def test_cache_knobs_validated_in_nested_config(self):
        with pytest.raises(ConfigError, match="prefix_cache_slots"):
            MemoryConfig(enable_prefix_cache=True, prefix_cache_slots=0)
        with pytest.raises(ConfigError, match="prefix_cache_budget_bytes"):
            MemoryConfig(
                enable_prefix_cache=True, prefix_cache_budget_bytes=-1
            )


# ----------------------------------------------------------------------
# MemoryManager composition and tier verbs
# ----------------------------------------------------------------------
class TestComposition:
    def test_backend_is_the_raw_allocator(self):
        engine = _engine(memory=MemoryConfig(enable_prefix_cache=True))
        memory = engine.memory
        assert isinstance(memory, MemoryManager)
        assert isinstance(memory.backend, VAttentionMemory)
        assert memory.cache.backend is memory.backend

    def test_cache_is_a_component_not_a_backend(self):
        engine = _engine(memory=MemoryConfig(enable_prefix_cache=True))
        assert not isinstance(engine.memory.cache, MemoryBackend)
        assert not isinstance(engine.memory, MemoryBackend)

    def test_no_cache_probes_zero_and_reports_none(self):
        engine = _engine()
        assert engine.memory.cache is None
        assert engine.memory.probe_prefix_tokens([1, 2, 3], limit=2) == 0
        assert engine.memory.cache_report() is None

    def test_cache_gauges_follow_allocator_gauges(self):
        engine = _engine(memory=MemoryConfig(
            preemption_mode="tiered", enable_prefix_cache=True
        ))
        memory = engine.memory
        keys = list(memory.telemetry_sample())
        backend_keys = list(memory.backend.telemetry_sample())
        cache_keys = list(memory.cache.telemetry_sample())
        tier_keys = list(memory.tier.telemetry_sample())
        assert keys == backend_keys + cache_keys + tier_keys


class TestFacadeApi:
    def test_facade_shares_tier_with_engine(self):
        engine = _engine("tiered")
        assert isinstance(engine.memory.tier, CpuKvTier)
        assert engine.memory.tier.capacity == (
            engine.config.memory.swap_host_bytes
        )

    def test_recompute_mode_has_no_tier(self):
        engine = _engine("recompute")
        assert engine.memory.tier is None

    def test_tier_transfer_requires_tier(self):
        engine = _engine("recompute")
        with pytest.raises(ValueError, match="no CPU tier"):
            engine.memory.tier_transfer("r", "out", nbytes=1)

    def test_tier_transfer_rejects_unknown_direction(self):
        engine = _engine("tiered")
        with pytest.raises(ValueError, match="direction"):
            engine.memory.tier_transfer("r", "sideways", nbytes=1)

    def test_tier_transfer_round_trip(self):
        engine = _engine("tiered")
        out = engine.memory.tier_transfer("r", "out", nbytes=1_000)
        assert out.nbytes == 1_000 and out.seconds > 0
        back = engine.memory.tier_transfer("r", "in")
        assert back.nbytes == 1_000
        assert back.seconds == out.seconds
        assert not engine.memory.tier.holds("r")

    def test_double_swap_out_rejected(self):
        engine = _engine("tiered")
        engine.memory.tier_transfer("r", "out", nbytes=1_000)
        with pytest.raises(SchedulingError):
            engine.memory.tier_transfer("r", "out", nbytes=1_000)

    def test_telemetry_sample_merges_tier_gauges(self):
        engine = _engine("tiered")
        sample = engine.memory.telemetry_sample()
        assert sample["kv_tier_usage"] == 0.0
        assert sample["tier_transfer_queue_depth"] == 0.0
        assert "tier_bytes_out_total" in sample

    def test_no_tier_no_tier_gauges(self):
        engine = _engine("recompute")
        sample = engine.memory.telemetry_sample()
        assert "kv_tier_usage" not in sample
