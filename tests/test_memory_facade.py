"""The MemoryManager facade: equivalence, config nesting, swap shim.

Three layers of enforcement mirroring the fast-forward house standard:

* An on/off sweep over every engine-driven experiment in the catalogue
  (plus one cluster shape): each driver runs once with the facade and
  once with the raw backend wiring (flipped through the module
  default), and the experiment's own output rows must compare equal —
  floats included, no tolerance. ``ext-kv-tiering`` is deliberately
  absent: its ``tiered`` mode only exists through the facade, so it
  has no legacy twin to compare against.
* ``EngineConfig`` memory knobs spelled flat (deprecated aliases) and
  nested (``memory=MemoryConfig(...)``) must normalize to the same
  config and serve identically.
* The ``SwapManager`` shim must warn exactly once per construction and
  keep byte-identical accounting with :class:`repro.memory.CpuKvTier`.
"""

import warnings

import pytest

import repro.memory.config as memory_config_module
from repro.errors import ConfigError, SchedulingError
from repro.gpu.spec import A100
from repro.memory import CpuKvTier, MemoryConfig, MemoryManager
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.swap import HostSwapSpace, SwapManager
from repro.units import GB
from repro.workloads.traces import fixed_trace
from test_fastforward_equiv import CLUSTER_SWEEP, SWEEP, _cluster_fingerprint


# ----------------------------------------------------------------------
# The facade on/off catalogue sweep
# ----------------------------------------------------------------------
#: The fast-forward sweep minus the facade-only ``ext-kv-tiering``.
FACADE_SWEEP = sorted(name for name in SWEEP if name != "ext-kv-tiering")


class TestFacadeEquivalence:
    @pytest.mark.parametrize("name", FACADE_SWEEP)
    def test_identical_on_and_off(self, name, monkeypatch):
        monkeypatch.setattr(
            memory_config_module, "DEFAULT_MEMORY_FACADE", True
        )
        on = SWEEP[name]()
        monkeypatch.setattr(
            memory_config_module, "DEFAULT_MEMORY_FACADE", False
        )
        off = SWEEP[name]()
        assert on == off

    @pytest.mark.parametrize(
        "name", ["router:cache_aware", "disagg:nvlink"]
    )
    def test_cluster_identical_on_and_off(self, name, monkeypatch):
        # Cluster KV paths (router probes, migration, drain re-routing)
        # go through every replica's engine.memory; one routed and one
        # disaggregated shape cover them.
        monkeypatch.setattr(
            memory_config_module, "DEFAULT_MEMORY_FACADE", True
        )
        on = _cluster_fingerprint(CLUSTER_SWEEP[name]())
        monkeypatch.setattr(
            memory_config_module, "DEFAULT_MEMORY_FACADE", False
        )
        off = _cluster_fingerprint(CLUSTER_SWEEP[name]())
        assert on == off

    def test_default_is_facade(self):
        engine = _engine()
        assert isinstance(engine.memory, MemoryManager)

    def test_flag_off_builds_raw_backend(self, monkeypatch):
        monkeypatch.setattr(
            memory_config_module, "DEFAULT_MEMORY_FACADE", False
        )
        engine = _engine()
        assert not isinstance(engine.memory, MemoryManager)


# ----------------------------------------------------------------------
# EngineConfig memory-knob normalization
# ----------------------------------------------------------------------
def _shard():
    return ShardedModel(YI_6B, 1)


def _engine(**overrides) -> LLMEngine:
    config = dict(
        shard=_shard(),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=4,
    )
    config.update(overrides)
    return LLMEngine(EngineConfig(**config))


def _swap_workload(engine: LLMEngine):
    prompt_len = 8_192
    engine.submit(
        fixed_trace(count=3, prompt_len=prompt_len, max_new_tokens=300)
    )
    return engine.run()


def _pressured(**overrides) -> LLMEngine:
    # Budget holding 3 prompts at one-row slack: decode growth preempts.
    shard = _shard()
    budget = int(3 * 8_192 * shard.kv_bytes_per_token * 1.02)
    return _engine(
        kv_budget_bytes=budget, eager_allocation=False, **overrides
    )


class TestMemoryConfig:
    def test_both_spellings_normalize_identically(self):
        flat = EngineConfig(
            shard=_shard(), gpu=A100, memory_backend="vattention",
            preemption_mode="swap", swap_host_bytes=2 * GB,
        )
        nested = EngineConfig(
            shard=_shard(), gpu=A100, memory_backend="vattention",
            memory=MemoryConfig(
                preemption_mode="swap", swap_host_bytes=2 * GB
            ),
        )
        assert flat.memory == nested.memory
        assert flat.preemption_mode == nested.preemption_mode == "swap"
        assert flat.swap_host_bytes == nested.swap_host_bytes == 2 * GB

    def test_both_spellings_serve_identically(self):
        report_flat = _swap_workload(
            _pressured(preemption_mode="swap", swap_host_bytes=4 * GB)
        )
        report_nested = _swap_workload(
            _pressured(memory=MemoryConfig(
                preemption_mode="swap", swap_host_bytes=4 * GB
            ))
        )
        assert report_flat.to_json() == report_nested.to_json()

    def test_flat_alias_wins_over_nested(self):
        # dataclasses.replace(config, preemption_mode=...) on a
        # normalized config must take effect; the passed flat value
        # always wins.
        config = EngineConfig(
            shard=_shard(), gpu=A100, memory_backend="vattention",
            memory=MemoryConfig(preemption_mode="swap"),
            preemption_mode="recompute",
        )
        assert config.preemption_mode == "recompute"
        assert config.memory.preemption_mode == "recompute"

    def test_aliases_backfilled_from_nested(self):
        config = EngineConfig(
            shard=_shard(), gpu=A100, memory_backend="vattention",
            memory=MemoryConfig(preemption_mode="tiered",
                                swap_host_bytes=3 * GB),
        )
        assert config.preemption_mode == "tiered"
        assert config.swap_host_bytes == 3 * GB

    def test_unknown_mode_rejected_both_spellings(self):
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            MemoryConfig(preemption_mode="bogus")
        with pytest.raises(ConfigError, match="unknown preemption mode"):
            EngineConfig(
                shard=_shard(), gpu=A100, memory_backend="vattention",
                preemption_mode="bogus",
            )

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
# The SwapManager deprecation shim
# ----------------------------------------------------------------------
def _drive(space) -> None:
    space.swap_out("a", 256)
    space.swap_out("b", 512)
    space.can_swap_out(space.capacity)  # rejected: counter must tick
    space.swap_in("a")
    space.drop("b")


class TestSwapShim:
    def test_swap_manager_warns(self):
        with pytest.warns(DeprecationWarning, match="SwapManager"):
            SwapManager(capacity=1 * GB)

    def test_host_swap_space_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HostSwapSpace(capacity=1 * GB)

    def test_shim_accounting_identical(self):
        with pytest.warns(DeprecationWarning):
            shim = SwapManager(capacity=1 * GB)
        tier = CpuKvTier(capacity=1 * GB)
        _drive(shim)
        _drive(tier)
        assert shim.stats == tier.stats
        assert shim.used == tier.used
        assert shim.available == tier.available
        assert shim.telemetry_sample() == tier.telemetry_sample()

    def test_shim_is_a_tier(self):
        with pytest.warns(DeprecationWarning):
            shim = SwapManager(capacity=1 * GB)
        assert isinstance(shim, CpuKvTier)


# ----------------------------------------------------------------------
# Facade API surface
# ----------------------------------------------------------------------
class TestFacadeApi:
    def test_facade_shares_tier_with_engine(self):
        engine = _engine(preemption_mode="tiered")
        assert engine.memory.tier is engine.swap_space
        assert isinstance(engine.swap_space, CpuKvTier)

    def test_recompute_mode_has_no_tier(self):
        engine = _engine(preemption_mode="recompute")
        assert engine.memory.tier is None
        assert engine.swap_space is None

    def test_tier_transfer_requires_tier(self):
        engine = _engine(preemption_mode="recompute")
        with pytest.raises(ValueError, match="no CPU tier"):
            engine.memory.tier_transfer("r", "out", nbytes=1)

    def test_tier_transfer_rejects_unknown_direction(self):
        engine = _engine(preemption_mode="tiered")
        with pytest.raises(ValueError, match="direction"):
            engine.memory.tier_transfer("r", "sideways", nbytes=1)

    def test_tier_transfer_round_trip(self):
        engine = _engine(preemption_mode="tiered")
        out = engine.memory.tier_transfer("r", "out", nbytes=1_000)
        assert out.nbytes == 1_000 and out.seconds > 0
        back = engine.memory.tier_transfer("r", "in")
        assert back.nbytes == 1_000
        assert back.seconds == out.seconds
        assert not engine.swap_space.holds("r")

    def test_double_swap_out_rejected(self):
        engine = _engine(preemption_mode="tiered")
        engine.memory.tier_transfer("r", "out", nbytes=1_000)
        with pytest.raises(SchedulingError):
            engine.memory.tier_transfer("r", "out", nbytes=1_000)

    def test_delegates_backend_extras(self):
        engine = _engine(preemption_mode="tiered")
        # vattention-specific introspection flows through __getattr__.
        assert engine.memory.manager is engine.memory.backend.manager

    def test_telemetry_sample_merges_tier_gauges(self):
        engine = _engine(preemption_mode="tiered")
        sample = engine.memory.telemetry_sample()
        assert sample["kv_tier_usage"] == 0.0
        assert sample["tier_transfer_queue_depth"] == 0.0
        assert "tier_bytes_out_total" in sample

    def test_no_tier_no_tier_gauges(self):
        engine = _engine(preemption_mode="recompute")
        sample = engine.memory.telemetry_sample()
        assert "kv_tier_usage" not in sample
