"""Roofline cost model: scaling behaviour and interpolation."""

import pytest

from repro.errors import ConfigError, KernelError
from repro.gpu.spec import A100, H100
from repro.kernels.costmodel import (
    EFF_ATTN_PREFILL,
    EFF_DECODE_KV,
    Roofline,
    attention_decode_time,
    attention_decode_time_total,
    attention_prefill_time,
    interp_factor,
    linear_decode_time,
    linear_prefill_time,
)
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B, get_model, list_models


@pytest.fixture
def shard() -> ShardedModel:
    return ShardedModel(YI_6B, 1)


class TestRoofline:
    def test_compute_time(self):
        roofline = Roofline(A100)
        assert roofline.compute_time(312e12, 1.0) == pytest.approx(1.0)
        assert roofline.compute_time(312e12, 0.5) == pytest.approx(2.0)

    def test_memory_time(self):
        roofline = Roofline(A100)
        assert roofline.memory_time(2.039e12, 1.0) == pytest.approx(1.0)

    def test_h100_faster(self, shard):
        assert attention_prefill_time(
            shard, H100, 16_384, EFF_ATTN_PREFILL
        ) < attention_prefill_time(shard, A100, 16_384, EFF_ATTN_PREFILL)

    def test_negative_inputs_rejected(self):
        roofline = Roofline(A100)
        with pytest.raises(KernelError):
            roofline.compute_time(-1, 0.5)
        with pytest.raises(KernelError):
            roofline.memory_time(-1, 0.5)


class TestLinearOps:
    def test_prefill_scales_with_tokens(self, shard):
        one = linear_prefill_time(shard, A100, 1_000)
        two = linear_prefill_time(shard, A100, 2_000)
        assert two == pytest.approx(2 * one)

    def test_decode_has_memory_floor(self, shard):
        # Batch 1 decode is dominated by streaming the weights: doubling
        # the batch must NOT double the latency.
        one = linear_decode_time(shard, A100, 1)
        two = linear_decode_time(shard, A100, 2)
        assert two < 1.1 * one

    def test_decode_grows_at_large_batch(self, shard):
        small = linear_decode_time(shard, A100, 64)
        large = linear_decode_time(shard, A100, 256)
        assert large > 1.5 * small

    def test_decode_rejects_empty_batch(self, shard):
        with pytest.raises(KernelError):
            linear_decode_time(shard, A100, 0)


class TestAttentionPrimitives:
    def test_prefill_quadratic(self, shard):
        small = attention_prefill_time(shard, A100, 8_192, EFF_ATTN_PREFILL)
        large = attention_prefill_time(shard, A100, 16_384, EFF_ATTN_PREFILL)
        assert large / small == pytest.approx(4.0, rel=0.01)

    def test_decode_proportional_to_total_tokens(self, shard):
        # S7.2: decode kernel latency tracks total tokens in the batch.
        a = attention_decode_time(shard, A100, [16_384] * 4, EFF_DECODE_KV)
        b = attention_decode_time(shard, A100, [8_192] * 8, EFF_DECODE_KV)
        assert a == pytest.approx(b)

    def test_decode_rejects_negative_context(self, shard):
        with pytest.raises(KernelError):
            attention_decode_time(shard, A100, [-1], EFF_DECODE_KV)

    def test_prefill_rejects_negative(self, shard):
        with pytest.raises(KernelError):
            attention_prefill_time(shard, A100, -1, EFF_ATTN_PREFILL)

    def test_decode_total_is_the_roofline_memory_time(self):
        # The decode fast path calls attention_decode_time_total once per
        # iteration, so it skips the Roofline object and caches the KV
        # bytes per token; every float must stay the roofline's.
        shards = []
        for name in list_models():
            for tp_degree in (1, 2, 4, 8):
                try:
                    shards.append(ShardedModel(get_model(name), tp_degree))
                except ConfigError:
                    continue  # heads do not split over this degree
        assert len(shards) > len(list_models())
        for gpu in (A100, H100):
            for shard in shards:
                for total in (0, 1, 4_095, 1_000_003, 10**7, 3 * 10**9):
                    expected = Roofline(gpu).memory_time(
                        float(total) * shard.kv_bytes_per_token, EFF_DECODE_KV
                    )
                    got = attention_decode_time_total(
                        shard, gpu, total, EFF_DECODE_KV
                    )
                    assert got.hex() == expected.hex()
        with pytest.raises(KernelError):
            attention_decode_time_total(shards[0], A100, -1, EFF_DECODE_KV)


class TestInterpolation:
    TABLE = ((1_024, 1.0), (2_048, 2.0), (8_192, 4.0))

    def test_exact_points(self):
        assert interp_factor(self.TABLE, 1_024) == 1.0
        assert interp_factor(self.TABLE, 8_192) == 4.0

    def test_log_midpoint(self):
        # Halfway between 2^10 and 2^11 in log space.
        mid = interp_factor(self.TABLE, 1_448)
        assert 1.45 < mid < 1.55

    def test_clamps_outside_range(self):
        assert interp_factor(self.TABLE, 10) == 1.0
        assert interp_factor(self.TABLE, 1_000_000) == 4.0

    def test_rejects_empty(self):
        with pytest.raises(KernelError):
            interp_factor((), 100)

    def test_rejects_unsorted(self):
        with pytest.raises(KernelError):
            interp_factor(((2, 1.0), (1, 2.0)), 1)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(KernelError):
            interp_factor(self.TABLE, 0)
