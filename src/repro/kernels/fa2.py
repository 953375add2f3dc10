"""FlashAttention-2 kernel latency models (paged and non-paged).

Calibration sources:

* Non-paged prefill/decode: roofline with the efficiencies of
  :mod:`repro.kernels.costmodel`, calibrated to Tables 6/7.
* Paged prefill overhead vs. context length: Figure 2 (measured factors
  1.07x at 1K rising to 1.37x at 32K) extended by Table 6's long-context
  attention-time ratios (~1.27-1.31x at 64K-192K). The paper attributes
  the overhead to Block-Table lookups, extra branches (7-13% more
  instructions) and register spilling.
* Paged decode: within noise of the non-paged kernel (Table 7) because
  decode attention is memory-bound and the extra compute hides behind
  memory stalls (S7.2); we apply the small residual factor visible in
  Table 7.
* The paged kernel's minimum block size is 256 (S7.6.3); using smaller
  blocks is unsupported, and the paper notes block size 256 is also its
  best configuration.
"""

from __future__ import annotations

from typing import Tuple

from ..models.shard import ShardedModel
from .base import AttentionKernel, KernelInfo, KvLayout
from .costmodel import (
    EFF_ATTN_PREFILL,
    EFF_DECODE_KV,
    attention_decode_time_total,
    attention_prefill_time,
    interp_factor,
)

#: Figure 2 (1K-32K) + Table 6 attention-time ratios (64K-192K):
#: paged prefill overhead factor over the non-paged FA2 kernel.
FA2_PAGED_PREFILL_OVERHEAD: Tuple[Tuple[int, float], ...] = (
    (1_024, 1.07),
    (2_048, 1.11),
    (4_096, 1.26),
    (8_192, 1.30),
    (16_384, 1.36),
    (32_768, 1.37),
    (65_536, 1.28),
    (131_072, 1.31),
    (196_608, 1.31),
)

#: Table 7: FA2_Paged decode latency is within ~2% of the non-paged kernel.
FA2_PAGED_DECODE_OVERHEAD = 1.02

#: Paged FA2 pays a small extra penalty below its best block size (S7:
#: "using a smaller block size for FlashAttention-2 paged kernel
#: increases its latency by up to 9%").
FA2_PAGED_SMALL_BLOCK_PENALTY = {256: 1.0, 128: 1.05, 64: 1.09}

#: FA2 predates Hopper (no TMA/WGMMA); on H100 it achieves a lower
#: fraction of peak — calibrated so the FA3-vs-FA2 gains of Figure 11
#: (1.26-1.5x end-to-end) hold with FA3's Hopper efficiency.
EFF_ATTN_PREFILL_ON_HOPPER = 0.45


def fa2_prefill_efficiency(gpu) -> float:
    """FlashAttention-2's prefill MFU on ``gpu``'s architecture."""
    if gpu.architecture == "hopper":
        return EFF_ATTN_PREFILL_ON_HOPPER
    return EFF_ATTN_PREFILL


class FlashAttention2(AttentionKernel):
    """The non-paged (vanilla) FlashAttention-2 kernels.

    This is the kernel vAttention runs unmodified: it assumes K and V are
    contiguous tensors. It supports ``cache_batch_idx`` so Q and KV cache
    may differ in batch order (used for continuous batching, S5.3.4).
    """

    info = KernelInfo(
        name="fa2",
        library="FlashAttention-2",
        layout=KvLayout.CONTIGUOUS,
        supports_prefill=True,
        supports_decode=True,
    )

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        return attention_prefill_time(
            shard, self.gpu, context_len, fa2_prefill_efficiency(self.gpu)
        )

    def _decode_time_total(
        self,
        shard: ShardedModel,
        total_tokens: int,
        batch_size: int,
        block_size: int,
    ) -> float:
        return attention_decode_time_total(
            shard, self.gpu, total_tokens, EFF_DECODE_KV
        )


class FlashAttention2Paged(AttentionKernel):
    """FlashAttention-2 with PagedAttention support (the ``_Paged`` config)."""

    info = KernelInfo(
        name="fa2_paged",
        library="FlashAttention-2",
        layout=KvLayout.PAGED,
        supports_prefill=True,
        supports_decode=True,
        supported_block_sizes=(64, 128, 256),
        best_block_size=256,
    )

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        base = attention_prefill_time(
            shard, self.gpu, context_len, fa2_prefill_efficiency(self.gpu)
        )
        overhead = interp_factor(FA2_PAGED_PREFILL_OVERHEAD, max(context_len, 1))
        overhead *= FA2_PAGED_SMALL_BLOCK_PENALTY[block_size]
        return base * overhead

    def _decode_time_total(
        self,
        shard: ShardedModel,
        total_tokens: int,
        batch_size: int,
        block_size: int,
    ) -> float:
        base = attention_decode_time_total(
            shard, self.gpu, total_tokens, EFF_DECODE_KV
        )
        overhead = FA2_PAGED_DECODE_OVERHEAD
        overhead *= FA2_PAGED_SMALL_BLOCK_PENALTY[block_size]
        return base * overhead
