"""FlashAttention-3 kernel latency model (Hopper-only, non-paged).

FA3 (Shah et al. 2024) exploits Hopper's TMA and warpgroup MMA
instructions. At release it had **no PagedAttention support** — the
paper's portability argument (S7.5): vAttention runs it unmodified, while
PagedAttention-based stacks cannot use it at all.

Calibration: Figure 11 shows FA3_vAttention delivering up to 1.35x higher
offline throughput than FA2_vAttention on H100s, on a workload dominated
by long-context prefill attention. With FA2 achieving ~0.45 MFU on
Hopper (it predates the architecture), an FA3 efficiency of ~0.66 yields
the measured end-to-end gains.
"""

from __future__ import annotations

from ..errors import KernelError
from ..gpu.spec import GpuSpec
from ..models.shard import ShardedModel
from .base import AttentionKernel, KernelInfo, KvLayout
from .costmodel import (
    EFF_DECODE_KV,
    attention_decode_time_total,
    attention_prefill_time,
)

#: FA3's prefill MFU on Hopper (see module docstring for calibration).
EFF_ATTN_PREFILL_FA3 = 0.66


class FlashAttention3(AttentionKernel):
    """The non-paged FlashAttention-3 kernels (``FA3_vAttention``)."""

    info = KernelInfo(
        name="fa3",
        library="FlashAttention-3",
        layout=KvLayout.CONTIGUOUS,
        supports_prefill=True,
        supports_decode=True,
    )

    def __init__(self, gpu: GpuSpec) -> None:
        if gpu.architecture != "hopper":
            raise KernelError(
                f"FlashAttention-3 requires Hopper; {gpu.name} is "
                f"{gpu.architecture}"
            )
        super().__init__(gpu)

    def _prefill_time(
        self, shard: ShardedModel, context_len: int, block_size: int
    ) -> float:
        return attention_prefill_time(
            shard, self.gpu, context_len, EFF_ATTN_PREFILL_FA3
        )

    def _decode_time_total(
        self,
        shard: ShardedModel,
        total_tokens: int,
        batch_size: int,
        block_size: int,
    ) -> float:
        # Decode stays memory-bound; Hopper's higher HBM bandwidth is
        # already captured by the GpuSpec.
        return attention_decode_time_total(
            shard, self.gpu, total_tokens, EFF_DECODE_KV
        )
