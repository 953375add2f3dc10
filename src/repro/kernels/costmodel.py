"""Roofline cost model for transformer operators on a simulated GPU.

The evaluation quantities in the paper are kernel wall-clock times. We
model them with a calibrated roofline:

* **Prefill** (prompt processing) is compute-bound: time = FLOPs /
  (peak * efficiency).
* **Decode** attention is memory-bound: time = KV bytes streamed /
  (HBM bandwidth * efficiency) — the paper leans on this in S7.2 to
  explain why paged and non-paged decode kernels perform alike.
* **Decode** linear operators stream the weights once per iteration and
  add compute that grows with batch size; we use the additive
  (latency = memory time + compute time) approximation, which matches
  the smooth saturation of Figure 4a better than a hard max().

Efficiencies below are calibrated against the paper's absolute numbers
(Tables 6 and 7): e.g. Yi-6B 192K prefill attention of 53.6s implies
~0.60 MFU for FlashAttention-2; Yi-6B/Llama-3-8B/Yi-34B decode kernel
latencies all imply ~0.72 of peak HBM bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from ..errors import KernelError
from ..gpu.spec import GpuSpec
from ..models.shard import ShardedModel

#: MFU of dense linear operators during prefill (large GEMMs).
EFF_LINEAR_PREFILL = 0.65

#: MFU of FlashAttention-style causal prefill attention at long context.
EFF_ATTN_PREFILL = 0.60

#: Fraction of peak HBM bandwidth achieved streaming weights in decode.
EFF_DECODE_WEIGHTS = 0.75

#: Fraction of peak HBM bandwidth achieved streaming KV cache in decode.
EFF_DECODE_KV = 0.72

#: MFU of decode-phase GEMMs (skinny matrices).
EFF_LINEAR_DECODE = 0.65


@dataclass(frozen=True)
class Roofline:
    """Latency primitives for one GPU."""

    gpu: GpuSpec

    def compute_time(self, flops: float, efficiency: float) -> float:
        """Seconds to execute ``flops`` at ``efficiency`` of peak."""
        if flops < 0:
            raise KernelError(f"negative flops: {flops}")
        return flops / (self.gpu.peak_fp16_flops * efficiency)

    def memory_time(self, nbytes: float, efficiency: float) -> float:
        """Seconds to stream ``nbytes`` at ``efficiency`` of peak HBM bw."""
        if nbytes < 0:
            raise KernelError(f"negative bytes: {nbytes}")
        return nbytes / (self.gpu.hbm_bandwidth * efficiency)


# ----------------------------------------------------------------------
# Position-wise (linear) operators
# ----------------------------------------------------------------------
# The functions below are memoized: the serving engine evaluates them
# once per iteration with operands drawn from a small set (one shard,
# one GPU, a few batch sizes / prompt lengths), so the identical
# shard-by-gpu roofline terms were being recomputed millions of times in
# long decode runs. Inputs are frozen dataclasses (hashable); a cache
# hit returns the exact float the original computation produced, so
# memoization is invisible to the golden byte-identity tests.


@lru_cache(maxsize=None)
def decode_weight_stream_time(shard: ShardedModel, gpu: GpuSpec) -> float:
    """Seconds to stream the per-worker weights once in a decode step."""
    return Roofline(gpu).memory_time(
        shard.weight_bytes_per_worker, EFF_DECODE_WEIGHTS
    )


@lru_cache(maxsize=None)
def linear_prefill_time(
    shard: ShardedModel, gpu: GpuSpec, n_tokens: int
) -> float:
    """Per-worker seconds of all non-attention operators over a prompt."""
    roofline = Roofline(gpu)
    flops = n_tokens * shard.linear_flops_per_token()
    return roofline.compute_time(flops, EFF_LINEAR_PREFILL)


@lru_cache(maxsize=None)
def linear_decode_time(
    shard: ShardedModel, gpu: GpuSpec, batch_size: int
) -> float:
    """Per-worker seconds of non-attention operators for one decode step.

    Additive roofline: the weights are streamed once regardless of batch
    size (memory term), and the GEMM compute grows linearly with batch
    (compute term). The sum reproduces the smooth throughput saturation
    of Figure 4a.
    """
    if batch_size <= 0:
        raise KernelError(f"batch size must be positive, got {batch_size}")
    roofline = Roofline(gpu)
    weight_stream = roofline.memory_time(
        shard.weight_bytes_per_worker, EFF_DECODE_WEIGHTS
    )
    gemm = roofline.compute_time(
        batch_size * shard.linear_flops_per_token(), EFF_LINEAR_DECODE
    )
    return weight_stream + gemm


# ----------------------------------------------------------------------
# Attention primitives used by the kernel models
# ----------------------------------------------------------------------
def attention_prefill_time(
    shard: ShardedModel, gpu: GpuSpec, context_len: int, efficiency: float
) -> float:
    """Per-worker seconds of causal prefill attention (all layers)."""
    if context_len < 0:
        raise KernelError(f"negative context length: {context_len}")
    roofline = Roofline(gpu)
    flops = shard.attention_flops_prefill(context_len)
    return roofline.compute_time(flops, efficiency)


def attention_decode_time(
    shard: ShardedModel,
    gpu: GpuSpec,
    context_lens: Sequence[int],
    bandwidth_efficiency: float,
) -> float:
    """Per-worker seconds of decode attention for one iteration.

    The kernel streams the entire KV cache of every sequence in the
    batch: latency is proportional to the total token count (paper S7.2,
    "latency of a decode attention kernel is proportional to the total
    number of tokens in the batch").
    """
    total_tokens = 0
    for ctx in context_lens:
        if ctx < 0:
            raise KernelError(f"negative context length: {ctx}")
        total_tokens += ctx
    return attention_decode_time_total(
        shard, gpu, total_tokens, bandwidth_efficiency
    )


def attention_decode_time_total(
    shard: ShardedModel,
    gpu: GpuSpec,
    total_tokens: int,
    bandwidth_efficiency: float,
) -> float:
    """Decode attention time from the batch's *total* token count.

    The only batch property decode attention depends on (S7.2). The
    decode fast path evolves the total by integer increments and calls
    this directly; :func:`attention_decode_time` routes through it so
    both paths share the identical float arithmetic.
    """
    if total_tokens < 0:
        raise KernelError(f"negative total tokens: {total_tokens}")
    # Roofline.memory_time inlined (same operations, same order): the
    # fast path calls this once per stretch iteration.
    nbytes = float(total_tokens) * shard.kv_bytes_per_token
    return nbytes / (gpu.hbm_bandwidth * bandwidth_efficiency)


# ----------------------------------------------------------------------
# Interpolation of measured overhead tables
# ----------------------------------------------------------------------
def interp_factor(table: Sequence[Tuple[int, float]], x: int) -> float:
    """Piecewise-linear interpolation in log2(x) over a measured table.

    ``table`` is ((x0, f0), (x1, f1), ...) sorted by x. Values outside
    the measured range clamp to the nearest endpoint — extrapolating
    measured overhead factors would invent data the paper doesn't have.
    """
    if not table:
        raise KernelError("empty interpolation table")
    if x <= 0:
        raise KernelError(f"x must be positive, got {x}")
    xs = [point[0] for point in table]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise KernelError("interpolation table must be sorted by x")
    if x <= xs[0]:
        return table[0][1]
    if x >= xs[-1]:
        return table[-1][1]
    for (x0, f0), (x1, f1) in zip(table, table[1:]):
        if x0 <= x <= x1:
            weight = (math.log2(x) - math.log2(x0)) / (
                math.log2(x1) - math.log2(x0)
            )
            return f0 + weight * (f1 - f0)
    raise AssertionError("unreachable: x within range but no bracket found")
