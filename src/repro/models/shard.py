"""Tensor-parallel sharding of a model across workers.

The paper deploys Llama-3-8B and Yi-34B with TP-2 over NVLink-connected
A100s. TP splits attention heads and MLP columns evenly across workers,
so the per-worker values of the paper's notation (``N`` layers hosted,
``H`` KV heads per worker, per-worker parameter bytes) follow directly.

A :class:`ShardedModel` is the view the serving engine, kernels and the
vAttention manager all consume: everything is *per worker*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError
from .config import ModelConfig


@dataclass(frozen=True)
class ShardedModel:
    """Per-worker view of a tensor-parallel model deployment."""

    model: ModelConfig
    tp_degree: int

    def __post_init__(self) -> None:
        if self.tp_degree <= 0:
            raise ConfigError(f"tp_degree must be positive, got {self.tp_degree}")
        if self.model.n_kv_heads % self.tp_degree != 0:
            raise ConfigError(
                f"{self.model.name}: {self.model.n_kv_heads} KV heads do "
                f"not split evenly over TP-{self.tp_degree}"
            )
        if self.model.n_q_heads % self.tp_degree != 0:
            raise ConfigError(
                f"{self.model.name}: {self.model.n_q_heads} Q heads do "
                f"not split evenly over TP-{self.tp_degree}"
            )

    # ------------------------------------------------------------------
    # Paper notation, per worker (Table 2)
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        """Layers hosted per worker (TP replicates depth: all of them)."""
        return self.model.n_layers

    @property
    def kv_heads_per_worker(self) -> int:
        """Paper's ``H``: KV heads on one worker."""
        return self.model.n_kv_heads // self.tp_degree

    @property
    def q_heads_per_worker(self) -> int:
        """Query heads on one worker."""
        return self.model.n_q_heads // self.tp_degree

    @property
    def head_dim(self) -> int:
        """Paper's ``D``."""
        return self.model.head_dim

    @property
    def dtype_bytes(self) -> int:
        """Paper's ``P``."""
        return self.model.dtype_bytes

    @property
    def max_context(self) -> int:
        """Paper's ``L``."""
        return self.model.max_context

    # ------------------------------------------------------------------
    # Per-worker memory math
    # ------------------------------------------------------------------
    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """K + V bytes of one token in one layer on one worker."""
        return 2 * self.kv_heads_per_worker * self.head_dim * self.dtype_bytes

    @property
    def k_bytes_per_token_per_layer(self) -> int:
        """K-only bytes of one token in one layer on one worker."""
        return self.kv_heads_per_worker * self.head_dim * self.dtype_bytes

    @cached_property
    def kv_bytes_per_token(self) -> int:
        """K + V bytes of one token across all layers on one worker.

        Cached: the decode fast path reads it once per stretch
        iteration. The value lives in the instance dict, so the frozen
        dataclass's equality and hash still cover its fields only.
        """
        return self.n_layers * self.kv_bytes_per_token_per_layer

    def max_request_cache_bytes_per_layer(self) -> int:
        """Paper's ``S``: max per-layer K (or V) cache of one request.

        ``S = L * H * D * P`` (S5.1.3).
        """
        return (
            self.max_context
            * self.kv_heads_per_worker
            * self.head_dim
            * self.dtype_bytes
        )

    def buffer_size(self, max_batch_size: int) -> int:
        """Paper's ``BS``: size of one virtual K (or V) buffer.

        ``BS = B * S`` for the maximum batch size ``B`` (S5.1.3).
        """
        if max_batch_size <= 0:
            raise ConfigError(f"batch size must be positive: {max_batch_size}")
        return max_batch_size * self.max_request_cache_bytes_per_layer()

    def total_virtual_bytes(self, max_batch_size: int) -> int:
        """Virtual memory reserved per worker: ``2N`` buffers of ``BS``."""
        return 2 * self.n_layers * self.buffer_size(max_batch_size)

    @property
    def weight_bytes_per_worker(self) -> int:
        """Model weight bytes hosted by one worker.

        Projections and MLP split by TP; embeddings are replicated (the
        dominant terms split, so this matches practice closely enough for
        the capacity experiments).
        """
        sharded = (
            self.model.n_layers * self.model.params_per_layer
        ) // self.tp_degree
        replicated = self.model.embedding_params
        return (sharded + replicated) * self.dtype_bytes

    # ------------------------------------------------------------------
    # Per-worker FLOP math (each worker executes 1/tp of the FLOPs)
    # ------------------------------------------------------------------
    def linear_flops_per_token(self) -> float:
        """Per-worker FLOPs of position-wise operators for one token."""
        return self.model.linear_flops_per_token() / self.tp_degree

    def attention_flops_prefill(self, context_len: int) -> float:
        """Per-worker FLOPs of prefill attention over a prompt."""
        return self.model.attention_flops_prefill(context_len) / self.tp_degree

    def attention_flops_decode(self, context_len: int) -> float:
        """Per-worker FLOPs of one decode step's attention."""
        return self.model.attention_flops_decode(context_len) / self.tp_degree

    def tokens_per_page_group(self, page_group_size: int) -> int:
        """Paper Table 8: KV cache block size for a page-group size.

        How many tokens' worth of one layer's K (or V) cache fits in a
        page-group on this worker: ``page_group_size / (H * D * P)``.
        """
        per_token = self.kv_heads_per_worker * self.head_dim * self.dtype_bytes
        if page_group_size % per_token != 0:
            # Block size is still the floor; partial tokens are unusable.
            return page_group_size // per_token
        return page_group_size // per_token

    def __str__(self) -> str:
        return f"{self.model.name} (TP-{self.tp_degree})"
