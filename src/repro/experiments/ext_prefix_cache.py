"""Extension: engine-integrated radix-tree prefix cache (S8.1 scaled up).

The paper's S8.1 demonstrates KV de-duplication as a manual pairwise
``share_prefix`` call; :mod:`repro.cache` turns it into an automatic
subsystem. This experiment serves a shared-system-prompt workload
through the full engine and measures what automation buys end-to-end:

* **Sweep 1 — sharing factor.** Requests per distinct system prompt
  varies (1 = fully private prompts); the cache is compared against the
  identical engine with the cache disabled on prefill throughput and
  mean time-to-first-token.
* **Sweep 2 — cache budget.** At a fixed sharing factor, the byte
  budget for retained prefixes shrinks; eviction counters show the
  cache degrading gracefully rather than falling off a cliff (live
  in-batch entries keep serving hits even with no retention budget).

Radix-tree statistics (hits, aliased rows, evictions, bytes saved) come
straight from the run report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..gpu.spec import A100, GpuSpec
from ..memory import MemoryConfig
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig, LLMEngine
from ..units import GB, MB
from ..workloads.traces import shared_prefix_trace

REQUESTS = 48
PREFIX_TOKENS = 8_192  # a long system prompt / few-shot header
MAX_BATCH = 16
SHARING_FACTORS = (1, 4, 8, 16)
CACHE_BUDGETS: Tuple[Optional[int], ...] = (None, 2 * GB, 512 * MB)
BUDGET_SHARING_FACTOR = 8


@dataclass(frozen=True)
class PrefixCacheRow:
    """Cache on vs. off at one sharing factor (or one budget)."""

    sharing_factor: int
    cache_budget_bytes: Optional[int]
    prefill_throughput_off: float
    prefill_throughput_on: float
    mean_ttft_off: float
    mean_ttft_on: float
    hits: int
    lookups: int
    hit_tokens: int
    aliased_rows: int
    evictions: int
    bytes_saved: int

    @property
    def throughput_gain(self) -> float:
        """Prefill throughput ratio (cache on / off)."""
        return self.prefill_throughput_on / self.prefill_throughput_off

    @property
    def ttft_reduction(self) -> float:
        """Fraction of mean TTFT removed by the cache."""
        return 1.0 - self.mean_ttft_on / self.mean_ttft_off


def _serve(
    sharing_factor: int,
    enabled: bool,
    gpu: GpuSpec,
    budget: Optional[int] = None,
):
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=gpu,
            memory_backend="vattention",
            max_batch_size=MAX_BATCH,
            memory=MemoryConfig(
                enable_prefix_cache=enabled, prefix_cache_budget_bytes=budget
            ),
        )
    )
    engine.submit(
        shared_prefix_trace(
            count=REQUESTS,
            sharing_factor=sharing_factor,
            prefix_tokens=PREFIX_TOKENS,
        )
    )
    report = engine.run()
    throughput = report.metrics.prefill_throughput()
    return report, throughput, report.mean_ttft()


def _baseline(gpu: GpuSpec):
    """One cache-off run; its result is independent of sharing factor
    and budget (same seed, same lengths — only token-id grouping
    differs, which the cache-less engine never sees)."""
    _, tp_off, ttft_off = _serve(1, False, gpu)
    return tp_off, ttft_off


def _compare(
    sharing_factor: int,
    gpu: GpuSpec,
    baseline,
    budget: Optional[int] = None,
) -> PrefixCacheRow:
    tp_off, ttft_off = baseline
    report, tp_on, ttft_on = _serve(sharing_factor, True, gpu, budget)
    cache = report.prefix_cache
    return PrefixCacheRow(
        sharing_factor=sharing_factor,
        cache_budget_bytes=budget,
        prefill_throughput_off=tp_off,
        prefill_throughput_on=tp_on,
        mean_ttft_off=ttft_off,
        mean_ttft_on=ttft_on,
        hits=cache.hits,
        lookups=cache.lookups,
        hit_tokens=cache.hit_tokens,
        aliased_rows=cache.aliased_rows,
        evictions=cache.evictions,
        bytes_saved=cache.bytes_saved,
    )


def run(
    sharing_factors: Sequence[int] = SHARING_FACTORS, gpu: GpuSpec = A100
) -> List[PrefixCacheRow]:
    """Cache on vs. off across sharing factors."""
    baseline = _baseline(gpu)
    return [_compare(factor, gpu, baseline) for factor in sharing_factors]


def run_budgets(
    budgets: Sequence[Optional[int]] = CACHE_BUDGETS,
    sharing_factor: int = BUDGET_SHARING_FACTOR,
    gpu: GpuSpec = A100,
) -> List[PrefixCacheRow]:
    """Cache behaviour across retention budgets at one sharing factor."""
    baseline = _baseline(gpu)
    return [
        _compare(sharing_factor, gpu, baseline, budget) for budget in budgets
    ]


def main() -> None:
    """Print both sweeps."""
    print(
        f"Radix-tree prefix cache: {REQUESTS} requests, "
        f"{PREFIX_TOKENS}-token system prompts (Yi-6B, batch {MAX_BATCH})"
    )
    print("\nsharing factor sweep (cache off -> on):")
    for row in run():
        print(
            f"  x{row.sharing_factor:<3} prefill "
            f"{row.prefill_throughput_off / 1e3:6.1f} -> "
            f"{row.prefill_throughput_on / 1e3:6.1f} Ktok/s "
            f"({row.throughput_gain:.2f}x) | TTFT "
            f"{row.mean_ttft_off:6.2f} -> {row.mean_ttft_on:6.2f}s "
            f"(-{row.ttft_reduction:.0%}) | hits {row.hits}/{row.lookups}, "
            f"{row.aliased_rows} rows aliased, "
            f"{row.bytes_saved / GB:.1f}GB saved"
        )
    print(
        f"\ncache budget sweep (sharing factor {BUDGET_SHARING_FACTOR}):"
    )
    for row in run_budgets():
        budget = (
            "unlimited"
            if row.cache_budget_bytes is None
            else f"{row.cache_budget_bytes / GB:.1f}GB"
        )
        print(
            f"  {budget:>9}: prefill {row.prefill_throughput_on / 1e3:6.1f} "
            f"Ktok/s | TTFT {row.mean_ttft_on:6.2f}s | "
            f"hits {row.hits}/{row.lookups}, {row.evictions} evictions"
        )


if __name__ == "__main__":
    main()
