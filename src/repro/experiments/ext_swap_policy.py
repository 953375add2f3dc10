"""Extension: swap-to-host vs recompute preemption (paper S5.3.3).

The paper's framework preempts with vLLM's recompute policy and leaves
KV-cache swapping to CPU memory as future work. This experiment runs a
memory-oversubscribed decode workload under both policies and compares
completion time, recomputed prefill work, and PCIe traffic.

Expected shape: with long contexts, recompute pays a quadratic-cost
prefill per preemption while swap pays two linear PCIe transfers, so
swap wins as contexts grow — and the gap widens with context length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..gpu.spec import A100, GpuSpec
from ..memory import MemoryConfig
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig, LLMEngine
from ..workloads.traces import fixed_trace

#: Oversubscription point: batch of 3 at one-row slack (see bench).
PROMPTS = (8_192, 16_384, 32_768)
DECODE_TOKENS = 600


@dataclass(frozen=True)
class SwapRow:
    """Both policies at one context length."""

    prompt_len: int
    recompute_makespan: float
    swap_makespan: float
    recompute_prefills: int
    swap_prefills: int
    swap_transfers: int

    @property
    def speedup(self) -> float:
        """Recompute makespan over swap makespan (>1 = swap wins)."""
        return self.recompute_makespan / self.swap_makespan


def _run(prompt_len: int, mode: str, gpu: GpuSpec):
    # Budget sized to hold the batch's prompts with under one row of
    # slack, so decode growth forces preemptions.
    shard = ShardedModel(YI_6B, 1)
    batch = 3
    budget = int(batch * prompt_len * shard.kv_bytes_per_token * 1.02)
    engine = LLMEngine(
        EngineConfig(
            shard=shard,
            gpu=gpu,
            memory_backend="vattention",
            max_batch_size=batch + 1,
            kv_budget_bytes=budget,
            memory=MemoryConfig(preemption_mode=mode),
            eager_allocation=False,
        )
    )
    engine.submit(
        fixed_trace(count=batch, prompt_len=prompt_len,
                    max_new_tokens=DECODE_TOKENS)
    )
    report = engine.run()
    prefills = len(report.metrics.of_phase("prefill"))
    tier = engine.memory.tier
    transfers = tier.stats.swap_ins if tier is not None else 0
    return report.makespan, prefills, transfers


def run(
    prompts: Sequence[int] = PROMPTS, gpu: GpuSpec = A100
) -> List[SwapRow]:
    """Compare the two policies across context lengths."""
    rows = []
    for prompt_len in prompts:
        recompute_makespan, recompute_prefills, _ = _run(
            prompt_len, "recompute", gpu
        )
        swap_makespan, swap_prefills, transfers = _run(prompt_len, "swap", gpu)
        rows.append(
            SwapRow(
                prompt_len=prompt_len,
                recompute_makespan=recompute_makespan,
                swap_makespan=swap_makespan,
                recompute_prefills=recompute_prefills,
                swap_prefills=swap_prefills,
                swap_transfers=transfers,
            )
        )
    return rows


def main() -> None:
    """Print the comparison."""
    print("Preemption policy: recompute (paper default) vs swap (S5.3.3)")
    for row in run():
        print(
            f"  ctx={row.prompt_len:>6}: recompute {row.recompute_makespan:6.1f}s "
            f"({row.recompute_prefills} prefills) | swap "
            f"{row.swap_makespan:6.1f}s ({row.swap_prefills} prefills, "
            f"{row.swap_transfers} swap-ins) | swap speedup {row.speedup:.2f}x"
        )


if __name__ == "__main__":
    main()
