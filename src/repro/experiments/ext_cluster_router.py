"""Extension: cluster serving — routing policies and disaggregation.

PR 1 made the prefix cache automatic inside one engine; this experiment
asks what it is worth at *fleet* scale, where the router decides which
replica's radix tree a request gets to hit (SGLang's cache-aware load
balancer argument). Two sweeps:

* **Routing sweep.** Replica count x routing policy x sharing factor on
  a shared-system-prompt trace under bursty (on/off Markov-modulated
  Poisson) arrivals. Requests arrive in *shuffled* group order — real
  traffic interleaves prompt families arbitrarily, and a group order
  synchronized with the round-robin cycle would hand that policy
  accidental perfect affinity. Reported per cell: fleet throughput,
  mean/p99 TTFT, aggregate cache hit rate, per-replica balance.
* **Disaggregation sweep.** The same trace on a prefill/decode split
  fleet, NVLink vs PCIe, migration bytes and link time accounted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster import ClusterConfig, ClusterEngine, ClusterReport
from ..gpu.spec import A100, GpuSpec
from ..memory import MemoryConfig
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig
from ..serving.request import Request
from ..units import GB
from ..workloads.arrival import bursty_arrivals
from ..workloads.traces import TraceSpec, shared_prefix_trace

REQUESTS = 64
PREFIX_TOKENS = 4_096
MAX_BATCH = 8
QPS = 4.0
SHARING_FACTORS = (1, 8)
REPLICA_COUNTS = (2, 4)
POLICIES = ("round_robin", "least_outstanding_tokens", "cache_aware")
TRACE_SEED = 9157
ARRIVAL_SEED = 1217
SHUFFLE_SEED = 4099


@dataclass(frozen=True)
class ClusterRow:
    """One (replicas, policy, sharing factor) cell of the routing sweep."""

    n_replicas: int
    policy: str
    sharing_factor: int
    requests_per_minute: float
    mean_ttft: float
    p99_ttft: float
    median_e2e: float
    cache_hit_rate: float
    cache_hit_tokens: int
    requests_per_replica: Tuple[int, ...]


@dataclass(frozen=True)
class DisaggRow:
    """One interconnect cell of the disaggregation sweep."""

    interconnect: str
    n_prefill: int
    n_decode: int
    migrations: int
    migrated_bytes: int
    migration_seconds: float
    mean_migration_wait: float
    mean_ttft: float
    median_e2e: float
    requests_per_minute: float


def cluster_trace(
    count: int = REQUESTS,
    sharing_factor: int = 8,
    prefix_tokens: int = PREFIX_TOKENS,
    qps: float = QPS,
    trace_seed: int = TRACE_SEED,
    arrival_seed: int = ARRIVAL_SEED,
    shuffle_seed: int = SHUFFLE_SEED,
    decode_spec: Optional[TraceSpec] = None,
) -> List[Request]:
    """Shared-prefix requests in shuffled group order, bursty arrivals.

    :func:`~repro.workloads.traces.shared_prefix_trace` emits groups
    cyclically (request *i* belongs to group ``i % groups``); shuffling
    before assigning arrival times decouples the group sequence from
    any routing cycle, so no policy wins by resonance. ``decode_spec``
    overrides the default chat-sized decode lengths (the wall-clock
    benchmark replays a decode-heavier variant of this trace).
    """
    requests = shared_prefix_trace(
        count=count,
        sharing_factor=sharing_factor,
        prefix_tokens=prefix_tokens,
        seed=trace_seed,
        **({} if decode_spec is None else {"decode_spec": decode_spec}),
    )
    random.Random(shuffle_seed).shuffle(requests)
    arrivals = bursty_arrivals(qps=qps, count=count, seed=arrival_seed)
    for request, arrival in zip(requests, arrivals):
        request.arrival_time = arrival
    return requests


def build_cluster(
    n_replicas: int,
    policy: str,
    gpu: GpuSpec = A100,
    max_batch_size: int = MAX_BATCH,
    enable_prefix_cache: bool = True,
    disaggregated: bool = False,
    n_prefill_replicas: int = 1,
    interconnect: str = "nvlink",
    prefix_cache_budget_bytes: Optional[int] = None,
) -> ClusterEngine:
    """A Yi-6B replica fleet with the experiment's engine settings."""
    engine = EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=gpu,
        memory_backend="vattention",
        max_batch_size=max_batch_size,
        memory=MemoryConfig(
            enable_prefix_cache=enable_prefix_cache,
            prefix_cache_budget_bytes=prefix_cache_budget_bytes,
        ),
    )
    return ClusterEngine(
        ClusterConfig(
            engine=engine,
            n_replicas=n_replicas,
            routing_policy=policy,
            disaggregated=disaggregated,
            n_prefill_replicas=n_prefill_replicas,
            interconnect=interconnect,
        )
    )


def serve(
    n_replicas: int,
    policy: str,
    sharing_factor: int,
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> ClusterReport:
    """One routing-sweep cell: build, submit, run."""
    cluster = build_cluster(n_replicas, policy, gpu=gpu)
    cluster.submit(
        cluster_trace(count=count, sharing_factor=sharing_factor, qps=qps)
    )
    return cluster.run()


def run(
    replica_counts: Sequence[int] = REPLICA_COUNTS,
    policies: Sequence[str] = POLICIES,
    sharing_factors: Sequence[int] = SHARING_FACTORS,
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> List[ClusterRow]:
    """The replica x policy x sharing-factor routing sweep."""
    rows: List[ClusterRow] = []
    for sharing_factor in sharing_factors:
        for n_replicas in replica_counts:
            for policy in policies:
                report = serve(
                    n_replicas,
                    policy,
                    sharing_factor,
                    gpu=gpu,
                    count=count,
                    qps=qps,
                )
                rows.append(
                    ClusterRow(
                        n_replicas=n_replicas,
                        policy=policy,
                        sharing_factor=sharing_factor,
                        requests_per_minute=report.requests_per_minute(),
                        mean_ttft=report.mean_ttft(),
                        p99_ttft=report.p99_ttft(),
                        median_e2e=report.median_latency(),
                        cache_hit_rate=report.cache_hit_rate,
                        cache_hit_tokens=report.cache_hit_tokens,
                        requests_per_replica=report.requests_per_replica,
                    )
                )
    return rows


def run_disaggregated(
    interconnects: Sequence[str] = ("nvlink", "pcie"),
    n_replicas: int = 4,
    n_prefill_replicas: int = 2,
    sharing_factor: int = 8,
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> List[DisaggRow]:
    """Prefill/decode-split fleet across interconnects."""
    rows: List[DisaggRow] = []
    for interconnect in interconnects:
        cluster = build_cluster(
            n_replicas,
            "cache_aware",
            gpu=gpu,
            disaggregated=True,
            n_prefill_replicas=n_prefill_replicas,
            interconnect=interconnect,
        )
        cluster.submit(
            cluster_trace(count=count, sharing_factor=sharing_factor, qps=qps)
        )
        report = cluster.run()
        rows.append(
            DisaggRow(
                interconnect=interconnect,
                n_prefill=n_prefill_replicas,
                n_decode=n_replicas - n_prefill_replicas,
                migrations=report.migrations,
                migrated_bytes=report.migrated_bytes,
                migration_seconds=report.migration_seconds,
                mean_migration_wait=report.mean_migration_wait,
                mean_ttft=report.mean_ttft(),
                median_e2e=report.median_latency(),
                requests_per_minute=report.requests_per_minute(),
            )
        )
    return rows


def main() -> None:
    """Print both sweeps."""
    print(
        f"Cluster serving: {REQUESTS} shared-prefix requests "
        f"({PREFIX_TOKENS}-token system prompts, Yi-6B replicas, "
        f"batch {MAX_BATCH}, bursty arrivals ~{QPS} QPS)"
    )
    print("\nrouting sweep (replicas x policy x sharing factor):")
    for row in run():
        balance = "/".join(str(n) for n in row.requests_per_replica)
        print(
            f"  share x{row.sharing_factor:<2} {row.n_replicas} replicas "
            f"{row.policy:>24}: hit {row.cache_hit_rate:5.1%} | "
            f"TTFT {row.mean_ttft:6.3f}s (p99 {row.p99_ttft:6.3f}) | "
            f"e2e median {row.median_e2e:6.3f}s | "
            f"{row.requests_per_minute:6.1f} req/min | load {balance}"
        )
    print("\ndisaggregated prefill/decode (2 prefill + 2 decode replicas):")
    for row in run_disaggregated():
        print(
            f"  {row.interconnect:>6}: {row.migrations} migrations, "
            f"{row.migrated_bytes / GB:6.2f}GB moved in "
            f"{row.migration_seconds:6.3f}s link time "
            f"(mean queue wait {row.mean_migration_wait * 1e3:5.2f}ms) | "
            f"TTFT {row.mean_ttft:6.3f}s | e2e median {row.median_e2e:6.3f}s"
        )


if __name__ == "__main__":
    main()
