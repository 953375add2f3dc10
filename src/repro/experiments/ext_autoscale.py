"""Extension: elastic cluster autoscaling under bursty traffic.

PR 2's cluster served a *fixed* replica fleet; this experiment asks
what the fleet size should be when traffic is bursty — the on/off MMPP
regime of :func:`~repro.workloads.arrival.bursty_arrivals`, where the
ON-state arrival rate is ``burst_factor`` times the long-run average.
Static provisioning faces a dilemma:

* **Provision for the burst** (``static_max``): the p99 TTFT objective
  holds trivially, but most replica-seconds are spent idling through
  the OFF dwells — the fleet is sized for a rate it sees a quarter of
  the time.
* **Provision for the average** (``static_min``): cheap, but every
  burst melts the tail — the SLO is unattainable at any price the
  lulls refund.

Elastic policies (:mod:`repro.cluster.autoscaler`) escape the dilemma
by moving the fleet inside ``[min_replicas, max_replicas]``:
``queue_depth`` reacts to the outstanding-token backlog, ``sla``
closes the loop on the rolling p99 TTFT itself (with a backlog guard
for the burst-onset blind spot, before any completion has exposed the
tail). Scale-ups pay a cold-start + warm-up delay before the router
sees the new replica; scale-downs drain gracefully, with queued work
re-routed and its cached prefix KV migrated over the interconnect.

The acceptance bar (enforced by ``benchmarks/bench_ext_autoscale.py``):
the ``sla`` policy must meet the p99 TTFT objective that ``static_max``
meets, using at least 25% fewer replica-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..cluster import ClusterConfig, ClusterEngine, ClusterReport
from ..gpu.spec import A100, GpuSpec
from ..memory import MemoryConfig
from ..models.shard import ShardedModel
from ..models.zoo import YI_6B
from ..serving.engine import EngineConfig
from .ext_cluster_router import cluster_trace

REQUESTS = 640
PREFIX_TOKENS = 4_096
SHARING_FACTOR = 8
MAX_BATCH = 8
QPS = 2.0

#: The p99 time-to-first-token objective every fleet is judged on.
SLO_TTFT = 8.0

MIN_REPLICAS = 2
MAX_REPLICAS = 6
COLD_START_SECONDS = 2.0
WARMUP_SECONDS = 1.0
SCALE_DECIDE_INTERVAL = 0.5
SLO_WINDOW_SECONDS = 20.0
DRAIN_MARGIN = 0.25
BACKLOG_GUARD_TOKENS = 24_576
QUEUE_HIGH_WATERMARK = 24_576
QUEUE_LOW_WATERMARK = 4_096

#: Fleet shapes swept: name -> (autoscaler, initial, min, max).
FLEETS: Dict[str, Tuple[str, int, int, int]] = {
    "static_max": ("static", MAX_REPLICAS, MAX_REPLICAS, MAX_REPLICAS),
    "static_min": ("static", MIN_REPLICAS, MIN_REPLICAS, MIN_REPLICAS),
    "queue_depth": ("queue_depth", MIN_REPLICAS, MIN_REPLICAS, MAX_REPLICAS),
    "sla": ("sla", MIN_REPLICAS, MIN_REPLICAS, MAX_REPLICAS),
}


@dataclass(frozen=True)
class AutoscaleRow:
    """One fleet shape's outcome under the bursty trace."""

    fleet: str
    autoscaler: str
    initial_replicas: int
    min_replicas: int
    max_replicas: int
    #: Paid replica-time (provision -> retire, or run end).
    replica_seconds: float
    p99_ttft: float
    mean_ttft: float
    #: Whole-run fraction of requests meeting :data:`SLO_TTFT`.
    slo_attainment: float
    requests_per_minute: float
    scale_ups: int
    drains: int
    peak_serving: int
    makespan: float


def build_fleet(
    fleet: str,
    gpu: GpuSpec = A100,
    max_batch_size: int = MAX_BATCH,
) -> ClusterEngine:
    """A Yi-6B fleet of the named shape (:data:`FLEETS`)."""
    autoscaler, initial, low, high = FLEETS[fleet]
    engine = EngineConfig(
        shard=ShardedModel(YI_6B, 1),
        gpu=gpu,
        memory_backend="vattention",
        max_batch_size=max_batch_size,
        memory=MemoryConfig(enable_prefix_cache=True),
    )
    return ClusterEngine(
        ClusterConfig(
            engine=engine,
            n_replicas=initial,
            routing_policy="least_outstanding_tokens",
            autoscaler=autoscaler,
            min_replicas=low,
            max_replicas=high,
            cold_start_seconds=COLD_START_SECONDS,
            warmup_seconds=WARMUP_SECONDS,
            scale_decide_interval=SCALE_DECIDE_INTERVAL,
            slo_ttft=SLO_TTFT,
            slo_window_seconds=SLO_WINDOW_SECONDS,
            drain_margin=DRAIN_MARGIN,
            backlog_guard_tokens=BACKLOG_GUARD_TOKENS,
            queue_high_watermark=QUEUE_HIGH_WATERMARK,
            queue_low_watermark=QUEUE_LOW_WATERMARK,
            label=fleet,
        )
    )


def serve(
    fleet: str,
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> ClusterReport:
    """Run one fleet shape over the shared bursty trace."""
    cluster = build_fleet(fleet, gpu=gpu)
    cluster.submit(
        cluster_trace(
            count=count,
            sharing_factor=SHARING_FACTOR,
            prefix_tokens=PREFIX_TOKENS,
            qps=qps,
        )
    )
    return cluster.run()


def _row(fleet: str, report: ClusterReport) -> AutoscaleRow:
    autoscaler, initial, low, high = FLEETS[fleet]
    return AutoscaleRow(
        fleet=fleet,
        autoscaler=autoscaler,
        initial_replicas=initial,
        min_replicas=low,
        max_replicas=high,
        replica_seconds=report.replica_seconds,
        p99_ttft=report.p99_ttft(),
        mean_ttft=report.mean_ttft(),
        slo_attainment=report.ttft_attainment(SLO_TTFT),
        requests_per_minute=report.requests_per_minute(),
        scale_ups=report.scale_up_count,
        drains=report.drain_count,
        peak_serving=report.peak_serving_replicas,
        makespan=report.makespan,
    )


def run(
    fleets: Sequence[str] = tuple(FLEETS),
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> List[AutoscaleRow]:
    """The fleet-shape sweep over the shared bursty trace."""
    rows, _ = run_with_reports(fleets, gpu=gpu, count=count, qps=qps)
    return rows


def run_with_reports(
    fleets: Sequence[str] = tuple(FLEETS),
    gpu: GpuSpec = A100,
    count: int = REQUESTS,
    qps: float = QPS,
) -> Tuple[List[AutoscaleRow], Dict[str, ClusterReport]]:
    """The sweep plus each fleet's full :class:`ClusterReport`.

    The benchmark wrapper embeds the reports (via
    :meth:`ClusterReport.to_json`) next to the summary rows.
    """
    reports = {
        fleet: serve(fleet, gpu=gpu, count=count, qps=qps)
        for fleet in fleets
    }
    rows = [_row(fleet, reports[fleet]) for fleet in fleets]
    return rows, reports


def replica_second_savings(
    rows: Sequence[AutoscaleRow], fleet: str = "sla"
) -> float:
    """Fractional replica-seconds saved by ``fleet`` vs static_max."""
    by_fleet = {row.fleet: row for row in rows}
    baseline = by_fleet["static_max"].replica_seconds
    return 1.0 - by_fleet[fleet].replica_seconds / baseline


def main() -> None:
    """Print the sweep and one elastic run's scale timeline."""
    print(
        f"Elastic autoscaling: {REQUESTS} shared-prefix requests "
        f"({PREFIX_TOKENS}-token system prompts, Yi-6B replicas, "
        f"batch {MAX_BATCH}) under bursty ~{QPS} QPS; "
        f"p99 TTFT SLO {SLO_TTFT:.0f}s"
    )
    print(
        f"fleet bounds [{MIN_REPLICAS}, {MAX_REPLICAS}], cold start "
        f"{COLD_START_SECONDS:.0f}s + warm-up {WARMUP_SECONDS:.0f}s, "
        f"decisions every {SCALE_DECIDE_INTERVAL}s\n"
    )
    rows = run()
    by_fleet = {row.fleet: row for row in rows}
    for row in rows:
        meets = "meets" if row.p99_ttft <= SLO_TTFT else "MISSES"
        print(
            f"  {row.fleet:>11}: {row.replica_seconds:7.1f} replica-s | "
            f"p99 TTFT {row.p99_ttft:6.2f}s ({meets} SLO, "
            f"attainment {row.slo_attainment:5.1%}) | "
            f"mean {row.mean_ttft:5.2f}s | "
            f"+{row.scale_ups}/-{row.drains} scale events | "
            f"peak {row.peak_serving}"
        )
    for fleet in ("queue_depth", "sla"):
        savings = replica_second_savings(rows, fleet)
        print(
            f"\n  {fleet} vs static_max: {savings:.1%} fewer "
            f"replica-seconds"
            + (
                f" at p99 {by_fleet[fleet].p99_ttft:.2f}s"
                f" <= {SLO_TTFT:.0f}s SLO"
                if by_fleet[fleet].p99_ttft <= SLO_TTFT
                else " (SLO missed)"
            )
        )
    report = serve("sla")
    print("\n  sla scale timeline (time, action, replica, serving-after):")
    for event in report.scale_events:
        reason = f"  [{event.reason}]" if event.reason else ""
        print(
            f"    {event.time:7.2f}s {event.action:>9} "
            f"r{event.replica} -> {event.n_serving} serving{reason}"
        )


if __name__ == "__main__":
    main()
