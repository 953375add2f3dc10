"""Per-layer metrics of a traced repetition.

Names are ``<layer>.<metric>``. Counters come from the tracer's call
counts and from the counters the program already keeps (read from the
instances constructed during the run); they are deterministic and must
repeat exactly. The metrics in ``HOST_TIMES`` are host seconds (self
time, except the inclusive ``cluster.route_s`` and ``core.step_s``);
the other ``_s`` metrics are simulated seconds.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.stats import percentile

from layertrace import Tracer


#: Host-time metrics; every other per-layer metric is deterministic.
HOST_TIMES = frozenset({
    "workloads.gen_s", "cluster.self_s", "cluster.route_s", "sim.s",
    "serving.self_s", "scheduling.s", "serving.memory.s", "core.step_s",
    "core.s", "memory.s", "paged.s", "cache.s", "kernels.s",
    "metrics.hook_s", "metrics.tracecheck_s", "metrics.report_s",
})


def _sum_attr(instances, path: str):
    total = 0
    for instance in instances:
        value = instance
        for name in path.split("."):
            value = getattr(value, name, None)
        total += value or 0
    return total


def layer_metrics(tracer: Tracer, result: Dict) -> Dict[str, float]:
    items = result["_items"]
    report = result["_report"]
    submitted = len(items)
    calls = tracer.calls
    self_s = tracer.self_s
    inst = tracer.instances

    engines = inst["LLMEngine.__init__"]
    records = [rec for e in engines for rec in e.metrics.iterations]
    iterations = sum(rec.iterations for rec in records)
    batch_iterations = sum(rec.batch_size * rec.iterations for rec in records)
    waits = [
        tracer.first_admitted.get(i.request.request_id, i.request.admitted_time)
        - i.request.arrival_time
        for i in items
        if i.request.admitted_time is not None
    ]
    prepares = calls["DecodeFastForwarder.prepare"]
    finishes = calls["DecodeFastForwarder.finish"]
    prompt_tokens = sum(i.prompt_len for i in items)
    cached_tokens = sum(i.request.cached_prefix_tokens for i in items)
    vattention = inst["VAttention.__init__"]
    caches = inst["PrefixCacheManager.__init__"]
    paged_caches = [
        c for c in caches if type(c.adapter).__name__ == "PagedCacheAdapter"
    ]
    tiers = inst["CpuKvTier.__init__"]

    return {
        "workloads.gen_s": result["gen_s"],
        "cluster.self_s": self_s["cluster"],
        "cluster.route_calls": calls["RoutingPolicy.select"],
        "cluster.route_s": tracer.total_s["RoutingPolicy.select"],
        "cluster.state_probes": tracer.count(
            "ReplicaView.outstanding_tokens", "ReplicaView.probe_prefix"
        ),
        "cluster.scale_decides": calls["AutoscalerPolicy.decide"],
        "cluster.scale_events": len(getattr(report, "scale_events", ())),
        "sim.prepare_calls": prepares,
        "sim.finish_calls": finishes,
        "sim.prepare_yield": finishes / prepares if prepares else 0.0,
        "sim.ff_iteration_share": (
            tracer.result_sum["DecodeFastForwarder.finish"] / iterations
            if iterations
            else 0.0
        ),
        "sim.oracle_builds": calls["StretchOracle.build"],
        "sim.fleet_sweeps": calls["FleetStretchExecutor.sweep"],
        "sim.fleet_stacked": tracer.stacked["DecodeFastForwarder.finish"],
        "sim.s": self_s["sim"],
        "serving.self_s": self_s["serving"],
        "serving.entry_calls": tracer.count(
            "LLMEngine.run", "LLMEngine.run_until",
            "LLMEngine.begin_steady_stretch",
        ),
        "serving.iterations": iterations,
        "serving.records": len(records),
        "serving.queue_wait_p50_s": percentile(waits, 50.0),
        "serving.queue_wait_p99_s": percentile(waits, 99.0),
        "serving.queue_wait_samples": len(waits),
        "serving.preempted_share": (
            sum(1 for i in items if i.request.preemptions) / submitted
        ),
        "serving.batch_mean": (
            batch_iterations / iterations if iterations else 0.0
        ),
        "scheduling.calls": tracer.layer_total("scheduling"),
        "scheduling.s": self_s["scheduling"],
        "serving.memory.plan_calls": tracer.count(
            "VAttentionMemory.decode_fast_path", "PagedMemory.decode_fast_path"
        ),
        "serving.memory.plans_built": (
            len(inst["_VattentionDecodePlan.__init__"])
            + len(inst["_PagedDecodePlan.__init__"])
        ),
        "serving.memory.prepare_fail": (
            tracer.false_results["VAttentionMemory.prepare_iteration"]
            + tracer.false_results["PagedMemory.prepare_iteration"]
        ),
        "serving.memory.s": self_s["serving.memory"],
        "core.step_calls": calls["VAttention.step"],
        "core.step_s": tracer.total_s["VAttention.step"],
        "core.s": self_s["core"],
        "core.map_calls": _sum_attr(vattention, "stats.map_calls"),
        "core.unmap_calls": _sum_attr(vattention, "stats.unmap_calls"),
        "core.rows_mapped": _sum_attr(vattention, "stats.rows_mapped"),
        "core.step_failures": _sum_attr(vattention, "stats.step_failures"),
        "core.sync_alloc_sim_s": _sum_attr(
            vattention, "stats.sync_alloc_seconds"
        ),
        "memory.s": self_s["memory"],
        "memory.evictions": calls["MemoryManager.evict"],
        "memory.tier_out_bytes": _sum_attr(tiers, "stats.bytes_out"),
        "memory.tier_in_bytes": _sum_attr(tiers, "stats.bytes_in"),
        "paged.calls": tracer.layer_total("paged"),
        "paged.s": self_s["paged"],
        "paged.shared_blocks": _sum_attr(paged_caches, "stats.aliased_rows"),
        "cache.match_calls": calls["RadixTree.match_prefix"],
        "cache.probe_calls": calls["PrefixCacheManager.probe_prefix_tokens"],
        "cache.s": self_s["cache"],
        "cache.hit_token_share": (
            cached_tokens / prompt_tokens if prompt_tokens else 0.0
        ),
        "cache.evictions": _sum_attr(caches, "stats.evictions"),
        "kernels.calls": tracer.layer_total("kernels"),
        "kernels.s": self_s["kernels"],
        "kernels.prefill_sim_s": tracer.result_sum[
            "AttentionKernel._prefill_time"
        ],
        "kernels.decode_sim_s": (
            tracer.result_sum["AttentionKernel._decode_time_total"]
            + tracer.result_sum["AttentionKernel._decode_time_total_series"]
        ),
        "metrics.records_per_request": result.get("records", 0) / submitted,
        "metrics.hook_s": self_s["metrics"],
        "metrics.tracecheck_s": result.get("tracecheck_s", 0.0),
        "metrics.report_s": self_s["metrics.report"],
    }
