"""Golden-report scenarios proving the FCFS policy refactor is inert.

The scheduling subsystem (``repro.scheduling``) replaced the engine's
inline FCFS decisions with a pluggable policy. The contract of that
refactor is *byte identity*: with the default ``scheduler_policy="fcfs"``
an engine run must reproduce the pre-refactor engine's clock arithmetic
exactly — same iteration sequence, same latencies, same request
timestamps, down to the float repr.

``tests/golden/fcfs_reports.json`` was captured by running this module
standalone at the commit *before* the refactor::

    PYTHONPATH=src:tests python tests/fcfs_golden.py

and :mod:`tests.test_sched_policy` re-runs every scenario on the current
code and compares canonical serializations byte-for-byte. Regenerate the
golden only for a deliberate, understood behaviour change.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics.collector import RunReport
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.arrival import bursty_arrivals, poisson_arrivals
from repro.workloads.traces import fixed_trace, shared_prefix_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "fcfs_reports.json"
)


def _base_config(**overrides) -> EngineConfig:
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _monolithic(**config) -> RunReport:
    """Plain vAttention FCFS serving under Poisson arrivals."""
    engine = LLMEngine(_base_config(**config))
    trace = fixed_trace(
        count=12,
        prompt_len=3_000,
        max_new_tokens=40,
        arrivals=poisson_arrivals(qps=2.0, count=12, seed=71),
    )
    engine.submit(trace)
    return engine.run()


def _chunked(**config) -> RunReport:
    """FCFS with Sarathi-style chunking through the legacy config knob."""
    engine = LLMEngine(_base_config(prefill_chunk_size=2_048, **config))
    trace = fixed_trace(
        count=6,
        prompt_len=9_000,
        max_new_tokens=64,
        arrivals=bursty_arrivals(qps=2.0, count=6, seed=23),
    )
    engine.submit(trace)
    return engine.run()


def _paged(**config) -> RunReport:
    """FCFS on the PagedAttention backend (paged kernels)."""
    engine = LLMEngine(
        _base_config(
            memory_backend="paged",
            prefill_kernel="fa2_paged",
            decode_kernel="fa2_paged",
            block_size=256,
            **config,
        )
    )
    trace = fixed_trace(
        count=8,
        prompt_len=4_000,
        max_new_tokens=32,
        arrivals=poisson_arrivals(qps=3.0, count=8, seed=5),
    )
    engine.submit(trace)
    return engine.run()


def _prefix_cached(**config) -> RunReport:
    """FCFS with the radix prefix cache on a shared-prefix trace."""
    engine = LLMEngine(_base_config(
        memory=MemoryConfig(enable_prefix_cache=True), **config
    ))
    trace = shared_prefix_trace(
        count=16,
        sharing_factor=4,
        prefix_tokens=2_048,
        seed=913,
        arrivals=poisson_arrivals(qps=2.5, count=16, seed=41),
    )
    engine.submit(trace)
    return engine.run()


def _preempting(**config) -> RunReport:
    """FCFS under memory pressure: preemptions and re-admissions."""
    from repro.units import GB

    engine = LLMEngine(
        _base_config(max_batch_size=6, kv_budget_bytes=1 * GB, **config)
    )
    trace = fixed_trace(
        count=8,
        prompt_len=8_000,
        max_new_tokens=800,
        arrivals=poisson_arrivals(qps=4.0, count=8, seed=19),
    )
    engine.submit(trace)
    return engine.run()


#: Scenario name -> runner returning a RunReport. Runners forward
#: keyword overrides into the EngineConfig; the golden file captures
#: the legacy per-iteration loop, so byte-identity tests run them with
#: ``fast_forward=False`` while the equivalence tests run the same
#: scenarios with ``fast_forward=True`` and compare against the same
#: golden through :func:`summarize`.
SCENARIOS = {
    "monolithic_vattention": _monolithic,
    "chunked_prefill": _chunked,
    "paged_backend": _paged,
    "prefix_cache": _prefix_cached,
    "memory_pressure": _preempting,
}


def canonicalize(report: RunReport) -> Dict:
    """Byte-stable serialization of everything timing-derived.

    Floats go through ``repr`` (shortest round-trip form), so two runs
    match iff every simulated timestamp matches exactly.
    """

    def num(value):
        return None if value is None else repr(float(value))

    requests: List[Dict] = []
    for request in report.requests:
        requests.append(
            {
                "id": request.request_id,
                "arrival": num(request.arrival_time),
                "admitted": num(request.admitted_time),
                "first_token": num(request.first_token_time),
                "finish": num(request.finish_time),
                "generated": request.generated,
                "prompt_len": request.prompt_len,
                "preemptions": request.preemptions,
                "cached_prefix_tokens": request.cached_prefix_tokens,
                "state": request.state.value,
            }
        )
    iterations: List[Dict] = []
    for record in report.metrics.iterations:
        entry = {
            "start": num(record.start_time),
            "phase": record.phase,
            "batch": record.batch_size,
            "latency": num(record.latency),
            "alloc_sync": num(record.alloc_sync),
            "tokens": record.tokens,
        }
        # Only fast-forwarded stretches carry these keys, so legacy-loop
        # canonicalizations stay byte-compatible with the stored golden.
        if record.iterations != 1:
            entry["iterations"] = record.iterations
            entry["latencies"] = [num(lat) for lat in record.iteration_latencies]
        iterations.append(entry)
    return {
        "start": num(report.start_time),
        "end": num(report.end_time),
        "requests": requests,
        "iterations": iterations,
    }


def summarize(canonical: Dict) -> Dict:
    """Reduce a canonical report to its grouping-invariant content.

    Everything here must be *identical* between a legacy per-iteration
    run and a fast-forwarded run of the same scenario: the full
    request-level timing data, the report window, and per-phase totals.
    Latency sums expand fast-forwarded stretches to their per-iteration
    values and accumulate left-to-right in record order — the identical
    float additions of the per-iteration path — so the totals match
    bit-for-bit, not approximately.
    """
    phases: Dict[str, Dict] = {}
    for record in canonical["iterations"]:
        totals = phases.setdefault(
            record["phase"],
            {"latency": 0.0, "alloc_sync": 0.0, "tokens": 0, "iterations": 0},
        )
        for latency in record.get("latencies", [record["latency"]]):
            totals["latency"] += float(latency)
        totals["alloc_sync"] += float(record["alloc_sync"])
        totals["tokens"] += record["tokens"]
        totals["iterations"] += record.get("iterations", 1)
    for totals in phases.values():
        totals["latency"] = repr(totals["latency"])
        totals["alloc_sync"] = repr(totals["alloc_sync"])
    return {
        "start": canonical["start"],
        "end": canonical["end"],
        "requests": canonical["requests"],
        "phases": phases,
    }


def iteration_series(canonical: Dict) -> List:
    """Expand a canonical report to one (phase, latency) per iteration.

    Fast-forwarded stretches expand through their stored per-iteration
    latencies, so a fast run's series must equal the legacy run's
    entry for entry — the strictest grouping-invariant comparison.
    """
    series: List = []
    for record in canonical["iterations"]:
        for latency in record.get("latencies", [record["latency"]]):
            series.append((record["phase"], latency))
    return series


def capture() -> Dict[str, Dict]:
    """Run every scenario on the legacy loop and canonicalize it."""
    return {
        name: canonicalize(run(fast_forward=False))
        for name, run in SCENARIOS.items()
    }


def main() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    payload = capture()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(len(s["iterations"]) for s in payload.values())
    print(f"wrote {GOLDEN_PATH}: {len(payload)} scenarios, "
          f"{total} iterations")


if __name__ == "__main__":
    main()
