"""One repetition of one workload: set up, run, check, measure.

A repetition runs in a process of its own (``run.py`` starts one per
repetition), so peak RSS and the program's process-wide caches never
carry over from an earlier repetition or workload.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.stats import percentile
from repro.metrics.tracecheck import check_trace
from repro.serving.request import Request

from workloads import TPOT_LIMIT_S, Workload

#: Set-ups per repetition; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Submitted:
    """A request as generated, before the run mutates it."""

    request: Request
    prompt_len: int
    max_new_tokens: int


def snapshot(requests: Sequence[Request]) -> List[Submitted]:
    return [Submitted(r, r.prompt_len, r.max_new_tokens) for r in requests]


def digest(requests: Sequence[Request]) -> str:
    """Hash of every request's first-token and finish times."""
    sha = hashlib.sha256()
    for request in sorted(requests, key=lambda r: r.request_id):
        sha.update(
            f"{request.request_id}:{request.first_token_time!r}:"
            f"{request.finish_time!r}\n".encode()
        )
    return sha.hexdigest()[:16]


def check_request(item: Submitted) -> Optional[str]:
    """Why ``item`` failed its output check, or ``None``.

    A request must finish with every token it asked for, and its times
    must be ordered. A preempted request is admitted again after its
    first token, and ``admitted_time`` holds the last admission, so for
    it the admission is only required to fall between arrival and
    finish.
    """
    r = item.request
    if not r.is_finished or r.finish_time is None:
        return "not finished"
    if r.generated != r.max_new_tokens:
        return f"generated {r.generated} of {r.max_new_tokens}"
    if r.prompt_len + r.generated != item.prompt_len + item.max_new_tokens:
        return "output length differs from the request"
    if r.admitted_time is None or r.first_token_time is None:
        return "missing admission or first-token time"
    if not r.arrival_time <= r.first_token_time <= r.finish_time:
        return "first token outside arrival..finish"
    if not r.arrival_time <= r.admitted_time <= r.finish_time:
        return "admission outside arrival..finish"
    if r.preemptions == 0 and r.admitted_time > r.first_token_time:
        return "admitted after its first token"
    return None


def tpot(request: Request) -> Optional[float]:
    """Per-request mean seconds per output token after the first."""
    if request.generated <= 1:
        return None
    return (request.finish_time - request.first_token_time) / (
        request.generated - 1
    )


def _pct(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def sim_metrics(
    workload: Workload, items: Sequence[Submitted], failed: set, report
) -> Dict[str, float]:
    """The simulated end-to-end metrics of one finished run."""
    ok = [i.request for i in items if i.request.request_id not in failed]
    ttfts = [r.first_token_time - r.arrival_time for r in ok]
    tpots = [t for t in map(tpot, ok) if t is not None]
    met = sum(
        1
        for r in ok
        if r.first_token_time - r.arrival_time <= workload.ttft_limit_s
        and (tpot(r) or 0.0) <= TPOT_LIMIT_S
    )
    # A static fleet's paid time is n_replicas x makespan; a single
    # engine's is its makespan.
    paid = getattr(report, "replica_seconds", 0.0) or report.makespan
    return {
        "ttft_p50_s": _pct(ttfts, 50.0),
        "ttft_p99_s": _pct(ttfts, 99.0),
        "ttft_samples": len(ttfts),
        "tpot_p50_ms": _pct(tpots, 50.0) * 1e3,
        "tpot_p99_ms": _pct(tpots, 99.0) * 1e3,
        "tpot_samples": len(tpots),
        "slo_attainment": met / len(items),
        "gpu_s_per_request": paid / max(1, len(ok)),
        "failed_share": len(failed) / len(items),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload: Workload, seed: int, count: Optional[int]):
    """Generate the requests and build the system; returns both and the
    seconds generation took."""
    started = time.perf_counter()
    requests = workload.generate(seed, count)
    generated = time.perf_counter()
    system = workload.system()
    return requests, system, generated - started


def run_once(
    workload: Workload,
    seed: int,
    count: Optional[int] = None,
    tracer=None,
    setup_repeats: int = SETUP_REPEATS,
    gauge: Optional[Callable[[], float]] = None,
) -> Dict:
    """Set up ``setup_repeats`` times, run the last set-up, check it.

    ``tracer`` (a :class:`layertrace.Tracer`) is installed around the
    final set-up and the run when given. ``gauge`` (a machine-speed
    reading, see reference.py) is taken before the set-ups, between
    them and the run, and after the run; the result carries the mean
    reading around each phase as ``gauge_setup`` and ``gauge_run``.
    """
    readings = [gauge()] if gauge is not None else []
    setups: List[float] = []
    for _ in range(setup_repeats - 1):
        with workload.telemetry():
            started = time.perf_counter()
            set_up(workload, seed, count)
            setups.append(time.perf_counter() - started)
    with workload.telemetry() as registry:
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            requests, system, gen_s = set_up(workload, seed, count)
            setups.append(time.perf_counter() - started)
            items = snapshot(requests)
            system.submit(requests)
            if gauge is not None:
                readings.append(gauge())
            started = time.perf_counter()
            report = system.run()
            run_s = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
    if gauge is not None:
        readings.append(gauge())
    failures = {}
    for item in items:
        reason = check_request(item)
        if reason is not None:
            failures[item.request.request_id] = reason
    result = {
        "workload": workload.name,
        "seed": seed,
        "submitted": len(items),
        "setup_s": statistics.median(setups),
        "gen_s": gen_s,
        "run_s": run_s,
        "host_us_per_request": run_s / len(items) * 1e6,
        "digest": digest(requests),
        "failures": dict(list(failures.items())[:5]),
    }
    if readings:
        result["gauge_setup"] = (readings[0] + readings[1]) / 2
        result["gauge_run"] = (readings[1] + readings[2]) / 2
    if registry is not None:
        started = time.perf_counter()
        records = registry.trace_records()
        violations = check_trace(records)
        result["tracecheck_s"] = time.perf_counter() - started
        result["records"] = len(records)
        result["trace_violations"] = [str(v) for v in violations[:5]]
        for violation in violations:
            failures.setdefault(
                str(getattr(violation, "request", None) or violation),
                "trace violation",
            )
    result["failed"] = len(failures)
    result["sim"] = sim_metrics(workload, items, set(failures), report)
    result["peak_rss_mb"] = peak_rss_mb()
    result["_items"] = items
    result["_report"] = report
    return result
