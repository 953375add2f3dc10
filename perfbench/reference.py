"""A fixed reference workload that gauges the machine's current speed.

On a shared machine the interpreter's speed drifts by up to 2x within
tens of seconds (neighbours, frequency changes), far more than any
program change worth gating. Each repetition times this loop just
before and just after its measured work, and scales its host times by
``REFERENCE_NOMINAL_S / measured``: a drift slows the loop and the
simulator alike and cancels, while a change to the program does not
touch the loop and shows in full.

The loop is pure Python in the shape of the simulator's hot paths: an
event heap, small slotted objects updated in place, dict lookups and
float arithmetic. It must never change: doing so rescales every host
time the benchmark has recorded.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one ``reference_seconds`` call takes at nominal speed (the
#: fast phase of the 2-core machine the benchmark was defined on).
REFERENCE_NOMINAL_S = 0.40
#: Runs of the loop per reading.
SAMPLES = 3
EVENTS = 6_000


class _Job:
    __slots__ = ("context", "left", "acc")

    def __init__(self, context: int, left: int) -> None:
        self.context = context
        self.left = left
        self.acc = 0.0


def _event_loop(events: int) -> float:
    heap = []
    jobs = {}
    now = 0.0
    for i in range(events):
        jobs[i] = _Job(100 + (i * 7919) % 2000, 1 + (i * 31) % 64)
        heapq.heappush(heap, (now + (i % 97) * 0.001, i))
        while len(heap) > 64:
            now, key = heapq.heappop(heap)
            job = jobs[key]
            job.context += 1
            job.left -= 1
            job.acc += 0.5 * job.context / (job.left + 1.0)
            if job.left > 0:
                heapq.heappush(heap, (now + 0.013 * (1 + job.context % 5), key))
            else:
                del jobs[key]
    return now


def reference_seconds() -> float:
    """Seconds ``SAMPLES`` runs of the loop take, on this machine, now."""
    started = time.perf_counter()
    for _ in range(SAMPLES):
        _event_loop(EVENTS)
    return time.perf_counter() - started
