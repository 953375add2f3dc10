"""Unit coverage of the event-driven simulation core (repro.sim)."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.gpu.clock import SimClock
from repro.gpu.spec import A100
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.scheduling import make_scheduler_policy
from repro.scheduling.base import SchedulerPolicy, SchedulingView
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request, RequestState
from repro.sim.events import EventKind, EventQueue
from repro.workloads.traces import fixed_trace


def make_engine(**overrides):
    defaults = dict(
        shard=ShardedModel(YI_6B, 1),
        gpu=A100,
        memory_backend="vattention",
        max_batch_size=8,
    )
    defaults.update(overrides)
    return LLMEngine(EngineConfig(**defaults))


def view():
    return SchedulingView(
        now=0.0,
        max_batch_size=8,
        prefill_chunk_size=None,
        cached_prefix_tokens=lambda r: 0,
    )


def running(rid, prefill_done=True):
    request = Request(request_id=rid, prompt_len=100, max_new_tokens=10)
    request.state = RequestState.RUNNING
    if prefill_done:
        request.record_prefill(now=0.0)
    return request


# ----------------------------------------------------------------------
class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.ARRIVAL, "c")
        queue.push(1.0, EventKind.MIGRATION, "a")
        queue.push(2.0, EventKind.ARRIVAL, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_arrivals_dispatch_before_migrations_at_ties(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.MIGRATION, "m")
        queue.push(5.0, EventKind.ARRIVAL, "a")
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "m"

    def test_equal_events_keep_insertion_order(self):
        queue = EventQueue()
        for tag in ("first", "second", "third"):
            queue.push(1.0, EventKind.ARRIVAL, tag)
        assert [e.payload for e in queue.pop_due(1.0)] == [
            "first", "second", "third",
        ]

    def test_pop_due_and_peek(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, 1)
        queue.push(2.0, EventKind.ARRIVAL, 2)
        queue.push(3.0, EventKind.ARRIVAL, 3)
        assert queue.peek().time == 1.0
        assert [e.payload for e in queue.pop_due(2.0)] == [1, 2]
        assert len(queue) == 1

    def test_next_time_by_kind(self):
        queue = EventQueue()
        assert queue.next_time() == math.inf
        queue.push(4.0, EventKind.MIGRATION)
        queue.push(6.0, EventKind.ARRIVAL)
        assert queue.next_time() == 4.0
        assert queue.next_time(EventKind.ARRIVAL) == 6.0
        assert queue.next_time(EventKind.MIGRATION) == 4.0


# ----------------------------------------------------------------------
class TestClockJump:
    def test_jump_lands_exactly(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.jump_to(2.5)
        assert clock.now == 2.5

    def test_jump_backwards_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.jump_to(4.0)

    def test_observers_see_one_notification(self):
        clock = SimClock()
        seen = []
        clock.subscribe(lambda old, new: seen.append((old, new)))
        clock.jump_to(3.0)
        assert seen == [(0.0, 3.0)]


# ----------------------------------------------------------------------
class TestStableDecodeHorizon:
    @pytest.mark.parametrize("name", ["fcfs", "sla", "hybrid"])
    def test_unbounded_when_all_decoding(self, name):
        policy = make_scheduler_policy(name)
        batch = [running("a"), running("b")]
        assert policy.stable_decode_horizon(batch, view()) == math.inf

    @pytest.mark.parametrize("name", ["fcfs", "sla", "hybrid"])
    def test_zero_with_pending_prefill(self, name):
        policy = make_scheduler_policy(name)
        batch = [running("a"), running("b", prefill_done=False)]
        assert policy.stable_decode_horizon(batch, view()) == 0

    def test_base_default_is_conservative(self):
        class Custom(SchedulerPolicy):
            name = "custom"

            def next_admission(self, waiting, v):
                return waiting[0] if waiting else None

            def plan_iteration(self, batch, v):
                raise AssertionError("unused")

        assert Custom().stable_decode_horizon([running("a")], view()) == 0


# ----------------------------------------------------------------------
class TestFastForwardedRecords:
    def test_stretch_emits_one_aggregated_record(self):
        engine = make_engine()
        engine.submit(fixed_trace(count=2, prompt_len=1_000, max_new_tokens=30))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        assert len(decode) == 1
        (stretch,) = decode
        assert stretch.iterations == 29  # prefill produced token #1
        assert stretch.tokens == 29 * 2
        assert stretch.batch_size == 2
        assert stretch.alloc_sync == 0.0
        assert report.metrics.iteration_count("decode") == 29

    def test_fast_forward_off_keeps_per_iteration_records(self):
        engine = make_engine(fast_forward=False)
        engine.submit(fixed_trace(count=2, prompt_len=1_000, max_new_tokens=30))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        assert len(decode) == 29
        assert all(r.iterations == 1 for r in decode)

    def test_stretch_ends_at_earliest_completion(self):
        engine = make_engine()
        short = fixed_trace(count=1, prompt_len=1_000, max_new_tokens=10,
                            name="short")
        long = fixed_trace(count=1, prompt_len=1_000, max_new_tokens=40,
                           name="long")
        engine.submit(short + long)
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        # First stretch runs at batch 2 until the short request's final
        # token, later stretches at batch 1; batch size never mixes
        # within a record.
        assert decode[0].batch_size == 2
        assert decode[0].iterations == 9
        assert all(r.batch_size == 1 for r in decode[1:])
        assert report.metrics.iteration_count("decode") == 9 + 30

    def test_custom_policy_disables_fast_path(self):
        # A policy without a stable_decode_horizon override must never
        # be fast-forwarded, even on a steady decode batch.
        from repro.scheduling import SCHEDULER_POLICIES
        from repro.scheduling.fcfs import FcfsPolicy

        class Opaque(FcfsPolicy):
            name = "opaque"

            def stable_decode_horizon(self, batch, v):
                return SchedulerPolicy.stable_decode_horizon(self, batch, v)

        engine = make_engine()
        engine.scheduler = Opaque()
        assert "opaque" not in SCHEDULER_POLICIES
        engine.submit(fixed_trace(count=1, prompt_len=1_000, max_new_tokens=16))
        report = engine.run()
        assert all(r.iterations == 1 for r in report.metrics.iterations)

    def test_uvm_stretch_breaks_at_page_faults(self):
        # UVM faults are synchronous: iterations that materialize pages
        # must run on the per-iteration path (alloc latency on the
        # clock), with fast stretches only in between.
        engine = make_engine(memory_backend="uvm", max_batch_size=4)
        engine.submit(fixed_trace(count=1, prompt_len=4_000, max_new_tokens=3_000))
        report = engine.run()
        decode = report.metrics.of_phase("decode")
        stretches = [r for r in decode if r.iterations > 1]
        singles = [r for r in decode if r.iterations == 1]
        assert stretches, "steady spans should aggregate"
        assert singles, "fault iterations must stay individual"
        assert all(r.alloc_sync == 0.0 for r in stretches)


# ----------------------------------------------------------------------
class TestStretchSeries:
    @staticmethod
    def staged():
        """A Paged engine's first steady stretch, staged but not run."""
        engine = make_engine(
            memory_backend="paged",
            prefill_kernel="fa2_paged",
            decode_kernel="fa2_paged",
            block_size=64,
        )
        engine.submit(fixed_trace(count=2, prompt_len=1_000, max_new_tokens=200))
        while True:
            prep = engine.begin_steady_stretch(math.inf)
            if prep is not None:
                return prep
            engine.run(max_iterations=1)

    def test_scalar_series_extends_to_the_full_build(self):
        """A series stops at the first iteration starting at or after
        its stop time; a later read extends it to exactly the floats of
        one full build, walking the Paged plan's stateful overheads on
        from where it stopped."""
        prep = self.staged()
        assert prep.overhead is None  # block growth inside the stretch
        stop_time = prep.start + 0.05
        compute, starts = prep.series(stop_time)
        assert 0 < len(compute) < prep.horizon
        assert starts[-2] < stop_time <= starts[-1]
        full = self.staged().series()
        assert len(full[0]) == prep.horizon
        assert prep.series() == full


# ----------------------------------------------------------------------
class TestSimulatorImports:
    def test_simulator_never_imports_numpy(self):
        """A fast-forwarded engine and a fleet run on the scalar series
        alone: numpy is a benchmark dependency, never the simulator's.
        A fresh interpreter keeps other tests' imports out of the way."""
        script = textwrap.dedent(
            """
            import sys

            import repro
            from repro.cluster import ClusterConfig, ClusterEngine
            from repro.gpu.spec import A100
            from repro.models.shard import ShardedModel
            from repro.models.zoo import YI_6B
            from repro.serving.engine import EngineConfig, LLMEngine
            from repro.workloads.arrival import poisson_arrivals
            from repro.workloads.traces import fixed_trace

            shard = ShardedModel(YI_6B, 1)
            engine = LLMEngine(
                EngineConfig(shard=shard, gpu=A100, memory_backend="vattention")
            )
            engine.submit(fixed_trace(count=4, prompt_len=1_000, max_new_tokens=200))
            decode = engine.run().metrics.of_phase("decode")
            assert any(record.iterations > 1 for record in decode)
            fleet = ClusterEngine(
                ClusterConfig(
                    engine=EngineConfig(
                        shard=shard,
                        gpu=A100,
                        memory_backend="paged",
                        prefill_kernel="fa2_paged",
                        decode_kernel="fa2_paged",
                        block_size=64,
                    ),
                    n_replicas=2,
                    routing_policy="least_outstanding_tokens",
                )
            )
            arrivals = poisson_arrivals(qps=4.0, count=16, seed=7)
            fleet.submit(
                fixed_trace(
                    count=16, prompt_len=1_000, max_new_tokens=200,
                    arrivals=arrivals,
                )
            )
            fleet.run()
            assert "numpy" not in sys.modules, repro.__file__
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
