"""Decode fast-forwarding: analytic execution of provably-steady stretches.

A pure-decode iteration of :class:`~repro.serving.engine.LLMEngine` is a
deterministic function of a handful of integers: every running request
advances by one token, the batch composition is fixed, and the latency
is ``linear + attention(total context) + framework + CPU`` — float
arithmetic whose operands evolve by integer increments. When the next K
iterations are *provably* such steps, executing them one Python loop at
a time buys nothing: the outcome is known analytically.

:class:`DecodeFastForwarder` executes those K iterations in one tight
loop that performs **exactly the same float operations in exactly the
same order** as the per-iteration path — the clock, every request
timestamp, every latency sum and every backend counter come out
bit-identical (the golden and equivalence tests enforce this). What it
skips is the per-iteration *machinery*: scheduling-view construction,
policy planning, memory ``step()`` bookkeeping, per-request method
calls, and one ``IterationRecord`` allocation per token.

The *horizon* K is the minimum of four bounds (``docs/performance.md``
spells out the contract):

1. **Memory** — :meth:`~repro.serving.memory.MemoryBackend.
   decode_fast_path`: iterations absorbable with no synchronous
   allocation and no preemption (vAttention: the background allocator's
   lead, replayed exactly at page-group crossings; Paged: free blocks;
   Static: unbounded; UVM: until the next page fault).
2. **Scheduling** — :meth:`~repro.scheduling.base.SchedulerPolicy.
   stable_decode_horizon`: iterations over which the policy provably
   keeps planning the same pure-decode batch.
3. **Completion** — tokens until the earliest request in the batch
   finishes (token budget or model context limit).
4. **Events** — the next pending arrival and the caller's ``run_until``
   deadline, checked against the live clock inside the loop (an
   iteration that would *start* past either never runs, matching the
   per-iteration loop's semantics exactly).
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..kernels.costmodel import linear_decode_time
from ..metrics.collector import IterationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.engine import LLMEngine
    from ..serving.request import Request

#: Horizon meaning "no memory-side bound"; the completion/arrival bounds
#: and the 62-bit headroom keep any real stretch far below it.
UNBOUNDED_HORIZON = 1 << 62


class DecodeFastPath:
    """A memory backend's contract for one fast-forwardable stretch.

    Built by :meth:`~repro.serving.memory.MemoryBackend.
    decode_fast_path` against a concrete decode batch. The executor
    consumes it as follows:

    * at most :attr:`horizon` iterations run;
    * each iteration's framework overhead is :attr:`per_iteration_overhead`
      if that is not ``None`` (the common constant case), otherwise
      :meth:`overhead_at` — which must reproduce the slow path's
      ``framework_overhead`` float bit-for-bit, including any mid-stretch
      block-table growth, and is walked once per prep, in order;
    * if :attr:`has_hooks`, :meth:`on_iteration` observes every executed
      iteration (replaying background-allocator state); returning
      ``False`` ends the stretch *after* that iteration — the next
      iteration would not have been steady;
    * :meth:`commit` lands the aggregate state (contexts, counters) once
      the executor knows how many iterations actually ran.
    """

    #: Iterations this backend can absorb with no synchronous
    #: allocation, no preemption, and replayable state.
    horizon: int = 0
    #: Constant per-iteration framework overhead, or ``None`` when it
    #: varies across the stretch (then :meth:`overhead_at` is used).
    per_iteration_overhead: Optional[float] = 0.0
    #: Whether :meth:`on_iteration` must be invoked per iteration.
    has_hooks: bool = False

    def overhead_at(self, iteration: int) -> float:
        """Framework overhead of stretch-iteration ``iteration`` (0-based).

        May be stateful (Paged advances its block-count schedule as it
        goes): the prep's series calls it exactly once per iteration,
        in order from 0, and never again for that plan.
        """
        raise NotImplementedError  # pragma: no cover - constant-overhead plans

    def on_iteration(self, iteration: int, window: float) -> bool:
        """Observe one executed iteration; ``False`` ends the stretch."""
        return True  # pragma: no cover - hook-less plans never call this

    def quiescent_until(self, iteration: int, n: int) -> int:
        """Largest ``j <= n`` with hooks for ``[iteration, j)`` provably
        no-ops.

        A hook iteration is a *no-op* when :meth:`on_iteration` would
        mutate nothing and return ``True`` — the executor may then skip
        the calls wholesale, which is exact because a no-op changes no
        state the next hook decision reads. Plans that cannot prove a
        span return ``iteration`` (skip nothing), the conservative
        default.
        """
        return iteration

    def replay_cycle(self, iteration: int, n: int, windows) -> int:
        """Largest ``j <= n`` with hooks for ``[iteration, j)`` provably
        repeating the last hook's work, which this call applies.

        ``windows`` is the stretch's list of compute windows (see
        :meth:`_StretchPrep.series`). A plan that recorded a *steady
        cycle* — a hook that returned ``True`` and left every state its
        next decision reads as it found it — may land that hook's
        effects for the whole span in one step, provided the result is
        bit-identical to calling :meth:`on_iteration` for each
        iteration. Plans that record no cycles return ``iteration``
        (replay nothing), the default.
        """
        return iteration

    def commit(self, executed: int, last_step_now: float) -> None:
        """Apply the aggregate state of ``executed`` iterations.

        ``last_step_now`` is the simulated time at which the final
        iteration's ``step()`` would have run (the clock before its
        compute advance) — what per-iteration bookkeeping such as
        vAttention's ``slot.last_used`` would have recorded.
        """


class SteadyDecodeFastPath(DecodeFastPath):
    """Constant-overhead plan for backends with no per-iteration state."""

    def __init__(
        self,
        horizon: int,
        per_iteration_overhead: float = 0.0,
        commit=None,
    ) -> None:
        self.horizon = horizon
        self.per_iteration_overhead = per_iteration_overhead
        self._commit = commit

    def commit(self, executed: int, last_step_now: float) -> None:
        if self._commit is not None:
            self._commit(executed, last_step_now)


class _StretchPrep:
    """A prepared — not yet executed — steady decode stretch.

    :meth:`DecodeFastForwarder.prepare` builds one from pure reads of
    engine state (a memory plan touches no engine state until its hooks
    or ``commit`` run), so a prep can be abandoned, and the
    cluster's router replay can build a :class:`StretchOracle` over it
    before the stretch executes. Everything but ``stop_time`` is a
    per-stretch constant; the iteration-time :meth:`series` is built
    once and shared by every reader.
    """

    __slots__ = (
        "engine",
        "plan",
        "batch",
        "horizon",
        "stop_time",
        "start",
        "total_tokens",
        "batch_size",
        "linear",
        "kernel",
        "shard",
        "resolved_block",
        "cpu",
        "per_seq",
        "overhead",
        "has_hooks",
        "oracle_cap",
        "_series",
    )

    def series(self, stop_time: float = math.inf):
        """The stretch's ``(compute, starts)`` iteration-time series.

        ``compute[i]`` is iteration ``i``'s latency term and
        ``starts[i]`` its start time; ``starts[i + 1]`` is its end.
        Both lists come from the expression and association of
        :meth:`LLMEngine._run_decode`, so every element is the float
        the per-iteration loop reaches. The recurrence runs only until
        an iteration starts at or after ``stop_time`` (it would not
        run) or the horizon ends; a later call with a later
        ``stop_time`` extends the lists in place.

        Memoized: a plan whose overhead varies walks its stateful
        :meth:`DecodeFastPath.overhead_at` here once per iteration, in
        order, and the oracle and the executor read the same floats.
        """
        # Extend the recurrence from where the last read stopped.
        compute, starts = series = self._series
        plan = self.plan
        horizon = self.horizon
        batch_size = self.batch_size
        linear, cpu, per_seq = self.linear, self.cpu, self.per_seq
        overhead = self.overhead
        decode_fn = self.kernel._decode_time_total
        i = len(compute)
        now = starts[i]
        total = self.total_tokens + batch_size * i
        while i < horizon and now < stop_time:
            attention = decode_fn(
                self.shard, total, batch_size, self.resolved_block
            )
            fw = overhead if overhead is not None else plan.overhead_at(i)
            step = linear + attention + fw + cpu + per_seq
            compute.append(step)
            now = now + step
            starts.append(now)
            total += batch_size
            i += 1
        return series


class StretchOracle:
    """Closed-form ``run_until`` replay over one prepared stretch.

    Answers — without touching the engine — how many stretch iterations
    ``engine.run_until(t)`` would execute, for any ``t`` strictly below
    :attr:`valid_until`. It reads the prep's own iteration-start
    :meth:`~_StretchPrep.series` — the one the executor runs — so the
    count is exactly ``run_until``'s: an iteration runs iff it *starts*
    strictly before ``t``. The cluster's analytic router-state replay
    sits on top: outstanding tokens during a steady stretch are the
    build-time backlog minus ``batch_size`` per counted iteration, and
    the replica's radix tree is provably frozen inside the validity span
    (pure decode completes no prefill and retires nothing), so cache
    probes against the live tree are snapshot probes.

    Validity is capped at the earliest instant the closed form could go
    stale:

    * the first iteration whose memory-plan hooks are not provably
      no-ops (a hook's mutations could end the stretch early);
    * the stretch's final iteration (completion commits state, may
      retire finished requests, and retirement mutates the radix tree);
    * the prepared ``stop_time`` (past it the engine would ingest an
      arrival or re-plan).

    Callers must test strictly ``t < valid_until``; at or past the
    boundary they fall back to a real ``run_until`` sweep, which is
    always exact.
    """

    __slots__ = ("batch_size", "valid_until", "_starts")

    def __init__(self, batch_size: int, valid_until: float, starts) -> None:
        self.batch_size = batch_size
        self.valid_until = valid_until
        self._starts = starts

    @classmethod
    def build(cls, prep: _StretchPrep) -> Optional["StretchOracle"]:
        """The oracle for ``prep``, or ``None`` if no iteration is
        provably predictable (hooks fire immediately)."""
        # The quiescence cap depends only on the prep's
        # deadline-independent fields; a memoized prep (same engine
        # state) re-binds it to the fresh stop_time.
        cap = prep.oracle_cap
        if cap is None:
            horizon = prep.horizon
            quiet = (
                prep.plan.quiescent_until(0, horizon)
                if prep.has_hooks
                else horizon
            )
            cap = prep.oracle_cap = min(quiet, horizon - 1)
        if cap < 1:
            return None
        stop_time = prep.stop_time
        starts = prep.series(stop_time)[1]
        # A series shorter than ``cap`` already starts an iteration at
        # or past stop_time, and starts never decrease.
        if cap < len(starts) and starts[cap] < stop_time:
            return cls(prep.batch_size, starts[cap], starts)
        return cls(prep.batch_size, stop_time, starts)

    def iterations_before(self, time: float) -> int:
        """Iterations ``run_until(time)`` would execute (requires
        ``time < valid_until``)."""
        return bisect.bisect_left(self._starts, time)


class DecodeFastForwarder:
    """Executes analytic decode stretches for one engine."""

    def __init__(self, engine: "LLMEngine") -> None:
        self.engine = engine
        #: Last staged-but-unexecuted prep, memoized against the state
        #: pair (clock value, ``engine._prep_version``). Stretch proofs
        #: are pure functions of engine state, so while neither moves
        #: the prep is exactly what :meth:`prepare` would rebuild —
        #: only the deadline-dependent ``stop_time`` is recomputed. The
        #: cluster's analytic router replay restages the same stretch
        #: many times per arrival window (view rebuilds, then the fleet
        #: sweep), which this turns into O(1) lookups.
        self._memo: Optional[_StretchPrep] = None
        self._memo_version = -1
        #: State pair at which :meth:`prepare` last proved *no* stretch.
        #: ``None`` results are deadline-independent (the deadline only
        #: shapes ``stop_time``, never the proof), so while the state
        #: pair holds, re-proving is pointless — the cluster replay
        #: queries an unprovable (opaque) replica once per arrival.
        self._memo_none = (-1, -1.0)

    # ------------------------------------------------------------------
    def execute(
        self, deadline: float, budget: Optional[int] = None
    ) -> int:
        """Fast-forward as many steady decode iterations as provable.

        Returns the number of iterations executed (0 = no stretch was
        provable; the caller falls back to the per-iteration path).
        ``budget`` caps the stretch (the ``max_iterations`` interplay);
        ``deadline`` and the next pending arrival bound it dynamically —
        an iteration only runs if it *starts* strictly before both.
        """
        prep = self.prepare(deadline, budget)
        if prep is None:
            return 0
        return self.finish(prep)

    def prepare(
        self, deadline: float, budget: Optional[int] = None
    ) -> Optional[_StretchPrep]:
        """Prove and stage a steady stretch without executing it.

        Pure: no engine, clock or backend state changes. ``None`` means
        no stretch is provable and the caller must fall back to the
        per-iteration path (or an ordinary ``run_until``).
        """
        engine = self.engine
        memo = self._memo
        if (
            budget is None
            and memo is not None
            and self._memo_version == engine._prep_version
            and memo.start == engine.clock.now
        ):
            memo.stop_time = self._stop_time(memo.batch_size, deadline)
            return memo
        state = (engine._prep_version, engine.clock.now)
        if budget is None and self._memo_none == state:
            return None
        batch: List["Request"] = list(engine._running)
        if not batch:
            return self._prove_failed(budget, state)
        config = engine.config
        shard = config.shard

        # --- Bound (2): the scheduling policy's stability promise.
        horizon = engine.scheduler.stable_decode_horizon(
            batch, engine._scheduling_view()
        )
        # --- Bound (3): earliest completion (token budget or context cap).
        max_context = shard.max_context
        for request in batch:
            remaining = min(
                request.max_new_tokens - request.generated,
                max_context - request.context_len,
            )
            if remaining < horizon:
                horizon = remaining
        if budget is not None and budget < horizon:
            horizon = budget
        if horizon < 2:
            return self._prove_failed(budget, state)
        # --- Bound (1): the memory backend's steady-state promise.
        plan = engine.memory.backend.decode_fast_path(batch)
        if plan is None:
            return self._prove_failed(budget, state)
        if plan.horizon < horizon:
            horizon = plan.horizon
        if horizon < 2:
            return self._prove_failed(budget, state)

        # Constant terms of the iteration-latency expression, produced
        # by the same calls (and therefore the same floats) as
        # LLMEngine._run_decode.
        prep = _StretchPrep()
        prep.engine = engine
        prep.plan = plan
        prep.batch = batch
        prep.horizon = horizon
        prep.batch_size = len(batch)
        prep.stop_time = self._stop_time(prep.batch_size, deadline)
        prep.shard = shard
        prep.linear = linear_decode_time(shard, config.gpu, prep.batch_size)
        kernel = engine.decode_kernel
        prep.kernel = kernel
        # Resolve the block size and bind the library implementation
        # once per stretch; decode_time_total would re-validate both on
        # every iteration.
        prep.resolved_block = kernel.validate_block_size(
            engine._block_size_for(kernel)
        )
        prep.cpu = config.iteration_cpu_overhead
        prep.per_seq = config.per_seq_cpu_overhead * prep.batch_size
        prep.overhead = plan.per_iteration_overhead
        prep.has_hooks = plan.has_hooks
        prep.start = engine.clock.now
        total_tokens = 0
        for request in batch:
            total_tokens += request.context_len
        prep.total_tokens = total_tokens
        prep.oracle_cap = None
        prep._series = ([], [prep.start])
        if budget is None:
            self._memo = prep
            self._memo_version = engine._prep_version
        return prep

    def _stop_time(self, batch_size: int, deadline: float) -> float:
        """Bound (4): the next arrival or the caller's deadline.

        Checked live: an iteration runs only if it starts strictly
        before this instant. A *full* batch renders pending arrivals
        inert: no policy can observe the queues through
        plan_iteration's view, admission is capacity-gated, and a
        queued-but-unadmitted request holds no memory — so until a
        completion frees a slot (bound 3 ends the stretch there first),
        the ingestion instant changes no float. Only telemetry could
        see the difference (queue-entry events), so an instrumented
        engine keeps the arrival bound.
        """
        engine = self.engine
        stop_time = deadline
        if engine._pending and (
            batch_size < engine.config.max_batch_size
            or engine.telemetry is not None
        ):
            first_arrival = engine._pending[0].arrival_time
            if first_arrival < stop_time:
                stop_time = first_arrival
        return stop_time

    def _prove_failed(self, budget: Optional[int], state) -> None:
        """Record an unbudgeted proof failure against the state pair."""
        if budget is None:
            self._memo_none = state
        return None

    def finish(self, prep: _StretchPrep) -> int:
        """Execute a prepared stretch and land its state."""
        engine = self.engine
        plan = prep.plan
        batch = prep.batch
        batch_size = prep.batch_size
        stop_time = prep.stop_time
        compute, starts = prep.series(stop_time)
        # Iteration i runs iff it *starts* strictly before stop_time.
        n = bisect.bisect_left(starts, stop_time, 0, len(compute))
        if prep.has_hooks:
            # Hooked plans observe every iteration — but a plan can
            # prove spans of iterations whose hooks would do nothing
            # and return True, and a provable no-op changes no state
            # the next hook decision reads, so skipping the calls is
            # exact. At fleet scale this turns the per-iteration
            # Python loop into a handful of span jumps. Likewise a
            # hook that repeats a recorded steady cycle is replayed
            # for its whole span in one call.
            executed = 0
            i = 0
            while i < n:
                j = plan.quiescent_until(i, n)
                if j == i:
                    j = plan.replay_cycle(i, n, compute)
                if j > i:
                    executed = i = j
                    continue
                executed = i + 1
                if not plan.on_iteration(i, compute[i]):
                    break
                i += 1
        else:
            executed = n
        if executed == 0:
            return 0
        # The slow path records latency as (now + compute) - now, and
        # sums those latencies serially, left to right. Downstream sums
        # must add these (not stretch subtotals) to reproduce the
        # per-iteration loop's float association bit for bit.
        latencies = [starts[i + 1] - starts[i] for i in range(executed)]
        latency_sum = 0.0
        for latency in latencies:
            latency_sum += latency
        now = starts[executed]
        last_step_now = starts[executed - 1]

        engine.clock.jump_to(now)
        for request in batch:
            request.generated += executed
        # The completion bound kept every member's remaining budget at
        # or above the horizon, so each owes exactly ``executed`` fewer.
        engine._outstanding -= executed * batch_size
        plan.commit(executed, last_step_now)
        record = IterationRecord(
            start_time=prep.start,
            phase="decode",
            batch_size=batch_size,
            latency=latency_sum,
            alloc_sync=0.0,
            tokens=executed * batch_size,
            iterations=executed,
            latencies=tuple(latencies),
        )
        engine.metrics.record(record)
        if engine.telemetry is not None:
            # One aggregate sample for the stretch: the counters advance
            # by exactly what the legacy per-iteration loop would add
            # (iterations, tokens, busy seconds), and the stretch length
            # lands in the fast_forward_stretch_iterations histogram.
            # Spans follow suit — one decode span per request covering
            # the whole stretch, not one per collapsed iteration.
            engine.telemetry.on_iteration_spans(
                engine, record, decodes=batch
            )
            engine.telemetry.on_iteration(engine, record)
        engine._retire_finished()
        return executed


class FleetStretchExecutor:
    """Advances a fleet's engines to a shared horizon.

    The cluster loop sweeps its event-source replicas to the joint
    horizon, and drains the whole fleet at the end, through this one
    path — telemetry on or off. Replica engines are independent between
    cluster events, so each engine runs ``run_until`` on its own, in
    fleet order. A stretch the router replay staged for an engine is
    the memoized prep that engine's ``run_until`` executes.
    """

    def sweep(self, engines: Sequence["LLMEngine"], horizon: float) -> None:
        """Advance every engine to ``horizon`` (``run_until`` semantics)."""
        for engine in engines:
            engine.run_until(horizon)
