"""Hierarchical GPU→CPU KV tiering: wins, gauges, trace invariant.

Three layers:

* The acceptance criterion — under memory pressure, ``tiered``
  eviction must beat recompute-on-preempt on p99 TTFT (waiting
  requests start sooner when a restore is a PCIe transfer instead of a
  quadratic prefill), at every context length the experiment sweeps.
* Per-tier telemetry — the facade's merged sample carries the
  ``kv_tier_usage`` / queue-depth gauges, and pressured runs emit
  paired ``tier_transfer`` events that replay cleanly.
* The ``tier-conservation`` trace invariant — synthetic traces that
  break the out/in pairing in each possible way must be flagged.
"""

import pytest

from repro.experiments import ext_kv_tiering
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.metrics.telemetry import TelemetryRegistry, enabled
from repro.metrics.tracecheck import check_trace
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.workloads.traces import fixed_trace


# ----------------------------------------------------------------------
# The acceptance criterion
# ----------------------------------------------------------------------
class TestTieredBeatsRecompute:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_kv_tiering.run()

    def test_p99_ttft_wins_at_every_context(self, rows):
        for row in rows:
            assert row.tiered_p99_ttft < row.recompute_p99_ttft

    def test_advantage_grows_with_context(self, rows):
        speedups = [row.ttft_speedup for row in rows]
        assert speedups == sorted(speedups)

    def test_tiering_actually_engaged(self, rows):
        for row in rows:
            assert row.tier_transfers > 0
            assert row.tiered_prefills < row.recompute_prefills


# ----------------------------------------------------------------------
# Telemetry: gauges and events
# ----------------------------------------------------------------------
def _pressured_run(mode: str = "tiered"):
    shard = ShardedModel(YI_6B, 1)
    prompt_len = 8_192
    budget = int(3 * prompt_len * shard.kv_bytes_per_token * 1.02)
    engine = LLMEngine(
        EngineConfig(
            shard=shard,
            gpu=A100,
            memory_backend="vattention",
            max_batch_size=4,
            kv_budget_bytes=budget,
            memory=MemoryConfig(preemption_mode=mode),
            eager_allocation=False,
        )
    )
    engine.submit(
        fixed_trace(count=3, prompt_len=prompt_len, max_new_tokens=400)
    )
    engine.run()


class TestTierTelemetry:
    def test_tier_gauges_sampled(self):
        with enabled(TelemetryRegistry()) as registry:
            _pressured_run("tiered")
        metrics = {
            record["metric"]
            for record in registry.trace_records()
            if record["event"] == "sample"
        }
        assert "kv_tier_usage" in metrics
        assert "tier_transfer_queue_depth" in metrics
        # The cumulative _total keys become counters, not samples.
        counters = {
            entry["name"]: entry["value"]
            for entry in registry.snapshot()
            if entry["kind"] == "counter"
        }
        assert counters["tier_bytes_out_total"] > 0
        assert counters["tier_bytes_in_total"] > 0

    def test_tier_usage_rises_under_pressure(self):
        with enabled(TelemetryRegistry()) as registry:
            _pressured_run("tiered")
        usage = [
            record["value"]
            for record in registry.trace_records()
            if record["event"] == "sample"
            and record["metric"] == "kv_tier_usage"
        ]
        assert max(usage) > 0.0

    def test_transfer_events_paired_and_clean(self):
        with enabled(TelemetryRegistry(record_spans=True)) as registry:
            _pressured_run("tiered")
        records = registry.trace_records()
        transfers = [r for r in records if r["event"] == "tier_transfer"]
        assert transfers, "pressure must produce tier transfers"
        outs = [t for t in transfers if t["direction"] == "out"]
        ins = [t for t in transfers if t["direction"] == "in"]
        assert len(outs) == len(ins)
        assert all(t["nbytes"] > 0 for t in transfers)
        assert all(t["seconds"] > 0 for t in transfers)
        assert all(t["mode"] == "tiered" for t in transfers)
        assert check_trace(records) == []

    def test_recompute_run_emits_no_transfers(self):
        with enabled(TelemetryRegistry()) as registry:
            _pressured_run("recompute")
        assert not any(
            record["event"] == "tier_transfer"
            for record in registry.trace_records()
        )


# ----------------------------------------------------------------------
# The tier-conservation invariant
# ----------------------------------------------------------------------
def _transfer(seq, direction, request="a", nbytes=1_000, time=1.0,
              scope="r0"):
    return {
        "seq": seq, "time": time, "event": "tier_transfer",
        "scope": scope, "request": request, "direction": direction,
        "nbytes": nbytes, "seconds": 0.01, "mode": "tiered",
    }


def _invariants(records):
    return {violation.invariant for violation in check_trace(records)}


class TestTierConservation:
    def test_clean_round_trip(self):
        assert check_trace([
            _transfer(0, "out"),
            _transfer(1, "in", time=2.0),
        ]) == []

    def test_double_swap_out_flagged(self):
        assert _invariants([
            _transfer(0, "out"),
            _transfer(1, "out", time=2.0),
        ]) == {"tier-conservation"}

    def test_restore_without_swap_out_flagged(self):
        assert _invariants([_transfer(0, "in")]) == {"tier-conservation"}

    def test_byte_mismatch_flagged(self):
        assert _invariants([
            _transfer(0, "out", nbytes=1_000),
            _transfer(1, "in", nbytes=999, time=2.0),
        ]) == {"tier-conservation"}

    def test_stranded_kv_flagged(self):
        assert _invariants([_transfer(0, "out")]) == {"tier-conservation"}

    def test_unknown_direction_flagged(self):
        assert _invariants(
            [_transfer(0, "sideways")]
        ) == {"tier-conservation"}

    def test_requests_tracked_independently(self):
        assert check_trace([
            _transfer(0, "out", request="a"),
            _transfer(1, "out", request="b", time=2.0),
            _transfer(2, "in", request="a", time=3.0),
            _transfer(3, "in", request="b", time=4.0),
        ]) == []

    def test_scopes_partition_requests(self):
        # The same request id on another replica is a different ledger.
        assert _invariants([
            _transfer(0, "out", scope="r0"),
            _transfer(1, "in", scope="r1"),
        ]) == {"tier-conservation"}

    def test_repeated_round_trips_clean(self):
        assert check_trace([
            _transfer(0, "out"),
            _transfer(1, "in", time=2.0),
            _transfer(2, "out", time=3.0),
            _transfer(3, "in", time=4.0),
        ]) == []
