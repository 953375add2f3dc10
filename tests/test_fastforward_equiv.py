"""Decode fast-forwarding is invisible in every report.

Two layers of enforcement:

* The FCFS golden scenarios (captured from the legacy per-iteration
  loop, ``tests/golden/fcfs_reports.json``) re-run with
  ``fast_forward=True`` must reproduce the golden's request-level
  timing byte-for-byte and its per-phase totals bit-for-bit — only the
  record *grouping* may differ.
* An on/off sweep over every engine-driven experiment in the catalogue:
  each driver runs once with fast-forwarding and once without (flipped
  through the module default), and the experiment's own output rows
  must compare equal — floats included, no tolerance. Experiments that
  never construct a serving engine (pure cost-model tables) have
  nothing to sweep; the two that pin ``fast_forward=False`` internally
  (fig12, ext-chunked: their *subject* is the per-iteration series)
  still run to prove the pin holds. The fast-forwarded output of every
  catalogue entry and cluster shape must also match its sha256 digest
  in ``tests/golden/catalogue_digests.json`` (see
  :mod:`tests.catalogue_golden`), so the outputs themselves are pinned
  as well as their on/off equality.

A pressure oracle then compares the whole vAttention manager state, not
just the reports, on a long-context engine whose decode stretches
replay the background allocator's steady eager-map/reclaim cycle.
"""

import dataclasses
import json
import random

import pytest

import catalogue_golden
import fcfs_golden
import repro.serving.engine as engine_module
import repro.serving.memory as memory_module
from repro.cluster.autoscaler import AUTOSCALER_POLICIES
from repro.cluster.engine import ClusterConfig, ClusterEngine
from repro.cluster.router import policy_names
from repro.experiments import (
    ext_autoscale,
    ext_cluster_router,
    ext_kv_tiering,
    ext_prefix_cache,
    ext_sched_policy,
    ext_swap_policy,
    ext_uvm_limitations,
    fig08_decode_throughput,
    fig09_offline_throughput,
    fig10_online_latency,
    fig11_fa3_portability,
    fig12_overlap_ablation,
    fig15_max_batch_size,
)
from repro.gpu.spec import A100
from repro.memory import MemoryConfig
from repro.models.shard import ShardedModel
from repro.models.zoo import YI_6B
from repro.serving.engine import EngineConfig, LLMEngine
from repro.serving.request import Request
from repro.units import GB, MB
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.traces import TraceSpec


# ----------------------------------------------------------------------
# Golden scenarios with the fast path on
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(fcfs_golden.GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("scenario", sorted(fcfs_golden.SCENARIOS))
    def test_fast_forward_matches_golden(self, golden, scenario):
        live = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS[scenario](fast_forward=True)
        )
        assert fcfs_golden.summarize(live) == fcfs_golden.summarize(
            golden[scenario]
        )
        # Strongest form: the per-iteration latency series (stretches
        # expanded through their stored values) is byte-identical to
        # the legacy loop's, entry for entry.
        assert fcfs_golden.iteration_series(live) == (
            fcfs_golden.iteration_series(golden[scenario])
        )

    @pytest.mark.parametrize("scenario", sorted(fcfs_golden.SCENARIOS))
    def test_fast_forward_aggregates_records(self, golden, scenario):
        """The fast path must actually engage — fewer records than
        iterations — otherwise the equivalence above proves nothing."""
        live = fcfs_golden.canonicalize(
            fcfs_golden.SCENARIOS[scenario](fast_forward=True)
        )
        iterations = sum(
            r.get("iterations", 1) for r in live["iterations"]
        )
        assert iterations == len(golden[scenario]["iterations"])
        assert len(live["iterations"]) < iterations


# ----------------------------------------------------------------------
# The experiment-catalogue sweep
# ----------------------------------------------------------------------
#: Engine-driven catalogue entries, reduced to test scale. Catalogue
#: entries absent here run no serving engine (kernel/cost-model tables:
#: fig02-04, fig07, fig13, fig14, tab03-tab10, ext-sharing,
#: ext-large-models) — there is no iteration loop to fast-forward.
SWEEP = {
    "fig08": lambda: fig08_decode_throughput.run(
        models=[(YI_6B, 1)], batches=(1, 16), decode_iterations=60
    ),
    "fig09": lambda: fig09_offline_throughput.run(
        models=[(YI_6B, 1)], request_count=12
    ),
    "fig10": lambda: fig10_online_latency.run(
        grid=[(YI_6B, (2.0,))],
        systems=("FA2_Paged", "FA2_vAttention"),
        request_count=40,
    ),
    "fig11": lambda: fig11_fa3_portability.run(
        models=[(YI_6B, 1)], request_count=10
    ),
    "fig12": lambda: fig12_overlap_ablation.run(decode_iterations=80),
    "fig15": lambda: fig15_max_batch_size.run(
        models=[(YI_6B, 1)], page_group_sizes=(2 * MB,), request_count=24
    ),
    "ext-kv-tiering": lambda: ext_kv_tiering.run(prompts=(8_192,)),
    "ext-prefix-cache": lambda: ext_prefix_cache.run(sharing_factors=(4,)),
    "ext-sched-policy": lambda: ext_sched_policy.run(count=40, qps=6.0),
    "ext-swap": lambda: ext_swap_policy.run(prompts=(8_192,)),
    "ext-uvm": lambda: ext_uvm_limitations.run(request_count=60, qps=6.0),
    "ext-cluster-router": lambda: ext_cluster_router.run(
        replica_counts=(2,),
        policies=("round_robin", "cache_aware"),
        sharing_factors=(4,),
        count=24,
        qps=8.0,
    ),
}


@pytest.fixture(scope="module")
def digests():
    return catalogue_golden.load()


class TestCatalogueSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_identical_on_and_off(self, name, monkeypatch, digests):
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        fast = SWEEP[name]()
        assert catalogue_golden.digest(fast) == digests["catalogue"][name]
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        legacy = SWEEP[name]()
        assert fast == legacy


# ----------------------------------------------------------------------
# The pressure oracle: full vAttention state under KV pressure
# ----------------------------------------------------------------------
def _pressure_run(fast_forward):
    """~100 long-context requests (2k-16k-token prompts) on one Yi-6B
    vAttention engine with 4 GiB of KV and tiered preemption: eager
    allocation and threshold reclamation keep undoing each other, so
    decode stretches are full of steady cycles."""
    rng = random.Random(11)
    prompts = TraceSpec(low=2_048, high=16_384, mean=6_144)
    decodes = TraceSpec(low=64, high=1_024, mean=300)
    requests = [
        Request(
            request_id=f"long-{index:03d}",
            prompt_len=prompts.sample(rng),
            max_new_tokens=decodes.sample(rng),
            arrival_time=arrival,
        )
        for index, arrival in enumerate(poisson_arrivals(0.8, 100, 13))
    ]
    engine = LLMEngine(
        EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="vattention",
            kv_budget_bytes=4 * GB,
            memory=MemoryConfig(preemption_mode="tiered"),
            fast_forward=fast_forward,
        )
    )
    engine.submit(requests)
    engine.run()
    manager = engine.memory.backend.manager
    worker = manager.background
    times = [
        (r.request_id, r.first_token_time, r.finish_time, r.preemptions)
        for r in requests
    ]
    state = (
        dataclasses.astuple(manager.stats),
        [[handle.handle_id for handle in slot.rows] for slot in manager.slots],
        [handle.handle_id for handle in manager._free_rows],
        list(manager._row_refs.items()),
        (
            worker.critical_pending,
            worker.opportunistic_pending,
            worker.overlapped_seconds,
            worker.spilled_seconds,
            worker.submitted_seconds,
        ),
    )
    return times, state


class TestPressureOracle:
    def test_cycle_replay_leaves_identical_state(self, monkeypatch):
        replayed = []
        replay_cycle = memory_module._VattentionDecodePlan.replay_cycle

        def spy(plan, iteration, n, windows):
            end = replay_cycle(plan, iteration, n, windows)
            replayed.append(end - iteration)
            return end

        monkeypatch.setattr(
            memory_module._VattentionDecodePlan, "replay_cycle", spy
        )
        fast_times, fast_state = _pressure_run(fast_forward=True)
        # The replay must engage, or the equality below proves nothing.
        assert sum(replayed) > 1_000
        legacy_times, legacy_state = _pressure_run(fast_forward=False)
        assert any(preemptions for *_, preemptions in fast_times)
        assert fast_times == legacy_times
        assert fast_state == legacy_state


# ----------------------------------------------------------------------
# The cluster-catalogue sweep (joint-horizon fleet loop on vs off)
# ----------------------------------------------------------------------
# Every cluster-driven experiment configuration, at test scale: the
# three routing policies, the disaggregated prefill/decode split, one
# fleet per autoscaler policy, and Paged-backend fleets under the two
# state-aware routers (their stretches have varying framework overhead
# under the analytic router replay). The cluster loop follows its
# engine template's ``fast_forward``, whose default is the module switch,
# so one flip drives both the fleet loop and every replica's decode
# fast-forwarding.
CLUSTER_COUNT = 24
CLUSTER_QPS = 8.0


def _router_case(policy):
    def case():
        return ext_cluster_router.serve(
            2, policy, sharing_factor=4, count=CLUSTER_COUNT, qps=CLUSTER_QPS
        )

    return case


def _disagg_case(interconnect):
    def case():
        cluster = ext_cluster_router.build_cluster(
            4,
            "cache_aware",
            disaggregated=True,
            n_prefill_replicas=2,
            interconnect=interconnect,
        )
        cluster.submit(
            ext_cluster_router.cluster_trace(
                count=CLUSTER_COUNT, sharing_factor=4, qps=CLUSTER_QPS
            )
        )
        return cluster.run()

    return case


def _autoscale_case(fleet):
    def case():
        return ext_autoscale.serve(fleet, count=160, qps=4.0)

    return case


def _windowed_case(fleet, policy):
    """An elastic fleet routed by ``policy`` instead of the autoscale
    experiment's baked-in ``least_outstanding_tokens``.

    These are the arrival-window fast paths under scale lifecycle:
    state-aware policies route whole windows against persistent
    analytic replica views that must survive (or be correctly replaced
    across) scale-ups, drains, and SCALE_DECIDE window splits."""

    def case():
        base = ext_autoscale.build_fleet(fleet).config
        cluster = ClusterEngine(
            dataclasses.replace(base, routing_policy=policy)
        )
        cluster.submit(
            ext_cluster_router.cluster_trace(
                count=160,
                sharing_factor=4,
                prefix_tokens=ext_autoscale.PREFIX_TOKENS,
                qps=4.0,
            )
        )
        return cluster.run()

    return case


def _paged_case(policy, n_replicas):
    """A PagedAttention fleet with the radix prefix cache, routed by a
    state-aware ``policy``: the analytic router-state replay then builds
    stretch oracles over Paged plans, whose framework overhead varies
    with block growth across the stretch."""

    def case():
        engine = EngineConfig(
            shard=ShardedModel(YI_6B, 1),
            gpu=A100,
            memory_backend="paged",
            prefill_kernel="fa2_paged",
            decode_kernel="fa2_paged",
            block_size=256,
            kv_budget_bytes=8 * GB,
            memory=MemoryConfig(enable_prefix_cache=True),
        )
        cluster = ClusterEngine(
            ClusterConfig(
                engine=engine, n_replicas=n_replicas, routing_policy=policy
            )
        )
        cluster.submit(
            ext_cluster_router.cluster_trace(
                count=160, sharing_factor=4, qps=4.0
            )
        )
        return cluster.run()

    return case


CLUSTER_SWEEP = {
    **{
        f"router:{policy}": _router_case(policy) for policy in policy_names()
    },
    "disagg:nvlink": _disagg_case("nvlink"),
    "disagg:pcie": _disagg_case("pcie"),
    "autoscale:static_min": _autoscale_case("static_min"),
    "autoscale:queue_depth": _autoscale_case("queue_depth"),
    "autoscale:sla": _autoscale_case("sla"),
    **{
        f"windowed:{fleet}:{policy}": _windowed_case(fleet, policy)
        for fleet in ("queue_depth", "sla")
        for policy in ("round_robin", "cache_aware")
    },
    "paged:least_outstanding_tokens": _paged_case(
        "least_outstanding_tokens", 2
    ),
    "paged:cache_aware": _paged_case("cache_aware", 4),
}


def _cluster_fingerprint(report):
    """Request-level exactness: every per-request timing, byte for byte,
    plus the fleet-level aggregates a report exposes."""
    return (
        repr(report.end_time),
        report.n_replicas,
        report.migrations,
        report.migrated_bytes,
        repr(report.migration_seconds),
        repr(report.replica_seconds),
        report.peak_serving,
        len(report.scale_events),
        tuple(
            (
                record.request_id,
                record.replica,
                record.decode_replica,
                repr(record.ttft),
                repr(record.e2e_latency),
                repr(record.serve_request.finish_time),
            )
            for record in sorted(
                report.records, key=lambda record: record.request_id
            )
        ),
    )


class TestClusterSweep:
    @pytest.mark.parametrize("name", sorted(CLUSTER_SWEEP))
    def test_identical_on_and_off(self, name, monkeypatch, digests):
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        fast = _cluster_fingerprint(CLUSTER_SWEEP[name]())
        assert catalogue_golden.digest(fast) == digests["cluster"][name]
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", False)
        legacy = _cluster_fingerprint(CLUSTER_SWEEP[name]())
        assert fast == legacy

    def test_stateful_overhead_walked_once_in_order(self, monkeypatch):
        """A Paged plan's ``overhead_at`` advances its block-count
        schedule, so the router replay's oracle and the executor must
        share one walk of it per prep: 0, 1, 2, ... and never again."""
        walks = {}
        overhead_at = memory_module._PagedDecodePlan.overhead_at

        def spy(plan, iteration):
            walks.setdefault(plan, []).append(iteration)
            return overhead_at(plan, iteration)

        monkeypatch.setattr(
            memory_module._PagedDecodePlan, "overhead_at", spy
        )
        monkeypatch.setattr(engine_module, "DEFAULT_FAST_FORWARD", True)
        CLUSTER_SWEEP["paged:cache_aware"]()
        assert walks
        for iterations in walks.values():
            assert iterations == list(range(len(iterations)))

    @pytest.mark.parametrize("name", catalogue_golden.TRACE_PINS)
    def test_span_trace_pinned(self, name, digests):
        """Telemetry-on fleets are swept like telemetry-off ones: the
        span trace, event order included, stays byte-identical."""
        assert (
            catalogue_golden.trace_digest(CLUSTER_SWEEP[name])
            == digests["telemetry"][name]
        )

    def test_covers_every_routing_policy(self):
        swept = {
            name.split(":", 1)[1]
            for name in CLUSTER_SWEEP
            if name.startswith("router:")
        }
        assert swept == set(policy_names())

    def test_covers_router_by_autoscaler_matrix(self):
        """Every routing policy runs under every autoscaler policy
        somewhere in the sweep: router:* pins static fleets, the
        autoscale:* shapes pin ``least_outstanding_tokens`` under each
        elastic autoscaler, and windowed:* fills in the remaining
        elastic x policy cells."""
        covered = set()
        for policy in policy_names():
            covered.add(("static", policy))  # router:<policy>
        for fleet in ("static_min", "queue_depth", "sla"):
            autoscaler = ext_autoscale.FLEETS[fleet][0]
            covered.add((autoscaler, "least_outstanding_tokens"))
        for name in CLUSTER_SWEEP:
            if not name.startswith("windowed:"):
                continue
            _, fleet, policy = name.split(":")
            covered.add((ext_autoscale.FLEETS[fleet][0], policy))
        wanted = {
            (autoscaler, policy)
            for autoscaler in AUTOSCALER_POLICIES
            for policy in policy_names()
        }
        assert wanted <= covered

    def test_covers_every_autoscaler_policy(self):
        swept = {
            name.split(":", 1)[1]
            for name in CLUSTER_SWEEP
            if name.startswith("autoscale:")
        }
        policies = {ext_autoscale.FLEETS[fleet][0] for fleet in swept}
        assert policies == set(AUTOSCALER_POLICIES)

    def test_covers_every_cluster_driver(self):
        """A new cluster-driven experiment module must join the sweep."""
        import pathlib

        import repro.experiments

        root = pathlib.Path(repro.experiments.__file__).parent
        drivers = {
            path.stem
            for path in root.glob("*.py")
            if "ClusterEngine(" in path.read_text()
        }
        assert drivers == {"ext_cluster_router", "ext_autoscale"}
