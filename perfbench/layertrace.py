"""Per-layer tracing from outside the program.

The traced run wraps the public methods at each layer boundary of
``repro`` (and, where a layer has no public seam, the private method
that is its boundary today). Every wrapped call records a span - hook,
start, end, parent span - and a call count. A layer's self time is
the time inside its spans minus the time inside their child spans, so
time spent in a nested layer is charged to that layer alone.

Nothing inside ``src/`` changes: the wrappers are installed on the
classes and module bindings at run time and removed afterwards.
Functions imported by name into another module (the ``lru_cache``d
cost-model functions) are wrapped at the importing binding, because
patching the defining module would not catch those calls.

A hook that no longer exists in the program is skipped and named in
``Tracer.missing``; the run prints the list, so a renamed boundary
shows instead of silently reading zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of each module prefix (longest prefix wins).
MODULE_LAYERS = {
    "repro.cluster": "cluster",
    "repro.sim": "sim",
    "repro.serving.engine": "serving",
    "repro.serving.memory": "serving.memory",
    "repro.scheduling": "scheduling",
    "repro.core": "core",
    "repro.memory": "memory",
    "repro.paged": "paged",
    "repro.cache": "cache",
    "repro.kernels": "kernels",
    "repro.metrics": "metrics",
}

#: (module, class, methods, layer override). A class entry also wraps
#: every subclass that defines the method itself, so each concrete
#: routing policy, scheduler, backend and kernel is covered; spans are
#: charged to the layer of the module defining the listed class.
CLASS_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...], Optional[str]], ...] = (
    ("repro.cluster.engine", "ClusterEngine", ("run",), None),
    ("repro.cluster.engine", "ClusterEngine", (
        "_build_report", "_latency_attribution"), "metrics.report"),
    ("repro.cluster.router", "RoutingPolicy", ("select",), None),
    ("repro.cluster.router", "ReplicaView", (
        "outstanding_tokens", "probe_prefix"), None),
    ("repro.cluster.autoscaler", "AutoscalerPolicy", ("decide",), None),
    ("repro.sim.fastforward", "DecodeFastForwarder", (
        "execute", "prepare", "finish"), None),
    ("repro.sim.fastforward", "StretchOracle", ("build",), None),
    ("repro.sim.fastforward", "FleetStretchExecutor", ("sweep",), None),
    ("repro.serving.engine", "LLMEngine", (
        "__init__", "run", "run_until", "begin_steady_stretch"), None),
    ("repro.serving.engine", "LLMEngine", ("_latency_attribution",),
     "metrics.report"),
    ("repro.scheduling.base", "SchedulerPolicy", (
        "next_admission", "plan_iteration", "stable_decode_horizon",
        "select_victim"), None),
    ("repro.serving.memory", "VAttentionMemory", (
        "can_admit", "admit", "prepare_iteration", "release",
        "after_iteration", "decode_fast_path", "refresh_promise",
        "detach"), None),
    ("repro.serving.memory", "PagedMemory", (
        "can_admit", "admit", "prepare_iteration", "release",
        "decode_fast_path"), None),
    ("repro.serving.memory", "_VattentionDecodePlan", (
        "__init__", "on_iteration", "quiescent_until", "commit"), None),
    ("repro.serving.memory", "_PagedDecodePlan", (
        "__init__", "overhead_at", "commit"), None),
    ("repro.core.vattention", "VAttention", (
        "__init__", "step", "on_iteration_end", "alloc_reqid",
        "free_reqid", "share_prefix", "trim_slot"), None),
    ("repro.memory.manager", "MemoryManager", (
        "allocate_request", "allocate_tokens", "cache_finished_request",
        "evict", "tier_transfer"), None),
    ("repro.memory.tier", "CpuKvTier", (
        "__init__", "swap_out", "swap_in", "drop"), None),
    ("repro.paged.block_manager", "BlockManager", (
        "allocate", "extend", "free", "share_blocks", "transfer"), None),
    ("repro.cache.radix", "RadixTree", (
        "match_prefix", "probe", "insert", "remove", "evict_lru"), None),
    ("repro.cache.manager", "PrefixCacheManager", (
        "__init__", "probe_prefix_tokens", "can_admit", "admit",
        "before_prefill", "note_prefill_complete", "release", "retire"),
     None),
    # The per-library cost functions, not the validating public entry
    # points: the fast-forwarder calls these directly.
    ("repro.kernels.base", "AttentionKernel", (
        "_prefill_time", "_decode_time_total", "_decode_time_total_series"),
     None),
    ("repro.metrics.telemetry", "TelemetryRegistry", (
        "emit", "emit_span"), None),
    ("repro.metrics.telemetry", "EngineTelemetry", (
        "on_queued", "on_admit", "on_preempt", "on_tier_transfer",
        "on_finish", "on_iteration_spans", "on_iteration"), None),
    ("repro.metrics.telemetry", "EngineTelemetry", ("on_report",),
     "metrics.report"),
    ("repro.metrics.telemetry", "ClusterTelemetry", (
        "on_sim_event", "replica_init", "replica_state", "request_routed",
        "sample_fleet"), None),
)

#: Module-level function bindings, wrapped where they are imported.
FUNCTION_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serving.engine", "decode_weight_stream_time", "kernels"),
    ("repro.serving.engine", "linear_decode_time", "kernels"),
    ("repro.serving.engine", "linear_prefill_time", "kernels"),
    ("repro.sim.fastforward", "linear_decode_time", "kernels"),
)

#: Wrapped with no span: they only register instances whose counters
#: are read after the run.
UNTIMED = {"__init__"}


def layer_of(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > len(best):
            best = prefix
    if not best:
        raise KeyError(f"no layer for module {module}")
    return MODULE_LAYERS[best]


def _all_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Span recorder and call counter for one traced run."""

    def __init__(self) -> None:
        #: hook name -> call count
        self.calls: Counter = Counter()
        #: layer -> self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: hook name -> inclusive seconds
        self.total_s: Dict[str, float] = defaultdict(float)
        #: hook name -> summed numeric results (sim seconds, bytes, ...)
        self.result_sum: Dict[str, float] = defaultdict(float)
        #: hook name -> calls that returned False
        self.false_results: Counter = Counter()
        #: hook name -> calls given ``attention=`` (fleet-stacked)
        self.stacked: Counter = Counter()
        #: hook name -> layer its spans are charged to
        self.hook_layer: Dict[str, str] = {}
        #: "<class>.__init__" -> instances constructed during the run
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        #: the span table, column-wise: hook id, start, end, parent id
        self.hook_names: List[str] = []
        self.span_hook = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []
        # [span id, start, child seconds, hook id]; the bottom frame is
        # the root.
        self._stack: List[list] = [[-1, 0.0, 0.0, -1]]
        #: request id -> admission time before its first preemption
        self.first_admitted: Dict[str, float] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def _timed(self, fn: Callable, hook: str, layer: str) -> Callable:
        hook_id = len(self.hook_names)
        self.hook_names.append(hook)
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        result_sum = self.result_sum
        false_results = self.false_results
        stacked = self.stacked
        span_hook, span_start = self.span_hook, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, clock(), 0.0, hook_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                parent[2] += duration
                total_s[hook] += duration
                span_hook.append(hook_id)
                span_start.append(frame[1])
                span_end.append(end)
                span_parent.append(parent[0])
            # A call made directly inside the same hook (an override
            # calling super(), a view delegating to the replica) is one
            # boundary crossing, not two.
            if parent[3] == hook_id:
                return result
            calls[hook] += 1
            if result is False:
                false_results[hook] += 1
            elif isinstance(result, (int, float)) and result is not True:
                result_sum[hook] += result
            elif hasattr(result, "sum") and hasattr(result, "dtype"):
                result_sum[hook] += float(result.sum())
            if kwargs.get("attention") is not None:
                stacked[hook] += 1
            return result

        return wrapper

    def _registering(self, fn: Callable, cls_name: str) -> Callable:
        instances = self.instances[cls_name]

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            instances.append(self_)

        return wrapper

    def _first_admission(self, fn: Callable) -> Callable:
        """Keep a request's first admission time: re-admission after a
        preemption overwrites ``admitted_time``."""
        first = self.first_admitted

        @functools.wraps(fn)
        def wrapper(request, *args, **kwargs):
            if request.admitted_time is not None:
                first.setdefault(request.request_id, request.admitted_time)
            return fn(request, *args, **kwargs)

        return wrapper

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, cls_name, methods, layer in CLASS_HOOKS:
            module = importlib.import_module(module_name)
            base = getattr(module, cls_name, None)
            if base is None:
                self.missing.append(f"{module_name}.{cls_name}")
                continue
            for method in methods:
                wrapped = 0
                for cls in _all_subclasses(base):
                    if method not in cls.__dict__:
                        continue
                    self._wrap_attribute(
                        cls, method, layer or layer_of(base.__module__),
                        f"{cls_name}.{method}",
                    )
                    wrapped += 1
                if not wrapped:
                    self.missing.append(f"{cls_name}.{method}")
        from repro.serving.request import Request

        for method in ("preempt", "preempt_swap"):
            if method not in Request.__dict__:
                self.missing.append(f"Request.{method}")
                continue
            self._replace(
                Request, method, self._first_admission(Request.__dict__[method])
            )
        for module_name, name, layer in FUNCTION_HOOKS:
            module = importlib.import_module(module_name)
            if name not in module.__dict__:
                self.missing.append(f"{module_name}.{name}")
                continue
            hook = f"{module_name.rsplit('.', 1)[1]}.{name}"
            self.hook_layer[hook] = layer
            self._replace(
                module, name, self._timed(module.__dict__[name], hook, layer)
            )
        return self

    def _wrap_attribute(
        self, cls: type, method: str, layer: str, hook: str
    ) -> None:
        """Wrap ``cls.method``; counts and spans are keyed by ``hook``
        (the base class's name), so every override adds to one total."""
        raw = cls.__dict__[method]
        self.hook_layer[hook] = layer
        if method in UNTIMED:
            self._replace(cls, method, self._registering(raw, hook))
        elif isinstance(raw, property):
            self._replace(
                cls, method, property(self._timed(raw.fget, hook, layer))
            )
        elif isinstance(raw, classmethod):
            self._replace(
                cls, method, classmethod(self._timed(raw.__func__, hook, layer))
            )
        elif isinstance(raw, staticmethod):
            self._replace(
                cls,
                method,
                staticmethod(self._timed(raw.__func__, hook, layer)),
            )
        else:
            self._replace(cls, method, self._timed(raw, hook, layer))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def count(self, *hooks: str) -> int:
        return sum(self.calls[hook] for hook in hooks)

    def layer_total(self, layer: str) -> int:
        """Calls into every hook charged to ``layer``."""
        return sum(
            calls
            for hook, calls in self.calls.items()
            if self.hook_layer[hook] == layer
        )

    @property
    def span_count(self) -> int:
        return len(self.span_hook)
