"""Per-layer spans recorded from outside ``src/``: timing shims on public callables.

The traced run hosts the server inside the benchmark process and wraps a
table of the layers' callables (:data:`TARGETS`).  A function imported by
name into other modules is patched in *every* ``repro`` module that binds it;
methods are patched on their class.  Each span records its layer, its parent
(a per-thread stack), wall time and ``time.thread_time()``: CPU time per
thread, so a span is not charged for the time another thread held the GIL or
for blocking on a socket.  A layer's **self time** is its spans' time minus
the time their child spans cover.  Spans stay in memory until the run ends.

A target that no longer resolves is listed in ``Tracer.unresolved`` instead
of failing: a later refactor of ``src/`` produces a benchmark follow-up, not
a crash.  In-program spans and request ids are a later issue (ROADMAP,
"Metrics, events and trace ids").
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["SPAN_LAYERS", "TARGETS", "LayerTotals", "Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:function`` or ``module:Class.method``."""

    path: str
    #: Layer the span is charged to when it runs on a server thread ...
    layer: str
    #: ... and on a generator (client) thread, when that differs.
    client_layer: str | None = None
    #: Count calls only: for callables invoked >~100x per operation, where a
    #: timed span would cost more than the work it measures.
    count_only: bool = False
    #: Optional ``(args, result) -> number`` accumulated as the span's weight
    #: (requests fused into a group, bytes in an encoded record).
    weigh: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.shard.codec:items_to_events", "server.client.encode"),
    Target("repro.server.protocol:encode_frame", "server.protocol.encode", "server.client.encode"),
    Target("repro.server.protocol:_decode_body", "server.protocol.decode", "server.client.decode"),
    Target("repro.shard.codec:decode_capture", "server.client.decode"),
    Target("repro.views.deltas:decode_delta_batch", "server.client.decode"),
    Target("repro.workloads.logs:query_to_dict", "workloads.logs.encode"),
    Target("repro.workloads.logs:query_from_dict", "workloads.logs.decode"),
    Target("repro.workloads.logs:log_from_events", "workloads.logs.decode"),
    Target("repro.storage.exprjson:expr_to_dict", "storage.exprjson.encode"),
    Target("repro.storage.exprjson:exprs_to_arena", "storage.exprjson.encode"),
    Target("repro.storage.exprjson:expr_from_dict", "storage.exprjson.decode"),
    Target("repro.storage.exprjson:exprs_from_arena", "storage.exprjson.decode"),
    # The coroutine spans enqueue -> resolved; the group span is the writer's
    # work for a fused run.  Their difference is the admission wait.
    Target("repro.server.service:ProvenanceService.apply", "server.service.admit"),
    Target(
        "repro.server.service:ProvenanceService._apply_group",
        "server.service.apply",
        weigh=lambda args, _result: len(args[1]),
    ),
    Target("repro.shard.codec:capture_engine", "server.service.capture"),
    Target("repro.wal.journal:Journal.append_query", "wal.journal.append"),
    Target("repro.wal.journal:Journal.append_txn_end", "wal.journal.append"),
    Target("repro.wal.journal:Journal.append_batch_end", "wal.journal.append"),
    Target("repro.wal.journal:Journal.append_abort", "wal.journal.append"),
    Target("repro.wal.journal:Journal.append_raw", "wal.journal.append"),
    Target(
        "repro.wal.journal:encode_record",
        "wal.journal.record",
        count_only=True,
        weigh=lambda _args, result: len(result),
    ),
    Target("repro.wal.checkpoint:CheckpointManager.write", "wal.checkpoint.write"),
    Target("repro.wal.recovery:recover", "wal.recovery.recover"),
    Target("repro.engine.engine:Engine.apply", "engine.apply_batch"),
    Target("repro.engine.engine:Engine.apply_batch", "engine.apply_batch"),
    Target("repro.wal.engine:JournaledEngine.apply", "engine.apply_batch"),
    Target("repro.wal.engine:JournaledEngine.apply_batch", "engine.apply_batch"),
    Target("repro.engine.executors:BatchNormalFormExecutor.flush", "engine.flush"),
    Target("repro.store.annotation_store:RelationStore.matching", "store.matching"),
    Target("repro.core.normalize:normalize_expr", "core.normalize", count_only=True),
    Target("repro.views.deltas:encode_delta_batch", "views.delta.encode"),
    Target("repro.views.registry:ViewRegistry.apply", "views.registry.apply"),
    Target("repro.replication.hub:ReplicationHub._on_append", "replication.hub.ship"),
    Target("repro.replication.hub:ReplicationHub.records_after", "replication.hub.ship"),
    Target("repro.replication.apply:ShipmentApplier.apply_lines", "replication.apply"),
)

#: Layers reported as ``<layer>.calls_per_op`` and ``<layer>.cpu_ms_per_op``.
SPAN_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        layer
        for target in TARGETS
        if not target.count_only and target.layer != "server.service.admit"
        for layer in (target.layer, target.client_layer)
        if layer is not None
    )
)


@dataclass
class LayerTotals:
    calls: int = 0
    wall: float = 0.0  #: total span wall time (nested same-layer spans collapse)
    cpu_self: float = 0.0  #: thread CPU time not covered by child spans
    weight: float = 0.0
    weighted_wall: float = 0.0  #: sum of wall * weight (a fused group's wall, once per request)


class _ThreadState:
    __slots__ = ("client", "stack", "spans", "counts", "weights")

    def __init__(self) -> None:
        self.client = False
        self.stack: list[int] = []  # indexes into ``spans`` of the open spans
        # [layer, parent index | -1, wall0, wall1, cpu0, cpu1, weight]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.weights: dict[str, float] = {}


class Tracer:
    """Installs the shims, gates recording to the timed window, aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._cpu_started = 0.0
        self.cpu_seconds = 0.0  #: process CPU time spent inside enabled windows

    # -- recording window --------------------------------------------------------

    def resume(self) -> None:
        self._cpu_started = time.process_time()
        self.enabled = True

    def pause(self) -> None:
        if self.enabled:
            self.enabled = False
            self.cpu_seconds += time.process_time() - self._cpu_started

    def mark_client_thread(self) -> None:
        """Declare the calling thread a generator thread (client-side layers)."""
        self._state().client = True

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            module_name, _, qualname = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner: object = module
                *parents, attr = qualname.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.unresolved.append(target.path)
                continue
            wrapper = self._wrap(original, target)
            if parents:
                self._patch(owner, attr, original, wrapper)
                continue
            # A module-level function: patch every repro module that bound it.
            for bound in list(sys.modules.values()):
                if getattr(bound, "__name__", "").split(".")[0] != "repro":
                    continue
                for name, value in list(vars(bound).items()):
                    if value is original:
                        self._patch(bound, name, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, target: Target):
        tracer = self
        layers = (target.layer, target.client_layer or target.layer)
        weigh = target.weigh

        if inspect.iscoroutinefunction(original):
            # Interleaved tasks share the loop thread, so a coroutine span
            # stays off the stack and records wall time only.
            async def coroutine_span(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                began = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._state().spans.append(
                        [layers[0], -1, began, time.perf_counter(), 0.0, 0.0, 1.0]
                    )

            return coroutine_span

        if target.count_only:

            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                if tracer.enabled:
                    state = tracer._state()
                    layer = layers[state.client]
                    state.counts[layer] = state.counts.get(layer, 0) + 1
                    if weigh is not None:
                        state.weights[layer] = state.weights.get(layer, 0.0) + weigh(args, result)
                return result

            return counted

        def span(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = tracer._state()
            layer = layers[state.client]
            spans, stack = state.spans, state.stack
            if stack and spans[stack[-1]][0] == layer:
                # Recursion / super() within one layer: one span, not many.
                return original(*args, **kwargs)
            record = [layer, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0, 1.0]
            stack.append(len(spans))
            spans.append(record)
            record[4] = time.thread_time()
            record[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if weigh is not None:
                    record[6] = weigh(args, result)
                return result
            finally:
                record[3] = time.perf_counter()
                record[5] = time.thread_time()
                stack.pop()

        return span

    # -- aggregation -------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def totals(self) -> dict[str, LayerTotals]:
        """Per-layer totals over every recorded span and counter."""
        totals: dict[str, LayerTotals] = {}
        for state in self._states:
            child_cpu = [0.0] * len(state.spans)
            for _layer, parent, _w0, _w1, cpu0, cpu1, _weight in state.spans:
                if parent >= 0:
                    child_cpu[parent] += cpu1 - cpu0
            for index, (layer, _parent, wall0, wall1, cpu0, cpu1, weight) in enumerate(state.spans):
                if wall1 == 0.0:
                    continue  # still open when the window closed
                entry = totals.setdefault(layer, LayerTotals())
                entry.calls += 1
                entry.wall += wall1 - wall0
                entry.cpu_self += max(0.0, (cpu1 - cpu0) - child_cpu[index])
                entry.weight += weight
                entry.weighted_wall += (wall1 - wall0) * weight
            for layer, count in state.counts.items():
                totals.setdefault(layer, LayerTotals()).calls += count
            for layer, weight in state.weights.items():
                totals.setdefault(layer, LayerTotals()).weight += weight
        return totals

    @staticmethod
    def span_cost() -> float:
        """Seconds one timed span adds, calibrated on a no-op callable."""
        probe = Tracer()
        wrapped = probe._wrap(lambda: None, Target("calibration:noop", "calibration"))
        bare = lambda: None  # noqa: E731
        rounds = 20_000

        def timed(function) -> float:
            began = time.perf_counter()
            for _ in range(rounds):
                function()
            return time.perf_counter() - began

        probe.enabled = True
        return max(0.0, (timed(wrapped) - timed(bare)) / rounds)
