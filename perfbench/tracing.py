"""Layer tracing from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
thin wrappers that record one span per call: name, start, end, parent
span and (where the call takes one) the request id.  Nothing under
``src/`` is changed; :meth:`Tracer.install` patches the attributes and
:meth:`Tracer.remove` puts the originals back.

Spans nest strictly (the simulator is single-threaded), so a stack of
open spans gives each span its parent, and a span's self time is its
duration minus the durations of its direct children.  Per-name call
counts, total seconds and self seconds are folded in as spans close;
the raw spans stay in memory until :meth:`Tracer.drain_spans` hands
them out for writing.

The repo's own ``TraceRecorder`` is deliberately not used: passing a
tracer to ``ServingSystem`` switches off decode fusion and the
vectorised batch plane, so it would measure a different program.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _request_id(arg):
    """Request id of a call argument: a ``Request`` or a bare int id."""
    rid = getattr(arg, "req_id", arg)
    return rid if isinstance(rid, int) else None


# (module, class or None, attribute, span name, index of the argument
# that identifies the request, or None).  Argument index 0 is the first
# argument after ``self`` for methods.
TARGETS = [
    ("repro.sim.engine", "SimEngine", "run", "engine.run", None),
    ("repro.serving.stages", "AdmissionStage", "on_arrival", "stages.admit", 0),
    ("repro.serving.stages", "BatchComposer", "plan_prefill", "stages.plan_prefill", None),
    ("repro.serving.stages", "BatchComposer", "plan_decode", "stages.plan_decode", None),
    ("repro.serving.stages", "DecodeStream", "run_prefill", "stages.prefill", None),
    ("repro.serving.stages", "DecodeStream", "complete_prefill", "stages.prefill", None),
    ("repro.serving.stages", "DecodeStream", "complete_decode", "stages.complete_decode", None),
    ("repro.serving.stages", "DecodeStream", "complete_fused", "stages.complete_fused", None),
    ("repro.core.scheduler", "TokenFlowScheduler", "on_iteration_boundary", "scheduler.boundary", None),
    ("repro.core.scheduler", "TokenFlowScheduler", "on_fused_boundaries", "scheduler.fused", None),
    ("repro.core.scheduler", "TokenFlowScheduler", "on_tick", "scheduler.tick", None),
    ("repro.core.offload", "RequestOffloadManager", "execute", "offload.execute", None),
    ("repro.core.offload", "RequestOffloadManager", "preempt", "offload.preempt", 0),
    ("repro.core.offload", "RequestOffloadManager", "resume_load", "offload.resume", 0),
    ("repro.core.offload", "RequestOffloadManager", "resume_recompute", "offload.resume", 0),
    ("repro.memory.kv_manager", "HierarchicalKVManager", "drain_writes", "kv.drain_writes", None),
    ("repro.memory.kv_manager", "HierarchicalKVManager", "fused_decode_advance", "kv.fused_advance", None),
    ("repro.memory.kv_manager", "HierarchicalKVManager", "preempt", "kv.preempt", 0),
    ("repro.memory.kv_manager", "HierarchicalKVManager", "resume_load", "kv.resume_load", 0),
    ("repro.memory.kv_manager", "HierarchicalKVManager", "decode_growth_blocks_bulk", "kv.growth_bulk", None),
    ("repro.memory.blocktable", "PrefixBlockTable", "attach", "blocktable.attach", 0),
    ("repro.memory.blocktable", "PrefixBlockTable", "publish", "blocktable.publish", 0),
    ("repro.memory.blocktable", "PrefixBlockTable", "finish", "blocktable.finish", 0),
    ("repro.memory.blocktable", "PrefixBlockTable", "reclaim", "blocktable.reclaim", None),
    ("repro.client.buffer", "ClientBuffer", "deliver", "buffer.deliver", None),
    ("repro.client.buffer", "ClientBuffer", "deliver_many", "buffer.deliver_many", None),
    # deliver_batch is a module function imported by name into stages.
    ("repro.serving.batchstate", None, "deliver_batch", "batchstate.deliver_batch", None),
    ("repro.serving.stages", None, "deliver_batch", "batchstate.deliver_batch", None),
    ("repro.core.tracker", "RequestTracker", "buffer_seconds", "tracker.buffer_seconds", 0),
    ("repro.core.tracker", "RequestTracker", "buffer_seconds_many", "tracker.buffer_seconds", None),
    ("repro.gpu.latency", "LatencyModel", "decode_step_time", "latency.decode_step", None),
    ("repro.gpu.latency", "LatencyModel", "decode_step_time_from_total", "latency.decode_step", None),
    ("repro.gpu.latency", "LatencyModel", "prefill_time", "latency.prefill", None),
    ("repro.gpu.executor", "LLMExecutor", "commit", "executor.commit", None),
    ("repro.gpu.executor", "LLMExecutor", "commit_fused", "executor.commit", None),
    ("repro.serving.metrics", "StreamingRunStats", "observe", "metrics.observe", 0),
    # build_report is imported by name into the server module.
    ("repro.serving.metrics", None, "build_report", "metrics.report", None),
    ("repro.serving.server", None, "build_report", "metrics.report", None),
    # Inline send runs the shard host's step; send_many loops over send.
    ("repro.serving.shard", "_InlineTransport", "send", "shard.send", None),
    ("repro.serving.shard", "_InlineTransport", "gather", "shard.gather", None),
]

# Router methods are wrapped on every registered router class that
# defines them itself (subclasses override the base implementation).
ROUTER_METHODS = [
    ("select", "router.select"),
    ("select_from_metrics", "router.select"),
    ("snapshot_metric", "router.snapshot"),
]


class Tracer:
    """Span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: list = []      # (id, parent id, name, start, end, req id)
        self._stack: list = []     # open spans: [id, child seconds]
        self._next_id = 0
        self.stats: dict = {}      # name -> [calls, total s, self s]
        self.layer_top: dict = {}  # layer -> seconds not nested in the same layer
        self._layer_depth: dict = {}
        self._patched: list = []   # (owner, attribute, original)

    # --- recording -----------------------------------------------------
    def span(self, name: str, fn, req_arg):
        """A wrapper around ``fn`` that records ``name`` spans."""
        stack = self._stack
        spans = self.spans
        stats = self.stats
        layer = name.split(".", 1)[0]
        layer_depth = self._layer_depth
        layer_top = self.layer_top
        layer_depth.setdefault(layer, 0)
        layer_top.setdefault(layer, 0.0)
        stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            layer_depth[layer] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                row = stats[name]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                layer_depth[layer] -= 1
                if layer_depth[layer] == 0:
                    layer_top[layer] += duration
                rid = None
                if req_arg is not None and len(args) > req_arg:
                    rid = _request_id(args[req_arg])
                spans.append((span_id, parent, name, start, end, rid))

        return traced

    def traced_iter(self, name: str, iterator):
        """Yield from ``iterator``, one ``name`` span per item drawn."""
        draw = self.span(name, next, None)
        while True:
            try:
                item = draw(iterator)
            except StopIteration:
                return
            yield item

    # --- installing ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target (raises if this tracer is already installed)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name, req_arg in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch(owner, attr, name, req_arg, method=class_name is not None)
        from repro.serving.routers import ROUTERS, Router

        classes = {Router, *ROUTERS.values()}
        for cls in sorted(classes, key=lambda c: c.__name__):
            for attr, name in ROUTER_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, name, None, method=True)

    def _patch(self, owner, attr: str, name: str, req_arg, method: bool) -> None:
        original = owner.__dict__[attr] if method else getattr(owner, attr)
        # Methods see ``self`` as args[0]; shift the request argument.
        index = None if req_arg is None else req_arg + (1 if method else 0)
        setattr(owner, attr, self.span(name, original, index))
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def drain_spans(self) -> list:
        """Hand out the recorded spans and forget them."""
        spans = self.spans[:]
        del self.spans[:]
        return spans
