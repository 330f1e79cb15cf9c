"""Multi-replica serving cluster (paper §8, "Scaling TokenFlow").

The paper argues TokenFlow's single-node scheduling generalises to
multi-node serving by adding a dispatch layer above per-node
schedulers.  :class:`ServingCluster` is that layer: N independent
:class:`~repro.serving.server.ServingSystem` replicas, split into K
contiguous shards (:mod:`repro.serving.shard`, each on its own
engine), and a pluggable :class:`~repro.serving.routers.Router` that
places each arriving request on a replica.  Each node then runs its
own buffer-aware scheduler and hierarchical KV manager exactly as in
the single-node system.  ``shards=1`` (the default) runs one shard in
the coordinator's process; every shard count produces the same
report.

The coordinator drives the shards with the conservative-window
discipline of parallel discrete-event simulation:

* Replicas never interact except **at dispatch instants**, where the
  router reads replica state.  Between consecutive dispatch times
  every replica's evolution is fully determined, so a shard may run
  ahead to the next dispatch instant without any risk of a causality
  violation — the dispatch "ladder" (the global sequence of arrival
  times) is each shard's lookahead bound, surfaced to the fusion
  plane through a :class:`~repro.sim.engine.ScopedEngine` external
  horizon.  A replica's horizon never depends on which shard its
  siblings live in, so it forms the same fused decode windows at any
  shard count, executor stats included.
* At a dispatch that needs replica state (``least_loaded``,
  ``least_queued``, ``buffer_aware``, sticky misses), the coordinator
  runs a **round**: every shard advances to that instant and reports
  per-replica metrics, and the router's pure ``select_from_metrics``
  decides here, in global replica order — the only place router state
  mutates, so placements replay exactly.
* Dispatches that need no state (``round_robin`` striping,
  ``session_affinity`` sticky hits) are decided immediately and
  buffered; whole stretches of them collapse into one ``apply``
  message per shard, which keeps coordination overhead small at soak
  scale.
* **Speculative dispatch** extends that cheapness to stateful routers
  that implement the trajectory snapshot protocol
  (``Router.speculative`` — ``least_loaded`` and ``session_affinity``
  over it).  Their round replies carry per-replica *trajectory
  snapshots* next to the metrics: the metric's value, the one
  already-scheduled completion event that can change it, and a proven
  exactness horizon.  The coordinator folds every confirmed placement
  into this mirrored table and resolves whole epochs of arrivals
  against it — one round, N selections replayed in arrival order — as
  long as every replica's horizon covers the arrival; the first
  arrival past any horizon takes a speculative pick from the stale
  mirror, then an authoritative round validates it (a mismatch is
  rolled back by routing the still-undelivered request to the
  authoritative index before any shard sees it, so shards only ever
  observe confirmed placements).  See ARCHITECTURE.md ("Sharded
  cluster plane") for the exactness argument.

Cluster metrics reuse the single-node report aggregation from
:func:`repro.serving.metrics.aggregate_reports`.  The inter-node KV
layer the paper sketches (migrating offloaded context between nodes
over RDMA) is out of scope: a request never moves after placement,
which matches today's deployed LLM routers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.serving.config import ServingConfig
from repro.serving.metrics import RunReport, aggregate_reports
from repro.serving.routers import Router, make_router
from repro.serving.shard import (
    FLUSH_INTERVAL,
    _in_main_process,
    _InlineTransport,
    _ProcessTransport,
)


@dataclass
class ClusterReport:
    """Aggregate results across cluster instances."""

    per_instance: list = field(default_factory=list)  # RunReport each
    # The full folded RunReport the scalar fields below are drawn from
    # (kept so consumers never re-aggregate the per-instance rows).
    aggregate: Optional[RunReport] = None
    n_requests: int = 0
    n_finished: int = 0
    total_tokens: int = 0
    throughput: float = 0.0
    effective_throughput: float = 0.0
    qos: float = 0.0
    ttft_mean: float = 0.0
    ttft_p50: float = 0.0
    ttft_p99: float = 0.0
    stall_total: float = 0.0
    preemptions: int = 0
    # Coordination accounting: blocking metric-gather rounds, protocol
    # messages, and speculative dispatch outcomes.  Deliberately
    # excluded from parity fingerprints — they describe the
    # *execution*, not the simulated system, and legitimately vary
    # across shard counts.
    coordination_rounds: int = 0
    messages_sent: int = 0
    speculation_hits: int = 0
    speculation_misses: int = 0


class ServingCluster:
    """N serving replicas in K shards behind an arrival router.

    Build it from ``configs`` + ``scheduler_factory`` + ``router``,
    record arrivals with ``submit``/``feed``, then ``run(until)`` once
    (all simulation happens inside that call) and ``report()``.

    ``transport`` picks how shards run when ``shards > 1``:
    ``"process"`` (default) runs each shard as a long-lived task on
    the warm pool from :mod:`repro.orchestration.pool`; ``"inline"``
    (or ``REPRO_SHARD_INLINE=1``) runs the same shard hosts in this
    process.  One shard always runs inline.  ``scheduler_factory`` and
    the workload requests must be picklable for the process transport
    (use :class:`~repro.experiments.systems.SchedulerRecipe`).
    """

    def __init__(
        self,
        configs: Sequence,
        scheduler_factory: Callable[[], object],
        router: Union[str, Router] = "least_loaded",
        shards: int = 1,
        transport: Optional[str] = None,
    ) -> None:
        if not configs:
            raise ValueError("need at least one instance config")
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.router = make_router(router)
        self.configs = list(configs)
        n = len(self.configs)
        # More shards than replicas would leave empty workers; clamp.
        self.shards = min(shards, n)
        sizes = [
            n // self.shards + (1 if s < n % self.shards else 0)
            for s in range(self.shards)
        ]
        starts = [sum(sizes[:s]) for s in range(self.shards)]
        self._shard_configs = [
            self.configs[starts[s]:starts[s] + sizes[s]]
            for s in range(self.shards)
        ]
        self._shard_start = starts
        self._shard_of = [
            s for s in range(self.shards) for _ in range(sizes[s])
        ]
        self.scheduler_factory = scheduler_factory
        if transport is None:
            transport = (
                "inline" if os.environ.get("REPRO_SHARD_INLINE") == "1"
                else "process"
            )
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown shard transport {transport!r}")
        self.transport = transport
        self.placements: dict = {}
        # With streaming telemetry on every replica the per-request
        # placement map would be the last O(total-requests) structure
        # left in a soak run; keep only the per-replica counters then.
        self._retain_placements = any(
            config.retain_per_request for config in self.configs
        )
        self._placement_counts = [0] * n
        self._pending: list = []       # submitted, not yet run
        self._stream = None            # fed, not yet run
        self._pending_dispatch = 0     # left unrouted at the horizon
        self._ran = False
        self._instance_reports: Optional[list] = None
        self._unfinished_final = 0
        # Coordination accounting (benchmarks read these after run()).
        self.coordination_rounds = 0
        self.messages_sent = 0
        self.speculation_hits = 0
        self.speculation_misses = 0
        self.shard_events: List[int] = []

    @classmethod
    def homogeneous(
        cls,
        n_instances: int,
        scheduler_factory: Callable[[], object],
        router: Union[str, Router] = "least_loaded",
        shards: int = 1,
        transport: Optional[str] = None,
        **config_kwargs,
    ) -> "ServingCluster":
        """Build ``n_instances`` identical nodes."""
        if n_instances <= 0:
            raise ValueError("n_instances must be positive")
        configs = [ServingConfig(**config_kwargs) for _ in range(n_instances)]
        return cls(configs, scheduler_factory, router=router, shards=shards,
                   transport=transport)

    # --- workload intake --------------------------------------------------
    def submit(self, requests: Sequence) -> None:
        """Record arrivals; routing happens inside :meth:`run`."""
        if self._ran:
            raise RuntimeError("cluster already ran")
        for request in requests:
            if request.arrival_time < 0.0:
                raise ValueError(
                    f"request {request.req_id} arrives in the past"
                )
        self._pending.extend(requests)

    def feed(self, stream, lookahead: int = 1) -> None:
        """Record a lazy arrival stream; consumed inside :meth:`run`.

        The coordinator pops one request at a time (the streamed-run
        memory contract) and rejects out-of-order arrivals like
        :meth:`ServingSystem.feed <repro.serving.server.ServingSystem.feed>`;
        streamed and submitted runs place identically.
        """
        if self._ran:
            raise RuntimeError("cluster already ran")
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        if self._stream is not None:
            raise RuntimeError("cluster already has a pending stream")
        self._stream = iter(stream)

    def _iter_dispatches(self, until: Optional[float]):
        """Arrival-ordered dispatch sequence, truncated at the horizon.

        A submitted request whose arrival falls past ``until`` counts
        as pending (unfinished); a streamed run stops at the first
        such pop without materialising the rest.
        """
        if self._stream is not None:
            last = None
            for request in self._stream:
                if last is not None and request.arrival_time < last:
                    raise ValueError(
                        f"request {request.req_id} arrives in the past "
                        f"({request.arrival_time} < {last}) — workload "
                        f"streams must be ordered by arrival time"
                    )
                last = request.arrival_time
                if until is not None and request.arrival_time > until:
                    self._pending_dispatch += 1
                    return
                yield request
            return
        # Stable sort: ties keep submission order.
        for request in sorted(self._pending, key=lambda r: r.arrival_time):
            if until is not None and request.arrival_time > until:
                self._pending_dispatch += 1
                continue
            yield request

    # --- coordination loop ------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        if self._ran:
            raise RuntimeError("cluster already ran")
        self._ran = True
        if (self.shards == 1 or self.transport == "inline"
                or not _in_main_process()):
            # One shard always runs in-process.  Inside a pool worker
            # (e.g. a `repro matrix --jobs N` cell) a nested warm pool
            # deadlocks worker shutdown: multiprocessing's _bootstrap
            # joins all non-daemon children via util._exit_function
            # BEFORE the nested executor's threading-atexit shutdown
            # runs, so the nested workers are never told to exit.  The
            # inline transport runs the identical host code in-process
            # — bit-identical results, and no jobs×shards process
            # oversubscription.
            transport_cls = _InlineTransport
        else:
            transport_cls = _ProcessTransport
        transport = transport_cls(
            self._shard_configs, self.scheduler_factory, self.router, until
        )
        # Every exit path — a shard raising, a worker dying, the
        # coordinator itself throwing — stops the shards it started,
        # so a failed run never leaves a worker blocked on its inbox.
        try:
            replies = self._coordinate(transport, until)
        finally:
            transport.close()
        reports: list = []
        unfinished = 0
        self.shard_events = []
        for _, _, shard_unfinished, shard_reports, events in replies:
            unfinished += shard_unfinished
            reports.extend(shard_reports)
            self.shard_events.append(events)
        self._instance_reports = reports
        self._unfinished_final = unfinished + self._pending_dispatch
        self._pending = []
        self._stream = None
        if until is not None:
            return until
        return max(
            (report.makespan for report in reports if report is not None),
            default=0.0,
        )

    def _coordinate(self, transport, until: Optional[float]) -> list:
        """Route every arrival, finish every shard; the "done" replies
        in shard order."""
        n = len(self.configs)
        n_shards = self.shards
        ladder: List[float] = []          # every discovered dispatch time
        sent = [0] * n_shards             # per-shard ladder watermark
        buffered: List[list] = [[] for _ in range(n_shards)]

        def ladder_delta(s: int) -> list:
            delta = ladder[sent[s]:]
            sent[s] = len(ladder)
            return delta

        def flush(s: int) -> None:
            if buffered[s]:
                transport.send(s, ("apply", buffered[s], ladder_delta(s)))
                self.messages_sent += 1
                buffered[s] = []

        router = self.router
        # The mirrored metrics table: one trajectory snapshot per
        # replica (global order), refreshed by every round's replies
        # and folded forward by every confirmed placement.
        mirror: Optional[list] = None

        since_flush = 0
        for request in self._iter_dispatches(until):
            t = request.arrival_time
            ladder.append(t)
            if not router.needs_state(request):
                idx = router.select_from_metrics(n, None, request)
            elif (
                mirror is not None
                and all(router.snapshot_fresh(m, t) for m in mirror)
            ):
                # Epoch-batched speculative resolution: every mirror
                # entry is provably exact at t, so this selection —
                # replayed against the folding table in arrival order —
                # is the one a round would make, with zero messages.
                metrics = [router.snapshot_metric(m, t) for m in mirror]
                idx = router.select_from_metrics(n, metrics, request)
                self.speculation_hits += 1
            else:
                # Round: every shard advances to t and reports metrics
                # (plus snapshots for a speculative router); selection
                # happens here, in global replica order.  A stale
                # mirror first yields a speculative pick to validate.
                spec_idx = None
                if mirror is not None:
                    preview = [router.snapshot_metric(m, t) for m in mirror]
                    spec_idx = router.peek_from_metrics(n, preview, request)
                for s in range(n_shards):
                    msgs = []
                    if buffered[s]:
                        msgs.append(("apply", buffered[s], ladder_delta(s)))
                        buffered[s] = []
                        msgs.append(("round", t, request, []))
                    else:
                        msgs.append(("round", t, request, ladder_delta(s)))
                    transport.send_many(s, msgs)
                    self.messages_sent += len(msgs)
                replies = _by_shard(transport.gather(n_shards), "metrics")
                self.coordination_rounds += 1
                metrics = []
                snaps: list = []
                for _, _, shard_metrics, shard_snaps in replies:
                    metrics.extend(shard_metrics)
                    if shard_snaps is not None:
                        snaps.extend(shard_snaps)
                if router.speculative:
                    mirror = snaps
                idx = router.select_from_metrics(n, metrics, request)
                if spec_idx is not None:
                    # Validate the speculative pick against the
                    # authoritative selection.  A miss is repaired
                    # right here, before any shard-visible effect:
                    # the request has not been delivered, so the
                    # rollback is simply routing it to the
                    # authoritative index instead.
                    if spec_idx == idx:
                        self.speculation_hits += 1
                    else:
                        self.speculation_misses += 1
            # Every confirmed placement — speculative, round-resolved,
            # or stateless — folds into the mirrored table so later
            # speculative selections see it.
            if mirror is not None:
                router.fold_snapshot(mirror[idx], t, request)
            if self._retain_placements:
                self.placements[request.req_id] = idx
            self._placement_counts[idx] += 1
            s = self._shard_of[idx]
            buffered[s].append((t, idx - self._shard_start[s], request))
            since_flush += 1
            if since_flush >= FLUSH_INTERVAL:
                for s in range(n_shards):
                    flush(s)
                since_flush = 0

        for s in range(n_shards):
            flush(s)
            transport.send(s, ("finish", ladder_delta(s)))
            self.messages_sent += 1
        return _by_shard(transport.gather(n_shards), "done")

    # --- reporting --------------------------------------------------------
    @property
    def unfinished(self) -> int:
        if not self._ran:
            return len(self._pending)
        return self._unfinished_final

    def report(self) -> ClusterReport:
        """Aggregate per-replica reports into cluster totals.

        Aggregation reuses the single-node report builder
        (:func:`repro.serving.metrics.aggregate_reports`), so the
        cluster's TTFT percentiles, throughput, stalls, and QoS follow
        exactly the single-node definitions.
        """
        if self._instance_reports is None:
            raise RuntimeError("run() the cluster before report()")
        reports = self._instance_reports
        total = aggregate_reports(reports)
        return ClusterReport(
            per_instance=reports,
            aggregate=total,
            n_requests=total.n_requests,
            n_finished=total.n_finished,
            total_tokens=total.total_tokens,
            throughput=total.throughput,
            effective_throughput=total.effective_throughput,
            qos=total.qos,
            ttft_mean=total.ttft_mean,
            ttft_p50=total.ttft_p50,
            ttft_p99=total.ttft_p99,
            stall_total=total.stall_total,
            preemptions=total.preemptions,
            coordination_rounds=self.coordination_rounds,
            messages_sent=self.messages_sent,
            speculation_hits=self.speculation_hits,
            speculation_misses=self.speculation_misses,
        )

    def placement_counts(self) -> list:
        """Requests routed to each replica (load-balance check)."""
        return list(self._placement_counts)


def _by_shard(replies: list, kind: str) -> list:
    """``replies`` (one per shard, any order) sorted by shard id."""
    for reply in replies:
        if reply[0] != kind:
            raise RuntimeError(
                f"shard protocol error: expected {kind}, got {reply[0]!r}"
            )
    return sorted(replies, key=lambda reply: reply[1])
