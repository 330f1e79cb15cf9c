"""Shard side of the cluster plane: hosts, protocol and transports.

:class:`~repro.serving.cluster.ServingCluster` splits its replicas
into K contiguous shards.  Each shard is a :class:`ShardHost` — a
slice of replicas on a private :class:`~repro.sim.engine.SimEngine`
— that the coordinator drives with four messages:

* ``apply`` replays routed dispatches ``(time, local_index, request)``;
* ``round`` advances to a dispatch instant and replies with every
  replica's routing metric, plus trajectory snapshots when the router
  is speculative (``Router.speculative``);
* ``finish`` drains to the run horizon and replies with the reports;
* ``stop`` ends a worker's loop without finishing (teardown).

Every message also carries the new rungs of the dispatch ladder (the
global arrival times), the shard's external horizon.

State crosses the process boundary as picklable structures:
``ServingConfig`` slices and a
:class:`~repro.experiments.systems.SchedulerRecipe` outbound,
per-replica ``RunReport`` (sketch-backed at soak scale) inbound.

Transports: ``process`` runs each shard as a long-lived task on the
warm pool from :mod:`repro.orchestration.pool`, talking over manager
queues; ``inline`` runs the same hosts in the coordinator's process.
The two execute identical host code.
"""

from __future__ import annotations

import copy
import heapq
import time
import traceback
from typing import Callable, List, Optional, Sequence

from repro.serving.routers import Router
from repro.serving.server import ServingSystem
from repro.sim.engine import ScopedEngine, SimEngine

# Stateless dispatches buffered between forced flushes: bounds
# coordinator memory on streamed soaks and keeps shard workers fed
# while the coordinator is still routing.
FLUSH_INTERVAL = 1024

# Wall-clock ceiling on waiting for shard replies before declaring the
# run wedged (simulation is deterministic; only a dead worker or a
# broken pool can stall a gather).
GATHER_TIMEOUT_S = 600.0

# Wall-clock grace for shard workers to leave their loop after "stop"
# before the warm pool is retired as unusable.
STOP_TIMEOUT_S = 5.0


class ShardHost:
    """One shard: a slice of cluster replicas on a private engine.

    The same host runs inside a worker process (process transport) or
    in the coordinator's process (inline transport); all simulation
    semantics live here so the transports stay pure plumbing.
    """

    def __init__(
        self,
        shard_id: int,
        configs: Sequence,
        scheduler_factory: Callable[[], object],
        router: Router,
        horizon: Optional[float],
    ) -> None:
        self.shard_id = shard_id
        self.horizon = horizon
        self.engine = SimEngine()
        # The dispatch ladder: every global dispatch instant the
        # coordinator has discovered, this shard's external horizon.
        self.upcoming: List[float] = []
        self.router = router  # measures replicas only (pure)
        self.instances = [
            ServingSystem(
                config,
                scheduler_factory(),
                engine=ScopedEngine(self.engine, self._next_dispatch_time),
            )
            for config in configs
        ]

    def _next_dispatch_time(self) -> Optional[float]:
        """Earliest upcoming dispatch instant (replicas' external horizon).

        Entries at or before the clock are spent — all dispatches at
        time *t* are applied before any replica event at *t* runs — so
        they are lazily dropped here.
        """
        times = self.upcoming
        now = self.engine.now()
        while times and times[0] <= now:
            heapq.heappop(times)
        return times[0] if times else None

    def push_ladder(self, times: Sequence[float]) -> None:
        for t in times:
            heapq.heappush(self.upcoming, t)

    def apply(self, entries: Sequence) -> None:
        """Replay routed dispatches: ``(time, local_index, request)``.

        ``run_before`` drains strictly past events and parks the clock
        at the dispatch instant, so the synchronous part of
        ``submit`` (unfinished accounting) lands before any
        same-instant instance event and the admission events it
        schedules land after them.
        """
        for t, local_idx, request in entries:
            self.engine.run_before(t, until=self.horizon)
            self.instances[local_idx].submit([request])

    def measure(self, t: float, request):
        """Advance to dispatch instant ``t``; measure every replica.

        Returns ``(metrics, snapshots)``: the router's metric for each
        replica, and — for a speculative router — each replica's
        trajectory snapshot, riding on the same reply (``None``
        otherwise).
        """
        self.engine.run_before(t, until=self.horizon)
        router = self.router
        metrics = [router.instance_metrics(instance, request)
                   for instance in self.instances]
        if not router.speculative:
            return metrics, None
        return metrics, [router.instance_snapshot(instance, request)
                         for instance in self.instances]

    def finish(self):
        """Drain to the run horizon and hand the results back."""
        self.engine.run(until=self.horizon)
        reports = [instance.report() for instance in self.instances]
        unfinished = sum(instance.unfinished for instance in self.instances)
        return unfinished, reports, self.engine.events_processed


def _in_main_process() -> bool:
    """True unless running inside a forked worker process."""
    import multiprocessing

    return multiprocessing.current_process().name == "MainProcess"


def _handle_message(host: ShardHost, msg: tuple):
    """Shared protocol step for both transports; returns the reply."""
    kind = msg[0]
    if kind == "apply":
        host.push_ladder(msg[2])
        host.apply(msg[1])
        return None
    if kind == "round":
        host.push_ladder(msg[3])
        return ("metrics", host.shard_id, *host.measure(msg[1], msg[2]))
    if kind == "finish":
        host.push_ladder(msg[1])
        unfinished, reports, events = host.finish()
        return ("done", host.shard_id, unfinished, reports, events)
    raise ValueError(f"unknown shard message {kind!r}")


def _shard_worker_main(
    inbox, outbox, shard_id, configs, scheduler_factory, router, horizon
) -> bool:
    """Long-lived shard loop run as one warm-pool task per run."""
    from repro.orchestration.pool import iter_messages

    try:
        host = ShardHost(shard_id, configs, scheduler_factory, router, horizon)
        while True:
            payload = inbox.get()
            for msg in iter_messages(payload):
                if msg[0] == "stop":
                    return True
                reply = _handle_message(host, msg)
                if reply is not None:
                    outbox.put(reply)
                if msg[0] == "finish":
                    return True
    except BaseException:
        try:
            outbox.put(("error", shard_id, traceback.format_exc()))
        except Exception:
            pass
        return False


class _InlineTransport:
    """Hosts in the coordinator's process; messages become calls."""

    def __init__(self, shard_configs, scheduler_factory, router, horizon):
        self.hosts = [
            ShardHost(s, configs, scheduler_factory, copy.deepcopy(router), horizon)
            for s, configs in enumerate(shard_configs)
        ]
        self._replies: list = []

    def send(self, shard_id: int, msg: tuple) -> None:
        reply = _handle_message(self.hosts[shard_id], msg)
        if reply is not None:
            self._replies.append(reply)

    def send_many(self, shard_id: int, msgs: list) -> None:
        for msg in msgs:
            self.send(shard_id, msg)

    def gather(self, n: int) -> list:
        if len(self._replies) < n:
            raise RuntimeError(
                f"shard protocol error: expected {n} replies, "
                f"got {len(self._replies)}"
            )
        replies = self._replies[:n]
        del self._replies[:n]
        return replies

    def close(self) -> None:
        pass


class _ProcessTransport:
    """Shard loops as warm-pool tasks, talking over manager queues."""

    def __init__(self, shard_configs, scheduler_factory, router, horizon):
        from repro.orchestration.pool import get_manager, get_pool

        n_shards = len(shard_configs)
        pool = get_pool(min_workers=n_shards)
        manager = get_manager()
        self.outbox = manager.Queue()
        self.inboxes = [manager.Queue() for _ in range(n_shards)]
        self.futures = [
            pool.submit(
                _shard_worker_main,
                self.inboxes[s],
                self.outbox,
                s,
                shard_configs[s],
                scheduler_factory,
                router,
                horizon,
            )
            for s in range(n_shards)
        ]

    def send(self, shard_id: int, msg: tuple) -> None:
        self.inboxes[shard_id].put(msg)

    def send_many(self, shard_id: int, msgs: list) -> None:
        # One envelope, one manager-queue round-trip per shard per
        # coordination round (see orchestration.pool message batching).
        from repro.orchestration.pool import pack_messages

        if msgs:
            self.inboxes[shard_id].put(pack_messages(msgs))

    def gather(self, n: int) -> list:
        import queue

        replies: list = []
        deadline = time.monotonic() + GATHER_TIMEOUT_S
        while len(replies) < n:
            try:
                reply = self.outbox.get(timeout=0.25)
            except queue.Empty:
                self._check_futures()
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"sharded run wedged: {n - len(replies)} shard "
                        f"replies missing after {GATHER_TIMEOUT_S:.0f}s"
                    )
                continue
            if reply[0] == "error":
                raise RuntimeError(
                    f"shard {reply[1]} failed:\n{reply[2]}"
                )
            replies.append(reply)
        return replies

    def _check_futures(self) -> None:
        for future in self.futures:
            if future.done() and future.exception() is not None:
                from repro.orchestration.pool import reset_pool

                # A hard worker death (OOM-kill, segfault) breaks the
                # whole pool; retire it so later runs re-fork cleanly.
                reset_pool()
                raise RuntimeError(
                    f"shard worker died: {future.exception()!r}"
                ) from future.exception()

    def close(self) -> None:
        """Stop every shard loop still running, so the warm pool stays
        usable for the next run (its reuse is the point of
        orchestration.pool).

        After a clean run every worker has already returned from
        "finish"; after a failure the surviving workers sit blocked on
        their inbox and leave on "stop".  A worker that does not leave
        within ``STOP_TIMEOUT_S`` would pin a pool slot forever, so the
        pool is retired and the next run forks a fresh one.
        """
        import concurrent.futures

        live = [s for s, future in enumerate(self.futures) if not future.done()]
        for s in live:
            try:
                self.inboxes[s].put(("stop",))
            except Exception:
                pass  # the queue server is gone; the wait below decides
        _, pending = concurrent.futures.wait(
            [self.futures[s] for s in live], timeout=STOP_TIMEOUT_S
        )
        if pending:
            from repro.orchestration.pool import reset_pool

            reset_pool()
