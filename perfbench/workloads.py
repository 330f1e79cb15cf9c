"""The benchmark's four workloads.

Each workload names a registered scenario, the scale it runs at and the
overrides layered on top.  A run of the benchmark draws ``instances``
workload instances from its ``--seed`` (instance ``i`` uses scenario
seed ``seed * instances + i``), so the simulated metrics average over
several independent draws and two runs with different seeds never share
an instance.

Each workload also carries a guard: a check that it still exercises the
layer it was chosen for.  A guard that fails makes the run fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    scale: float
    overrides: dict = field(default_factory=dict)
    # guard(report, target) -> None when the workload did its job, else
    # a one-line reason.
    guard: Optional[Callable] = None
    instances: int = 3
    # Environment the program runs under (set once per benchmark process).
    env: dict = field(default_factory=dict)

    @property
    def sharded(self) -> bool:
        return self.overrides.get("shards", 1) > 1

    def seeds(self, seed: int) -> list:
        return [seed * self.instances + i for i in range(self.instances)]


def prefix_hit_share(report) -> float:
    """Block-table attaches that reused at least one token, over all
    attaches of requests with a sharing identity."""
    kv = report.kv_stats
    return kv.get("prefix_hits", 0) / max(1, kv.get("prefix_lookups", 0))


def _burst_guard(report, target) -> Optional[str]:
    if report.preemptions < 1:
        return "burst ran without a single preemption"
    return None


def _steady_guard(report, target) -> Optional[str]:
    if report.preemptions != 0:
        return f"steady preempted {report.preemptions} times"
    return None


def _prefix_guard(report, target) -> Optional[str]:
    share = prefix_hit_share(report)
    if share < 0.8:
        return f"prefix block-table hit share {share:.3f} < 0.8"
    return None


def _cluster_guard(report, target) -> Optional[str]:
    if getattr(target, "shards", 1) != 2 or getattr(target, "transport", None) != "inline":
        return "cluster did not run 2 shards on the inline transport"
    if target.router.name != "buffer_aware":
        return f"cluster routed with {target.router.name}, not buffer_aware"
    if report.messages_sent < 1:
        return "cluster sent no shard messages"
    return None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("burst", "table1-h200-a", 1.0, guard=_burst_guard),
        Workload("steady", "soak-steady", 0.1, guard=_steady_guard),
        Workload("prefix", "rag-replay", 64.0, guard=_prefix_guard),
        # The shards run on the inline transport: the same shard hosts and
        # coordination protocol in one process.  On 2 vCPUs the process
        # transport's manager-queue round trips measure the OS scheduler.
        Workload(
            "cluster", "cluster-soak-64x", 0.125,
            overrides={"router": "buffer_aware", "shards": 2},
            guard=_cluster_guard, instances=6,
            env={"REPRO_SHARD_INLINE": "1"},
        ),
    )
}
