"""Andes-like QoE-aware baseline (paper baseline #3).

Andes (Liu et al., 2024) schedules for per-request Quality of
Experience: requests falling behind their expected token-delivery
schedule gain priority, and requests running ahead can be preempted.
Following the paper's own benchmarking methodology (§6: "we also
implemented the Andes in SGLang using a recompute-based preemption
approach"), this reimplementation:

* runs a periodic pass that ranks requests by QoE urgency (how far
  behind schedule their token delivery is);
* preempts ahead-of-schedule running requests to make room for urgent
  waiting/preempted ones;
* restores context by *recompute only* — Andes has no hierarchical KV
  offload, so each preemption discards the KV cache and resumption
  pays a full re-prefill (the inefficiency TokenFlow's memory
  co-design removes);
* has no I/O awareness and no admission conservatism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serving.interface import BaseScheduler, SchedulerDecision, SystemView


@dataclass(frozen=True)
class AndesParams:
    """Knobs of the Andes-like policy.

    Attributes:
        tick_interval: period of the QoE scheduling pass.
        ahead_threshold_s: a running request is preemptible once its
            client buffer covers this many seconds of playback.
        max_preempts_per_tick: action cap per pass.
        admission_watermark_frac: free-block watermark for admission.
    """

    tick_interval: float = 0.5
    ahead_threshold_s: float = 1.0
    max_preempts_per_tick: int = 8
    admission_watermark_frac: float = 0.05

    def __post_init__(self) -> None:
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if self.ahead_threshold_s < 0:
            raise ValueError("ahead_threshold_s must be non-negative")
        if self.max_preempts_per_tick <= 0:
            raise ValueError("max_preempts_per_tick must be positive")


class AndesScheduler(BaseScheduler):
    """QoE-urgency preemptive scheduling with recompute-based restore."""

    name = "andes"

    def __init__(self, params: Optional[AndesParams] = None) -> None:
        self.params = params if params is not None else AndesParams()
        self.tick_interval = self.params.tick_interval

    def scheduling_cost_s(self) -> float:
        return 0.0003

    # --- fast path: FCFS admission while memory allows -----------------------
    def can_fuse_window(self, view: SystemView) -> bool:
        """Boundary is stateless and pure (FCFS admission only), so ask
        it directly: an empty decision now stays empty for the whole
        fused window — no free slot appears and free blocks only
        shrink, so a blocked head stays blocked."""
        return self.on_iteration_boundary(view).is_empty()

    def on_iteration_boundary(self, view: SystemView) -> SchedulerDecision:
        decision = SchedulerDecision()
        watermark = int(view.kv.gpu_pool.capacity * self.params.admission_watermark_frac)
        free = view.kv.gpu_free_blocks()
        active = len(view.running) + len(view.prefill_queue) + len(view.loading)
        for request in view.waiting:
            if active >= view.max_batch:
                break
            needed = view.kv.blocks_for_tokens(request.prompt_len)
            if needed + watermark > free:
                break
            decision.admit.append(request)
            free -= needed
            active += 1
        return decision

    # --- the QoE pass -----------------------------------------------------------
    def on_tick(self, view: SystemView) -> SchedulerDecision:
        decision = SchedulerDecision()
        needy = self._needy_requests(view)
        if not needy:
            return decision
        watermark = int(view.kv.gpu_pool.capacity * self.params.admission_watermark_frac)
        free = view.kv.gpu_free_blocks()
        preempts_left = self.params.max_preempts_per_tick
        victims = self._preemption_candidates(view)
        active = len(view.running) + len(view.prefill_queue) + len(view.loading)
        for request, is_waiting in needy:
            needed = view.kv.blocks_for_tokens(
                request.prompt_len if is_waiting else request.context_len
            )
            # Free batch slots and memory by preempting ahead-of-schedule
            # requests (recompute-based: their KV is dropped).
            while (
                (active >= view.max_batch or needed + watermark > free)
                and victims
                and preempts_left > 0
            ):
                victim = victims.pop(0)
                decision.preempt.append(victim)
                free += view.kv.gpu_pool.used_by(victim.req_id)
                preempts_left -= 1
                active -= 1
            if active >= view.max_batch or needed + watermark > free:
                break
            if is_waiting:
                decision.admit.append(request)
            else:
                decision.resume_recompute.append(request)
            free -= needed
            active += 1
        decision.validate()
        return decision

    def _needy_requests(self, view: SystemView) -> list:
        """Urgency-ordered requests that need service.

        Preempted requests are urgent once their buffer approaches
        depletion; waiting requests are urgent by queueing age.
        """
        needy = []
        for request in view.preempted:
            slack = view.tracker.buffer_seconds(request.req_id, view.now)
            needy.append((slack, request.arrival_time, request, False))
        for request in view.waiting:
            age = view.now - request.arrival_time
            needy.append((-age, request.arrival_time, request, True))
        needy.sort(key=lambda item: (item[0], item[1]))
        return [(request, is_waiting) for _, _, request, is_waiting in needy]

    def _preemption_candidates(self, view: SystemView) -> list:
        """Running requests far enough ahead of schedule, fattest first."""
        ahead = [
            (view.tracker.buffer_seconds(r.req_id, view.now), r)
            for r in view.running
        ]
        ahead = [(slack, r) for slack, r in ahead if slack >= self.params.ahead_threshold_s]
        ahead.sort(key=lambda item: item[0], reverse=True)
        return [request for _, request in ahead]

    def select_oom_victims(self, view: SystemView, blocks_needed: int) -> list:
        """Reactive OOM: evict the most ahead-of-schedule requests."""
        ranked = sorted(
            view.running,
            key=lambda r: view.tracker.buffer_seconds(r.req_id, view.now),
            reverse=True,
        )
        victims: list = []
        freed = 0
        for request in ranked:
            if freed >= blocks_needed:
                break
            victims.append(request)
            freed += view.kv.gpu_pool.used_by(request.req_id)
        return victims
