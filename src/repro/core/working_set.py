"""Working-set determination and admission control (paper §4.2.1).

The working set is the group of requests the system actively serves —
possibly more than fit in GPU memory (overcommitment), with the excess
offloaded to the CPU pool.  Its size is bounded statically by hardware
(Eq. 4) and adjusted dynamically with demand (Eq. 5):

    W_static    = ⌊ M / β ⌋                                (Eq. 4)
    W_scheduled = W_static − λ·(W_static − N_running)      (Eq. 5)

where β is the estimated per-request memory footprint (learned online
from observed context lengths) and λ ∈ [0,1] controls how fast the
working set tracks demand.  Overcommitment multiplies the static bound
by ``overcommit_factor`` (the CPU pool absorbs the surplus).

Admission of a new request additionally requires that preempting an
existing request is *safe*: some running request must hold enough
buffered tokens to survive the swap —

    b_rem ≥ μ · r · (τ_evict + τ_load + τ_schedule)

with safety factor μ ≥ 1 ("buffer conservativeness", the Fig. 23
knob).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.estimator import SlidingWindowMean


@dataclass(frozen=True)
class WorkingSetParams:
    """Knobs for working-set sizing and admission.

    Attributes:
        overcommit_factor: how far the working set may exceed the
            GPU-resident capacity (CPU pool absorbs the rest).
        adjust_rate: λ of Eq. 5.
        safety_factor: μ — buffer conservativeness (Fig. 23).
        schedule_latency: τ_schedule, the scheduler interval share of
            the swap budget.
        beta_window: window of the per-request footprint estimator.
        initial_beta_tokens: footprint prior before observations.
    """

    overcommit_factor: float = 2.0
    adjust_rate: float = 0.5
    safety_factor: float = 2.0
    schedule_latency: float = 0.5
    beta_window: int = 64
    initial_beta_tokens: float = 1024.0

    def __post_init__(self) -> None:
        if self.overcommit_factor < 1.0:
            raise ValueError("overcommit_factor must be >= 1")
        if not 0.0 <= self.adjust_rate <= 1.0:
            raise ValueError("adjust_rate must be in [0, 1]")
        if self.safety_factor < 1.0:
            raise ValueError("safety_factor (mu) must be >= 1")
        if self.schedule_latency < 0:
            raise ValueError("schedule_latency must be non-negative")


class WorkingSetPolicy:
    """Sizing + admission logic for the scheduler's working set."""

    def __init__(
        self,
        gpu_capacity_tokens: float,
        params: Optional[WorkingSetParams] = None,
    ) -> None:
        if gpu_capacity_tokens <= 0:
            raise ValueError("gpu_capacity_tokens must be positive")
        self.params = params if params is not None else WorkingSetParams()
        self._capacity_tokens = float(gpu_capacity_tokens)
        self._beta = SlidingWindowMean(
            self.params.beta_window, initial=self.params.initial_beta_tokens
        )

    # --- footprint estimation (β) -------------------------------------------
    def observe_footprint(self, context_tokens: int) -> None:
        """Feed an observed request context length into the β estimate."""
        if context_tokens <= 0:
            raise ValueError("context_tokens must be positive")
        self._beta.observe(float(context_tokens))

    def observe_footprints(self, requests) -> None:
        """Bulk β update from a batch of requests' context lengths.

        Equivalent to calling :meth:`observe_footprint` for each
        request with a positive context, in order — the scheduler runs
        this once per iteration over the whole decode batch.  (Request
        validates ``prompt_len > 0``, so every context is positive and
        no filter is needed.)
        """
        self._beta.observe_bulk(
            [float(r.prompt_len + r.generated) for r in requests]
        )

    def replay_footprints(self, context_tokens: list) -> None:
        """Exact bulk replay of skipped :meth:`observe_footprints` calls.

        The fused decode path skips per-iteration scheduler boundaries
        whose only side effect is this β observation; it hands the
        full (ordered) observation sequence here so the estimator ends
        in the bit-identical state the per-iteration calls would have
        produced.
        """
        self._beta.observe_bulk(context_tokens)

    def beta(self) -> float:
        mean = self._beta.mean()
        assert mean is not None
        return max(1.0, mean)

    # --- sizing (Eq. 4 / Eq. 5) ------------------------------------------------
    def w_static(self) -> int:
        """Eq. 4: GPU-resident request capacity ⌊M/β⌋ (at least 1)."""
        return max(1, int(self._capacity_tokens // self.beta()))

    def w_max(self) -> int:
        """Overcommitted upper bound on the working-set size."""
        return max(1, int(self.w_static() * self.params.overcommit_factor))

    def w_scheduled(self, n_running: int) -> int:
        """Eq. 5: demand-adjusted working-set size.

        Scales down toward ``n_running`` when the system is
        under-utilised; pinned at ``w_max`` once demand saturates it.
        """
        if n_running < 0:
            raise ValueError("n_running must be non-negative")
        w_static = self.w_static()
        w_max = self.w_max()
        if n_running >= w_max:
            return w_max
        scheduled = w_static - self.params.adjust_rate * (w_static - n_running)
        # Overcommitment headroom grows with demand pressure.
        scheduled = max(scheduled, float(n_running))
        return max(1, min(w_max, int(round(scheduled + (w_max - w_static) * min(1.0, n_running / max(1, w_static))))))

    # --- admission (buffer criterion) --------------------------------------------
    def swap_budget(self, tau_evict: float, tau_load: float) -> float:
        """Total latency a preempted request must ride out on its buffer."""
        return tau_evict + tau_load + self.params.schedule_latency

    def admission_buffer_requirement(
        self, rate: float, tau_evict: float, tau_load: float
    ) -> float:
        """Minimum buffered tokens (b_rem) for a safe preemption.

        b_rem ≥ μ · r · (τ_evict + τ_load + τ_schedule).
        """
        if rate <= 0:
            raise ValueError("rate must be positive")
        return self.params.safety_factor * rate * self.swap_budget(tau_evict, tau_load)

    def is_preemption_safe(
        self,
        buffered_tokens: float,
        rate: float,
        tau_evict: float,
        tau_load: float,
    ) -> bool:
        """True if a request with this buffer survives a swap cycle."""
        return buffered_tokens >= self.admission_buffer_requirement(
            rate, tau_evict, tau_load
        )
