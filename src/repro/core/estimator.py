"""Sliding-window runtime estimators (paper §3.3, §4.2.3).

The scheduler needs online estimates of quantities that are only known
after the fact:

* per-token prefill latency — to price recompute-based resumption
  (``t_recompute``);
* queueing delay ``t'`` — the utility function weights token value by
  expected time-to-service, approximated by a moving average;
* both feed the recompute-vs-load decision
  ``t_overhead = min(t_IO, t_recompute)``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np


class SlidingWindowMean:
    """Mean of the last ``window`` observations, O(1) per update."""

    def __init__(self, window: int = 32, initial: Optional[float] = None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self._window = window
        self._values: deque = deque(maxlen=window)
        self._sum = 0.0
        self._initial = initial

    def observe(self, value: float) -> None:
        if len(self._values) == self._window:
            self._sum -= self._values[0]
        self._values.append(value)
        self._sum += value

    def observe_bulk(self, values: list) -> None:
        """Observe each element in order (bulk form of :meth:`observe`
        — identical arithmetic, one call instead of one per sample).

        Replays :meth:`observe`'s exact subtract-then-add float
        sequence over plain list indexing (the running ``_sum`` depends
        on the whole observation history, so it must be replayed, not
        recomputed) and lets the deque's ``maxlen`` evict in one
        ``extend`` — no per-sample method calls.  The fused decode path
        feeds skipped per-iteration footprint observations through
        here, so bulk-vs-sequential bit-parity is a contract
        (pinned by tests/test_core_estimator.py).

        An ``np.ndarray`` input takes an equally exact array path: the
        replayed fold is expressed as one running cumulative sum.
        ``x - a == x + (-a)`` for every float, and prepending the
        current ``_sum`` keeps the fold's grouping, so ``np.cumsum``
        (a sequential scan) performs the identical additions the loop
        would.
        """
        if isinstance(values, np.ndarray):
            self._observe_array(values)
            return
        window = self._window
        dq = self._values
        n_old = len(dq)
        combined = list(dq) + values
        total = self._sum
        for i in range(n_old, len(combined)):
            if i >= window:
                total -= combined[i - window]
            total += combined[i]
        self._sum = total
        dq.extend(values)

    def _observe_array(self, values: np.ndarray) -> None:
        window = self._window
        dq = self._values
        n_old = len(dq)
        n_new = values.size
        if n_new == 0:
            return
        n_total = n_old + n_new
        combined = np.empty(n_total)
        combined[:n_old] = dq
        combined[n_old:] = values
        # New entries landing at combined index < window add without
        # evicting; from index `window` on, each addition is preceded
        # by the eviction of the entry one full window earlier.
        m = min(max(window - n_old, 0), n_new)
        seq = np.empty(1 + m + 2 * (n_new - m))
        seq[0] = self._sum
        seq[1:1 + m] = combined[n_old:n_old + m]
        tail = seq[1 + m:]
        tail[0::2] = -combined[n_old + m - window:n_total - window]
        tail[1::2] = combined[n_old + m:]
        self._sum = float(np.cumsum(seq)[-1])
        dq.extend(values.tolist())

    def mean(self) -> Optional[float]:
        if not self._values:
            return self._initial
        return self._sum / len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)


class PrefillCostEstimator:
    """Sliding-window-averaged per-token prefill latency (§4.2.3)."""

    def __init__(self, window: int = 32, initial_per_token: float = 50e-6) -> None:
        if initial_per_token <= 0:
            raise ValueError("initial_per_token must be positive")
        self._per_token = SlidingWindowMean(window, initial=initial_per_token)

    def observe_prefill(self, n_tokens: int, duration: float) -> None:
        """Record a completed prefill iteration."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._per_token.observe(duration / n_tokens)

    def per_token(self) -> float:
        mean = self._per_token.mean()
        assert mean is not None  # initial value guarantees this
        return mean

    def estimate_recompute(self, context_tokens: int) -> float:
        """t_recompute for re-prefilling ``context_tokens``."""
        if context_tokens < 0:
            raise ValueError("context_tokens must be non-negative")
        return self.per_token() * context_tokens


class QueueDelayEstimator:
    """Moving-average queueing delay t' used by the utility function.

    The paper estimates t' "using a moving average instead of
    computing the exact queuing delay from dynamic scheduling"
    (§4.2.2).  We observe the gap between a request becoming runnable
    and its next decode step.
    """

    def __init__(self, window: int = 64, initial: float = 0.05) -> None:
        self._delay = SlidingWindowMean(window, initial=initial)

    def observe_delay(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._delay.observe(delay)

    def current(self) -> float:
        mean = self._delay.mean()
        assert mean is not None
        return mean
