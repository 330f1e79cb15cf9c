"""Client-side token buffer with consumption and stall accounting.

The consumer model follows the paper (§3.2): the user starts reading
at the first token's arrival and wants one token every ``1/rate``
seconds thereafter.  Token ``j`` is *consumed* at

    c_j = max(c_{j-1} + 1/rate, g_j)

where ``g_j`` is its generation (delivery) time.  Whenever
``g_j > c_{j-1} + 1/rate`` the user wanted a token that did not exist
yet — the difference accrues as rebuffer (stall) time.

Everything is computed incrementally, O(1) per delivered token.  The
consumption schedule is piecewise arithmetic: between *anchors* (a
stall, which re-bases consumption at the late token's arrival, or a
mid-stream rate change) consumption times advance by exactly one
``interval`` per token.  The buffer therefore keeps only the anchor
*segments* plus a cursor, giving closed-form O(1) occupancy queries —
``consumed_count`` replays the identical float additions the delivery
path performed, so results are bit-identical to a per-token scan.

The buffer also records ``B_{i,j}`` — the buffered-token count at the
moment token ``j`` was generated — which both the QoS metric (Eq. 1)
and the effective-throughput weight need.  It is kept as a compact
occupancy histogram; full per-token traces (generation/consumption
timestamps) are recorded only when ``record_trace`` is enabled, so
memory-lean simulations can switch them off without changing any
metric.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class ClientBuffer:
    """Token buffer for one streaming request."""

    def __init__(self, rate: float, record_trace: bool = True) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        # Public, read-only by convention: the current pacing interval
        # (1/rate).  A plain attribute (not a property) because the
        # scheduler reads it on every buffer-seconds query.
        self.interval = 1.0 / rate
        self._rate_changes = 0
        self._delivered = 0
        self._stall_time = 0.0
        self._last_gen: Optional[float] = None
        self._last_consume: Optional[float] = None
        # Pacing interval of the newest (tail) segment; a delivery whose
        # current interval differs starts a fresh segment.
        self._tail_interval: Optional[float] = None
        # Consumption cursor: `_consumed` tokens have consumption time
        # <= the latest query; `_next_consume` is the consumption time
        # of token index `_consumed` (None when everything delivered is
        # consumed); `_cursor_interval` advances the cursor within its
        # current segment; `_segments` holds (first_index,
        # first_consume_time, interval) for segments the cursor has not
        # reached yet.  Queries must come with non-decreasing ``now``
        # (true for a simulation), which keeps this O(1) amortised.
        self._consumed = 0
        self._next_consume: Optional[float] = None
        self._cursor_interval = 0.0
        self._segments: deque = deque()
        # Compact aggregate: occupancy-at-generation histogram
        # {occupancy -> token count}, enough for Eq. 1 / §7.1.3 weights.
        self._occ_hist: dict = {}
        # Unmerged histogram contributions from the vectorised batch
        # plane: (values, counts) numpy-array pairs, one per fused
        # window, folded into ``_occ_hist`` lazily on first read
        # (histogram addition commutes, so deferring is exact).
        self._occ_pending: list = []
        # Optional unbounded per-token traces (plots, JSONL export).
        self._trace = record_trace
        self._gen_times: Optional[list] = [] if record_trace else None
        self._consume_times: Optional[list] = [] if record_trace else None
        self._occupancy_at_gen: Optional[list] = [] if record_trace else None

    def set_rate(self, rate: float) -> None:
        """Change the consumption rate from now on (adaptive clients, §8).

        Already-scheduled consumption times are unchanged; only the
        pacing of future tokens uses the new rate.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if rate != self.rate:
            self.rate = rate
            self.interval = 1.0 / rate
            self._rate_changes += 1

    @property
    def rate_changes(self) -> int:
        """Number of mid-stream rate adjustments applied."""
        return self._rate_changes

    # --- delivery --------------------------------------------------------
    def deliver(self, timestamp: float) -> None:
        """Record delivery of one token at ``timestamp``.

        The only copy of the consumption state machine: every other
        delivery path either calls it (:meth:`deliver_many`) or is the
        array kernel that solves the same recurrence for a whole batch
        (:func:`repro.serving.batchstate.deliver_batch`).
        """
        if self._last_gen is not None and timestamp < self._last_gen:
            raise ValueError("deliveries must have non-decreasing timestamps")
        self._last_gen = timestamp
        interval = self.interval
        last_consume = self._last_consume
        if last_consume is not None:
            ideal = last_consume + interval
            if timestamp > ideal:
                # The consumer wanted this token before it existed:
                # rebuffer, then consumption re-bases at its arrival.
                self._stall_time += timestamp - ideal
                consume = timestamp
                fresh_segment = True
            else:
                consume = ideal
                fresh_segment = interval != self._tail_interval
        else:
            # First token: consumption starts when it arrives; startup
            # delay is charged via the TTFT penalty, not as a stall.
            consume = timestamp
            fresh_segment = True
        index = self._delivered
        if self._next_consume is None and self._consumed == index:
            # Cursor is parked at the end of the stream: point it at
            # this token directly (no segment record needed).
            self._next_consume = consume
            self._cursor_interval = interval
        elif fresh_segment:
            self._segments.append((index, consume, interval))
        if fresh_segment:
            self._tail_interval = interval
        self._last_consume = consume
        self._delivered = index + 1
        if self._trace:
            self._gen_times.append(timestamp)
            self._consume_times.append(consume)
        # Occupancy at generation; inline consumed_count's no-advance
        # early exit (the common case — consumption is mid-interval).
        nxt = self._next_consume
        if nxt is None or nxt > timestamp:
            occupancy = self._delivered - self._consumed
        else:
            occupancy = self._delivered - self.consumed_count(timestamp)
        count = self._occ_hist.get(occupancy)
        self._occ_hist[occupancy] = 1 if count is None else count + 1
        if self._trace:
            self._occupancy_at_gen.append(occupancy)

    def deliver_many(self, timestamps) -> None:
        """Record delivery of one token at each of ``timestamps``, in order.

        A loop over :meth:`deliver`.  ``timestamps`` must be
        non-decreasing (a violation raises, as in :meth:`deliver`).  A
        rate change mid-call (e.g. from a generator driving
        ``timestamps``) raises RuntimeError: the serving loop cannot
        hit this, since rate changes land at scheduler ticks, between
        windows, and the vectorised batch plane
        (:mod:`repro.serving.batchstate`) bakes the same assumption
        into its array kernel.
        """
        interval = self.interval
        deliver = self.deliver
        for timestamp in timestamps:
            if self.interval != interval:
                raise RuntimeError(
                    "rate changed mid-delivery: set_rate must not run "
                    "while deliver_many is iterating its timestamps"
                )
            deliver(timestamp)

    # --- queries ---------------------------------------------------------
    def consumed_count(self, now: float) -> int:
        """Number of tokens consumed by time ``now``.

        Queries must come with non-decreasing ``now`` (true for a
        simulation); the cursor never moves backwards.
        """
        nxt = self._next_consume
        if nxt is None or nxt > now:
            return self._consumed
        consumed = self._consumed
        delivered = self._delivered
        interval = self._cursor_interval
        segments = self._segments
        while nxt is not None and nxt <= now:
            consumed += 1
            if segments and segments[0][0] == consumed:
                _, nxt, interval = segments.popleft()
            elif consumed < delivered:
                # Same arithmetic (and float rounding) as deliver():
                # one repeated addition per token within a segment.
                nxt = nxt + interval
            else:
                nxt = None
        self._consumed = consumed
        self._next_consume = nxt
        self._cursor_interval = interval
        return consumed

    def occupancy(self, now: float) -> int:
        """Tokens delivered but not yet consumed at ``now`` (b_rem)."""
        return self._delivered - self.consumed_count(now)

    def drain_deadline(self, now: float) -> float:
        """Seconds until the buffer empties at the required rate.

        This is the slack a scheduler has before preempting this
        request would cause a stall.  Returns 0 for an empty buffer.
        """
        return self.occupancy(now) * self.interval

    @property
    def delivered(self) -> int:
        """Total tokens delivered so far."""
        return self._delivered

    @property
    def stall_time(self) -> float:
        """Accumulated rebuffer time (seconds), excluding startup delay."""
        return self._stall_time

    def _flush_occ_pending(self) -> None:
        """Fold the batch plane's deferred histogram slices into the dict.

        The dict's own entries and every pending slice are merged with
        one dense ``np.bincount`` (occupancies are small non-negative
        ints) and the dict is rebuilt with C-level ``dict(zip(...))`` —
        no per-bucket Python loop.  Counts are integers, so the merge
        is exact regardless of grouping; keys come back sorted.
        """
        import numpy as np

        pending = self._occ_pending
        hist = self._occ_hist
        vals = [v for v, _ in pending]
        counts = [c for _, c in pending]
        if hist:
            n = len(hist)
            vals.append(np.fromiter(hist.keys(), np.int64, count=n))
            counts.append(np.fromiter(hist.values(), np.int64, count=n))
        total = np.bincount(
            np.concatenate(vals), weights=np.concatenate(counts)
        )
        nonzero = np.nonzero(total)[0]
        self._occ_hist = dict(
            zip(nonzero.tolist(), total[nonzero].astype(np.int64).tolist())
        )
        pending.clear()

    @property
    def occupancy_histogram(self) -> dict:
        """``{B -> count}`` over all delivered tokens (treat read-only).

        ``B`` is the buffered-token count at a token's generation
        instant — the compact aggregate behind Eq. 1 and the §7.1.3
        effective-throughput weights.
        """
        if self._occ_pending:
            self._flush_occ_pending()
        return self._occ_hist

    def _require_trace(self) -> None:
        if not self._trace:
            raise RuntimeError(
                "per-token traces are disabled for this buffer "
                "(construct ClientBuffer(..., record_trace=True))"
            )

    @property
    def generation_times(self) -> list:
        """Per-token delivery timestamps (single materialisation —
        callers must treat the returned list as read-only)."""
        self._require_trace()
        return self._gen_times

    @property
    def consumption_times(self) -> list:
        """Per-token consumption timestamps (read-only view)."""
        self._require_trace()
        return self._consume_times

    @property
    def occupancy_at_generation(self) -> list:
        """B_{i,j}: buffered tokens at each token's generation instant
        (read-only view)."""
        self._require_trace()
        return self._occupancy_at_gen

    def final_consumption_time(self) -> Optional[float]:
        """When the user finishes the stream (None if nothing delivered)."""
        return self._last_consume
