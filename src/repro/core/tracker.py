"""Request Tracker (paper §3.1, first component).

Monitors each request's runtime status: buffer token counts, required
consumption rate, per-token generation timestamps, preemption history,
and resource usage.  Both the scheduler (buffer occupancy, drain
deadlines) and the metrics pipeline (QoS inputs) read from here.

The serving loop and the scheduler query the same (request, now)
pairs many times per iteration — the tracker therefore memoises
occupancy per simulation timestamp, so each request's buffer state is
computed at most once per instant no matter how many consumers ask.
:meth:`snapshot` exposes that shared memo as a bulk view both the
server and the scheduler can pass around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.client.buffer import ClientBuffer
from repro.workload.request import Request, RequestState


@dataclass
class TrackedRequest:
    """A request together with its client-side buffer."""

    request: Request
    buffer: ClientBuffer


class TrackerSnapshot:
    """Bulk buffer-state view at one instant, backed by the tracker memo.

    All consumers of the same snapshot (server planning, scheduler
    candidates, write priorities) share one occupancy computation per
    request; the memo is invalidated automatically when a token is
    delivered at the same instant.
    """

    __slots__ = ("_tracker", "now")

    def __init__(self, tracker: "RequestTracker", now: float) -> None:
        self._tracker = tracker
        self.now = now

    def occupancy(self, req_id: int) -> int:
        return self._tracker.occupancy(req_id, self.now)

    def buffer_seconds(self, req_id: int) -> float:
        return self._tracker.buffer_seconds(req_id, self.now)

    def buffer_seconds_many(self, requests: Sequence) -> list:
        """Bulk :meth:`buffer_seconds`, one float per request."""
        return self._tracker.buffer_seconds_many(requests, self.now)


class RequestTracker:
    """Registry of all requests seen by the serving system.

    With ``retire_into`` set (streaming telemetry, see
    :class:`~repro.serving.metrics.StreamingRunStats`), a finished
    request is *retired* the moment :meth:`mark_finished` runs: its
    final metrics fold into the sink and its entry — request object,
    buffer, token timestamps — is dropped, so tracker memory is
    O(active requests) rather than O(total).  The aggregates report
    building needs across retirements (earliest arrival, latest
    activity) are maintained incrementally.
    """

    def __init__(self, record_traces: bool = True, retire_into=None) -> None:
        self._entries: dict[int, TrackedRequest] = {}
        self._finished_order: list = []
        self._record_traces = record_traces
        # Retirement sink: any object with observe(request, buffer).
        self._retire_sink = retire_into
        self._min_arrival: Optional[float] = None
        self._retired_last_activity: Optional[float] = None
        # Per-instant memo: {req_id -> (occupancy, buffer)} valid for
        # queries at `_memo_now`.  Caching the buffer alongside keeps
        # hits to plain dict/attribute access (the interval is read
        # live off the buffer, so mid-stream rate changes are seen
        # immediately even on a hit).
        self._memo_now: Optional[float] = None
        self._memo_occ: dict = {}

    # --- registration ------------------------------------------------------
    def register(self, request: Request) -> TrackedRequest:
        if request.req_id in self._entries:
            raise ValueError(f"request {request.req_id} already tracked")
        entry = TrackedRequest(
            request=request,
            buffer=ClientBuffer(rate=request.rate, record_trace=self._record_traces),
        )
        self._entries[request.req_id] = entry
        if self._min_arrival is None or request.arrival_time < self._min_arrival:
            self._min_arrival = request.arrival_time
        return entry

    @property
    def retire_sink(self):
        """The streaming-telemetry sink (None in retained mode)."""
        return self._retire_sink

    def get(self, req_id: int) -> TrackedRequest:
        if req_id not in self._entries:
            raise KeyError(f"request {req_id} is not tracked")
        return self._entries[req_id]

    def __contains__(self, req_id: int) -> bool:
        return req_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries_by_id(self) -> dict:
        """Live ``{req_id -> TrackedRequest}`` map (treat read-only).

        Exposed for the decode kernels, which deliver straight into
        the buffers and must pair every delivery with an occupancy
        invalidation (:attr:`occupancy_invalidator` or
        :meth:`invalidate_occupancy_all`).
        """
        return self._entries

    @property
    def occupancy_invalidator(self):
        """Bound ``dict.pop`` dropping one request's memoised occupancy
        — invoke as ``invalidator(req_id, None)``.  (The memo dict is
        cleared in place, never rebound, so the bound method stays
        valid for the tracker's lifetime.)"""
        return self._memo_occ.pop

    def invalidate_occupancy_all(self) -> None:
        """Drop every memoised occupancy in one call.

        The vectorised decode plane mutates a whole batch of buffers at
        once; clearing the memo outright is always semantically safe
        (it is a pure cache — misses recompute the identical value) and
        cheaper than one ``pop`` per batch member.
        """
        self._memo_occ.clear()

    # --- event hooks --------------------------------------------------------
    def deliver_tokens(self, req_id: int, timestamps) -> None:
        """Record one generated token at each instant of ``timestamps``
        (in order) flowing into the client buffer.

        The count and the timestamp order are checked
        (:meth:`Request.record_tokens`) before any state changes.
        """
        entry = self._entries.get(req_id)
        if entry is None:
            raise KeyError(f"request {req_id} is not tracked")
        entry.request.record_tokens(timestamps)
        entry.buffer.deliver_many(timestamps)
        # The buffer's occupancy at this very instant changed.
        self._memo_occ.pop(req_id, None)

    def mark_finished(self, req_id: int, timestamp: float) -> None:
        entry = self.get(req_id)
        entry.request.finish_time = timestamp
        if self._retire_sink is not None:
            self._retire(req_id, entry, timestamp)
        else:
            self._finished_order.append(req_id)

    def _retire(self, req_id: int, entry: TrackedRequest, timestamp: float) -> None:
        """Fold a finished entry into the sink and drop it.

        The entry's contribution to :meth:`last_activity` — its final
        consumption time and finish time — is captured first, so the
        report-time makespan is unchanged by retirement.
        """
        self._retire_sink.observe(entry.request, entry.buffer)
        latest = self._retired_last_activity
        final = entry.buffer.final_consumption_time()
        for candidate in (final, timestamp):
            if candidate is not None and (latest is None or candidate > latest):
                latest = candidate
        self._retired_last_activity = latest
        del self._entries[req_id]
        self._memo_occ.pop(req_id, None)

    # --- scheduler queries -----------------------------------------------------
    def _memo_entry(self, req_id: int, now: float) -> tuple:
        """(occupancy, buffer) at ``now``, computed at most once per
        (request, now) — repeated queries at the same instant hit the
        memo."""
        if now != self._memo_now:
            self._memo_now = now
            self._memo_occ.clear()
            cached = None
        else:
            cached = self._memo_occ.get(req_id)
        if cached is None:
            buffer = self.get(req_id).buffer
            cached = (buffer.occupancy(now), buffer)
            self._memo_occ[req_id] = cached
        return cached

    def occupancy(self, req_id: int, now: float) -> int:
        """b_rem: unread tokens currently buffered for this request."""
        return self._memo_entry(req_id, now)[0]

    def rate(self, req_id: int) -> float:
        return self.get(req_id).request.rate

    def buffer_seconds(self, req_id: int, now: float) -> float:
        """Buffer occupancy measured in seconds of consumption: how long
        until this request's buffer runs dry at rate r, the slack before
        preempting it would stall the client.

        Derived from the memoised occupancy and the buffer's *current*
        interval, so a mid-stream :meth:`ClientBuffer.set_rate` is
        reflected immediately even on a memo hit.
        """
        occ, buffer = self._memo_entry(req_id, now)
        return occ * buffer.interval

    def buffer_seconds_many(self, requests: Sequence, now: float) -> list:
        """:meth:`buffer_seconds` for each request, one flat pass.

        Same values as the per-request query (it fills the same
        per-instant memo); batched for the scheduler's ranking passes,
        which decorate-sort the result instead of paying a key
        callback per element.
        """
        if now != self._memo_now:
            self._memo_now = now
            self._memo_occ.clear()
        memo = self._memo_occ
        memo_get = memo.get
        entries = self._entries
        out = []
        append = out.append
        for request in requests:
            req_id = request.req_id
            cached = memo_get(req_id)
            if cached is None:
                buffer = entries[req_id].buffer
                cached = (buffer.occupancy(now), buffer)
                memo[req_id] = cached
            occ, buffer = cached
            append(occ * buffer.interval)
        return out

    def min_buffer_seconds(self, requests: Sequence, now: float) -> float:
        """Smallest ``buffer_seconds`` across ``requests`` (non-empty).

        The serving loop's per-iteration min-buffer index.
        """
        if not requests:
            raise ValueError("min_buffer_seconds needs a non-empty request set")
        return min(self.buffer_seconds_many(requests, now))

    def snapshot(self, now: float) -> TrackerSnapshot:
        """Bulk buffer-state view at ``now`` sharing the per-instant memo."""
        return TrackerSnapshot(self, now)

    # --- metric queries --------------------------------------------------------
    def entries(self) -> Iterable[TrackedRequest]:
        return self._entries.values()

    def finished_entries(self) -> list:
        return [
            self._entries[rid]
            for rid in self._finished_order
            if self._entries[rid].request.state is RequestState.FINISHED
        ]

    def all_requests(self) -> list:
        return [entry.request for entry in self._entries.values()]

    def first_arrival(self) -> Optional[float]:
        """Earliest arrival ever registered (tracked incrementally, so
        the answer survives retirement of the entry that set it)."""
        return self._min_arrival

    def last_activity(self) -> Optional[float]:
        """Latest token-generation or consumption timestamp observed."""
        latest: Optional[float] = self._retired_last_activity
        for entry in self._entries.values():
            final = entry.buffer.final_consumption_time()
            for candidate in (final, entry.request.finish_time):
                if candidate is not None and (latest is None or candidate > latest):
                    latest = candidate
        return latest
