"""Unit tests for the Request Tracker."""

import pytest

from repro.core.tracker import RequestTracker
from repro.workload.request import RequestState
from tests.conftest import make_request


@pytest.fixture
def tracker() -> RequestTracker:
    return RequestTracker()


class TestRegistration:
    def test_register_creates_buffer(self, tracker):
        entry = tracker.register(make_request(req_id=1, rate=5.0))
        assert entry.buffer.rate == 5.0
        assert 1 in tracker
        assert len(tracker) == 1

    def test_double_register_rejected(self, tracker):
        tracker.register(make_request(req_id=1))
        with pytest.raises(ValueError):
            tracker.register(make_request(req_id=1))

    def test_get_unknown_raises(self, tracker):
        with pytest.raises(KeyError):
            tracker.get(9)


class TestDelivery:
    def test_deliver_updates_request_and_buffer(self, tracker):
        tracker.register(make_request(req_id=1, output=4))
        tracker.deliver_tokens(1, [0.5])
        entry = tracker.get(1)
        assert entry.request.generated == 1
        assert entry.buffer.delivered == 1
        assert entry.request.ttft == pytest.approx(0.5)

    def test_occupancy_and_deadline(self, tracker):
        tracker.register(make_request(req_id=1, output=32, rate=10.0))
        for idx in range(10):
            tracker.deliver_tokens(1, [0.01 * idx])
        occupancy = tracker.occupancy(1, 0.1)
        assert occupancy == 10 - 2  # two consumed by t=0.1
        assert tracker.buffer_seconds(1, 0.1) == pytest.approx(occupancy / 10.0)

    def test_deliver_many_tokens_in_one_call(self, tracker):
        tracker.register(make_request(req_id=1, output=4, rate=10.0))
        tracker.deliver_tokens(1, [0.5, 0.6, 0.7])
        entry = tracker.get(1)
        assert entry.request.generated == 3
        assert entry.request.token_times == [0.5, 0.6, 0.7]
        assert entry.buffer.delivered == 3
        assert entry.request.ttft == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "timestamps, error",
        [([1.0, 1.1, 1.2, 1.3], RuntimeError),  # one more than output_len
         ([1.0, 0.9], ValueError),              # out of order in the call
         ([0.4], ValueError)],                  # before the last token
    )
    def test_rejected_delivery_changes_nothing(self, tracker, timestamps, error):
        tracker.register(make_request(req_id=1, output=4, rate=10.0))
        tracker.deliver_tokens(1, [0.5])
        with pytest.raises(error):
            tracker.deliver_tokens(1, timestamps)
        entry = tracker.get(1)
        assert entry.request.generated == 1
        assert entry.request.token_times == [0.5]
        assert entry.buffer.delivered == 1

    def test_rate_lookup(self, tracker):
        tracker.register(make_request(req_id=3, rate=7.0))
        assert tracker.rate(3) == 7.0


class TestFinish:
    def test_mark_finished_orders_entries(self, tracker):
        for rid in (1, 2):
            request = make_request(req_id=rid, output=1)
            tracker.register(request)
            request.transition(RequestState.PREFILLING)
            request.transition(RequestState.RUNNING)
        tracker.deliver_tokens(2, [1.0])
        tracker.get(2).request.transition(RequestState.FINISHED)
        tracker.mark_finished(2, 1.0)
        tracker.deliver_tokens(1, [2.0])
        tracker.get(1).request.transition(RequestState.FINISHED)
        tracker.mark_finished(1, 2.0)
        finished = tracker.finished_entries()
        assert [e.request.req_id for e in finished] == [2, 1]

    def test_first_arrival_and_last_activity(self, tracker):
        tracker.register(make_request(req_id=1, arrival=1.0, output=4))
        tracker.register(make_request(req_id=2, arrival=0.5, output=4))
        assert tracker.first_arrival() == 0.5
        tracker.deliver_tokens(1, [3.0])
        assert tracker.last_activity() == pytest.approx(3.0)

    def test_empty_tracker_queries(self, tracker):
        assert tracker.first_arrival() is None
        assert tracker.last_activity() is None
        assert tracker.finished_entries() == []
