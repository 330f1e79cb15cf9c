"""Slow-lane sweep of the frozen decode oracle: the kernels' edges.

Every scenario-registry cell at seeds 0 and 1 is re-run with per-token
traces on, which routes each row of the array kernel through its
per-request scalar fallback, and compared with the same frozen
outputs as the default path (``tests/decode_oracle.py``).  Seeded
random workloads, pre-scheduled cancels and a cancel landing while a
fused window is pending cover the rest.
"""

import pytest

from repro.experiments.systems import build_system
from repro.workload.request import RequestState, clone_requests
from tests import decode_oracle as oracle

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)


@pytest.mark.parametrize("name,scale", oracle.REGISTRY_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_cell_parity(name, scale, seed):
    # Per-token traces change no RunReport number, so the traced run
    # must match the default path's golden too.
    observed = oracle.run_scenario(name, scale, seed,
                                   record_token_traces=True)
    oracle.check(oracle.cell(name, scale, seed), observed)


def test_cancellation_parity():
    """Pre-scheduled cancels cut fused windows and land as in the
    oracle (tokens streamed before each cancel included)."""
    oracle.check("cancel")


def test_external_cancel_while_window_pending():
    """A synchronous cancel between stepped run() calls removes a
    batch member while a fused window is in flight; the array
    kernel must deliver to the survivors only."""
    requests = oracle.burst(4, output=128)
    system = build_system("sglang", hardware="h200", mem_frac=0.1,
                          max_batch=8)
    system.submit(clone_requests(requests))
    stream = system.decode_stream
    cancelled_at = None
    for _ in range(200_000):
        system.run(until=10_000.0, max_events=1)
        if (cancelled_at is None and stream.inflight is not None
                and stream.inflight[0] == "fused"):
            req = system.tracker.get(2).request
            if req.state is RequestState.RUNNING and req.generated >= 1:
                system.cancel(2)
                cancelled_at = req.generated
        if not system.unfinished:
            break
    assert cancelled_at is not None, "no fused window was pending"
    assert system.report().n_finished == 3
    assert system.tracker.get(2).request.generated == cancelled_at
    for rid in (0, 1, 3):
        entry = system.tracker.get(rid)
        assert entry.request.generated == entry.request.output_len
        assert entry.buffer.delivered == entry.request.output_len


class TestRandomisedParity:
    def test_vectorized_equals_scalar(self):
        for seed in oracle.RANDOM_SEEDS["vectorize"]:
            oracle.check(f"random:vectorize:{seed}")
