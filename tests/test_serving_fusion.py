"""Decode windows: formation, parity with the frozen oracle, edges.

The decode path fuses K >= 2 iterations into one event whenever the
batch provably cannot change inside the window.  It must be
*observationally equivalent* to the per-iteration scalar loop, whose
outputs are frozen in ``tests/decode_oracle.py``: every RunReport
metric to rel 1e-9, identical timelines, preemption counts and
per-token traces, while processing fewer engine events.
"""

import pytest

from repro.experiments.systems import build_system
from repro.workload.request import RequestState, clone_requests
from tests import decode_oracle as oracle


def run_system(name, requests, horizon=10_000.0, **kwargs):
    system = build_system(name, **kwargs)
    system.submit(clone_requests(requests))
    system.run(until=horizon)
    return system


class TestWindowFormation:
    def test_windows_form_and_events_drop(self):
        system = run_system("tokenflow", oracle.burst(8, output=192),
                            hardware="h200", model="llama3-8b",
                            mem_frac=0.1, max_batch=16)
        stats = system.report().executor_stats
        assert stats["fused_windows"] > 0
        assert stats["fused_iterations"] > stats["fused_windows"]
        observed = oracle.check("windows")
        assert observed["events"] < oracle.goldens()["windows"]["events"]

    def test_iteration_accounting_matches(self):
        system = run_system("tokenflow", oracle.burst(6, output=128),
                            hardware="h200", mem_frac=0.1, max_batch=8)
        stats = system.report().executor_stats
        assert 0 < stats["fused_iterations"] <= stats["decode_iterations"]
        oracle.check("accounting")


class TestParityAcrossSystems:
    @pytest.mark.parametrize("name", oracle.MEMORY_PRESSURE_SYSTEMS)
    def test_memory_pressure_parity(self, name):
        # The golden scenario's shape: a burst that forces admission
        # control, preemption, and resumption under a tiny KV pool.
        oracle.check(f"pressure:{name}")

    @pytest.mark.parametrize("name", oracle.ABLATION_SYSTEMS)
    def test_ablation_parity(self, name):
        oracle.check(f"ablation:{name}")


class TestParityEdgeCases:
    def test_token_traces_bit_identical(self):
        oracle.check("token-traces")

    def test_cancellation_parity(self):
        # Cancels are pre-scheduled engine events, so the window
        # horizon must stop windows strictly before them.
        oracle.check("cancel")

    def test_in_flight_transfer_blocks_fusion(self):
        # A d2h transfer occupying the link past the window (an
        # eviction in flight) must stop fusion even when the dirty
        # backlog is empty: the per-iteration drains inside such a
        # window find zero idle budget and sync *nothing*, so
        # replicating uniform drains would advance host copies the
        # real path leaves dirty.  The run is stepped every 0.05 s so
        # a divergence shows mid-busy-window in the host-copy series,
        # not only in the end-of-run totals (which reconverge once the
        # link frees).
        oracle.check("in-flight-transfer")

    def test_external_cancel_while_window_pending(self):
        # ServingSystem.cancel() is a public synchronous call: between
        # stepped run() invocations it can remove a batch member while
        # a fused window's completion event is still pending.  The
        # completion must skip the departed request like
        # complete_decode does, not crash on its released KV record,
        # and the cancelled request must receive no further tokens.
        system = build_system("sglang", hardware="h200", mem_frac=0.1,
                              max_batch=8)
        system.submit(clone_requests(oracle.burst(4, output=128)))
        cancelled_at = None
        for _ in range(200_000):
            system.run(until=10_000.0, max_events=1)
            if cancelled_at is None and 2 in system.tracker:
                req = system.tracker.get(2).request
                if (system._busy and req.state is RequestState.RUNNING
                        and req.generated >= 1):
                    system.cancel(2)
                    cancelled_at = req.generated
            if not system.unfinished:
                break
        assert cancelled_at is not None, "cancel never triggered"
        assert system.unfinished == 0
        assert system.report().n_finished == 3
        # Tokens already streamed stay; nothing lands after cancel.
        assert system.tracker.get(2).request.generated == cancelled_at
        survivors = [system.tracker.get(rid).request for rid in (0, 1, 3)]
        assert all(r.generated == r.output_len for r in survivors)

    def test_until_stepping_parity(self):
        # Driving the engine in run(until=...) increments must match a
        # single drain: windows cap at the run bound so no iteration
        # completing after `until` is applied early.
        oracle.check("accounting")
        oracle.check("until-stepping")
