"""Property-based tests for the hierarchical KV manager.

Random sequences of lifecycle operations (prefill, decode, drain,
preempt, resume, release) must never corrupt pool accounting: used
blocks match owner sums, cpu copies never exceed what was generated,
dirty counts stay non-negative, and draining the event engine leaves
no orphaned blocks.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.memory.blocks import OutOfMemory
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.sim.engine import SimEngine

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

N_REQUESTS = 4

operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["prefill", "decode", "drain", "preempt", "resume_load",
             "recompute", "release"]
        ),
        st.integers(min_value=0, max_value=N_REQUESTS - 1),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=80,
)


def fresh_manager(write_through=True, enable_offload=True):
    engine = SimEngine()
    kv = HierarchicalKVManager(
        engine=engine,
        gpu_capacity_blocks=48,
        kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e6,
        config=KVManagerConfig(
            block_size=16, write_through=write_through,
            enable_offload=enable_offload,
        ),
    )
    return engine, kv


def drive(engine, kv, ops, write_through=True):
    """Apply an operation sequence, tolerating (only) legal rejections."""
    now = [0.0]

    def tick():
        now[0] += 0.01
        return now[0]

    state = {i: "new" for i in range(N_REQUESTS)}
    for op, rid, amount in ops:
        t = tick()
        engine.run(until=t)
        try:
            if op == "prefill" and state[rid] == "new":
                kv.register(rid)
                kv.allocate_for_prefill(rid, amount)
                kv.on_prefill_complete(rid, amount)
                state[rid] = "resident"
            elif op == "decode" and state[rid] == "resident":
                kv.on_decode_token(rid)
            elif op == "drain":
                kv.drain_writes(t, t + amount / 1000.0)
            elif op == "preempt" and state[rid] == "resident":
                kv.preempt(rid, t)
                state[rid] = "offloaded"
            elif op == "resume_load" and state[rid] == "offloaded":
                if kv.can_resume_load(rid):
                    kv.resume_load(rid, t)
                    state[rid] = "resident"
            elif op == "recompute" and state[rid] == "offloaded":
                kv.prepare_recompute(rid)
                ctx = max(1, amount)
                kv.allocate_for_prefill(rid, ctx)
                kv.on_prefill_complete(rid, ctx)
                state[rid] = "resident"
            elif op == "release" and state[rid] in ("resident", "offloaded"):
                kv.release(rid)
                state[rid] = "released"
        except OutOfMemory:
            pass  # legal rejection under pressure
        kv.check_invariants()
        assert kv.gpu_pool.used <= kv.gpu_pool.capacity
    return state


class TestKVManagerProperties:
    @given(ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_random_lifecycles_keep_invariants(self, ops):
        engine, kv = fresh_manager()
        drive(engine, kv, ops)
        engine.run()  # flush deferred frees
        kv.check_invariants()

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    # Preempt again while the first eviction's transfer is in flight: the
    # second preempt must not count the pending-free blocks as its own.
    @example(ops=[("prefill", 3, 21), ("preempt", 3, 1), ("resume_load", 3, 1),
                  ("preempt", 3, 1), ("resume_load", 3, 1)])
    def test_write_back_mode_invariants(self, ops):
        engine, kv = fresh_manager(write_through=False)
        drive(engine, kv, ops, write_through=False)
        engine.run()
        kv.check_invariants()

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_recompute_only_mode_invariants(self, ops):
        engine, kv = fresh_manager(enable_offload=False)
        drive(engine, kv, ops)
        engine.run()
        kv.check_invariants()

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_full_release_returns_all_memory(self, ops):
        engine, kv = fresh_manager()
        state = drive(engine, kv, ops)
        for rid, s in state.items():
            if s in ("resident", "offloaded"):
                kv.release(rid)
        engine.run()
        assert kv.gpu_pool.used == 0
        assert kv.cpu_pool.used == 0

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_cpu_copy_never_exceeds_context(self, ops):
        engine, kv = fresh_manager()
        drive(engine, kv, ops)
        for rid in list(kv.resident_requests()):
            record = kv.record(rid)
            assert record.cpu_tokens <= record.gpu_tokens
            assert record.dirty_tokens >= 0
