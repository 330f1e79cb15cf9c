"""Kernel-level oracle for fused KV growth.

``HierarchicalKVManager.fused_decode_advance(ids, k, drain_starts)``
must equal ``k`` rounds of per-token ``on_decode_token`` over the
batch, interleaved with a uniform ``drain_writes`` at each of the
``k - 1`` intermediate boundaries.  ``on_decode_token`` stays in the
program as that reference.  Both allocators are covered: records,
pool usage, the dirty set and the link state must match, and both
managers must pass ``check_invariants()``.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.sim.engine import SimEngine
from repro.workload.request import Request

# Far past every prefill-time transfer, one second apart: each drain
# sees an idle link and a budget of 1e9 bytes.
WINDOW_START = 1e6


def prefilled_manager(allocator, block_size, write_through, contexts, group):
    """A manager with every request resident and its KV fully synced."""
    kv = HierarchicalKVManager(
        SimEngine(), gpu_capacity_blocks=4096, kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e9,
        config=KVManagerConfig(block_size=block_size,
                               write_through=write_through,
                               kv_allocator=allocator),
    )
    for rid, context in enumerate(contexts):
        shared = rid < group
        request = Request(
            req_id=rid, arrival_time=0.0, prompt_len=context, output_len=64,
            rate=10.0, prefix_group=0 if shared else None,
            prefix_len=min(context, 24) if shared else 0,
        )
        kv.register(rid, request)
        kv.allocate_for_prefill(rid, context)
        kv.on_prefill_complete(rid, context)
    kv.drain_writes(0.0, WINDOW_START)
    assert kv.write_backlog_tokens() == 0
    return kv


def state(kv):
    records = {
        rid: (r.gpu_tokens, r.cpu_tokens, r.resident,
              r.pending_free_blocks, r.shared_blocks)
        for rid, r in kv._records.items()
    }
    return (records, dict(kv.gpu_pool.usage), dict(kv.cpu_pool.usage),
            sorted(kv._dirty), kv.link.d2h.busy_until())


@given(
    allocator=st.sampled_from(["naive", "prefix_cow"]),
    block_size=st.sampled_from([1, 4, 16]),
    write_through=st.booleans(),
    contexts=st.lists(st.integers(1, 80), min_size=1, max_size=6),
    group=st.integers(0, 3),
    k=st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_fused_advance_equals_per_token_rounds(allocator, block_size,
                                               write_through, contexts,
                                               group, k):
    fused = prefilled_manager(allocator, block_size, write_through,
                              contexts, group)
    stepped = prefilled_manager(allocator, block_size, write_through,
                                contexts, group)
    assert state(fused) == state(stepped)
    ids = tuple(range(len(contexts)))
    starts = [WINDOW_START + i for i in range(1, k)]

    fused.fused_decode_advance(ids, k, starts if write_through else None)
    for i in range(k):
        for rid in ids:
            stepped.on_decode_token(rid)
        if write_through and i < k - 1:
            synced = stepped.drain_writes(starts[i], starts[i] + 1.0)
            assert synced == len(ids)  # the uniform one-token drain

    assert state(fused) == state(stepped)
    fused.check_invariants()
    stepped.check_invariants()
    for key, value in stepped.stats.items():
        assert fused.stats[key] == pytest.approx(value, rel=1e-9), key
    for attr in ("bytes_moved", "busy_time"):
        assert getattr(fused.link.d2h, attr) == pytest.approx(
            getattr(stepped.link.d2h, attr), rel=1e-9), attr
