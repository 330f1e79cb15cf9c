"""Slow-lane sweep of the frozen decode oracle: the default path.

Every scenario-registry cell (single-node, ablations, sessions) at
seeds 0 and 1, a multi-replica cluster behind a router, and seeded
random workloads on every scheduler, each compared with the outputs
the per-iteration scalar decode loop produced (``tests/decode_oracle.py``):
RunReport metrics to rel 1e-9, executor counters and timelines
exactly, and never more engine events than the oracle processed.
"""

import pytest

from tests import decode_oracle as oracle

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)


@pytest.mark.parametrize("name,scale", oracle.REGISTRY_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_cell_parity(name, scale, seed):
    oracle.check(oracle.cell(name, scale, seed))


def test_cluster_parity_through_router():
    observed = oracle.check("cluster-router")
    assert len(observed["per_instance"]) == 2
    # Some node fused: the cluster processed fewer events than the
    # per-iteration loop did.
    assert observed["events"] < oracle.goldens()["cluster-router"]["events"]


class TestRandomisedParity:
    def test_fused_equals_unfused(self):
        for seed in oracle.RANDOM_SEEDS["fusion"]:
            oracle.check(f"random:fusion:{seed}")
