"""The one cluster class at every shard count, against frozen goldens.

:class:`~repro.serving.cluster.ServingCluster` splits its replicas into
K shards that each advance to a conservative horizon (the router's next
dispatch time).  The reference is the frozen oracle's ``cluster:``
cases (``tests/decode_oracle.py``), recorded from the shared-engine
cluster that ran every replica on one event loop.  Every K ∈ {1, 2, 4}
× {inline, process} transport × {submit, feed} intake variant must
reproduce it: floats to rel 1e-9; integers, placements and timelines
exactly.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.experiments.systems import SchedulerRecipe
from repro.scenarios.build import build_run
from repro.scenarios.registry import get_scenario
from repro.serving import ServingCluster, ServingConfig, shard
from repro.serving.metrics import report_fingerprint
from repro.serving.routers import LeastLoadedRouter, Router
from tests import decode_oracle as oracle

ALL_ROUTERS = oracle.CLUSTER_ROUTERS
SHARDS = (1, 2, 4)
TRANSPORTS = ("inline", "process")
INTAKES = ("submit", "feed")


def api_case(router: str) -> str:
    return f"cluster:api:{router}"


def scenario_case(name: str, router: str, seed: int) -> str:
    scale = oracle.CLUSTER_SCENARIOS[name]
    return f"cluster:{name}:{scale}:{router}:{seed}"


def check_variant(case, shards, transport="inline", intake="submit"):
    """Run ``case`` as one variant and compare it with its golden."""
    observed = oracle.observe_variant(case, shards, transport,
                                      streamed=intake == "feed")
    return oracle.check(case, observed)


def _cluster(router="least_loaded", shards=2, transport="inline",
             requests=None):
    cluster = ServingCluster.homogeneous(
        4, SchedulerRecipe("tokenflow"), router=router,
        shards=shards, transport=transport,
        mem_frac=0.02, max_batch=16,
    )
    cluster.submit(oracle.cluster_requests() if requests is None else requests)
    cluster.run()
    return cluster


# --- fast lane: direct API ---------------------------------------------------

@pytest.mark.parametrize("intake", INTAKES)
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("shards", SHARDS)
def test_every_variant_matches_golden(shards, transport, intake):
    check_variant(api_case("least_loaded"), shards, transport, intake)


@pytest.mark.parametrize("router", ALL_ROUTERS)
def test_inline_parity_every_router(router):
    """K=2 inline shards reproduce the golden bit-for-bit."""
    check_variant(api_case(router), shards=2)


def test_shard_count_invariance():
    """K ∈ {1, 4} reproduce every router's golden (4 replicas)."""
    for router in ALL_ROUTERS:
        for shards in (1, 4):
            check_variant(api_case(router), shards, intake="feed")


def test_process_transport_parity():
    """Real worker processes: state crosses pickling boundaries intact,
    for every stateful router."""
    for router in ("buffer_aware", "least_queued", "session_affinity"):
        check_variant(api_case(router), shards=2, transport="process")


def test_process_transport_stateless_router():
    """round_robin exercises the buffered (round-free) fast path."""
    check_variant(api_case("round_robin"), shards=2, transport="process")


def test_feed_matches_submit():
    for intake in INTAKES:
        check_variant(api_case("least_queued"), shards=2, intake=intake)


def test_horizon_truncation_matches_classic():
    """Requests past the horizon stay pending at every shard count.

    Submitted runs count every request past the horizon as unfinished.
    A fed run stops at the first arrival past it, so the rest of the
    stream is never drawn and only that one counts.
    """
    case = f"cluster:api:least_loaded:until={oracle.CLUSTER_HORIZON}"
    golden = oracle.goldens()[case]
    unrouted = sum(r.arrival_time > oracle.CLUSTER_HORIZON
                   for r in oracle.cluster_requests())
    assert golden["unfinished"] > unrouted > 1
    for shards in SHARDS:
        check_variant(case, shards)
        observed = oracle.observe_variant(case, shards, "inline",
                                          streamed=True)
        assert (observed.pop("unfinished")
                == golden["unfinished"] - (unrouted - 1)), shards
        oracle.assert_close(
            observed, {k: v for k, v in golden.items() if k != "unfinished"},
            f"{case} shards={shards}",
        )


def test_shards_clamped_to_replicas():
    cluster = ServingCluster.homogeneous(
        4, SchedulerRecipe("tokenflow"), shards=16, mem_frac=0.02)
    assert cluster.shards == 4


def test_non_shardable_router_rejected():
    """A router must split measurement from selection: one that only
    picks from the live instances cannot be built."""
    class OpaqueRouter(Router):
        name = "opaque"

        def select(self, instances, request):
            return 0

    with pytest.raises(TypeError, match="select_from_metrics"):
        OpaqueRouter()


def test_env_switch_selects_inline_transport(monkeypatch):
    def transport(shards):
        return ServingCluster.homogeneous(
            4, SchedulerRecipe("tokenflow"), shards=shards).transport

    monkeypatch.setenv("REPRO_SHARD_INLINE", "1")
    assert transport(2) == "inline"
    monkeypatch.delenv("REPRO_SHARD_INLINE")
    assert transport(2) == "process"


def test_unknown_transport_rejected():
    with pytest.raises(ValueError, match="transport"):
        ServingCluster.homogeneous(2, SchedulerRecipe("tokenflow"),
                                   transport="carrier-pigeon")


def test_run_twice_raises():
    cluster = _cluster(requests=oracle.cluster_requests(8))
    with pytest.raises(RuntimeError, match="already ran"):
        cluster.run()
    with pytest.raises(RuntimeError, match="already ran"):
        cluster.submit(oracle.cluster_requests(1))


def test_report_before_run_raises():
    cluster = ServingCluster.homogeneous(2, SchedulerRecipe("tokenflow"))
    with pytest.raises(RuntimeError, match="before report"):
        cluster.report()


def test_scheduler_recipe_pickles():
    recipe = pickle.loads(pickle.dumps(SchedulerRecipe("tokenflow")))
    assert recipe().name == "tokenflow"


# --- fast lane: teardown ------------------------------------------------------

class ShardOneFaultRouter(LeastLoadedRouter):
    """least_loaded that raises while measuring the replicas built with
    ``max_batch=15`` (the second shard below) for request 3 onwards."""

    name = "shard_one_fault"

    def instance_metrics(self, instance, request):
        if instance.config.max_batch == 15 and request.req_id >= 3:
            raise RuntimeError("injected router fault")
        return super().instance_metrics(instance, request)


def test_shard_fault_tears_down_every_shard(monkeypatch):
    """A shard raising mid-run surfaces at once and stops the other
    shard, so the next run on the same warm pool is healthy."""
    monkeypatch.setattr(shard, "GATHER_TIMEOUT_S", 20.0)
    configs = ([ServingConfig(mem_frac=0.02, max_batch=16)] * 2
               + [ServingConfig(mem_frac=0.02, max_batch=15)] * 2)
    faulty = ServingCluster(configs, SchedulerRecipe("tokenflow"),
                            router=ShardOneFaultRouter(), shards=2,
                            transport="process")
    faulty.submit(oracle.cluster_requests())
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="injected router fault"):
        faulty.run()
    assert time.monotonic() - start < 5.0

    start = time.monotonic()
    check_variant(api_case("least_loaded"), shards=2, transport="process")
    assert time.monotonic() - start < 10.0


# --- fast lane: scenario/CLI plumbing ---------------------------------------

def test_build_run_builds_one_cluster_class():
    for shards in (1, 2):
        run = build_run(get_scenario("cluster-burst-4x", scale=0.1,
                                     shards=shards))
        assert isinstance(run.target, ServingCluster)
        assert run.target.shards == shards


def test_sharded_cells_inside_matrix_workers():
    """Sharded cells run (and exit) cleanly inside pool workers.

    A nested warm pool inside a matrix worker deadlocks worker
    shutdown (multiprocessing joins the worker's children before the
    nested executor's atexit shutdown runs), so the cluster must fall
    back to the inline transport off the main process — with
    identical results.
    """
    from repro.orchestration import MatrixSpec, run_matrix

    spec = MatrixSpec.from_axes(
        scenarios=["cluster-burst-4x"], shards=[1, 2], seeds=[0], scale=0.05
    )
    report = run_matrix(spec, jobs=2, cache=False)
    cells = report.cells
    assert all(cell.ok for cell in cells), [cell.status for cell in cells]
    assert repr(report_fingerprint(cells[0].report)) == repr(
        report_fingerprint(cells[1].report)
    )


def test_registry_parity_process_transport():
    """One registry scenario end-to-end through real worker processes."""
    check_variant(scenario_case("cluster-burst-4x", "least_loaded", 0),
                  shards=2, transport="process")


# --- slow lane: exhaustive registry sweep ------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("router", ALL_ROUTERS)
@pytest.mark.parametrize("name", sorted(oracle.CLUSTER_SCENARIOS))
def test_registry_sweep_bit_identical(name, router, seed):
    """Scenarios × routers × seeds × {submit, feed} at K=2 == golden."""
    for intake in INTAKES:
        check_variant(scenario_case(name, router, seed), shards=2,
                      intake=intake)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(oracle.CLUSTER_SCENARIOS))
def test_registry_shard_count_invariance(name):
    """K ∈ {1, 4} reproduce every router's golden of the scenario."""
    for router in ALL_ROUTERS:
        for shards in (1, 4):
            check_variant(scenario_case(name, router, 0), shards,
                          intake="feed")


@pytest.mark.slow
def test_soak_process_transport_parity():
    """64 replicas over 4 real worker processes, round_robin fast path."""
    check_variant(scenario_case("cluster-soak-64x", "round_robin", 0),
                  shards=4, transport="process")


# --- speculative dispatch ----------------------------------------------------
#
# The trajectory-snapshot mirror (Router.speculative) changes nothing
# observable except the coordination counters: placements and reports
# match the goldens while rounds collapse for stateful routers.

def test_speculation_cuts_rounds():
    cluster = _cluster(router="least_loaded")
    # least_loaded reads replica state on every dispatch.
    stateful = len(oracle.cluster_requests())
    assert cluster.coordination_rounds < stateful
    # Every stateful dispatch except the very first (no mirror yet —
    # nothing to speculate against) is accounted: resolved
    # speculatively (hit), validated by a round (hit), or rolled back
    # (miss).
    assert (cluster.speculation_hits + cluster.speculation_misses
            == stateful - 1)


def test_speculation_counters_surface_in_cluster_report():
    cluster = _cluster(router="least_loaded")
    report = cluster.report()
    assert report.coordination_rounds == cluster.coordination_rounds
    assert report.messages_sent == cluster.messages_sent
    assert report.speculation_hits == cluster.speculation_hits
    assert report.speculation_misses == cluster.speculation_misses
    assert report.speculation_hits > 0


def test_speculation_non_speculative_router_unchanged():
    """buffer_aware opts out of snapshots: every stateful dispatch
    pays one round, and nothing is speculated."""
    cluster = _cluster(router="buffer_aware")
    assert cluster.coordination_rounds == len(oracle.cluster_requests())
    assert cluster.speculation_hits == cluster.speculation_misses == 0


def test_speculation_process_transport_parity():
    """Snapshots pickle across the worker boundary intact."""
    cluster = _cluster(router="least_loaded", transport="process")
    assert oracle.placements_digest(cluster.placements) == (
        oracle.goldens()[api_case("least_loaded")]["placements"])
    assert cluster.speculation_hits > 0


def test_session_affinity_speculation_folds_sticky_hits():
    """Sticky (stateless) placements must fold into the mirror too —
    matching the golden proves the folded trajectory stays exact."""
    check_variant(api_case("session_affinity"), shards=2)
    cluster = _cluster(router="session_affinity")
    # Only a session's first turn reads replica state.
    sessions = {r.session_id for r in oracle.cluster_requests()}
    assert cluster.coordination_rounds < len(sessions)


@pytest.mark.slow
def test_soak_least_loaded_speculation_process_parity():
    """The acceptance workload: 64 replicas, least_loaded, 4 real
    worker processes — the shared-engine cluster's golden."""
    check_variant(scenario_case("cluster-soak-64x", "least_loaded", 0),
                  shards=4, transport="process")


# --- per-shard streaming telemetry (O(active) reports) -----------------------

def test_shard_workers_retire_finished_into_sketches():
    """Under feed with retain_per_request=False (the soak setting),
    shard workers retire finished requests into QuantileSketch-backed
    stats locally: the per-instance reports crossing the worker
    boundary carry sketches and no per-request rows."""
    spec = get_scenario("cluster-soak-64x", scale=0.02, seed=0,
                        shards=2)
    assert spec.retain_per_request is False
    run = build_run(spec)
    run.target.transport = "inline"
    report = run.execute()  # stream-native: drives the feed path
    assert report.n_finished > 0
    for node in report.per_instance:
        assert node.stream_stats is not None
        assert node.per_request == []
    # The placement map is the other O(total-requests) structure;
    # streaming soaks drop it and keep only per-instance counters.
    assert run.target.placements == {}
    assert sum(run.target.placement_counts()) == report.n_requests
