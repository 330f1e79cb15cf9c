"""Shard-scaling harness for the cluster simulation.

Runs the 64-replica ``cluster-soak-64x`` scenario on
:class:`~repro.serving.cluster.ServingCluster` at each shard count
K ∈ {1, 2, 4} — one in-process shard for K=1, worker processes on
the warm pool for K > 1 — asserting

* **parity** — every K > 1 run reproduces the one-shard run's
  observation (report, per-replica stats, placements; see
  ``tests/decode_oracle.py``), and
* **overhead** — the best K > 1 wall clock stays within
  ``MAX_OVERHEAD`` of the one-shard baseline.  On a machine with
  fewer CPUs than shards, sharding cannot win by parallelism; the
  gate bounds what the coordination protocol (ladder messages,
  pickling, queue round-trips) costs.

A second block measures the **speculative dispatch** acceptance point:
``least_loaded`` over K=4 shards.  Without speculation every stateful
dispatch would pay one blocking round; with it, arrivals resolve
against the trajectory-snapshot mirror, and the rounds actually paid
must be at least 5x fewer than the counted stateful dispatches, and
(rounds are deterministic) at most 10% above the best speculative row
of the committed ``benchmarks/BENCH_shard.json`` history.  Both figures
land in the artifact's ``speculation`` block and extend its ``history``
trajectory by one row when they differ from the last committed row.

Writes ``benchmarks/out/BENCH_shard.json``; the tracked file is the
committed reference that ``tests/test_perf_trajectory.py`` guards.

Run just this harness with::

    PYTHONPATH=src python -m pytest benchmarks/test_shard_scaling.py -q -s
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import committed_artifact, emit, record_artifact
from repro.orchestration.pool import get_pool
from repro.scenarios.build import build_run
from repro.scenarios.registry import CLUSTER_SOAK_REPLICAS, get_scenario
from repro.serving.routers import make_router

from tests.decode_oracle import assert_close, observe_cluster

SCENARIO = "cluster-soak-64x"
SCALE = 0.25
SEED = 0
SHARD_COUNTS = (1, 2, 4)

# Coordination-overhead ceiling: best K > 1 wall / one-shard wall.
# Splitting one 64-replica event heap into K small ones more than pays
# for the round_robin ladder messages, so the measured figure sits
# below 1.0; 1.15 leaves honest noise headroom.
MAX_OVERHEAD = 1.15

# Trajectory band: live speculative rounds may exceed the best
# committed speculative row by at most this fraction.
ALLOWED_ROUNDS_REGRESSION = 0.10

BENCH_NAME = "BENCH_shard.json"


def _timed_run(shards, router=None):
    """Execute one soak run at ``shards`` shards (process transport)."""
    overrides = {"shards": shards}
    if router is not None:
        overrides["router"] = router
    spec = get_scenario(SCENARIO, scale=SCALE, seed=SEED, **overrides)
    run = build_run(spec)
    run.target.transport = "process"
    t0 = time.perf_counter()
    report = run.execute()
    wall = time.perf_counter() - t0
    return run.target, report, wall


def _stateful_dispatches(router_name):
    """Dispatches of the soak workload that read replica state: what a
    coordinator without speculation pays one round each for.  Counted
    for a router whose ``needs_state`` ignores earlier placements."""
    router = make_router(router_name)
    spec = get_scenario(SCENARIO, scale=SCALE, seed=SEED)
    return sum(router.needs_state(r) for r in spec.build_workload_stream())


def test_shard_scaling_soak64():
    # Warm the shared worker pool so cold fork/import cost does not
    # land inside any timed region (matrix cells amortise it the same
    # way via orchestration.pool).
    pool = get_pool(min_workers=max(SHARD_COUNTS))
    list(pool.map(abs, range(2 * max(SHARD_COUNTS))))

    rows = []
    for shards in SHARD_COUNTS:
        target, report, wall = _timed_run(shards)
        observed = observe_cluster(target, report)
        if shards == 1:
            baseline, baseline_wall = observed, wall
            n_requests = report.n_requests
        else:
            assert_close(observed, baseline, f"K={shards}")
        rows.append({
            "shards": shards,
            "wall_s": round(wall, 4),
            "overhead": round(wall / baseline_wall, 4),
            "coordination_rounds": target.coordination_rounds,
            "messages_sent": target.messages_sent,
            "shard_events": target.shard_events,
        })

    # --- speculative dispatch: rounds/messages trajectory -------------
    # The stateful-router acceptance point: least_loaded over K=4
    # shards, against one round per stateful dispatch (what the
    # coordinator pays without the snapshot mirror).  Counts are
    # deterministic, so this gate never needs the wall-clock skip.
    stateful = _stateful_dispatches("least_loaded")
    ll_one, ll_one_report, _ = _timed_run(1, router="least_loaded")
    spec_on, spec_on_report, _ = _timed_run(4, router="least_loaded")
    assert_close(observe_cluster(spec_on, spec_on_report),
                 observe_cluster(ll_one, ll_one_report), "least_loaded K=4")
    assert stateful == spec_on_report.n_requests
    reduction = stateful / max(spec_on.coordination_rounds, 1)
    assert reduction >= 5.0, (
        f"speculative dispatch cut rounds only {reduction:.1f}x "
        f"({stateful} stateful dispatches -> "
        f"{spec_on.coordination_rounds} rounds); the acceptance gate "
        f"is >= 5x"
    )

    history = list(committed_artifact(BENCH_NAME).get("history", []))
    speculative = [
        row["coordination_rounds"] for row in history if row["reduction"] > 1.0
    ]
    if speculative:
        ceiling = (1.0 + ALLOWED_ROUNDS_REGRESSION) * min(speculative)
        assert spec_on.coordination_rounds <= ceiling, (
            f"coordination rounds regressed: {spec_on.coordination_rounds} "
            f"is more than {ALLOWED_ROUNDS_REGRESSION:.0%} above the best "
            f"committed row ({min(speculative)}, ceiling {ceiling:.0f})"
        )
    row = {
        "coordination_rounds": spec_on.coordination_rounds,
        "messages_sent": spec_on.messages_sent,
        "speculation_hits": spec_on.speculation_hits,
        "speculation_misses": spec_on.speculation_misses,
        "reduction": round(reduction, 2),
        "notes": "speculative dispatch (trajectory-snapshot mirror)",
    }
    # One row per distinct measured state: an unchanged re-run keeps
    # the committed row (and its note) instead of appending a copy.
    counts = [key for key in row if key != "notes"]
    if not history or any(history[-1].get(key) != row[key] for key in counts):
        history.append(row)

    best = min(rows[1:], key=lambda row: row["wall_s"])
    payload = {
        "workload": {
            "scenario": SCENARIO,
            "scale": SCALE,
            "seed": SEED,
            "replicas": CLUSTER_SOAK_REPLICAS,
            "n_requests": n_requests,
        },
        "baseline": {"shards": 1, "wall_s": round(baseline_wall, 4)},
        "shards": rows,
        "best": {"shards": best["shards"], "overhead": best["overhead"]},
        "gate": f"best K > 1 wall <= {MAX_OVERHEAD}x one-shard wall",
        "speculation": {
            "router": "least_loaded",
            "shards": 4,
            "stateful_dispatches": stateful,
            "coordination_rounds": spec_on.coordination_rounds,
            "messages_sent": spec_on.messages_sent,
            "speculation_hits": spec_on.speculation_hits,
            "speculation_misses": spec_on.speculation_misses,
            "reduction": round(reduction, 2),
            "gate": "rounds >= 5x below the counted stateful dispatches",
        },
        "history": history,
        "notes": (
            "process transport for K > 1, warm pool, round_robin ladder; "
            "K > 1 parity asserted against the one-shard run; "
            "speculation block: least_loaded K=4, trajectory-snapshot "
            "mirror vs one round per stateful dispatch, parity-asserted"
        ),
    }
    path = record_artifact(BENCH_NAME, payload)

    lines = [
        f"shard scaling — {SCENARIO} scale={SCALE} "
        f"({CLUSTER_SOAK_REPLICAS} replicas, {n_requests} requests)",
        f"  one shard: {baseline_wall:.2f}s",
    ]
    for row in rows:
        lines.append(
            f"  K={row['shards']}: {row['wall_s']:.2f}s "
            f"({row['overhead']:.2f}x) rounds={row['coordination_rounds']} "
            f"msgs={row['messages_sent']} events={row['shard_events']}"
        )
    lines.append(
        f"  speculation (least_loaded, K=4): "
        f"{stateful} stateful dispatches -> "
        f"{spec_on.coordination_rounds} rounds ({reduction:.1f}x), "
        f"msgs={spec_on.messages_sent}, "
        f"hits={spec_on.speculation_hits} "
        f"misses={spec_on.speculation_misses}"
    )
    lines.append(f"  artifact -> {path}")
    emit("\n".join(lines))

    # Wall-clock gates are skippable on loaded/foreign machines; the
    # artifact above still records what this run measured.
    if os.environ.get("REPRO_PERF_NO_WALL_GATE", "") != "1":
        assert best["overhead"] <= MAX_OVERHEAD, (
            f"sharded coordination overhead {best['overhead']:.2f}x exceeds "
            f"the {MAX_OVERHEAD}x gate (one shard {baseline_wall:.2f}s, best "
            f"sharded {best['wall_s']:.2f}s at K={best['shards']})"
        )
