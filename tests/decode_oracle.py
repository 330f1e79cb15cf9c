"""Frozen decode-path oracle: cases, observations and their goldens.

The serving loop has one decode path.  It advances a decode batch
either one iteration at a time (the single-step kernel, K = 1) or as
a fused window of K >= 2 iterations delivered in array ops.  Both
must reproduce the plain per-iteration, per-request scalar loop.
That loop is no longer in the program; its outputs are frozen in
``tests/data/decode_oracle.json`` and every case below is compared
against them:

* report metrics, ``kv_stats`` (bar the peak block count) and
  ``executor_stats.busy_time`` to rel 1e-9 (summation order of a few reporting aggregates is the only
  permitted difference);
* integer executor counters, timelines (as a digest), per-token
  traces and stepped series exactly;
* engine events at most the oracle's (fusion only removes events;
  a cluster's are summed over its shards, which schedule no dispatch
  events).

The ``cluster:`` cases freeze the multi-replica plane the same way:
every built-in router on a direct-API request set (one run cut at a
horizon), and the registry cluster scenarios × routers × seeds.  On
top of the report fields they pin each replica's placement count, a
digest of the request -> replica map and the unfinished count.  Their
goldens come from the shared-engine cluster, which ran every replica
on one event loop; :func:`observe_variant` re-runs a case at any
shard count, transport and intake path.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m tests.decode_oracle --write

``--only PREFIX`` recomputes just the cases whose names start with
``PREFIX`` and keeps every other golden line byte-for-byte.

The test modules pick cases by name: the fast subset runs in the
not-slow lane, the full sweep is marked ``slow``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from repro.experiments.systems import SchedulerRecipe, build_system
from repro.scenarios import build_run, get_scenario
from repro.serving import ServingCluster
from repro.workload.request import Request, clone_requests

GOLDEN_PATH = Path(__file__).parent / "data" / "decode_oracle.json"

SINGLE_NODE_METRICS = (
    "n_requests", "n_finished", "makespan", "total_tokens", "throughput",
    "effective_tokens", "effective_throughput", "qos", "ttft_mean",
    "ttft_p50", "ttft_p99", "stall_total", "stall_mean", "preemptions",
)
CLUSTER_METRICS = (
    "n_requests", "n_finished", "total_tokens", "throughput",
    "effective_throughput", "qos", "ttft_mean", "ttft_p50", "ttft_p99",
    "stall_total", "preemptions",
)
# executor_stats that do not depend on how iterations are grouped
# (fused_windows / fused_iterations are zero in the oracle).
EXECUTOR_COUNTS = (
    "prefill_iterations", "decode_iterations", "prefill_tokens",
    "decode_tokens",
)

# Registry cells covering each workload family: a Table 1 burst cell
# under memory pressure, a Poisson cell, every Table 2 memory-ablation
# variant, and the multi-turn session workload (completion callbacks
# schedule follow-up arrivals).
REGISTRY_CELLS = [
    ("table1-h200-a", 0.10),
    ("table1-rtx4090-a", 0.25),
    ("table1-h200-c", 0.25),
    ("tab02-tokenflow", 0.25),
    ("tab02-tokenflow-no-offload", 0.25),
    ("tab02-tokenflow-no-writethrough", 0.25),
    ("tab02-tokenflow-no-overlap", 0.25),
    ("bursty-sessions", 0.25),
]
# The fast lane's cells: both hardware targets, a multi-replica
# cluster (routing plus per-node decode) and sessions.
FAST_CELLS = [
    ("table1-h200-a", 0.10),
    ("table1-rtx4090-c", 0.25),
    ("cluster-burst-4x", 0.25),
    ("bursty-sessions", 0.25),
]
MEMORY_PRESSURE_SYSTEMS = ("sglang", "sglang-chunked", "andes", "mlfq",
                           "tokenflow")
ABLATION_SYSTEMS = ("tokenflow-no-offload", "tokenflow-no-writethrough",
                    "tokenflow-no-overlap")
# Seeded stand-ins for the randomised workloads: two disjoint sets.
RANDOM_SEEDS = {"fusion": range(0, 12), "vectorize": range(100, 112)}
CLUSTER_ROUTERS = ("buffer_aware", "least_loaded", "least_queued",
                   "round_robin", "session_affinity")
# Registry cluster scenarios at scales that keep a router × seed sweep
# small (the soak scenario runs 64 replicas, so it gets the tiniest
# slice of its workload).
CLUSTER_SCENARIOS = {
    "bursty-sessions": 0.25,
    "cluster-burst-4x": 0.25,
    "cluster-soak-64x": 0.02,
}
# Strands roughly half of the direct-API arrivals.
CLUSTER_HORIZON = 0.03 * 24


def burst(n, prompt=64, output=96, rate=10.0, start=0.0):
    return [
        Request(req_id=i, arrival_time=start, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def cluster_requests(n=48):
    """Direct-API cluster arrivals, already in arrival order."""
    return [
        Request(
            req_id=i,
            arrival_time=0.03 * i,
            prompt_len=64 + (i * 13) % 96,
            output_len=32 + (i * 7) % 64,
            rate=20.0,
            session_id=i % 5,
        )
        for i in range(n)
    ]


def random_workload(seed):
    """One seeded workload plus the system and memory it runs on."""
    rng = random.Random(seed)
    requests = [
        Request(
            req_id=req_id,
            arrival_time=rng.uniform(0.0, 3.0),
            prompt_len=rng.randint(8, 384),
            output_len=rng.randint(4, 256),
            rate=rng.choice([5.0, 10.0, 20.0]),
        )
        for req_id in range(rng.randint(2, 10))
    ]
    system = rng.choice(["sglang", "andes", "mlfq", "tokenflow"])
    return requests, system, rng.choice([0.002, 0.01, 0.1])


# --- observations ------------------------------------------------------
def timeline_digest(timeline) -> str:
    text = ";".join(f"{float(t).hex()},{q},{r}" for t, q, r in timeline)
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics(report, keys):
    return {key: getattr(report, key) for key in keys}


def events_processed(target) -> int:
    """Engine events of a run: the system's, or the cluster's shards'."""
    if isinstance(target, ServingCluster):
        return sum(target.shard_events)
    return target.engine.events_processed


def observe_report(report, events=None) -> dict:
    """The oracle fields of one RunReport (and its event count)."""
    if getattr(report, "per_instance", None):
        obs = {
            "metrics": _metrics(report, CLUSTER_METRICS),
            "per_instance": [observe_report(inst)
                             for inst in report.per_instance],
        }
    else:
        stats = report.executor_stats
        obs = {
            "metrics": _metrics(report, SINGLE_NODE_METRICS),
            "executor": {key: stats[key] for key in EXECUTOR_COUNTS},
            "busy_time": stats["busy_time"],
            # The peak is left out: the single path grows a whole
            # batch's KV before releasing the blocks of requests that
            # finish in the same iteration, so its high-water mark can
            # sit above the per-request loop's.
            "kv": {key: value for key, value in report.kv_stats.items()
                   if key != "gpu_peak_blocks"},
            "timeline": timeline_digest(report.timeline),
        }
    if events is not None:
        obs["events"] = events
    return obs


def placements_digest(placements) -> str:
    text = ";".join(f"{rid},{idx}" for rid, idx in sorted(placements.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def observe_cluster(cluster, report) -> dict:
    """:func:`observe_report` of a cluster run plus its routing record."""
    obs = observe_report(report, events_processed(cluster))
    obs["placement_counts"] = cluster.placement_counts()
    obs["placements"] = placements_digest(cluster.placements)
    obs["unfinished"] = cluster.unfinished
    return obs


def cell(name, scale, seed=0) -> str:
    """Case name of one registry cell."""
    return f"cell:{name}:{scale}:{seed}"


def run_scenario(name, scale, seed=0, **overrides) -> dict:
    run = build_run(get_scenario(name, scale=scale, seed=seed, **overrides))
    return observe_report(run.execute(), events_processed(run.target))


def _cluster_api(router, until=None, shards=1, transport=None,
                 streamed=False):
    """Four replicas behind ``router`` on :func:`cluster_requests`."""
    cluster = ServingCluster.homogeneous(
        4, SchedulerRecipe("tokenflow"), router=router, shards=shards,
        transport=transport, mem_frac=0.02, max_batch=16,
    )
    if streamed:
        cluster.feed(iter(cluster_requests()))
    else:
        cluster.submit(cluster_requests())
    cluster.run(until=until)
    return observe_cluster(cluster, cluster.report())


def _cluster_scenario(name, scale, router, seed, shards=1, transport=None,
                      streamed=False):
    run = build_run(get_scenario(name, scale=scale, seed=seed, router=router,
                                 shards=shards))
    if transport is not None:
        run.target.transport = transport
    report = run.execute(streamed=streamed)
    return observe_cluster(run.target, report)


def _system(name, requests, cancels=(), **kwargs):
    system = build_system(name, **kwargs)
    system.submit(clone_requests(requests))
    for req_id, when in cancels:
        system.cancel_at(req_id, when)
    system.run(until=100_000.0)
    obs = observe_report(system.report(), events_processed(system))
    obs["generated"] = [system.tracker.get(r.req_id).request.generated
                        for r in requests]
    return obs


def _token_traces():
    system = build_system("tokenflow", hardware="h200", mem_frac=0.1,
                          max_batch=8, record_token_traces=True)
    system.submit(clone_requests(burst(4, output=64)))
    system.run(until=10_000.0)
    traces = []
    for req_id in range(4):
        buffer = system.tracker.get(req_id).buffer
        traces.append({
            "token_times": system.tracker.get(req_id).request.token_times,
            "generation_times": buffer.generation_times,
            "consumption_times": buffer.consumption_times,
            "occupancy_at_generation": buffer.occupancy_at_generation,
        })
    return {"traces": traces}


def _in_flight_transfer():
    """A long d2h transfer injected after the first fully synced drain
    past t=0.3, with host-copy state sampled every 0.05 s."""
    system = build_system("tokenflow", hardware="h200", mem_frac=0.1,
                          max_batch=8)
    kv = system.kv
    orig_drain = kv.drain_writes
    state = {"done": False}

    def drain_then_inject(now, horizon, priority=None):
        synced = orig_drain(now, horizon, priority=priority)
        if not state["done"] and now > 0.3 and not kv._dirty:
            state["done"] = True
            job = kv.link.d2h.submit(20e9, now)
            system.engine.call_at(job.end, lambda: None,
                                  label="evict-done:test")
        return synced

    kv.drain_writes = drain_then_inject
    system.submit(clone_requests(burst(4, output=192)))
    cpu_series = []
    t = 0.0
    while system.unfinished and t < 10_000.0:
        t += 0.05
        system.run(until=t)
        cpu_series.append([[rid, kv.record(rid).cpu_tokens]
                           for rid in sorted(kv.resident_requests())])
    system.run(until=10_000.0)
    assert state["done"], "injection never triggered"
    obs = observe_report(system.report())
    obs["cpu_series"] = cpu_series
    return obs


def _until_stepping():
    """run(until=...) in 0.37 s increments, then a final drain."""
    system = build_system("tokenflow", hardware="h200", mem_frac=0.1,
                          max_batch=8)
    system.submit(clone_requests(burst(6, output=128)))
    t = 0.0
    while system.unfinished and t < 10_000.0:
        t += 0.37
        system.run(until=t)
    system.run(until=10_000.0)
    return observe_report(system.report())


def _cases() -> dict:
    """Case name -> zero-argument callable returning its observation."""
    cases = {}
    for name, scale in dict.fromkeys(REGISTRY_CELLS + FAST_CELLS):
        for seed in (0, 1):
            cases[cell(name, scale, seed)] = functools.partial(
                run_scenario, name, scale, seed)
    cases["cluster-router"] = functools.partial(
        run_scenario, "cluster-burst-4x", 0.1, replicas=2, router="round_robin")
    pressure = dict(hardware="h200", model="llama3-8b", mem_frac=0.01,
                    max_batch=8)
    for name in MEMORY_PRESSURE_SYSTEMS:
        cases[f"pressure:{name}"] = functools.partial(
            _system, name, burst(16, prompt=96, output=64), **pressure)
    for name in ABLATION_SYSTEMS:
        cases[f"ablation:{name}"] = functools.partial(
            _system, name, burst(12, prompt=96, output=64),
            hardware="h200", mem_frac=0.01, max_batch=8)
    light = dict(hardware="h200", mem_frac=0.1, max_batch=8)
    cases["windows"] = functools.partial(
        _system, "tokenflow", burst(8, output=192), hardware="h200",
        model="llama3-8b", mem_frac=0.1, max_batch=16)
    cases["accounting"] = functools.partial(
        _system, "tokenflow", burst(6, output=128), **light)
    cases["cancel"] = functools.partial(
        _system, "tokenflow", burst(6, output=256),
        cancels=((2, 0.45), (5, 0.731)), **light)
    cases["token-traces"] = _token_traces
    cases["in-flight-transfer"] = _in_flight_transfer
    cases["until-stepping"] = _until_stepping
    for group, seeds in RANDOM_SEEDS.items():
        for seed in seeds:
            requests, name, mem_frac = random_workload(seed)
            cases[f"random:{group}:{seed}"] = functools.partial(
                _system, name, requests, hardware="h200",
                model="llama3-8b", mem_frac=mem_frac, max_batch=6)
    for router in CLUSTER_ROUTERS:
        cases[f"cluster:api:{router}"] = functools.partial(
            _cluster_api, router)
        for name, scale in CLUSTER_SCENARIOS.items():
            for seed in (0, 1):
                cases[f"cluster:{name}:{scale}:{router}:{seed}"] = (
                    functools.partial(
                        _cluster_scenario, name, scale, router, seed))
    cases[f"cluster:api:least_loaded:until={CLUSTER_HORIZON}"] = (
        functools.partial(_cluster_api, "least_loaded", CLUSTER_HORIZON))
    return cases


CASES = _cases()


@functools.lru_cache(maxsize=None)
def observe(case: str) -> dict:
    """Run one case on the current program (memoised per session).

    Round-trips through JSON so observed and frozen values share one
    representation (tuples become lists, keys become strings).
    """
    return json.loads(json.dumps(CASES[case]()))


def observe_variant(case: str, shards: int, transport: str,
                    streamed: bool) -> dict:
    """Run ``cluster:`` case ``case`` at one shard count, transport
    and intake path (``feed`` when ``streamed``, else ``submit``)."""
    run = CASES[case]
    return json.loads(json.dumps(run(shards=shards, transport=transport,
                                     streamed=streamed)))


@functools.lru_cache(maxsize=None)
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# --- comparison --------------------------------------------------------
def assert_close(observed, frozen, path="") -> None:
    """Floats to rel 1e-9; ints, strings and structure exactly;
    ``events`` may only shrink."""
    if isinstance(frozen, dict):
        assert isinstance(observed, dict) and observed.keys() == frozen.keys(), path
        for key in frozen:
            if key == "events":
                assert observed[key] <= frozen[key], f"{path}.events"
            else:
                assert_close(observed[key], frozen[key], f"{path}.{key}")
    elif isinstance(frozen, list):
        assert isinstance(observed, list) and len(observed) == len(frozen), path
        for i, (obs, ref) in enumerate(zip(observed, frozen)):
            assert_close(obs, ref, f"{path}[{i}]")
    elif isinstance(frozen, float) or isinstance(observed, float):
        if isinstance(frozen, float) and math.isnan(frozen):
            assert math.isnan(observed), path
        else:
            assert observed == pytest.approx(frozen, rel=1e-9, abs=1e-9), path
    else:
        assert observed == frozen, path


def check(case: str, observed=None) -> dict:
    """Assert an observation matches the golden of ``case`` and return
    it; by default the observation is ``case`` run on the current
    program."""
    if observed is None:
        observed = observe(case)
    assert_close(observed, goldens()[case], case)
    return observed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="run every case and write the golden file")
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--only", metavar="PREFIX",
                        help="recompute only the cases named PREFIX...; "
                             "keep every other golden line as it is")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("nothing to do (pass --write)")
    kept = {}
    if args.only is not None and args.out.exists():
        for line in args.out.read_text().splitlines()[1:-1]:
            line = line.rstrip(",")
            kept[json.loads(line.split(": ", 1)[0])] = line
    # One case per line keeps regeneration diffs readable.
    lines = [
        kept[case] if case in kept and not case.startswith(args.only)
        else f"{json.dumps(case)}: {json.dumps(observe(case), sort_keys=True)}"
        for case in sorted(CASES)
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
