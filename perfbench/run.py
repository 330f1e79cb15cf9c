#!/usr/bin/env python3
"""The repo benchmark: simulator cost and simulated TokenFlow quality.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst --seed 0 --seconds 25 --trace 0

Each workload instance goes through the public run pipeline
(``get_scenario`` -> ``build_run`` -> ``submit``/``feed`` -> ``run`` ->
``report``) with inputs drawn from ``--seed``.  Instances repeat in whole
passes until ``--seconds`` have elapsed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics (see ``tracing.py``).  Every instance
is checked for correctness; the last line of standard output is one
JSON object, and the exit code is 1 if any check or workload guard
failed.  Full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Set-ups timed per untraced instance (only the last one runs).
SETUPS = 5
# The host's CPU speed drifts by up to 2x in phases of seconds to minutes.
# A fixed probe loop runs before and after the set-ups, and a short one
# every TICK_EVERY_S seconds during an untraced run; every time the
# benchmark reports is scaled to a reference CPU that runs the full probe
# in PROBE_REF_S seconds (see README, "Noise and bounds").
PROBE_LOOPS = 400_000
PROBE_REF_S = 0.05
TICK_LOOPS = 40_000
TICK_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "tokens_per_s": "tok/s",
    "peak_rss_mb": "MiB",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p99_s": "s",
    "sim_effective_tps": "tok/s",
    "sim_throughput_tps": "tok/s",
    "completed_share": "ratio",
}

# Per-layer metrics: name -> unit.  "<span>.calls" / "<span>.s" read the
# tracer; the rest are derived in layer_metrics().
PER_LAYER = {
    "engine.events": "count", "engine.self_s": "s",
    "workload.requests": "count", "workload.draw_s": "s",
    "stages.admit.calls": "count", "stages.admit.s": "s",
    "stages.plan_prefill.calls": "count", "stages.plan_prefill.s": "s",
    "stages.plan_decode.calls": "count", "stages.plan_decode.s": "s",
    "stages.batch_mean": "requests", "stages.windows": "count",
    "stages.single_steps": "count", "stages.window_share": "ratio",
    "stages.complete_decode.s": "s", "stages.complete_fused.s": "s",
    "stages.prefill.s": "s",
    "scheduler.boundary.calls": "count", "scheduler.boundary.s": "s",
    "scheduler.fused.s": "s", "scheduler.tick.calls": "count",
    "scheduler.preemptions": "count", "sim_stall_s": "s",
    "offload.preempt.calls": "count", "offload.resume.calls": "count",
    "offload.s": "s",
    "kv.drain_writes.calls": "count", "kv.drain_writes.s": "s",
    "kv.fused_advance.calls": "count", "kv.fused_advance.s": "s",
    "kv.preempt.s": "s", "kv.resume_load.s": "s", "kv.growth_bulk.s": "s",
    "pcie.bytes": "bytes",
    "blocktable.attach.calls": "count", "blocktable.attach.s": "s",
    "blocktable.publish.calls": "count", "blocktable.publish.s": "s",
    "blocktable.finish.s": "s", "blocktable.reclaim.s": "s",
    "blocktable.hit_share": "ratio", "blocktable.saved_share": "ratio",
    "buffer.deliver.calls": "count", "buffer.deliver.s": "s",
    "buffer.deliver_many.calls": "count", "buffer.deliver_many.s": "s",
    "batchstate.deliver_batch.calls": "count", "batchstate.deliver_batch.s": "s",
    "tracker.buffer_seconds.calls": "count", "tracker.buffer_seconds.s": "s",
    "latency.decode_step.calls": "count", "latency.decode_step.s": "s",
    "latency.prefill.calls": "count", "latency.prefill.s": "s",
    "executor.commit.calls": "count", "executor.commit.s": "s",
    "metrics.observe.calls": "count", "metrics.observe.s": "s",
    "metrics.report.s": "s",
    "router.select.calls": "count", "router.select.s": "s",
    "router.snapshot.calls": "count", "router.snapshot.s": "s",
    "router.spec_hit_share": "ratio",
    "shard.rounds": "count", "shard.messages": "count",
    "shard.gather.s": "s", "shard.send.s": "s", "shard.round_trip_s": "s",
    "trace_overhead": "ratio",
}


def import_program():
    """Import the simulator from this checkout's ``src`` only."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmark: no simulator sources under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: imported repro from {repro.__file__}, not {src}")


# --- one instance ----------------------------------------------------------

class Drawn:
    """Counts the requests handed to the program and their output tokens."""

    def __init__(self) -> None:
        self.count = 0
        self.tokens = 0

    def add(self, requests) -> None:
        for request in requests:
            self.count += 1
            self.tokens += request.output_len

    def stream(self, iterator):
        for request in iterator:
            self.count += 1
            self.tokens += request.output_len
            yield request


def vm_peak_mb() -> float:
    """Peak resident set (VmHWM) of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def speed_probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds ``loops`` turns of a fixed pure-Python loop take on the host
    right now, scaled to ``PROBE_LOOPS`` turns."""
    t0 = perf_counter()
    table = {}
    total = 0
    for i in range(loops):
        total += i * i % 7
        table[i & 1023] = total
    return (perf_counter() - t0) * PROBE_LOOPS / loops


class SpeedTicks:
    """Short speed probes taken from a SIGALRM handler while a run goes on.

    The handler runs between bytecodes of the main thread, so the probes
    interleave with the program's own work; ``spent_s`` is the wall time
    they took, which the run's wall time leaves out.
    """

    def __init__(self) -> None:
        self.probes: list = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(speed_probe(TICK_LOOPS))
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def digest(report) -> str:
    """Hash of every simulated field of a run or cluster report."""
    from repro.serving.metrics import report_fingerprint

    def node(r):
        return (report_fingerprint(r), r.makespan,
                sorted(r.executor_stats.items()), repr(r.kv_stats))

    if hasattr(report, "per_instance"):
        value = (node(report.aggregate), [node(r) for r in report.per_instance],
                 report.coordination_rounds, report.messages_sent,
                 report.speculation_hits, report.speculation_misses)
    else:
        value = node(report)
    return hashlib.sha256(repr(value).encode()).hexdigest()


def count_requests(wl, seed: int) -> int:
    """Requests in one instance, regenerated (for failed instances)."""
    from repro.scenarios.registry import get_scenario

    try:
        spec = get_scenario(wl.scenario, scale=wl.scale, seed=seed, **wl.overrides)
        return sum(1 for _ in spec.build_workload_stream())
    except Exception:
        return 1


def set_up(wl, seed: int, tracer=None):
    """Everything before the first submit/feed, timed.

    Returns ``(seconds, spec, target, requests)``; ``requests`` is None
    for stream-native scenarios.
    """
    from repro.scenarios.build import build_run
    from repro.scenarios.registry import get_scenario

    t0 = perf_counter()
    spec = get_scenario(wl.scenario, scale=wl.scale, seed=seed, **wl.overrides)
    if tracer is not None:
        tracer.install()
    requests = None
    if not spec.is_stream_native:
        draw = spec.build_workload
        if tracer is not None:
            draw = tracer.span("workload.draw", draw, None)
        requests = draw()
    target = build_run(spec, requests=requests).target
    return perf_counter() - t0, spec, target, requests


def execute(wl, seed: int, tracer=None) -> dict:
    """Set up, run, report and check one workload instance.

    Untraced instances set up ``SETUPS`` times and run the last one, so
    ``setup_s`` has enough samples to be steady.  ``probe_s`` holds the
    speed probes taken before and after the set-ups, ``tick_s`` those
    taken during an untraced run.
    """
    row = {"seed": seed, "problems": [], "probe_s": [speed_probe()]}
    drawn = Drawn()
    try:
        setups = []
        for _ in range(1 if tracer is not None else SETUPS):
            gc.collect()
            seconds, spec, target, requests = set_up(wl, seed, tracer)
            setups.append(seconds)
        row["setup_s"] = setups
        row["probe_s"].append(speed_probe())

        # Spans stay free of probe time: only untraced runs tick.
        ticks = SpeedTicks()
        with ticks if tracer is None else contextlib.nullcontext():
            t1 = perf_counter()
            if requests is None:
                stream = spec.build_workload_stream()
                if tracer is not None:
                    stream = tracer.traced_iter("workload.draw", stream)
                target.feed(drawn.stream(stream))
            else:
                drawn.add(requests)
                target.submit(requests)
            target.run(until=spec.horizon)
            report = target.report()
            row["run_wall_s"] = perf_counter() - t1 - ticks.spent_s
        row["tick_s"] = ticks.probes
        if tracer is not None:
            tracer.remove()

        row.update(check(wl, spec, target, report, drawn))
        row["rss_mb"] = vm_peak_mb()
        if tracer is not None:
            row["layers"] = layer_readings(tracer, report, target, drawn)
    except Exception as exc:  # the instance failed; the set goes on
        row["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.remove()
    # An instance cut short may have drawn only part of its stream.
    row["requests"] = drawn.count if "rss_mb" in row else count_requests(wl, seed)
    if row["problems"]:
        row["failed"] = row["requests"]
    return row


def check(wl, spec, target, report, drawn) -> dict:
    """Correctness checks and the workload guard for one instance."""
    problems = []
    failed = target.unfinished
    if failed:
        problems.append(f"{failed} requests unfinished at horizon {spec.horizon}")
    if report.n_finished != drawn.count:
        problems.append(f"finished {report.n_finished} of {drawn.count} requests")
    if report.total_tokens != drawn.tokens:
        problems.append(f"total_tokens {report.total_tokens} != {drawn.tokens} requested")
    if not wl.sharded:
        try:
            target.kv.check_invariants()
        except AssertionError as exc:
            problems.append(f"KV invariant: {exc}")
    reason = wl.guard(report, target)
    if reason:
        problems.append(f"guard: {reason}")
    return {
        "problems": problems,
        "failed": failed,
        "tokens": report.total_tokens,
        "digest": digest(report),
        "sim": {
            "n_requests": report.n_requests,
            "ttft_p50_s": report.ttft_p50,
            "ttft_p99_s": report.ttft_p99,
            "effective_tps": report.effective_throughput,
            "throughput_tps": report.throughput,
            "stall_s": report.stall_total,
            "preemptions": report.preemptions,
        },
    }


def at_ref_speed(seconds: float, probes) -> float:
    """``seconds`` of work, at the reference speed.  The probes sample the
    host's speed evenly in wall time over that work, so the scale is the
    mean of their speeds relative to the reference."""
    return seconds * statistics.fmean(PROBE_REF_S / p for p in probes)


def setup_ref_s(row) -> list:
    return [at_ref_speed(t, row["probe_s"]) for t in row["setup_s"]]


def run_ref_s(row) -> float:
    """The run's wall time at the reference speed (0 if it never ended).
    Traced runs, and runs too short to tick, use the probe before them."""
    if "run_wall_s" not in row:
        return 0.0
    return at_ref_speed(row["run_wall_s"], row["tick_s"] or row["probe_s"][1:])


# --- per-layer readings ------------------------------------------------------

def layer_readings(tracer, report, target, drawn) -> dict:
    """Additive per-instance numbers the per-layer metrics derive from."""
    nodes = report.per_instance if hasattr(report, "per_instance") else [report]
    readings = {}
    for name, (calls, total, own) in tracer.stats.items():
        readings[name + ".calls"] = calls
        readings[name + ".s"] = total
        readings[name + ".self_s"] = own
    for layer, seconds in tracer.layer_top.items():
        readings["layer." + layer] = seconds
    for key in ("fused_windows", "fused_iterations", "decode_iterations",
                "decode_tokens"):
        readings[key] = sum(n.executor_stats.get(key, 0) for n in nodes)
    for key in ("prefix_hits", "prefix_lookups", "prefix_blocks_saved",
                "gpu_blocks_allocated", "write_through_bytes",
                "eviction_tail_bytes", "load_bytes"):
        readings[key] = sum(n.kv_stats.get(key, 0) for n in nodes)
    engine = getattr(target, "engine", None)
    readings["engine_events"] = (
        engine.events_processed if engine is not None
        else sum(getattr(target, "shard_events", []))
    )
    readings["requests"] = drawn.count
    readings["preemptions"] = report.preemptions
    readings["stall_s"] = report.stall_total
    for key in ("coordination_rounds", "messages_sent", "speculation_hits"):
        readings[key] = getattr(report, key, 0)
    return readings


def layer_metrics(readings: dict) -> dict:
    """Per-layer metrics of one traced pass (``readings`` summed over it)."""
    r = readings.get

    def ratio(num, den):
        return r(num, 0) / r(den, 0) if r(den, 0) else 0.0

    out = {name: r(name, 0) for name in PER_LAYER}
    decode_iterations = r("decode_iterations", 0)
    out.update({
        "engine.events": r("engine_events", 0),
        "engine.self_s": r("engine.run.self_s", 0.0),
        "workload.requests": r("requests", 0),
        "workload.draw_s": r("workload.draw.s", 0.0),
        "stages.batch_mean": ratio("decode_tokens", "decode_iterations"),
        "stages.windows": r("fused_windows", 0),
        "stages.single_steps": decode_iterations - r("fused_iterations", 0),
        "stages.window_share": ratio("fused_iterations", "decode_iterations"),
        "scheduler.preemptions": r("preemptions", 0),
        "sim_stall_s": r("stall_s", 0.0),
        "offload.s": r("layer.offload", 0.0),
        "pcie.bytes": (r("write_through_bytes", 0.0) + r("eviction_tail_bytes", 0.0)
                       + r("load_bytes", 0.0)),
        "blocktable.hit_share": ratio("prefix_hits", "prefix_lookups"),
        "blocktable.saved_share": (
            r("prefix_blocks_saved", 0)
            / max(1, r("prefix_blocks_saved", 0) + r("gpu_blocks_allocated", 0))
        ),
        "router.spec_hit_share": ratio("speculation_hits", "requests"),
        "shard.rounds": r("coordination_rounds", 0),
        "shard.messages": r("messages_sent", 0),
        "shard.round_trip_s": ratio("shard.gather.s", "shard.gather.calls"),
    })
    return out


# --- the run -----------------------------------------------------------------

def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole passes over the instances until ``seconds`` elapse.

    With ``trace``, each untraced pass is followed by a traced pass over
    the same instances; the first traced pass's spans are written out.
    """
    from tracing import Tracer

    seeds = wl.seeds(seed)
    untraced, traced, overheads = [], [], []
    spans_path = None
    start = last = perf_counter()
    while True:
        rows = [execute(wl, s) for s in seeds]
        untraced.append(rows)
        if trace:
            spans = None
            if spans_path is None:
                spans_path = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-spans.jsonl.gz")
                spans = gzip.open(spans_path, "wt", compresslevel=1)
            trows = []
            for s in seeds:
                tracer = Tracer()
                trows.append(execute(wl, s, tracer=tracer))
                if spans is not None:
                    for span in tracer.drain_spans():
                        spans.write(json.dumps([s, *span]) + "\n")
            if spans is not None:
                spans.close()
            traced.append(trows)
            overheads.append(
                sum(run_ref_s(r) for r in trows)
                / max(1e-9, sum(run_ref_s(r) for r in rows))
            )
        now = perf_counter()
        # Stop at the pass boundary nearest to ``seconds``.
        if now - start + (now - last) / 2 >= seconds:
            break
        last = now
    return {"untraced": untraced, "traced": traced, "trace_overheads": overheads,
            "spans": spans_path and os.path.relpath(spans_path, ROOT)}


def summarise(wl, measured: dict, trace: bool) -> dict:
    untraced = measured["untraced"]
    passes = untraced + measured["traced"]
    rows = [row for rows in passes for row in rows]
    attempted = sum(row["requests"] for row in rows)
    failed = sum(row.get("failed", 0) for row in rows)
    problems = [f"seed {row['seed']}: {p}" for row in rows for p in row["problems"]]

    # Simulated output must repeat exactly for each seed.
    digests: dict = {}
    for row in rows:
        if "digest" in row:
            first = digests.setdefault(row["seed"], row["digest"])
            if row["digest"] != first:
                problems.append(f"seed {row['seed']}: report digest differs between runs")
                failed += row["requests"] - row.get("failed", 0)
                row["failed"] = row["requests"]

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    if not trace:
        # Instances that ran to the end, checks included.
        ok = [row for rows in untraced for row in rows if "rss_mb" in row]
        first = [row for row in untraced[0] if "sim" in row]
        sims = [row["sim"] for row in first]

        def sim_mean(key):
            return statistics.fmean(s[key] for s in sims) if sims else 0.0

        values = {
            "setup_s": med([t for row in ok for t in setup_ref_s(row)]),
            "run_wall_s": med([run_ref_s(row) for row in ok]),
            "tokens_per_s": med([row["tokens"] / run_ref_s(row) for row in ok]),
            "peak_rss_mb": max((row["rss_mb"] for row in ok), default=0.0),
            "sim_ttft_p50_s": sim_mean("ttft_p50_s"),
            "sim_ttft_p99_s": sim_mean("ttft_p99_s"),
            "sim_effective_tps": sim_mean("effective_tps"),
            "sim_throughput_tps": sim_mean("throughput_tps"),
            "completed_share": 1.0 - failed / max(1, attempted),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        per_pass = []
        for rows in measured["traced"]:
            summed: dict = {}
            for row in rows:
                for key, value in row.get("layers", {}).items():
                    summed[key] = summed.get(key, 0) + value
            per_pass.append(layer_metrics(summed))
        for name, unit in PER_LAYER.items():
            if name == "trace_overhead":
                value = med(measured["trace_overheads"])
            else:
                value = med([p[name] for p in per_pass])
            metrics[name] = {"value": value, "unit": unit}

    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "rows": rows,
    }


# --- manifest ----------------------------------------------------------------

def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(wl, args, result: dict) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    first = {row["seed"]: row for row in result["rows"]}
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": wl.name,
        "scenario": wl.scenario,
        "scale": wl.scale,
        "overrides": wl.overrides,
        "env": wl.env,
        "seed": args.seed,
        "instances": [
            {"seed": s, "requests": first[s]["requests"]} for s in wl.seeds(args.seed)
        ],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(wl, args) -> dict:
    """Measure one workload, write its result file, print its metrics."""
    measured = measure(wl, args.seed, args.seconds, bool(args.trace))
    result = summarise(wl, measured, bool(args.trace))
    record = {"manifest": manifest(wl, args, result), **result,
              "trace_overheads": measured["trace_overheads"],
              "spans": measured["spans"]}
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as out:
        json.dump(record, out, indent=1)
    for problem in result["problems"]:
        print(f"FAILED {wl.name} {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{wl.name:8s} {name:32s} {metric['value']:.6g} {metric['unit']}")
    return result


def run_all(args) -> dict:
    """Run every workload in its own process, as a single run would."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= done.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        summary = run_all(args)
    elif args.workload in WORKLOADS:
        os.makedirs(OUT_DIR, exist_ok=True)
        os.environ.update(WORKLOADS[args.workload].env)
        result = run_workload(WORKLOADS[args.workload], args)
        summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {list(WORKLOADS)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
