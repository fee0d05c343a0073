"""The repository benchmark: one command per workload and mode.

    python3 perfbench/run.py --workload object-rw --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off (the
stores' metrics registry at its default, on); ``--trace 1`` runs the
workload once untraced and once under :class:`tracer.Tracer` and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/CATALOG.md`` says what each one means.
Human-readable lines (sample counts, digests) come first; the last line
of standard output is the JSON result.  A failed correctness check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: setup-only builds after each repetition, interleaved with the timed
#: phases; and the fewest setups a run times in all
SETUPS_PER_REP = 3
MIN_SETUPS = 15
#: executions per run; the simulated outcomes must repeat exactly
MIN_REPS = 2
#: repetitions of the end-of-run observability export, for obs.summary_ms
SUMMARY_REPS = 5
#: stands in for +inf (a failed op's latency) in the JSON result
FAILED_VALUE = 1e12


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def paired_minimum(reps) -> list:
    """Lap by lap, the fastest of the same-seed repetitions.  Lap i is
    the same work in every repetition, and a slow phase only ever adds
    time, so the minimum keeps the lap from a repetition that missed it."""
    return [min(laps) for laps in zip(*(o.laps for o in reps))]


def timed_setup(workloads, setup, workload, seed):
    """One setup, timed as a lap; returns ``(built, lap)``."""
    gc.collect()
    laps = workloads.Laps()
    built = setup(workload, seed)
    return built, laps.lap()


def run_end_to_end(workloads, name: str, seed: int, seconds: float,
                   n_ops=None):
    """Repeat setup + timed phase until *seconds* of timed work (at least
    MIN_REPS), with more setups after each repetition; returns
    (metrics, attempted, failed, notes).  *n_ops* shrinks the plan (the
    benchmark's own tests)."""
    workload, setup, execute = workloads.WORKLOADS[name]
    setups, reps = [], []
    measured = 0.0
    while len(reps) < MIN_REPS or measured + reps[-1].host_s <= seconds:
        built, lap = timed_setup(workloads, setup, workload, seed)
        setups.append(lap)
        gc.collect()
        outcome = execute(workload, seed, built, n_ops=n_ops, timed=True)
        outcome.store = built = None
        if reps and outcome.digest != reps[0].digest:
            raise workloads.CheckFailed(
                f"same-seed repetition {len(reps)} digest "
                f"{outcome.digest[:16]} != {reps[0].digest[:16]}")
        reps.append(outcome)
        measured += outcome.host_s
        for _ in range(SETUPS_PER_REP):
            setups.append(timed_setup(workloads, setup, workload, seed)[1])
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(workloads, setup, workload, seed)[1])

    simulated = name != workloads.AVAIL_MC.name
    fastest = paired_minimum(reps)
    ops = len(reps[0].kinds)
    # simulated latencies repeat exactly; a host latency (avail-mc) is
    # its query's lap, the fastest over the repetitions
    latencies = {"read": [], "write": []}
    for kind, latency in zip(reps[0].kinds, reps[0].latencies
                             if simulated else fastest):
        latencies[kind].append(latency)
    metrics = {"ops_per_s": ops / sum(fastest)}
    for kind in ("read", "write"):
        for label, q in (("p50", 0.50), ("p99", 0.99)):
            metrics[f"{kind}_{label}_ms"] = workloads.percentile(
                latencies[kind], q) * 1e3
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    notes = [
        f"clock: {'simulated' if simulated else 'host'} latency; "
        f"{len(reps)} repetitions of {len(fastest)} laps, "
        f"{len(setups)} setups; host times are CPU s rescaled to a "
        f"{workloads.REF_NOMINAL_S * 1e3:g} ms reference loop",
        f"samples: reads={len(latencies['read'])} "
        f"writes={len(latencies['write'])} (p99 has "
        f"{beyond_p99(latencies['read'])}/{beyond_p99(latencies['write'])}"
        f" samples beyond it)",
        f"digest {name} seed={seed} {reps[0].digest}",
    ]
    if simulated:
        notes.append("open-loop generator lateness: 0 (a simulation "
                     "process cannot run late)")
    else:
        notes.append("pooled unavailability (exact chain ~0, tolerance "
                     f"{workloads.UNAVAILABILITY_TOL}): " + " ".join(
                         f"{key[:-len('_unavailability')]}="
                         f"{value:.3g}" for key, value in
                         sorted(reps[0].counts.items())
                         if key.endswith("_unavailability")))
        notes.extend(workloads.reference_check(seed))
    attempted = sum(len(o.kinds) for o in reps)
    failed = sum(o.failed for o in reps)
    return metrics, attempted, failed, notes


def beyond_p99(samples: list) -> int:
    """How many samples rank above the nearest-rank p99."""
    return len(samples) - math.ceil(0.99 * len(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(workloads, tracer_module, name: str, seed: int,
               n_ops=None, out_dir=HERE / "out"):
    """One untraced and one traced execution; returns the per-layer
    metrics (plus attempted, failed, notes)."""
    workload, setup, execute = workloads.WORKLOADS[name]
    built = setup(workload, seed)
    gc.collect()
    base = execute(workload, seed, built, n_ops=n_ops)
    summary_ms = []
    if base.store is not None:
        summary_ms = [workloads.summary_ms(base.store)
                      for _ in range(SUMMARY_REPS)]
    built = base.store = None
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        built = setup(workload, seed)
        gc.collect()
        traced = execute(workload, seed, built, tracer=tracer, n_ops=n_ops)
    finally:
        tracer.uninstall()
    if traced.digest != base.digest:
        raise workloads.CheckFailed(
            f"tracing changed the outcome: digest {traced.digest[:16]} "
            f"!= untraced {base.digest[:16]}")
    for key in ("events", "messages", "bitmask_events", "vector_events"):
        if traced.counts.get(key) != base.counts.get(key):
            raise workloads.CheckFailed(f"tracing changed count {key}")

    spans = tracer.arrays()
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{name}-seed{seed}.npz", spans)
    metrics = layer_metrics(tracer, spans, base, traced, summary_ms)
    bookkeeping = tracer.self_by_layer(spans).get("trace", 0.0)
    notes = [f"digest {name} seed={seed} {base.digest} (traced run "
             f"identical)",
             f"spans: {len(spans['name'])} over {traced.host_s:.2f} host s"
             f" (untraced {base.host_s:.2f} s); tracer bookkeeping "
             f"{bookkeeping:.2f} s, in no layer"]
    if name == workloads.AVAIL_MC.name:
        notes.extend(workloads.reference_check(seed))
    return metrics, len(traced.kinds), traced.failed, notes


def layer_metrics(tracer, spans, base, traced, summary_ms) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    counts, traced_counts = base.counts, tracer.counts
    ops = len(base.kinds)
    writes = base.kinds.count("write")
    self_s = tracer.self_by_layer(spans)

    def per_op_us(layer):
        return self_s.get(layer, 0.0) * 1e6 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    top = spans["parent"] < 0
    covered = float(spans["duration"][top].sum())
    metrics = {
        "sim.engine.events_per_op": ratio(counts.get("events", 0), ops),
        "sim.engine.self_us_per_op": per_op_us("sim.engine"),
        "sim.engine.lock_wait_ms_per_op": tracer.lock_wait * 1e3 / ops,
        "sim.engine.lock_acquires_per_op":
            traced_counts["lock_acquires"] / ops,
        "sim.network.msgs_per_op": ratio(counts.get("messages", 0), ops),
        "sim.network.bytes_per_op": tracer.bytes / ops,
        "sim.network.send_us_per_op": per_op_us("sim.network"),
        "sim.network.busiest_node_msgs_per_op":
            max(tracer.node_msgs.values(), default=0) / ops,
        "sim.sizing.self_us_per_op": per_op_us("sim.sizing"),
        "sim.rpc.waves_per_op": traced_counts["waves"] / ops,
        "sim.rpc.requests_per_wave": ratio(traced_counts["wave_requests"],
                                           traced_counts["waves"]),
        "sim.rpc.self_us_per_op": per_op_us("sim.rpc"),
        "core.coordinator.attempts_per_op":
            ratio(counts.get("attempts", 0), ops),
        "core.coordinator.ok_per_attempt":
            ratio(counts.get("ok", 0), counts.get("attempts", 0)),
        "core.coordinator.polls_per_write":
            ratio(counts.get("write_polls", 0), writes),
        "core.coordinator.heavy_share": ratio(counts.get("heavy", 0), ops),
        "core.coordinator.self_us_per_op": per_op_us("core.coordinator"),
        "core.replica.handler_us_per_op": per_op_us("core.replica"),
        "core.replica.busy_per_op": traced_counts["busy"] / ops,
        "core.twophase.txns_per_write": ratio(traced_counts["txns"], writes),
        "core.twophase.self_us_per_op": per_op_us("core.twophase"),
        "core.propagation.calls": float(traced_counts["propagations"]),
        "core.epoch.checks": float(traced_counts["epoch_checks"]),
        "core.epoch.self_ms": self_s.get("core.epoch", 0.0) * 1e3,
        "coteries.planner.calls_per_op": traced_counts["plans"] / ops,
        "coteries.planner.self_us_per_op": per_op_us("coteries.planner"),
        "shard.router.self_us_per_op": per_op_us("shard.router"),
        "shard.host.self_us_per_op": per_op_us("shard.host"),
        "shard.sweep.rpcs_per_node": 0.0,
        "obs.summary_ms": statistics.median(summary_ms) if summary_ms
        else 0.0,
        "availability.bitmask_events_per_s": 0.0,
        "availability.vector_events_per_s": 0.0,
        "availability.epoch_changes": float(counts.get("epoch_changes", 0)),
        "faults.outage_s": float(counts.get("outage_s", 0.0)),
        "trace.overhead_ratio": traced.host_s / base.host_s,
        "trace.unattributed_share": (traced.host_s - covered)
        / traced.host_s,
    }
    if "summary" in counts:
        metrics.update(_summary_deltas(*counts["summary"], ops, writes))
    else:
        metrics.update({name: 0.0 for name in (
            "sim.rpc.timeouts_per_op", "sim.rpc.hedges_fired_per_op",
            "sim.rpc.hedge_won_ratio", "core.replica.stale_marks_per_write",
            "core.twophase.abort_ratio", "core.epoch.installs",
            "coteries.planner.detours_per_op")})
    sweeps = traced_counts["sweeps"]
    nodes = len(traced.store.nodes) if traced.store is not None else 0
    if sweeps and nodes:
        metrics["shard.sweep.rpcs_per_node"] = (
            traced_counts["served:sh-sweep-request"] / (sweeps * nodes))
    engine_s = counts.get("engine_s")
    if engine_s:
        metrics["availability.bitmask_events_per_s"] = (
            counts["bitmask_events"] / engine_s["bitmask"])
        metrics["availability.vector_events_per_s"] = (
            counts["vector_events"] / engine_s["vector"])
    return metrics


def _summary_deltas(before: dict, after: dict, ops: int,
                    writes: int) -> dict:
    """Timed-phase deltas of the stores' own metric counters."""
    def grouped(summary, *path):
        value = summary
        for key in path:
            value = value[key]
        return sum(value.values()) if isinstance(value, dict) else value

    def delta(*path):
        return grouped(after, *path) - grouped(before, *path)

    hedges_fired = (after["rpc"]["hedges"].get("fired", 0)
                    - before["rpc"]["hedges"].get("fired", 0))
    hedges_won = (after["rpc"]["hedges"].get("won", 0)
                  - before["rpc"]["hedges"].get("won", 0))
    commits = delta("twophase", "commits")
    aborts = delta("twophase", "aborts")
    return {
        "sim.rpc.timeouts_per_op": delta("rpc", "timeouts") / ops,
        "sim.rpc.hedges_fired_per_op": hedges_fired / ops,
        "sim.rpc.hedge_won_ratio":
            hedges_won / hedges_fired if hedges_fired else 0.0,
        "core.replica.stale_marks_per_write":
            delta("staleness", "marks") / writes if writes else 0.0,
        "core.twophase.abort_ratio":
            aborts / (commits + aborts) if commits + aborts else 0.0,
        "core.epoch.installs": float(delta("epoch", "installs")),
        "coteries.planner.detours_per_op": delta("planner", "detours") / ops,
    }


def finite(value) -> float:
    """JSON has no infinity: a value that a failed op made +inf (a
    latency percentile, ``faults.outage_s``) is written as FAILED_VALUE."""
    value = float(value)
    return value if math.isfinite(value) else FAILED_VALUE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    import tracer as tracer_module

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    try:
        if args.trace:
            values, attempted, failed, notes = run_traced(
                workloads, tracer_module, args.workload, args.seed)
        else:
            values, attempted, failed, notes = run_end_to_end(
                workloads, args.workload, args.seed, args.seconds)
    except workloads.CheckFailed as failure:
        print(f"CHECK FAILED: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if set(values) != set(units):
        raise SystemExit(f"metric set drifted from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    for line in notes:
        print(line)
    for name in units:
        print(f"{name:40s} {values[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": finite(values[name]),
                           "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
