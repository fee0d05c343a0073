"""The benchmark's own tests, at tiny sizes (about a minute, most of it
re-deriving the pinned N = 49 chain values).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = (HERE / "CATALOG.md").read_text()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = {"object-rw": 30, "object-faults": 60, "shard-read": 60,
        "avail-mc": 4}
#: every metric planned for the benchmark; each must be in
#: BENCHMARK.json or in the catalog's "Dropped or renamed" table
NAMED = [
    "ops_per_s", "sim_read_p50_ms", "sim_read_p99_ms", "sim_write_p50_ms",
    "sim_write_p99_ms", "failed_frac", "outage_s", "mc_events_per_s",
    "setup_s", "peak_rss_mb",
    "sim.engine.events_per_op", "sim.engine.self_us_per_op",
    "sim.engine.lock_wait_ms_per_op", "sim.engine.lock_acquires_per_op",
    "sim.network.msgs_per_op", "sim.network.bytes_per_op",
    "sim.network.send_us_per_op", "sim.network.busiest_node_msgs_per_op",
    "sim.rpc.waves_per_op", "sim.rpc.requests_per_wave",
    "sim.rpc.timeouts_per_op", "sim.rpc.hedges_fired_per_op",
    "sim.rpc.hedge_won_ratio", "sim.rpc.self_us_per_op",
    "core.coordinator.attempts_per_op", "core.coordinator.ok_per_attempt",
    "core.coordinator.polls_per_write", "core.coordinator.heavy_share",
    "core.coordinator.self_us_per_op", "core.replica.handler_us_per_op",
    "core.replica.busy_per_op", "core.replica.stale_marks_per_write",
    "core.twophase.txns_per_write", "core.twophase.abort_ratio",
    "core.twophase.self_us_per_op", "core.propagation.calls",
    "core.epoch.checks", "core.epoch.installs", "core.epoch.self_ms",
    "coteries.planner.calls_per_op", "coteries.planner.detours_per_op",
    "coteries.planner.self_us_per_op", "shard.router.self_us_per_op",
    "shard.host.self_us_per_op", "shard.sweep.rpcs_per_node",
    "obs.summary_ms", "availability.bitmask_events_per_s",
    "availability.vector_events_per_s", "availability.epoch_changes",
    "trace.overhead_ratio", "trace.unattributed_share",
]
#: self times plus the unattributed share must rebuild the traced wall
#: time to within this fraction (float summation only)
WALL_TOLERANCE = 1e-9


def _spec_metrics():
    return {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_named_metric_is_emitted_or_listed_as_dropped():
    emitted = _spec_metrics()
    dropped = CATALOG.split("## Dropped or renamed", 1)[1]
    for name in NAMED:
        assert name in emitted or f"`{name}`" in dropped, name
    for name, metric in emitted.items():
        assert f"`{name}`" in CATALOG, name
        assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_and_repeat_digest(name):
    metrics, attempted, failed, notes = run.run_end_to_end(
        workloads, name, seed=3, seconds=0, n_ops=TINY[name])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert attempted == run.MIN_REPS * TINY[name]
    assert failed == 0
    for metric, value in metrics.items():
        assert math.isfinite(value) and value > 0, metric
    assert any(line.startswith("samples:") for line in notes)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    metrics, attempted, failed, _notes = run.run_traced(
        workloads, tracer_module, name, seed=4, n_ops=TINY[name],
        out_dir=tmp_path)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert attempted == TINY[name] and failed == 0
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert metrics["trace.overhead_ratio"] > 0
    assert list(tmp_path.glob("spans-*.npz"))


@pytest.mark.parametrize("name", ["object-faults", "shard-read"])
def test_spans_nest_and_rebuild_the_wall(name):
    workload, setup, execute = workloads.WORKLOADS[name]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        outcome = execute(workload, 5, setup(workload, 5), tracer=tracer,
                          n_ops=TINY[name])
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    assert len(spans["name"]) > 100
    assert (spans["end"] >= spans["start"]).all()
    nested = spans["parent"] >= 0
    parent = spans["parent"][nested]
    assert (spans["start"][nested] >= spans["start"][parent]).all()
    assert (spans["end"][nested] <= spans["end"][parent]).all()
    assert (spans["self"] >= -1e-12).all()
    assert (spans["duration"][nested]
            <= spans["duration"][parent] + 1e-12).all()
    top = ~nested
    unattributed = outcome.host_s - spans["duration"][top].sum()
    assert unattributed >= 0
    rebuilt = spans["self"].sum() + unattributed
    assert abs(rebuilt - outcome.host_s) <= WALL_TOLERANCE * outcome.host_s
    # the op id travels with the messages into remote handlers
    ops = set(spans["op"][spans["op"] >= 0].tolist())
    assert ops == set(range(TINY[name]))


def test_tracer_bookkeeping_is_in_no_program_layer():
    workload, setup, execute = workloads.WORKLOADS["object-rw"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        execute(workload, 6, setup(workload, 6), tracer=tracer,
                n_ops=TINY["object-rw"])
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    layers = tracer.self_by_layer(spans)
    assert layers["trace"] > 0 and tracer.bytes > 0
    bookkeeping = tracer.name_id(tracer_module.BOOKKEEPING)
    parents = spans["parent"][spans["name"] == bookkeeping]
    # each bookkeeping span sits inside the layer that sent the message,
    # which therefore no longer pays for the sizing
    assert (parents >= 0).all()


def test_paired_minimum_keeps_the_fastest_lap():
    fast = workloads.Outcome([], [], 0, "", 0.0, [1.0, 5.0, 2.0])
    slow = workloads.Outcome([], [], 0, "", 0.0, [3.0, 4.0, 2.5])
    assert run.paired_minimum([fast, slow]) == [1.0, 4.0, 2.0]


def test_laps_rescale_by_the_reference_loop():
    laps = workloads.Laps()
    workloads.reference_loop()
    one = laps.lap()
    workloads.reference_loop()
    workloads.reference_loop()
    two = laps.lap()
    # laps are proportional to the work in them
    assert 1.3 < two / one < 3.0


def test_reference_check_passes_and_catches_a_wrong_evaluator(monkeypatch):
    lines = workloads.reference_check(7)
    assert len(lines) == 4
    simulate = workloads.montecarlo.simulate_dynamic_availability

    def always_available(*args, **kwargs):
        estimate = simulate(*args, **kwargs)
        return dataclasses.replace(estimate, availability=1.0,
                                   unavailability=0.0)
    monkeypatch.setattr(workloads.montecarlo,
                        "simulate_dynamic_availability", always_available)
    with pytest.raises(workloads.CheckFailed, match="bitmask read"):
        workloads.reference_check(7)


def test_tracing_uninstall_restores_every_entry_point():
    from repro.coteries import planner
    from repro.sim.engine import Environment
    from repro.sim.network import Network

    before = (Environment.step, Network.send, planner.plan_quorum)
    tracer = tracer_module.Tracer()
    tracer.install()
    assert Environment.step is not before[0]
    tracer.uninstall()
    assert (Environment.step, Network.send, planner.plan_quorum) == before


def test_site_model_event_closed_form():
    estimate = workloads._bitmask("write", 11, 400.0)
    mean = workloads.expected_events(workloads.BITMASK_N, 400.0)
    assert abs(estimate.n_events - mean) < 4 * math.sqrt(mean)


@pytest.mark.parametrize("n_nodes", [workloads.BITMASK_N,
                                     workloads.VECTOR_N])
def test_pinned_chain_values(n_nodes):
    from repro.availability.chains.dynamic_grid import (
        dynamic_grid_read_unavailability, dynamic_grid_unavailability)

    lam, mu = workloads.LAM, workloads.MU
    pinned = workloads.CHAIN_UNAVAILABILITY
    assert pinned[(n_nodes, "write")] == pytest.approx(
        dynamic_grid_unavailability(n_nodes, lam, mu, exact=False))
    assert pinned[(n_nodes, "read")] == pytest.approx(
        dynamic_grid_read_unavailability(n_nodes, lam, mu, exact=False))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
