"""Experiment E22 -- the incremental bitmask quorum engine vs the
set-based reference predicates.

Replays one failure/repair event stream (a random walk over node
states) through both evaluation paths and measures events per second:

* **set** -- maintain a set of live names, re-run the coterie's
  set-based ``is_write_quorum`` after every event (O(N * structure)
  per event);
* **bitmask** -- ``coterie.compile()``: flip one bit via
  ``node_up``/``node_down`` and read the maintained tallies (O(1) or
  O(depth) per event).  Timed best-of-``BITMASK_REPEATS`` because it is
  the denominator of the gated vector speedup;
* **vector** -- ``coterie.compile_batch()``: turn the whole event
  stream into one boolean state matrix (cumulative flip parity) and
  answer every event with a single numpy kernel call.  Timed
  best-of-``VECTOR_REPEATS`` because one pass costs ~a millisecond.

All paths see identical event sequences and their answers are asserted
equal event-for-event before any timing runs.  The measured speedups
are written to ``BENCH_quorum_engine.json`` at the repo root (and the
usual ``results/`` table); ``scripts/check_perf.py`` replays a tiny
budget of this benchmark as a smoke gate (``--only engine`` for
set-vs-bitmask, ``--only vector`` for the vector-engine gate).
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import numpy as np

from repro.coteries import GridCoterie, MajorityCoterie, TreeCoterie

from _report import report

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_quorum_engine.json"

SIZES = (9, 16, 25, 49, 100)
RULES = (("grid", GridCoterie),
         ("majority", MajorityCoterie),
         ("tree", TreeCoterie))
N_EVENTS = 20_000
BITMASK_REPEATS = 3
VECTOR_REPEATS = 5
#: sizes where the >= 10x vector-vs-bitmask gate applies (same as
#: scripts/check_perf.py --only vector)
VECTOR_GATED_SIZES = (25, 49)


def _event_stream(n: int, n_events: int, seed: int) -> list[tuple[int, bool]]:
    """(index, now_up) flips: a uniform random walk over node states."""
    rng = random.Random(seed)
    up = [True] * n
    events = []
    for _ in range(n_events):
        i = rng.randrange(n)
        up[i] = not up[i]
        events.append((i, up[i]))
    return events


def _time_set(coterie, nodes, events) -> float:
    up = set(nodes)
    predicate = coterie.is_write_quorum
    t0 = time.perf_counter()
    for i, now_up in events:
        if now_up:
            up.add(nodes[i])
        else:
            up.discard(nodes[i])
        predicate(up)
    return time.perf_counter() - t0


def _time_bitmask(coterie, nodes, events,
                  repeats: int = BITMASK_REPEATS) -> float:
    """Best-of-*repeats* replay through the compiled bitmask engine.

    Best-of matters: the bitmask time is the denominator of the gated
    vector speedup, so scheduler noise on a single pass would swing the
    ratio by tens of percent.
    """
    evaluator = coterie.compile(nodes)
    best = float("inf")
    for _ in range(repeats):
        evaluator.reset((1 << len(nodes)) - 1)
        node_up, node_down = evaluator.node_up, evaluator.node_down
        predicate = evaluator.is_write_quorum
        t0 = time.perf_counter()
        for i, now_up in events:
            if now_up:
                node_up(i)
            else:
                node_down(i)
            predicate()
        best = min(best, time.perf_counter() - t0)
    return best


def _flip_index(events) -> "object":
    """The flipped-node index array -- the vector engine's native input."""
    return np.fromiter((i for i, _ in events), dtype=np.int64,
                       count=len(events))


def _states_matrix(n: int, index) -> "object":
    """The (events, n) boolean up-state matrix after each flip."""
    k = index.shape[0]
    # transposed build: the cumulative sum runs along the contiguous
    # axis, and uint8 wraparound (mod 256, even) preserves flip parity
    delta = np.zeros((n, k), dtype=np.uint8)
    delta[index, np.arange(k)] = 1
    parity = np.cumsum(delta, axis=1, dtype=np.uint8)
    # all nodes start up: up iff an even number of flips so far
    return ((parity & 1) == 0).T


def _packed_states(n: int, index) -> "object":
    """The (events, W) packed uint64 up-state words after each flip."""
    k = index.shape[0]
    n_w = (n + 63) // 64
    delta = np.zeros((n_w, k), dtype=np.uint64)
    delta[index >> 6, np.arange(k)] = (
        np.uint64(1) << (index.astype(np.uint64) & np.uint64(63)))
    parity = np.bitwise_xor.accumulate(delta, axis=1)
    full = np.frombuffer(((1 << n) - 1).to_bytes(n_w * 8, "little"),
                         dtype="<u8")
    return (parity ^ full[:, None]).T


def _time_vector(coterie, nodes, events,
                 repeats: int = VECTOR_REPEATS) -> float:
    """Best-of-*repeats* batch evaluation of the whole event stream.

    The timed region covers what the vector engine actually does per
    chunk: build the state matrix from the flip-index array and answer
    every event with one kernel call -- packed popcount words when the
    family supports them, the boolean bit matrix otherwise.
    """
    evaluator = coterie.compile_batch(nodes)
    index = _flip_index(events)
    packed = getattr(evaluator, "supports_packed", False)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        if packed:
            evaluator.write_packed(_packed_states(len(nodes), index))
        else:
            evaluator.write_bits(_states_matrix(len(nodes), index))
        best = min(best, time.perf_counter() - t0)
    return best


def _check_agreement(coterie, nodes, events) -> None:
    up = set(nodes)
    evaluator = coterie.compile(nodes)
    evaluator.reset((1 << len(nodes)) - 1)
    writes = []
    for i, now_up in events:
        if now_up:
            up.add(nodes[i])
            evaluator.node_up(i)
        else:
            up.discard(nodes[i])
            evaluator.node_down(i)
        assert evaluator.is_write_quorum() == coterie.is_write_quorum(up)
        assert evaluator.is_read_quorum() == coterie.is_read_quorum(up)
        writes.append(evaluator.is_write_quorum())
    batch = coterie.compile_batch(nodes)
    index = _flip_index(events)
    got = batch.write_bits(_states_matrix(len(nodes), index))
    assert got.tolist() == writes
    if getattr(batch, "supports_packed", False):
        packed = batch.write_packed(_packed_states(len(nodes), index))
        assert packed.tolist() == writes


def run_engine_benchmark(sizes=SIZES, rules=RULES, n_events=N_EVENTS,
                         seed: int = 0, verify: bool = True) -> dict:
    """Measure events/sec for both engines; returns the results dict."""
    results = {"n_events": n_events, "seed": seed, "rules": {}}
    for rule_name, rule in rules:
        rows = []
        for n in sizes:
            nodes = [f"n{i:03d}" for i in range(n)]
            coterie = rule(nodes)
            events = _event_stream(n, n_events, seed + n)
            if verify:
                _check_agreement(coterie, nodes,
                                 events[:min(2000, n_events)])
            set_s = _time_set(coterie, nodes, events)
            bit_s = _time_bitmask(coterie, nodes, events)
            vec_s = _time_vector(coterie, nodes, events)
            rows.append({
                "n": n,
                "set_events_per_sec": round(n_events / set_s, 1),
                "bitmask_events_per_sec": round(n_events / bit_s, 1),
                "speedup": round(set_s / bit_s, 2),
                "vector_events_per_sec": round(n_events / vec_s, 1),
                "vector_speedup_vs_bitmask": round(bit_s / vec_s, 2),
            })
        results["rules"][rule_name] = rows
    return results


def render(results: dict) -> str:
    header = (f"{'rule':>8}  {'N':>4}  {'set ev/s':>12}  "
              f"{'bitmask ev/s':>12}  {'speedup':>8}  "
              f"{'vector ev/s':>13}  {'vs bitmask':>10}")
    lines = [
        f"Quorum engine: events/sec, set predicates vs compiled bitmask "
        f"vs numpy batch kernels ({results['n_events']} events/point)",
        header,
    ]
    for rule_name, rows in results["rules"].items():
        for row in rows:
            lines.append(f"{rule_name:>8}  {row['n']:>4}  "
                         f"{row['set_events_per_sec']:>12,.0f}  "
                         f"{row['bitmask_events_per_sec']:>12,.0f}  "
                         f"{row['speedup']:>7.1f}x  "
                         f"{row['vector_events_per_sec']:>13,.0f}  "
                         f"{row['vector_speedup_vs_bitmask']:>9.1f}x")
    lines.append("")
    lines.append("shape check: the bitmask engine's per-event cost is "
                 "~flat in N, so its advantage grows with N; >= 10x on "
                 "the grid from N = 25")
    lines.append("vector check: batch kernels answer the whole stream "
                 "per call; >= 10x over bitmask on grid and majority "
                 "at the gated sizes N = 25 and 49, and it never "
                 "drops below 2x at any size")
    return "\n".join(lines)


def test_engine_speedup(benchmark, capsys):
    results = benchmark.pedantic(run_engine_benchmark, rounds=1,
                                 iterations=1)
    report("quorum_engine", render(results), capsys)
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for row in results["rules"]["grid"]:
        if row["n"] >= 25:
            assert row["speedup"] >= 10.0, row
    # every family must win at every size -- the engine is never a tax
    for rows in results["rules"].values():
        for row in rows:
            assert row["speedup"] > 1.0, row
    for rule_name in ("grid", "majority"):
        for row in results["rules"][rule_name]:
            # the acceptance gate (matching scripts/check_perf.py
            # --only vector); N=100 spans two packed words and its
            # ~11x sits within scheduler noise of the line, so it
            # only gets the never-loses tripwire below
            if row["n"] in VECTOR_GATED_SIZES:
                assert row["vector_speedup_vs_bitmask"] >= 10.0, \
                    (rule_name, row)
            assert row["vector_speedup_vs_bitmask"] >= 2.0, \
                (rule_name, row)


def test_bitmask_kernel_speed(benchmark):
    nodes = [f"n{i:03d}" for i in range(100)]
    coterie = GridCoterie(nodes)
    events = _event_stream(100, N_EVENTS, seed=1)
    benchmark.pedantic(_time_bitmask, args=(coterie, nodes, events),
                       rounds=3, iterations=1)
