"""The benchmark's four workloads, built only on public entry points.

Every workload is a function of ``--seed`` alone: the op plan (arrival
times, op kinds, payloads, coordinators) is drawn up front from
``random.Random`` streams derived from the seed, so two runs with the
same seed issue exactly the same inputs and -- the simulation being
deterministic -- produce exactly the same outcomes.

Store workloads are an open loop on the *simulated* clock: one
generator process releases each op at its Poisson due time, so the
generator can never run late (its lateness is zero by construction) and
every op is timed from when it was due.  The message delay is the store
default, uniform 1-10 simulated ms per hop.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.availability import montecarlo, vectorized
from repro.availability.exact_dynamic import ExactDynamicChain
from repro.chaos.faults import LinkFaults
from repro.core.config import ProtocolConfig
from repro.core.store import ReplicatedStore
from repro.coteries.grid import GridCoterie
from repro.obs import build_summary
from repro.shard.store import ShardedStore
from repro.workloads.generators import ZipfKeyChooser


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def seeded(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream for one input."""
    digest = hashlib.sha256(f"perfbench|{seed}|{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list (``inf`` sorts last)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    kinds: list                    # "read" | "write" per op, in plan order
    latencies: list                # simulated s, or host CPU s (a lap if
                                   # timed); inf = failed
    failed: int
    digest: str
    host_s: float                  # host wall seconds of the timed phase
    laps: list                     # rescaled CPU s per chunk (see Laps)
    counts: dict = field(default_factory=dict)   # deterministic extras
    store: object = None           # kept for the layer metrics


#: iterations of the reference loop, about 1 ms of CPU
REF_ITERATIONS = 12_000
#: the reference loop's CPU time that every lap is rescaled to
REF_NOMINAL_S = 1e-3
#: simulation events per lap of a store workload (40-60 ms of CPU)
LAP_EVENTS = 3000


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop.  It works in registers and
    the first-level cache, so its speed tells how fast the core runs, not
    what the program left in the caches.  It allocates nothing the
    garbage collector tracks, so no collection of the program's heap
    lands in it."""
    began = time.process_time()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.process_time() - began


class Laps:
    """Host CPU time of consecutive chunks of work, each rescaled by the
    reference loop run right after it.

    The CPU time of fixed work drifts by up to 1.9x on a shared machine
    (other tenants on the same core), in phases from a tenth of a second
    to minutes.  A chunk and the loop right after it run at nearly the
    same speed, so ``chunk * REF_NOMINAL_S / loop`` cancels most of the
    drift: a lap is the chunk's CPU seconds on a machine where the loop
    takes ``REF_NOMINAL_S``.  The loop's own time is not in any lap."""

    def __init__(self):
        self.seconds: list = []
        self._mark = time.process_time()

    def lap(self) -> float:
        """Close the current chunk and start the next; returns its lap."""
        chunk = time.process_time() - self._mark
        self.seconds.append(chunk * REF_NOMINAL_S / reference_loop())
        self._mark = time.process_time()
        return self.seconds[-1]


# -- store workloads ----------------------------------------------------------

@dataclass(frozen=True)
class StoreWorkload:
    """One open-loop store workload: cluster shape, mix and fault script."""

    name: str
    rate: float                    # offered ops per simulated second
    n_ops: int
    write_fraction: float
    warmup_ops: int
    build: Callable                # (workload, seed) -> (store, vias, faults)
    payload: Callable              # workload -> (rng, index) -> op

    def plan(self, seed: int, n_ops: Optional[int] = None) -> list:
        """``[(due_offset, kind, key, updates, via_index)]`` for the run."""
        arrivals = seeded(seed, f"{self.name}/arrivals")
        mix = seeded(seed, f"{self.name}/mix")
        route = seeded(seed, f"{self.name}/via")
        payload = self.payload(self)
        due = 0.0
        plan = []
        for index in range(self.n_ops if n_ops is None else n_ops):
            due += arrivals.expovariate(self.rate)
            kind, key, updates = payload(mix, index)
            plan.append((due, kind, key, updates, route.random()))
        return plan


OBJECT_FIELDS = 64


def _object_rw_build(workload, seed):
    initial = {f"f{i:02d}": 0 for i in range(OBJECT_FIELDS)}
    store = ReplicatedStore.create(25, seed=seed, initial_value=initial)
    return store, list(store.node_names), None


def _object_payload(workload):
    def draw(rng, index):
        if rng.random() < workload.write_fraction:
            field = f"f{rng.randrange(OBJECT_FIELDS):02d}"
            return "write", None, {field: index}
        return "read", None, None
    return draw


def _object_faults_build(workload, seed):
    config = ProtocolConfig(adaptive_timeouts=True, hedge_requests=True,
                            epoch_check_interval=10.0,
                            epoch_check_staleness=25.0)
    initial = {f"f{i}": 0 for i in range(4)}
    store = ReplicatedStore.create(9, seed=seed, config=config,
                                   initial_value=initial,
                                   auto_epoch_check=True)
    names = list(store.node_names)
    column = GridCoterie(names).columns[-1]
    survivors = [name for name in names if name not in column]
    slow = survivors[-1]
    faults = LinkFaults()
    store.network.faults = faults
    faults.slow_node(slow, 10.0, names)
    return store, survivors[:-1], {"column": list(column), "slow": slow}


def _object_faults_script(store, faults, start, span):
    """Crash the grid column one node at a time, then recover them all."""
    schedule = store.schedule()
    crashes = []
    for i, name in enumerate(faults["column"]):
        at = start + span * (0.2 + 0.12 * i)
        schedule.crash_at(at, name)
        crashes.append(at)
    for name in faults["column"]:
        schedule.recover_at(start + span * 0.7, name)
    schedule.start()
    return crashes


SHARD_KEYS = 10_000


def _shard_build(workload, seed):
    store = ShardedStore.create(6, n_shards=1024, replication=3, seed=seed,
                                track_history=True, auto_sweep=True)
    return store, list(store.node_names), None


def _shard_payload(workload):
    chooser = ZipfKeyChooser(SHARD_KEYS)

    def draw(rng, index):
        key = f"key{chooser.pick_index(rng)}"
        if rng.random() < workload.write_fraction:
            return "write", key, {"v": index}
        return "read", key, None
    return draw


STORE_WORKLOADS = {
    "object-rw": StoreWorkload(
        "object-rw", rate=0.125, n_ops=2200, write_fraction=0.5,
        warmup_ops=20, build=_object_rw_build, payload=_object_payload),
    "object-faults": StoreWorkload(
        "object-faults", rate=0.5, n_ops=5500, write_fraction=0.2,
        warmup_ops=30, build=_object_faults_build, payload=_object_payload),
    "shard-read": StoreWorkload(
        "shard-read", rate=20.0, n_ops=11000, write_fraction=0.1,
        warmup_ops=50, build=_shard_build, payload=_shard_payload),
}


def _launch(store, kind, key, updates, via):
    if isinstance(store, ShardedStore):
        if kind == "write":
            return store.start_write(key, updates, via=via)
        return store.start_read(key, via=via)
    if kind == "write":
        return store.start_write(updates, via=via)
    return store.start_read(via=via)


#: the warm-up plan is the same for every seed, so that set-up cost
#: (``setup_s``) does not vary with the seed's op mix
WARMUP_SEED = 10_000_019


def setup_store(workload: StoreWorkload, seed: int):
    """Build the cluster and run the untimed warm-up (first compiles,
    RTT estimators, caches).  Returns ``(store, vias, faults)``."""
    store, vias, faults = workload.build(workload, seed)
    warm = workload.plan(WARMUP_SEED, n_ops=workload.warmup_ops)
    for _due, kind, key, updates, pick in warm:
        via = vias[int(pick * len(vias))]
        store.join(_launch(store, kind, key, updates, via))
    return store, vias, faults


def execute_store(workload: StoreWorkload, seed: int, built,
                  tracer=None, n_ops: Optional[int] = None,
                  timed: bool = False) -> Outcome:
    """The timed phase: release the plan open-loop and drain; then the
    checks.  *timed* closes a lap every LAP_EVENTS events (the same
    chunks of work on every same-seed repetition).  With a *tracer*,
    spans are recorded for the timed phase only, and each op's work
    carries its plan index as op id."""
    store, vias, faults = built
    env = store.env
    plan = workload.plan(seed, n_ops=n_ops)
    start = env.now
    span = plan[-1][0]
    crashes = []
    if faults is not None:
        crashes = _object_faults_script(store, faults, start, span)
    results = [None] * len(plan)
    done = [0.0] * len(plan)
    remaining = [len(plan)]

    def finisher(index):
        def finish(event):
            results[index] = event.value if event.ok else None
            done[index] = env.now
            remaining[0] -= 1
        return finish

    def generator():
        for index, (due, kind, key, updates, pick) in enumerate(plan):
            delay = start + due - env.now
            if delay > 0:
                yield env.timeout(delay)
            if tracer is not None:
                tracer.op = index
            process = _launch(store, kind, key, updates,
                              vias[int(pick * len(vias))])
            if tracer is not None:
                tracer.op = -1
            process.callbacks.append(finisher(index))

    summary_before = build_summary(store.metrics_snapshot())
    events_before = env.events_processed
    messages_before = store.network.messages_sent
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    began = time.perf_counter()
    laps = Laps() if timed else None
    steps = 0
    env.process(generator(), name="open-loop")
    deadline = start + span + 600.0
    while remaining[0]:
        if env.queue_size == 0 or env.now > deadline:
            raise CheckFailed(f"{remaining[0]} ops never completed "
                              f"(t={env.now:.1f})")
        env.step()
        if laps is not None:
            steps += 1
            if steps == LAP_EVENTS:
                laps.lap()
                steps = 0
    if laps is not None:
        laps.lap()
    host_s = time.perf_counter() - began
    if tracer is not None:
        tracer.active = False
    events = env.events_processed - events_before
    messages = store.network.messages_sent - messages_before
    summary_after = build_summary(store.metrics_snapshot())

    kinds, latencies, failed = [], [], 0
    rows = []
    for index, (due, kind, _key, _updates, _pick) in enumerate(plan):
        result = results[index]
        ok = result is not None and result.ok
        latency = done[index] - (start + due) if ok else math.inf
        failed += not ok
        kinds.append(kind)
        latencies.append(latency)
        rows.append((kind, ok, getattr(result, "version", None),
                     getattr(result, "case", None),
                     getattr(result, "attempts", 0),
                     getattr(result, "polls", 0), repr(latency)))
    outage = _outage(plan, start, done, results, crashes)
    counts = {"events": events, "attempts": sum(r[4] for r in rows),
              "ok": len(plan) - failed,
              "write_polls": sum(r[5] for r in rows if r[0] == "write"),
              "heavy": sum(1 for r in rows if r[3] == "heavy"),
              "messages": messages, "outage_s": outage,
              "summary": (summary_before, summary_after)}
    _drain_and_check(store, faults)
    digest = hashlib.sha256(repr((rows, _final_versions(store, plan),
                                  env.events_processed)).encode())
    return Outcome(kinds, latencies, failed, digest.hexdigest(), host_s,
                   laps.seconds if laps is not None else [], counts, store)


def _outage(plan, start, done, results, crashes) -> float:
    """Max over crashes of: crash -> commit of the first write due after."""
    worst = 0.0
    for crash in crashes:
        for index, (due, kind, *_rest) in enumerate(plan):
            if kind == "write" and start + due >= crash:
                if results[index] is None or not results[index].ok:
                    return math.inf
                worst = max(worst, done[index] - crash)
                break
    return worst


def _final_versions(store, plan):
    if isinstance(store, ShardedStore):
        keys = sorted({key for _d, kind, key, _u, _p in plan
                       if kind == "write"})
        versions = []
        for key in keys:
            shard = store.shard_of(key)
            members, _number = store.current_epoch(shard)
            versions.append((key, tuple(
                store.hosts[name].item_state(shard, key).version
                for name in members)))
        return versions
    return sorted(store.versions().items())


def _drain_and_check(store, faults) -> None:
    """Quiesce, then run the store's own checkers and the lock check."""
    sharded = isinstance(store, ShardedStore)
    if faults is not None:
        store.settle()
    store.advance(10.0)
    try:
        store.verify()
    except AssertionError as violation:  # incl. history.ConsistencyError
        raise CheckFailed(f"verify(): {violation}") from violation
    if sharded:
        held = store.live_locks()
    else:
        held = sorted(lock.name for node in store.nodes.values()
                      for lock in node.locks if lock.locked)
    if held:
        raise CheckFailed(f"locks still held after the drain: {held}")


# -- the Monte Carlo workload ---------------------------------------------------

LAM, MU = 1.0, 4.0                 # p = mu / (lam + mu) = 0.8
BITMASK_N, VECTOR_N = 25, 49
CHECK_INTERVAL = 0.05              # the vector engine's finite-check regime
#: absolute tolerance of a pooled estimate against the exact chain value
#: (instantaneous checks); the finite-check penalty at CHECK_INTERVAL and
#: the Monte Carlo noise over the pooled horizon both sit well below it
UNAVAILABILITY_TOL = 1e-3
#: exact steady-state unavailability of the dynamic grid at p = 0.8 from
#: the repo's epoch chains, ``dynamic_grid_unavailability`` and
#: ``dynamic_grid_read_unavailability`` (``exact=False``).  Solving the
#: N = 49 chain takes half a minute, so the values are pinned here and
#: re-derived by ``perfbench/tests``.
CHAIN_UNAVAILABILITY = {
    (BITMASK_N, "write"): 4.552270485348067e-13,
    (BITMASK_N, "read"): 2.1640655051345254e-13,
    (VECTOR_N, "write"): 2.865907742603482e-17,
    (VECTOR_N, "read"): 2.9595309800598947e-29,
}
#: event counts may deviate from the site model's closed-form mean by at
#: most this many Poisson standard deviations (the true spread is smaller)
EVENT_SIGMAS = 6.0
#: the reference query, untimed, once per run: at p = 2/3 on grid-6 the
#: unavailability is about 0.24, so a quorum evaluator that misjudges
#: states moves it measurably, and N = 6 is small enough for the exact
#: (epoch, up-set) chain of the protocol the engines run.  (The Figure 3
#: chain idealises that protocol and misses it by up to 0.09 at this p.)
REF_N, REF_LAM, REF_MU = 6, 1.0, 2.0
REF_QUERIES, REF_HORIZON = 16, 200.0
#: each engine's mean over the reference queries must sit within this
#: many standard errors of the exact chain
REF_SIGMAS = 6.0


@dataclass(frozen=True)
class McWorkload:
    """Availability queries answered by both Monte Carlo engines."""

    name: str
    n_ops: int
    bitmask_horizon: float
    vector_horizon: float

    def plan(self, seed: int, n_ops: Optional[int] = None) -> list:
        """``[(kind, engine_seed)]``: alternating read/write queries."""
        rng = seeded(seed, f"{self.name}/seeds")
        return [("read" if index % 2 == 0 else "write",
                 rng.randrange(2 ** 31))
                for index in range(self.n_ops if n_ops is None else n_ops)]


AVAIL_MC = McWorkload("avail-mc", n_ops=800, bitmask_horizon=4.0,
                      vector_horizon=1.5)


def _bitmask(kind, seed, horizon):
    return montecarlo.simulate_dynamic_availability(
        BITMASK_N, LAM, MU, horizon, seed=seed, kind=kind)


def _vector(kind, seed, horizon):
    return vectorized.simulate_dynamic_availability_vector(
        VECTOR_N, LAM, MU, horizon, seed=seed, kind=kind,
        check_interval=CHECK_INTERVAL)


def setup_mc(workload: McWorkload, seed: int):
    """Warm-up: the first compile of both engines' evaluators."""
    for kind in ("read", "write"):
        _bitmask(kind, WARMUP_SEED, workload.bitmask_horizon)
        _vector(kind, WARMUP_SEED, workload.vector_horizon)
    return None


def execute_mc(workload: McWorkload, seed: int, built=None,
               tracer=None, n_ops: Optional[int] = None,
               timed: bool = False) -> Outcome:
    """Answer every query with both engines.  A query's latency is its
    host CPU time, which leaves out time spent waiting for a CPU; *timed*
    makes each query one lap and its latency that lap."""
    plan = workload.plan(seed, n_ops=n_ops)
    kinds, latencies, estimates = [], [], []
    engine_s = {"bitmask": 0.0, "vector": 0.0}
    clock = time.process_time
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    began = time.perf_counter()
    laps = Laps() if timed else None
    for index, (kind, engine_seed) in enumerate(plan):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        bitmask = _bitmask(kind, engine_seed, workload.bitmask_horizon)
        t1 = clock()
        vector = _vector(kind, engine_seed, workload.vector_horizon)
        t2 = clock()
        engine_s["bitmask"] += t1 - t0
        engine_s["vector"] += t2 - t1
        kinds.append(kind)
        latencies.append(laps.lap() if laps is not None else t2 - t0)
        estimates.append((kind, bitmask, vector))
    host_s = time.perf_counter() - began
    if tracer is not None:
        tracer.active = False
    counts = _check_mc(workload, estimates)
    counts["engine_s"] = engine_s
    digest = hashlib.sha256(repr(
        [(k, b.availability, b.n_events, b.n_epoch_changes,
          v.availability, v.n_events, v.n_epoch_changes)
         for k, b, v in estimates]).encode())
    return Outcome(kinds, latencies, 0, digest.hexdigest(), host_s,
                   laps.seconds if laps is not None else [], counts)


def expected_events(n_nodes: int, horizon: float) -> float:
    """Closed-form mean site-model event count from the all-up state.

    Each node is an independent up/down Markov chain: P(up at t) =
    p + (1 - p) e^{-(lam+mu) t}, so its flip rate is lam P + mu (1 - P);
    integrating over [0, horizon] gives the mean count."""
    p = MU / (LAM + MU)
    rate = LAM + MU
    steady = LAM * p + MU * (1 - p)
    transient = (LAM - MU) * (1 - p) * (1 - math.exp(-rate * horizon)) / rate
    return n_nodes * (steady * horizon + transient)


def _check_mc(workload: McWorkload, estimates) -> dict:
    """Pooled estimates against the exact chains; event counts against the
    site model's closed form."""
    horizons = {"bitmask": workload.bitmask_horizon,
                "vector": workload.vector_horizon}
    sizes = {"bitmask": BITMASK_N, "vector": VECTOR_N}
    counts = {"bitmask_events": 0, "vector_events": 0,
              "epoch_changes": 0}
    for engine, position in (("bitmask", 1), ("vector", 2)):
        events = sum(row[position].n_events for row in estimates)
        counts[f"{engine}_events"] = events
        counts["epoch_changes"] += sum(row[position].n_epoch_changes
                                       for row in estimates)
        mean = len(estimates) * expected_events(sizes[engine],
                                                horizons[engine])
        if abs(events - mean) > EVENT_SIGMAS * math.sqrt(mean):
            raise CheckFailed(f"{engine}: {events} site-model events, "
                              f"closed form expects {mean:.0f}")
        for kind in ("read", "write"):
            rows = [row[position] for row in estimates if row[0] == kind]
            pooled = sum(e.unavailability for e in rows) / len(rows)
            reference = CHAIN_UNAVAILABILITY[(sizes[engine], kind)]
            counts[f"{engine}_{kind}_unavailability"] = pooled
            if abs(pooled - reference) > UNAVAILABILITY_TOL:
                raise CheckFailed(
                    f"{engine} {kind} unavailability {pooled:.3g} is not "
                    f"within {UNAVAILABILITY_TOL} of the exact chain's "
                    f"{reference:.3g}")
    return counts


def reference_check(seed: int) -> list:
    """Both engines against the exact chain in a regime where
    unavailability is measurable; returns report lines."""
    chain = ExactDynamicChain(REF_N, REF_LAM, REF_MU)
    steady = chain.steady_state()
    rng = seeded(seed, "avail-mc/reference")
    seeds = [rng.randrange(2 ** 31) for _ in range(REF_QUERIES)]
    engines = (("bitmask", montecarlo.simulate_dynamic_availability),
               ("vector", vectorized.simulate_dynamic_availability_vector))
    lines = []
    for kind in ("read", "write"):
        exact = chain.unavailability(kind, steady)
        for engine, simulate in engines:
            values = [simulate(REF_N, REF_LAM, REF_MU, REF_HORIZON,
                               seed=query, kind=kind).unavailability
                      for query in seeds]
            mean = statistics.fmean(values)
            error = statistics.stdev(values) / math.sqrt(len(values))
            line = (f"{engine} {kind} unavailability {mean:.4f} +- "
                    f"{error:.4f} (exact chain {exact:.4f}, grid-{REF_N}, "
                    f"p={REF_MU / (REF_LAM + REF_MU):.3f}, "
                    f"{len(values)} queries)")
            if abs(mean - exact) > REF_SIGMAS * error:
                raise CheckFailed(f"{line}: more than {REF_SIGMAS} "
                                  "standard errors off")
            lines.append(line)
    return lines


def summary_ms(store) -> float:
    """Host ms of the end-of-run observability export."""
    began = time.perf_counter()
    build_summary(store.metrics_snapshot())
    return (time.perf_counter() - began) * 1e3


#: name -> (workload, setup, execute) for every benchmark workload
WORKLOADS = {name: (workload, setup_store, execute_store)
             for name, workload in STORE_WORKLOADS.items()}
WORKLOADS[AVAIL_MC.name] = (AVAIL_MC, setup_mc, execute_mc)
