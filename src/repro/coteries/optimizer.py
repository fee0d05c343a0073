"""Workload-aware quorum strategy optimization.

The paper's quorum function picks one canonical quorum per (salt,
attempt); Whittaker et al. (*Read-Write Quorum Systems Made Practical*,
2021) show that a *strategy* -- a probability distribution over the
quorums of a fixed coterie -- can do strictly better on load and
latency, because the best distribution adapts to the read/write mix
instead of spreading uniformly.  This module searches for that
distribution and packages it as a :class:`Strategy` the planner can
sample deterministically:

* :func:`optimize_strategy` enumerates the coterie's minimal quorums
  (``properties.minimal_quorums``; beyond ``max_nodes`` it falls back
  to a salted-draw candidate pool so the search stays total), verifies
  the whole candidate set in one :class:`~repro.coteries.batch`
  kernel call, and solves the Naor-Wool load LP (scipy, as in
  ``analysis/optimal_load``) extended with the read/write mix and an
  optional latency tilt from the liveness view's RTT scores.  Without
  scipy a deterministic multiplicative-weights search produces a
  (slightly sub-optimal) balanced strategy instead.
* The optimizer also prices the **read-one tier** (Kumar & Agarwal's
  read-dominant protocol): serve reads from a single replica while
  every write covers *all* nodes.  The tier wins exactly when the mix
  is read-heavy enough -- for a 3x3 grid the busiest-node loads cross
  at read fraction 2/3 -- and ties break toward the quorum strategy
  (its writes tolerate failures; write-all does not).
* :class:`Strategy.sample` draws a quorum from the weighted support
  with an RNG derived via ``sim/seeding.derive_rng`` from the root
  seed and the (salt, attempt) identity, so planning stays
  bit-identical across same-seed runs and independent of every other
  stream in the simulator.

Safety is unchanged by construction: every quorum in a strategy's
support is a true quorum of the bound coterie rule (verified at build
time, and mechanically by ``repro lint --coteries``), and the paper's
Lemma-1 argument quantifies over *all* quorums of the rule -- which one
gets sampled is pure policy.  The read-one tier is the only path that
answers from a non-quorum, and it is validated like a degraded read
(bounded staleness, never freshness) -- see docs/PROTOCOL.md.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.coteries.base import Coterie, CoterieError
from repro.coteries.properties import minimal_quorums
from repro.sim.seeding import derive_rng

#: Enumerating minimal quorums is exponential; beyond this many nodes
#: the optimizer switches to a salted-draw candidate pool.
ENUMERATION_MAX_NODES = 14

#: Salted draws collected for the large-N candidate pool.
POOL_DRAWS = 64

#: The read-one tier must beat the quorum strategy's busiest-node load
#: by at least this margin -- ties (and near-ties) keep the quorum
#: strategy, whose writes survive node failures where write-all cannot.
READ_ONE_MARGIN = 0.05

#: Relative weight of the latency tilt against the load objective.  The
#: tilt only breaks ties between load-equivalent strategies; load stays
#: the primary objective.
LATENCY_TILT = 0.01

#: Weights below this are dropped from the support (LP solvers return
#: tiny numerical residue on inactive variables).
MIN_WEIGHT = 1e-9


def _linprog_or_none():
    try:
        from scipy.optimize import linprog
    except ImportError:  # pragma: no cover - scipy is an optional extra
        return None
    return linprog


class Strategy:
    """A seeded sampling distribution over the quorums of one coterie.

    Immutable once built.  ``read_quorums``/``write_quorums`` are sorted
    tuples of sorted node tuples (the *support*); the parallel weight
    tuples sum to 1 per kind.  ``read_one_tier`` marks the read-dominant
    fast path: the coordinator may answer reads from a single replica
    because every write in the support covers all nodes.
    """

    __slots__ = ("nodes", "seed", "read_fraction", "source",
                 "read_quorums", "read_weights",
                 "write_quorums", "write_weights",
                 "read_one_tier", "_cdf")

    def __init__(self, nodes: Sequence[str], seed: int,
                 read_fraction: float, source: str,
                 read_quorums: Sequence[Sequence[str]],
                 read_weights: Sequence[float],
                 write_quorums: Sequence[Sequence[str]],
                 write_weights: Sequence[float],
                 read_one_tier: bool = False):
        self.nodes = tuple(nodes)
        self.seed = seed
        self.read_fraction = read_fraction
        self.source = source
        self.read_quorums, self.read_weights = _normalize_support(
            read_quorums, read_weights, "read")
        self.write_quorums, self.write_weights = _normalize_support(
            write_quorums, write_weights, "write")
        self.read_one_tier = read_one_tier
        # per-kind cumulative weights, precomputed for the sampling walk
        self._cdf = {"read": _cumulative(self.read_weights),
                     "write": _cumulative(self.write_weights)}

    # -- sampling ----------------------------------------------------------
    def support(self, kind: str) -> tuple:
        """The support quorums of *kind* (sorted tuples of node names)."""
        return self.read_quorums if kind == "read" else self.write_quorums

    def weights(self, kind: str) -> tuple:
        """The per-quorum weights of *kind* (parallel to ``support``)."""
        return self.read_weights if kind == "read" else self.write_weights

    def sample(self, kind: str, avoid: Iterable[str] = (),
               salt: str = "", attempt: int = 0) -> Optional[list]:
        """One weighted draw from the *kind* support, or None.

        Deterministic: the draw comes from an RNG derived from the
        strategy seed and the (kind, salt, attempt) identity, so the
        same seed always samples the same quorum for the same operation
        -- and different operations get independent draws.  With
        *avoid* non-empty, the support is filtered to quorums disjoint
        from the avoided nodes and the weights renormalized; None means
        no support quorum clears the avoid set (the caller falls back
        to the constructive planner).
        """
        if kind not in ("read", "write"):
            raise CoterieError(f"kind must be read or write, got {kind!r}")
        quorums = self.support(kind)
        avoid = frozenset(avoid)
        if avoid:
            keep = [i for i, quorum in enumerate(quorums)
                    if not avoid.intersection(quorum)]
            if not keep:
                return None
            weights = self.weights(kind)
            total = sum(weights[i] for i in keep)
            if total <= 0.0:
                return None
            cdf, acc = [], 0.0
            for i in keep:
                acc += weights[i] / total
                cdf.append(acc)
            quorums = [quorums[i] for i in keep]
        else:
            cdf = self._cdf[kind]
        rng = derive_rng(self.seed, f"strategy/{kind}/{salt}|{attempt}")
        return list(quorums[_cdf_index(cdf, rng.random())])

    def pick_read_replica(self, avoid: Iterable[str] = (),
                          salt: str = "", attempt: int = 0) -> Optional[str]:
        """The read-one tier's single target, or None when every node is
        avoided.  NOT a quorum: callers own the staleness consequences
        (the coordinator validates tier reads like degraded reads).
        Uniform over the non-avoided nodes -- with write-all writes, any
        single replica is equally current in the steady state."""
        avoid = frozenset(avoid)
        candidates = [name for name in self.nodes if name not in avoid]
        if not candidates:
            return None
        rng = derive_rng(self.seed, f"strategy/one/{salt}|{attempt}")
        return candidates[rng.randrange(len(candidates))]

    # -- analysis ----------------------------------------------------------
    def loads(self) -> dict:
        """Per-node expected load under the strategy's read fraction
        (the Naor-Wool load, mixed: ``fr * P[read hits n] + (1 - fr) *
        P[write hits n]``).  The read-one tier reads count as ``1/N``
        per node (uniform single-replica reads)."""
        fr = self.read_fraction
        loads = {name: 0.0 for name in self.nodes}
        if self.read_one_tier:
            for name in loads:
                loads[name] += fr / len(self.nodes)
        else:
            for quorum, weight in zip(self.read_quorums, self.read_weights):
                for name in quorum:
                    loads[name] += fr * weight
        for quorum, weight in zip(self.write_quorums, self.write_weights):
            for name in quorum:
                loads[name] += (1.0 - fr) * weight
        return loads

    @property
    def max_load(self) -> float:
        """The busiest-node load under the strategy's read fraction."""
        return max(self.loads().values())

    def describe(self) -> dict:
        """A JSON-able summary (CLI / benchmark records)."""
        return {
            "nodes": list(self.nodes),
            "seed": self.seed,
            "read_fraction": self.read_fraction,
            "source": self.source,
            "read_one_tier": self.read_one_tier,
            "max_load": round(self.max_load, 6),
            "read_quorums": [{"quorum": list(q), "weight": round(w, 6)}
                             for q, w in zip(self.read_quorums,
                                             self.read_weights)],
            "write_quorums": [{"quorum": list(q), "weight": round(w, 6)}
                              for q, w in zip(self.write_quorums,
                                              self.write_weights)],
        }

    def __repr__(self) -> str:
        tier = " read-one" if self.read_one_tier else ""
        return (f"<Strategy n={len(self.nodes)} fr={self.read_fraction:g}"
                f" {self.source}{tier} reads={len(self.read_quorums)}"
                f" writes={len(self.write_quorums)}"
                f" load={self.max_load:.3f}>")


def _normalize_support(quorums, weights, kind: str):
    """Sorted, deduplicated, weight-merged support with weights summing
    to 1 (sampling must not depend on construction order)."""
    merged: dict = {}
    for quorum, weight in zip(quorums, weights):
        if weight < 0.0:
            raise CoterieError(f"negative {kind} weight {weight}")
        key = tuple(sorted(quorum))
        merged[key] = merged.get(key, 0.0) + weight
    merged = {key: weight for key, weight in merged.items()
              if weight > MIN_WEIGHT}
    if not merged:
        raise CoterieError(f"empty {kind} support")
    total = sum(merged.values())
    ordered = sorted(merged)
    return (tuple(ordered),
            tuple(merged[key] / total for key in ordered))


def _cumulative(weights) -> list:
    acc, out = 0.0, []
    for weight in weights:
        acc += weight
        out.append(acc)
    return out


def _cdf_index(cdf: list, draw: float) -> int:
    for i, bound in enumerate(cdf):
        if draw < bound:
            return i
    return len(cdf) - 1  # draw == 1.0 edge (never with random(); safe)


# -- candidate enumeration -------------------------------------------------

def enumerate_candidates(coterie: Coterie, kind: str,
                         max_nodes: int = ENUMERATION_MAX_NODES) -> list:
    """Candidate quorums for the search: the full minimal-quorum
    antichain at analysis scale, or a deduplicated salted-draw pool for
    large N (every draw is a true quorum by the quorum-function
    contract, so the search stays total at any size)."""
    predicate = (coterie.is_write_quorum if kind == "write"
                 else coterie.is_read_quorum)
    if len(coterie.nodes) <= max_nodes:
        quorums = minimal_quorums(predicate, coterie.nodes,
                                  max_nodes=max_nodes)
        return sorted(tuple(sorted(q)) for q in quorums)
    picker = (coterie.write_quorum if kind == "write"
              else coterie.read_quorum)
    pool = {tuple(sorted(picker(salt=f"strategy{i}", attempt=i)))
            for i in range(POOL_DRAWS)}
    return sorted(pool)


def _verify_support(coterie: Coterie, kind: str, quorums: list) -> None:
    """Every candidate must satisfy its own predicate -- checked in one
    batch kernel call."""
    if not quorums:
        return
    index = {name: i for i, name in enumerate(coterie.nodes)}
    evaluator = coterie.compile_batch()
    masks = np.array([sum(1 << index[name] for name in quorum)
                      for quorum in quorums], dtype=np.uint64)
    ok = (evaluator.is_write_quorum_batch(masks) if kind == "write"
          else evaluator.is_read_quorum_batch(masks))
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise CoterieError(
            f"candidate {kind} quorum "
            f"{list(quorums[int(bad[0])])} fails its own predicate")


# -- weight search ---------------------------------------------------------

def _quorum_rtt(quorum, scores: Optional[Mapping[str, float]]) -> float:
    """A quorum's expected completion cost: its slowest member (a poll
    wave finishes when the last response lands)."""
    if not scores:
        return 0.0
    return max((scores.get(name, 0.0) for name in quorum), default=0.0)


def _lp_weights(read_quorums: list, write_quorums: list, nodes: tuple,
                read_fraction: float,
                scores: Optional[Mapping[str, float]]) -> Optional[tuple]:
    """The mixed-load LP: minimize the busiest-node load ``L`` over
    joint read/write distributions, with a small latency tilt.

    Variables ``r_1..r_R, w_1..w_W, L``; per-node constraint
    ``fr * sum_{r ni n} r_i + (1 - fr) * sum_{w ni n} w_j <= L`` and
    each distribution sums to 1.  Returns ``(read_w, write_w)`` or None
    when scipy is unavailable or the solver fails.
    """
    linprog = _linprog_or_none()
    if linprog is None:
        return None
    fr = read_fraction
    n_r, n_w = len(read_quorums), len(write_quorums)
    n_vars = n_r + n_w + 1
    rtt_scale = max([_quorum_rtt(q, scores)
                     for q in read_quorums + write_quorums] + [0.0])
    c = np.zeros(n_vars)
    c[-1] = 1.0
    if rtt_scale > 0.0:
        # tilt: among load-equal strategies prefer low expected RTT
        for j, quorum in enumerate(read_quorums):
            c[j] = LATENCY_TILT * fr * _quorum_rtt(quorum, scores) / rtt_scale
        for j, quorum in enumerate(write_quorums):
            c[n_r + j] = (LATENCY_TILT * (1.0 - fr)
                          * _quorum_rtt(quorum, scores) / rtt_scale)
    a_ub = np.zeros((len(nodes), n_vars))
    for j, quorum in enumerate(read_quorums):
        for i, node in enumerate(nodes):
            if node in quorum:
                a_ub[i, j] = fr
    for j, quorum in enumerate(write_quorums):
        for i, node in enumerate(nodes):
            if node in quorum:
                a_ub[i, n_r + j] = 1.0 - fr
    a_ub[:, -1] = -1.0
    b_ub = np.zeros(len(nodes))
    a_eq = np.zeros((2, n_vars))
    a_eq[0, :n_r] = 1.0
    a_eq[1, n_r:n_r + n_w] = 1.0
    b_eq = np.ones(2)
    bounds = [(0.0, None)] * (n_r + n_w) + [(0.0, 1.0)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if not result.success:  # pragma: no cover - highs is robust here
        return None
    return (tuple(result.x[:n_r]), tuple(result.x[n_r:n_r + n_w]))


def _search_weights(quorums: list, nodes: tuple,
                    iterations: int = 128) -> tuple:
    """Deterministic multiplicative-weights fallback (no scipy): start
    uniform, repeatedly down-weight quorums through the currently
    busiest nodes.  Converges to a near-balanced distribution -- not LP
    optimal, but a strict improvement over uniform for skewed
    structures, and bit-identical across runs."""
    n_q = len(quorums)
    weights = [1.0 / n_q] * n_q
    for _ in range(iterations):
        loads = {name: 0.0 for name in nodes}
        for quorum, weight in zip(quorums, weights):
            for name in quorum:
                loads[name] += weight
        peak = max(loads.values())
        if peak <= 0.0:
            break
        scaled = [weight / (1.0 + max(loads[name] for name in quorum) / peak)
                  for quorum, weight in zip(quorums, weights)]
        total = sum(scaled)
        weights = [weight / total for weight in scaled]
    return tuple(weights)


# -- the optimizer ---------------------------------------------------------

def optimize_strategy(coterie: Coterie, read_fraction: float,
                      scores: Optional[Mapping[str, float]] = None,
                      seed: int = 0,
                      max_nodes: int = ENUMERATION_MAX_NODES,
                      allow_read_one: bool = True,
                      force_read_one: bool = False) -> Strategy:
    """The load-optimal strategy for *coterie* under *read_fraction*.

    *scores* (peer -> expected RTT, the shape
    ``LivenessView.latency_scores`` returns) adds the latency tilt;
    per-node availability enters at sample time through ``avoid``.
    *allow_read_one* gates the read-dominant tier (the caller disables
    it when the epoch has shrunk below full membership);
    *force_read_one* unconditionally selects it (the ``read-dominant``
    config setting).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise CoterieError(
            f"read_fraction must be in [0, 1], got {read_fraction}")
    nodes = tuple(coterie.nodes)
    read_quorums = enumerate_candidates(coterie, "read", max_nodes)
    write_quorums = enumerate_candidates(coterie, "write", max_nodes)
    _verify_support(coterie, "read", read_quorums)
    _verify_support(coterie, "write", write_quorums)

    solved = _lp_weights(read_quorums, write_quorums, nodes,
                         read_fraction, scores)
    if solved is not None:
        source = "lp"
        read_weights, write_weights = solved
    else:
        source = "search"
        read_weights = _search_weights(read_quorums, nodes)
        write_weights = _search_weights(write_quorums, nodes)

    quorum_strategy = Strategy(nodes, seed, read_fraction, source,
                               read_quorums, read_weights,
                               write_quorums, write_weights)
    if not (allow_read_one or force_read_one):
        return quorum_strategy

    # Price the read-one tier: uniform single-replica reads + write-all.
    # Its busiest-node load is fr/N + (1 - fr); the tier wins only when
    # that beats the quorum strategy by READ_ONE_MARGIN (ties keep the
    # quorum strategy for write fault tolerance).
    n = len(nodes)
    tier_load = read_fraction / n + (1.0 - read_fraction)
    wins = tier_load < quorum_strategy.max_load * (1.0 - READ_ONE_MARGIN)
    if not (force_read_one or wins):
        return quorum_strategy
    # The tier's write support is the full node set (a write quorum by
    # monotonicity -- V contains one); the read support keeps the
    # optimized quorums as the fallback for avoid-filtered samples.
    return Strategy(nodes, seed, read_fraction, source,
                    read_quorums, read_weights,
                    (nodes,), (1.0,), read_one_tier=True)


class StrategyCache:
    """An LRU of optimized strategies keyed by (epoch list, mix bucket).

    Replica servers consult the strategy on every operation; the
    optimizer (enumeration + LP) must run once per epoch and observed
    mix, not once per op.  The read fraction is quantized to
    ``buckets`` steps so a drifting mix estimate does not rebuild the
    strategy continuously -- rebuilds happen on epoch changes and on
    genuine mix regime shifts.  A ``metrics`` registry exports a
    ``strategy_rebuilds`` counter so cache churn is observable.
    """

    def __init__(self, seed: int = 0, capacity: int = 32,
                 buckets: int = 16, metrics=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.seed = seed
        self.capacity = capacity
        self.buckets = buckets
        self._entries: OrderedDict[tuple, Strategy] = OrderedDict()
        self._rebuilds = metrics.counter("strategy_rebuilds") \
            if metrics is not None else None

    def bucket(self, read_fraction: float) -> float:
        """*read_fraction* quantized to the cache's bucket grid."""
        fraction = min(1.0, max(0.0, read_fraction))
        return round(fraction * self.buckets) / self.buckets

    def strategy_for(self, coterie: Coterie, read_fraction: float,
                     scores: Optional[Mapping[str, float]] = None,
                     allow_read_one: bool = True,
                     force_read_one: bool = False) -> Strategy:
        """The cached (or freshly optimized) strategy for one coterie
        and mix.  *scores* only feed newly built entries: the latency
        tilt is a construction-time tie-break, not a per-op re-rank
        (sample-time routing around slow or down nodes is the planner's
        job, via ``avoid``)."""
        bucket = self.bucket(read_fraction)
        key = (tuple(coterie.nodes), bucket, bool(allow_read_one),
               bool(force_read_one))
        entries = self._entries
        strategy = entries.get(key)
        if strategy is None:
            if self._rebuilds is not None:
                self._rebuilds.inc()
            strategy = optimize_strategy(
                coterie, bucket, scores=scores, seed=self.seed,
                allow_read_one=allow_read_one,
                force_read_one=force_read_one)
            entries[key] = strategy
            if len(entries) > self.capacity:
                entries.popitem(last=False)
        else:
            entries.move_to_end(key)
        return strategy

    def __len__(self) -> int:
        return len(self._entries)
