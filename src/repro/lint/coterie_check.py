"""Semantic verification of coterie families and Lemma-1 transitions.

``repro lint --coteries`` compiles every registered coterie family at
small N through the bitmask engine and *mechanically* verifies the
properties the protocol's safety argument rests on, instead of trusting
inspection (the approach argued for by Whittaker et al., *Read-Write
Quorum Systems Made Practical*, 2021).  Per family and N, over every
up-set mask:

* **engine consistency** -- the compiled
  :class:`~repro.coteries.base.QuorumEvaluator` agrees bit-for-bit with
  the set-based reference predicates on all ``2^N`` masks;
* **vector consistency** -- the numpy
  :class:`~repro.coteries.batch.BatchEvaluator` kernels agree with the
  same reference tables, evaluated over all masks in one batch call;
* **coterie axioms** -- write/write and read/write intersection, via
  the complement argument (a quorum in M and a quorum in V\\M would be
  disjoint), plus predicate monotonicity under single-node flips and
  non-empty families;
* **quorum function sanity** -- generated quorums lie inside V and
  satisfy their own predicates;
* **strategy soundness** -- the workload-aware strategy optimizer
  (:func:`repro.coteries.optimizer.optimize_strategy`) is checked at
  several read/write mixes against the same reference mask tables:
  every quorum in a strategy's support satisfies the family's own
  predicate, the weights form a probability distribution, every
  *sampled* quorum is a true quorum, and sampling is bit-identical
  across two same-seed passes (the determinism contract every layer
  above relies on);
* **Lemma-1 transitions** -- for every *installable* new epoch E'
  (one containing a write quorum of the current coterie, the paper's
  Lemma-1 precondition): no read quorum of the old coterie survives
  wholly outside E' (old readers cannot miss the epoch change), the
  rule rebuilds a valid coterie over E' (axioms re-checked over
  ``2^|E'|`` sub-masks, so the invariant is inductive across epoch
  chains), its quorums stay inside E', and the re-compiled evaluator
  ignores bits outside E'.

Everything is pure enumeration -- exponential, which is exactly why the
CLI caps N (default ``--max-n 9``; 3^N predicate evaluations per
family for the transition sweep).  The axiom analysis over the mask
tables runs as numpy array passes (the reference predicates themselves
stay scalar -- they are the ground truth being checked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.coteries import (
    Coterie,
    CoterieError,
    GridCoterie,
    HierarchicalCoterie,
    MajorityCoterie,
    ReadOneWriteAllCoterie,
    TreeCoterie,
    WallCoterie,
    WeightedVotingCoterie,
    composite_rule,
)
from repro.coteries.base import CoterieRule


def _weighted_rule(nodes: Sequence[str]) -> Coterie:
    """Weighted voting with descending weights (exercises thresholds)."""
    weights = {name: len(nodes) - i for i, name in enumerate(nodes)}
    return WeightedVotingCoterie(nodes, weights=weights)


def _composite_grid_rule(nodes: Sequence[str]) -> Coterie:
    """Majority-of-grids composite (hierarchical two-level structure)."""
    return composite_rule(MajorityCoterie, GridCoterie)(nodes)


#: family name -> (rule, Ns to verify).  N is capped by ``--max-n``.
COTERIE_FAMILIES: dict[str, tuple[CoterieRule, tuple[int, ...]]] = {
    "grid": (GridCoterie, (4, 6, 9)),
    "majority": (MajorityCoterie, (3, 5, 7)),
    "weighted-voting": (_weighted_rule, (4, 6)),
    "tree": (TreeCoterie, (3, 7)),
    "hierarchical": (HierarchicalCoterie, (5, 9)),
    "rowa": (ReadOneWriteAllCoterie, (3, 5)),
    "wall": (WallCoterie, (6, 9)),
    "composite": (_composite_grid_rule, (6, 9)),
}


@dataclass(frozen=True)
class SemanticFinding:
    """One violated coterie/Lemma-1 property."""

    family: str
    n: int
    check: str
    message: str

    def __str__(self) -> str:
        return f"{self.family} N={self.n} [{self.check}] {self.message}"


@dataclass
class FamilyResult:
    """Verification outcome for one (family, N) pair."""

    family: str
    n: int
    masks: int
    transitions: int
    findings: list[SemanticFinding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.findings)} FINDINGS"
        return (f"coteries: {self.family:<16} N={self.n}  "
                f"{self.masks} masks, {self.transitions} installable "
                f"transitions: {status}")


def _names_of(nodes: Sequence[str], mask: int) -> frozenset:
    return frozenset(name for i, name in enumerate(nodes)
                     if mask >> i & 1)


def check_family(family: str, rule: CoterieRule, n: int,
                 transitions: bool = True) -> FamilyResult:
    """Mechanically verify one coterie family at one N."""
    nodes = [f"n{i}" for i in range(n)]
    full = (1 << n) - 1
    findings: list[SemanticFinding] = []

    def bad(check: str, message: str) -> None:
        findings.append(SemanticFinding(family, n, check, message))

    try:
        coterie = rule(nodes)
        evaluator = coterie.compile(nodes)
    except CoterieError as exc:
        bad("construction", f"rule rejected N={n}: {exc}")
        return FamilyResult(family, n, 0, 0, findings)

    # one pass over all 2^N masks: evaluator vs reference predicates
    reads = [False] * (full + 1)
    writes = [False] * (full + 1)
    for mask in range(full + 1):
        live = _names_of(nodes, mask)
        r_ref = coterie.is_read_quorum(live)
        w_ref = coterie.is_write_quorum(live)
        r_bit = evaluator.is_read_quorum(mask)
        w_bit = evaluator.is_write_quorum(mask)
        if r_ref != r_bit or w_ref != w_bit:
            bad("engine-consistency",
                f"evaluator disagrees with set predicates on "
                f"{sorted(live)}: read {r_bit} vs {r_ref}, "
                f"write {w_bit} vs {w_ref}")
        reads[mask], writes[mask] = r_ref, w_ref

    findings.extend(_vector_consistency(family, n, coterie, nodes,
                                        reads, writes))
    findings.extend(_axiom_findings(family, n, nodes, reads, writes))

    _check_quorum_function(coterie, nodes, bad)

    if not findings:
        findings.extend(_strategy_findings(family, n, coterie, nodes,
                                           reads, writes))

    n_transitions = 0
    if transitions and not findings:
        n_transitions = _check_transitions(family, n, rule, nodes,
                                           reads, writes, findings)
    return FamilyResult(family, n, full + 1, n_transitions, findings)


def _vector_consistency(family: str, n: int, coterie: Coterie,
                        nodes: Sequence[str], reads: list, writes: list
                        ) -> list:
    """Batch kernels vs the reference tables, all masks in one call."""
    out: list[SemanticFinding] = []
    try:
        evaluator = coterie.compile_batch(nodes)
    except CoterieError as exc:
        out.append(SemanticFinding(
            family, n, "vector-consistency",
            f"batch compile failed: {exc}"))
        return out
    masks = np.arange(len(reads), dtype=np.uint64)
    for kind, vec, ref in (
            ("read", evaluator.is_read_quorum_batch(masks), reads),
            ("write", evaluator.is_write_quorum_batch(masks), writes)):
        mismatches = np.flatnonzero(vec != np.asarray(ref, dtype=bool))
        if mismatches.size:
            mask = int(mismatches[0])
            out.append(SemanticFinding(
                family, n, "vector-consistency",
                f"batch evaluator disagrees with set predicates on "
                f"{sorted(_names_of(nodes, mask))}: {kind} "
                f"{bool(vec[mask])} vs {bool(ref[mask])}"))
    return out


def _axiom_findings(family: str, n: int, nodes: Sequence[str],
                    reads: list, writes: list
                    ) -> Iterator[SemanticFinding]:
    """Intersection, non-emptiness, and monotonicity over the mask table.

    *nodes* may be a sub-epoch of the family's full node list (the
    Lemma-1 sweep re-runs this per rebuilt epoch coterie); *n* tags the
    findings with the family's top-level size.  Each check reports its
    first witness in mask order.
    """
    size = len(nodes)
    full = (1 << size) - 1
    r = np.asarray(reads, dtype=bool)
    w = np.asarray(writes, dtype=bool)

    def bad(check: str, message: str) -> SemanticFinding:
        return SemanticFinding(family, n, check, message)

    if not w[full]:
        yield bad("non-empty", "V itself is not a write quorum")
    if not r[full]:
        yield bad("non-empty", "V itself is not a read quorum")
    # reversing the table maps mask -> its complement: w[::-1][m] is
    # w[full & ~m], so a hit is a pair of disjoint quorums
    ww = np.flatnonzero(w & w[::-1])
    if ww.size:
        mask = int(ww[0])
        other = full & ~mask
        yield bad("ww-intersection",
                  f"disjoint write quorums inside "
                  f"{sorted(_names_of(nodes, mask))} and "
                  f"{sorted(_names_of(nodes, other))}")
    rw = np.flatnonzero(w & r[::-1])
    if rw.size:
        mask = int(rw[0])
        other = full & ~mask
        yield bad("rw-intersection",
                  f"a read quorum inside "
                  f"{sorted(_names_of(nodes, other))} misses every "
                  f"write quorum inside "
                  f"{sorted(_names_of(nodes, mask))}")
    masks = np.arange(full + 1)
    best_mask = best_bit = None
    for i in range(size):
        grown = masks | (1 << i)
        violation = (((w & ~w[grown]) | (r & ~r[grown]))
                     & (grown != masks))
        hits = np.flatnonzero(violation)
        # report the scalar loop's witness: smallest mask, then bit
        if hits.size and (best_mask is None or hits[0] < best_mask):
            best_mask, best_bit = int(hits[0]), i
    if best_mask is not None:
        yield bad("monotonicity",
                  f"adding {nodes[best_bit]} to "
                  f"{sorted(_names_of(nodes, best_mask))} destroys a "
                  f"quorum")


def _check_quorum_function(coterie: Coterie, nodes: Sequence[str],
                           bad: Callable[[str, str], None]) -> None:
    """Generated quorums satisfy their own predicates, inside V."""
    universe = set(nodes)
    for kind, picker, predicate in (
            ("read", coterie.read_quorum, coterie.is_read_quorum),
            ("write", coterie.write_quorum, coterie.is_write_quorum)):
        for attempt in range(3):
            quorum = picker(salt="lint", attempt=attempt)
            outside = sorted(set(quorum) - universe)
            if outside:
                bad("quorum-function",
                    f"{kind} quorum escapes V: {outside}")
            if not predicate(quorum):
                bad("quorum-function",
                    f"generated {kind} quorum {sorted(quorum)} fails "
                    f"its own predicate")


#: read/write mixes the strategy sweep verifies per family and N.
STRATEGY_MIXES = (0.5, 0.9)

#: same-seed sample draws compared bit-for-bit per kind and mix.
STRATEGY_DRAWS = 8


def _strategy_findings(family: str, n: int, coterie: Coterie,
                       nodes: Sequence[str], reads: list, writes: list
                       ) -> list:
    """Check the strategy optimizer against the reference mask tables.

    Runs only when the family itself passed the axiom sweep, so a
    strategy finding always means the *optimizer* (or its sampler)
    produced a non-quorum, not that the family is broken.
    """
    from repro.coteries.optimizer import optimize_strategy

    out: list[SemanticFinding] = []
    index = {name: i for i, name in enumerate(nodes)}
    tables = {"read": reads, "write": writes}

    def bad(check: str, message: str) -> None:
        out.append(SemanticFinding(family, n, check, message))

    for fraction in STRATEGY_MIXES:
        try:
            strategy = optimize_strategy(coterie, fraction, seed=0)
        except CoterieError as exc:
            bad("strategy-build",
                f"optimizer failed at read fraction {fraction:g}: {exc}")
            continue
        for kind in ("read", "write"):
            table = tables[kind]
            support = strategy.support(kind)
            weights = strategy.weights(kind)
            if not support:
                bad("strategy-support",
                    f"fr={fraction:g}: empty {kind} support")
                continue
            if any(w < 0 for w in weights) or \
                    abs(sum(weights) - 1.0) > 1e-6:
                bad("strategy-weights",
                    f"fr={fraction:g}: {kind} weights are not a "
                    f"distribution (sum {sum(weights):.6f})")
            for quorum in support:
                mask = sum(1 << index[name] for name in quorum)
                if not table[mask]:
                    bad("strategy-support",
                        f"fr={fraction:g}: {kind} support member "
                        f"{sorted(quorum)} is not a {kind} quorum")
                    break
            draws = [strategy.sample(kind, salt="lint", attempt=i)
                     for i in range(STRATEGY_DRAWS)]
            replay = [strategy.sample(kind, salt="lint", attempt=i)
                      for i in range(STRATEGY_DRAWS)]
            if draws != replay:
                bad("strategy-determinism",
                    f"fr={fraction:g}: same-seed {kind} sampling is "
                    f"not bit-identical")
            for quorum in draws:
                if quorum is None:
                    bad("strategy-sample",
                        f"fr={fraction:g}: {kind} sample returned "
                        f"None with an empty avoid set")
                    break
                mask = sum(1 << index[name] for name in quorum)
                if not table[mask]:
                    bad("strategy-sample",
                        f"fr={fraction:g}: sampled {kind} quorum "
                        f"{sorted(quorum)} is not a {kind} quorum")
                    break
        if out:
            break  # one witness mix is enough
    return out


def _check_transitions(family: str, n: int, rule: CoterieRule,
                       nodes: Sequence[str], reads: list, writes: list,
                       findings: list) -> int:
    """Verify every installable epoch transition (Lemma-1 sweep)."""
    full = (1 << n) - 1
    n_transitions = 0

    def bad(check: str, message: str) -> None:
        findings.append(SemanticFinding(family, n, check, message))

    for epoch_mask in range(1, full):
        if not writes[epoch_mask]:
            continue  # not installable: lacks a write quorum of V
        n_transitions += 1
        members = [name for i, name in enumerate(nodes)
                   if epoch_mask >> i & 1]
        # Lemma 1: no read quorum of the old coterie survives wholly
        # outside the new epoch, so every old reader meets E'.
        if reads[full & ~epoch_mask]:
            bad("lemma1-intersection",
                f"old-epoch read quorum survives outside new epoch "
                f"{members}")
        try:
            sub = rule(members)
        except CoterieError as exc:
            bad("lemma1-rebuild",
                f"rule cannot rebuild coterie for installable epoch "
                f"{members}: {exc}")
            continue
        sub_findings = _sub_coterie_findings(family, n, sub, members)
        if sub_findings:
            findings.extend(sub_findings)
            return n_transitions  # one witness epoch is enough
        _check_sub_evaluator(family, n, sub, nodes, epoch_mask, members,
                             findings)
        if findings:
            return n_transitions
    return n_transitions


def _sub_coterie_findings(family: str, n: int, sub: Coterie,
                          members: list) -> list:
    """Re-check the axioms of one rebuilt epoch coterie."""
    out: list[SemanticFinding] = []
    m = len(members)
    sub_full = (1 << m) - 1
    sub_reads = [False] * (sub_full + 1)
    sub_writes = [False] * (sub_full + 1)
    for mask in range(sub_full + 1):
        live = _names_of(members, mask)
        sub_reads[mask] = sub.is_read_quorum(live)
        sub_writes[mask] = sub.is_write_quorum(live)
    for finding in _axiom_findings(family, n, members, sub_reads,
                                   sub_writes):
        out.append(SemanticFinding(
            family, n, finding.check,
            f"epoch {members}: {finding.message}"))
    return out


def _check_sub_evaluator(family: str, n: int, sub: Coterie,
                         nodes: Sequence[str], epoch_mask: int,
                         members: list, findings: list) -> None:
    """The epoch coterie compiled over the *full* universe must ignore
    bits outside E' -- the dynamic protocol keeps bit positions stable
    across epoch changes (see ``Coterie.compile``)."""
    full = (1 << n) - 1
    try:
        evaluator = sub.compile(nodes)
    except CoterieError as exc:
        findings.append(SemanticFinding(
            family, n, "lemma1-compile",
            f"epoch {members}: compile over full universe failed: {exc}"))
        return
    if not evaluator.is_write_quorum(epoch_mask):
        findings.append(SemanticFinding(
            family, n, "lemma1-compile",
            f"epoch {members}: all members up is not a write quorum "
            f"under the compiled evaluator"))
    if evaluator.is_write_quorum(full & ~epoch_mask):
        findings.append(SemanticFinding(
            family, n, "lemma1-compile",
            f"epoch {members}: nodes outside the epoch satisfy the "
            f"compiled write predicate"))


def check_all_families(
        max_n: int = 9,
        families: Optional[dict] = None) -> list[FamilyResult]:
    """Run :func:`check_family` over the registry, capped at *max_n*."""
    results = []
    for family, (rule, sizes) in (families or COTERIE_FAMILIES).items():
        for n in sizes:
            if n > max_n:
                continue
            results.append(check_family(family, rule, n))
    return results
