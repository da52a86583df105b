"""The sharded parallel comparison engine.

One comparison, many cores: the product walk of
:func:`repro.fdd.fast.compare_fast` is partitioned by the **root field's
edge partition** — the atomic intervals the two policies' rules induce on
field 0 — into contiguous shards of the field-0 domain.  Restricting both
firewalls to a shard (dropping rules whose field-0 predicate misses it)
yields an independent sub-comparison whose difference diagram covers
exactly the packets with a field-0 value inside the shard, so per-shard
results merge by *addition*:

* disputed-packet counts (total and per decision pair) sum exactly;
* discrepancy cells concatenate in shard order (shards ascend in field
  0, matching the serial engine's DFS enumeration order);
* node/path counts sum (as per-shard structural totals; cross-shard
  sharing is intentionally given up for parallelism).

Execution has two modes sharing one merge path:

* **Inline** (``inline=True``, and any single-shard run): both firewalls
  are constructed **once** into one shared
  :class:`~repro.fdd.store.NodeStore`, and each shard's difference is
  built by restricting the full diagram's field-0 edges to the shard
  (:func:`_restrict_root`) — no per-shard re-interning, and the store's
  persistent product caches share every repeated sub-product across
  shards.  Restriction is sound because the hash-consed construction
  output is the unique reduced diagram of the policy: slicing its root
  edges yields exactly the diagram a per-shard reconstruction would
  build.
* **Process fan-out** (``inline=False``): a three-phase pipeline over
  the persistent worker pool (:mod:`repro.parallel.pool`):

  1. **Piece construction.**  Construction dominates serial cost
     (~90 % on the Fig. 13 workload), so it is what fans out.  The
     (oversplit) shard plan is grouped into ≤ ``jobs`` contiguous
     *pieces* of the field-0 domain, and one task per (side, piece)
     constructs :func:`restrict_to_shard`'s restriction in a worker.
     The split is over the domain, never the rule list: a rule-suffix
     chunk loses the shadowing of earlier rules and its diagram blows
     up, while a restricted firewall preserves rule order — and the
     hash-consed output is exactly the full diagram's restriction.
  2. **Intern + publish.**  The parent interns the returned piece roots
     into one store and publishes them **once** as a snapshot (shared
     memory when available, pipe bytes otherwise).
  3. **Snapshot shard fan-out.**  Shard tasks carry only the snapshot
     id, their interval, and their piece index.  Workers resolve the
     snapshot once per comparison, then build every shard difference
     via :func:`_restrict_root` over their cached store — the same
     restriction the inline path uses, so no per-shard reconstruction.
     Shards are *oversplit* (more shards than jobs) and dispatched
     longest-first, so a slow shard no longer bounds wall-clock
     (work-stealing via the pool's free-worker dispatch).

Guard budgets (PR 1) propagate: each worker receives the parent's
*remaining* budget (deadline already discounted by elapsed dispatch
time), spends under its own :class:`~repro.guard.GuardContext`, and the
parent re-ticks every shard's spend on merge so the *aggregate* is
enforced against the original budget — in inline mode the one-time
construction spend lands on the parent directly.  The first
:class:`~repro.exceptions.BudgetExceededError` (or any worker error)
terminates the remaining shards before re-raising.

Process fan-out runs **supervised** by default (PR 6): shards dispatch
through :func:`repro.parallel.supervisor.supervise`, which detects
crashed/hung workers and corrupted result envelopes, retries with
backoff, and — when retries are exhausted — re-executes the shard
serially in the parent under the remaining budget, recording a
:class:`~repro.parallel.supervisor.Degradation` on the merged result.
Every dispatch (including retries and the serial fallback) re-derives
the shard's budget from the parent's remaining headroom, and completed
shards tick the parent as they arrive, so no retry sequence can
outspend the caller's original budget.
"""

from __future__ import annotations

import bisect
import os
import pickle
import time
from dataclasses import dataclass, field, replace

from repro.analysis.discrepancy import Discrepancy
from repro.exceptions import SchemaError
from repro.fdd.fast import (
    DifferenceFDD,
    _PairNode,
    build_difference,
    construct_fdd_fast,
)
from repro.fdd.fdd import FDD
from repro.fdd.node import InternalNode, Node
from repro.fdd.store import NodeStore
from repro.fields import FieldSchema
from repro.guard import Budget, FaultInjector, GuardContext
from repro.intervals import IntervalSet
from repro.parallel.pool import (
    get_pool,
    register_derived_cache,
    resolve_snapshot,
)
from repro.parallel.supervisor import (
    Degradation,
    ShardFailure,
    SupervisorConfig,
    supervise,
)
from repro.policy.decision import Decision
from repro.policy.firewall import Firewall
from repro.policy.predicate import Predicate
from repro.policy.rule import Rule

__all__ = [
    "ShardResult",
    "ParallelComparison",
    "PairComparison",
    "default_jobs",
    "plan_shards",
    "restrict_to_shard",
    "comparison_summary",
    "compare_sharded",
    "compare_parallel",
    "compare_many",
]


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per CPU."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Shard planning: the root field's edge partition, weight-balanced
# ----------------------------------------------------------------------


def plan_shards(fw_a: Firewall, fw_b: Firewall, jobs: int) -> list[IntervalSet]:
    """Partition field 0's domain into ≤ ``jobs`` contiguous shards.

    Cut points are the edge boundaries both rule lists induce on the
    root field (exactly the refinement FDD construction builds at the
    root), and atoms are grouped greedily so each shard carries a
    near-equal share of the *work proxy*: the number of rule intervals
    overlapping it.  The shards are disjoint, ascending, and union to
    the full field-0 domain.
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot shard firewalls over different field schemas")
    domain = fw_a.schema.domain(0)
    if jobs <= 1:
        return [domain]
    lo0, hi0 = domain.min(), domain.max()
    cuts = {lo0, hi0 + 1}
    for fw in (fw_a, fw_b):
        for rule in fw.rules:
            for iv in rule.predicate.sets[0].intervals:
                cuts.add(iv.lo)
                cuts.add(iv.hi + 1)
    points = sorted(cuts)
    # Rule-overlap weight per atom, via a difference array over the cuts.
    deltas = [0] * len(points)
    for fw in (fw_a, fw_b):
        for rule in fw.rules:
            for iv in rule.predicate.sets[0].intervals:
                deltas[bisect.bisect_left(points, iv.lo)] += 1
                deltas[bisect.bisect_left(points, iv.hi + 1)] -= 1
    atom_weights = []
    depth = 0
    for k in range(len(points) - 1):
        depth += deltas[k]
        atom_weights.append(1 + depth)
    total = sum(atom_weights)
    # More parts than atoms can never be filled, and leaving the excess
    # in ``jobs`` makes the greedy pass below refuse *every* cut (it
    # always reserves one atom per remaining shard), collapsing the plan
    # to a single shard — fewer shards for a larger ``jobs``.
    jobs = min(jobs, len(atom_weights))
    # Greedy chunking: close a shard once its cumulative share is met,
    # always leaving at least one atom for every shard still to come.
    shards: list[IntervalSet] = []
    start = 0
    cum = 0.0
    for k, weight in enumerate(atom_weights):
        cum += weight
        shards_left = jobs - len(shards)
        atoms_left = len(atom_weights) - k - 1
        if (
            shards_left > 1
            and cum >= (len(shards) + 1) * total / jobs
            and atoms_left >= shards_left - 1
        ):
            shards.append(domain.intersect(IntervalSet.span(points[start], points[k + 1] - 1)))
            start = k + 1
    shards.append(domain.intersect(IntervalSet.span(points[start], hi0)))
    return [shard for shard in shards if not shard.is_empty()]


def restrict_to_shard(firewall: Firewall, shard: IntervalSet) -> Firewall:
    """The firewall's behaviour over packets with field 0 in ``shard``.

    Intersects every rule's field-0 conjunct with the shard and drops
    rules that cannot match inside it.  The result is comprehensive over
    the shard's slice of the universe (the original policy was
    comprehensive over all of it), but not over the full domain, so the
    whole-domain comprehensiveness check is skipped.
    """
    schema = firewall.schema
    kept: list[Rule] = []
    for rule in firewall.rules:
        sets = rule.predicate.sets
        restricted = sets[0].intersect(shard)
        if restricted.is_empty():
            continue
        if restricted == sets[0]:
            kept.append(rule)
        else:
            kept.append(
                Rule(
                    Predicate(schema, (restricted,) + tuple(sets[1:])),
                    rule.decision,
                    rule.comment,
                )
            )
    return Firewall(
        schema, kept, name=firewall.name, require_comprehensive=False
    )


# ----------------------------------------------------------------------
# Per-shard execution (runs inside worker processes — must stay
# module-level and picklable for spawn)
# ----------------------------------------------------------------------


#: Fan-out plans this many shards per worker, so longest-first dispatch
#: over the pool's free workers can steal around a slow shard instead of
#: letting ``shard_ms_max`` bound wall-clock.
_OVERSPLIT = 3


@dataclass(frozen=True)
class _PieceTask:
    """Construct one side's diagram restricted to one coarse piece.

    Construction dominates serial cost, so it is what fans out — but
    splitting the *rule list* is adversarial (a later chunk loses the
    shadowing of earlier rules and its diagram blows up), so the split
    is over the field-0 **domain** instead: each piece is a contiguous
    union of the final shard plan's intervals, and the task constructs
    :func:`restrict_to_shard`'s restriction of one side to it.  Rule
    order (and therefore shadowing) is fully preserved inside a piece,
    and the hash-consed output is exactly the full diagram's restriction
    — so phase 3 can serve any sub-shard of the piece from its root.
    """

    piece_index: int
    #: ``"a"`` or ``"b"``.
    side: str
    firewall: Firewall
    budget: Budget | None
    fault: FaultInjector | None


@dataclass(frozen=True)
class _PieceResult:
    """One constructed piece root, with the worker's guard spend."""

    piece_index: int
    side: str
    root: Node
    progress: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0


def _execute_piece(task: _PieceTask) -> _PieceResult:
    """Construct one restricted side (in a worker process or inline).

    Builds into a fresh local store; only the root's node graph (a few
    tens of KB) crosses back over the pipe.
    """
    guard = None
    if task.budget is not None or task.fault is not None:
        guard = GuardContext(
            task.budget if task.budget is not None else Budget.unlimited(),
            fault=task.fault,
        )
    start = time.perf_counter()
    store = NodeStore()
    fdd = construct_fdd_fast(task.firewall, store, guard=guard)
    return _PieceResult(
        piece_index=task.piece_index,
        side=task.side,
        root=fdd.root,
        progress=guard.progress() if guard is not None else {},
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def _plan_pieces(
    shards: list[IntervalSet], weights: list[int], pieces: int
) -> list[tuple[IntervalSet, list[int]]]:
    """Group contiguous shards into ≤ ``pieces`` weight-balanced pieces.

    Returns ``(piece_domain, member_shard_indices)`` per piece, where
    the domain is the union of the member shards — every shard belongs
    to exactly one piece, so its difference can be built by restricting
    that piece's roots.
    """
    pieces = max(1, min(pieces, len(shards)))
    total = sum(weights) or 1
    grouped: list[tuple[IntervalSet, list[int]]] = []
    start = 0
    cum = 0.0
    for index, weight in enumerate(weights):
        cum += weight
        pieces_left = pieces - len(grouped)
        shards_left = len(shards) - index - 1
        if (
            pieces_left > 1
            and cum >= (len(grouped) + 1) * total / pieces
            and shards_left >= pieces_left - 1
        ):
            members = list(range(start, index + 1))
            domain = IntervalSet.union_all([shards[i] for i in members])
            grouped.append((domain, members))
            start = index + 1
    members = list(range(start, len(shards)))
    grouped.append(
        (IntervalSet.union_all([shards[i] for i in members]), members)
    )
    return grouped


def _construct_pieces(
    fw_a: Firewall,
    fw_b: Firewall,
    pieces: list[tuple[IntervalSet, list[int]]],
    *,
    jobs: int,
    parent: GuardContext | None,
    fault: FaultInjector | None,
    start_method: str | None,
    supervised: bool,
    supervision: SupervisorConfig | None,
    chaos,
    pool,
    phase_ms: dict,
) -> tuple[
    dict[int, tuple[Node, Node]],
    tuple[Degradation, ...],
    tuple[ShardFailure, ...],
]:
    """Phase 1+2 of the fan-out: construct pieces in parallel, intern.

    One task per (side, piece), dispatched longest-first.  The returned
    roots are interned into one fresh store so structure shared between
    pieces is deduplicated before the snapshot payload is pickled.
    Supervision records from this dispatch index the construction task
    list; they are tagged in ``detail`` before surfacing.
    """
    tasks: list[_PieceTask] = []
    for side, firewall in (("a", fw_a), ("b", fw_b)):
        for index, (domain, _members) in enumerate(pieces):
            tasks.append(
                _PieceTask(
                    piece_index=index,
                    side=side,
                    firewall=restrict_to_shard(firewall, domain),
                    budget=parent.remaining_budget() if parent is not None else None,
                    fault=fault,
                )
            )
    order = sorted(range(len(tasks)), key=lambda i: -len(tasks[i].firewall))
    dispatched = [tasks[i] for i in order]
    start = time.perf_counter()
    degradations: tuple[Degradation, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    if supervised:
        results, found_degradations, found_failures = supervise(
            _execute_piece,
            dispatched,
            jobs=jobs,
            config=supervision,
            start_method=start_method,
            guard=parent,
            rebudget=_make_rebudget(parent),
            on_result=_make_on_result(parent),
            chaos=chaos,
            pool=pool,
        )
        degradations = tuple(
            replace(
                d,
                shard_index=order[d.shard_index],
                detail=(d.detail + " [construction piece]").strip(),
            )
            for d in found_degradations
        )
        failures = tuple(
            replace(f, shard_index=order[f.shard_index])
            for f in found_failures
        )
    else:
        results = pool.run(_execute_piece, dispatched, jobs=jobs, guard=parent)
        for result in results:
            if parent is not None and result.progress:
                parent.tick_nodes(result.progress.get("nodes_expanded", 0))
                parent.tick_splits(result.progress.get("edges_split", 0))
                parent.tick_discrepancies(
                    result.progress.get("discrepancies_found", 0)
                )
    piece_ms = [result.elapsed_ms for result in results]
    phase_ms["construct_wall_ms"] = (time.perf_counter() - start) * 1000.0
    phase_ms["construct_ms_sum"] = sum(piece_ms)
    phase_ms["construct_ms_max"] = max(piece_ms, default=0.0)
    store = NodeStore()
    by_piece: dict[int, dict[str, Node]] = {}
    for result in results:
        by_piece.setdefault(result.piece_index, {})[result.side] = store.intern(
            result.root
        )
    roots = {
        index: (sides["a"], sides["b"]) for index, sides in by_piece.items()
    }
    return roots, degradations, failures


@dataclass(frozen=True)
class ShardResult:
    """One shard's share of the comparison, ready to merge."""

    shard_index: int
    shard: IntervalSet
    #: Disputed packets whose field-0 value lies in this shard.
    disputed_packets: int
    #: Disputed volume per (decision_a, decision_b) pair within the shard.
    by_decisions: dict[tuple[Decision, Decision], int]
    #: Internal nodes / decision paths of this shard's difference diagram.
    node_count: int
    path_count: int
    #: Rules that survived restriction, per side.
    rules_a: int
    rules_b: int
    #: Explicit discrepancy cells (only when enumeration was requested).
    discrepancies: tuple[Discrepancy, ...] | None
    #: The shard guard's spend counters (empty when the shard ran unguarded).
    progress: dict = field(default_factory=dict)
    #: Worker-side wall-clock for this shard, milliseconds.
    elapsed_ms: float = 0.0


def _anchor_to_shard(diff: DifferenceFDD, shard: IntervalSet) -> DifferenceFDD:
    """Pin a shard's difference diagram to an explicit field-0 root.

    The product walk collapses single-child levels, and the counting
    methods treat a skipped level as covering its *full* domain — sound
    for whole-domain comparisons (labels always union to the domain),
    unsound for a shard whose field-0 slice is narrower.  When the root
    has been collapsed past field 0, re-anchor it under a one-edge
    field-0 node labelled with the shard, restoring the invariant the
    counters rely on (and giving enumerated cells the correct field-0
    extent).
    """
    root = diff.root
    if isinstance(root, _PairNode) and root.field_index == 0:
        return diff
    return DifferenceFDD(diff.schema, _PairNode(0, ((shard, root),)))


@dataclass(frozen=True)
class _SnapshotShardTask:
    """One shard of a published comparison snapshot.

    Carries the snapshot *id*, never the diagrams: the pool ships the
    snapshot to each worker at most once per comparison, so a task is a
    few hundred bytes regardless of policy size.
    """

    shard_index: int
    shard: IntervalSet
    snapshot_id: str
    #: Which construction piece this shard lies inside.
    piece_index: int
    #: Rules overlapping this shard, per side (reporting parity with
    #: what :func:`restrict_to_shard` would have kept).
    rules_a: int
    rules_b: int
    budget: Budget | None
    fault: FaultInjector | None
    enumerate_discrepancies: bool
    discrepancy_limit: int | None
    #: Work proxy used for longest-first dispatch.
    weight: int = 0

    @property
    def snapshot_ids(self) -> tuple[str, ...]:
        return (self.snapshot_id,)


#: Per-snapshot payload cache: ``snapshot_id -> (schema,
#: {piece_index: (root_a, root_b)})``.  In workers it holds the
#: deserialized snapshot (one shm read + unpickle per worker per
#: comparison); in the parent it is pre-seeded with the construction
#: phase's live diagrams, so the degraded serial fallback never
#: deserializes at all.  Each shard task interns its piece into a
#: *fresh* store — sharing a warm store across shards would let the
#: pair-memo skip product visits for whichever shard happened to run
#: second, making guard node-spend depend on worker scheduling.
#: Registered with the pool so retiring the snapshot evicts it
#: everywhere.
_SNAPSHOT_PAYLOADS: dict[str, tuple] = register_derived_cache({})


def _snapshot_payload(snapshot_id: str) -> tuple:
    found = _SNAPSHOT_PAYLOADS.get(snapshot_id)
    if found is None:
        found = resolve_snapshot(snapshot_id)
        _SNAPSHOT_PAYLOADS[snapshot_id] = found
    return found


def _execute_snapshot_shard(task: _SnapshotShardTask) -> ShardResult:
    """Build one shard's difference from the cached snapshot payload.

    Identical math to the inline path: restrict the enclosing piece's
    roots' field-0 edges to the shard and run the product walk.  The
    piece is interned into a fresh store per task (interning is linear
    in the piece, the product walk is not) so the guard's node-spend
    per shard is a pure function of the shard — deterministic across
    runs, schedules, and retries, which the budget-across-retries
    invariant relies on.
    """
    guard = None
    if task.budget is not None or task.fault is not None:
        guard = GuardContext(
            task.budget if task.budget is not None else Budget.unlimited(),
            fault=task.fault,
        )
    start = time.perf_counter()
    schema, piece_roots = _snapshot_payload(task.snapshot_id)
    raw_a, raw_b = piece_roots[task.piece_index]
    store = NodeStore()
    root_a = store.intern(raw_a)
    root_b = store.intern(raw_b)
    diff = build_difference(
        FDD(schema, _restrict_root(root_a, task.shard, store)),
        FDD(schema, _restrict_root(root_b, task.shard, store)),
        guard=guard,
        store=store,
    )
    diff = _anchor_to_shard(diff, task.shard)
    by_decisions = diff.disputed_by_decisions()
    discrepancies = None
    if task.enumerate_discrepancies:
        discrepancies = tuple(
            diff.discrepancies(limit=task.discrepancy_limit, guard=guard)
        )
    return ShardResult(
        shard_index=task.shard_index,
        shard=task.shard,
        disputed_packets=sum(by_decisions.values()),
        by_decisions=by_decisions,
        node_count=diff.node_count(),
        path_count=diff.path_count(),
        rules_a=task.rules_a,
        rules_b=task.rules_b,
        discrepancies=discrepancies,
        progress=guard.progress() if guard is not None else {},
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def _rules_overlapping(firewall: Firewall, shard: IntervalSet) -> int:
    """How many rules can match a packet whose field 0 lies in ``shard``
    (= the rule count :func:`restrict_to_shard` would keep)."""
    return sum(
        1
        for rule in firewall.rules
        if not rule.predicate.sets[0].intersect(shard).is_empty()
    )


def _restrict_root(root, shard: IntervalSet, store: NodeStore):
    """The full difference input restricted to a field-0 shard, in-store.

    Slices the root's field-0 edges to the shard (dropping edges that
    miss it) and reuses the *shared* children unchanged.  Because the
    hash-consed construction output is the unique reduced ordered
    diagram of the policy, this produces exactly the diagram a per-shard
    reconstruction from :func:`restrict_to_shard` would build — without
    re-interning anything.
    """
    if not isinstance(root, InternalNode) or root.field_index != 0:
        return root  # field 0 absent: semantics do not depend on it
    edges = []
    for edge in root.edges:
        sliced = store.intersect(edge.label, shard)
        if not sliced.is_empty():
            edges.append((sliced, edge.target))
    return store.internal(0, edges)


def _execute_shards_shared(
    fw_a: Firewall,
    fw_b: Firewall,
    shards: list[IntervalSet],
    *,
    budget: Budget | None,
    fault: FaultInjector | None,
    enumerate_discrepancies: bool,
    discrepancy_limit: int | None,
) -> tuple[GuardContext | None, dict, list[ShardResult]]:
    """Inline shard execution over one shared store.

    Constructs both FDDs once (spend lands on the parent guard), then
    builds each shard's difference from the restricted roots, with the
    store's persistent product caches shared across shards.  Returns the
    parent guard, its construction-phase spend, and per-shard results
    whose ``progress`` carries only the shard's own (product-walk)
    spend — the caller's merge loop re-ticks those against the parent.
    """
    parent = None
    if budget is not None or fault is not None:
        parent = GuardContext(
            budget if budget is not None else Budget.unlimited(), fault=fault
        )
    store = NodeStore()
    fdd_a = construct_fdd_fast(fw_a, store, guard=parent)
    fdd_b = construct_fdd_fast(fw_b, store, guard=parent)
    construction = parent.progress() if parent is not None else {}
    schema = fw_a.schema
    results: list[ShardResult] = []
    for index, shard in enumerate(shards):
        child = None
        if parent is not None:
            child = GuardContext(parent.remaining_budget(), fault=fault)
        start = time.perf_counter()
        diff = build_difference(
            FDD(schema, _restrict_root(fdd_a.root, shard, store)),
            FDD(schema, _restrict_root(fdd_b.root, shard, store)),
            guard=child,
            store=store,
        )
        diff = _anchor_to_shard(diff, shard)
        by_decisions = diff.disputed_by_decisions()
        discrepancies = None
        if enumerate_discrepancies:
            discrepancies = tuple(
                diff.discrepancies(limit=discrepancy_limit, guard=child)
            )
        results.append(
            ShardResult(
                shard_index=index,
                shard=shard,
                disputed_packets=sum(by_decisions.values()),
                by_decisions=by_decisions,
                node_count=diff.node_count(),
                path_count=diff.path_count(),
                rules_a=_rules_overlapping(fw_a, shard),
                rules_b=_rules_overlapping(fw_b, shard),
                discrepancies=discrepancies,
                progress=child.progress() if child is not None else {},
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
    return parent, construction, results


@dataclass(frozen=True)
class _PairTask:
    """One (i, j) team pair for the concurrent cross comparison."""

    index_a: int
    index_b: int
    fw_a: Firewall
    fw_b: Firewall
    budget: Budget | None
    fault: FaultInjector | None


@dataclass(frozen=True)
class PairComparison:
    """Summary of one team pair's comparison (Section 7.3, parallel)."""

    index_a: int
    index_b: int
    disputed_packets: int
    by_decisions: dict[tuple[Decision, Decision], int]
    node_count: int
    path_count: int
    progress: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    #: True when the supervisor re-ran this pair serially in the parent
    #: after its worker dispatches failed (numbers remain exact).
    degraded: bool = False

    def equivalent(self) -> bool:
        """True when the pair agrees on every packet."""
        return self.disputed_packets == 0


def _execute_pair(task: _PairTask) -> PairComparison:
    """Run one full pair comparison (in a worker process or inline)."""
    guard = None
    if task.budget is not None or task.fault is not None:
        guard = GuardContext(
            task.budget if task.budget is not None else Budget.unlimited(),
            fault=task.fault,
        )
    start = time.perf_counter()
    store = NodeStore()
    fdd_a = construct_fdd_fast(task.fw_a, store, guard=guard)
    fdd_b = construct_fdd_fast(task.fw_b, store, guard=guard)
    diff = build_difference(fdd_a, fdd_b, guard=guard, store=store)
    by_decisions = diff.disputed_by_decisions()
    return PairComparison(
        index_a=task.index_a,
        index_b=task.index_b,
        disputed_packets=sum(by_decisions.values()),
        by_decisions=by_decisions,
        node_count=diff.node_count(),
        path_count=diff.path_count(),
        progress=guard.progress() if guard is not None else {},
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


@dataclass(frozen=True)
class _SnapshotPairTask:
    """One (i, j) team pair resolved against published policy snapshots.

    Carries two snapshot *ids*, never the diagrams: the pool publishes
    each policy's constructed root exactly once per
    :func:`compare_many` call and ships it to each worker at most once,
    so the ``t * (t - 1) / 2`` pair tasks stay a few hundred bytes each
    and no policy is re-pickled (or re-constructed) per pair.
    """

    index_a: int
    index_b: int
    snapshot_id_a: str
    snapshot_id_b: str
    budget: Budget | None
    fault: FaultInjector | None

    @property
    def snapshot_ids(self) -> tuple[str, ...]:
        return (self.snapshot_id_a, self.snapshot_id_b)


def _execute_snapshot_pair(task: _SnapshotPairTask) -> PairComparison:
    """Run one pair's product walk from the cached policy snapshots.

    Same math as :func:`_execute_pair` minus the construction, which
    the parent already did once per policy (its spend lands on the
    parent guard, exactly like :func:`compare_sharded`'s construction
    phase).  Both roots are interned into a *fresh* store per pair so
    guard node-spend is a pure function of the pair — deterministic
    across runs, schedules, and retries.
    """
    guard = None
    if task.budget is not None or task.fault is not None:
        guard = GuardContext(
            task.budget if task.budget is not None else Budget.unlimited(),
            fault=task.fault,
        )
    start = time.perf_counter()
    schema, raw_a = _snapshot_payload(task.snapshot_id_a)
    _schema_b, raw_b = _snapshot_payload(task.snapshot_id_b)
    store = NodeStore()
    fdd_a = FDD(schema, store.intern(raw_a))
    fdd_b = FDD(schema, store.intern(raw_b))
    diff = build_difference(fdd_a, fdd_b, guard=guard, store=store)
    by_decisions = diff.disputed_by_decisions()
    return PairComparison(
        index_a=task.index_a,
        index_b=task.index_b,
        disputed_packets=sum(by_decisions.values()),
        by_decisions=by_decisions,
        node_count=diff.node_count(),
        path_count=diff.path_count(),
        progress=guard.progress() if guard is not None else {},
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


# ----------------------------------------------------------------------
# Fan-out driver
# ----------------------------------------------------------------------


def _run_fanout(
    worker,
    tasks: list,
    *,
    jobs: int,
    start_method: str | None,
    inline: bool,
    guard: GuardContext | None,
) -> list:
    """Run ``worker`` over ``tasks``, in-process or across the pool.

    The pool path (:meth:`~repro.parallel.pool.WorkerPool.run`) waits
    event-driven on the worker pipes — no polling sleep — and the first
    failure (budget trip, injected fault, anything) terminates the
    still-busy workers immediately instead of letting them burn budget
    to the end; the parent guard's deadline/cancellation is enforced
    while waiting.  On success workers return to the persistent pool
    alive (their atexit hooks eventually run at interpreter exit).
    """
    if inline or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    return get_pool(start_method).run(worker, tasks, jobs=jobs, guard=guard)


def _make_rebudget(parent: GuardContext | None):
    """Supervised dispatch hook: refresh a task's budget to the parent's
    remaining headroom, so a retried (or degraded) shard can never be
    handed more than the aggregate has left."""
    if parent is None:
        return None

    def rebudget(task):
        return replace(task, budget=parent.remaining_budget())

    return rebudget


def _make_on_result(parent: GuardContext | None):
    """Supervised completion hook: tick a shard's spend against the
    parent guard as soon as its result arrives (instead of at merge),
    so mid-run retries see an up-to-date aggregate."""
    if parent is None:
        return None

    def on_result(result):
        if result.progress:
            parent.tick_nodes(result.progress.get("nodes_expanded", 0))
            parent.tick_splits(result.progress.get("edges_split", 0))
            parent.tick_discrepancies(
                result.progress.get("discrepancies_found", 0)
            )

    return on_result


# ----------------------------------------------------------------------
# Merged results
# ----------------------------------------------------------------------


@dataclass
class ParallelComparison:
    """The merged result of a sharded comparison.

    Semantically equivalent to the serial engine's
    :class:`~repro.fdd.fast.DifferenceFDD` summaries: disputed-packet
    totals and the per-decision-pair breakdown are *exact* and identical
    to the serial run; ``node_count``/``path_count`` are per-shard sums
    (cross-shard sharing is given up, so they upper-bound the serial
    diagram's numbers).
    """

    schema: FieldSchema
    jobs: int
    shards: tuple[ShardResult, ...]
    disputed_packets: int
    by_decisions: dict[tuple[Decision, Decision], int]
    node_count: int
    path_count: int
    #: Concatenated shard cells in shard order, or ``None`` when
    #: enumeration was not requested.
    discrepancies: tuple[Discrepancy, ...] | None
    #: The parent guard's outcome record (budget, aggregated spend), or
    #: ``None`` for unguarded runs.
    outcome: dict | None
    #: Guard spend of the one-time shared-store construction phase
    #: (inline mode only; for process fan-out the chunk workers account
    #: their own construction spend in their shard ``progress``).
    construction: dict = field(default_factory=dict)
    #: Fan-out phase wall-clock breakdown, milliseconds: piece
    #: construction (``construct_wall_ms`` / ``construct_ms_sum`` /
    #: ``construct_ms_max``), snapshot publication (``publish_ms``),
    #: and the shard dispatch wave (``shard_wall_ms``).  Empty for
    #: inline runs.
    phase_ms: dict = field(default_factory=dict)
    #: Shards that exhausted their retries and were re-executed serially
    #: in the parent (supervised fan-out only).  The merged numbers stay
    #: exact — a degradation records a loss of parallelism, not of
    #: correctness — but callers (and the CLI, exit code 5) surface it.
    degradations: tuple[Degradation, ...] = ()
    #: Every failed dispatch attempt the supervisor observed, including
    #: the ones whose retry later succeeded.  Diagnostic only.
    failures: tuple[ShardFailure, ...] = ()

    def equivalent(self) -> bool:
        """True when the two policies agree on every packet."""
        return self.disputed_packets == 0

    def degraded(self) -> bool:
        """True when at least one shard fell back to serial execution."""
        return bool(self.degradations)

    def degradation_report(self) -> list[dict]:
        """JSON-safe degradations record (for reports and the CLI)."""
        return [
            {
                "shard": item.shard_index,
                "reason": item.reason,
                "retries": item.retries,
                "detail": item.detail,
            }
            for item in self.degradations
        ]

    def summary(self) -> dict:
        """Canonical JSON-safe summary; byte-comparable to the serial
        engine's :func:`comparison_summary` output."""
        return _summary_dict(self.schema, self.by_decisions)


def _summary_dict(
    schema: FieldSchema, by_decisions: dict[tuple[Decision, Decision], int]
) -> dict:
    return {
        "universe": schema.universe_size(),
        "disputed_packets": sum(by_decisions.values()),
        "equivalent": not by_decisions,
        "by_decisions": {
            f"{pair[0].name}->{pair[1].name}": volume
            for pair, volume in sorted(
                by_decisions.items(),
                key=lambda item: (item[0][0].name, item[0][1].name),
            )
        },
    }


def comparison_summary(diff: DifferenceFDD) -> dict:
    """The serial engine's comparison summary in the canonical JSON-safe
    shape (:meth:`ParallelComparison.summary` produces the same bytes
    for the same pair of policies)."""
    return _summary_dict(diff.schema, diff.disputed_by_decisions())


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def compare_sharded(
    fw_a: Firewall,
    fw_b: Firewall,
    shards: list[IntervalSet],
    *,
    jobs: int = 1,
    budget: Budget | None = None,
    fault: FaultInjector | None = None,
    enumerate_discrepancies: bool = False,
    discrepancy_limit: int | None = None,
    start_method: str | None = None,
    inline: bool = True,
    supervised: bool = True,
    supervision: SupervisorConfig | None = None,
    chaos=None,
) -> ParallelComparison:
    """Compare over an explicit shard list (the engine's testable core).

    :func:`compare_parallel` is this plus automatic shard planning.
    ``inline=True`` (the default here) executes shards sequentially in
    the calling process over **one shared node store** — both policies
    are constructed once and each shard's difference is built from the
    restricted roots; identical math, no pickling, deterministic — which
    is what the property tests exercise.  Pass ``inline=False`` to run
    the three-phase pipeline over the persistent pool: chunked parallel
    construction, in-parent composition, then the shard differences fanned
    out as references to one published snapshot (see the module
    docstring).

    Process fan-out dispatches through the supervisor by default:
    ``supervision`` tunes its retry/deadline/heartbeat policy, and
    ``supervised=False`` selects the bare pool (no crash recovery —
    kept for overhead benchmarking).  ``chaos`` is a test-only
    :class:`repro.chaos.ChaosPlan` injecting faults into workers.
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    construction: dict = {}
    degradations: tuple[Degradation, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    phase_ms: dict = {}
    parent_ticked = False
    if inline or len(shards) <= 1:
        parent, construction, results = _execute_shards_shared(
            fw_a,
            fw_b,
            shards,
            budget=budget,
            fault=fault,
            enumerate_discrepancies=enumerate_discrepancies,
            discrepancy_limit=discrepancy_limit,
        )
    else:
        parent = GuardContext(budget) if budget is not None else None
        pool = get_pool(start_method)
        # Phases 1+2: group the shard plan into ≤ jobs contiguous pieces
        # and construct each (side, piece) restriction in parallel.
        # Chaos plans address these dispatches (construction is where
        # the ``fast.rule`` fault site lives); their failure records are
        # tagged and merged below.
        overlaps = [
            (_rules_overlapping(fw_a, shard), _rules_overlapping(fw_b, shard))
            for shard in shards
        ]
        shard_weights = [a + b for a, b in overlaps]
        pieces = _plan_pieces(shards, shard_weights, jobs)
        piece_of_shard = {
            shard_index: piece_index
            for piece_index, (_domain, members) in enumerate(pieces)
            for shard_index in members
        }
        piece_roots, degradations, failures = _construct_pieces(
            fw_a,
            fw_b,
            pieces,
            jobs=jobs,
            parent=parent,
            fault=fault,
            start_method=start_method,
            supervised=supervised,
            supervision=supervision,
            chaos=chaos,
            pool=pool,
            phase_ms=phase_ms,
        )
        # Phase 3: publish the piece roots once, fan shards out as
        # snapshot references, dispatched longest-first over the pool.
        start = time.perf_counter()
        snapshot_id = pool.publish_snapshot(
            None, payload=pickle.dumps((fw_a.schema, piece_roots))
        )
        _SNAPSHOT_PAYLOADS[snapshot_id] = (fw_a.schema, piece_roots)
        phase_ms["publish_ms"] = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        try:
            tasks = []
            for index, shard in enumerate(shards):
                rules_a, rules_b = overlaps[index]
                tasks.append(
                    _SnapshotShardTask(
                        shard_index=index,
                        shard=shard,
                        snapshot_id=snapshot_id,
                        piece_index=piece_of_shard[index],
                        rules_a=rules_a,
                        rules_b=rules_b,
                        budget=parent.remaining_budget()
                        if parent is not None
                        else None,
                        fault=fault,
                        enumerate_discrepancies=enumerate_discrepancies,
                        discrepancy_limit=discrepancy_limit,
                        weight=rules_a + rules_b,
                    )
                )
            # Longest-first (LPT) dispatch order: with oversplit shards,
            # a heavy shard starts first and light ones pack around it.
            order = sorted(
                range(len(tasks)), key=lambda i: -tasks[i].weight
            )
            dispatched = [tasks[i] for i in order]
            if supervised:
                results, shard_degradations, shard_failures = supervise(
                    _execute_snapshot_shard,
                    dispatched,
                    jobs=jobs,
                    config=supervision,
                    start_method=start_method,
                    guard=parent,
                    rebudget=_make_rebudget(parent),
                    on_result=_make_on_result(parent),
                    pool=pool,
                )
                # Supervision records index the dispatch order; remap to
                # true shard indices before surfacing them.
                degradations = degradations + tuple(
                    replace(d, shard_index=order[d.shard_index])
                    for d in shard_degradations
                )
                failures = failures + tuple(
                    replace(f, shard_index=order[f.shard_index])
                    for f in shard_failures
                )
                # Completed work already ticked the parent on arrival.
                parent_ticked = True
            else:
                results = pool.run(
                    _execute_snapshot_shard, dispatched, jobs=jobs, guard=parent
                )
            results.sort(key=lambda result: result.shard_index)
        finally:
            pool.retire_snapshot(snapshot_id)
        phase_ms["shard_wall_ms"] = (time.perf_counter() - start) * 1000.0

    disputed = 0
    by_decisions: dict[tuple[Decision, Decision], int] = {}
    nodes = 0
    paths = 0
    cells: list[Discrepancy] = []
    for result in results:
        if parent is not None and result.progress and not parent_ticked:
            # Aggregate every shard's spend against the original budget:
            # the whole run may not outspend what one serial run could.
            parent.tick_nodes(result.progress.get("nodes_expanded", 0))
            parent.tick_splits(result.progress.get("edges_split", 0))
            parent.tick_discrepancies(
                result.progress.get("discrepancies_found", 0)
            )
        disputed += result.disputed_packets
        for pair, volume in result.by_decisions.items():
            by_decisions[pair] = by_decisions.get(pair, 0) + volume
        nodes += result.node_count
        paths += result.path_count
        if result.discrepancies is not None:
            cells.extend(result.discrepancies)
    if enumerate_discrepancies and discrepancy_limit is not None:
        cells = cells[:discrepancy_limit]
    return ParallelComparison(
        schema=fw_a.schema,
        jobs=jobs,
        shards=tuple(results),
        disputed_packets=disputed,
        by_decisions=by_decisions,
        node_count=nodes,
        path_count=paths,
        discrepancies=tuple(cells) if enumerate_discrepancies else None,
        outcome=parent.outcome() if parent is not None else None,
        construction=construction,
        phase_ms=phase_ms,
        degradations=degradations,
        failures=failures,
    )


def compare_parallel(
    fw_a: Firewall,
    fw_b: Firewall,
    *,
    jobs: int | None = None,
    budget: Budget | None = None,
    fault: FaultInjector | None = None,
    enumerate_discrepancies: bool = False,
    discrepancy_limit: int | None = None,
    start_method: str | None = None,
    inline: bool | None = None,
    supervised: bool = True,
    supervision: SupervisorConfig | None = None,
    chaos=None,
) -> ParallelComparison:
    """Sharded parallel equivalent of :func:`repro.fdd.fast.compare_fast`.

    Plans ≤ ``jobs`` weight-balanced shards over the root field, fans
    them out across worker processes, and merges.  Disputed-packet
    totals and the per-decision-pair breakdown are exact and equal to
    the serial engine's.  ``jobs`` defaults to the CPU count;
    ``start_method`` picks the ``multiprocessing`` context (``"fork"``,
    ``"spawn"``, ... — ``None`` means the platform default; everything
    shipped to workers is spawn-safe).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> compare_parallel(fa, fb, jobs=2, inline=True).disputed_packets
    3
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    run_inline = (jobs <= 1) if inline is None else inline
    # Fan-out oversplits the shard plan so the pool's longest-first
    # dispatch can steal work around a slow shard; inline execution
    # keeps one shard per job (oversplitting buys nothing in-process).
    shards = plan_shards(fw_a, fw_b, jobs if run_inline else jobs * _OVERSPLIT)
    return compare_sharded(
        fw_a,
        fw_b,
        shards,
        jobs=jobs,
        budget=budget,
        fault=fault,
        enumerate_discrepancies=enumerate_discrepancies,
        discrepancy_limit=discrepancy_limit,
        start_method=start_method,
        inline=run_inline,
        supervised=supervised,
        supervision=supervision,
        chaos=chaos,
    )


def compare_many(
    firewalls: list[Firewall],
    *,
    jobs: int | None = None,
    budget: Budget | None = None,
    fault: FaultInjector | None = None,
    start_method: str | None = None,
    inline: bool | None = None,
    supervised: bool = True,
    supervision: SupervisorConfig | None = None,
) -> dict[tuple[int, int], PairComparison]:
    """All pairwise comparisons of ``t`` team versions, concurrently.

    Section 7.3's cross comparison for the diverse-design workflow: the
    ``t * (t - 1) / 2`` unordered pairs are independent, so each pair
    runs as one worker task.  Returns ``{(i, j): PairComparison}`` for
    ``i < j``.  Budgets aggregate across pairs exactly as
    :func:`compare_parallel` aggregates across shards.  Fan-out runs
    supervised by default; a pair whose worker dispatches all failed is
    re-run serially and returned with ``degraded=True``.

    The pool path constructs each policy's diagram **once** in the
    parent and publishes it as one snapshot per policy (``t``
    publications, not one per pair): pair tasks carry two snapshot ids,
    and each worker deserializes a policy at most once however many of
    its pairs it executes.  Inline execution keeps the self-contained
    per-pair construction (sharing buys nothing in-process and the
    per-pair guard spend stays comparable to the worker path).
    """
    if len(firewalls) < 2:
        raise SchemaError("cross comparison needs at least two firewalls")
    schema = firewalls[0].schema
    for fw in firewalls:
        if fw.schema != schema:
            raise SchemaError("all versions must share one field schema")
    jobs = default_jobs() if jobs is None else max(1, jobs)
    parent = GuardContext(budget) if budget is not None else None
    pairs = [
        (i, j)
        for i in range(len(firewalls))
        for j in range(i + 1, len(firewalls))
    ]
    run_inline = (jobs <= 1) if inline is None else inline
    if run_inline or len(pairs) <= 1:
        tasks = [
            _PairTask(
                index_a=i,
                index_b=j,
                fw_a=firewalls[i],
                fw_b=firewalls[j],
                budget=parent.remaining_budget() if parent is not None else None,
                fault=fault,
            )
            for i, j in pairs
        ]
        results = [_execute_pair(task) for task in tasks]
        for result in results:
            if parent is not None and result.progress:
                parent.tick_nodes(result.progress.get("nodes_expanded", 0))
                parent.tick_splits(result.progress.get("edges_split", 0))
                parent.tick_discrepancies(
                    result.progress.get("discrepancies_found", 0)
                )
        return {(result.index_a, result.index_b): result for result in results}

    # Pool path: construct every version once, publish one snapshot per
    # policy, and fan the pair matrix out as snapshot references.
    pool = get_pool(start_method)
    snapshot_ids: list[str] = []
    try:
        for fw in firewalls:
            store = NodeStore()
            root = construct_fdd_fast(fw, store, guard=parent).root
            snapshot_id = pool.publish_snapshot(
                None, payload=pickle.dumps((schema, root))
            )
            _SNAPSHOT_PAYLOADS[snapshot_id] = (schema, root)
            snapshot_ids.append(snapshot_id)
        tasks = [
            _SnapshotPairTask(
                index_a=i,
                index_b=j,
                snapshot_id_a=snapshot_ids[i],
                snapshot_id_b=snapshot_ids[j],
                budget=parent.remaining_budget() if parent is not None else None,
                fault=fault,
            )
            for i, j in pairs
        ]
        if supervised:
            results, pair_degradations, _failures = supervise(
                _execute_snapshot_pair,
                tasks,
                jobs=jobs,
                config=supervision,
                start_method=start_method,
                guard=parent,
                rebudget=_make_rebudget(parent),
                on_result=_make_on_result(parent),
                pool=pool,
            )
            degraded_indices = {item.shard_index for item in pair_degradations}
            results = [
                replace(result, degraded=True)
                if index in degraded_indices
                else result
                for index, result in enumerate(results)
            ]
        else:
            results = pool.run(
                _execute_snapshot_pair, tasks, jobs=jobs, guard=parent
            )
            for result in results:
                if parent is not None and result.progress:
                    parent.tick_nodes(result.progress.get("nodes_expanded", 0))
                    parent.tick_splits(result.progress.get("edges_split", 0))
                    parent.tick_discrepancies(
                        result.progress.get("discrepancies_found", 0)
                    )
    finally:
        for snapshot_id in snapshot_ids:
            pool.retire_snapshot(snapshot_id)
    return {(result.index_a, result.index_b): result for result in results}
