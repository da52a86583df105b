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

Every run executes one pipeline of three task lists, whatever ``jobs``:

1. **Piece construction.**  Construction dominates serial cost (~90 %
   on the Fig. 13 workload), so it is what fans out.  The shard plan is
   grouped into ``⌈shards / _OVERSPLIT⌉`` contiguous *pieces* of the
   field-0 domain, and one task per (side, piece) constructs
   :func:`restrict_to_shard`'s restriction.  The split is over the
   domain, never the rule list: a rule-suffix chunk loses the shadowing
   of earlier rules and its diagram blows up, while a restricted
   firewall preserves rule order — and the hash-consed output is
   exactly the full diagram's restriction.
2. **Intern + stage.**  The parent interns the returned piece roots
   into one store and stages them under one snapshot id: published
   **once** to the workers (shared memory when available, pipe bytes
   otherwise) for pool dispatch, only cached under a local id in
   process.
3. **Snapshot shards.**  Shard tasks carry only the snapshot id, their
   interval, and their piece index, and build every shard difference
   via :func:`_restrict_root` over the piece roots — no per-shard
   reconstruction.  Shards dispatch longest-first, so with the
   oversplit plans :func:`compare_parallel` makes (``_OVERSPLIT``
   shards per job) a slow shard does not bound wall-clock.

``jobs`` only picks the dispatcher (:func:`_run_tasks`): ``jobs == 1``
(or a one-shard plan) runs the task lists serially in the parent;
otherwise they go to the persistent worker pool
(:mod:`repro.parallel.pool`) through
:func:`repro.parallel.supervisor.supervise`, which detects crashed/hung
workers and corrupted result envelopes, retries with backoff, and when
retries are exhausted re-executes the task serially in the parent,
recording a :class:`~repro.parallel.supervisor.Degradation` on the
merged result.  Both dispatchers run the same tasks, so they give the
same answer and the same guard spend.

Guard budgets propagate the same way under both dispatchers: every
task is handed the parent's *remaining* budget at dispatch (deadline
already discounted by elapsed time), spends under its own
:class:`~repro.guard.GuardContext`, and its result re-ticks the parent
the moment it arrives, so the *aggregate* is enforced against the
original budget and no retry sequence can outspend it.  The first
:class:`~repro.exceptions.BudgetExceededError` (or any fatal worker
error) terminates the remaining tasks before re-raising.
"""

from __future__ import annotations

import bisect
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

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
from repro.fields.schema import FieldSchema
from repro.guard.budget import Budget
from repro.guard.context import GuardContext
from repro.guard.fault import FaultInjector
from repro.intervals.intervalset import IntervalSet
from repro.parallel.pool import (
    WorkerPool,
    drop_snapshot,
    get_pool,
    hold_local_snapshot,
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
    "default_jobs",
    "plan_shards",
    "restrict_to_shard",
    "comparison_summary",
    "compare_sharded",
    "compare_parallel",
]


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per CPU."""
    return os.cpu_count() or 1


def _resolve_jobs(jobs: int | None) -> int:
    """``jobs`` as given, :func:`default_jobs` for ``None``; below 1 is
    an error, never a silent serial run."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


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


#: :func:`compare_parallel` plans this many shards per job, so
#: longest-first dispatch over the pool's free workers can steal around a
#: slow shard instead of letting ``shard_ms_max`` bound wall-clock;
#: :func:`compare_sharded` groups them back into one construction piece
#: per job.
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

    firewall: Firewall
    fault: FaultInjector | None
    #: Set at dispatch to the parent's remaining headroom.
    budget: Budget | None = None


@dataclass(frozen=True)
class _PieceResult:
    """One constructed piece root, with the worker's guard spend."""

    root: Node
    progress: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0


def _execute_piece(task: _PieceTask) -> _PieceResult:
    """Construct one restricted side (in a worker process or the parent).

    Builds into a fresh local store; only the root's node graph (a few
    tens of KB) crosses back over the pipe.
    """
    guard = _task_guard(task.budget, task.fault)
    start = time.perf_counter()
    store = NodeStore()
    fdd = construct_fdd_fast(task.firewall, store, guard=guard)
    return _PieceResult(
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
    fault: FaultInjector | None,
    chaos,
    run,
    phase_ms: dict,
) -> tuple[
    dict[int, tuple[Node, Node]],
    tuple[Degradation, ...],
    tuple[ShardFailure, ...],
]:
    """Phases 1+2: construct every (side, piece) restriction, intern.

    ``run`` is the comparison's bound :func:`_run_tasks`; tasks go
    heaviest-first, and chaos plans address this dispatch (construction
    is where the ``fast.rule`` fault site lives).  The returned roots
    are interned into one fresh store so structure shared between
    pieces is deduplicated before the snapshot payload is staged.
    Supervision records index the construction task list; they are
    tagged in ``detail`` before surfacing.
    """
    tasks = [
        _PieceTask(firewall=restrict_to_shard(firewall, domain), fault=fault)
        for firewall in (fw_a, fw_b)
        for domain, _members in pieces
    ]
    start = time.perf_counter()
    results, degradations, failures = run(
        _execute_piece, tasks, weight=lambda task: len(task.firewall), chaos=chaos
    )
    piece_ms = [result.elapsed_ms for result in results]
    phase_ms["construct_wall_ms"] = (time.perf_counter() - start) * 1000.0
    phase_ms["construct_ms_sum"] = sum(piece_ms)
    phase_ms["construct_ms_max"] = max(piece_ms, default=0.0)
    # Results come back in task order: every piece of side a, then b.
    store = NodeStore()
    count = len(pieces)
    roots = {
        index: (
            store.intern(results[index].root),
            store.intern(results[count + index].root),
        )
        for index in range(count)
    }
    degradations = tuple(
        replace(d, detail=(d.detail + " [construction piece]").strip())
        for d in degradations
    )
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
    fault: FaultInjector | None
    enumerate_discrepancies: bool
    discrepancy_limit: int | None
    #: Set at dispatch to the parent's remaining headroom.
    budget: Budget | None = None

    @property
    def snapshot_ids(self) -> tuple[str, ...]:
        return (self.snapshot_id,)


def _execute_snapshot_shard(task: _SnapshotShardTask) -> ShardResult:
    """Build one shard's difference from the cached snapshot payload.

    Restricts the enclosing piece's roots' field-0 edges to the shard
    and runs the product walk.  The piece is interned into a fresh
    store per task (interning is linear in the piece, the product walk
    is not) so the guard's node-spend per shard is a pure function of
    the shard — deterministic across runs, schedules, and retries,
    which the budget-across-retries invariant relies on.
    """
    guard = _task_guard(task.budget, task.fault)
    start = time.perf_counter()
    schema, piece_roots = resolve_snapshot(task.snapshot_id)
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


# ----------------------------------------------------------------------
# Dispatch: the same task lists, in the parent or across the pool
# ----------------------------------------------------------------------


def _task_guard(
    budget: Budget | None, fault: FaultInjector | None
) -> GuardContext | None:
    """A task's own guard, or ``None`` when the task runs unguarded."""
    if budget is None and fault is None:
        return None
    return GuardContext(
        budget if budget is not None else Budget.unlimited(), fault=fault
    )


def _stage(payload: tuple, pool: WorkerPool | None) -> str:
    """Make ``payload`` resolvable by snapshot tasks; returns its id.

    Pool dispatch publishes it once to the workers; in process
    (``pool is None``) nothing is published and the payload is only
    held under a local id.  Either way the pool's snapshot cache holds
    the live objects in the parent, so the parent never deserializes its
    own payload.
    """
    if pool is None:
        return hold_local_snapshot(payload)
    return pool.publish_snapshot(payload)


def _retire(snapshot_id: str, pool: WorkerPool | None) -> None:
    """Undo :func:`_stage`: drop the payload everywhere it went."""
    if pool is None:
        drop_snapshot(snapshot_id)
    else:
        pool.retire_snapshot(snapshot_id)


def _run_tasks(
    worker,
    tasks: list,
    *,
    jobs: int,
    pool: WorkerPool | None,
    parent: GuardContext | None,
    supervision: SupervisorConfig | None = None,
    weight=None,
    chaos=None,
) -> tuple[list, tuple[Degradation, ...], tuple[ShardFailure, ...]]:
    """Run ``worker`` over ``tasks``; the dispatcher only picks *where*.

    Tasks go heaviest-first by ``weight`` (longest-processing-time
    order), and run serially in the parent when ``pool`` is ``None`` or
    there is at most one task, else through :func:`supervise` over
    ``jobs`` pool workers.  Whichever runs them, every task is handed
    the parent's remaining budget at dispatch and every completed
    result ticks the parent as it arrives.  Returns ``(results, degradations,
    failures)`` with results in task order and the supervision records'
    indices remapped from dispatch order to task order.
    """
    order = list(range(len(tasks)))
    if weight is not None:
        order.sort(key=lambda i: -weight(tasks[i]))
    dispatched = [tasks[i] for i in order]

    def rebudget(task):
        if parent is None:
            return task
        return replace(task, budget=parent.remaining_budget())

    def on_result(result) -> None:
        if parent is not None and result.progress:
            parent.tick_nodes(result.progress.get("nodes_expanded", 0))
            parent.tick_splits(result.progress.get("edges_split", 0))
            parent.tick_discrepancies(
                result.progress.get("discrepancies_found", 0)
            )

    results: list = []
    degradations: list[Degradation] = []
    failures: list[ShardFailure] = []
    if pool is None or len(tasks) <= 1:
        for task in dispatched:
            results.append(worker(rebudget(task)))
            on_result(results[-1])
    else:
        results, degradations, failures = supervise(
            worker,
            dispatched,
            jobs=jobs,
            config=supervision,
            guard=parent,
            rebudget=rebudget,
            on_result=on_result,
            chaos=chaos,
            pool=pool,
        )
    in_order: list = [None] * len(tasks)
    for index, result in zip(order, results):
        in_order[index] = result
    return (
        in_order,
        tuple(replace(d, shard_index=order[d.shard_index]) for d in degradations),
        tuple(replace(f, shard_index=order[f.shard_index]) for f in failures),
    )


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
    #: The parent guard's spend after the piece-construction phase
    #: (empty for unguarded runs); ``outcome`` adds every shard's
    #: ``progress`` on top.
    construction: dict = field(default_factory=dict)
    #: Phase wall-clock breakdown, milliseconds: piece construction
    #: (``construct_wall_ms`` / ``construct_ms_sum`` /
    #: ``construct_ms_max``), staging the piece roots (``publish_ms``:
    #: the snapshot publication under pool dispatch), and the shard
    #: wave (``shard_wall_ms``).  Filled whichever dispatcher ran.
    phase_ms: dict = field(default_factory=dict)
    #: Tasks that exhausted their retries and were re-executed serially
    #: in the parent (pool dispatch only).  The merged numbers stay
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
    supervision: SupervisorConfig | None = None,
    chaos=None,
) -> ParallelComparison:
    """Compare over an explicit shard list (the engine's testable core).

    :func:`compare_parallel` is this plus automatic shard planning.
    Always the same pipeline (see the module docstring): group the
    shards into ``⌈len(shards) / _OVERSPLIT⌉`` pieces, construct each
    (side, piece), intern the piece roots into one store, then build
    each shard's difference from them.  ``jobs`` only picks where those
    tasks run: ``jobs=1`` (or a one-shard plan) serially in the calling
    process, otherwise on ``jobs`` workers of the persistent pool for
    ``start_method`` — with the same answer and the same guard spend.

    Pool dispatch always runs through :func:`supervise`: a task whose
    worker crashes, hangs or corrupts its result is retried and, once
    its retries run out, re-run in the parent and recorded in
    ``degradations``.  ``supervision`` tunes the retry/deadline/heartbeat
    policy.  ``chaos`` is a test-only :class:`repro.chaos.ChaosPlan` injecting
    faults into the construction-piece workers.
    """
    if fw_a.schema != fw_b.schema:
        raise SchemaError("cannot compare firewalls over different field schemas")
    jobs = _resolve_jobs(jobs)
    parent = GuardContext(budget) if budget is not None else None
    pool = get_pool(start_method) if jobs > 1 and len(shards) > 1 else None
    run = partial(
        _run_tasks,
        jobs=jobs,
        pool=pool,
        parent=parent,
        supervision=supervision,
    )
    phase_ms: dict = {}
    overlaps = [
        (_rules_overlapping(fw_a, shard), _rules_overlapping(fw_b, shard))
        for shard in shards
    ]
    pieces = _plan_pieces(
        shards, [a + b for a, b in overlaps], -(-len(shards) // _OVERSPLIT)
    )
    piece_roots, degradations, failures = _construct_pieces(
        fw_a, fw_b, pieces, fault=fault, chaos=chaos, run=run, phase_ms=phase_ms
    )
    construction = parent.progress() if parent is not None else {}
    start = time.perf_counter()
    snapshot_id = _stage((fw_a.schema, piece_roots), pool)
    phase_ms["publish_ms"] = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    try:
        tasks = [
            _SnapshotShardTask(
                shard_index=shard_index,
                shard=shards[shard_index],
                snapshot_id=snapshot_id,
                piece_index=piece_index,
                rules_a=overlaps[shard_index][0],
                rules_b=overlaps[shard_index][1],
                fault=fault,
                enumerate_discrepancies=enumerate_discrepancies,
                discrepancy_limit=discrepancy_limit,
            )
            for piece_index, (_domain, members) in enumerate(pieces)
            for shard_index in members
        ]
        results, shard_degradations, shard_failures = run(
            _execute_snapshot_shard,
            tasks,
            weight=lambda task: task.rules_a + task.rules_b,
        )
    finally:
        _retire(snapshot_id, pool)
    phase_ms["shard_wall_ms"] = (time.perf_counter() - start) * 1000.0

    disputed = 0
    by_decisions: dict[tuple[Decision, Decision], int] = {}
    nodes = 0
    paths = 0
    cells: list[Discrepancy] = []
    for result in results:
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
        degradations=degradations + shard_degradations,
        failures=failures + shard_failures,
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
    supervision: SupervisorConfig | None = None,
    chaos=None,
) -> ParallelComparison:
    """Sharded parallel equivalent of :func:`repro.fdd.fast.compare_fast`.

    Plans ``_OVERSPLIT * jobs`` weight-balanced shards over the root
    field (oversplit, so longest-first dispatch can steal work around a
    slow shard), runs them through :func:`compare_sharded` on ``jobs``
    workers, and merges.  Disputed-packet totals and the
    per-decision-pair breakdown are exact and equal to the serial
    engine's.  ``jobs`` defaults to the CPU count; ``start_method``
    picks the ``multiprocessing`` context (``"fork"``, ``"spawn"``, ...
    — ``None`` means the platform default; everything shipped to
    workers is spawn-safe).

    >>> from repro.fields import toy_schema
    >>> from repro.policy import Firewall, Rule, ACCEPT, DISCARD
    >>> schema = toy_schema(9)
    >>> fa = Firewall(schema, [Rule.build(schema, ACCEPT)])
    >>> fb = Firewall(schema, [Rule.build(schema, DISCARD, F1=(2, 4)),
    ...                        Rule.build(schema, ACCEPT)])
    >>> compare_parallel(fa, fb, jobs=1).disputed_packets
    3
    """
    jobs = _resolve_jobs(jobs)
    return compare_sharded(
        fw_a,
        fw_b,
        plan_shards(fw_a, fw_b, jobs * _OVERSPLIT),
        jobs=jobs,
        budget=budget,
        fault=fault,
        enumerate_discrepancies=enumerate_discrepancies,
        discrepancy_limit=discrepancy_limit,
        start_method=start_method,
        supervision=supervision,
        chaos=chaos,
    )

