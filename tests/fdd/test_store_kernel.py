"""The store's construction kernel: pinned counters and cache-blind budgets.

The end-to-end benchmark draws its inputs with the program under test:
design-diff pairs by ``NodeStore.stats()["op_memo"]`` (24k-32k label ops
under a store-level node budget) and fleet-audit fleets by summed
``edges_created``.  A faster kernel must therefore count exactly what the
previous one counted.  The literals below were recorded with the plain
per-visit kernel (every op re-interned, coverage re-folded on every
visit, LRU op memo); any change to them changes which benchmark inputs
are drawn.

The second half makes invariant 5 of ``docs/architecture.md`` executable
for the per-node coverage cache: guard spend and budget trip points are
the same on a cold store and on one whose coverage cache is warm.  The
last part does the same for invariant 1: children are interned before
their parents, over canonical labels.
"""

import pytest
from hypothesis import given, settings

import repro.fdd.store as store_module
from repro.analysis.redundancy import find_redundant_rules
from repro.exceptions import BudgetExceededError
from repro.fdd import construct_fdd
from repro.fdd.canonical import semantic_fingerprint
from repro.fdd.node import InternalNode
from repro.fdd.store import NodeStore
from repro.fields import toy_schema
from repro.guard import Budget, GuardContext
from repro.synth import generate_firewall_pair

from tests.conftest import firewalls

#: (rules, seed, memo limit or None) -> stats after constructing both
#: sides in one store, the sides' fingerprints, and the guard ticks of
#: constructing each side in a cold store.
PINNED = [
    (
        (60, 5, None),
        {
            "nodes_created": 1103,
            "edges_created": 6001,
            "op_memo": 5300,
            "append_memo": 1842,
            "interned_sets": 1588,
        },
        (
            "59d606bd6d9a5f60e602c378e2acff5babe3a0c898d53c3bd4b8b8edebe6f23d",
            "41149915f814dba79dd021e211c1bcb39ae06213a4f5f1945fd63a824bda3f00",
        ),
        (2623, 1221),
    ),
    (
        (120, 13, None),
        {
            "nodes_created": 750,
            "edges_created": 4823,
            "op_memo": 5313,
            "append_memo": 2539,
            "interned_sets": 1403,
        },
        (
            "40052ce304b77452aefd6e63fd54229573f652406f52f3b2187899a10fbd984f",
            "2d686397e1ce725b3a932af12c23886ed7b2f6f8c7e1baf9c4ed419075cae269",
        ),
        (3183, 1284),
    ),
    # A small op-memo bound: the memo evicts on most inserts, so its size
    # sits at the bound and nothing else may notice the eviction order.
    (
        (120, 13, 1024),
        {
            "nodes_created": 750,
            "edges_created": 4823,
            "op_memo": 1024,
            "append_memo": 2539,
            "interned_sets": 1403,
        },
        (
            "40052ce304b77452aefd6e63fd54229573f652406f52f3b2187899a10fbd984f",
            "2d686397e1ce725b3a932af12c23886ed7b2f6f8c7e1baf9c4ed419075cae269",
        ),
        (3183, 1284),
    ),
    # A design-diff pair: its 31,833 label ops lie in the 24k-32k band.
    (
        (300, 891098899, None),
        {
            "nodes_created": 5937,
            "edges_created": 60226,
            "op_memo": 31833,
            "append_memo": 17788,
            "interned_sets": 9991,
        },
        (
            "f98ec611221643513ad41e590d809b6ff21df37ab52f0752a90bda2a1b58b4c7",
            "b3800602777d832560fd9c36d7c88967a9d7089d9532f5e9431c43f9d61dc87d",
        ),
        (24041, 13909),
    ),
]


@pytest.mark.parametrize(
    "case, stats, fingerprints, ticks",
    PINNED,
    ids=[f"n{rules}-seed{seed}-limit{limit}" for (rules, seed, limit), *_ in PINNED],
)
def test_counters_match_the_recorded_kernel(case, stats, fingerprints, ticks):
    rules, seed, limit = case
    pair = generate_firewall_pair(rules, seed=seed)
    store = NodeStore() if limit is None else NodeStore(memo_limit=limit)
    for firewall in pair:
        store.construct(firewall)
    assert {key: store.stats()[key] for key in stats} == stats
    assert tuple(semantic_fingerprint(firewall) for firewall in pair) == fingerprints
    spent = []
    for firewall in pair:
        guard = GuardContext(Budget.unlimited())
        NodeStore().construct(firewall, guard=guard)
        spent.append(guard.nodes_expanded)
    assert tuple(spent) == ticks


# ----------------------------------------------------------------------
# Invariant 5 for the coverage cache
# ----------------------------------------------------------------------
FIREWALL = generate_firewall_pair(60, seed=5)[0]


@pytest.fixture
def per_call_append_memo(monkeypatch):
    """Drop the append memo at the start of every append, so the only
    state a warm store carries into a call is its coverage cache (and
    the label tables, which guards never see)."""
    monkeypatch.setattr(store_module, "APPEND_MEMO_LIMIT", 0)


def _warm_store() -> NodeStore:
    store = NodeStore()
    store.construct(FIREWALL)
    assert store._coverage, "constructing the policy warms the coverage cache"
    return store


def _prepend_spend(store: NodeStore) -> tuple[int, object]:
    guard = GuardContext(Budget.unlimited())
    rules = FIREWALL.rules
    last = rules[-1]
    root = store.chain(last.predicate.sets, last.decision)
    for rule in reversed(rules[:-1]):
        root = store.prepend(root, rule.predicate.sets, rule.decision, guard=guard)
    return guard.nodes_expanded, root


def test_prepend_spend_ignores_coverage_warmth():
    cold_spend, cold_root = _prepend_spend(NodeStore())
    warm = _warm_store()
    warm_spend, warm_root = _prepend_spend(warm)
    assert warm_spend == cold_spend
    assert warm_root is warm.construct(FIREWALL).root


def test_redundancy_spend_ignores_coverage_warmth(per_call_append_memo):
    spends, answers = [], []
    for store in (NodeStore(), _warm_store()):
        guard = GuardContext(Budget.unlimited())
        answers.append(find_redundant_rules(FIREWALL, guard=guard, store=store))
        spends.append(guard.nodes_expanded)
    assert spends[0] == spends[1]
    assert answers[0] == answers[1]


def test_construct_trips_at_the_same_point_warm_or_cold(per_call_append_memo):
    full = GuardContext(Budget.unlimited())
    NodeStore().construct(FIREWALL, guard=full)
    limit = full.nodes_expanded // 2
    trips = []
    for store in (NodeStore(), _warm_store()):
        guard = GuardContext(Budget(max_nodes=limit))
        with pytest.raises(BudgetExceededError) as caught:
            store.construct(FIREWALL, guard=guard)
        trips.append((str(caught.value), guard.nodes_expanded))
    assert trips[0] == trips[1]
    assert trips[0][1] == limit + 1


# ----------------------------------------------------------------------
# Invariant 1: children are interned before parents
# ----------------------------------------------------------------------
TOY = toy_schema(9, 9)


@given(firewalls(TOY, max_rules=5), firewalls(TOY, max_rules=5))
@settings(max_examples=60, deadline=None)
def test_children_interned_before_parents(built, prepended):
    store = NodeStore()
    store.construct(built)
    rules = prepended.rules
    root = store.chain(rules[-1].predicate.sets, rules[-1].decision)
    for rule in reversed(rules[:-1]):
        root = store.prepend(root, rule.predicate.sets, rule.decision)
    assert store.intern(construct_fdd(prepended).root) is root

    seen: set[int] = set()
    for node in store._internals.values():
        for edge in node.edges:
            child = edge.target
            if isinstance(child, InternalNode):
                assert id(child) in seen
            else:
                assert store._terminals[child.decision] is child
            assert store._sets[edge.label] is edge.label
        seen.add(id(node))
