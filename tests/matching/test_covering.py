"""Covering semantics: order laws, index surgery, store parity.

Three layers, all pinning the tentpole guarantee that collapsing
covered subscriptions is invisible to delivery:

1. hypothesis property tests for ``Subscription.covers`` — reflexive,
   transitive, antisymmetric up to predicate equality, and *exactly*
   the semantic relation (σ₁ covers σ₂ ⟺ every event matching σ₂
   matches σ₁, checked exhaustively over a small event space);
2. unit tests for :class:`~repro.matching.covering.CoveringIndex`
   surgery — collapse, root demotion, leaf splice, root-death
   promotion, and the counters the LoadMeter exports;
3. a hypothesis state machine driving a covering grid store and an
   uncollapsed brute store through random install / refresh / expire /
   unsubscribe / churn interleavings, asserting both match the exact
   same subscriber set at every step;
4. a second state machine pinning the forest that candidate queries
   build (grid and brute engines) to a test-only reference that scans
   every root: same root order, parents and child lists at every
   check, with several lazily queued installs folded between checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.events import EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SubscriptionStore
from repro.core.subscriptions import Constraint, Subscription
from repro.matching.covering import CoveringIndex

SPACE = EventSpace.uniform(("a1", "a2"), 6)


def build(ranges):
    """Subscription from {attribute: (low, high)} over SPACE."""
    return Subscription(
        space=SPACE,
        constraints=tuple(
            Constraint(attribute=attribute, low=low, high=high)
            for attribute, (low, high) in sorted(ranges.items())
        ),
    )


@st.composite
def subscriptions(draw):
    """Random (possibly partial, possibly full-domain) subscriptions."""
    ranges = {}
    for attribute in range(SPACE.dimensions):
        if draw(st.booleans()):
            low = draw(st.integers(0, 5))
            high = draw(st.integers(low, 5))
            ranges[attribute] = (low, high)
    if not ranges:
        low = draw(st.integers(0, 5))
        ranges[0] = (low, draw(st.integers(low, 5)))
    return build(ranges)


def semantic_covers(a: Subscription, b: Subscription) -> bool:
    """Ground truth by exhaustion: every event in b is in a."""
    for v1 in range(6):
        for v2 in range(6):
            event = SPACE.make_event(a1=v1, a2=v2)
            if b.matches(event) and not a.matches(event):
                return False
    return True


class TestCoversLaws:
    @given(subscriptions())
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, sub):
        assert sub.covers(sub)

    @given(subscriptions(), subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @given(subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_up_to_equality(self, a, b):
        if a.covers(b) and b.covers(a):
            for attribute in range(SPACE.dimensions):
                ca = a.effective_constraint(attribute)
                cb = b.effective_constraint(attribute)
                assert (ca.low, ca.high) == (cb.low, cb.high)

    @given(subscriptions(), subscriptions())
    @settings(max_examples=200, deadline=None)
    def test_exactly_the_semantic_relation(self, a, b):
        # Interval containment per attribute is sound *and* complete
        # for conjunctions of non-empty ranges, so covers() must agree
        # with the exhaustive event-set definition in both directions
        # — including the fast-path rejection on attribute-set
        # mismatch and the full-domain-constraint-as-no-op cases.
        assert a.covers(b) == semantic_covers(a, b)

    def test_fast_path_attribute_mismatch(self):
        narrow = build({0: (2, 3)})
        other_attr = build({1: (2, 3)})
        assert not narrow.covers(other_attr)
        assert not other_attr.covers(narrow)

    def test_full_domain_constraint_is_no_op(self):
        everything = build({0: (0, 5)})
        partial = build({1: (1, 4)})
        assert everything.covers(partial)
        assert partial.covers(partial)


def add(index: CoveringIndex, sub: Subscription):
    """``CoveringIndex.add`` with every current root as a candidate."""
    return index.add(sub, [root.subscription_id for root in index.roots()])


class TestCoveringIndexSurgery:
    def test_collapse_under_deepest_coverer(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        mid = build({0: (1, 4)})
        narrow = build({0: (2, 3)})
        assert add(index, wide) == (True, [])
        assert add(index, mid) == (False, [])
        assert add(index, narrow) == (False, [])
        assert index.root_count == 1
        assert index.collapsed_count == 2
        assert index.collapsed_total == 2

    def test_new_root_demotes_covered_roots(self):
        index = CoveringIndex()
        a = build({0: (1, 2)})
        b = build({0: (3, 4)})
        add(index, a)
        add(index, b)
        wide = build({0: (0, 5)})
        became_root, demoted = add(index, wide)
        assert became_root
        assert sorted(demoted) == sorted(
            [a.subscription_id, b.subscription_id]
        )
        assert index.root_count == 1
        assert index.collapsed_total == 2

    def test_removing_leaf_splices_children_to_parent(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        mid = build({0: (1, 4)})
        narrow = build({0: (2, 3)})
        for sub in (wide, mid, narrow):
            add(index, sub)
        was_root, promoted = index.remove(mid.subscription_id)
        assert not was_root and promoted == []
        assert index.root_count == 1
        assert index.collapsed_count == 1
        # narrow now hangs directly under wide; removing wide promotes it.
        was_root, promoted = index.remove(wide.subscription_id)
        assert was_root
        assert [s.subscription_id for s in promoted] == [
            narrow.subscription_id
        ]
        assert index.promotions_total == 1
        assert index.is_root(narrow.subscription_id)

    def test_expand_prunes_failed_subtrees(self):
        index = CoveringIndex()
        wide = build({0: (0, 5)})
        left = build({0: (0, 2)})
        right = build({0: (3, 5)})
        leftmost = build({0: (0, 1)})
        for sub in (wide, left, right, leftmost):
            add(index, sub)
        event = SPACE.make_event(a1=4, a2=0)
        matched, tested, hit = index.expand([wide], event)
        assert set(matched) == {wide.subscription_id, right.subscription_id}
        # left fails and prunes leftmost without testing it.
        assert tested == 2
        assert hit == 1


def _with_id(sub, sid):
    return Subscription(space=SPACE, constraints=sub.constraints, subscription_id=sid)


@pytest.mark.parametrize("matcher", ["grid", "brute"])
def test_first_covering_root_in_insertion_order_wins(matcher):
    # Three pairwise incomparable roots all cover ``narrow``; they are
    # inserted out of id order, so neither candidate-set order nor id
    # order picks the insertion-order first one by accident.
    a = _with_id(build({0: (0, 4)}), 10**9 + 1)
    b = _with_id(build({1: (0, 4)}), 10**9 + 2)
    c = _with_id(build({0: (1, 5)}), 10**9 + 3)
    narrow = build({0: (2, 3), 1: (2, 3)})
    store = SubscriptionStore(SPACE, matcher=matcher, covering=True)
    for sub in (b, c, a, narrow):
        store.put(_payload(sub), {1}, now=0.0)
    index = store.covering
    assert list(index._roots) == [b.subscription_id, c.subscription_id, a.subscription_id]
    assert index._parent == {narrow.subscription_id: b.subscription_id}


@pytest.mark.parametrize("matcher", ["grid", "brute"])
def test_demoted_roots_keep_insertion_order(matcher):
    a = _with_id(build({0: (0, 1)}), 10**9 + 11)
    b = _with_id(build({1: (4, 5)}), 10**9 + 12)
    c = _with_id(build({0: (3, 3), 1: (0, 2)}), 10**9 + 13)
    store = SubscriptionStore(SPACE, matcher=matcher, covering=True)
    for sub in (c, a, b):
        store.put(_payload(sub), {1}, now=0.0)
    everything = build({0: (0, 5), 1: (0, 5)})
    store.put(_payload(everything), {1}, now=0.0)
    index = store.covering
    assert list(index._roots) == [everything.subscription_id]
    assert index._children[everything.subscription_id] == [
        c.subscription_id, a.subscription_id, b.subscription_id
    ]
    assert everything.subscription_id in store._matcher
    assert len(store._matcher) == 1


def _payload(sub, ttl=None):
    return SubscribePayload(
        subscription=sub, subscriber=1, ttl=ttl, groups=((0,),)
    )


class CoveringParityMachine(RuleBasedStateMachine):
    """Covering grid store vs uncollapsed brute oracle, step for step."""

    def __init__(self):
        super().__init__()
        self.covering_store = SubscriptionStore(
            SPACE, matcher="grid", covering=True
        )
        self.oracle = SubscriptionStore(SPACE, matcher="brute", covering=False)
        self.now = 0.0
        self.payloads: list = []

    @rule(
        sub=subscriptions(),
        ttl=st.one_of(st.none(), st.floats(1.0, 20.0)),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=3),
    )
    def install(self, sub, ttl, keys):
        payload = _payload(sub, ttl)
        self.payloads.append(payload)
        self.covering_store.put(payload, set(keys), self.now)
        self.oracle.put(payload, set(keys), self.now)

    @rule(index=st.integers(0, 10**6), keys=st.sets(st.integers(0, 6), min_size=1, max_size=3))
    def refresh(self, index, keys):
        if not self.payloads:
            return
        payload = self.payloads[index % len(self.payloads)]
        self.covering_store.put(payload, set(keys), self.now)
        self.oracle.put(payload, set(keys), self.now)

    @rule(index=st.integers(0, 10**6))
    def unsubscribe(self, index):
        if not self.payloads:
            return
        sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
        assert self.covering_store.remove(sid) == self.oracle.remove(sid)

    @rule(
        index=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=2),
    )
    def churn_keys_away(self, index, keys):
        if not self.payloads:
            return
        sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
        self.covering_store.remove_keys(sid, set(keys))
        self.oracle.remove_keys(sid, set(keys))

    @rule(delta=st.floats(0.1, 10.0))
    def advance_clock(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        # Purge order differs between the stores internally (covering
        # may promote mid-purge); the *surviving* set must not.
        self.covering_store.purge_expired(self.now)
        self.oracle.purge_expired(self.now)

    @invariant()
    def matches_agree_everywhere(self):
        for v1 in (0, 2, 5):
            for v2 in (0, 3, 5):
                event = SPACE.make_event(a1=v1, a2=v2)
                got = sorted(
                    e.subscription.subscription_id
                    for e in self.covering_store.match(event, self.now)
                )
                expected = sorted(
                    e.subscription.subscription_id
                    for e in self.oracle.match(event, self.now)
                )
                assert got == expected, (v1, v2, got, expected)

    @invariant()
    def forest_partitions_the_store(self):
        index = self.covering_store.covering
        assert index is not None
        assert index.root_count + index.collapsed_count == len(
            self.covering_store
        )


TestCoveringParity = CoveringParityMachine.TestCase
TestCoveringParity.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


# -- forest parity with the linear-scan construction -------------------------

WIDE = EventSpace.uniform(("b1", "b2", "b3"), 1000)
# Breakpoints close together and far apart, so ranges nest often, share
# grid buckets (four values wide here) and also span many of them.
_POINTS = (0, 3, 4, 250, 251, 600, 999)


@st.composite
def wide_subscriptions(draw):
    """Full, partial, full-domain and constraint-free subscriptions."""
    # A constraint-free subscription covers everything, so keep it rare
    # enough that most runs also grow forests with several roots.
    shape = draw(st.sampled_from(("full",) * 4 + ("partial",) * 5 + ("none",)))
    constraints = []
    if shape != "none":
        for attribute in range(WIDE.dimensions):
            if shape == "partial" and draw(st.booleans()):
                continue
            low = draw(st.sampled_from(_POINTS))
            high = draw(st.sampled_from([p for p in _POINTS if p >= low]))
            constraints.append(Constraint(attribute=attribute, low=low, high=high))
    return Subscription(space=WIDE, constraints=tuple(constraints))


class LinearScanForest:
    """The covering forest built by scanning every root on each install.

    A test-only reference for :class:`CoveringIndex`: same rules (first
    covering root in insertion order, deepest coverer on its branch,
    demoted roots in insertion order), no candidate query.
    """

    def __init__(self):
        self.subs = {}
        self.roots = {}
        self.parent = {}
        self.children = {}

    def add(self, sub):
        sid = sub.subscription_id
        self.subs[sid] = sub
        parent = next(
            (rid for rid, root in self.roots.items() if root.covers(sub)), -1
        )
        if parent >= 0:
            while True:
                deeper = next(
                    (
                        kid
                        for kid in self.children.get(parent, ())
                        if self.subs[kid].covers(sub)
                    ),
                    -1,
                )
                if deeper < 0:
                    break
                parent = deeper
            self.parent[sid] = parent
            self.children.setdefault(parent, []).append(sid)
            return False, []
        demoted = [rid for rid, root in self.roots.items() if sub.covers(root)]
        for rid in demoted:
            del self.roots[rid]
            self.parent[rid] = sid
            self.children.setdefault(sid, []).append(rid)
        self.roots[sid] = sub
        return True, demoted

    def remove(self, sid):
        del self.subs[sid]
        kids = self.children.pop(sid, [])
        if sid in self.roots:
            del self.roots[sid]
            for kid in kids:
                del self.parent[kid]
                self.roots[kid] = self.subs[kid]
            return
        parent = self.parent.pop(sid)
        siblings = self.children[parent]
        siblings.remove(sid)
        for kid in kids:
            self.parent[kid] = parent
        siblings.extend(kids)
        if not siblings:
            del self.children[parent]


class ShadowedCoveringIndex(CoveringIndex):
    """A covering index that replays every call on a linear-scan twin."""

    __slots__ = ("shadow",)

    def __init__(self):
        super().__init__()
        self.shadow = LinearScanForest()

    def add(self, subscription, candidates):
        result = super().add(subscription, candidates)
        assert result == self.shadow.add(subscription)
        return result

    def remove(self, subscription_id):
        self.shadow.remove(subscription_id)
        return super().remove(subscription_id)


class ForestParityMachine(RuleBasedStateMachine):
    """Stores whose forests are built from candidate queries must grow
    the exact forest the all-roots scan grows, step for step."""

    def __init__(self):
        super().__init__()
        self.stores = []
        for matcher in ("grid", "brute"):
            store = SubscriptionStore(WIDE, matcher=matcher, covering=True)
            store._covering = ShadowedCoveringIndex()
            self.stores.append(store)
        self.now = 0.0
        self.payloads: list = []

    @rule(
        sub=wide_subscriptions(),
        ttl=st.one_of(st.none(), st.floats(1.0, 20.0)),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=3),
    )
    def install(self, sub, ttl, keys):
        payload = _payload(sub, ttl)
        self.payloads.append(payload)
        for store in self.stores:
            store.put(payload, set(keys), self.now)

    @rule(index=st.integers(0, 10**6))
    def unsubscribe(self, index):
        if self.payloads:
            sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
            for store in self.stores:
                store.remove(sid)

    @rule(
        index=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 6), min_size=1, max_size=2),
    )
    def churn_keys_away(self, index, keys):
        if self.payloads:
            sid = self.payloads[index % len(self.payloads)].subscription.subscription_id
            for store in self.stores:
                store.remove_keys(sid, set(keys))

    @rule(delta=st.floats(0.1, 10.0))
    def advance_clock(self, delta):
        self.now += delta

    @rule()
    def purge(self):
        for store in self.stores:
            store.purge_expired(self.now)

    @rule(values=st.tuples(*(st.sampled_from(_POINTS),) * 3))
    def publish(self, values):
        # Matching removes expired entries lazily, in id order.
        event = WIDE.make_event(b1=values[0], b2=values[1], b3=values[2])
        for store in self.stores:
            store.match(event, self.now)

    @rule()
    def check_forest(self):
        # Reading ``covering`` folds every install queued since the last
        # read, so several can pile up between two checks.
        for store in self.stores:
            index = store.covering
            shadow = index.shadow
            assert not store._pending
            assert list(index._roots) == list(shadow.roots)
            assert index._parent == shadow.parent
            assert index._children == shadow.children

    @invariant()
    def engine_holds_exactly_the_folded_roots(self):
        # Reads the index without folding: the engine and the forest
        # only ever change together, so pending installs are in neither.
        # The engine holding exactly the roots is the candidate query's
        # precondition.
        for store in self.stores:
            index = store._covering
            assert len(store._matcher) == index.root_count
            assert all(sid in store._matcher for sid in index._roots)
            assert len(index) + len(store._pending) == len(store)


TestForestParity = ForestParityMachine.TestCase
TestForestParity.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
