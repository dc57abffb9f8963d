"""The rendezvous subscription store: idempotence, expiry, key tracking."""

import pytest

from repro.core.events import EventSpace
from repro.core.payloads import SubscribePayload
from repro.core.rendezvous import SubscriptionStore
from repro.core.subscriptions import Subscription

SPACE = EventSpace.uniform(("a1", "a2"), 1000)


def make_payload(low=10, high=20, subscriber=7, ttl=None):
    sigma = Subscription.build(SPACE, a1=(low, high))
    return SubscribePayload(
        subscription=sigma,
        subscriber=subscriber,
        ttl=ttl,
        groups=((1, 2, 3),),
    )


def test_put_and_match():
    store = SubscriptionStore(SPACE)
    payload = make_payload(10, 20)
    store.put(payload, {1}, now=0.0)
    assert len(store) == 1
    matched = store.match(SPACE.make_event(a1=15, a2=0), now=1.0)
    assert [e.subscriber for e in matched] == [7]
    assert store.match(SPACE.make_event(a1=25, a2=0), now=1.0) == []


def test_put_is_idempotent_and_merges_keys():
    store = SubscriptionStore(SPACE)
    payload = make_payload()
    store.put(payload, {1}, now=0.0)
    store.put(payload, {2}, now=0.0)
    assert len(store) == 1
    entry = store.get(payload.subscription.subscription_id)
    assert entry is not None and entry.keys_here == {1, 2}


def test_ttl_sets_expiry_and_refresh_restarts_clock():
    store = SubscriptionStore(SPACE)
    payload = make_payload(ttl=10.0)
    store.put(payload, {1}, now=0.0)
    entry = store.get(payload.subscription.subscription_id)
    assert entry.expire_at == 10.0
    store.put(payload, {1}, now=5.0)
    assert entry.expire_at == 15.0


def test_expired_entries_not_matched_and_purged():
    store = SubscriptionStore(SPACE)
    payload = make_payload(10, 20, ttl=10.0)
    store.put(payload, {1}, now=0.0)
    event = SPACE.make_event(a1=15, a2=0)
    assert store.match(event, now=9.9)
    assert store.match(event, now=10.0) == []
    assert len(store) == 0  # purged on access


def test_purge_expired_bulk():
    store = SubscriptionStore(SPACE)
    for i in range(5):
        store.put(make_payload(ttl=float(i + 1)), {1}, now=0.0)
    store.put(make_payload(ttl=None), {1}, now=0.0)
    assert store.purge_expired(now=3.5) == 3
    assert store.live_count(now=100.0) == 1  # only the never-expiring one


def test_remove():
    store = SubscriptionStore(SPACE)
    payload = make_payload()
    store.put(payload, {1}, now=0.0)
    sid = payload.subscription.subscription_id
    assert store.remove(sid)
    assert not store.remove(sid)
    assert sid not in store


def test_remove_keys_partial_and_full():
    store = SubscriptionStore(SPACE)
    payload = make_payload()
    store.put(payload, {1, 2, 3}, now=0.0)
    sid = payload.subscription.subscription_id
    store.remove_keys(sid, {1})
    assert store.get(sid).keys_here == {2, 3}
    store.remove_keys(sid, {2, 3})
    assert sid not in store


def test_remove_keys_unknown_subscription():
    store = SubscriptionStore(SPACE)
    assert store.remove_keys(999_999_999, {1}) is None


def test_snapshot_restore_roundtrip_preserves_expiry():
    store = SubscriptionStore(SPACE)
    payload = make_payload(ttl=50.0)
    entry = store.put(payload, {4, 5}, now=10.0)
    snapshot = entry.snapshot()
    other = SubscriptionStore(SPACE)
    restored = other.restore(snapshot)
    assert restored.expire_at == 60.0
    assert restored.keys_here == {4, 5}
    assert restored.subscriber == 7


def test_grid_matcher_backend():
    store = SubscriptionStore(SPACE, matcher="grid")
    payload = make_payload(10, 20)
    store.put(payload, {1}, now=0.0)
    assert store.match(SPACE.make_event(a1=15, a2=0), now=0.0)


def test_unknown_matcher_rejected():
    with pytest.raises(ValueError):
        SubscriptionStore(SPACE, matcher="magic")


class _Untouchable(dict):
    """An entry table that fails any scan (the purge early-out must not
    look at the entries at all)."""

    def items(self):
        raise AssertionError("purge scanned the store")

    values = __iter__ = items


def test_purge_below_earliest_expiry_does_not_scan():
    store = SubscriptionStore(SPACE)
    store.put(make_payload(ttl=10.0), {1}, now=0.0)
    store.put(make_payload(ttl=None), {1}, now=0.0)
    store._entries = _Untouchable(store._entries)
    assert store.purge_expired(now=9.999) == 0
    assert len(store) == 2


def test_purge_exactly_at_and_after_the_earliest_expiry():
    store = SubscriptionStore(SPACE)
    first = make_payload(ttl=10.0)
    second = make_payload(ttl=20.0)
    store.put(first, {1}, now=0.0)
    store.put(second, {1}, now=0.0)
    store.put(make_payload(ttl=None), {1}, now=0.0)
    assert store.purge_expired(now=9.5) == 0
    assert store.purge_expired(now=10.0) == 1
    assert first.subscription.subscription_id not in store
    assert store.purge_expired(now=19.0) == 0
    assert store.purge_expired(now=25.0) == 1
    assert second.subscription.subscription_id not in store
    assert store.live_count(now=1e9) == 1


def test_restore_with_an_earlier_expiry_lowers_the_purge_bound():
    store = SubscriptionStore(SPACE)
    store.put(make_payload(ttl=50.0), {1}, now=0.0)
    assert store.purge_expired(now=5.0) == 0
    donor = SubscriptionStore(SPACE)
    early = donor.put(make_payload(ttl=10.0), {2}, now=0.0)
    store.restore(early.snapshot())  # absolute expiry 10.0 < 50.0
    assert store.purge_expired(now=10.0) == 1
    assert early.subscription.subscription_id not in store
    assert len(store) == 1


def test_refresh_to_a_later_expiry_keeps_the_purge_exact():
    store = SubscriptionStore(SPACE)
    payload = make_payload(ttl=10.0)
    store.put(payload, {1}, now=0.0)
    store.put(payload, {1}, now=8.0)  # refresh: expires at 18.0 now
    assert store.purge_expired(now=12.0) == 0
    assert store.purge_expired(now=17.9) == 0
    assert store.purge_expired(now=18.0) == 1


# -- index on first read -------------------------------------------------------


def _sub(**ranges):
    return SubscribePayload(
        subscription=Subscription.build(SPACE, **ranges),
        subscriber=7,
        ttl=None,
        groups=((1,),),
    )


def _nested_payloads():
    """Installs that collapse, demote and nest (ids in arrival order)."""
    return [
        _sub(a1=(100, 200)),
        _sub(a1=(120, 150)),  # under the first
        _sub(a1=(0, 500)),  # demotes the first root
        _sub(a2=(10, 20)),  # a second root
        _sub(a1=(300, 400), a2=(10, 15)),  # under the first coverer: a1
        _sub(a1=(0, 999), a2=(0, 999)),  # demotes both roots
        _sub(a1=(600, 700)),  # under the full-domain one
    ]


def _index_state(store):
    """Forest and engine, compared including insertion order."""
    covering = store._covering
    engine = store._matcher
    forest = None
    if covering is not None:
        forest = (
            list(covering._roots),
            covering._parent,
            covering._children,
            covering.collapsed_total,
            covering.promotions_total,
        )
    return forest, list(engine._subscriptions), vars(engine)


def _eager(payloads, matcher, covering, expiring=()):
    """Reference store: every put is followed by a read that folds it."""
    store = SubscriptionStore(SPACE, matcher=matcher, covering=covering)
    for payload in payloads:
        ttl = 5.0 if payload in expiring else None
        store.put(payload, {1}, now=0.0, expire_at=ttl)
        store.covering
    return store


STORE_KINDS = [("grid", True), ("grid", False), ("brute", True), ("brute", False)]


@pytest.mark.parametrize("matcher,covering", STORE_KINDS)
def test_puts_alone_leave_the_index_empty(matcher, covering):
    store = SubscriptionStore(SPACE, matcher=matcher, covering=covering)
    for payload in _nested_payloads():
        store.put(payload, {1}, now=0.0)
    assert len(store._matcher) == 0
    if store._covering is not None:
        assert len(store._covering) == 0
    assert len(store) == 7


@pytest.mark.parametrize("matcher,covering", STORE_KINDS)
@pytest.mark.parametrize("read", ["match", "remove", "purge_expired"])
def test_first_read_folds_to_the_eager_index(matcher, covering, read):
    payloads = _nested_payloads()
    expiring = (payloads[4],)
    reference = _eager(payloads, matcher, covering, expiring)
    store = SubscriptionStore(SPACE, matcher=matcher, covering=covering)
    for payload in payloads:
        ttl = 5.0 if payload in expiring else None
        store.put(payload, {1}, now=0.0, expire_at=ttl)
    for target in (store, reference):
        if read == "match":
            matched = target.match(SPACE.make_event(a1=130, a2=12), now=1.0)
            assert [e.subscription.subscription_id for e in matched] == [
                p.subscription.subscription_id
                for p in (payloads[0], payloads[1], payloads[2], payloads[3],
                          payloads[5])
            ]
        elif read == "remove":
            assert target.remove(payloads[2].subscription.subscription_id)
        else:
            assert target.purge_expired(now=10.0) == 1
    assert not store._pending
    assert _index_state(store) == _index_state(reference)


@pytest.mark.parametrize("matcher", ["grid", "brute"])
def test_removing_a_pending_subscription_folds_it_first(matcher):
    narrow_a1 = _sub(a1=(100, 200))
    narrow_a2 = _sub(a2=(10, 20))
    wide_a1 = _sub(a1=(50, 300))  # covers narrow_a1 only
    payloads = [narrow_a1, narrow_a2, wide_a1]
    reference = _eager(payloads, matcher, True)
    store = SubscriptionStore(SPACE, matcher=matcher, covering=True)
    for payload in payloads:
        store.put(payload, {1}, now=0.0)
    wide_id = wide_a1.subscription.subscription_id
    assert store.remove(wide_id) and reference.remove(wide_id)
    # The wide root demoted narrow_a1 and its removal promoted it back
    # behind narrow_a2; dropping it unindexed would keep the old order.
    assert list(store.covering._roots) == [
        narrow_a2.subscription.subscription_id,
        narrow_a1.subscription.subscription_id,
    ]
    assert store.covering.promotions_total == 1
    assert _index_state(store) == _index_state(reference)
