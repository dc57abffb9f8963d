"""Bucket-grid matching index.

Strategy: pick one *anchor* attribute per subscription (its most
selective constraint), divide that attribute's domain into fixed-width
buckets, and register the subscription in every bucket its anchor range
overlaps.  Matching an event probes one bucket per attribute and
verifies candidates exactly.  Partial subscriptions with no constraints
at all live in a catch-all list.

With the paper's workload (ranges ≤ 3% of the domain) each subscription
lands in a handful of buckets and each probe examines a small candidate
set, making the matching-probability control of the workload generator
(which must test events against up to 25 000 live subscriptions)
affordable.
"""

from __future__ import annotations

from repro.core.events import Event, EventSpace
from repro.core.subscriptions import Subscription
from repro.errors import DataModelError
from repro.matching.base import Matcher


class GridIndexMatcher(Matcher):
    """Anchor-attribute bucket grid over one event space.

    Args:
        space: The event space all indexed subscriptions must share.
        buckets_per_attribute: Grid resolution; more buckets = smaller
            candidate sets but more registration work per subscription.
    """

    def __init__(self, space: EventSpace, buckets_per_attribute: int = 256) -> None:
        if buckets_per_attribute < 1:
            raise DataModelError("need at least one bucket per attribute")
        self._space = space
        self._bucket_count = buckets_per_attribute
        self._widths = [
            max(1, -(-attribute.size // buckets_per_attribute))  # ceil division
            for attribute in space.attributes
        ]
        # _grid[attribute][bucket] -> {subscription_id}
        self._grid: list[dict[int, set[int]]] = [{} for _ in space.attributes]
        self._catch_all: set[int] = set()
        self._subscriptions: dict[int, Subscription] = {}
        self._anchor: dict[int, int] = {}

    def _bucket_of(self, attribute: int, value: int) -> int:
        return value // self._widths[attribute]

    def add(self, subscription: Subscription) -> None:
        sid = subscription.subscription_id
        if sid in self._subscriptions:
            return
        space = subscription.space
        if space is not self._space and space != self._space:
            raise DataModelError("subscription space differs from index space")
        self._subscriptions[sid] = subscription
        if not subscription.constraints:
            self._catch_all.add(sid)
            return
        anchor = subscription.most_selective_attribute()
        self._anchor[sid] = anchor
        constraint = subscription.constraint_on(anchor)
        assert constraint is not None
        buckets = self._grid[anchor]
        first = self._bucket_of(anchor, constraint.low)
        last = self._bucket_of(anchor, constraint.high)
        for bucket in range(first, last + 1):
            buckets.setdefault(bucket, set()).add(sid)

    def remove(self, subscription_id: int) -> bool:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            return False
        if subscription_id in self._catch_all:
            self._catch_all.discard(subscription_id)
            return True
        anchor = self._anchor.pop(subscription_id)
        constraint = subscription.constraint_on(anchor)
        assert constraint is not None
        buckets = self._grid[anchor]
        first = self._bucket_of(anchor, constraint.low)
        last = self._bucket_of(anchor, constraint.high)
        for bucket in range(first, last + 1):
            members = buckets.get(bucket)
            if members is not None:
                members.discard(subscription_id)
                if not members:
                    del buckets[bucket]
        return True

    def match(self, event: Event) -> list[Subscription]:
        candidates: set[int] = set(self._catch_all)
        grid = self._grid
        widths = self._widths
        for attribute, value in enumerate(event.values):
            buckets = grid[attribute]
            if not buckets:
                # No subscription is anchored on this attribute; skip
                # the bucket arithmetic and the probe entirely.
                continue
            members = buckets.get(value // widths[attribute])
            if members:
                candidates.update(members)
        subscriptions = self._subscriptions
        matched = [
            subscription
            for sid in candidates
            if (subscription := subscriptions[sid]).matches(event)
        ]
        matched.sort(key=lambda s: s.subscription_id)
        work = self.work
        if work is not None:
            work.candidates += len(candidates)
            work.verified += len(candidates)
            work.matched += len(matched)
        return matched

    def covering_candidates(self, subscription: Subscription) -> set[int]:
        """Indexed ids whose anchor range may meet ``subscription``'s.

        On each attribute, the ids anchored there whose buckets overlap
        ``subscription``'s effective range (the full domain when it is
        unconstrained), plus the catch-all.  That is a superset of both
        covering directions: a coverer's anchor range contains the
        subscription's range on that attribute, a covered subscription's
        anchor range lies inside it, and a subscription with no
        constraints sits in the catch-all.  A range spanning more
        buckets than are occupied walks the occupied ones instead.
        """
        found = set(self._catch_all)
        widths = self._widths
        ranges = {c.attribute: c for c in subscription.constraints}
        for attribute, buckets in enumerate(self._grid):
            if not buckets:
                continue
            constraint = ranges.get(attribute)
            if constraint is None:
                first, last = 0, self._bucket_count
            else:
                first = constraint.low // widths[attribute]
                last = constraint.high // widths[attribute]
            if last - first < len(buckets):
                for bucket in range(first, last + 1):
                    members = buckets.get(bucket)
                    if members:
                        found.update(members)
            else:
                for bucket, members in buckets.items():
                    if first <= bucket <= last:
                        found.update(members)
        return found

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subscriptions
