"""The rendezvous subscription store (Section 4.1).

Each node stores the subscriptions whose SK keys it covers, remembers
the subscriber and the keys that put the subscription here, enforces
expiration times (the paper's stand-in for unsubscriptions, Section
5.1), and matches incoming events against the live entries.
"""

from __future__ import annotations

import dataclasses

from repro.core.events import Event, EventSpace
from repro.core.payloads import StoredEntrySnapshot, SubscribePayload
from repro.core.subscriptions import Subscription
from repro.matching import (
    BruteForceMatcher,
    CoveringIndex,
    GridIndexMatcher,
    Matcher,
)


@dataclasses.dataclass
class StoredSubscription:
    """One subscription resident at a rendezvous node.

    Attributes:
        payload: The install payload (subscription, subscriber, groups).
        keys_here: The subset of SK(σ) covered by this node.  Tracked so
            that churn can move exactly the keys that change ownership
            (Section 4.1) and so the collecting agent can be derived.
        expire_at: Absolute simulated expiry time, or None.
    """

    payload: SubscribePayload
    keys_here: set[int]
    expire_at: float | None

    @property
    def subscription(self) -> Subscription:
        """The stored subscription."""
        return self.payload.subscription

    @property
    def subscriber(self) -> int:
        """Overlay id of the subscribing node."""
        return self.payload.subscriber

    def expired(self, now: float) -> bool:
        """True once the expiry time has passed."""
        return self.expire_at is not None and now >= self.expire_at

    def snapshot(self) -> StoredEntrySnapshot:
        """Serializable image for replication and state transfer."""
        return StoredEntrySnapshot(
            payload=self.payload,
            keys_here=tuple(sorted(self.keys_here)),
            expire_at=self.expire_at,
        )


class SubscriptionStore:
    """Subscription storage + matching for one rendezvous node.

    Args:
        space: The event space (needed when an indexed matcher is used).
        matcher: ``"grid"`` (the indexed engine) or ``"brute"`` (the
            reference oracle) — which matching engine backs the store.
        covering: Collapse covered subscriptions under a
            :class:`~repro.matching.covering.CoveringIndex` so the
            engine only sees the least-covered roots (see
            :meth:`match`).  ``None`` (the default) enables covering
            for ``"grid"`` and leaves ``"brute"`` the uncollapsed
            oracle the grid is audited against.
    """

    def __init__(
        self,
        space: EventSpace,
        matcher: str = "brute",
        covering: bool | None = None,
    ) -> None:
        self._entries: dict[int, StoredSubscription] = {}
        if matcher == "grid":
            self._matcher: Matcher = GridIndexMatcher(space)
        elif matcher == "brute":
            self._matcher = BruteForceMatcher()
        else:
            raise ValueError(f"unknown matcher {matcher!r}")
        if covering is None:
            covering = matcher != "brute"
        self._covering = CoveringIndex() if covering else None

    @property
    def covering(self) -> CoveringIndex | None:
        """The covering index, or None when running uncollapsed."""
        return self._covering

    def attach_match_stats(self, stats) -> None:
        """Attribute this store's matcher work to ``stats``.

        ``stats`` is a :class:`~repro.telemetry.load.MatchWork` handle;
        the matching engines add candidate/verify/match counts to it on
        every ``match()`` call once attached (and pay a single identity
        check when not).  The covering gauges are synced into the same
        handle on every install/remove.
        """
        self._matcher.work = stats
        if stats is not None and self._covering is not None:
            self._sync_cover_stats()

    def _sync_cover_stats(self) -> None:
        """Mirror the covering gauges into the attached work handle."""
        work = self._matcher.work
        if work is not None:
            covering = self._covering
            work.cover_roots = covering.root_count
            work.cover_collapsed = covering.collapsed_total
            work.cover_promotions = covering.promotions_total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._entries

    def entries(self) -> list[StoredSubscription]:
        """All resident entries (including not-yet-purged expired ones)."""
        return list(self._entries.values())

    def get(self, subscription_id: int) -> StoredSubscription | None:
        """The entry for a subscription id, if resident."""
        return self._entries.get(subscription_id)

    def put(
        self,
        payload: SubscribePayload,
        keys_here: set[int],
        now: float,
        expire_at: float | None = None,
    ) -> StoredSubscription:
        """Install (or refresh) a subscription.

        Re-installs are idempotent on the matcher and merge the covered
        key sets — with per-key unicast propagation (the aggressive
        baseline) the same node legitimately receives one copy per
        covered key.  A refresh restarts the TTL clock.
        """
        sid = payload.subscription.subscription_id
        if expire_at is None and payload.ttl is not None:
            expire_at = now + payload.ttl
        entry = self._entries.get(sid)
        if entry is None:
            entry = StoredSubscription(
                payload=payload, keys_here=set(keys_here), expire_at=expire_at
            )
            self._entries[sid] = entry
            covering = self._covering
            if covering is None:
                self._matcher.add(payload.subscription)
            else:
                became_root, demoted = covering.add(payload.subscription)
                if became_root:
                    self._matcher.add(payload.subscription)
                    for demoted_id in demoted:
                        self._matcher.remove(demoted_id)
                self._sync_cover_stats()
        else:
            entry.keys_here.update(keys_here)
            entry.expire_at = expire_at
        return entry

    def restore(self, snapshot: StoredEntrySnapshot) -> StoredSubscription:
        """Install from a snapshot, preserving its absolute expiry."""
        return self.put(
            snapshot.payload,
            keys_here=set(snapshot.keys_here),
            now=0.0,
            expire_at=snapshot.expire_at,
        )

    def remove(self, subscription_id: int) -> bool:
        """Drop a subscription entirely; True if it was resident.

        With covering enabled the forest repairs itself: a removed leaf
        splices its children to its parent, a removed root promotes its
        direct children back into the matching engine — so a coverer
        dying (expiry, unsubscribe, churn) never strands the
        subscriptions it covered.
        """
        entry = self._entries.pop(subscription_id, None)
        if entry is None:
            return False
        covering = self._covering
        if covering is None:
            self._matcher.remove(subscription_id)
        else:
            was_root, promoted = covering.remove(subscription_id)
            if was_root:
                self._matcher.remove(subscription_id)
                for subscription in promoted:
                    self._matcher.add(subscription)
            self._sync_cover_stats()
        return True

    def remove_keys(
        self, subscription_id: int, keys: set[int]
    ) -> StoredSubscription | None:
        """Detach ``keys`` from an entry, dropping it when none remain.

        Returns the (possibly removed) entry so churn handlers can ship
        it to the new owner.
        """
        entry = self._entries.get(subscription_id)
        if entry is None:
            return None
        entry.keys_here -= keys
        if not entry.keys_here:
            self.remove(subscription_id)
        return entry

    def purge_expired(self, now: float) -> int:
        """Drop every expired entry; returns how many were removed."""
        # Storage snapshots call this across the whole ring; at scale
        # almost every store is empty, so the early-out is the
        # difference between O(samples) and O(samples * nodes).
        if not self._entries:
            return 0
        expired = [sid for sid, e in self._entries.items() if e.expired(now)]
        for sid in expired:
            self.remove(sid)
        return len(expired)

    def live_count(self, now: float) -> int:
        """Number of non-expired entries (purging as a side effect)."""
        self.purge_expired(now)
        return len(self._entries)

    def match(self, event: Event, now: float) -> list[StoredSubscription]:
        """Live entries whose subscription the event satisfies.

        With covering enabled the engine only matched the roots; hit
        roots are fanned into their covered subtrees by a pruned DFS
        (:meth:`~repro.matching.covering.CoveringIndex.expand`) and the
        combined result is returned in subscription-id order — the same
        order the grid engine already produces, so enabling covering
        is invisible to the delivery stream.  Expiry stays lazy: expired
        entries are filtered here and removed afterwards (removing a
        covering root mid-match promotes its children for *future*
        events; this event already expanded through it).
        """
        matched = self._matcher.match(event)
        entries = self._entries
        covering = self._covering
        if covering is not None and covering.collapsed_count:
            matched_ids, tested, hit = covering.expand(matched, event)
            work = self._matcher.work
            if work is not None and tested:
                work.candidates += tested
                work.verified += tested
                work.matched += hit
            matched_ids.sort()
            result = []
            doomed = None
            for sid in matched_ids:
                entry = entries[sid]
                if entry.expired(now):
                    if doomed is None:
                        doomed = []
                    doomed.append(sid)
                else:
                    result.append(entry)
            if doomed:
                for sid in doomed:
                    self.remove(sid)
            return result
        result = []
        for subscription in matched:
            entry = entries[subscription.subscription_id]
            if entry.expired(now):
                self.remove(subscription.subscription_id)
                continue
            result.append(entry)
        return result
