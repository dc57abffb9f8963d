"""Reference matching engine: test every stored subscription."""

from __future__ import annotations

from typing import Collection

from repro.core.events import Event
from repro.core.subscriptions import Subscription
from repro.matching.base import Matcher


class BruteForceMatcher(Matcher):
    """O(stored x d) matching; the oracle the index is tested against."""

    def __init__(self) -> None:
        self._subscriptions: dict[int, Subscription] = {}

    def add(self, subscription: Subscription) -> None:
        self._subscriptions.setdefault(subscription.subscription_id, subscription)

    def remove(self, subscription_id: int) -> bool:
        return self._subscriptions.pop(subscription_id, None) is not None

    def match(self, event: Event) -> list[Subscription]:
        matched = [s for s in self._subscriptions.values() if s.matches(event)]
        work = self.work
        if work is not None:
            # Every stored subscription is both candidate and verify.
            work.candidates += len(self._subscriptions)
            work.verified += len(self._subscriptions)
            work.matched += len(matched)
        return matched

    def covering_candidates(self, subscription: Subscription) -> Collection[int]:
        # No index to consult: every stored subscription is a candidate.
        return self._subscriptions.keys()

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subscriptions

    def subscriptions(self) -> list[Subscription]:
        """All stored subscriptions (insertion order)."""
        return list(self._subscriptions.values())
