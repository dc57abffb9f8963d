"""Common interface of the matching engines."""

from __future__ import annotations

import abc
from typing import Collection

from repro.core.events import Event
from repro.core.subscriptions import Subscription


class Matcher(abc.ABC):
    """A mutable collection of subscriptions with event matching."""

    #: Optional work-attribution handle (a
    #: :class:`~repro.telemetry.load.MatchWork`): when attached, every
    #: ``match()`` adds its candidate-set size, exact-verification
    #: count and match count.  Class-level None keeps the disabled
    #: path at one identity check per match.
    work = None

    @abc.abstractmethod
    def add(self, subscription: Subscription) -> None:
        """Insert a subscription (no-op if the id is already present)."""

    @abc.abstractmethod
    def remove(self, subscription_id: int) -> bool:
        """Remove by id; returns True if it was present."""

    @abc.abstractmethod
    def match(self, event: Event) -> list[Subscription]:
        """All stored subscriptions the event satisfies."""

    @abc.abstractmethod
    def covering_candidates(self, subscription: Subscription) -> Collection[int]:
        """Ids of stored subscriptions that may cover, or be covered by,
        ``subscription``.

        A superset of both covering directions; the caller tests each
        candidate exactly.  Never counted as a ``match()``.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored subscriptions."""

    @abc.abstractmethod
    def __contains__(self, subscription_id: int) -> bool:
        """Membership test by subscription id."""

    def matches_any(self, event: Event) -> bool:
        """True if at least one stored subscription matches the event."""
        return bool(self.match(event))
