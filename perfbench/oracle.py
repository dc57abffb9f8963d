"""Delivery oracle computed from the trace, after the run.

Expected notifications are built by a brute interval check of every
publication against every subscription live at publish time -- no
matcher, no mapping, no covering, nothing the system under test uses.
A subscription installed within ``GRACE`` seconds of a publication --
before it, or after it and overtaking it to the rendezvous -- or expiring
within ``GRACE`` seconds of it, before or after, may legitimately be
matched or not, so its notification is *indeterminate*: neither its
presence nor its absence is an error.  Expiry needs the grace on both
sides because a rendezvous starts a subscription's time to live when the
install arrives there, not when the trace issued it, so a copy can
outlive its trace-time expiry by its install routing delay.  This is the
online auditor's tolerance (``AuditConfig.grace``), applied on both
sides of the publication.

Because the oracle works from the trace and the delivered set alone, the
order in which the system raises its hooks cannot affect it.
"""

from __future__ import annotations

import dataclasses

#: Edge tolerance in seconds (the auditor's default grace).
GRACE = 2.0

Triple = tuple[int, int, int]
"""(subscriber node, event id, subscription id)."""


@dataclasses.dataclass
class Expectation:
    """The oracle's verdict inputs for one trace."""

    expected: frozenset[Triple]
    indeterminate: frozenset[Triple]
    pub_of_event: dict[int, int]
    """Event id -> index of its publication in the trace's ops."""


@dataclasses.dataclass
class Verdict:
    """One run's deliveries checked against an :class:`Expectation`."""

    expected: int
    delivered: int
    missed: int
    false: int
    failed_pubs: int
    """Publications with at least one missed or false notification."""

    @property
    def miss_share(self) -> float:
        return self.missed / self.expected if self.expected else 0.0

    @property
    def false_share(self) -> float:
        return self.false / self.delivered if self.delivered else 0.0


def expect(ops) -> Expectation:
    """Expected and indeterminate triples for a list of trace ops."""
    subs = []
    for op in ops:
        if op.kind == "sub":
            bounds = tuple(
                (c.attribute, c.low, c.high) for c in op.subscription.constraints
            )
            end = None if op.ttl is None else op.time + op.ttl
            subs.append(
                (op.time, end, bounds, op.node, op.subscription.subscription_id)
            )
    subs.sort(key=lambda s: s[0])
    expected: set[Triple] = set()
    indeterminate: set[Triple] = set()
    pub_of_event: dict[int, int] = {}
    for index, op in enumerate(ops):
        if op.kind != "pub":
            continue
        now = op.time
        values = op.event.values
        event_id = op.event.event_id
        pub_of_event[event_id] = index
        for start, end, bounds, node, sid in subs:
            if start > now + GRACE:
                break
            if end is not None and end + GRACE <= now:
                continue
            for attribute, low, high in bounds:
                if not low <= values[attribute] <= high:
                    break
            else:
                triple = (node, event_id, sid)
                if start + GRACE > now or (end is not None and end <= now + GRACE):
                    indeterminate.add(triple)
                else:
                    expected.add(triple)
    return Expectation(
        frozenset(expected), frozenset(indeterminate), pub_of_event
    )


def check(expectation: Expectation, delivered) -> Verdict:
    """Compare a delivered triple set against the expectation."""
    delivered = set(delivered)
    missed = expectation.expected - delivered
    false = delivered - expectation.expected - expectation.indeterminate
    pub_of_event = expectation.pub_of_event
    failed = {pub_of_event.get(event_id, -1) for _, event_id, _ in missed | false}
    return Verdict(
        expected=len(expectation.expected),
        delivered=len(delivered),
        missed=len(missed),
        false=len(false),
        failed_pubs=len(failed),
    )
