"""Subscription covering index: collapse covered predicates at rendezvous.

The paper's selective-attribute mapping concentrates subscriptions on a
few rendezvous nodes; under Zipf interest most of those predicates are
redundant — they are *covered* by a broader subscription already stored
at the same node (σ₁ covers σ₂ iff every event matching σ₂ also matches
σ₁, see :meth:`repro.core.subscriptions.Subscription.covers`).  The
:class:`CoveringIndex` maintains the covering partial order as a forest:

- **roots** are the least-covered summaries — the only subscriptions the
  node's matching engine sees;
- every other subscription hangs as a descendant **leaf** under some
  coverer and costs the matcher nothing.

Matching exploits that the match relation is upward-closed through the
covering order: if an event fails a subscription it fails everything
that subscription covers.  So a publication is matched against the
roots-only engine first, and only subtrees under *hit* roots are fanned
into — a pruned DFS that tests each visited descendant's predicate and
prunes its subtree on a miss.  The result is exactly the set the
uncollapsed store would have matched (pinned by the hypothesis parity
suite in ``tests/matching/test_covering.py``).

Removal keeps the forest correct when a coverer dies before the
subscriptions it covers:

- removing a **leaf** splices its children up to its parent (the
  grandparent covers them transitively);
- removing a **root** promotes its direct children back to roots — the
  caller re-installs them into the matching engine (the
  ``promotions`` counter tracks this re-expansion).

An install tests only *candidate* roots, never the whole root set.
The caller's matching engine holds exactly the roots, and its
:meth:`~repro.matching.base.Matcher.covering_candidates` query returns
a superset of the roots that can cover the newcomer or be covered by
it.  On the grid that is every root whose anchor-attribute buckets
overlap the newcomer's effective range on that attribute, plus the
catch-all: a coverer's anchor range contains the newcomer's range
there, and a covered root's anchor range lies inside it.

All orders are deterministic, so a seeded run produces an identical
forest and match stream every time: the first covering root in root
insertion order wins, demoted roots keep root insertion order (when
two or more candidates hit, one pass over the roots restores it), and
expansion is a LIFO DFS.
"""

from __future__ import annotations

from typing import Collection

from repro.core.events import Event
from repro.core.subscriptions import Subscription


class CoveringIndex:
    """Covering forest over one rendezvous store's subscriptions.

    Counters (cumulative over the index's lifetime):

    Attributes:
        collapsed_total: Subscriptions installed under (or demoted
            beneath) a coverer instead of entering the matching engine.
        promotions_total: Covered subscriptions promoted back to roots
            because their covering root was removed.
    """

    __slots__ = (
        "_subs",
        "_roots",
        "_parent",
        "_children",
        "collapsed_total",
        "promotions_total",
    )

    def __init__(self) -> None:
        self._subs: dict[int, Subscription] = {}
        # Insertion-ordered root set; values are the subscriptions so
        # candidate tests need no second lookup.
        self._roots: dict[int, Subscription] = {}
        self._parent: dict[int, int] = {}
        self._children: dict[int, list[int]] = {}
        self.collapsed_total = 0
        self.promotions_total = 0

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subs

    @property
    def root_count(self) -> int:
        """Number of current roots (= matcher-resident subscriptions)."""
        return len(self._roots)

    @property
    def collapsed_count(self) -> int:
        """Number of currently collapsed (non-root) subscriptions."""
        return len(self._parent)

    def is_root(self, subscription_id: int) -> bool:
        """True if the subscription currently sits in the root set."""
        return subscription_id in self._roots

    def roots(self) -> list[Subscription]:
        """Current roots in insertion order."""
        return list(self._roots.values())

    def add(
        self, subscription: Subscription, candidates: Collection[int]
    ) -> tuple[bool, list[int]]:
        """Insert a subscription into the forest.

        ``candidates`` are the root ids that may cover, or be covered
        by, the newcomer (the matching engine's
        :meth:`~repro.matching.base.Matcher.covering_candidates` over
        the roots); only they are tested.

        Returns ``(became_root, demoted_ids)``: when ``became_root`` is
        True the caller must add the subscription to its matching
        engine and remove every id in ``demoted_ids`` from it (existing
        roots now covered by — and re-parented under — the newcomer).
        When False the subscription was collapsed under a coverer and
        the engine is untouched.
        """
        sid = subscription.subscription_id
        if sid in self._subs:
            raise ValueError(f"subscription {sid} already indexed")
        self._subs[sid] = subscription
        roots = self._roots
        # First covering root in insertion order wins, then descend
        # greedily to the deepest coverer on that branch so chains like
        # [0,9] ⊒ [2,7] ⊒ [3,5] nest instead of fanning out.
        coverers = [rid for rid in candidates if roots[rid].covers(subscription)]
        if coverers:
            parent = (
                coverers[0]
                if len(coverers) == 1
                else self._in_root_order(coverers)[0]
            )
            subs = self._subs
            children = self._children
            while True:
                deeper = -1
                for child_id in children.get(parent, ()):
                    if subs[child_id].covers(subscription):
                        deeper = child_id
                        break
                if deeper < 0:
                    break
                parent = deeper
            self._parent[sid] = parent
            self._children.setdefault(parent, []).append(sid)
            self.collapsed_total += 1
            return False, []
        # New root: any existing roots it covers collapse beneath it, in
        # root insertion order (their own subtrees ride along untouched).
        demoted = [rid for rid in candidates if subscription.covers(roots[rid])]
        if demoted:
            if len(demoted) > 1:
                demoted = self._in_root_order(demoted)
            kids = self._children.setdefault(sid, [])
            for root_id in demoted:
                del roots[root_id]
                self._parent[root_id] = sid
                kids.append(root_id)
            self.collapsed_total += len(demoted)
        roots[sid] = subscription
        return True, demoted

    def _in_root_order(self, root_ids: list[int]) -> list[int]:
        """``root_ids`` sorted by root insertion order (one pass)."""
        wanted = set(root_ids)
        return [rid for rid in self._roots if rid in wanted]

    def remove(self, subscription_id: int) -> tuple[bool, list[Subscription]]:
        """Drop a subscription, repairing the forest around it.

        Returns ``(was_root, promoted)``: when ``was_root`` is True the
        caller must remove the id from its matching engine and add every
        subscription in ``promoted`` (the direct children, now roots).
        A removed leaf splices its children up to its parent and leaves
        the engine untouched.
        """
        self._subs.pop(subscription_id)
        kids = self._children.pop(subscription_id, None)
        if subscription_id in self._roots:
            del self._roots[subscription_id]
            promoted: list[Subscription] = []
            if kids:
                subs = self._subs
                parent = self._parent
                for child_id in kids:
                    del parent[child_id]
                    child = subs[child_id]
                    self._roots[child_id] = child
                    promoted.append(child)
                self.promotions_total += len(kids)
            return True, promoted
        parent_id = self._parent.pop(subscription_id)
        siblings = self._children[parent_id]
        siblings.remove(subscription_id)
        if kids:
            parent = self._parent
            for child_id in kids:
                parent[child_id] = parent_id
            siblings.extend(kids)
        if not siblings:
            del self._children[parent_id]
        return False, []

    def expand(
        self, matched_roots: list[Subscription], event: Event
    ) -> tuple[list[int], int, int]:
        """Fan a roots-only match result into the covered subtrees.

        Pruned DFS: a visited descendant whose predicate fails the event
        prunes its whole subtree (match is upward-closed through the
        covering order, so nothing below it can match).  Returns
        ``(matched_ids, tested, hit)`` — all matching subscription ids
        (roots included, unsorted), how many descendant predicates were
        tested, and how many of those hit (the caller folds both into
        its :class:`~repro.telemetry.load.MatchWork` accounting).
        """
        children = self._children
        subs = self._subs
        matched: list[int] = []
        tested = 0
        hit = 0
        stack: list[int] = []
        for root in matched_roots:
            root_id = root.subscription_id
            matched.append(root_id)
            kids = children.get(root_id)
            if kids:
                stack.extend(kids)
        while stack:
            sid = stack.pop()
            tested += 1
            if subs[sid].matches(event):
                hit += 1
                matched.append(sid)
                kids = children.get(sid)
                if kids:
                    stack.extend(kids)
        return matched, tested, hit
