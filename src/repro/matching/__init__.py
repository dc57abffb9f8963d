"""Subscription matching at rendezvous nodes.

Rendezvous nodes match each incoming event against their stored
subscriptions (Section 3.2).  One engine does the work and one checks it:

- :class:`~repro.matching.index.GridIndexMatcher` -- a per-attribute
  bucket-grid index in the spirit of the fast matching literature the
  paper cites ([6], Fabret et al., SIGMOD 2001); the engine behind
  every rendezvous store by default;
- :class:`~repro.matching.brute.BruteForceMatcher` -- the obvious
  reference implementation, the oracle the grid is tested against.

Both expose add/remove/match over :class:`repro.core.Subscription`.

Orthogonal to the engine, :class:`~repro.matching.covering.
CoveringIndex` maintains the covering partial order over a store's
subscriptions so the engine only ever sees the least-covered roots;
covered subscriptions are reached by a pruned DFS on a root hit.
"""

from repro.matching.base import Matcher
from repro.matching.brute import BruteForceMatcher
from repro.matching.covering import CoveringIndex
from repro.matching.index import GridIndexMatcher

__all__ = [
    "Matcher",
    "BruteForceMatcher",
    "CoveringIndex",
    "GridIndexMatcher",
]
