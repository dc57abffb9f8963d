"""Per-component memory of a finished stack, measured from outside.

Walks the live objects after a run and charges each byte to one of four
components: Chord routing tables and location caches, rendezvous stores
(entries, their key sets, and the subscription payloads they hold), the
covering forests, and the matcher indexes.  Builtin containers are
descended; other objects only when the component owns them (a stored
entry, say), so references out to shared machinery -- the overlay, the
simulator, the event space, registry instruments -- are not charged at
all.  An object reached twice within one component is counted once.
"""

from __future__ import annotations

import sys
from array import array
from collections import OrderedDict, deque

_CONTAINERS = (dict, OrderedDict, list, tuple, set, frozenset, deque)
_LEAVES = (int, float, str, bytes, bool, type(None), array)

COMPONENTS = ("routing", "store", "covering", "matcher")


def _size(root, seen: set[int], owned: tuple[type, ...]) -> int:
    total = 0
    stack = [root]
    getsizeof = sys.getsizeof
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in seen:
            continue
        seen.add(key)
        if isinstance(obj, _LEAVES):
            total += getsizeof(obj)
        elif isinstance(obj, dict):
            total += getsizeof(obj)
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, _CONTAINERS):
            total += getsizeof(obj)
            stack.extend(obj)
        elif isinstance(obj, owned):
            total += getsizeof(obj)
            state = getattr(obj, "__dict__", None)
            if state is not None:
                stack.append(state)
            for slot in getattr(type(obj), "__slots__", ()):
                value = getattr(obj, slot, None)
                if value is not None:
                    stack.append(value)
    return total


def _fields(obj, names: tuple[str, ...], seen: set[int], owned) -> int:
    return sum(_size(getattr(obj, name), seen, owned) for name in names)


def measure(system) -> dict[str, int]:
    """Bytes per component over every node of ``system``'s local stack."""
    from repro.core.payloads import StoredEntrySnapshot, SubscribePayload
    from repro.core.rendezvous import StoredSubscription
    from repro.core.subscriptions import Constraint, Subscription

    overlay = system.overlay
    routing_seen: set[int] = set()
    store_seen: set[int] = set()
    covering_seen: set[int] = set()
    matcher_seen: set[int] = set()
    store_owned = (
        StoredSubscription, StoredEntrySnapshot, SubscribePayload,
        Subscription, Constraint,
    )
    routing = store = covering = matcher = 0
    for node_id in overlay.app_node_ids():
        node = overlay.node(node_id)
        routing += _fields(
            node,
            ("_cache", "_finger_slots", "_fingers", "_finger_dists",
             "_finger_members", "_finger_counts", "_table_dists",
             "_table_ids", "_table_members", "_finger_starts",
             "_sorted_starts", "_start_perm"),
            routing_seen, (),
        )
        pubsub = system.node(node_id)
        store_obj = pubsub.store
        store += _size(store_obj._entries, store_seen, store_owned)
        store += _size(pubsub.replicas, store_seen, store_owned)
        if store_obj.covering is not None:
            covering += _fields(
                store_obj.covering,
                ("_subs", "_roots", "_parent", "_children"),
                covering_seen, (),
            )
        engine = store_obj._matcher
        matcher += _size(vars(engine), matcher_seen, ())
    return {
        "routing": routing,
        "store": store,
        "covering": covering,
        "matcher": matcher,
        "nodes": len(overlay.app_node_ids()),
    }
