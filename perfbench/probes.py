"""Layer probes: in-memory spans around each layer's public entry points.

The traced run replaces a fixed list of methods (``PROBES``) with
wrappers that record one span per call -- layer, entry point, start,
end, parent span and the trace operation that caused it -- into flat
arrays, so a run of a million spans costs tens of megabytes.  Nothing
under ``src/`` changes: wrappers are installed on the classes before the
stack is built (so bound methods the stack captures at build time are
wrapped too) and removed afterwards, leaving the timed runs untouched.

Causality: the trace-op id of a span is the op whose call chain it runs
in.  ``subscribe``/``publish`` set it from the trace op's subscription or
event id; every request id minted while an op is current is remembered,
and the network drain and node receive entry points restore the op from
the request id of the message they handle.  Spans with no trace op
(churn, telemetry samples, storage snapshots) carry -1.

Self time: a span's duration minus the durations of its direct children.
Every call under the root span is nested in it, so the self times of all
spans, root included, sum to the root's duration exactly; the root's own
self time is the *untraced remainder* (time in no probed layer).
"""

from __future__ import annotations

import array
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

#: (layer, module, class, method) -- the probed entry points.  Layers use
#: the module names of ``src/repro``; ``chord.maint`` is the membership
#: half of ``overlay.chord`` (with ``overlay.ring``), ``store`` is
#: ``core.rendezvous``.  ``Subscription.covers`` is counted, not spanned
#: (about a million calls on ``attr-split``); its time is inside
#: ``CoveringIndex.add``, which is spanned.
PROBES: tuple[tuple[str, str, str, str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", "run_until"),
    ("network", "repro.overlay.network", "Network", "transmit"),
    ("network", "repro.overlay.network", "Network", "_drain"),
    ("chord", "repro.overlay.ring", "RingOverlay", "send"),
    ("chord", "repro.overlay.ring", "RingOverlay", "mcast"),
    ("chord", "repro.overlay.chord.node", "ChordNode", "receive"),
    ("chord", "repro.overlay.chord.node", "ChordNode", "receive_batch"),
    ("chord", "repro.overlay.chord.node", "ChordNode", "route_unicast"),
    ("chord", "repro.overlay.chord.node", "ChordNode", "continue_mcast"),
    ("chord.maint", "repro.overlay.ring", "RingOverlay", "join"),
    ("chord.maint", "repro.overlay.ring", "RingOverlay", "leave"),
    ("chord.maint", "repro.overlay.ring", "RingOverlay", "crash"),
    ("mapping", "repro.core.mappings.base", "AKMapping", "subscription_keys"),
    ("mapping", "repro.core.mappings.attribute_split", "AttributeSplitMapping",
     "subscription_key_groups"),
    ("mapping", "repro.core.mappings.attribute_split", "AttributeSplitMapping",
     "event_keys"),
    ("mapping", "repro.core.mappings.selective_attribute",
     "SelectiveAttributeMapping", "subscription_key_groups"),
    ("mapping", "repro.core.mappings.selective_attribute",
     "SelectiveAttributeMapping", "event_keys"),
    ("core", "repro.core.system", "PubSubSystem", "subscribe"),
    ("core", "repro.core.system", "PubSubSystem", "publish"),
    ("core", "repro.core.system", "PubSubSystem", "deliver_notifications"),
    ("core", "repro.core.node", "PubSubNode", "on_deliver"),
    ("store", "repro.core.rendezvous", "SubscriptionStore", "put"),
    ("store", "repro.core.rendezvous", "SubscriptionStore", "match"),
    ("store", "repro.core.rendezvous", "SubscriptionStore", "remove"),
    ("store", "repro.core.rendezvous", "SubscriptionStore", "purge_expired"),
    ("covering", "repro.matching.covering", "CoveringIndex", "add"),
    ("covering", "repro.matching.covering", "CoveringIndex", "remove"),
    ("covering", "repro.matching.covering", "CoveringIndex", "expand"),
    ("matcher", "repro.matching.index", "GridIndexMatcher", "add"),
    ("matcher", "repro.matching.index", "GridIndexMatcher", "remove"),
    ("matcher", "repro.matching.index", "GridIndexMatcher", "match"),
    ("telemetry", "repro.telemetry", "Telemetry", "sample"),
    ("telemetry", "repro.telemetry.load", "LoadMeter", "on_transmit"),
    ("telemetry", "repro.telemetry.load", "LoadMeter", "on_deliver"),
    ("telemetry", "repro.telemetry.load", "LoadMeter", "on_bucket_drain"),
    ("telemetry", "repro.telemetry.load", "LoadMeter", "on_subscription_stored"),
    ("telemetry", "repro.telemetry.load", "LoadMeter", "on_publication"),
    ("telemetry", "repro.telemetry.tracing", "Tracer", "begin_request"),
    ("telemetry", "repro.telemetry.tracing", "Tracer", "hop"),
    ("telemetry", "repro.telemetry.tracing", "Tracer", "delivery"),
    ("telemetry", "repro.telemetry.tracing", "Tracer", "mark_dropped"),
    ("telemetry", "repro.telemetry.registry", "Histogram", "observe"),
)

#: Layers whose self times partition the traced wall, in report order;
#: ``bench`` is the root span (the untraced remainder).
LAYERS = (
    "sim", "network", "chord", "chord.maint", "mapping", "core", "store",
    "covering", "matcher", "telemetry", "bench",
)

ROOT = "bench:replay"


def _resolve(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


class SpanRecorder:
    """Flat in-memory span store plus the op-causality bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.op = array.array("l")
        self.stack = [-1]
        self.current_op = -1
        self.req_op: dict[int, int] = {}
        self.sub_op: dict[int, int] = {}
        self.event_op: dict[int, int] = {}
        self.counts: Counter[str] = Counter()

    def intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def reset(self) -> None:
        """Drop every recorded span and count (the stack must be empty)."""
        for arr in (self.name_id, self.start, self.end, self.parent, self.op):
            del arr[:]
        self.counts.clear()

    def __len__(self) -> int:
        return len(self.start)

    def root(self):
        """Context manager for the root span around one replay.

        Entering it drops whatever the probes recorded while the stack
        was being built, so the root is the only top-level span.
        """
        return _RootSpan(self, self.intern(ROOT, "bench"))

    def wrap(self, fn, name: str, layer: str, op_of=None, hook=None):
        """A span-recording wrapper of ``fn``.

        ``op_of(args)`` returns the trace-op id the call runs for (or
        None to inherit the caller's); ``hook(args, result)`` records
        counts from the call's arguments and result.
        """
        nid = self.intern(name, layer)
        names, starts, ends = self.name_id, self.start, self.end
        parents, ops, stack = self.parent, self.op, self.stack
        clock = perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            previous = rec.current_op
            if op_of is not None:
                op = op_of(args)
                if op is not None:
                    rec.current_op = op
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(rec.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                rec.current_op = previous
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key: str):
        """A count-only wrapper (no span) for very hot, very small calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        starts, ends, parents = self.start, self.end, self.parent
        durations = [e - s for s, e in zip(starts, ends)]
        own = list(durations)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def summary(self, inclusive_names=frozenset()) -> dict:
        """Per-layer self time, per-entry-point counts and inclusive time.

        Inclusive time is summed for ``inclusive_names`` only, over the
        outermost calls of each, so a recursive chain is not counted
        twice.
        """
        own = self.self_times()
        names, layers = self.names, self.layers
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        name_self: Counter[str] = Counter()
        name_id, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        for idx, nid in enumerate(name_id):
            name = names[nid]
            layer_self[layers[nid]] += own[idx]
            layer_calls[layers[nid]] += 1
            name_self[name] += own[idx]
            calls[name] += 1
            if name in inclusive_names and not _inside_same(
                idx, nid, name_id, parents
            ):
                inclusive[name] += ends[idx] - starts[idx]
        roots = [i for i, p in enumerate(parents) if p < 0]
        wall = sum(ends[i] - starts[i] for i in roots)
        return {
            "wall_s": wall,
            "layer_self_s": layer_self,
            "layer_calls": dict(layer_calls),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "inclusive_s": dict(inclusive),
            "self_s": dict(name_self),
            "spans": len(name_id),
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans: ``<path>.json`` header, ``<path>.bin`` arrays."""
        header = {
            **meta,
            "names": self.names,
            "layers": self.layers,
            "spans": len(self),
            "fields": [
                ["name_id", self.name_id.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
                ["parent", self.parent.typecode],
                ["op", self.op.typecode],
            ],
        }
        Path(f"{path}.json").write_text(json.dumps(header, indent=1))
        with open(f"{path}.bin", "wb") as out:
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(out)


def _inside_same(idx, nid, name_id, parents) -> bool:
    parent = parents[idx]
    while parent >= 0:
        if name_id[parent] == nid:
            return True
        parent = parents[parent]
    return False


class _RootSpan:
    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self._rec = rec
        self._nid = nid
        self._idx = -1

    def __enter__(self):
        rec = self._rec
        rec.reset()
        self._idx = len(rec.start)
        rec.name_id.append(self._nid)
        rec.parent.append(rec.stack[-1])
        rec.op.append(-1)
        rec.end.append(0.0)
        rec.stack.append(self._idx)
        rec.start.append(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        rec = self._rec
        rec.end[self._idx] = perf_counter()
        rec.stack.pop()


class Probes:
    """Installs and removes the layer wrappers around one traced run."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        rec = self.rec
        counts = rec.counts

        def op_of_sub(args):
            return rec.sub_op.get(args[2].subscription_id)

        def op_of_pub(args):
            return rec.event_op.get(args[2].event_id)

        def op_of_drain(args):
            bucket = args[0]._inboxes.get(args[1])
            return rec.req_op.get(bucket[0].request_id) if bucket else None

        def op_of_message(args):
            return rec.req_op.get(args[1].request_id)

        def op_of_batch(args):
            return rec.req_op.get(args[1][0].request_id)

        def no_op(args):
            return -1

        def count_collapsed(args, result):
            became_root, demoted = result
            counts["covering.collapsed"] += (0 if became_root else 1) + len(demoted)

        def count_hits(args, result):
            counts["matcher.hits"] += len(result)

        special = {
            ("PubSubSystem", "subscribe"): (op_of_sub, None),
            ("PubSubSystem", "publish"): (op_of_pub, None),
            ("Network", "_drain"): (op_of_drain, None),
            ("ChordNode", "receive"): (op_of_message, None),
            ("ChordNode", "receive_batch"): (op_of_batch, None),
            ("RingOverlay", "join"): (no_op, None),
            ("RingOverlay", "leave"): (no_op, None),
            ("RingOverlay", "crash"): (no_op, None),
            ("Telemetry", "sample"): (no_op, None),
            ("CoveringIndex", "add"): (None, count_collapsed),
            ("GridIndexMatcher", "match"): (None, count_hits),
        }
        for layer, module, cls_name, method in PROBES:
            owner = _resolve(module, cls_name)
            op_of, hook = special.get((cls_name, method), (None, None))
            fn = getattr(owner, method)
            self._patch(
                owner, method,
                rec.wrap(fn, f"{cls_name}.{method}", layer, op_of, hook),
            )
        subscription = _resolve("repro.core.subscriptions", "Subscription")
        self._patch(
            subscription, "covers",
            rec.counter(subscription.covers, "covering.covers_calls"),
        )
        # Every request id minted while an op is current belongs to it.
        system_module = importlib.import_module("repro.core.system")
        mint = system_module.next_request_id
        req_op = rec.req_op

        def next_request_id():
            request_id = mint()
            req_op[request_id] = rec.current_op
            return request_id

        self._patch(system_module, "next_request_id", next_request_id)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
