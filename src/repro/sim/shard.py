"""Sharded parallel execution of one simulation run.

The identifier ring is partitioned into K contiguous arcs; each arc's
event loop runs in its own worker (a forked process, or inline for
debugging and K=1 parity checks) over its own
:class:`~repro.sim.kernel.Simulator`.  Workers advance in lockstep
through *conservative windows*: the one-hop network delay is a
lookahead guarantee — no cross-shard message sent at or after the
window start ``t0`` can arrive before ``t0 + delay`` — so every worker
may safely drain ``[t0, t0 + delay)`` without hearing from its peers.
At the window barrier the coordinator collects each shard's outbox
(cross-shard sends already stamped with their arrival time, see
:class:`~repro.overlay.network.ShardNetwork`) and routes it into the
destination shards' ``(dst, arrival)`` inbox buckets, reusing the
batched bucket drain as the shard-boundary unit.

Determinism:

- Request ids are drawn from disjoint residue classes
  (``itertools.count(shard + 1, num_shards)``), so no two shards can
  mint the same id; with K=1 the stream is exactly the serial
  ``count(1)``.
- Remote messages are injected in (source shard id, send sequence)
  order, after the destination's own same-tick sends — a fixed merge
  order, so repeated runs are bit-for-bit identical for any K.
- With K=1 nothing ever crosses a shard boundary and every event fires
  in the same (time, seq) order as the serial kernel, so the behavior
  fingerprint is bit-for-bit equal to a serial
  :meth:`~repro.workload.trace.Trace.replay` of the same trace.

The merged run is audited *post hoc*: workers record the application
hook stream (subscribe/publish/notify) with an :class:`AuditTap`, and
the coordinator replays the merged stream into the real
:class:`~repro.audit.Auditor` against a shim system, so the delivery
oracle of the serial runner applies unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import multiprocessing
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.audit import AuditConfig, Auditor, AuditReport
from repro.errors import ConfigurationError
from repro.metrics.memory import peak_rss_bytes, reset_peak_rss
from repro.metrics.recorder import MetricsRecorder
from repro.overlay import api as overlay_api
from repro.overlay.network import FixedDelay, ShardNetwork
from repro.sim.kernel import Simulator
from repro.sim.stack import build_mapping, build_stack, ring_node_ids
from repro.telemetry import Telemetry, current as current_telemetry
from repro.telemetry.profile import ShardProfiler

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig
    from repro.workload.trace import Trace, TraceOp

logger = logging.getLogger(__name__)

#: The coordinator logs a shard-imbalance warning when the busiest
#: shard carries more than this multiple of the median shard load.
LOAD_IMBALANCE_THRESHOLD = 2.0


#: The mapping recipe under its older name, which code outside the
#: package (the perfbench harness) still imports from here.
build_shard_mapping = build_mapping


def partition_ring(
    node_ids: Sequence[int],
    num_shards: int,
    cuts: Sequence[int] | None = None,
) -> tuple[list[frozenset[int]], dict[int, int]]:
    """Split the ring into ``num_shards`` contiguous identifier arcs.

    Returns the per-shard id sets (ascending-arc order) and the
    ``node id -> shard`` map.  By default arcs are near-equal in node
    count; ``cuts`` overrides the arc boundaries with explicit start
    offsets into the ascending id order — ``cuts[s]`` is the index of
    shard ``s``'s first node (``cuts[0]`` must be 0, offsets strictly
    increasing, every arc non-empty).  That is the feedback channel of
    the execution profiler's rebalance advisor
    (:func:`repro.telemetry.profile.suggest_cuts`): traffic-weighted
    cut points equalize measured load per arc instead of node count.
    Contiguity keeps intra-shard routing hops (successor walks, finger
    chains within the arc) local, which is what makes the conservative
    windows worth their barrier.
    """
    if num_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {num_shards}")
    if num_shards > len(node_ids):
        raise ConfigurationError(
            f"{num_shards} shards for {len(node_ids)} nodes: every shard "
            "needs at least one node"
        )
    ordered = sorted(node_ids)
    n = len(ordered)
    if cuts is None:
        starts = [n * shard // num_shards for shard in range(num_shards)]
    else:
        starts = [int(c) for c in cuts]
        if len(starts) != num_shards:
            raise ConfigurationError(
                f"{len(starts)} cut points for {num_shards} shards: need "
                "exactly one start offset per shard"
            )
        if starts[0] != 0:
            raise ConfigurationError(
                f"cuts must start at offset 0, got {starts[0]}"
            )
        for shard in range(1, num_shards):
            if starts[shard] <= starts[shard - 1]:
                raise ConfigurationError(
                    f"cut points must be strictly increasing, got {starts}"
                )
        if starts[-1] >= n:
            raise ConfigurationError(
                f"cut point {starts[-1]} out of range for {n} nodes"
            )
    bounds = starts + [n]
    locals_: list[frozenset[int]] = []
    shard_of: dict[int, int] = {}
    for shard in range(num_shards):
        arc = ordered[bounds[shard]:bounds[shard + 1]]
        locals_.append(frozenset(arc))
        for node_id in arc:
            shard_of[node_id] = shard
    return locals_, shard_of


class AuditTap:
    """Records the application-level audit hook stream of one worker.

    Implements the same four hooks the :class:`~repro.audit.Auditor`
    exposes, but only appends ``(time, seq, kind, args)`` records; the
    coordinator merges the per-shard streams by ``(time, shard, seq)``
    and replays them into a real auditor after the run.
    """

    __slots__ = ("records", "_seq")

    def __init__(self) -> None:
        self.records: list[tuple[float, int, str, tuple]] = []
        self._seq = 0

    def _record(self, now: float, kind: str, args: tuple) -> None:
        self.records.append((now, self._seq, kind, args))
        self._seq += 1

    def on_subscribe(self, subscription, subscriber, ttl, now) -> None:
        self._record(now, "subscribe", (subscription, subscriber, ttl))

    def on_unsubscribe(self, subscription_id, now) -> None:
        self._record(now, "unsubscribe", (subscription_id,))

    def on_publish(self, event, publisher, keys, request_id, now) -> None:
        self._record(now, "publish", (event, publisher, keys, request_id))

    def on_notifications(self, node_id, notifications, now) -> None:
        self._record(now, "notifications", (node_id, notifications))


@dataclasses.dataclass
class ShardResult:
    """Final payload one worker hands back at the horizon."""

    recorder: MetricsRecorder
    audit_records: list[tuple[float, int, str, tuple]]
    events_processed: int
    now: float
    #: Worker-process RSS high-water mark (bytes).  Meaningful in fork
    #: mode, where each worker resets its mark at startup; inline
    #: workers share the coordinator process and report its peak.
    peak_rss_bytes: int = 0
    #: Wall-clock spent inside the final run-to-horizon stretch and the
    #: events it fired (profiled runs only; zero otherwise).
    finish_busy_s: float = 0.0
    finish_events: int = 0
    #: One-hop sends per local node — the rebalance advisor's traffic
    #: measurement (None unless the run was profiled).
    node_sends: dict[int, int] | None = None


class ShardWorker:
    """One shard's full simulation stack plus its barrier protocol.

    The stack comes from the same :func:`~repro.sim.stack.build_stack`
    recipe as a serial run, over a :class:`ShardNetwork` and with only
    the local arc's node objects materialized (the ring records full
    membership everywhere so routing geometry agrees, but registers
    handlers and pub/sub state for local ids only).
    """

    def __init__(
        self,
        config: "ExperimentConfig",
        shard: int,
        num_shards: int,
        ring_ids: list[int],
        local: frozenset[int],
        ops: list["TraceOp"],
        snapshot_times: Sequence[float],
        audit: bool,
        profile: bool = False,
    ) -> None:
        self.shard = shard
        # Disjoint residue classes: shard s mints s+1, s+1+K, s+1+2K, …
        # K=1 degenerates to the serial count(1) stream.
        self._counter = itertools.count(shard + 1, num_shards)
        sim = Simulator()
        network = ShardNetwork(
            sim, FixedDelay(config.message_delay), local=local
        )
        system = build_stack(config, network, ring_ids, local)
        self.tap: AuditTap | None = None
        if audit:
            self.tap = AuditTap()
            system.attach_auditor(self.tap)
        # Schedule the local slice of the trace exactly like
        # Trace.replay does for the whole trace.
        for op in ops:
            if op.kind == "sub":
                sim.schedule_at(
                    op.time, system.subscribe, op.node, op.subscription, op.ttl
                )
            else:
                sim.schedule_at(op.time, system.publish, op.node, op.event)
        for time in snapshot_times:
            sim.schedule_at(time, system.snapshot_storage)
        self.sim = sim
        self.network = network
        self.system = system
        # Per-node send metering for the execution profiler's rebalance
        # advisor; a pure wall-clock/traffic observer, so profiled runs
        # stay bit-for-bit behavior-identical to unprofiled ones.
        self._node_sends = network.meter_sends() if profile else None

    # -- barrier protocol ---------------------------------------------------

    def poll(self, injections: list) -> float | None:
        """Inject last window's remote arrivals; report the next event."""
        if injections:
            self.network.inject(injections)
        return self.sim.next_event_time()

    def run_window(self, bound: float) -> tuple[list, int, float]:
        """Drain ``[now, bound)``; return (outbox, events fired, busy seconds).

        Busy time is the wall-clock spent inside ``run_before`` —
        worker-measured, so the coordinator's round profile can split
        each shard's slot into busy vs. stall (barrier wait + pipe)
        without a clock shared across processes.
        """
        previous = overlay_api._request_counter
        overlay_api._request_counter = self._counter
        start = perf_counter()
        try:
            fired = self.sim.run_before(bound)
        finally:
            busy = perf_counter() - start
            overlay_api._request_counter = previous
        return self.network.drain_outbox(), fired, busy

    def finish(self, horizon: float) -> ShardResult:
        """Run out the clock to the horizon and snapshot final state.

        Cross-shard sends made during this last stretch necessarily
        arrive after the horizon (the coordinator only enters the
        finish phase once every remaining event lies within one delay
        of it), so the final outbox is discarded — exactly the
        in-flight truncation a serial ``run_until(horizon)`` performs.
        """
        previous = overlay_api._request_counter
        overlay_api._request_counter = self._counter
        start = perf_counter()
        try:
            finish_events = self.sim.run_until(horizon)
        finally:
            busy = perf_counter() - start
            overlay_api._request_counter = previous
        self.network.drain_outbox()
        self.system.snapshot_storage()
        return ShardResult(
            recorder=self.system.recorder,
            audit_records=self.tap.records if self.tap is not None else [],
            events_processed=self.sim.events_processed,
            now=self.sim.now,
            peak_rss_bytes=peak_rss_bytes(),
            finish_busy_s=busy,
            finish_events=finish_events,
            node_sends=dict(self._node_sends)
            if self._node_sends is not None
            else None,
        )


class _InlineShard:
    """Same submit/result surface as a forked worker, in-process."""

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self._result: object = None

    def submit(self, op: str, arg) -> None:
        if op == "poll":
            self._result = self._worker.poll(arg)
        elif op == "run":
            self._result = self._worker.run_window(arg)
        else:
            self._result = self._worker.finish(arg)

    def result(self):
        result = self._result
        self._result = None
        return result

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def _worker_main(conn, config, shard, num_shards, ring_ids, local, ops,
                 snapshot_times, audit, profile) -> None:
    """Forked worker loop: build the stack, then serve barrier requests."""
    # Start the RSS high-water mark at the post-fork footprint so the
    # final ShardResult reports this worker's own peak (stack build
    # plus run), not whatever the parent had touched before forking.
    reset_peak_rss()
    worker = ShardWorker(
        config, shard, num_shards, ring_ids, local, ops, snapshot_times,
        audit, profile,
    )
    while True:
        op, arg = conn.recv()
        if op == "poll":
            conn.send(worker.poll(arg))
        elif op == "run":
            conn.send(worker.run_window(arg))
        else:
            conn.send(worker.finish(arg))
            conn.close()
            return


class _ForkShard:
    """Coordinator-side handle of one forked worker.

    The fork start method shares the parent's memory copy-on-write, so
    the (potentially large) trace and ring are never pickled; only
    outbox batches and the final :class:`ShardResult` cross the pipe.
    """

    def __init__(self, ctx, args: tuple) -> None:
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main, args=(child_conn, *args), daemon=True
        )
        self._process.start()
        child_conn.close()

    def submit(self, op: str, arg) -> None:
        self._conn.send((op, arg))

    def result(self):
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join()


# -- audit replay -----------------------------------------------------------


class _ShimOverlay:
    """What the replay auditor needs of an overlay: size and liveness.

    Sharded runs are churn-free (the trace carries only subscribe and
    publish operations), so every node is alive for the whole run.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n

    def is_alive(self, node_id: int) -> bool:
        return True


class _ReplaySystem:
    """The slice of PubSubSystem the auditor reads, over merged state."""

    def __init__(self, sim, mapping, config, n_nodes, recorder, telemetry):
        self.sim = sim
        self.mapping = mapping
        self.config = config
        self.overlay = _ShimOverlay(n_nodes)
        self.recorder = recorder
        self.telemetry = (
            telemetry if telemetry is not None else current_telemetry()
        )
        self.auditor = None

    def attach_auditor(self, auditor) -> None:
        self.auditor = auditor


def replay_audit(
    config: "ExperimentConfig",
    recorder: MetricsRecorder,
    records: list[tuple[float, int, int, str, tuple]],
    horizon: float,
    audit: AuditConfig,
    telemetry: Telemetry | None = None,
) -> AuditReport:
    """Replay the merged audit hook stream into a real :class:`Auditor`.

    ``records`` are ``(time, shard, seq, kind, args)`` tuples, already
    sorted; hooks fire on a fresh simulator in exactly that order, so
    the shadow ledger and the delivery oracle see the same global
    history a serial auditor would have observed.  Structural probes
    need a live overlay and are skipped (the per-worker routing state
    was already serially verified by the K=1 parity contract).
    """
    sim = Simulator()
    mapping = build_mapping(config)
    shim = _ReplaySystem(
        sim, mapping, config.pubsub_config(), config.nodes, recorder, telemetry
    )
    auditor = Auditor(
        shim,
        AuditConfig(
            probe_period=None,
            delivery_deadline=audit.delivery_deadline,
            grace=audit.grace,
        ),
    )
    for time, _shard, _seq, kind, args in records:
        sim.call_at(time, getattr(auditor, "on_" + kind), *args, time)
    # Truncate at the horizon like the serial runner: deadline
    # evaluations past it stay pending and finalize() marks their
    # publications indeterminate instead of deriving missed-delivery
    # violations from in-flight truncation.
    sim.run_until(horizon)
    return auditor.finalize()


# -- the coordinator --------------------------------------------------------


@dataclasses.dataclass
class ShardRunReport:
    """Merged outcome of one sharded run.

    Attributes:
        recorder: Metrics merged across shards in shard order.
        audit: Delivery-oracle report from the post-hoc replay (None
            when the run was not audited).
        num_shards: K.
        horizon: The simulated end time every worker ran to.
        barrier_rounds: Conservative windows executed.
        remote_messages: One-hop messages that crossed a shard boundary.
        barrier_stalls: (shard, window) pairs that fired zero events —
            the load-imbalance signal of the tick-barrier design.
        events_per_shard: Kernel events fired by each worker.
        peak_rss_by_shard: Each worker's RSS high-water mark in bytes
            (per forked process; inline workers all report the shared
            coordinator process).
        load_by_shard: One-hop messages sent by each shard's nodes,
            read from the per-shard recorders before the merge — the
            coordinator-side per-shard load aggregate of the load
            observatory (workers run telemetry-disabled).
        profile: The execution profiler that rode this run (None unless
            profiling was requested) — per-round busy/stall timelines,
            the critical-path summary, and the rebalance advisor.
    """

    recorder: MetricsRecorder
    audit: AuditReport | None
    num_shards: int
    horizon: float
    barrier_rounds: int
    remote_messages: int
    barrier_stalls: int
    events_per_shard: list[int]
    peak_rss_by_shard: list[int]
    load_by_shard: list[int]
    profile: ShardProfiler | None = None

    @property
    def load_imbalance(self) -> float:
        """Max/median shard load ratio (0.0 when the median is zero)."""
        return load_imbalance_ratio(self.load_by_shard)


def load_imbalance_ratio(load_by_shard: Sequence[int]) -> float:
    """Max/median shard load ratio (0.0 when the median is zero)."""
    if not load_by_shard:
        return 0.0
    ordered = sorted(load_by_shard)
    n = len(ordered)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    )
    if median <= 0:
        return 0.0
    return max(ordered) / median


def run_sharded(
    config: "ExperimentConfig",
    trace: "Trace",
    num_shards: int,
    *,
    mode: str = "fork",
    telemetry: Telemetry | None = None,
    audit: AuditConfig | None = None,
    horizon_slack: float = 60.0,
    storage_samples: int = 24,
    profile: ShardProfiler | None = None,
    cuts: Sequence[int] | None = None,
) -> ShardRunReport:
    """Execute a trace across ``num_shards`` parallel shard workers.

    Args:
        config: The experiment configuration (its ``shards`` field is
            ignored here — ``num_shards`` is explicit).
        trace: The full pre-generated workload trace.
        num_shards: K; 1 reproduces a serial replay bit for bit.
        mode: ``"fork"`` (worker processes) or ``"inline"`` (same
            process; debugging, and exact-parity tests without fork).
        telemetry: Optional coordinator-side observability: per-shard
            ``sim.*`` gauges and ``shard.*`` barrier counters, sampled
            on the simulated clock.  Workers always run with telemetry
            disabled; the coordinator owns the observable surface.
        audit: Optional delivery-oracle configuration; the merged hook
            stream is replayed post hoc (structural probes are skipped).
        horizon_slack: Seconds past the last trace op, matching
            :meth:`~repro.workload.trace.Trace.replay`.
        storage_samples: Periodic storage snapshots per worker.
        profile: Optional execution profiler
            (:class:`~repro.telemetry.profile.ShardProfiler` with
            ``num_shards`` shards): records per-round busy/stall/traffic
            timelines and per-node sends.  Pure wall-clock observation —
            the simulated outcome is bit-for-bit identical either way.
            Attached to ``telemetry.profile`` (when enabled) so the
            JSONL/Perfetto exports carry it.
        cuts: Optional explicit arc start offsets for
            :func:`partition_ring` — the rebalance advisor's feedback
            channel (``suggest_cuts`` output goes here).
    """
    if mode not in ("fork", "inline"):
        raise ConfigurationError(f"unknown shard mode {mode!r}")
    delay = config.message_delay
    if num_shards > 1 and delay <= 0:
        raise ConfigurationError(
            "sharded execution needs message_delay > 0: the one-hop delay "
            "is the conservative window's lookahead"
        )
    if profile is not None and profile.num_shards != num_shards:
        raise ConfigurationError(
            f"profiler sized for {profile.num_shards} shards attached to a "
            f"{num_shards}-shard run"
        )
    ring_ids = ring_node_ids(config)
    locals_, shard_of = partition_ring(ring_ids, num_shards, cuts)
    current_cuts = [0]
    for arc in locals_[:-1]:
        current_cuts.append(current_cuts[-1] + len(arc))
    ops = trace.ops
    last = ops[-1].time if ops else 0.0
    horizon = last + horizon_slack
    snapshot_times = [
        horizon * sample / storage_samples
        for sample in range(1, storage_samples + 1)
    ]
    per_shard_ops: list[list["TraceOp"]] = [[] for _ in range(num_shards)]
    for op in ops:
        per_shard_ops[shard_of[op.node]].append(op)

    audited = audit is not None
    profiled = profile is not None
    workers: list[_InlineShard | _ForkShard] = []
    if mode == "inline":
        for shard in range(num_shards):
            workers.append(_InlineShard(ShardWorker(
                config, shard, num_shards, ring_ids, locals_[shard],
                per_shard_ops[shard], snapshot_times, audited, profiled,
            )))
    else:
        ctx = multiprocessing.get_context("fork")
        for shard in range(num_shards):
            workers.append(_ForkShard(ctx, (
                config, shard, num_shards, ring_ids, locals_[shard],
                per_shard_ops[shard], snapshot_times, audited, profiled,
            )))

    # Coordinator-side observability: gauges read these arrays lazily.
    now_by_shard = [0.0] * num_shards
    fired_by_shard = [0] * num_shards
    tel = telemetry if telemetry is not None and telemetry.enabled else None
    if tel is not None:
        registry = tel.registry
        for shard in range(num_shards):
            registry.gauge(
                "sim.now", shard=shard,
                supplier=(lambda s=shard: now_by_shard[s]),
            )
            registry.gauge(
                "sim.events_processed", shard=shard,
                supplier=(lambda s=shard: float(fired_by_shard[s])),
            )
        rounds_counter = registry.counter("shard.barrier_rounds")
        remote_counter = registry.counter("shard.remote_messages")
        stall_counter = registry.counter("shard.barrier_stalls")
        sample_period = horizon / storage_samples
        next_sample = sample_period
        tel.sample(0.0)

    rounds = 0
    remote = 0
    stalls = 0
    injections: list[list] = [[] for _ in range(num_shards)]
    try:
        # A lone shard owns every inbox: no message can cross a
        # boundary, so the whole run is one serial finish phase with
        # zero barrier overhead (this is the `--shards 1` parity path).
        while num_shards > 1:
            for shard, worker in enumerate(workers):
                worker.submit("poll", injections[shard])
            next_times = [worker.result() for worker in workers]
            live = [time for time in next_times if time is not None]
            t0 = min(live) if live else None
            if t0 is None or t0 > horizon:
                break
            bound = t0 + delay
            if bound > horizon:
                # Every remaining event lies within one delay of the
                # horizon: no cross-shard send from here on can arrive
                # in time, so the workers can run out independently.
                break
            # The round wall-clock spans run-submit to outboxes routed:
            # with the workers' own busy measurements, everything that
            # is not busy is stall (barrier wait + pipe I/O), so
            # busy + stall == wall holds exactly per shard per round.
            round_start = perf_counter() if profiled else 0.0
            for worker in workers:
                worker.submit("run", bound)
            injections = [[] for _ in range(num_shards)]
            rounds += 1
            busy_list = [0.0] * num_shards
            fired_list = [0] * num_shards
            sent_rows = (
                [[0] * num_shards for _ in range(num_shards)]
                if profiled else None
            )
            for shard, worker in enumerate(workers):
                outbox, fired, busy = worker.result()
                busy_list[shard] = busy
                fired_list[shard] = fired
                fired_by_shard[shard] += fired
                now_by_shard[shard] = bound
                if fired == 0:
                    stalls += 1
                if sent_rows is None:
                    for item in outbox:
                        injections[shard_of[item[0]]].append(item)
                        remote += 1
                else:
                    row = sent_rows[shard]
                    for item in outbox:
                        dst_shard = shard_of[item[0]]
                        injections[dst_shard].append(item)
                        remote += 1
                        row[dst_shard] += 1
            if profiled:
                profile.on_round(
                    t0, bound, perf_counter() - round_start,
                    busy_list, fired_list, sent_rows,
                )
            if tel is not None:
                rounds_counter.inc()
                while next_sample <= bound:
                    tel.sample(next_sample)
                    next_sample += sample_period
        finish_start = perf_counter() if profiled else 0.0
        for worker in workers:
            worker.submit("finish", horizon)
        results: list[ShardResult] = [worker.result() for worker in workers]
        if profiled:
            profile.on_finish(
                [result.finish_busy_s for result in results],
                perf_counter() - finish_start,
                [result.finish_events for result in results],
            )
            for result in results:
                if result.node_sends:
                    profile.add_node_loads(result.node_sends)
    finally:
        for worker in workers:
            worker.close()

    # Per-shard load must be read before the merge collapses the
    # per-shard recorders into one; total one-hop sends is the load
    # proxy the skew observatory uses for nodes.
    load_by_shard = [result.recorder.messages.total_sends() for result in results]
    imbalance = load_imbalance_ratio(load_by_shard)
    if profiled:
        profile.finalize(ring_ids, current_cuts, load_by_shard)
        if telemetry is not None:
            telemetry.profile = profile
    if tel is not None:
        for shard, result in enumerate(results):
            now_by_shard[shard] = result.now
            fired_by_shard[shard] = result.events_processed
        remote_counter.inc(remote)
        stall_counter.inc(stalls)
        registry.gauge(
            "shard.load_imbalance", supplier=(lambda: imbalance)
        )
        tel.sample(horizon)
    recorder = MetricsRecorder()
    for result in results:
        recorder.merge_from(result.recorder)

    report: AuditReport | None = None
    if audit is not None:
        merged_records = sorted(
            (
                (time, shard, seq, kind, args)
                for shard, result in enumerate(results)
                for time, seq, kind, args in result.audit_records
            ),
            key=lambda record: record[:3],
        )
        report = replay_audit(
            config, recorder, merged_records, horizon, audit, telemetry
        )

    shard_report = ShardRunReport(
        recorder=recorder,
        audit=report,
        num_shards=num_shards,
        horizon=horizon,
        barrier_rounds=rounds,
        remote_messages=remote,
        barrier_stalls=stalls,
        events_per_shard=[result.events_processed for result in results],
        peak_rss_by_shard=[result.peak_rss_bytes for result in results],
        load_by_shard=load_by_shard,
        profile=profile,
    )
    if num_shards > 1 and imbalance > LOAD_IMBALANCE_THRESHOLD:
        logger.warning(
            "shard load imbalance: max/median = %.2fx (> %.1fx) across "
            "%d shards; loads = %s",
            imbalance, LOAD_IMBALANCE_THRESHOLD, num_shards, load_by_shard,
        )
        # Structured twin of the warning: a shard-scope overload record
        # the JSONL export, `repro stats`, and the audit report can see
        # instead of a stderr line scrolling past.
        if tel is not None and tel.load is not None:
            tel.load.record_shard_imbalance(
                horizon, load_by_shard, imbalance, LOAD_IMBALANCE_THRESHOLD
            )
    return shard_report
